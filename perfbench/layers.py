"""Per-layer metrics from the spans of a traced pass.

Every figure is per traced operation (or a ratio), so runs with different
operation counts compare directly. The layers are the package modules;
`model` gets no metric because no solver calls it on a hot path, and
`errors` holds only types.
"""

from __future__ import annotations


def per_layer(table, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Metric name -> value; the units are the ones BENCHMARK.json declares."""
    n = max(len(traced), 1)
    t = table
    v: dict[str, float] = {}
    for span in (
        "spectrum.lattice", "spectrum.bracket", "spectrum.detscan", "spectrum.critical",
        "spectrum.complex", "constraint.sigma_star",
    ):
        v[f"{span}.calls"] = t.calls(span) / n
        v[f"{span}.self_s"] = t.self_total(span) / n
    for span in ("spectrum.count", "spectrum.locus", "constraint.branch"):
        v[f"{span}.calls"] = t.calls(span) / n
    v["spectrum.locus.s"] = t.total("spectrum.locus") / n

    # useful outcomes over attempts, inside the solve that did the work
    v["spectrum.lattice.polished_per_level"] = t.calls_under("matching.amplitude", "spectrum.lattice") / max(
        t.results_sum("spectrum.lattice"), 1
    )
    v["spectrum.bracket.points_per_level"] = t.points_under("matching.residual", "spectrum.bracket") / max(
        t.results_sum("spectrum.bracket"), 1
    )
    v["spectrum.complex.det_points_per_root"] = t.points_under(
        "matching.counting_det", "spectrum.complex"
    ) / max(t.results_sum("spectrum.complex"), 1)

    for span in ("matching.residual", "matching.matching_det", "matching.counting_det"):
        v[f"{span}.points"] = t.points_sum(t.mask(span)) / n
    v["matching.counting_det.scalar_calls"] = int((t.mask("matching.counting_det") & (t.points == 1)).sum()) / n
    for span in (
        "matching.residual", "matching.matching_det", "matching.counting_det",
        "matching.amplitude", "matching.theta_curve",
    ):
        v[f"{span}.calls"] = t.calls(span) / n
        v[f"{span}.s"] = t.total(span) / n

    v["cli.self_s"] = t.self_total("cli.main") / n
    v["cli.output_bytes"] = sum(
        r["out"]["bytes"] for r in traced if isinstance(r["out"], dict) and "bytes" in r["out"]
    ) / n
    traced_s = sum(r["latency_s"] for r in traced)
    v["trace.op_s"] = traced_s / n
    v["trace.overhead_frac"] = traced_s / max(sum(r["latency_s"] for r in untraced), 1e-12) - 1.0
    return v
