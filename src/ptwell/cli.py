"""Command-line front end.

Subcommands run the solvers and emit structured reports (json or csv) or
sampled curve data for external plotting. Output is deterministic:
identical configuration produces byte-identical bytes, with fixed field
ordering and 12-significant-digit numeric formatting (scientific notation
from |x| >= 1e6 on).

Exit codes: 0 success, 2 invalid flags or configuration, 3 solver
failure, 4 i/o failure. The PTWELL_LOG environment variable (error, info,
debug) sets diagnostic verbosity on stderr.

Started as `ptwell` or `python -m ptwell`, the CLI runs BLAS on one
thread unless OPENBLAS_NUM_THREADS is set: the entry point in
`ptwell.__main__` sets it to 1 before numpy loads, since no code here
calls BLAS and an idle OpenBLAS worker thread spin-waits. `sweep --jobs`
workers inherit the setting. Calling `main` from other code leaves the
variable alone.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import math
import os
import sys

import numpy as np

from .constraint import hyperbola_asymptote, reflected_branch, xi_branch
from .errors import PTWellError
from .matching import ThetaCurveSpec, envelope_asymptote, theta_asymptote, theta_curve
from .model import BoundState, LatticeIndex, ModelParams, WaveVector, lattice_compose
from .spectrum import (
    EnergyWindow,
    SpectrumReport,
    complex_spectrum,
    count_real,
    critical_couplings,
    real_spectrum_bracket,
    real_spectrum_lattice,
    _lattice_k_max,
    _locus_points,
    _require_symmetric,
)

__all__ = ["main", "report_to_json", "report_from_json"]

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# deterministic numeric formatting

def _fmt(x: float) -> str:
    """12 significant digits, shortest form, scientific from |x| >= 1e6."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value in output: {x}")
    if x == 0.0:
        return "0"
    if abs(x) >= 1e6:
        mant, exp = f"{x:.11e}".split("e")
        mant = mant.rstrip("0").rstrip(".")
        return f"{mant}e{exp}"
    s = f"{x:.12g}"
    return s


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(float(v))
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_json_value(u)}" for k, u in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(u) for u in v) + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


def _emit_json(payload: dict) -> str:
    return _json_value(payload) + "\n"


# ---------------------------------------------------------------------------
# report serialization

def _report_payload(report: SpectrumReport) -> dict:
    levels = [
        {"n": i, "s": st.wave.s, "t": st.wave.t, "E": st.energy, "A": st.A}
        for i, st in enumerate(report.real_levels)
    ]
    pairs = [{"re": e.real, "im": e.imag} for e in report.complex_pairs]
    win = None
    if report.window is not None:
        w = report.window
        win = {"re_min": w.re_min, "re_max": w.re_max, "im_min": w.im_min, "im_max": w.im_max}
    diag = {k: report.diagnostics[k] for k in sorted(report.diagnostics)}
    return {
        "params": {"Z": report.params.Z, "omega": report.params.omega},
        "real_levels": levels,
        "complex_pairs": pairs,
        "window": win,
        "diagnostics": diag,
    }


def report_to_json(report: SpectrumReport) -> str:
    """Serialize a report deterministically."""
    return _emit_json(_report_payload(report))


def report_from_json(text: str) -> SpectrumReport:
    """Parse a serialized report back into SpectrumReport values.

    Parsed numbers are kept verbatim, so serializing the result reproduces
    the input bytes.
    """
    doc = json.loads(text)
    params = ModelParams(Z=float(doc["params"]["Z"]), omega=float(doc["params"]["omega"]))
    levels = []
    for item in doc["real_levels"]:
        levels.append(
            BoundState(
                kind="real",
                energy=float(item["E"]),
                params=params,
                wave=WaveVector(float(item["s"]), float(item["t"])),
                A=None if item.get("A") is None else float(item["A"]),
            )
        )
    pairs = [complex(p["re"], p["im"]) for p in doc["complex_pairs"]]
    window = None
    if doc.get("window") is not None:
        w = doc["window"]
        window = EnergyWindow(w["re_min"], w["re_max"], w["im_min"], w["im_max"])
    return SpectrumReport(
        params=params,
        real_levels=levels,
        complex_pairs=pairs,
        window=window,
        diagnostics=doc.get("diagnostics", {}),
    )


_CSV_HEADER = "kind,n,s,t,re,im,A"


def _csv_rows(payload: dict) -> list[str]:
    """One csv row per level and per pair of a report payload."""
    rows = []
    for lv in payload["real_levels"]:
        s, t, a = ("" if v is None else _fmt(v) for v in (lv["s"], lv["t"], lv["A"]))
        rows.append(f"real,{lv['n']},{s},{t},{_fmt(lv['E'])},0,{a}")
    for j, p in enumerate(payload["complex_pairs"]):
        rows.append(f"pair,{j},,,{_fmt(p['re'])},{_fmt(p['im'])},")
    return rows


def _report_csv(report: SpectrumReport) -> str:
    return "\n".join([_CSV_HEADER, *_csv_rows(_report_payload(report))]) + "\n"


# ---------------------------------------------------------------------------
# configuration

def _config_argv(path: str, subcommands: dict, command: str) -> list[str]:
    """The entries of a key=value config file as `--key=value` flags of command.

    Placed ahead of the command-line flags, they are checked like flags and
    lose to them. A key must name an option of some subcommand; keys only
    other subcommands take are skipped, so one file can serve them all.
    """
    # parsing no arguments yields a default for every option a subcommand takes
    takes = {name: set(vars(sub.parse_args([]))) - {"config"} for name, sub in subcommands.items()}
    known = set().union(*takes.values())
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in takes[command]:
                flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    return flags


def _parse_window(text: str) -> EnergyWindow:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"window needs four comma-separated numbers, got {text!r}")
    re0, re1, im0, im1 = (float(p) for p in parts)
    return EnergyWindow(re0, re1, im0, im1)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p.strip()) for p in text.split(",") if p.strip() != "")


def _resolve(args: argparse.Namespace) -> None:
    """Check the parsed flags and add the values derived from them.

    Sets args.z_values and args.omega_values (the comma lists of --Z and
    --omega) and args.params, and parses args.window (complex) and args.xi
    (curves) in place. Raises ValueError or PTWellError on invalid input.
    """
    for key in ("emax", "sigma_max"):
        val = getattr(args, key, None)
        if val is not None and not math.isfinite(val):
            raise ValueError(f"flag --{key.replace('_', '-')} must be finite, got {val}")
    args.z_values = _parse_float_list(args.Z)
    args.omega_values = _parse_float_list(args.omega)
    for name, values in (("Z", args.z_values), ("omega", args.omega_values)):
        if not values:
            raise ValueError(f"flag --{name} must hold at least one number")
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"flag --{name} must be finite, got {v}")
    if args.command != "sweep" and (len(args.z_values) != 1 or len(args.omega_values) != 1):
        raise ValueError("comma lists for --Z/--omega are only valid with the sweep command")
    args.params = ModelParams(Z=args.z_values[0], omega=args.omega_values[0])
    if args.command == "complex":
        args.window = _parse_window(args.window)
        _require_symmetric(args.window)
    if args.command == "curves":
        args.xi = _parse_float_list(args.xi)
        if args.family == "theta" and not args.xi:
            raise ValueError("flag --xi must hold at least one number for the theta family")
        if not args.sigma_max > 0.0:
            raise ValueError(f"flag --sigma-max must be > 0, got {args.sigma_max}")
        if args.points < 2:
            raise ValueError(f"flag --points must be >= 2, got {args.points}")
        if args.stripe < 0:
            raise ValueError(f"flag --stripe must be >= 0, got {args.stripe}")
    for key in ("kmax", "n", "jobs"):
        val = getattr(args, key, None)
        if val is not None and val < 1:
            raise ValueError(f"flag --{key} must be >= 1, got {val}")


# ---------------------------------------------------------------------------
# curve sampling

def _segment(name: str, xs, ys) -> dict:
    return {"name": name, "points": [[float(x), float(y)] for x, y in zip(xs, ys)]}


def _theta_segments(args: argparse.Namespace) -> list[dict]:
    om = args.params.omega
    segs = []
    for xi in args.xi:
        spec = ThetaCurveSpec(p=args.p, xi=xi, omega=om)
        pole = None
        if om != 0.0:
            pole = theta_asymptote(spec)
        pieces = []
        if pole is not None and -args.sigma_max < pole < args.sigma_max:
            gap = 1e-3 * max(1.0, abs(pole))
            pieces.append((-args.sigma_max, pole - gap))
            pieces.append((pole + gap, args.sigma_max))
        else:
            pieces.append((-args.sigma_max, args.sigma_max))
        for j, (a, b) in enumerate(pieces):
            sig = np.linspace(a, b, args.points)
            tau = [theta_curve(spec, float(x)) for x in sig]
            suffix = f"_part{j}" if len(pieces) > 1 else ""
            segs.append(_segment(f"theta_p{args.p:+d}_xi{_fmt(xi)}{suffix}", sig, tau))
    return segs


def _locus_segments(families: list[tuple[int, int, int]], args: argparse.Namespace) -> list[dict]:
    """The loci of each (stripe, p, q) family as the lattice tracer samples
    them, in polyline chains: in xi order, each sample extends the chain
    whose tail is nearest in sigma, within 0.5 and not yet extended at this
    xi, or starts a chain. Chains of one point are left out."""
    segs = []
    for (k, p, q), locus in zip(families, _locus_points(families, args.params, args.sigma_max)):
        chains: list[list[tuple[float, float]]] = []
        for xi in sorted(locus):
            tau_line = lattice_compose(LatticeIndex(k, p, q, xi))
            used = set()
            for sg in locus[xi][:, 0].tolist():
                d, ci = min(
                    ((abs(sg - c[-1][0]), ci) for ci, c in enumerate(chains) if ci not in used),
                    default=(math.inf, 0),
                )
                if d >= 0.5:
                    ci = len(chains)
                    chains.append([])
                chains[ci].append((sg, tau_line))
                used.add(ci)
        segs.extend(
            _segment(f"locus_k{k}_p{p:+d}_q{q:+d}_c{ci}", *zip(*chain))
            for ci, chain in enumerate(chains)
            if len(chain) >= 2
        )
    return segs


def _hyperbola_segments(args: argparse.Namespace) -> list[dict]:
    params = args.params
    om = params.omega
    segs = []
    if params.Z <= 0.0:
        return segs
    if om == 0.0:
        # sigma*tau = 2Z on the physical quadrant
        sig = np.linspace(2.0 * params.Z / (4.0 * args.sigma_max), args.sigma_max, args.points)
        segs.append(_segment("hyperbola", sig, 2.0 * params.Z / sig))
        return segs
    sig = np.linspace(-args.sigma_max, args.sigma_max, args.points)
    if om > 0.0:
        segs.append(_segment("hyperbola", sig, [xi_branch(float(x), params) for x in sig]))
    else:
        tau = np.linspace(0.0, 4.0 * args.sigma_max, args.points)
        segs.append(
            _segment("hyperbola", [reflected_branch(float(y), params) for y in tau], tau)
        )
    sig_neg = np.linspace(-args.sigma_max, -2.0001, args.points)
    if args.sigma_max > 2.0:
        segs.append(
            _segment(
                "hyperbola_asymptote", sig_neg, [hyperbola_asymptote(float(x), params) for x in sig_neg]
            )
        )
        for bs, tag in ((1, "upper"), (-1, "lower")):
            segs.append(
                _segment(
                    f"envelope_{tag}",
                    sig_neg,
                    [envelope_asymptote(float(x), om, bs) for x in sig_neg],
                )
            )
    return segs


def _curves_payload(args: argparse.Namespace) -> dict:
    if args.family == "theta":
        segs = _theta_segments(args)
    else:
        if args.family == "oval":
            families = [(args.stripe, args.p, q) for q in (1, -1)]
        else:  # intersection
            families = [(k, p, q) for k in range(args.stripe + 1) for p in (1, -1) for q in (1, -1)]
        segs = _locus_segments(families, args) + _hyperbola_segments(args)
    return {
        "family": args.family,
        "params": {"Z": args.params.Z, "omega": args.params.omega},
        "segments": segs,
    }


def _curves_csv(payload: dict) -> str:
    rows = ["family,segment,sigma,tau"]
    for seg in payload["segments"]:
        for x, y in seg["points"]:
            rows.append(f"{payload['family']},{seg['name']},{_fmt(x)},{_fmt(y)}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# subcommand execution

def _spectrum_report(
    params: ModelParams, method: str, e_max: float, k_max: int | None
) -> SpectrumReport:
    if method == "lattice":
        if k_max is None:
            k_max = _lattice_k_max(params, e_max)
        states = real_spectrum_lattice(params, k_max=k_max)
        states = [st for st in states if st.energy <= e_max]
    else:
        states = real_spectrum_bracket(params, e_max=e_max)
    return SpectrumReport(
        params=params,
        real_levels=states,
        complex_pairs=[],
        window=None,
        diagnostics={"count": len(states), "e_max": e_max, "method": method},
    )


def _sweep_task(task: tuple) -> dict:
    z, om, *solver = task
    return _report_payload(_spectrum_report(ModelParams(Z=z, omega=om), *solver))


def _sweep_payload(args: argparse.Namespace) -> dict:
    tasks = [
        (z, om, args.method, args.emax, args.kmax)
        for z in args.z_values
        for om in args.omega_values
    ]
    # the fork start method launches all max_workers at the first submit
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_sweep_task, tasks))
    else:
        runs = [_sweep_task(t) for t in tasks]
    return {"runs": runs}


def _sweep_csv(payload: dict) -> str:
    rows = ["Z,omega," + _CSV_HEADER]
    for run in payload["runs"]:
        prefix = f"{_fmt(run['params']['Z'])},{_fmt(run['params']['omega'])},"
        rows.extend(prefix + row for row in _csv_rows(run))
    return "\n".join(rows) + "\n"


def _execute(args: argparse.Namespace) -> str:
    params = args.params
    if args.command == "spectrum":
        report = _spectrum_report(params, args.method, args.emax, args.kmax)
        return report_to_json(report) if args.format == "json" else _report_csv(report)
    if args.command == "count":
        n = count_real(params, args.emax)
        payload = {
            "params": {"Z": params.Z, "omega": params.omega},
            "e_max": args.emax,
            "count": n,
        }
        if args.format == "json":
            return _emit_json(payload)
        return "Z,omega,e_max,count\n" + ",".join(
            [_fmt(params.Z), _fmt(params.omega), _fmt(args.emax), str(n)]
        ) + "\n"
    if args.command == "complex":
        report = complex_spectrum(params, args.window)
        return report_to_json(report) if args.format == "json" else _report_csv(report)
    if args.command == "critical":
        zs = critical_couplings(params.omega, args.n, tracking_e_max=args.emax)
        payload = {
            "omega": params.omega,
            "tracking_e_max": args.emax,
            "criticals": zs,
        }
        if args.format == "json":
            return _emit_json(payload)
        return "N,Z\n" + "".join(f"{i + 1},{_fmt(z)}\n" for i, z in enumerate(zs))
    if args.command == "curves":
        payload = _curves_payload(args)
        return _emit_json(payload) if args.format == "json" else _curves_csv(payload)
    payload = _sweep_payload(args)
    return _emit_json(payload) if args.format == "json" else _sweep_csv(payload)


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name; every default lives here."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--Z", type=str, default="0", help="coupling strength (>= 0)")
    common.add_argument("--omega", type=str, default="0", help="contour shift parameter")
    common.add_argument("--config", type=str, default=None, help="key=value config file")
    common.add_argument("--output", type=str, default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--emax", type=float, default=2000.0, help="energy cap")
    solver.add_argument("--method", choices=("bracket", "lattice"), default="bracket")
    solver.add_argument(
        "--kmax", type=int, default=None,
        help="stripe cap (>= 1) for the lattice method (default: the least that reaches --emax)",
    )

    parser = argparse.ArgumentParser(
        prog="ptwell",
        description="Spectral solver for the complex-shifted square well.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum", parents=[common, solver], help="real levels up to an energy cap")

    p_count = sub.add_parser("count", parents=[common], help="number of real levels up to emax")
    p_count.add_argument("--emax", type=float, default=2000.0)

    p_cx = sub.add_parser("complex", parents=[common], help="all eigenvalues in a window")
    p_cx.add_argument(
        "--window", type=str, default="0,2000,-200,200", help="re_min,re_max,im_min,im_max"
    )

    p_crit = sub.add_parser("critical", parents=[common], help="critical couplings")
    p_crit.add_argument("--n", type=int, default=1, help="number of pair mergers to locate (>= 1)")
    p_crit.add_argument("--emax", type=float, default=400.0, help="tracking window cap")

    p_curves = sub.add_parser("curves", parents=[common], help="sampled curve data for plotting")
    p_curves.add_argument(
        "--family", choices=("theta", "oval", "intersection"), default=None, required=False
    )
    p_curves.add_argument(
        "--xi", type=str, default="0,0.5,0.9,0.99", help="comma list of xi values"
    )
    p_curves.add_argument("--p", type=int, choices=(-1, 1), default=1)
    p_curves.add_argument(
        "--stripe", type=int, default=1, help="stripe k >= 0: oval draws k, intersection 0..k"
    )
    p_curves.add_argument(
        "--sigma-max", dest="sigma_max", type=float, default=12.0,
        help="sigma range half-width (> 0) of every curve, loci included",
    )
    p_curves.add_argument(
        "--points", type=int, default=600,
        help="samples (>= 2) per theta or hyperbola segment; loci are the lattice tracer's samples",
    )

    p_sweep = sub.add_parser("sweep", parents=[common, solver], help="spectrum over a parameter grid")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers (>= 1)")
    return parser, sub.choices


_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def main(argv: list[str] | None = None) -> int:
    level_name = os.environ.get("PTWELL_LOG", "error").strip().lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level_name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser, subcommands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        try:
            file_flags = _config_argv(args.config, subcommands, args.command)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 4
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # argv[0] is the subcommand: the top-level parser takes no other arguments
        args = parser.parse_args([args.command, *file_flags, *argv[1:]])
    if args.command == "curves" and args.family is None:
        parser.error("curves requires --family")
    try:
        _resolve(args)
    except (ValueError, PTWellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        text = _execute(args)
    except PTWellError as exc:
        # model-domain validation errors that survive flag checking are
        # solver-side conditions (window mismatch, pole hits), not usage
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
