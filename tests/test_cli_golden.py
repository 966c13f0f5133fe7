"""Golden output hashes of the command line interface.

tests/golden/cli_sha256.json holds the SHA-256 and byte length of stdout
for each in-process `main()` call listed in GOLDEN_CALLS. Every command is
run at omega = 0.1 and omega = -0.1, in json and in csv, plus one call
that reads its settings from a config file.

A change that alters output bytes on purpose regenerates the file with
`PYTHONPATH=src python3 tests/test_cli_golden.py` and says so in
CHANGES.md. Any other change must leave every hash as it is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from ptwell.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli_sha256.json"

_COMMANDS = [
    ["spectrum", "--Z", "1"],
    ["spectrum", "--Z", "1", "--method", "lattice", "--kmax", "3"],
    ["count", "--Z", "1", "--emax", "1e6"],
    ["complex", "--Z", "1", "--window", "0,400,-40,40"],
    ["complex", "--Z", "1", "--window", "2100,3500,-200,200"],
    ["critical", "--n", "1"],
    ["curves", "--Z", "1", "--family", "theta"],
    ["curves", "--Z", "1", "--family", "oval"],
    ["curves", "--Z", "1", "--family", "intersection"],
    ["sweep", "--Z", "0.5,1", "--jobs", "1"],
]

GOLDEN_CALLS = [
    [*cmd, "--omega", omega, "--format", fmt]
    for cmd in _COMMANDS
    for omega in ("0.1", "-0.1")
    for fmt in ("json", "csv")
]

# run through --config; "{cfg}" is replaced by the path of a file holding _CONFIG_TEXT
CONFIG_CALL = ["spectrum", "--config", "{cfg}", "--omega", "-0.1", "--format", "csv"]
_CONFIG_TEXT = "# golden config\nZ = 1\nomega = 0.1\nmethod = lattice\nkmax = 3\nemax = 400\n"


def _run(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().encode("utf-8")


def _digests() -> dict[str, dict]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "golden.cfg"
        cfg.write_text(_CONFIG_TEXT, encoding="utf-8")
        for argv in GOLDEN_CALLS + [CONFIG_CALL]:
            rc, data = _run([str(cfg) if a == "{cfg}" else a for a in argv])
            if rc != 0:
                raise AssertionError(f"{' '.join(argv)} exited {rc}")
            out[" ".join(argv)] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return out


def test_cli_output_matches_golden_hashes():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _digests()
    assert list(got) == list(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"output bytes changed for: {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
