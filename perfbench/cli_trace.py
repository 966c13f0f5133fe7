"""Run one `ptwell` CLI command with the boundary wrappers installed.

    python perfbench/cli_trace.py SPANS.npz <ptwell arguments...>

The command's whole `main` is one `cli.main` span; the spans are written
to SPANS.npz for the parent benchmark process to merge. Standard output
and the exit status are the CLI's own.
"""

import sys

import ptwell.cli

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        rc = ptwell.cli.main(argv)
    finally:
        tracer.close(idx)
        sys.stdout.flush()
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
