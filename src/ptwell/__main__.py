"""Entry point of `python -m ptwell` and of the `ptwell` console script.

It runs before numpy is loaded, so it can keep OpenBLAS on one thread:
no ptwell code calls BLAS, and the worker thread OpenBLAS starts at load
spin-waits, about 0.13 s of CPU per command on a 2-core host. A value of
OPENBLAS_NUM_THREADS already in the environment is kept. Library code
leaves the variable alone.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
