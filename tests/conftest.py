"""Lets the tests' `python -m ptwell` subprocesses import this checkout.

pyproject's `pythonpath` puts src/ on sys.path for the test process only;
child interpreters read PYTHONPATH instead.
"""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
