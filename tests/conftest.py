"""Let the tests that start `python -m tlsfit` import the package under test.

pytest's ``pythonpath`` setting reaches only this process; child
interpreters see it through PYTHONPATH.
"""
import os
import pathlib

import tlsfit

_root = str(pathlib.Path(tlsfit.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_root, os.environ.get("PYTHONPATH")]))
