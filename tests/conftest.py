"""Let the CLI subprocesses the tests start import the checked-out package:
pytest's `pythonpath` setting reaches only the test process itself."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
