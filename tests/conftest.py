"""Let the CLI subprocesses the tests start import the checked-out package:
pytest's `pythonpath` setting reaches only the test process itself.  Also
the fixtures that several test files share."""

import os
import pathlib
import threading

import pytest

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while a test runs, each recorded as it starts:
    threading.Thread is a recording subclass for the test's duration."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started
