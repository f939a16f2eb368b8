"""The benchmark's tracer wraps program functions by name: each must exist."""

import importlib.util
from pathlib import Path

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))  # job.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("pipebench_job", PIPEBENCH / "job.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    targets = job.trace_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not hasattr(owner, attr)
    ]
    assert not missing, f"traced by pipebench/job.py but gone from the program: {missing}"
