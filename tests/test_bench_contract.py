"""The benchmark's tracer wraps solver functions by module and name; every
one of them must still exist, or the traced run breaks only after a push."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    targets = bench.trace_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _, _ in targets
        if not callable(getattr(owner, name, None))
    ]
    assert missing == []
