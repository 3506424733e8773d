"""The traced benchmark wraps engine functions by name (``perfbench/spans.py``).

Renaming or deleting one of those names breaks ``perfbench/run.py --trace 1``,
so installing every span must still work, wrap each name, and restore each
original on uninstall.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_span_installs_and_uninstalls():
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install_engine_spans(tracer)
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert current(owner, attr) is not original, f"{owner.__name__}.{attr} is not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert current(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"
