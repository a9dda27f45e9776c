"""The benchmark's tracer wraps library names by attribute; renaming or
deleting one of them breaks the benchmark, so the tracer's install and
uninstall run here too."""

import importlib.util
from pathlib import Path

from craftkit import cli, sobol

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores_every_name():
    spans = load_spans()
    names = [(owner, attr) for owner, attr, _, _ in spans._targets()]
    names += [(cli, "concept_importance"), (sobol, "concept_importance")]
    # a missing name fails here, before anything is swapped
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in names}
    try:
        saved = spans.install(spans.Tracer())
        assert {(owner, attr) for owner, attr, _ in saved} == set(before)
        for owner, attr, original in saved:
            assert original is before[owner, attr]
            assert owner.__dict__[attr] is not original
        spans.uninstall(saved)
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    finally:
        for (owner, attr), original in before.items():
            setattr(owner, attr, original)
