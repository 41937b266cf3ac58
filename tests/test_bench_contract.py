"""The per-layer mode of the benchmark patches functions by module attribute.

``perfbench/spans.py`` replaces each ``(module, attr)`` of its ``PATCHES`` with
a timing wrapper; a rename or move inside the package would break that mode
without failing the untraced benchmark, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in _patches()])
def test_every_patched_name_resolves(module, attr):
    assert module.startswith("idschan.")
    assert callable(getattr(importlib.import_module(module), attr))
