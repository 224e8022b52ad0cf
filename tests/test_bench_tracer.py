"""The benchmark tracer's wrapped names still exist in the package.

``bench/spans.py`` rebinds names that colorfil modules import; a rename
under ``src/`` would otherwise only surface when the benchmark runs
with ``--trace 1``.
"""

import importlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    assert spans.WRAPPED
    for module, attr, name in spans.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
