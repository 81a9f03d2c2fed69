"""The benchmark wraps qbaker attributes by name; they must all resolve."""
import importlib
import importlib.util
from pathlib import Path

import qbaker

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_targets_resolve():
    missing = [
        (mod, attr) for mod, attr, _ in _load_tracing().TARGETS
        if not hasattr(importlib.import_module(f"qbaker.{mod}"), attr)
    ]
    assert missing == []


def test_public_names_resolve():
    assert [name for name in qbaker.__all__ if not hasattr(qbaker, name)] == []
