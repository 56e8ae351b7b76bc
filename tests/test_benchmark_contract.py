"""The names the benchmark under perfbench/ reads from ldpopt still exist.

The benchmark traces the (module, function) pairs in perfbench/tracing.py
and drives the sweeps through ldpopt.cli, so renaming or removing any of
them breaks it. TRACED is read from the source without importing the
benchmark.
"""

import ast
from pathlib import Path

import pytest

import ldpopt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


@pytest.mark.skipif(not TRACING.parent.is_dir(), reason="no perfbench/ in this checkout")
def test_benchmark_names_resolve():
    traced = _traced()
    assert traced
    for module, name in traced:
        assert callable(getattr(getattr(ldpopt, module), name)), f"{module}.{name}"
    for name in ("SweepConfig", "run_sweep", "sweep_csv", "sweep_summary", "main"):
        assert hasattr(ldpopt.cli, name), f"cli.{name}"
    assert isinstance(ldpopt.StaircaseLP.num_columns, property)
