"""The names the benchmark under perfbench/ reads from ldpopt still exist.

The benchmark traces the (module, function) pairs in perfbench/tracing.py
and drives the sweeps through ldpopt.cli, so renaming or removing any of
them breaks it. TRACED is read from the source without importing the
benchmark.
"""

import ast
import os
import subprocess
import sys
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


def test_cli_names_resolve_after_a_bare_import():
    # The benchmark imports only ldpopt and then reads ldpopt.cli. In this
    # process other test modules import ldpopt.cli themselves, so the check
    # runs in a fresh interpreter.
    src = Path(ldpopt.__file__).resolve().parents[1]
    code = ("import ldpopt\n"
            "print(ldpopt.__file__)\n"
            "for name in ('SweepConfig', 'run_sweep', 'sweep_csv', 'sweep_summary', 'main'):\n"
            "    getattr(ldpopt.cli, name)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).resolve() == Path(ldpopt.__file__).resolve()
