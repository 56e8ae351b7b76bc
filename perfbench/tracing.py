"""Per-layer spans for the traced run, recorded from outside the program.

Each traced function is replaced, in every ldpopt module that holds a
reference to it, by a wrapper that times the call. That covers calls made
through `from .optsolve import solve` as well as calls inside a module.
Spans are folded into per-function totals in memory as they end, and the
totals are read when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs, named as ldpopt.<module>.<function>.
TRACED = (
    ("optsolve", "solve"), ("optsolve", "vertex_oracle"), ("optsolve", "build_lp"),
    ("optsolve", "extract_mechanism"), ("core", "pattern_matrix"),
    ("utilities", "utility"), ("utilities", "column_utility"),
    ("utilities", "mutual_information"), ("utilities", "f_divergence"),
    ("mechanisms", "binary_ht"), ("mechanisms", "binary_mi"),
    ("mechanisms", "randomized_response"), ("mechanisms", "geometric"),
    ("core", "is_locally_private"), ("core", "is_approx_private"),
    ("core", "is_staircase"), ("core", "effective_epsilon"),
    ("core", "mechanism_to_json"), ("core", "mechanism_from_json"),
    ("bounds", "converse_suite"), ("bounds", "mi_converse_suite"),
    ("regions", "tradeoff_region"), ("cli", "main"), ("cli", "run_sweep"),
    ("cli", "sweep_csv"), ("cli", "sweep_summary"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TRACED)


class Tracer:
    """Calls and self time per traced function, plus every solve's duration.

    Self time is a span's duration minus the time its child spans cover.
    """

    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.solve_ms: list[float] = []
        self.columns = 0
        self._children_s: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._children_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                children = self._children_s.pop()
                if self._children_s:
                    self._children_s[-1] += took
                self.calls[name] += 1
                self.self_s[name] += took - children
                if name == "optsolve.solve":
                    self.solve_ms.append(took * 1e3)
                    self.columns += args[0].num_columns
        return span

    def __enter__(self):
        """Put a span around every traced function, in every ldpopt module
        that refers to it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "ldpopt" or key.startswith("ldpopt.")]
        for (module, fname), name in zip(TRACED, NAMES):
            original = getattr(sys.modules[f"ldpopt.{module}"], fname)
            span = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, span)
                        self._undo.append((mod, attr, original))
        return self

    def __exit__(self, *exc_info):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
