"""Each tolerance and cap of the package is bound once, in one module, under
a comment that gives its reason."""

import ast
from pathlib import Path

import ldpopt

SRC = Path(ldpopt.__file__).resolve().parent
SUFFIXES = ("_TOL", "_STEP", "_NOISE", "_FLOOR", "_SIZE", "_AFTER")


def _covered(name: str) -> bool:
    return name.endswith(SUFFIXES) or name.startswith("MAX_") or name == "ZERO_OPT"


def _constants():
    """(module, name, line number, source lines) of each module-level
    binding of a covered name in src/ldpopt/*.py."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found += [(path.name, t.id, node.lineno, text.splitlines())
                      for t in targets if isinstance(t, ast.Name) and _covered(t.id)]
    return found


def _has_reason(lines: list[str], lineno: int) -> bool:
    """True when a comment line is in the unbroken run of nonblank lines
    above line lineno (1-based), so constants bound together share one."""
    i = lineno - 2
    while i >= 0 and lines[i].strip():
        if lines[i].lstrip().startswith("#"):
            return True
        i -= 1
    return False


def test_scan_finds_the_known_constants():
    names = {name for _, name, _, _ in _constants()}
    assert {"PIVOT_TOL", "DEGENERATE_STEP", "PRICING_NOISE", "MASS_FLOOR", "LP_CACHE_SIZE",
            "BLAND_AFTER", "MAX_LP_K", "MAX_ITERATIONS", "ZERO_OPT"} <= names


def test_every_constant_states_a_reason():
    missing = [f"{module}:{line} {name}" for module, name, line, lines in _constants()
               if not _has_reason(lines, line)]
    assert not missing


def test_no_constant_is_bound_in_two_modules():
    modules: dict[str, set[str]] = {}
    for module, name, _, _ in _constants():
        modules.setdefault(name, set()).add(module)
    assert not {name: sorted(m) for name, m in modules.items() if len(m) > 1}


def test_no_small_float_literal_outside_a_binding():
    # A float literal with 0 < |v| < 1e-6 is a tolerance or a threshold; it
    # belongs in a covered module-level binding, where the tests above see it.
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {id(n) for node in tree.body
                 if isinstance(node, ast.Assign) and all(
                     isinstance(t, ast.Name) and _covered(t.id) for t in node.targets)
                 for n in ast.walk(node.value)}
        stray += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < abs(node.value) < 1e-6 and id(node) not in bound]
    assert not stray
