"""Source hygiene, checked with the standard library's ``ast``: no module
of the package imports a name it never uses, and every function, method
and property the package defines is referenced somewhere in ``src/``
besides its own definition (a reference from a test does not count)."""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import CHILD_ENV

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "valmono"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names used in an annotation, including inside quoted forward
    references such as ``Optional["MultiPoly"]``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                out |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return used


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_no_module_imports_an_unused_name():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used = _used_names(tree)
        unused += [f"{path.name}: {n}" for n in _imported_names(tree) if n not in used]
    assert unused == []


def _referenced_names(tree: ast.Module) -> tuple[Counter, Counter]:
    """(every name, attribute and import alias; the attributes alone)."""
    refs, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.asname or node.name] += 1
    return refs, attrs


_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _class_aliases(tree: ast.Module) -> dict[int, set[str]]:
    """For each method (by the id of its node), the names its class body
    reads outside the methods, such as ``scale`` in ``__mul__ = scale``."""
    aliases = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            body = [stmt for stmt in cls.body if not isinstance(stmt, _FUNCTION_DEFS)]
            names = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            aliases.update((id(stmt), names) for stmt in cls.body if isinstance(stmt, _FUNCTION_DEFS))
    return aliases


def _unreferenced(defining: dict[str, ast.Module], referencing: list[ast.Module]) -> list[str]:
    """``module: name`` for each function, method or property of the
    ``defining`` modules, dunders aside, that no ``referencing`` module
    names.  A method counts as named only through an attribute
    (``x.name``) or an alias in its own class body: a bare name of the
    same spelling is another object, such as ``operator.sub`` beside a
    ``sub`` method."""
    refs, attrs = Counter(), Counter()
    for tree in referencing:
        r, a = _referenced_names(tree)
        refs += r
        attrs += a
    found = []
    for module, tree in defining.items():
        aliases = _class_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, _FUNCTION_DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if id(node) in aliases:
                named = attrs[name] or name in aliases[id(node)]
            else:
                named = refs[name]
            if not named:
                found.append(f"{module}: {name}")
    return found


# Public names that nothing in the package reads: the README example
# builds its values with ``ValueGroup.rational``, the README names
# ``FieldTower.from_rational`` as the way to write an exact rational as a
# tower element and ``Value.coords`` as the coordinates as Fractions.
_README_API = {"values.py: rational", "polyalg.py: from_rational", "values.py: coords"}


def test_every_defined_function_is_referenced():
    """A function whose only caller is a test is not live code: move it to
    ``tests/conftest.py`` as an oracle, or delete it."""
    package = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    found = _unreferenced(package, [_parse(p) for p in sorted(ROOT.glob("src/**/*.py"))])
    assert sorted(set(found) - _README_API) == []
    assert _README_API <= set(found)  # the exception is still needed


def test_reference_scan_ignores_tests():
    lib = ast.parse(
        "from operator import sub\n\n"
        "def helper():\n    return 1\n\n"
        "def run():\n    return sub(helper(), 1)\n\n"
        "def tested():\n    return 2\n\n"
        "class C:\n    def __eq__(self, other):\n        return True\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "    def sub(self, other):\n        return other\n\n"
        "    def scale(self, q):\n        return q\n\n"
        "    __mul__ = scale\n\n"
        "ENTRY = run\n"
    )
    test = ast.parse(
        "from lib import C, tested\n\n"
        "def test_it():\n    assert tested() == 2 + C().size + C().sub(0)\n"
    )
    assert _unreferenced({"lib.py": lib}, [lib]) == ["lib.py: tested", "lib.py: size", "lib.py: sub"]
    assert _unreferenced({"lib.py": lib}, [lib, test]) == []


_FENCE = re.compile(r"^```.*?^```", re.S | re.M)


def _backticked(text: str) -> set[str]:
    """Every identifier inside backticks in a Markdown text: in a fenced
    code block or in an inline code span."""
    spans = _FENCE.findall(text) + re.findall(r"`([^`]+)`", _FENCE.sub("", text))
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_init_exports_only_what_the_readme_names():
    """The package's public API is what the README's library tour and
    example name: every name ``__init__`` imports is in backticks there."""
    init = _parse(PACKAGE / "__init__.py")
    exported = [a.asname or a.name for a in ast.walk(init) if isinstance(a, ast.alias)]
    named = _backticked((ROOT / "README.md").read_text(encoding="utf-8"))
    assert exported and [name for name in exported if name not in named] == []


def test_backtick_scan_sees_each_kind():
    text = (
        "A `Value` holds `nums`; `FieldTower.from_rational(q)` and `two\nlines`.\n\n"
        "```python\nfrom valmono import *\nG = ValueGroup(1)\n```\n\n"
        "Plain compare and truncate, ``` not closed"
    )
    assert _backticked(text) == {
        "Value", "nums", "FieldTower", "from_rational", "q", "two", "lines",
        "python", "from", "valmono", "import", "G", "ValueGroup",
    }


# math functions that return floats; floor and ceil only when applied to a
# true division, which is a float on two ints
_FLOAT_MATH = {
    "acos", "asin", "atan", "atan2", "cbrt", "cos", "cosh", "degrees", "dist", "e",
    "erf", "exp", "exp2", "expm1", "fabs", "fmod", "fsum", "gamma", "hypot", "inf",
    "ldexp", "lgamma", "log", "log10", "log1p", "log2", "modf", "nan", "pi", "pow",
    "radians", "sin", "sinh", "sqrt", "tan", "tanh", "tau",
}


def _float_uses(tree: ast.Module) -> list[str]:
    from_math = {}
    math_modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            from_math |= {a.asname or a.name: a.name for a in node.names}
        elif isinstance(node, ast.Import):
            math_modules |= {a.asname or a.name for a in node.names if a.name == "math"}

    def math_name(node: ast.AST):
        if isinstance(node, ast.Name):
            return from_math.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in math_modules:
                return node.attr
        return None

    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: float(...)")
        elif math_name(node) in _FLOAT_MATH:
            found.append(f"{where}: math.{math_name(node)}")
        elif (
            isinstance(node, ast.Call)
            and math_name(node.func) in ("floor", "ceil", "trunc")
            and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Div) for a in node.args)
        ):
            found.append(f"{where}: math.{math_name(node.func)} of a true division")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            # a float as soon as both operands are ints
            found.append(f"{where}: true division")
    return found


def test_no_floats_in_the_package():
    """Arithmetic is exact: no float literal, float() call, float-valued
    math function or true division anywhere in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name} {use}" for use in _float_uses(_parse(path))]
    assert found == []


def test_float_scan_sees_each_kind():
    src = (
        "import math\nfrom math import sqrt as root, floor, isqrt\n"
        "a = 0.5\nb = float(3)\nc = root(2)\nd = math.log(3)\ne = floor(1 / 3)\n"
        "f = floor(7 // 2) + isqrt(9) + math.comb(4, 2)\ng = 1 / f\nf /= 2\n"
    )
    found = _float_uses(ast.parse(src))
    assert sorted(u.split(": ")[1] for u in found) == [
        "float literal 0.5", "float(...)", "math.floor of a true division", "math.log", "math.sqrt",
        "true division", "true division", "true division",
    ]


def _asserts(tree: ast.Module) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_the_package():
    """``python -O`` strips ``assert``: every check in the package raises
    explicitly."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name} {where}" for where in _asserts(_parse(path))]
    assert found == []


def test_assert_scan_sees_one():
    src = "def f(a):\n    if a:\n        assert a > 0, 'positive'\n    return a\n"
    assert _asserts(ast.parse(src)) == ["line 3"]


def _error_classes(tree: ast.Module) -> list[str]:
    """The classes of a module derived from ``ValmonoError``, directly or not."""
    found = ["ValmonoError"]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in found for b in node.bases
        ):
            found.append(node.name)
    return found[1:]


def _raised_names(tree: ast.Module) -> set[str]:
    """Every name that is called (``raise E(...)`` included) or raised bare."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc
        else:
            continue
        if isinstance(target, ast.Name):
            found.add(target.id)
        elif isinstance(target, ast.Attribute):
            found.add(target.attr)
    return found


def test_every_error_class_is_raised():
    """No error class is dead: each one is raised or made somewhere in the
    package."""
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        raised |= _raised_names(_parse(path))
    assert [c for c in _error_classes(_parse(PACKAGE / "errors.py")) if c not in raised] == []


def test_raise_scan_sees_one():
    src = (
        "class ValmonoError(Exception):\n    pass\n\nclass A(ValmonoError):\n    pass\n\n"
        "class B(A):\n    pass\n\nclass C(Exception):\n    pass\n\n"
        "def f(a):\n    if a:\n        raise errors.A('bad')\n    raise B\n"
    )
    tree = ast.parse(src)
    assert _error_classes(tree) == ["A", "B"]
    assert {"A", "B"} <= _raised_names(tree) and "C" not in _raised_names(tree)


# One monic check: ``polyalg._monic_split`` decides whether a divisor or an
# expansion base is monic in x, so division, expansion and reassembly
# share one definition of "monic", and no other site raises its error.
_MONIC_ERROR = "NonMonicDivisorError"


def _raise_sites(node: ast.AST, error: str, scope: str = "<module>") -> list[str]:
    """The innermost function around each ``raise`` of ``error``, called
    or bare, by name or as an attribute."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, _FUNCTION_DEFS):
            inner = child.name
        elif isinstance(child, ast.Raise) and child.exc is not None:
            target = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if (getattr(target, "id", None) or getattr(target, "attr", None)) == error:
                found.append(scope)
        found += _raise_sites(child, error, inner)
    return found


def _monic_raise_sites(sources: dict[str, str]) -> set[str]:
    return {
        f"{name} {site}" for name, text in sources.items()
        for site in _raise_sites(ast.parse(text), _MONIC_ERROR)
    }


def test_one_check_raises_non_monic_divisor():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _monic_raise_sites(sources) == {"polyalg.py _monic_split"}


def test_monic_raise_scan_sees_each_kind():
    src = (
        "from .errors import NonMonicDivisorError\nfrom . import errors\n\n"
        "def _monic_split(g):\n    raise NonMonicDivisorError('non-monic divisor')\n\n"
        "class Divider:\n    def run(self, g):\n"
        "        def again():\n            raise errors.NonMonicDivisorError('x')\n"
        "        raise NonMonicDivisorError\n\n"
        "def quiet(g):\n    try:\n        return g\n"
        "    except NonMonicDivisorError:\n        raise ValueError('other')\n\n"
        "raise NonMonicDivisorError('at import')\n"
    )
    assert _raise_sites(ast.parse(src), _MONIC_ERROR) == ["_monic_split", "again", "run", "<module>"]
    # a second raise planted in the package's own polyalg is seen
    text = (PACKAGE / "polyalg.py").read_text(encoding="utf-8")
    planted = text + "\n\ndef _second(g):\n    raise NonMonicDivisorError('non-monic divisor')\n"
    assert _monic_raise_sites({"polyalg.py": planted}) == {"polyalg.py _monic_split", "polyalg.py _second"}


def _functions(node: ast.AST, prefix: str = "") -> list[tuple[str, ast.AST]]:
    """Every function or method below ``node``, with its name qualified by
    the classes and functions around it."""
    found = []
    for child in ast.iter_child_nodes(node):
        scope = ""
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{prefix}{child.name}."
            if not isinstance(child, ast.ClassDef):
                found.append((prefix + child.name, child))
        found += _functions(child, scope or prefix)
    return found


def _from_json_functions(tree: ast.AST) -> list[str]:
    """Every function or method whose name ends in ``from_json``."""
    return [name for name, node in _functions(tree) if node.name.endswith("from_json")]


def test_no_class_defines_from_json():
    """``trace`` is the one place JSON becomes objects: no other module
    defines a ``*from_json`` function, and model classes only write JSON."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "trace.py":
            found += [f"{path.name}: {m}" for m in _from_json_functions(_parse(path))]
    assert found == []


def test_from_json_scan_sees_one():
    src = (
        "def chain_from_json(obj):\n    return obj\n\n"
        "def from_json_cache():\n    return None\n\n"
        "class Step:\n    @staticmethod\n    def from_json(obj):\n        return Step()\n\n"
        "    def to_json(self):\n        return {}\n\n"
        "class Tower:\n    def elem_from_json(self, obj):\n        return obj\n"
    )
    assert _from_json_functions(ast.parse(src)) == [
        "chain_from_json", "Step.from_json", "Tower.elem_from_json",
    ]


def _records_parameters(tree: ast.AST) -> list[str]:
    """Every function or method with a parameter named ``records``."""
    found = []
    for name, node in _functions(tree):
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        if any(p.arg == "records" for p in params):
            found.append(name)
    return found


def test_no_function_takes_a_records_parameter():
    """A run's step log lives on its ``PushPath``: no function is handed a
    log to append to beside the path."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name}: {f}" for f in _records_parameters(_parse(path))]
    assert found == []


def test_records_scan_sees_each_kind():
    src = (
        "def descend(alpha, path, records):\n    return alpha\n\n"
        "def log(*, records=None):\n    return records\n\n"
        "def count(path):\n    return len(path.records)\n\n"
        "class Path:\n    def __init__(self):\n        self.records = []\n\n"
        "    def extend(self, *records):\n        self.records += records\n"
    )
    assert _records_parameters(ast.parse(src)) == ["descend", "log", "Path.extend"]


# One elementary sequence: ``unifseq._level`` reads the ladder from an initial
# form and runs the phases that need it, for ``uniformize`` and for every
# key-polynomial level alike.
_LEVEL_PHASES = ("_absorb", "_translate")
_LADDER_MESSAGES = (
    "requires completion: residue coefficients involve transcendental units",
    "requires completion: initial support off the lattice progression",
    "requires completion: residue coefficients leave the constant field",
    "requires completion: initial form is not a z-polynomial with unit ends",
    "requires completion: initial form does not involve the parameter",
    "requires completion: initial monomials break the lattice ladder",
)


def _phase_calls(node: ast.AST, scope: str = "<module>") -> list[str]:
    """``scope: phase`` for each call of a ``_LEVEL_PHASES`` function, with
    the innermost function around the call as its scope."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        elif isinstance(child, ast.Call):
            callee = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
            if callee in _LEVEL_PHASES:
                found.append(f"{scope}: {callee}")
        found += _phase_calls(child, inner)
    return found


def _strings(tree: ast.AST) -> Counter:
    return Counter(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def test_only_level_runs_the_ladder_phases():
    """Absorbing and translating happen in ``_level`` alone, once each, and
    each ladder refusal is written once: the two drivers share one ladder."""
    calls, strings = [], Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        calls += [f"{path.name} {c}" for c in _phase_calls(tree)]
        strings += _strings(tree)
    assert calls == ["unifseq.py _level: _absorb", "unifseq.py _level: _translate"]
    assert [strings[m] for m in _LADDER_MESSAGES] == [1] * len(_LADDER_MESSAGES)


def test_phase_scan_sees_each_kind():
    src = (
        "def _level(path):\n    _absorb(path)\n    return unifseq._translate(path, 'x')\n\n"
        "def uniformize(path):\n    _absorb(path)\n    return _collide(path)\n\n"
        "class Driver:\n    def run(self, path):\n"
        "        def again():\n            return _translate(path, 'x')\n"
        "        return again()\n\n"
        "_absorb(None)\n"
    )
    tree = ast.parse(src)
    assert _phase_calls(tree) == [
        "_level: _absorb", "_level: _translate", "uniformize: _absorb",
        "again: _translate", "<module>: _absorb",
    ]
    assert _strings(tree)["x"] == 2


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``function(parameter)`` for each parameter, other than self and cls,
    whose value the function's body never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [
            f"{name}({p.arg})" for p in params if p.arg not in ("self", "cls") and p.arg not in read
        ]
    return found


def test_every_parameter_is_read():
    """No function accepts a parameter and then ignores it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name}: {f}" for f in _unread_parameters(_parse(path))]
    assert found == []


def test_unread_parameter_scan_sees_each_kind():
    src = (
        "def run(inp, budget, flag):\n    return inp + budget\n\n"
        "def reset(a, *, b=1, **kw):\n    return b\n\n"
        "class C:\n    def m(self, x):\n        return lambda y, z: self.n + z\n"
    )
    assert _unread_parameters(ast.parse(src)) == [
        "run(flag)", "reset(a)", "reset(kw)", "m(x)", "<lambda>(y)",
    ]


# Every weight sign is decided by the values kernel: ``values`` for a
# ``Value`` and for two integer rows (``_order``), ``framing`` for a
# frame's weight rows.
_SIGN_MODULES = {"values.py", "framing.py"}


def _sign_calls(tree: ast.AST) -> list[str]:
    """``line N`` for each call of ``_sign``, by name or as an attribute."""
    return [
        f"line {node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "_sign"
    ]


def test_only_the_weight_kernels_call_sign():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in _SIGN_MODULES:
            found += [f"{path.name} {where}" for where in _sign_calls(_parse(path))]
    assert found == []
    # both kernels still decide signs, so the rule names live modules
    assert all(_sign_calls(_parse(PACKAGE / name)) for name in _SIGN_MODULES)


def test_sign_scan_sees_each_kind():
    src = (
        "from .values import _sign\nfrom . import values\n"
        "a = _sign(n)\nb = values._sign(n)\nc = v.sign()\nd = _sign\n"
    )
    assert _sign_calls(ast.parse(src)) == ["line 3", "line 4"]


# One value path: the engines decide every order, sign and lattice relation
# on integer weight rows, through the row kernels of ``values`` (``_order``,
# ``_positive``, ``_exponent_row`` and ``_row_lattice``); they use neither
# the ``Value`` views of those kernels nor a ``weight`` attribute that
# would build a frame's weight values to read one.
_ENGINE_MODULES = ("framing.py", "game.py", "keypoly.py", "unifseq.py")
_VALUE_VIEWS = {"compare", "value_of_exponent", "min_integer_multiple_in_lattice"}


def _value_view_uses(tree: ast.AST) -> list[str]:
    """``line N: name`` for each use of a ``_VALUE_VIEWS`` function, by name,
    as an attribute or imported, and for each attribute ``weight``, in line
    order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in _VALUE_VIEWS or (name == "weight" and isinstance(node, ast.Attribute)):
            found.append((node.lineno, name))
    return [f"line {n}: {name}" for n, name in sorted(found)]


def test_engines_decide_on_weight_rows():
    found = []
    for name in _ENGINE_MODULES:
        found += [f"{name} {use}" for use in _value_view_uses(_parse(PACKAGE / name))]
    assert found == []
    # the views are still defined, for the callers of the public API
    defined = {n.name for n in ast.walk(_parse(PACKAGE / "values.py")) if isinstance(n, ast.FunctionDef)}
    assert _VALUE_VIEWS <= defined


def test_value_view_scan_sees_each_kind():
    src = (
        "from .values import compare, _order\nfrom . import values\n"
        "a = compare(x, y)\nb = values.value_of_exponent(e, w)\n"
        "c = frame.weight(1)\nd = sorted(v, key=min_integer_multiple_in_lattice)\n"
        "weight = frame.row(1)\ne = item.new_weight\nf = _order(x, y)\n"
    )
    assert _value_view_uses(ast.parse(src)) == [
        "line 1: compare", "line 3: compare", "line 4: value_of_exponent", "line 5: weight",
        "line 6: min_integer_multiple_in_lattice",
    ]


# A path grows two ways: ``PushPath.blow_up`` and ``PushPath.translate``
# build every step, and they alone append to a path's steps and frames.
# Outside ``framing`` one loop blows up: the descent game of ``game``.
_STEP_TYPES = ("FramedStep", "TranslationItem")
_GROWERS = ("PushPath.blow_up", "PushPath.translate")


def _path_growth(node: ast.AST, scope: str = "<module>", prefix: str = "") -> list[str]:
    """``scope: what`` for each construction of a step or a translation item,
    each append to a ``steps`` or ``frames`` list and each call of
    ``blow_up``, with the function around it, qualified by its classes, as
    its scope."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner, inner_prefix = scope, prefix
        if isinstance(child, ast.ClassDef):
            inner_prefix = f"{prefix}{child.name}."
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = prefix + child.name
            inner_prefix = f"{inner}."
        elif isinstance(child, ast.Call):
            func = child.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in _STEP_TYPES or name == "blow_up":
                found.append(f"{scope}: {name}")
            elif (
                name in ("append", "extend", "insert")
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in ("steps", "frames")
            ):
                found.append(f"{scope}: {func.value.attr}.{name}")
        elif (
            isinstance(child, ast.AugAssign)
            and isinstance(child.target, ast.Attribute)
            and child.target.attr in ("steps", "frames")
        ):
            found.append(f"{scope}: {child.target.attr} +=")
        found += _path_growth(child, inner, inner_prefix)
    return found


def test_only_blow_up_and_translate_grow_a_path():
    """No module but ``framing`` builds a step or a translation item, and
    only the two growing methods append to a path."""
    found, growth = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for use in _path_growth(_parse(path)):
            scope, what = use.split(": ")
            if what == "blow_up":
                continue
            if path.name == "framing.py" and scope in _GROWERS:
                growth.append(use)
            elif path.name != "framing.py" or what not in _STEP_TYPES:
                found.append(f"{path.name} {use}")
    assert found == []
    # both growers still append a step and a frame, so the rule names live code
    for grower in _GROWERS:
        assert {f"{grower}: steps.append", f"{grower}: frames.append"} <= set(growth)


def test_one_loop_outside_framing_blows_up():
    """The pair game and the ideal game are one descent loop: outside
    ``framing`` a single function calls ``blow_up``."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "framing.py":
            callers |= {
                f"{path.name} {use}" for use in _path_growth(_parse(path))
                if use.endswith(": blow_up")
            }
    assert callers == {"game.py _descend: blow_up"}


def test_growth_scan_sees_each_kind():
    src = (
        "step = FramedStep(2, (0, 1), 0)\n\n"
        "def tag(path, t):\n    path.steps.append(framing.TranslationItem(t))\n\n"
        "def descend(path, J):\n    for _ in J:\n        yield path.blow_up(J)\n\n"
        "class PushPath:\n"
        "    def append(self, step):\n        self.steps.append(step)\n"
        "        self.frames.extend([None])\n\n"
        "    def grow(self, steps):\n        self.steps += steps\n"
        "        def later():\n            self.frames.insert(0, None)\n"
        "        return later\n\n"
        "    def push(self, f):\n        self.frames.pop()\n        return self.steps.count(f)\n"
    )
    assert _path_growth(ast.parse(src)) == [
        "<module>: FramedStep", "tag: steps.append", "tag: TranslationItem", "descend: blow_up",
        "PushPath.append: steps.append", "PushPath.append: frames.extend",
        "PushPath.grow: steps +=", "PushPath.grow.later: frames.insert",
    ]


# One push path and one exponent kernel: ``PushPath.push`` makes every
# Taylor shift of the package, and ``framing._advance`` applies every center
# to exponents, called by the push's exponent runs, by ``PushPath.advance``
# and by the descent loop of ``game``.
def _calls_of(name: str, node: ast.AST, scope: str = "<module>", prefix: str = "") -> list[str]:
    """The scope of each call of ``name``, by name or as an attribute: the
    function around it, qualified by its classes."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner, inner_prefix = scope, prefix
        if isinstance(child, ast.ClassDef):
            inner_prefix = f"{prefix}{child.name}."
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = prefix + child.name
            inner_prefix = f"{inner}."
        elif isinstance(child, ast.Call) and name in (
            getattr(child.func, "id", None), getattr(child.func, "attr", None)
        ):
            found.append(scope)
        found += _calls_of(name, child, inner, inner_prefix)
    return found


def _package_calls_of(name: str) -> list[str]:
    return [
        f"{path.name} {scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _calls_of(name, _parse(path))
    ]


def test_only_push_shifts():
    assert _package_calls_of("taylor_shift") == ["framing.py PushPath.push"]


def test_one_kernel_advances_exponents():
    assert _package_calls_of("_advance") == [
        "framing.py _push_exponents", "framing.py PushPath.advance", "game.py _descend",
    ]


def test_call_scan_sees_each_kind():
    src = (
        "from .polyalg import taylor_shift\nfrom . import polyalg\n\n"
        "g = taylor_shift(f, 'x', 1)\n\n"
        "class PushPath:\n"
        "    def push(self, f):\n        return polyalg.taylor_shift(f, 'x', 1)\n\n"
        "    def other(self, f):\n"
        "        def inner():\n            return taylor_shift(f, 'x', 2)\n"
        "        shift = taylor_shift\n        return inner(shift)\n"
    )
    assert _calls_of("taylor_shift", ast.parse(src)) == [
        "<module>", "PushPath.push", "PushPath.other.inner",
    ]


# The runner owns the path: each ``_run_*`` of ``trace`` builds the run's
# ``PushPath`` from the frame it parsed, with the run's budget, and hands it
# to the engine, so the engines of ``game`` and ``unifseq`` take no budget.
_PATH_RUNNERS = (
    "_run_keypoly_monomialize", "_run_nondegenerate", "_run_pair",
    "_run_polynomial", "_run_principalize", "_run_uniformize",
)


def _path_uses(node: ast.AST, scope: str = "<module>", prefix: str = "") -> list[str]:
    """``scope: PushPath`` for each construction of a ``PushPath`` and
    ``scope: budget`` for each function with a parameter named ``budget``,
    with the function around it, qualified by its classes, as its scope."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner, inner_prefix = scope, prefix
        if isinstance(child, ast.ClassDef):
            inner_prefix = f"{prefix}{child.name}."
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = prefix + child.name
            inner_prefix = f"{inner}."
            a = child.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == "budget" for p in params):
                found.append(f"{inner}: budget")
        elif isinstance(child, ast.Call):
            func = child.func
            if (getattr(func, "id", None) or getattr(func, "attr", None)) == "PushPath":
                found.append(f"{scope}: PushPath")
        found += _path_uses(child, inner, inner_prefix)
    return found


def test_only_the_runners_build_a_path():
    """No function outside ``trace``'s runners constructs a ``PushPath``,
    and no function of ``game`` or ``unifseq`` has a ``budget`` parameter."""
    found, makers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for use in _path_uses(_parse(path)):
            scope, what = use.split(": ")
            if what == "PushPath" and path.name == "trace.py" and scope in _PATH_RUNNERS:
                makers.append(scope)
            elif what == "PushPath" or path.name in ("game.py", "unifseq.py"):
                found.append(f"{path.name} {use}")
    assert found == []
    # each runner that plays on a path builds it once, so the rule names live code
    assert sorted(makers) == list(_PATH_RUNNERS)


def test_path_scan_sees_each_kind():
    src = (
        "path = PushPath(frame)\n\n"
        "def run(spec, budget=5):\n    return framing.PushPath(spec.frame(), budget)\n\n"
        "class Engine:\n    def play(self, *, budget):\n"
        "        def later(path):\n            return PushPath(path.frame)\n"
        "        return later\n\n"
        "    def spend(self, *budget):\n        return budget\n\n"
        "def left(path):\n    return path.budget\n"
    )
    assert _path_uses(ast.parse(src)) == [
        "<module>: PushPath", "run: budget", "run: PushPath",
        "Engine.play: budget", "Engine.play.later: PushPath", "Engine.spend: budget",
    ]


# Only ``trace`` writes a sequence witness: its runners alone know that the
# path is the whole run, so they alone state the run's independence set, and
# ``run_problem`` alone calls ``to_json`` on the path they return; the
# engines only grow the path, and no function claims a set on it.
def _witness_writes(node: ast.AST, scope: str = "<module>", prefix: str = "") -> list[str]:
    """``scope: path.to_json`` for each call of ``to_json`` on a name
    ``path`` and ``scope: claim_independence`` for each name, attribute or
    function so called, with the function around it, qualified by its
    classes, as its scope."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner, inner_prefix = scope, prefix
        if isinstance(child, ast.ClassDef):
            inner_prefix = f"{prefix}{child.name}."
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = prefix + child.name
            inner_prefix = f"{inner}."
            if child.name == "claim_independence":
                found.append(f"{inner}: claim_independence")
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "to_json"
            and getattr(child.func.value, "id", None) == "path"
        ):
            found.append(f"{scope}: path.to_json")
        elif (getattr(child, "id", None) or getattr(child, "attr", None)) == "claim_independence":
            found.append(f"{scope}: claim_independence")
        found += _witness_writes(child, inner, inner_prefix)
    return found


def test_only_the_runners_write_a_sequence_witness():
    """No function but ``trace.run_problem`` calls ``path.to_json``, and
    none names ``claim_independence``."""
    found, writers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for use in _witness_writes(_parse(path)):
            scope, what = use.split(": ")
            if what == "path.to_json" and path.name == "trace.py" and scope == "run_problem":
                writers.append(scope)
            else:
                found.append(f"{path.name} {use}")
    assert found == []
    # every selector's sequence witness is written by the one call
    assert writers == ["run_problem"]


def test_witness_scan_sees_each_kind():
    src = (
        "def run(path):\n    return {'sequence': path.to_json([1])}\n\n"
        "class Engine:\n    def play(self, path):\n        path.claim_independence((0,))\n"
        "        def later():\n            return path.to_json()\n        return later\n\n"
        "    def claim_independence(self, cols):\n        return cols\n\n"
        "def left(path, step):\n"
        "    return step.to_json(), path.frame.to_json(), claim_independence\n"
    )
    assert _witness_writes(ast.parse(src)) == [
        "run: path.to_json", "Engine.play: claim_independence",
        "Engine.play.later: path.to_json", "Engine.claim_independence: claim_independence",
        "left: claim_independence",
    ]


# The truncation recursion of ``keypoly`` carries its values as integer
# rows over one denominator: no method of ``_ChainRows`` builds a ``Value``
# or orders values through ``compare``; ``truncate`` turns its terms into
# values once, at return.
_VALUE_BUILDERS = ("Value", "value_of_exponent", "compare", "of_pairs", "scale")


def _value_uses(tree: ast.AST, cls: str) -> list[str]:
    """``method: name`` for each use of a name of ``_VALUE_BUILDERS``, by
    name or as an attribute, inside the methods of the class ``cls``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for fn in node.body:
            if not isinstance(fn, _FUNCTION_DEFS):
                continue
            for sub in ast.walk(fn):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if name in _VALUE_BUILDERS and isinstance(sub, (ast.Name, ast.Attribute)):
                    found.append(f"{fn.name}: {name}")
    return found


def test_chain_rows_build_no_value():
    tree = _parse(PACKAGE / "keypoly.py")
    assert _value_uses(tree, "_ChainRows") == []
    # the rule names a live class
    assert any(isinstance(n, ast.ClassDef) and n.name == "_ChainRows" for n in ast.walk(tree))


def test_value_use_scan_sees_each_kind():
    src = (
        "class _ChainRows:\n"
        "    def ground_value(self, es):\n        return value_of_exponent(es[0], self.w)\n"
        "    def term_values(self, b, j):\n        return [b.scale(j), Value((1,), 1, g)]\n"
        "    def least(self, a, b):\n        return values.compare(a, b)\n"
        "    def fine(self, a):\n        return _sign(a)\n\n"
        "def truncate(rows):\n    return Value(rows, 1, g)\n"
    )
    assert _value_uses(ast.parse(src), "_ChainRows") == [
        "ground_value: value_of_exponent", "term_values: scale", "term_values: Value",
        "least: compare",
    ]


# ``@dataclass`` generates each class's methods as source text and compiles
# it at import, and ``dataclasses`` loads ``inspect``, ``ast`` and ``dis``:
# every CLI call would pay for both before it reads its input.  The
# package's types write their methods out.
def _dataclasses_imports(tree: ast.AST) -> list[str]:
    """``line N`` for each import of ``dataclasses`` or a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.partition(".")[0] == "dataclasses" for m in modules):
            found.append(f"line {node.lineno}")
    return found


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name}: {f}" for f in _dataclasses_imports(_parse(path))]
    assert found == []


def test_dataclasses_scan_sees_each_kind():
    src = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "import os, dataclasses as dc\nfrom typing import NamedTuple\n\n"
        "def later():\n    from dataclasses import field\n    return field\n"
    )
    assert _dataclasses_imports(ast.parse(src)) == ["line 1", "line 2", "line 3", "line 7"]


def test_importing_the_cli_loads_no_code_generator():
    """``import valmono.cli`` in a fresh interpreter loads neither
    ``dataclasses`` nor ``inspect``."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import valmono.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# ``valmono run --jobs N`` forks its workers and hands each the batch it
# inherited: no process pool, whose ``concurrent.futures`` and
# ``multiprocessing`` imports every parallel run would pay for.
def test_a_parallel_run_loads_no_process_pool(tmp_path):
    """A ``--jobs 2`` batch in a fresh interpreter that is told of two
    CPUs, so that it forks, loads neither module."""
    problem = {
        "algorithm": "pair",
        "group": {"rank": 1},
        "spec": {"vars": ["x", "y"], "weights": [{"coords": ["1"]}, {"coords": ["2"]}]},
        "alpha": [1, 0],
        "gamma": [0, 1],
    }
    pf, tf = tmp_path / "p.json", tmp_path / "t.json"
    pf.write_text(json.dumps([problem] * 4), encoding="utf-8")
    script = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2\n"
        "from valmono import cli\n"
        f"assert cli.main(['run', {str(pf)!r}, '--jobs', '2', '--out', {str(tf)!r}]) == 0\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
    assert len(json.loads(tf.read_text(encoding="utf-8"))) == 4
