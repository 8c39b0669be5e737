"""Source hygiene, checked with the standard library's ``ast``: no module
of the package imports a name it never uses, and every function, method
and property the package defines is referenced somewhere in ``src/``
besides its own definition (a reference from a test does not count)."""

from __future__ import annotations

import ast
import json
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


def _referenced_names(tree: ast.Module) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.asname or node.name] += 1
    return refs


def _unreferenced(defining: dict[str, ast.Module], referencing: list[ast.Module]) -> list[str]:
    """``module: name`` for each function, method or property of the
    ``defining`` modules, dunders aside, that no ``referencing`` module names."""
    refs = Counter()
    for tree in referencing:
        refs += _referenced_names(tree)
    found = []
    for module, tree in defining.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if refs[name] == 0:
                found.append(f"{module}: {name}")
    return found


# Public constructors that nothing in the package calls: the README example
# builds its values with ``ValueGroup.rational``, and the README names
# ``FieldTower.from_rational`` as the way to write an exact rational as a
# tower element.
_README_API = {"values.py: rational", "polyalg.py: from_rational"}


def test_every_defined_function_is_referenced():
    """A function whose only caller is a test is not live code: move it to
    ``tests/conftest.py`` as an oracle, or delete it."""
    package = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    found = _unreferenced(package, [_parse(p) for p in sorted(ROOT.glob("src/**/*.py"))])
    assert sorted(set(found) - _README_API) == []
    assert _README_API <= set(found)  # the exception is still needed


def test_reference_scan_ignores_tests():
    lib = ast.parse(
        "def helper():\n    return 1\n\n"
        "def run():\n    return helper()\n\n"
        "def tested():\n    return 2\n\n"
        "class C:\n    def __eq__(self, other):\n        return True\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "ENTRY = run\n"
    )
    test = ast.parse("from lib import C, tested\n\ndef test_it():\n    assert tested() == 2 + C().size\n")
    assert _unreferenced({"lib.py": lib}, [lib]) == ["lib.py: tested", "lib.py: size"]
    assert _unreferenced({"lib.py": lib}, [lib, test]) == []


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


# The runners in ``trace`` share the signature (inp, budget) so that one
# table dispatches every selector; keypoly-expand makes no blow-up steps,
# so it has no budget to spend.
_UNREAD_PARAMETERS_ALLOWED = {"trace.py: _run_keypoly_expand(budget)"}


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
    assert sorted(set(found) - _UNREAD_PARAMETERS_ALLOWED) == []
    assert _UNREAD_PARAMETERS_ALLOWED <= set(found)  # the exception is still needed


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
# ``Value`` and ``framing`` for a frame's integer weight rows.
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


# A path grows two ways: ``PushPath.blow_up`` and ``PushPath.translate``
# build every step, and they alone append to a path's steps and frames.
_STEP_TYPES = ("FramedStep", "TranslationItem")
_GROWERS = ("PushPath.blow_up", "PushPath.translate")


def _path_growth(node: ast.AST, scope: str = "<module>", prefix: str = "") -> list[str]:
    """``scope: what`` for each construction of a step or a translation item
    and each append to a ``steps`` or ``frames`` list, with the function
    around it, qualified by its classes, as its scope."""
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
            if name in _STEP_TYPES:
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
            if path.name == "framing.py" and scope in _GROWERS:
                growth.append(use)
            elif path.name != "framing.py" or what not in _STEP_TYPES:
                found.append(f"{path.name} {use}")
    assert found == []
    # both growers still append a step and a frame, so the rule names live code
    for grower in _GROWERS:
        assert {f"{grower}: steps.append", f"{grower}: frames.append"} <= set(growth)


def test_growth_scan_sees_each_kind():
    src = (
        "step = FramedStep(2, (0, 1), 0)\n\n"
        "def tag(path, t):\n    path.steps.append(framing.TranslationItem(t))\n\n"
        "class PushPath:\n"
        "    def append(self, step):\n        self.steps.append(step)\n"
        "        self.frames.extend([None])\n\n"
        "    def grow(self, steps):\n        self.steps += steps\n"
        "        def later():\n            self.frames.insert(0, None)\n"
        "        return later\n\n"
        "    def push(self, f):\n        self.frames.pop()\n        return self.steps.count(f)\n"
    )
    assert _path_growth(ast.parse(src)) == [
        "<module>: FramedStep", "tag: steps.append", "tag: TranslationItem",
        "PushPath.append: steps.append", "PushPath.append: frames.extend",
        "PushPath.grow: steps +=", "PushPath.grow.later: frames.insert",
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
