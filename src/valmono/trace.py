"""Replayable JSON traces: run records, witnesses, and re-verification by
replay.

A trace embeds its input verbatim; verification replays the run through
the library and demands that every recorded step and witness reproduce
bit-exactly, and that the input still has the header's ``input_digest``.
The header timestamp is advisory and excluded from digests, so identical
inputs yield identical traces up to that field.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from typing import Callable, NoReturn

from . import __version__
from .errors import (
    InvalidInputError,
    SchemaError,
    TraceMismatchError,
    ValmonoError,
    quote,
)
from .framing import DEFAULT_BUDGET, PushPath
from .game import (
    MonomialValuationSpec,
    monomialize_nondegenerate,
    principalize_exponents,
    run_pair_descent,
)
from .keypoly import KeyPolyChain, truncate
from .polyalg import MultiPoly, QQ, _exponent_fault
from .unifseq import (
    UniformizingProblem,
    elementary_uniformizing_sequence,
    monomialize_key_polys,
    monomialize_polynomial,
)
from .values import SQRT_PRIMES, Value, ValueGroup, rational_from_str

TOOL = "valmono"
SCHEMA = 1


# the bytes of json.dumps(obj, sort_keys=True, separators=(",", ":")),
# without building an encoder per call or marking each container against
# cycles, which JSON-decoded input cannot have
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_digest(obj) -> str:
    """The SHA-256 of the canonical JSON bytes of ``obj``.  An object that
    contains itself, which only a library caller can build, raises
    RecursionError once the encoder's nesting passes the interpreter's
    recursion limit."""
    blob = _CANONICAL.encode(obj).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


# The readers below name a field by its JSON path: ``at`` is the path of
# the object that holds it, with a trailing dot ("" at the top level), and
# an array entry is named by its index.


def _need(obj: dict, key: str, at: str = ""):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing field {at + key!r}")
    return obj[key]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# second arguments of ``isinstance`` for ``map``, which never run out
_INT, _STR = repeat(int), repeat(str)


def _parse_group(obj: dict) -> ValueGroup:
    """The problem's value group.  A field of the wrong JSON type raises
    SchemaError naming its JSON path.  A rank below 1, an ordering other than
    ``sqrt-primes`` and bad labels are invalid inputs, reported in that
    order."""
    group = _need(obj, "group")
    if not isinstance(group, dict):
        raise SchemaError(f"group must be an object, not {quote(group)}")
    at = "group."
    rank = _need(group, "rank", at)
    if not _is_int(rank):
        raise SchemaError(f"{at}rank must be an integer, not {quote(rank)}")
    ordering = group.get("ordering", SQRT_PRIMES)
    if not isinstance(ordering, str):
        raise SchemaError(f"{at}ordering must be a string, not {quote(ordering)}")
    labels = _names(group, "labels", "generator labels", at) if "labels" in group else ()
    # a rank below 1 is reported first, by ValueGroup
    if ordering != SQRT_PRIMES and rank >= 1:
        raise InvalidInputError(f"unknown ordering {quote(ordering)}")
    return ValueGroup(rank, labels)


def _names(obj: dict, key: str, what: str = "variable names", at: str = "") -> tuple[str, ...]:
    names = _need(obj, key, at)
    if not isinstance(names, list) or not all(map(isinstance, names, _STR)):
        raise SchemaError(f"{at}{key} must be an array of {what}, not {quote(names)}")
    return tuple(names)


def _raise_at(exc: SchemaError, literals, path: str) -> NoReturn:
    """Raise ``exc``, a bad literal's error, again naming the JSON path of
    the first bad one of ``literals``: ``path`` with its index in place of
    ``{}``.  Readers look the path up only here, so their loops keep no
    index."""
    for k, c in enumerate(literals):
        try:
            rational_from_str(c)
        except SchemaError:
            raise SchemaError(f"{exc} at {path.format(k)}") from None


def _pairs(v, group: ValueGroup, what: str) -> list[tuple[int, int]]:
    """The coordinates of the value ``v`` as ``(p, q)`` pairs, one per
    generator of ``group``; a bad literal is named by its path."""
    if not isinstance(v, dict) or not isinstance(v.get("coords"), list):
        raise SchemaError(f'{what} must be {{"coords": [...]}}, not {quote(v)}')
    try:
        pairs = [rational_from_str(c) for c in v["coords"]]
    except SchemaError as exc:
        _raise_at(exc, v["coords"], what + ".coords[{}]")
    if len(pairs) != group.rank:
        raise InvalidInputError("coordinate count must equal the group rank")
    return pairs


def _value(v, group: ValueGroup, what: str) -> Value:
    return group.of_pairs(_pairs(v, group, what))


def _values(
    obj: dict, key: str, group: ValueGroup, nullable: bool = False, each=_value, at: str = ""
) -> tuple:
    """The array of values ``key``, each read by ``each`` (``_value``, or
    ``_pairs`` for its coordinates); with ``nullable``, null entries stay
    None."""
    items = _need(obj, key, at)
    if not isinstance(items, list):
        raise SchemaError(f"{at}{key} must be an array of values, not {quote(items)}")
    return tuple(
        None if w is None and nullable else each(w, group, f"{at}{key}[{k}]")
        for k, w in enumerate(items)
    )


def _poly(obj: dict, key: str, at: str = "") -> MultiPoly:
    """The polynomial field ``key`` over Q, checked and built in one pass.
    A value of the wrong JSON shape raises SchemaError naming the field, a
    bad coefficient literal one naming the literal and its path.
    Exponents get the check of ``MultiPoly.build`` after every shape and
    literal check: the first bad exponent is raised once all terms have
    been read.  Repeated exponents are summed and zero coefficients
    dropped, over one running denominator."""
    p = _need(obj, key, at)
    if (
        isinstance(p, dict)
        and isinstance(p.get("vars"), list)
        and all(map(isinstance, p["vars"], _STR))
        and isinstance(p.get("terms"), list)
    ):
        n = len(p["vars"])
        terms: dict[tuple[int, ...], int] = {}
        den, bad = 1, None
        for t in p["terms"]:
            if not isinstance(t, dict):
                break
            e, c = t.get("e"), t.get("c")
            # integers, not bools, each checked in C
            if not (
                isinstance(e, list)
                and all(map(isinstance, e, _INT))
                and bool not in map(type, e)
                and isinstance(c, str)
            ):
                break
            try:
                num, q = rational_from_str(c)
            except SchemaError as exc:  # each term before this one is well formed
                _raise_at(exc, (t["c"] for t in p["terms"]), f"{at}{key}.terms[{{}}].c")
            if bad is not None:
                continue
            e = tuple(e)
            if len(e) != n or n and min(e) < 0:  # the test of _exponent_fault
                bad = _exponent_fault(e, n)
                continue
            if den % q:
                lift = q // gcd(den, q)
                den *= lift
                terms = {e: v * lift for e, v in terms.items()}
            terms[e] = terms.get(e, 0) + num * (den // q)
        else:
            if bad is not None:
                raise InvalidInputError(bad)
            if 0 in terms.values():
                terms = {e: c for e, c in terms.items() if c}
            return MultiPoly(tuple(p["vars"]), terms, QQ, den)
    raise SchemaError(
        f'{at}{key} must be {{"vars": [names], "terms": [{{"e": [integers], "c": "p/q"}}]}}, '
        f"not {quote(p)}"
    )


def _rows_over(values: list[list[tuple[int, int]]], den: int) -> tuple[tuple, int]:
    """``(rows, d)``: values read as ``(p, q)`` pairs, as integer rows over
    the least multiple ``d`` of ``den`` over which they are integral.  That
    is the lcm L of ``den`` and every q, over the gcd of L // den and every
    numerator."""
    d = lcm(den, *[q for w in values for _, q in w])
    rows = [tuple([p * (d // q) for p, q in w]) for w in values]
    if d != den:
        g = gcd(d // den, *chain.from_iterable(rows))
        if g != 1:
            d //= g
            rows = [tuple([x // g for x in r]) for r in rows]
    return tuple(rows), d


def _spec(obj: dict, key: str, group: ValueGroup, at: str = "") -> MonomialValuationSpec:
    """The spec field ``key`` (a problem's spec or a chain's ground), its
    weights read straight into integer rows over one denominator."""
    spec = _need(obj, key, at)
    at = f"{at}{key}."
    names = _names(spec, "vars", at=at)
    rows, den = _rows_over(_values(spec, "weights", group, each=_pairs, at=at), 1)
    return MonomialValuationSpec._of_rows(names, rows, den, group)


def chain_from_json(obj: dict, group: ValueGroup) -> KeyPolyChain:
    """The key-polynomial chain of a problem, its ``chain`` field; a
    malformed ground, x or entries field raises SchemaError naming its
    path.  The ground's weights and the betas are read straight into
    integer rows, the betas over the least multiple of the ground's
    denominator that holds them all."""
    at = "chain."
    spec = _spec(obj, "ground", group, at)
    x = _need(obj, "x", at)
    if not isinstance(x, str):
        raise SchemaError(f"{at}x must be a variable name, not {quote(x)}")
    entries = _need(obj, "entries", at)
    if not isinstance(entries, list):
        raise SchemaError(
            f'{at}entries must be an array of {{"Q": ..., "beta": ...}} objects, '
            f"not {quote(entries)}"
        )
    for k, e in enumerate(entries):
        if not (isinstance(e, dict) and "Q" in e and "beta" in e):
            raise SchemaError(
                f'{at}entries[{k}] must be a {{"Q": ..., "beta": ...}} object, not {quote(e)}'
            )
    vars_ = spec.vars + (x,)
    qs, betas = [], []
    for k, e in enumerate(entries):
        where = f"{at}entries[{k}]."
        qs.append(_poly(e, "Q", where).with_vars(vars_))
        betas.append(_pairs(e["beta"], group, where + "beta"))
    betas, den = _rows_over(betas, spec.frame().den)
    return KeyPolyChain._of_rows(spec, x, qs, betas, den)


def _exponent(e, what: str) -> tuple[int, ...]:
    """One exponent: an array of nonnegative integers.  Any other shape
    raises SchemaError naming ``what`` and quoting ``e``."""
    if not isinstance(e, list) or not all(_is_int(x) and x >= 0 for x in e):
        raise SchemaError(f"{what} must be an array of nonnegative integers, not {quote(e)}")
    return tuple(e)


def _exponents(obj: dict, key: str) -> list[tuple[int, ...]]:
    """The array of exponents ``key``; a bad entry is named by its index,
    ``key[k]``."""
    items = _need(obj, key)
    if not isinstance(items, list):
        raise SchemaError(f"{key} must be an array of exponents, not {quote(items)}")
    return [_exponent(e, f"{key}[{k}]") for k, e in enumerate(items)]


# ---------------------------------------------------------------------------
# runners: (input json, group, budget) -> (path, witnesses, independent_of)
# ---------------------------------------------------------------------------

# Each runner knows that its path is the whole run, so it alone states what
# the run proves: the independence set its ``sequence`` witness carries.


def _unused_columns(exps: list[tuple[int, ...]], n: int) -> list[int]:
    """Of the n columns, those that no exponent of ``exps`` uses."""
    return [i for i in range(n) if all(e[i] == 0 for e in exps)]


def _run_pair(inp: dict, group: ValueGroup, budget: int) -> tuple:
    spec = _spec(inp, "spec", group)
    alpha = _exponent(_need(inp, "alpha"), "alpha")
    gamma = _exponent(_need(inp, "gamma"), "gamma")
    path = PushPath(spec.frame(), budget)
    res = run_pair_descent(alpha, gamma, path)
    # no blow-up centre holds a variable on which the two exponents agree
    agree = [i for i, (x, y) in enumerate(zip(alpha, gamma)) if x == y]
    witnesses = {
        "alpha_final": list(res.alpha),
        "gamma_final": list(res.gamma),
        "alpha_divides": res.alpha_divides,
        "gamma_divides": res.gamma_divides,
        "divides": res.alpha_divides or res.gamma_divides,
    }
    return path, witnesses, agree


def _run_principalize(inp: dict, group: ValueGroup, budget: int) -> tuple:
    spec = _spec(inp, "spec", group)
    gens = _exponents(inp, "generators")
    path = PushPath(spec.frame(), budget)
    res = principalize_exponents(gens, path)
    witnesses = {
        "survivor": res.survivor,
        "exponents_final": [list(e) for e in res.exponents],
    }
    # no blow-up centre holds a variable that no generator involves
    return path, witnesses, _unused_columns(gens, path.frame.n)


def _run_nondegenerate(inp: dict, group: ValueGroup, budget: int) -> tuple:
    spec = _spec(inp, "spec", group)
    poly = _poly(inp, "poly").with_vars(spec.vars)
    path = PushPath(spec.frame(), budget)
    res = monomialize_nondegenerate(poly, path)
    witnesses = {
        "exponent": list(res.exponent),
        "unit_witness": res.unit_witness.to_json(),
        "image": res.image.to_json(),
    }
    # no blow-up centre holds a variable that no principalized exponent involves
    return path, witnesses, _unused_columns(res.generators, path.frame.n)


def _run_keypoly_expand(inp: dict, group: ValueGroup, budget: int) -> tuple:
    chain = chain_from_json(_need(inp, "chain"), group)
    poly = _poly(inp, "poly").with_vars(chain.all_vars)
    level = inp.get("level", len(chain))
    if not _is_int(level):
        raise SchemaError(f"level must be an integer, not {quote(level)}")
    trunc = truncate(poly, chain, level, budget)
    exp = trunc.expansion
    witnesses = {
        "level": level,
        "coefficients": [c.to_json() for c in exp.coefficients],
        "reassembles": exp.reassembles(poly),
        "truncated_value": trunc.value.to_json(),
        "delta": trunc.delta,
        "epsilon": trunc.epsilon,
    }
    return None, witnesses, None


def _run_keypoly_monomialize(inp: dict, group: ValueGroup, budget: int) -> tuple:
    chain = chain_from_json(_need(inp, "chain"), group)
    path = PushPath(chain.initial_frame(), budget)
    res = monomialize_key_polys(chain, path)
    witnesses = {
        "x_column": res.x_column + 1,
        "level_data": res.level_data,
        "entries": [
            {
                "entry": w.entry,
                "monomial": list(w.monomial),
                "unit": w.unit.to_json(),
                "x_multiplicity": w.x_multiplicity,
            }
            for w in res.witnesses
        ],
    }
    return path, witnesses, None


def _parse_uniformize_problem(inp: dict, group: ValueGroup) -> UniformizingProblem:
    prob = _need(inp, "problem")
    at = "problem."
    w_names = _names(prob, "w_vars", at=at)
    w_weights = _values(prob, "w_weights", group, at=at)
    wn = _need(prob, "wn_var", at)
    if not isinstance(wn, str):
        raise SchemaError(f"{at}wn_var must be a variable name, not {quote(wn)}")
    beta_n = _value(_need(prob, "beta_n", at), group, f"{at}beta_n")
    res = _need(prob, "residue", at)
    if not isinstance(res, dict):
        raise SchemaError(f"{at}residue must be an object, not {quote(res)}")
    # an input without a kind is read as algebraic
    kind = res.get("kind", "algebraic")
    if kind not in ("algebraic", "transcendental"):
        raise SchemaError(
            f"{at}residue.kind must be 'algebraic' or 'transcendental', not {quote(kind)}"
        )
    residue = None
    if kind == "algebraic":
        # residues read from JSON lie over Q
        minpoly = _names(res, "minpoly", "rational strings", f"{at}residue.")
        try:
            residue = tuple([Fraction(*rational_from_str(c)) for c in minpoly])
        except SchemaError as exc:
            _raise_at(exc, minpoly, at + "residue.minpoly[{}]")
    v_names = _names(prob, "v_vars", at=at) if "v_vars" in prob else ()
    v_weights = (
        _values(prob, "v_weights", group, nullable=True, at=at)
        if "v_weights" in prob
        else (None,) * len(v_names)
    )
    h = _poly(prob, "h", at) if prob.get("h") is not None else None
    beta_new = (
        _value(prob["beta_new"], group, f"{at}beta_new")
        if prob.get("beta_new") is not None
        else None
    )
    return UniformizingProblem(
        w_names=w_names,
        w_weights=w_weights,
        wn_name=wn,
        beta_n=beta_n,
        residue=residue,
        v_names=v_names,
        v_weights=v_weights,
        h=h,
        beta_new=beta_new,
    )


def _run_uniformize(inp: dict, group: ValueGroup, budget: int) -> tuple:
    problem = _parse_uniformize_problem(inp, group)
    path = PushPath(problem.frame(), budget)
    res = elementary_uniformizing_sequence(problem, path)
    # no blow-up centre holds a passive column unless the perturbation
    # involves one, so no image of a w-variable touches one
    h, r, v_names = problem.h, len(problem.w_names), problem.v_names
    touched = h is not None and any(v in h.vars and h.degree_in(v) > 0 for v in v_names)
    passive = None if touched else range(r, r + len(v_names))
    # the witness echoes the input's own literals, not their lowest terms
    residue = {"kind": "transcendental"}
    if problem.residue is not None:
        residue = {"kind": "algebraic", "minpoly": list(inp["problem"]["residue"]["minpoly"])}
    witnesses = {
        "abar": res.abar,
        "alpha": list(res.alpha_coeffs),
        "d": res.d,
        "z_column": res.z_column + 1,
        "z_sign": res.z_sign,
        "new_var": res.new_var,
        "residue": residue,
        "images": res.images,
        "factorization": res.witness,
        "aux_steps": res.aux_steps,
    }
    return path, witnesses, passive


def _run_polynomial(inp: dict, group: ValueGroup, budget: int) -> tuple:
    chain = chain_from_json(_need(inp, "chain"), group)
    poly = _poly(inp, "poly").with_vars(chain.all_vars)
    path = PushPath(chain.initial_frame(), budget)
    res = monomialize_polynomial(poly, chain, path)
    witnesses = {
        "exponent": list(res.exponent),
        "unit_witness": res.unit_witness.to_json(),
        "image": res.image.to_json(),
        "expansion_values": res.expansion_values,
    }
    return path, witnesses, None


_RUNNERS: dict[str, Callable] = {
    "pair": _run_pair,
    "principalize": _run_principalize,
    "nondegenerate": _run_nondegenerate,
    "keypoly-expand": _run_keypoly_expand,
    "keypoly-monomialize": _run_keypoly_monomialize,
    "uniformize": _run_uniformize,
    "polynomial": _run_polynomial,
}
ALGORITHMS = tuple(_RUNNERS)


def run_problem(inp: dict, budget: int = DEFAULT_BUDGET, command: str = "run") -> dict:
    """Execute one problem object and wrap the outcome in a trace.  After an
    ok run on a path, the ``sequence`` witness, the ``final_frame`` and the
    ``steps`` are written here, for every runner."""
    if not isinstance(inp, dict):
        raise SchemaError("problem must be a JSON object")
    algorithm = _need(inp, "algorithm")
    if not isinstance(algorithm, str):
        raise SchemaError(f"algorithm must be a string, not {quote(algorithm)}")
    if algorithm not in _RUNNERS:
        raise SchemaError(f"unknown algorithm selector {quote(algorithm)}")
    header = {
        "tool": TOOL,
        "version": __version__,
        "schema": SCHEMA,
        "command": command,
        "algorithm": algorithm,
        "budget": budget,
        "input_digest": canonical_digest(inp),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    trace = {"header": header, "input": inp, "steps": [], "witnesses": None}
    try:
        path, witnesses, independent_of = _RUNNERS[algorithm](inp, _parse_group(inp), budget)
        if path is not None:
            witnesses["sequence"] = path.to_json(independent_of)
            witnesses["final_frame"] = path.frame.to_json()
            trace["steps"] = path.records
        trace["witnesses"] = witnesses
        trace["verdict"] = {"ok": True}
    except SchemaError:
        raise
    except ValmonoError as exc:
        trace["verdict"] = {"ok": False, "code": exc.code, "message": str(exc)}
    return trace


def _optional(trace: dict, key: str, kind: type, what: str):
    """The trace field ``key``, read as empty when missing or null."""
    value = trace.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise SchemaError(f"{key} must be {what} or null, not {quote(value)}")
    return value


def verify_trace(trace: dict) -> None:
    """Replay the embedded input and compare the verdict's ``ok`` and
    ``code``, then every recorded step and witness; raises
    TraceMismatchError on the first divergence, and
    SchemaError naming the field when the trace's own fields are malformed."""
    if not isinstance(trace, dict):
        raise SchemaError("trace must be a JSON object")
    header = _need(trace, "header")
    if not isinstance(header, dict):
        raise SchemaError(f"header must be an object, not {quote(header)}")
    # a trace without a schema is read as schema 1, the only one there is
    schema = header.get("schema", SCHEMA)
    if not _is_int(schema) or schema != SCHEMA:
        raise SchemaError(f"schema must be {SCHEMA}, not {quote(schema)}")
    inp = _need(trace, "input")
    budget = header.get("budget", DEFAULT_BUDGET)
    if not _is_int(budget) or budget < 0:
        raise SchemaError(f"budget must be a nonnegative integer, not {quote(budget)}")
    # traces written before every sequence carried its independence set may
    # say so with "auto_independence": false; they replay without the set
    independence = header.get("auto_independence", True)
    if not isinstance(independence, bool):
        raise SchemaError(f"auto_independence must be a boolean, not {quote(independence)}")
    old_steps = _optional(trace, "steps", list, "an array")
    old_verdict = _optional(trace, "verdict", dict, "an object")
    fresh = run_problem(inp, budget, command="verify")
    digest = header.get("input_digest")
    if digest is not None and digest != fresh["header"]["input_digest"]:
        raise TraceMismatchError(0, "header.input_digest", "trace mismatch at the input")
    # a replay that ends otherwise is reported by its verdict, which says
    # why, not by the first step or witness the failure left out
    for key in ("ok", "code"):
        if old_verdict.get(key) != fresh["verdict"].get(key):
            path = f"verdict.{key}"
            raise TraceMismatchError(len(old_steps) + 1, path, "trace mismatch at verdict")
    sequence = (fresh["witnesses"] or {}).get("sequence")
    if sequence is not None and not independence:
        sequence.pop("independent_of", None)
    new_steps = fresh["steps"]
    for k in range(max(len(old_steps), len(new_steps))):
        a = old_steps[k] if k < len(old_steps) else None
        b = new_steps[k] if k < len(new_steps) else None
        if a != b:
            raise TraceMismatchError(k + 1, _first_difference(a, b, f"steps[{k}]"))
    old, new = trace.get("witnesses"), fresh["witnesses"]
    if old != new:
        path = _first_difference(old, new, "witnesses")
        raise TraceMismatchError(len(old_steps) + 1, path, "trace mismatch at witnesses")


def _first_difference(a, b, path: str) -> str:
    """The JSON path, below ``path``, of the first field where the differing
    ``a`` and ``b`` differ: a list index, a dict key, or a key one of them
    lacks."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in [*a, *(k for k in b if k not in a)]:
            if k not in a or k not in b:
                return f"{path}.{k}"
            if a[k] != b[k]:
                return _first_difference(a[k], b[k], f"{path}.{k}")
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, f"{path}[{i}]")
        return f"{path}[{min(len(a), len(b))}]"
    return path
