"""Replayable JSON traces: run records, witnesses, and independent
re-verification.

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
from itertools import chain
from math import gcd, lcm
from typing import Callable

from . import __version__
from .errors import (
    InvalidInputError,
    SchemaError,
    TraceMismatchError,
    ValmonoError,
    quote,
)
from .game import (
    DEFAULT_BUDGET,
    MonomialValuationSpec,
    monomialize_nondegenerate,
    monomialize_pair,
    principalize_monomial_ideal,
)
from .keypoly import KeyPolyChain, truncate
from .polyalg import MultiPoly, QQ
from .unifseq import (
    UniformizingProblem,
    elementary_uniformizing_sequence,
    monomialize_key_polys,
    monomialize_polynomial,
)
from .values import SQRT_PRIMES, Value, ValueGroup, rational_from_str

TOOL = "valmono"
SCHEMA = 1


def canonical_digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _need(obj: dict, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing field {key!r}")
    return obj[key]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_group(obj: dict) -> ValueGroup:
    """The problem's value group.  A field of the wrong JSON type raises
    SchemaError naming it.  A rank below 1, an ordering other than
    ``sqrt-primes`` and bad labels are invalid inputs, reported in that
    order."""
    group = _need(obj, "group")
    if not isinstance(group, dict):
        raise SchemaError(f"group must be an object, not {quote(group)}")
    rank = _need(group, "rank")
    if not _is_int(rank):
        raise SchemaError(f"rank must be an integer, not {quote(rank)}")
    ordering = group.get("ordering", SQRT_PRIMES)
    if not isinstance(ordering, str):
        raise SchemaError(f"ordering must be a string, not {quote(ordering)}")
    labels = _names(group, "labels", "generator labels") if "labels" in group else ()
    # a rank below 1 is reported first, by ValueGroup
    if ordering != SQRT_PRIMES and rank >= 1:
        raise InvalidInputError(f"unknown ordering {quote(ordering)}")
    return ValueGroup(rank, labels)


def _names(obj: dict, key: str, what: str = "variable names") -> tuple[str, ...]:
    names = _need(obj, key)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaError(f"{key} must be an array of {what}, not {quote(names)}")
    return tuple(names)


def _pairs(v, group: ValueGroup, what: str) -> list[tuple[int, int]]:
    """The coordinates of the value ``v`` as ``(p, q)`` pairs, one per
    generator of ``group``."""
    if not isinstance(v, dict) or not isinstance(v.get("coords"), list):
        raise SchemaError(f'{what} must be {{"coords": [...]}}, not {quote(v)}')
    pairs = [rational_from_str(c) for c in v["coords"]]
    if len(pairs) != group.rank:
        raise InvalidInputError("coordinate count must equal the group rank")
    return pairs


def _value(v, group: ValueGroup, what: str) -> Value:
    return group.of_pairs(_pairs(v, group, what))


def _values(obj: dict, key: str, group: ValueGroup, nullable: bool = False, each=_value) -> tuple:
    """The array of values ``key``, each read by ``each`` (``_value``, or
    ``_pairs`` for its coordinates); with ``nullable``, null entries stay
    None."""
    items = _need(obj, key)
    if not isinstance(items, list):
        raise SchemaError(f"{key} must be an array of values, not {quote(items)}")
    return tuple(
        None if w is None and nullable else each(w, group, f"{key} entries") for w in items
    )


def _poly(obj: dict, key: str) -> MultiPoly:
    """The polynomial field ``key`` over Q, checked and built in one pass.
    A value of the wrong JSON shape raises SchemaError naming the field, a
    bad coefficient literal one naming the literal; exponent signs and
    lengths are checked by ``MultiPoly.build``."""
    p = _need(obj, key)
    if (
        isinstance(p, dict)
        and isinstance(p.get("vars"), list)
        and all(isinstance(v, str) for v in p["vars"])
        and isinstance(p.get("terms"), list)
    ):
        terms = []
        for t in p["terms"]:
            if not (
                isinstance(t, dict)
                and isinstance(t.get("e"), list)
                and all(map(_is_int, t["e"]))
                and isinstance(t.get("c"), str)
            ):
                break
            terms.append((t["e"], rational_from_str(t["c"])))
        else:
            den = lcm(*[q for _, (_, q) in terms])
            return MultiPoly.build(p["vars"], [(e, n * (den // q)) for e, (n, q) in terms], QQ, den)
    raise SchemaError(
        f'{key} must be {{"vars": [names], "terms": [{{"e": [integers], "c": "p/q"}}]}}, '
        f"not {quote(p)}"
    )


def _spec(obj: dict, key: str, group: ValueGroup) -> MonomialValuationSpec:
    """The spec field ``key`` (a problem's spec or a chain's ground), its
    weights read straight into integer rows over one denominator."""
    spec = _need(obj, key)
    names = _names(spec, "vars")
    weights = _values(spec, "weights", group, each=_pairs)
    den = lcm(*[q for w in weights for _, q in w])
    rows = [[num * (den // q) for num, q in w] for w in weights]
    g = gcd(den, *chain.from_iterable(rows))
    if g != 1:
        den //= g
        rows = [[x // g for x in r] for r in rows]
    return MonomialValuationSpec._of_rows(names, tuple(map(tuple, rows)), den, group)


def chain_from_json(obj: dict, group: ValueGroup) -> KeyPolyChain:
    """The key-polynomial chain of a problem; a malformed ground, x or
    entries field raises SchemaError naming it."""
    spec = _spec(obj, "ground", group)
    x = _need(obj, "x")
    if not isinstance(x, str):
        raise SchemaError(f"x must be a variable name, not {quote(x)}")
    entries = _need(obj, "entries")
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and "Q" in e and "beta" in e for e in entries
    ):
        raise SchemaError(
            f'entries must be an array of {{"Q": ..., "beta": ...}} objects, not {quote(entries)}'
        )
    vars_ = spec.vars + (x,)
    return KeyPolyChain(
        ground=spec,
        x=x,
        entries=tuple(
            (_poly(e, "Q").with_vars(vars_), _value(e["beta"], group, "beta"))
            for e in entries
        ),
    )


def _parse_exponents(obj) -> list[tuple[int, ...]]:
    if not isinstance(obj, list):
        raise SchemaError("exponents must be arrays")
    out = []
    for e in obj:
        if not isinstance(e, list) or not all(_is_int(x) and x >= 0 for x in e):
            raise SchemaError("exponents must be arrays of nonnegative integers")
        out.append(tuple(e))
    return out


def _sequence_file(path, group) -> dict:
    """Sequence-file schema: step records plus a header carrying the
    initial variable labels and weights."""
    out = {"header": dict(path.frames[0].to_json(), group=group.to_json())}
    out.update(path.to_json())
    return out


# ---------------------------------------------------------------------------
# runners: input json -> witnesses dict (records land in trace["steps"])
# ---------------------------------------------------------------------------


def _run_pair(inp: dict, budget: int) -> tuple[list, dict]:
    group = _parse_group(inp)
    spec = _spec(inp, "spec", group)
    alpha = _parse_exponents([_need(inp, "alpha")])[0]
    gamma = _parse_exponents([_need(inp, "gamma")])[0]
    res = monomialize_pair(alpha, gamma, spec, budget)
    witnesses = {
        "alpha_final": list(res.alpha),
        "gamma_final": list(res.gamma),
        "alpha_divides": res.alpha_divides,
        "gamma_divides": res.gamma_divides,
        "divides": res.alpha_divides or res.gamma_divides,
        "sequence": _sequence_file(res.path, group),
        "final_frame": res.path.frame.to_json(),
    }
    return res.path.records, witnesses


def _run_principalize(inp: dict, budget: int) -> tuple[list, dict]:
    group = _parse_group(inp)
    spec = _spec(inp, "spec", group)
    gens = _parse_exponents(_need(inp, "generators"))
    res = principalize_monomial_ideal(gens, spec, budget)
    witnesses = {
        "survivor": res.survivor,
        "exponents_final": [list(e) for e in res.exponents],
        "sequence": _sequence_file(res.path, group),
        "final_frame": res.path.frame.to_json(),
    }
    return res.path.records, witnesses


def _run_nondegenerate(inp: dict, budget: int) -> tuple[list, dict]:
    group = _parse_group(inp)
    spec = _spec(inp, "spec", group)
    poly = _poly(inp, "poly").with_vars(spec.vars)
    res = monomialize_nondegenerate(poly, spec, budget)
    witnesses = {
        "exponent": list(res.exponent),
        "unit_witness": res.unit_witness.to_json(),
        "image": res.image.to_json(),
        "sequence": _sequence_file(res.path, group),
        "final_frame": res.path.frame.to_json(),
    }
    return res.path.records, witnesses


def _run_keypoly_expand(inp: dict, budget: int) -> tuple[list, dict]:
    group = _parse_group(inp)
    chain = chain_from_json(_need(inp, "chain"), group)
    poly = _poly(inp, "poly").with_vars(chain.all_vars)
    level = inp.get("level", len(chain))
    if not _is_int(level):
        raise SchemaError(f"level must be an integer, not {quote(level)}")
    trunc = truncate(poly, chain, level)
    exp = trunc.expansion
    witnesses = {
        "level": level,
        "coefficients": [c.to_json() for c in exp.coefficients],
        "reassembles": exp.reassembles(poly),
        "truncated_value": trunc.value.to_json(),
        "delta": trunc.delta,
        "epsilon": trunc.epsilon,
    }
    return [], witnesses


def _run_keypoly_monomialize(inp: dict, budget: int) -> tuple[list, dict]:
    group = _parse_group(inp)
    chain = chain_from_json(_need(inp, "chain"), group)
    res = monomialize_key_polys(chain, budget)
    witnesses = {
        "final_frame": res.path.frame.to_json(),
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
        "sequence": _sequence_file(res.path, group),
    }
    return res.path.records, witnesses


def _parse_uniformize_problem(inp: dict) -> UniformizingProblem:
    group = _parse_group(inp)
    prob = _need(inp, "problem")
    w_names = _names(prob, "w_vars")
    w_weights = _values(prob, "w_weights", group)
    wn = _need(prob, "wn_var")
    if not isinstance(wn, str):
        raise SchemaError(f"wn_var must be a variable name, not {quote(wn)}")
    beta_n = _value(_need(prob, "beta_n"), group, "beta_n")
    res = _need(prob, "residue")
    if not isinstance(res, dict):
        raise SchemaError(f"residue must be an object, not {quote(res)}")
    # an input without a kind is read as algebraic
    kind = res.get("kind", "algebraic")
    if kind not in ("algebraic", "transcendental"):
        raise SchemaError(f"kind must be 'algebraic' or 'transcendental', not {quote(kind)}")
    residue = None
    if kind == "algebraic":
        # residues read from JSON lie over Q
        minpoly = _names(res, "minpoly", "rational strings")
        residue = tuple(Fraction(*rational_from_str(c)) for c in minpoly)
    v_names = _names(prob, "v_vars") if "v_vars" in prob else ()
    v_weights = (
        _values(prob, "v_weights", group, nullable=True)
        if "v_weights" in prob
        else (None,) * len(v_names)
    )
    h = _poly(prob, "h") if prob.get("h") is not None else None
    beta_new = (
        _value(prob["beta_new"], group, "beta_new")
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


def _run_uniformize(inp: dict, budget: int) -> tuple[list, dict]:
    problem = _parse_uniformize_problem(inp)
    res = elementary_uniformizing_sequence(problem, budget)
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
        "final_frame": res.path.frame.to_json(),
        "sequence": _sequence_file(res.path, problem.beta_n.group),
        "aux_steps": res.aux_steps,
    }
    return res.path.records, witnesses


def _run_polynomial(inp: dict, budget: int) -> tuple[list, dict]:
    group = _parse_group(inp)
    chain = chain_from_json(_need(inp, "chain"), group)
    poly = _poly(inp, "poly").with_vars(chain.all_vars)
    res = monomialize_polynomial(poly, chain, budget)
    witnesses = {
        "exponent": list(res.exponent),
        "unit_witness": res.unit_witness.to_json(),
        "image": res.image.to_json(),
        "expansion_values": res.expansion_values,
        "final_frame": res.path.frame.to_json(),
        "sequence": _sequence_file(res.path, group),
    }
    return res.path.records, witnesses


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
    """Execute one problem object and wrap the outcome in a trace."""
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
        records, witnesses = _RUNNERS[algorithm](inp, budget)
        trace["steps"] = records
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
