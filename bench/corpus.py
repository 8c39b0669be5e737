"""Seeded, stdlib-only generators for the benchmark workloads.

Every problem is a plain dict in the public JSON problem schema, so the
program only ever sees the files written from these lists.  Nothing here
imports ``valmono`` or the test helpers (``tests/conftest.py`` needs
pytest); the ``binomial_chain`` and ``random_poly`` recipes are rebuilt on
plain dicts instead.

Each workload has a fixed *pool* built from ``POOL_SEED``.  The run seed
picks which pool entries a run takes and in what order, so one seed always
gives the same inputs, and ``seed_digests.json`` can hold the outcome the
seed commit produced for every pool entry.  The pick is stratified by the
features that drive cost, so seeds differ in inputs but not in mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

POOL_SEED = 20261017
DIGEST_FIELDS = ("steps", "witnesses", "verdict")
POOL_SIZE = {"descent": 800, "chains": 3000, "expand": 3000}
WORKLOADS = tuple(POOL_SIZE)


def _q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _group(rank: int) -> dict:
    return {
        "rank": rank,
        "ordering": "sqrt-primes",
        "labels": [f"g{i + 1}" for i in range(rank)],
    }


def _value(coords) -> dict:
    return {"coords": [_q(c) for c in coords]}


def _poly(vars_, terms: dict) -> dict:
    """terms: exponent tuple -> Fraction; zero coefficients are dropped."""
    return {
        "vars": list(vars_),
        "terms": [{"e": list(e), "c": _q(c)} for e, c in sorted(terms.items()) if c != 0],
    }


def random_terms(rng: random.Random, n: int, max_terms: int, max_exps) -> dict:
    """The ``random_poly`` recipe of the test suite: up to ``max_terms``
    random monomials with small rational coefficients, never zero."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exps[i]) for i in range(n))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5)) or Fraction(1)
        terms[e] = terms.get(e, Fraction(0)) + c
    terms = {e: c for e, c in terms.items() if c != 0}
    return terms or {(0,) * n: Fraction(1)}


# ---------------------------------------------------------------------------
# descent: tau game and exact value comparison at ranks 2..6
# ---------------------------------------------------------------------------


def _descent_spec(rng: random.Random, rank: int) -> dict:
    # weight i sits on generator i (1, sqrt2, sqrt3, ...) with a random
    # positive coefficient; a few nonnegative cross terms keep coordinate
    # differences irrational, so comparisons must refine
    weights = []
    for i in range(rank):
        coords = [Fraction(0)] * rank
        coords[i] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for j in range(rank):
            if j != i and rng.random() < 0.3:
                coords[j] = Fraction(rng.randint(1, 5), rng.randint(1, 6))
        weights.append(_value(coords))
    return {"vars": [f"u{i + 1}" for i in range(rank)], "weights": weights}


def _exponent(rng: random.Random, n: int, top: int) -> list:
    return [rng.randint(0, top) if rng.random() < 0.7 else 0 for _ in range(n)]


def descent_problem(rng: random.Random) -> dict:
    rank = rng.randint(2, 6)
    base = {"schema": 1, "group": _group(rank), "spec": _descent_spec(rng, rank)}
    kind = rng.choice(("pair", "principalize", "nondegenerate"))
    if kind == "pair":
        return dict(base, algorithm="pair",
                    alpha=_exponent(rng, rank, 12), gamma=_exponent(rng, rank, 12))
    if kind == "principalize":
        gens = [_exponent(rng, rank, 12) for _ in range(rng.randint(2, 6))]
        return dict(base, algorithm="principalize", generators=gens)
    terms = random_terms(rng, rank, 6, [8] * rank)
    return dict(base, algorithm="nondegenerate", poly=_poly(base["spec"]["vars"], terms))


# ---------------------------------------------------------------------------
# chains: key-polynomial chains, towers and elementary uniformizing sequences
# ---------------------------------------------------------------------------

_UX = ("u", "x")


def binomial_chain(rng: random.Random, allow_extension: bool = True) -> dict:
    """The test suite's ``binomial_chain``: Q_2 = x^A - c u^B with
    gcd(A, B) = 1, optionally followed by a translation key polynomial."""
    while True:
        A, B = rng.randint(2, 4), rng.randint(1, 7)
        if gcd(A, B) == 1:
            break
    c = Fraction(rng.choice([1, 2, 3, -1, -2]))
    beta1 = Fraction(B, A)
    beta2 = Fraction(B) + Fraction(rng.randint(1, 4), rng.randint(1, 3))
    q2 = {(0, A): Fraction(1), (B, 0): -c}
    entries = [({(0, 1): Fraction(1)}, beta1), (q2, beta2)]
    if allow_extension and rng.random() < 0.5:
        # Q_3 = Q_2 + c' u^k x^m with k = beta2 - m beta1 a nonnegative integer
        for m in range(A):
            k = beta2 - m * beta1
            if k.denominator == 1 and k >= 0:
                q3 = dict(q2)
                q3[(int(k), m)] = q3.get((int(k), m), Fraction(0)) + rng.choice([1, 2, -1])
                beta3 = beta2 + Fraction(rng.randint(1, 3), rng.randint(1, 2))
                entries.append((q3, beta3))
                break
    return _chain_json(entries)


def extension_chain(rng: random.Random) -> dict:
    """Q_2 = x^A - c u^B with gcd(A, B) = 2 and c not a square: the level-2
    residue has degree 2, so monomializing extends the field tower."""
    A = rng.choice((2, 4))
    B = rng.choice((2, 6, 10)) if A == 4 else rng.choice((2, 4, 6))
    c = Fraction(rng.choice([2, 3, 5, -1, -3]))
    beta1 = Fraction(B, A)
    beta2 = Fraction(B) + Fraction(rng.randint(1, 3), 2)
    return _chain_json([({(0, 1): Fraction(1)}, beta1), ({(0, A): Fraction(1), (B, 0): -c}, beta2)])


def _chain_json(entries) -> dict:
    return {
        "ground": {"vars": ["u"], "weights": [_value([1])]},
        "x": "x",
        "entries": [{"Q": _poly(_UX, q), "beta": _value([b])} for q, b in entries],
    }


def _some_chain(rng: random.Random) -> dict:
    return extension_chain(rng) if rng.random() < 0.25 else binomial_chain(rng)


def _positive(coords) -> bool:
    """Exact sign of c0 + c1 sqrt(2) > 0 (ranks 1 and 2 only)."""
    c0, c1 = (list(coords) + [Fraction(0)])[:2]
    if c0 >= 0 and c1 >= 0:
        return c0 > 0 or c1 > 0
    if c0 > 0 > c1:
        return c0 * c0 > 2 * c1 * c1
    if c1 > 0 > c0:
        return 2 * c1 * c1 > c0 * c0
    return False


_RESIDUES = {
    1: lambda rng: [_q(-rng.choice([1, 2, 3, -1, 5])), "1"],
    2: lambda rng: rng.choice((["-2", "0", "1"], ["-3", "0", "1"], ["1", "0", "1"], ["1", "1", "1"])),
    3: lambda rng: [_q(-rng.choice([2, 3, 5])), "0", "0", "1"],
}


def uniformize_problem(rng: random.Random) -> dict:
    r = rng.randint(1, 2)  # w-variables, and the group's rank
    w_coords = []
    for i in range(r):
        coords = [Fraction(0)] * r
        coords[i] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if i > 0 and rng.random() < 0.5:
            coords[0] = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        w_coords.append(coords)
    # beta_n = sum a_i w_i lies in the span; with two w-variables the a_i
    # may have mixed signs as long as beta_n stays positive
    while True:
        low = 1 if r == 1 else -7
        a = [Fraction(rng.randint(low, 7), rng.randint(1, 3)) for _ in range(r)]
        beta_n = [sum(ai * w[k] for ai, w in zip(a, w_coords)) for k in range(r)]
        if _positive(beta_n):
            break
    d = rng.randint(1, 3)
    prob = {
        "w_vars": [f"w{i + 1}" for i in range(r)],
        "w_weights": [_value(w) for w in w_coords],
        "wn_var": "wn",
        "beta_n": _value(beta_n),
        "residue": {"kind": "algebraic", "minpoly": _RESIDUES[d](rng)},
    }
    if rng.random() < 0.4:
        prob["v_vars"] = ["v1"]
        prob["v_weights"] = [_value([Fraction(rng.randint(1, 6), rng.randint(1, 2))] + [0] * (r - 1))]
    abar = 1
    for ai in a:
        abar = abar * ai.denominator // gcd(abar, ai.denominator)
    pos = [max(int(ai * abar), 0) for ai in a]
    # h only where w^(d * alpha^+) stays small: a perturbation of degree
    # ~45 alone costs more than a whole run of ordinary problems
    if rng.random() < 0.4 and d * max(pos) <= 12:
        # h sits strictly above the quasi-homogeneous part: every term
        # dominates w^(d * alpha^+) with at least one extra positive exponent
        names = prob["w_vars"] + prob.get("v_vars", []) + ["wn"]
        terms = {}
        for _ in range(rng.randint(1, 2)):
            extra = [rng.randint(0, 2) for _ in names]
            if not any(extra):
                extra[rng.randrange(len(names))] = 1
            e = [d * p for p in pos] + [0] * (len(names) - r)
            terms[tuple(x + y for x, y in zip(e, extra))] = Fraction(rng.choice([1, 2, -1, 3]))
        prob["h"] = _poly(names, terms)
    return {"schema": 1, "algorithm": "uniformize", "group": _group(r), "problem": prob}


def chains_problem(rng: random.Random) -> dict:
    kind = rng.choice(("keypoly-monomialize", "polynomial", "uniformize"))
    if kind == "uniformize":
        return uniformize_problem(rng)
    out = {"schema": 1, "algorithm": kind, "group": _group(1), "chain": _some_chain(rng)}
    if kind == "polynomial":
        out["poly"] = _poly(_UX, random_terms(rng, 2, 4, [5, 5]))
    return out


# ---------------------------------------------------------------------------
# expand: Euclidean division, q-adic expansion and truncations, no blow-ups
# ---------------------------------------------------------------------------


def expand_problem(rng: random.Random) -> dict:
    chain = _some_chain(rng)
    terms = random_terms(rng, 2, 6, [6, 12])
    top = max(e[1] for e in terms)
    if top < 10:  # keep the x-degree at 10..12
        terms[(rng.randint(0, 6), rng.randint(10, 12))] = Fraction(1)
    return {
        "schema": 1,
        "algorithm": "keypoly-expand",
        "group": _group(1),
        "chain": chain,
        "poly": _poly(_UX, terms),
        "level": rng.randint(1, len(chain["entries"])),
    }


_MAKERS = {"descent": descent_problem, "chains": chains_problem, "expand": expand_problem}


def pool(workload: str) -> list[dict]:
    rng = random.Random(f"{POOL_SEED}:{workload}")
    return [_MAKERS[workload](rng) for _ in range(POOL_SIZE[workload])]


def _stratum(workload: str, p: dict) -> tuple:
    """Input features that drive a problem's cost."""
    if workload == "descent":
        return (p["algorithm"], p["group"]["rank"])
    if workload == "expand":
        return (len(p["chain"]["entries"]), p["level"])
    if p["algorithm"] == "uniformize":
        prob = p["problem"]
        return (p["algorithm"], len(prob["w_vars"]), "h" in prob, len(prob["residue"]["minpoly"]))
    return (p["algorithm"], len(p["chain"]["entries"]))


def order(workload: str, seed: int, problems: list[dict]) -> list[int]:
    """The order in which a run with this seed walks the pool: shuffled
    within each stratum, then interleaved so that every prefix holds each
    stratum in its pool proportion (systematic stratified sampling)."""
    rng = random.Random(f"{seed}:{workload}")
    strata: dict = {}
    for k, p in enumerate(problems):
        strata.setdefault(_stratum(workload, p), []).append(k)
    keyed = []
    for name in sorted(strata, key=repr):
        idx = strata[name]
        rng.shuffle(idx)
        offset = rng.random()
        keyed += [((j + offset) / len(idx), k) for j, k in enumerate(idx)]
    keyed.sort()
    return [k for _, k in keyed]


def outcome_digest(trace: dict) -> str:
    """Short canonical digests of the trace fields that must stay
    byte-identical, six hex digits per field in DIGEST_FIELDS order."""
    out = ""
    for field in DIGEST_FIELDS:
        blob = json.dumps(trace.get(field), sort_keys=True, separators=(",", ":")).encode()
        out += hashlib.sha256(blob).hexdigest()[:6]
    return out


def pool_digest(problems: list[dict]) -> str:
    blob = json.dumps(problems, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
