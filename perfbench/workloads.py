"""Seeded request streams for the three workloads.

A workload is a sequence of rounds.  ``make_round(workload, seed, r)``
returns round ``r`` as a list of requests; the inputs depend only on the
workload name, the seed and the round index, so the same seed gives the
same stream.  Every round covers the same catalogue of cost strata once
(coefficient field, group order, request kind); the seed picks the group
shape, the values and the order of requests within a round.  A run is made
of whole rounds, so runs with different seeds do the same mix of work and
their medians and tails compare.

A request is a JSON-able dict:

* ``argv``    - the ``gradeddiv`` command line, with file names relative to
  the run's work directory;
* ``write``   - files (name -> JSON object) the client writes before it;
* ``derive``  - an input file the client computes, before the request, from
  files earlier requests wrote (see ``derive``);
* ``session`` - requests of one session share it; checks read sessions whole;
* ``expect``  - what the checks need to know about the inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

import arith

WORKLOADS = ("quasitorus-stream", "real-census", "field-decisions")

# a stream's run keeps going until at least this many requests are done,
# so that twenty or more latency samples lie beyond its p95 and the
# quasitorus stream always serves three whole rounds
MIN_STREAM_REQUESTS = 400

# one classify-real request per group and round
CENSUS_GROUPS = ("2,2", "4", "8", "4,2", "6", "3,3", "5", "7", "9")

WARMUP = {
    "quasitorus-stream": {
        "argv": ["construct", "--in", "warmup_req.json"],
        "write": {
            "warmup_req.json": {
                "group": {"orders": [2, 2]},
                "beta": [[0, 1, "-1/1"]],
                "mu": [[0, "-1/1"], [1, "-1/1"]],
                "field": {"kind": "R"},
            }
        },
    },
    "real-census": {"argv": ["classify-real", "--group", "2"], "write": {}},
    "field-decisions": {"argv": ["is-field", "--field", "Q", "--group", "2,2", "--mu", "2,3"], "write": {}},
}


def make_round(workload: str, seed: int, r: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}:{r}")
    if workload == "quasitorus-stream":
        return _quasitorus_round(rng, r)
    if workload == "real-census":
        return _census_round(rng, r)
    if workload == "field-decisions":
        return _field_round(rng, r)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# quasitorus-stream
# ---------------------------------------------------------------------------

# One session per entry and round: (kind, field, |K|, mode).  The field is
# (p, ell) for GF and the conductor N for Q(zeta_N).  Sessions of mode
# "general" use groups of rank 2, so the costliest requests do not swing
# with the rank the seed would pick; the iso sessions take any rank.
QUASITORUS_SLOTS = (
    *(
        (kind, None, n, mode)
        for kind in ("Q", "R")
        for n, mode in ((4, "iso-true"), (8, "iso-true"), (4, "iso-false"), (8, "iso-false"), (9, "general"), (12, "general"), (16, "general"))
    ),
    ("GF", (5, 1), 4, "iso-true"),
    ("GF", (3, 2), 8, "iso-true"),
    ("GF", (7, 1), 4, "iso-false"),
    ("GF", (3, 1), 8, "iso-false"),
    ("GF", (13, 1), 9, "general"),
    ("GF", (2, 3), 12, "general"),
    ("GF", (5, 2), 16, "general"),
    ("CYC", 5, 4, "iso-true"),
    ("CYC", 8, 8, "iso-true"),
    ("CYC", 4, 4, "iso-false"),
    ("CYC", 3, 8, "iso-false"),
    ("CYC", 3, 9, "general"),
    ("CYC", 4, 12, "general"),
    ("CYC", 6, 16, "general"),
    # the large orders: n^3 associativity triples dominate these
    ("Q", None, 24, "general"),
    ("R", None, 18, "general"),
    ("GF", (11, 1), 32, "general"),
)


def shapes(n: int, max_rank: int = 5) -> list[tuple[int, ...]]:
    """Ordered factorizations of n into at most max_rank cyclic orders >= 2."""
    if n == 1:
        return [()]
    if max_rank == 0:
        return []
    out = []
    for d in range(2, n + 1):
        if n % d == 0:
            out += [(d,) + rest for rest in shapes(n // d, max_rank - 1)]
    return out


def _field(rng: random.Random, kind: str, param):
    if kind in ("Q", "R"):
        return arith.Rationals(kind), {"kind": kind}
    if kind == "GF":
        p, ell = param
        if ell == 1:
            return arith.GF(p), {"kind": "GF", "p": p, "ell": 1}
        F = arith.GF(p, ell, rng.choice(arith.monic_irreducibles(p, ell)))
        return F, F.descriptor()
    return arith.Cyclotomic(param), {"kind": "CYC", "conductor": param}


def _all_roots(F) -> list:
    if isinstance(F, arith.GF):
        return F.roots_of_unity(F.q - 1)
    if isinstance(F, arith.Cyclotomic):
        return F.roots_of_unity(F.M)
    return F.roots_of_unity(2)


def _beta_choices(F, orders) -> dict:
    """Per generator pair, the values beta_ij with beta^o_i = beta^o_j = 1."""
    return {
        (i, j): F.roots_of_unity(gcd(orders[i], orders[j]))
        for i in range(len(orders))
        for j in range(i + 1, len(orders))
    }


def _general_scalar(rng: random.Random, F):
    if isinstance(F, arith.Rationals):
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 60), rng.randint(1, 12))
    if isinstance(F, arith.Cyclotomic):
        while True:
            x = F.reduce([Fraction(rng.randint(-2, 2)) for _ in range(F.deg)])
            if not F.is_zero(x):
                return x
    return rng.choice(_all_roots(F))


def _session(rng, sid: str, kind: str, param, n: int, mode: str) -> list[dict]:
    """construct -> verify -> invariants -> decompose [-> iso] on a random D(K, beta, mu).

    mode: "iso-true" (iso against a copy rescaled by roots of unity),
    "iso-false" (iso against the algebra with one beta value changed) or
    "general" (mu not restricted to roots of unity, so no iso request)."""
    F, desc = _field(rng, kind, param)
    roots = _all_roots(F)
    cands = []
    for shape in shapes(n):
        if mode == "general" and len(shape) != 2:
            continue
        choices = _beta_choices(F, shape)
        if mode == "iso-false" and not any(len(v) > 1 for v in choices.values()):
            continue
        # the iso search tries every root of unity on every generator
        if mode != "general" and len(roots) ** len(shape) > 64:
            continue
        cands.append((shape, choices))
    if not cands:
        raise AssertionError(f"no group of order {n} fits a {mode} session over {desc}")
    orders, choices = rng.choice(cands)
    beta = {pair: rng.choice(vals) for pair, vals in choices.items()}
    if mode == "general":
        mu = [_general_scalar(rng, F) for _ in orders]
    else:
        mu = [rng.choice(roots) for _ in orders]

    def beta_json(b):
        return [[i, j, F.to_json(v)] for (i, j), v in sorted(b.items()) if v != F.one]

    expect = {
        "field": desc,
        "orders": list(orders),
        "beta": beta_json(beta),
        "mu": [F.to_json(m) for m in mu],
        "mode": mode,
    }
    req = {
        "group": {"orders": list(orders)},
        "beta": expect["beta"],
        "mu": [[i, F.to_json(m)] for i, m in enumerate(mu)],
        "field": desc,
    }
    alg = f"{sid}_alg.json"
    steps = [
        {"argv": ["construct", "--in", f"{sid}_req.json", "--out", alg], "write": {f"{sid}_req.json": req}},
        {"argv": ["verify", "--in", alg]},
        {"argv": ["invariants", "--in", alg]},
        {"argv": ["decompose", "--in", alg]},
    ]
    if mode == "iso-true":
        lam = [
            [list(t), F.to_json(F.one if not any(t) else rng.choice(roots))]
            for t in product(*(range(o) for o in orders))
        ]
        derive = {"kind": "rescale", "src": alg, "lambda": lam}
        steps.append({"argv": ["iso", "--a", alg, "--b", f"{sid}_b.json"], "derive": dict(derive, out=f"{sid}_b.json")})
        expect["lambda"] = lam
    elif mode == "iso-false":
        pair = rng.choice(sorted(p for p, v in choices.items() if len(v) > 1))
        other = dict(beta)
        other[pair] = rng.choice([v for v in choices[pair] if v != beta[pair]])
        expect["other_beta"] = beta_json(other)
        derive = {
            "kind": "rebuild",
            "field": desc,
            "orders": list(orders),
            "beta": expect["other_beta"],
            "mu": expect["mu"],
        }
        steps.append({"argv": ["iso", "--a", alg, "--b", f"{sid}_b.json"], "derive": dict(derive, out=f"{sid}_b.json")})
    for step in steps:
        step["session"] = sid
        step["expect"] = expect
    return steps


def _quasitorus_round(rng: random.Random, r: int) -> list[dict]:
    sessions = [_session(rng, f"r{r}s{k}", *slot) for k, slot in enumerate(QUASITORUS_SLOTS)]
    rng.shuffle(sessions)
    return [step for session in sessions for step in session]


# ---------------------------------------------------------------------------
# derived inputs (computed by the client between requests, outside timing)
# ---------------------------------------------------------------------------


def closed_form_algebra(F, desc: dict, orders, beta_json, mu_json) -> dict:
    """Descriptor of D(K, beta, mu): X^a X^b = prod_{i<j} beta_ij^(-a_j b_i)
    * prod_i mu_i^carry_i * X^(a+b), basis in lexicographic exponent order."""
    beta = {(i, j): F.from_json(v) for i, j, v in beta_json}
    mu = [F.from_json(v) for v in mu_json]
    elems = list(product(*(range(o) for o in orders)))
    pos = {e: n for n, e in enumerate(elems)}
    constants = []
    for a in elems:
        for b in elems:
            c = F.one
            for (i, j), v in beta.items():
                c = F.mul(c, F.pow(v, -a[j] * b[i]))
            for i, o in enumerate(orders):
                c = F.mul(c, F.pow(mu[i], (a[i] + b[i]) // o))
            s = tuple((x + y) % o for x, y, o in zip(a, b, orders))
            constants.append({"i": pos[a], "j": pos[b], "k": pos[s], "c": F.to_json(c)})
    return {
        "field": desc,
        "group": {"orders": list(orders)},
        "basis_degrees": [list(e) for e in elems],
        "unit": [[0, F.to_json(F.one)]],
        "constants": constants,
    }


def rescaled_algebra(src: dict, lam_json) -> dict:
    """The same algebra on the basis Y_t = lambda_t X_t."""
    F = arith.field_from_descriptor(src["field"])
    lam = {tuple(t): F.from_json(v) for t, v in lam_json}
    deg = [tuple(d) for d in src["basis_degrees"]]
    constants = []
    for e in src["constants"]:
        i, j, k = e["i"], e["j"], e["k"]
        c = F.mul(F.mul(lam[deg[i]], lam[deg[j]]), F.from_json(e["c"]))
        constants.append(dict(e, c=F.to_json(F.mul(c, F.inv(lam[deg[k]])))))
    unit = []
    for k, c in src["unit"]:
        unit.append([k, F.to_json(F.mul(F.from_json(c), F.inv(lam[deg[k]])))])
    return dict(src, constants=constants, unit=unit)


def derive(spec: dict, workdir) -> None:
    """Write the input file a ``derive`` entry describes."""
    if spec["kind"] == "rescale":
        with open(workdir / spec["src"], encoding="utf-8") as fh:
            src = json.load(fh)
        out = rescaled_algebra(src, spec["lambda"])
    elif spec["kind"] == "rebuild":
        F = arith.field_from_descriptor(spec["field"])
        out = closed_form_algebra(F, spec["field"], spec["orders"], spec["beta"], spec["mu"])
    else:
        raise ValueError(f"unknown derive kind {spec['kind']!r}")
    with open(workdir / spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


# ---------------------------------------------------------------------------
# real-census
# ---------------------------------------------------------------------------


def _census_round(rng: random.Random, r: int) -> list[dict]:
    groups = list(CENSUS_GROUPS)
    rng.shuffle(groups)
    return [
        {"argv": ["classify-real", "--group", g], "session": f"r{r}c{k}", "expect": {"group": g}}
        for k, g in enumerate(groups)
    ]


# ---------------------------------------------------------------------------
# field-decisions
# ---------------------------------------------------------------------------

# Every round asks each is-field entry twice, with mu drawn so that the
# classical criteria answer "field" once and "not a field" once (where the
# group allows both), and each other entry once.  The mix is chosen for
# steady percentiles: the short is-field requests are over half a round, so
# the median falls inside their spread, and the four requests of 0.3 s or
# more (the last two Frobenius and Kummer entries) are about 7%, so the p95
# falls among them rather than on the gap below them.
IS_FIELD_Q = ((2,), (3,), (4,), (6,), (8,), (12,), (16,), (2, 2), (2, 2, 2), (4, 3), (2, 2, 5), (2, 9))
IS_FIELD_GF = (
    ((3, 1), (2,)),
    ((5, 1), (4,)),
    ((7, 1), (3,)),
    ((13, 1), (4,)),
    ((3, 2), (8,)),
    ((2, 3), (7,)),
    ((7, 1), (2, 3)),
    ((13, 1), (3, 4)),
)  # ((p, ell), group orders)
FF_GRADE = ((7, 1, 3), (3, 5, 2), (2, 10, 3), (31, 2, 4), (17, 1, 6))  # (p, ell, k)
FROBENIUS = ((3, 1, 2), (7, 1, 3), (13, 1, 3), (2, 2, 3), (19, 1, 3), (31, 1, 3), (5, 2, 3))  # (p, ell, q)
KUMMER = ((7, 3), (5, 4), (19, 3), (11, 2), (13, 4), (31, 3))  # (p, n) over GF(p)
PRIMES = (2, 3, 5, 7, 11, 13)


def _small_rational(rng: random.Random) -> Fraction:
    num = rng.choice(PRIMES) ** rng.randint(0, 2) * rng.choice(PRIMES) ** rng.randint(0, 1)
    den = rng.choice((1, 1, 1, 2, 3, 5, 7))
    return Fraction(rng.choice((1, -1)) * num, den)


def _q_single_mu(rng: random.Random, n: int) -> Fraction:
    """Half the time a value the binomial criterion rejects."""
    roll = rng.random()
    if roll < 0.25:
        q = rng.choice(arith.primes_of(n))
        return Fraction(rng.choice((1, -1)) if q % 2 else 1) * Fraction(rng.randint(1, 6), rng.randint(1, 4)) ** q
    if roll < 0.4 and n % 4 == 0:
        return -4 * Fraction(rng.randint(1, 5), rng.randint(1, 3)) ** 4
    return _small_rational(rng)


def _mu_arg(values) -> str:
    return "--mu=" + ",".join(f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else str(v) for v in values)


def _q_exponent2_mus(rng: random.Random, rank: int) -> list[Fraction]:
    mus = [Fraction(rng.choice((1, -1)) * rng.choice(PRIMES) * rng.choice((1, 1, 2, 3, 5, 7, 11, 13)), rng.choice((1, 1, 4, 9))) for _ in range(rank)]
    if rng.random() < 0.35:
        # a dependent class: the product of two others, times a square
        a, b = rng.sample(range(rank), 2) if rank > 2 else (0, 1)
        mus[-1] = mus[a] * mus[b] * Fraction(rng.randint(1, 4)) ** 2
    return mus


def _draw_mus(rng: random.Random, field: str, orders, q: int) -> list:
    if field == "GF":
        return [rng.randrange(1, q) for _ in orders]
    if all(n == 2 for n in orders) and len(orders) > 1:
        return _q_exponent2_mus(rng, len(orders))
    return [_q_single_mu(rng, n) if n > 2 else _small_rational(rng) for n in orders]


def _is_field_argv(rng: random.Random, field: str, p: int, ell: int, orders, target: str) -> list[str]:
    """is-field with mu drawn until the criteria give the target verdict
    (the last draw is kept when the group cannot give it)."""
    F = arith.GF(p, ell, _default_modulus(p, ell)) if field == "GF" else arith.Rationals()
    for _ in range(100):
        mus = _draw_mus(rng, field, orders, p**ell)
        values = [F.from_int(m) for m in mus] if field == "GF" else mus
        if arith.is_field_by_criteria(F, orders, values) == target:
            break
    argv = ["is-field", "--field", field]
    if field == "GF":
        argv += ["--p", str(p), "--ell", str(ell)]
    return argv + ["--group", ",".join(map(str, orders)), _mu_arg(mus)]


def _default_modulus(p: int, ell: int) -> list[int]:
    """The modulus the program picks for GF(p^ell) when none is given: the
    first monic irreducible whose lower coefficients, read as base-p digits
    lowest first, count up from 0.  It only aims the verdict mix; the checks
    use the modulus each report states."""
    for idx in range(p**ell):
        coeffs = [idx // p**i % p for i in range(ell)] + [1]
        if arith.gfp_irreducible(coeffs, p):
            return coeffs
    raise AssertionError(f"no irreducible of degree {ell} over GF({p})")


def _field_round(rng: random.Random, r: int) -> list[dict]:
    argvs = []
    for target in ("true", "false"):
        for orders in IS_FIELD_Q:
            argvs.append(_is_field_argv(rng, "Q", 0, 1, orders, target))
        for (p, ell), orders in IS_FIELD_GF:
            argvs.append(_is_field_argv(rng, "GF", p, ell, orders, target))
    for p, ell, k in FF_GRADE:
        argvs.append(["ff-grade", "--p", str(p), "--ell", str(ell), "--k", str(k), "--list-mu"])
    for p, ell, q in FROBENIUS:
        argvs.append(["frobenius-grade", "--p", str(p), "--ell", str(ell), "--q", str(q)])
    for p, n in KUMMER:
        argvs.append(["kummer-grade", "--p", str(p), "--ell", "1", "--n", str(n), "--lam", str(_full_kummer_generator(rng, p, n))])
    rng.shuffle(argvs)
    return [{"argv": argv, "session": f"r{r}d{k}", "expect": {}} for k, argv in enumerate(argvs)]


def _full_kummer_generator(rng: random.Random, p: int, n: int) -> int:
    """A unit of GF(p) whose class generates F^x / (F^x)^n, so that the
    Kummer extension has degree n."""
    F = arith.GF(p)
    cands = list(range(1, p))
    rng.shuffle(cands)
    for c in cands:
        if F.order(F.pow(F.from_int(c), (p - 1) // n)) == n:
            return c
    raise AssertionError(f"no unit of GF({p}) generates its classes modulo {n}-th powers")
