"""Independent checks of the program's JSON reports.

Each check recomputes what a report claims with the benchmark's own exact
arithmetic (``arith``), working from the report's own field descriptor
(for GF(p^ell), modulo the modulus the report states).  None of them calls
``gradeddiv``.  A check returns a list of problems; an empty list means the
report passed.

``check_run(workload, items, seed)`` checks a whole run: ``items`` yields
(request meta, report) pairs in request order, and the result has one list
of problems per request.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd, prod

import arith


class CheckError(Exception):
    """A report that cannot even be decoded as the check expects."""


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _add(a, b, orders):
    return tuple((x + y) % o for x, y, o in zip(a, b, orders))


class OneDimTable:
    """An algebra with 1-dimensional components X_t: X_s X_t = c(s, t) X_{s+t}."""

    def __init__(self, desc: dict):
        self.F = F = arith.field_from_descriptor(desc["field"])
        self.orders = tuple(desc["group"]["orders"])
        self.elems = [tuple(d) for d in desc["basis_degrees"]]
        self.index = {d: i for i, d in enumerate(self.elems)}
        n = len(self.elems)
        if len(self.index) != n or n != prod(self.orders):
            raise CheckError("basis degrees are not the group elements, once each")
        self.add = [[self.index[_add(s, t, self.orders)] for t in self.elems] for s in self.elems]
        entries: dict = {}
        for e in desc["constants"]:
            c = F.from_json(e["c"])
            if not F.is_zero(c):
                entries.setdefault((e["i"], e["j"]), {})[e["k"]] = c
        self.c = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                v = entries.get((i, j), {})
                if set(v) != {self.add[i][j]}:
                    raise CheckError(f"product of basis {i} and {j} is not a nonzero multiple of one basis vector")
                self.c[i][j] = v[self.add[i][j]]
        self.zero = self.index[(0,) * len(self.orders)]
        unit = {int(k): F.from_json(v) for k, v in desc["unit"]}
        if unit != {self.zero: F.one}:
            raise CheckError("the unit is not the identity-degree basis vector")

    def gen(self, i: int) -> int:
        return self.index[tuple(1 if k == i else 0 for k in range(len(self.orders)))]

    def problems(self) -> list[str]:
        """Unit law and the 2-cocycle identity c(s,t) c(s+t,u) = c(t,u) c(s,t+u)."""
        F, c, add, n = self.F, self.c, self.add, len(self.elems)
        out = []
        z = self.zero
        if any(c[z][i] != F.one or c[i][z] != F.one for i in range(n)):
            out.append("the identity basis vector is not a two-sided unit")
        for i in range(n):
            ci, ai = c[i], add[i]
            for j in range(n):
                cij, aij = ci[j], ai[j]
                left_row, cj, aj = c[aij], c[j], add[j]
                for k in range(n):
                    if F.mul(cij, left_row[k]) != F.mul(cj[k], ci[aj[k]]):
                        return out + [f"associativity fails on basis triple ({i}, {j}, {k})"]
        return out

    def commutator(self, i: int, j: int):
        a, b = self.gen(i), self.gen(j)
        return self.F.mul(self.c[a][b], self.F.inv(self.c[b][a]))

    def generator_power(self, i: int):
        """The scalar X_i^(o_i), read off the table."""
        g = self.gen(i)
        acc, cur = self.F.one, self.zero
        for _ in range(self.orders[i]):
            acc = self.F.mul(acc, self.c[cur][g])
            cur = self.add[cur][g]
        return acc


def _beta_dict(F, pairs) -> dict:
    return {(i, j): F.from_json(v) for i, j, v in pairs}


def beta_value(F, beta: dict, s, t):
    """beta(s, t) = prod_{i<j} beta_ij^(s_i t_j - s_j t_i)."""
    out = F.one
    for (i, j), v in beta.items():
        e = s[i] * t[j] - s[j] * t[i]
        if e:
            out = F.mul(out, F.pow(v, e))
    return out


def radical_size(F, orders, beta: dict) -> int:
    elems = list(product(*(range(o) for o in orders)))
    return sum(1 for s in elems if all(beta_value(F, beta, s, t) == F.one for t in elems))


# ---------------------------------------------------------------------------
# quasitorus-stream
# ---------------------------------------------------------------------------


def check_quasitorus_session(items) -> list[list[str]]:
    """items: the (meta, report) pairs of one session, in order."""
    out = []
    table = None
    for meta, report in items:
        try:
            probs = _exit_problems(meta, report)
            if not probs:
                cmd = meta["argv"][0]
                if cmd == "construct":
                    table, probs = _check_construct(meta["expect"], report)
                elif table is None:
                    probs = ["the session's construct request did not produce an algebra"]
                elif cmd == "verify":
                    probs = _check_verify(report)
                elif cmd == "invariants":
                    probs = _check_invariants(meta["expect"], table, report)
                elif cmd == "decompose":
                    probs = _check_decompose(table, report)
                elif cmd == "iso":
                    probs = _check_iso(meta["expect"], report)
                else:
                    probs = [f"unexpected command {cmd}"]
        except (CheckError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            probs = [f"report does not decode: {exc!r}"]
        out.append(probs)
    return out


def _exit_problems(meta: dict, report) -> list[str]:
    if meta.get("code") != 0:
        return [f"exit code {meta.get('code')}" + (f": {meta['error'].strip().splitlines()[-1]}" if meta.get("error") else "")]
    if not isinstance(report, dict) or report.get("command") != meta["argv"][0]:
        return ["no report for the command"]
    return []


def _check_construct(expect: dict, report: dict):
    probs = []
    if not all(v.get("ok") for v in report["verification"].values()):
        probs.append("an oracle in the verification block failed")
    table = OneDimTable(report["algebra"])
    F = table.F
    if list(table.orders) != expect["orders"]:
        return None, probs + ["algebra group differs from the request"]
    probs += table.problems()
    beta = _beta_dict(F, expect["beta"])
    rank = len(table.orders)
    for i in range(rank):
        for j in range(i + 1, rank):
            if table.commutator(i, j) != beta.get((i, j), F.one):
                probs.append(f"X_{i} X_{j} = b X_{j} X_{i} with b other than the requested beta_{i}{j}")
        if table.generator_power(i) != F.from_json(expect["mu"][i]):
            probs.append(f"X_{i}^{table.orders[i]} differs from the requested mu_{i}")
    return table, probs


def _check_verify(report: dict) -> list[str]:
    if report["verdict"] is not True or not all(v["ok"] for v in report["checks"].values()):
        return ["verify rejects an algebra the benchmark checked"]
    return []


def _check_invariants(expect: dict, table: OneDimTable, report: dict) -> list[str]:
    F = table.F
    inv = report["invariants"]
    probs = []
    n = len(table.elems)
    if inv["dimension"] != n or inv["identity_component_dim"] != 1 or inv["graded_center_e_dim"] != 1:
        probs.append("dimension, identity component or graded center is wrong for 1-dimensional components")
    beta = _beta_dict(F, expect["beta"])
    if inv["center_dim"] != radical_size(F, table.orders, beta):
        probs.append(f"center_dim {inv['center_dim']} differs from the size of the radical of beta")
    if _beta_dict(F, inv["beta"]) != {k: v for k, v in beta.items() if v != F.one}:
        probs.append("reported commutation bicharacter differs from the requested beta")
    reps = [F.from_json(m["representative"]) for m in inv["mu_generator_classes"]]
    if reps != [F.from_json(m) for m in expect["mu"]]:
        probs.append("reported generator power constants differ from the requested mu")
    return probs


def _check_decompose(table: OneDimTable, report: dict) -> list[str]:
    n = len(table.elems)
    parts = report["parts"]
    primes = [part["prime"] for part in parts]
    dims = [len(part["algebra"]["basis_degrees"]) for part in parts]
    probs = []
    if primes != arith.primes_of(n):
        probs.append(f"primary parts at {primes}, expected the primes of {n}")
    if prod(dims) != n or any(d != arith.p_part(n, p) for p, d in zip(primes, dims)):
        probs.append(f"primary part dimensions {dims} do not multiply out to {n}")
    return probs


def _check_iso(expect: dict, report: dict) -> list[str]:
    A = OneDimTable(report["input"]["a"])
    B = OneDimTable(report["input"]["b"])
    F = A.F
    if expect["mode"] == "iso-true":
        if report["verdict"] is not True or not report["witness"]:
            return ["iso misses the isomorphism to a rescaled copy"]
        lam = {tuple(t): F.from_json(v) for t, v in report["witness"]}
        if set(lam) != set(A.elems) or any(F.is_zero(v) for v in lam.values()):
            return ["iso witness does not give a nonzero scalar per degree"]
        for s in A.elems:
            i = A.index[s]
            for t in A.elems:
                j = A.index[t]
                st = A.elems[A.add[i][j]]
                lhs = F.mul(F.mul(lam[s], lam[t]), B.c[B.index[s]][B.index[t]])
                if lhs != F.mul(A.c[i][j], lam[st]):
                    return [f"iso witness fails lambda_s lambda_t c_B(s,t) = c_A(s,t) lambda_(s+t) at {s}, {t}"]
        return []
    if report["verdict"] is not False or report["witness"] is not None:
        return ["iso claims an isomorphism between algebras with different commutation factors"]
    rank = len(A.orders)
    if all(A.commutator(i, j) == B.commutator(i, j) for i in range(rank) for j in range(i + 1, rank)):
        return ["the two iso inputs have the same commutation factors, so false is not certified"]
    return []


# ---------------------------------------------------------------------------
# real-census
# ---------------------------------------------------------------------------

ITEM_DIM = {"1": 1, "2": 4, "3a": 2, "3b": 2, "4": 1}
CENSUS_FULL_CHECK_DIM = 12  # tables up to this dimension are all checked
CENSUS_SAMPLE = 3  # larger tables checked per report, drawn with the seed


def abelian_type(elements, orders) -> tuple[int, ...]:
    """Primary cyclic factor orders (sorted) of a finite abelian group, from
    how many of its elements have order dividing each prime power."""
    zero = (0,) * len(orders)

    def order(g):
        k, x = 1, g
        while x != zero:
            x = _add(x, g, orders)
            k += 1
        return k

    element_orders = [order(g) for g in elements]
    factors = []
    for p in arith.primes_of(len(elements)):
        full = arith.p_part(len(elements), p)
        logs = [0]  # logs[k] = log_p of #{g : p^k g = 0} = sum_i min(k, a_i)
        while p ** logs[-1] < full:
            k = len(logs)
            logs.append(_log(sum(1 for o in element_orders if p**k % o == 0), p))
        # at_least[k - 1] = #{i : a_i >= k}
        at_least = [logs[k] - logs[k - 1] for k in range(1, len(logs))] + [0]
        for k in range(1, len(logs)):
            factors += [p**k] * (at_least[k - 1] - at_least[k])
    return tuple(sorted(factors))


def _log(n: int, p: int) -> int:
    k = 0
    while n > 1:
        n //= p
        k += 1
    return k


def count_bicharacters_up_to_inversion(factors) -> int:
    """Alternating bicharacters on Z_f1 x ... x Z_fk, counted by listing every
    choice of pair values (beta_ij a gcd(f_i, f_j)-th root of unity, written
    as an exponent) and counting the classes {beta, beta^-1}."""
    mods = [gcd(a, b) for i, a in enumerate(factors) for b in factors[i + 1 :]]
    classes = set()
    for exps in product(*(range(m) for m in mods)):
        inverse = tuple((-e) % m for e, m in zip(exps, mods))
        classes.add(min(exps, inverse))
    return len(classes)


class SparseTable:
    """Any graded algebra: products of basis vectors as sparse vectors."""

    def __init__(self, desc: dict):
        self.F = F = arith.field_from_descriptor(desc["field"])
        self.orders = tuple(desc["group"]["orders"])
        self.degrees = [tuple(d) for d in desc["basis_degrees"]]
        self.t: dict = {}
        for e in desc["constants"]:
            c = F.from_json(e["c"])
            if not F.is_zero(c):
                self.t.setdefault((e["i"], e["j"]), {})[e["k"]] = c

    def _mul_vec_basis(self, v: dict, k: int, left: bool) -> dict:
        F = self.F
        out: dict = {}
        for m, a in v.items():
            for r, b in self.t.get((m, k) if left else (k, m), {}).items():
                out[r] = F.add(out.get(r, F.zero), F.mul(a, b))
        return {r: c for r, c in out.items() if not F.is_zero(c)}

    def problems(self) -> list[str]:
        for (i, j), v in self.t.items():
            target = _add(self.degrees[i], self.degrees[j], self.orders)
            if any(self.degrees[k] != target for k in v):
                return [f"product of basis {i} and {j} leaves the degree {target}"]
        n = len(self.degrees)
        for i in range(n):
            for j in range(n):
                ij = self.t.get((i, j), {})
                for k in range(n):
                    left = self._mul_vec_basis(ij, k, left=True)
                    right = self._mul_vec_basis(self.t.get((j, k), {}), i, left=False)
                    if left != right:
                        return [f"associativity fails on basis triple ({i}, {j}, {k})"]
        return []


def check_census(meta: dict, report, rng: random.Random) -> list[str]:
    probs = _exit_problems(meta, report)
    if probs:
        return probs
    try:
        return _census_problems(meta, report, rng)
    except (CheckError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"report does not decode: {exc!r}"]


def _census_problems(meta: dict, report: dict, rng: random.Random) -> list[str]:
    probs = []
    G = tuple(int(x) for x in meta["expect"]["group"].split(","))
    if tuple(report["input"]["group"]["orders"]) != G:
        probs.append("report is for another group")
    labels = report["labels"]
    if report["total"] != len(labels):
        probs.append("total differs from the number of labels")

    tally: dict = {}
    big = []
    for n, entry in enumerate(labels):
        item = entry["label"]["item"]
        order = len(entry["stratum"])
        stratum = tuple(tuple(e) for e in entry["stratum"])
        key = "3" if item.startswith("3") else item
        tally.setdefault(stratum, dict.fromkeys("1234", 0))[key] += 1
        if not entry["invariants"]["recovered_label_matches"]:
            probs.append(f"label {n}: recovered label does not match")
        if entry["dimension"] != order * ITEM_DIM[item] or len(entry["algebra"]["basis_degrees"]) != entry["dimension"]:
            probs.append(f"label {n}: item {item} on |T| = {order} has dimension {entry['dimension']}")
        kind = entry["algebra"]["field"]["kind"]
        if kind != ("CYC" if item == "4" else "R"):
            probs.append(f"label {n}: item {item} over {kind}")
        if entry["invariants"]["identity_component_dim"] != ITEM_DIM[item]:
            probs.append(f"label {n}: identity component has the wrong dimension")
        if entry["dimension"] <= CENSUS_FULL_CHECK_DIM:
            probs += [f"label {n}: {p}" for p in SparseTable(entry["algebra"]).problems()]
        else:
            big.append(n)
    for n in sorted(rng.sample(big, min(CENSUS_SAMPLE, len(big)))):
        probs += [f"label {n}: {p}" for p in SparseTable(labels[n]["algebra"]).problems()]

    by_type: dict = {}
    for row in report["strata"]:
        elements = [tuple(e) for e in row["subgroup"]]
        counts = {k: row["counts"][k] for k in "1234"}
        if tally.get(tuple(elements), dict.fromkeys("1234", 0)) != counts:
            probs.append(f"stratum {elements}: counts differ from the labels listed")
        factors = abelian_type(elements, G)
        if factors in by_type and by_type[factors] != counts:
            probs.append(f"isomorphic strata of type {factors} have different counts")
        by_type[factors] = counts
        if all(f == 2 for f in factors):
            r = len(factors)
            if counts["1"] != 2 ** (r * (r - 1) // 2 + r) or counts["2"] != counts["1"]:
                probs.append(f"elementary abelian stratum of rank {r}: items 1, 2 count {counts['1']}, {counts['2']}")
        if len(elements) % 2 == 1 and (counts["1"], counts["2"], counts["3"]) != (1, 1, 0):
            probs.append(f"odd-order stratum {factors}: items 1, 2, 3 count {counts['1']}, {counts['2']}, {counts['3']}")
        if counts["4"] != count_bicharacters_up_to_inversion(factors):
            probs.append(f"stratum {factors}: item 4 counts {counts['4']}, brute force gives {count_bicharacters_up_to_inversion(factors)}")
    return probs


# ---------------------------------------------------------------------------
# field-decisions
# ---------------------------------------------------------------------------


def _is_binomial_split(F, factors, orders, mus) -> bool:
    """Whether the factors are nonconstant and multiply to X^N - alpha, with
    alpha = mu_i for an N dividing n_i (mus=None: any alpha, for a tower
    level whose embedding of the input the report does not state)."""
    if any(len(f) < 2 for f in factors):
        return False
    acc = [F.one]
    for f in factors:
        acc = arith.poly_mul(F, acc, f)
    N = len(acc) - 1
    if acc[-1] != F.one or any(not F.is_zero(c) for c in acc[1:-1]):
        return False
    alpha = F.neg(acc[0])
    return mus is None or any(n % N == 0 and alpha == m for n, m in zip(orders, mus))


def _exponent2_zero_divisor(F, mus, witness) -> bool:
    """left * right == 0 in F[X_1..X_m]/(X_i^2 - mu_i), both nonzero; basis
    index = binary number of the exponents, first generator most significant."""
    m = len(mus)

    def vec(d):
        return {int(k): F.from_json(v) for k, v in d.items() if not F.is_zero(F.from_json(v))}

    left, right = vec(witness["left"]), vec(witness["right"])
    if not left or not right:
        return False
    out: dict = {}
    for a, x in left.items():
        for b, y in right.items():
            c = F.mul(x, y)
            for i in range(m):
                bit = 1 << (m - 1 - i)
                if a & bit and b & bit:
                    c = F.mul(c, mus[i])
            k = a ^ b
            out[k] = F.add(out.get(k, F.zero), c)
    return all(F.is_zero(c) for c in out.values())


def _check_is_field(report: dict, argv) -> list[str]:
    inp = report["input"]
    F = arith.field_from_descriptor(inp["field"])
    orders = inp["group"]["orders"]
    mus = [F.from_json(m) for m in inp["mu"]]
    requested = argv[argv.index("--group") + 1]
    if ",".join(map(str, orders)) != requested:
        return ["report input has another group"]
    raw = next(a for a in argv if a.startswith("--mu=")).split("=", 1)[1].split(",")
    given = [F.from_int(int(v)) if isinstance(F, arith.GF) else Fraction(v) for v in raw]
    if given != mus:
        return ["report input has other mu values"]
    expected = arith.is_field_by_criteria(F, orders, mus)
    if expected is None:
        return ["input outside the cases the benchmark decides"]
    if report["verdict"] != expected:
        return [f"verdict {report['verdict']}, the binomial criteria give {expected}"]
    wit = report["witness"]
    if report["verdict"] == "false" and wit is not None:
        kind = wit["kind"]
        base_level = wit.get("level_field", inp["field"]) == inp["field"]
        level = F if base_level else arith.field_from_descriptor(wit["level_field"])
        level_mus = mus if base_level else None
        if kind == "zero_divisor":
            sub = [m for n, m in zip(orders, mus) if n % 2 == 0 and arith.p_part(n, 2) == 2]
            if not _exponent2_zero_divisor(F, sub, wit):
                return ["zero-divisor witness does not multiply out to 0"]
        elif kind == "power_factor":
            factors = [[level.from_json(c) for c in wit[k]] for k in ("divisor", "quotient")]
            if not _is_binomial_split(level, factors, orders, level_mus):
                return ["factor witness does not multiply back to a binomial of the input"]
        elif kind == "sum_of_squares_split":
            factors = [[level.from_json(c) for c in f] for f in wit["factors"]]
            if not _is_binomial_split(level, factors, orders, level_mus):
                return ["quadratic split does not multiply back to a binomial of the input"]
        elif kind != "power_class_relation":
            return [f"unknown witness kind {kind}"]
    return []


def _check_ff_grade(report: dict) -> list[str]:
    p, ell, k = (report["input"][key] for key in ("p", "ell", "k"))
    q = p**ell
    rs = arith.primes_of(k)
    exists = all((q - 1) % r == 0 for r in rs) and (k % 4 != 0 or (q - 1) % 4 == 0)
    if report["verdict"] is not exists:
        return [f"verdict {report['verdict']} against the divisibility conditions on {q} - 1"]
    mus = report["mu"]
    if not exists:
        return [] if mus == [] else ["mu listed although no grading exists"]
    expected = (q - 1) * prod(r - 1 for r in rs) // prod(rs)
    if len(mus) != expected or len({tuple(m) for m in mus}) != len(mus):
        return [f"{len(mus)} mu listed, {expected} units avoid every r-th power class"]
    if any(len(m) != ell or not any(m) or not all(0 <= c < p for c in m) for m in mus):
        return ["listed mu are not nonzero elements of GF(p^ell)"]
    if ell == 1:
        # the report names no modulus for ell > 1, so membership is checked on prime fields
        F = arith.GF(p)
        if any(F.is_power(F.from_json(m), r) for m in mus for r in rs):
            return ["a listed mu is an r-th power for a prime r dividing k"]
    return []


def _check_graded_extension(report: dict, r: int, stated_mu=None) -> list[str]:
    """Frobenius and Kummer reports: a Z_r-graded commutative algebra whose
    generator power X^r = mu makes X^r - mu irreducible (mu not an s-th power
    for s | r, and equal to stated_mu when the report states one), with a
    passing dual Galois check."""
    if report["verdict"] is not True:
        return ["no graded extension reported"]
    table = OneDimTable(report["algebra"])
    F = table.F
    if table.orders != (r,):
        return [f"grading group {table.orders}, expected Z_{r}"]
    probs = table.problems()
    n = len(table.elems)
    if any(table.c[i][j] != table.c[j][i] for i in range(n) for j in range(n)):
        probs.append("the graded extension is not commutative")
    mu = table.generator_power(0)
    if any(F.is_power(mu, s) for s in arith.primes_of(r)) or not arith.gf_binomial_irreducible(F, mu, r):
        probs.append("mu = X^r is an s-th power for a prime s | r, so the algebra is no field")
    if stated_mu is not None and F.from_json(stated_mu) != mu:
        probs.append("the reported mu differs from the table's X^r")
    dual = report["dual_galois"]
    if dual.get("ok") is not True or dual.get("automorphisms") != r:
        probs.append("dual Galois check did not pass with |G| automorphisms")
    return probs


def check_field(meta: dict, report) -> list[str]:
    probs = _exit_problems(meta, report)
    if probs:
        return probs
    argv = meta["argv"]
    try:
        cmd = argv[0]
        if cmd == "is-field":
            return _check_is_field(report, argv)
        if cmd == "ff-grade":
            return _check_ff_grade(report)
        if cmd == "frobenius-grade":
            return _check_graded_extension(report, report["input"]["q"], report["witness"]["mu"])
        if cmd == "kummer-grade":
            p, n = report["input"]["p"], report["input"]["n"]
            F = arith.GF(p)
            lam = [F.from_json(v) for v in report["input"]["lambda"]]
            r = 1
            for x in lam:
                o = F.order(F.pow(x, (p - 1) // n))
                r = r * o // gcd(r, o)
            return _check_graded_extension(report, r)
        return [f"unexpected command {cmd}"]
    except (CheckError, KeyError, TypeError, ValueError, ZeroDivisionError, StopIteration) as exc:
        return [f"report does not decode: {exc!r}"]


# ---------------------------------------------------------------------------


def check_run(workload: str, items, seed: int) -> list[list[str]]:
    out: list[list[str]] = []
    if workload == "quasitorus-stream":
        session, current = [], None
        for meta, report in items:
            if meta["session"] != current and session:
                out += check_quasitorus_session(session)
                session = []
            current = meta["session"]
            session.append((meta, report))
        if session:
            out += check_quasitorus_session(session)
        return out
    if workload == "real-census":
        rng = random.Random(f"census-sample:{seed}")
        return [check_census(meta, report, rng) for meta, report in items]
    if workload == "field-decisions":
        return [check_field(meta, report) for meta, report in items]
    raise ValueError(f"unknown workload {workload!r}")
