"""Shared enumeration helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from gradeddiv.abelian import FinAbGroup
from gradeddiv.exactfield import FiniteField, RealField, _gfp_mod, _gfp_mul
from gradeddiv.gradedalg import GradedAlgebra
from gradeddiv.gradedfield import GradedFieldError
from gradeddiv.intutil import factorint, prime_divisors
from gradeddiv.quasitorus import MuFunction

REAL = RealField()


def _partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_groups_upto(bound: int) -> list[FinAbGroup]:
    """Canonical prime-power presentations of every abelian group of order
    2..bound, 2-primary factors first, then odd primes ascending."""
    out = []
    for order in range(2, bound + 1):
        fact = factorint(order)
        per_prime = []
        for p in sorted(fact, key=lambda q: (q != 2, q)):
            options = [tuple(p**k for k in sorted(part)) for part in _partitions(fact[p])]
            per_prime.append(sorted(set(options)))
        for combo in product(*per_prime):
            orders = tuple(x for chunk in combo for x in chunk)
            out.append(FinAbGroup(orders))
    return out


def real_mu_choices(G: FinAbGroup):
    """All power-class choices over the reals: a sign per even-order factor."""
    slots = [i for i, n in enumerate(G.orders) if n % 2 == 0]
    for signs in product((1, -1), repeat=len(slots)):
        values = [Fraction(1)] * G.rank
        for i, s in zip(slots, signs):
            values[i] = Fraction(s)
        yield MuFunction(G, tuple(values))


# Dense exact linear algebra by reduced row echelon form: the reference that
# gradeddiv.linalg's sparse echelon is compared with.


def rref(field, rows):
    """Row-reduce in place; returns (reduced rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(field, rows) -> int:
    return len(rref(field, rows)[1])


def solve(field, rows, rhs):
    """One solution x of A x = b, or None if inconsistent."""
    if not rows:
        return [] if all(field.is_zero(v) for v in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    red, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x


def nullspace(field, rows):
    """Basis of the right kernel of A."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(red[i][f])
        basis.append(v)
    return basis



def reference_commutant_basis(A: GradedAlgebra, unknown_idxs: list[int], targets: list) -> list:
    """Basis of the x in span(b_k : k in unknown_idxs) commuting with every
    target, from the dense nullspace of the commutation system with one row
    per output coordinate and target: the reference for the commutants of
    gradeddiv.gradedalg."""
    F = A.field
    rows = []
    for t in targets:
        # coefficient of unknown x_k in (x*t - t*x), per output coordinate
        diff_cols = []
        for k in unknown_idxs:
            bk = A.basis_vec(k)
            diff = A.add_vec(A.mul_vec(bk, t), A.scale_vec(F.neg(F.one), A.mul_vec(t, bk)))
            diff_cols.append(diff)
        for r in range(A.dim):
            row = [col.get(r, F.zero) for col in diff_cols]
            if any(not F.is_zero(c) for c in row):
                rows.append(row)
    if not rows:
        rows = [[F.zero] * len(unknown_idxs)]
    out = []
    for sol in nullspace(F, rows):
        out.append({unknown_idxs[i]: c for i, c in enumerate(sol) if not F.is_zero(c)})
    return out


def dense(field, vec: dict, n: int) -> list:
    """The length-n list of a sparse vector's coordinates."""
    return [vec.get(i, field.zero) for i in range(n)]


def left_mult_matrix(A: GradedAlgebra, x) -> list[list]:
    """Matrix of y -> x*y in the basis; rows indexed by output coordinate."""
    n = A.dim
    cols = [dense(A.field, A.mul_vec(x, A.basis_vec(j)), n) for j in range(n)]
    return [[cols[j][r] for j in range(n)] for r in range(n)]


def zero_divisor_search(A: GradedAlgebra):
    """Exhaustive zero-divisor scan over a finite coefficient field; returns
    a nonzero vector with singular left multiplication, or None.

    The scan runs over projective representatives (first nonzero coordinate
    1), which is exhaustive for this predicate: L_{cx} = c L_x."""
    from itertools import product as iproduct

    F = A.field
    if not isinstance(F, FiniteField):
        raise GradedFieldError("exhaustive search needs a finite field")
    n = A.dim
    basis_mats = [left_mult_matrix(A, A.basis_vec(i)) for i in range(n)]
    for lead in range(n):
        for rest in iproduct(F.elements(), repeat=n - lead - 1):
            coords = (0,) * lead + (F.one,) + rest
            mat = [
                [
                    _ff_dot(F, coords, [basis_mats[i][r][c] for i in range(n)])
                    for c in range(n)
                ]
                for r in range(n)
            ]
            if F.is_zero(det(F, mat)):
                return {i: v for i, v in enumerate(coords) if v}
    return None


def _ff_dot(F, coords, col):
    acc = F.zero
    for c, v in zip(coords, col):
        if c and v:
            acc = F.add(acc, F.mul(c, v))
    return acc


def det(field, rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    sign = 1
    acc = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if not field.is_zero(rows[i][c])), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        acc = field.mul(acc, rows[c][c])
        inv = field.inv(rows[c][c])
        for i in range(c + 1, n):
            if not field.is_zero(rows[i][c]):
                factor = field.mul(rows[i][c], inv)
                rows[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(rows[i], rows[c])]
    return acc if sign == 1 else field.neg(acc)


def reference_field_tables(p: int, ell: int, modulus) -> tuple[list[int], dict[int, int]]:
    """exp/log tables of GF(p^ell) modulo the given monic modulus, built with
    one generic polynomial product per power of the generator: the generator
    is the first element whose (q-1)/r-th power is not 1 for every prime r | q-1.
    The reference for ``FiniteField._build_tables``."""
    q = p**ell
    if q == 2:
        return [1], {1: 0}
    mod = list(modulus)

    def from_vec(coeffs):
        x = 0
        for c in reversed(coeffs):
            x = x * p + c
        return x

    def raw_mul(a, b):
        va = FiniteField._digits(a, p, ell)
        vb = FiniteField._digits(b, p, ell)
        return from_vec(_gfp_mod(_gfp_mul(va, vb, p), mod, p))

    def raw_pow(a, e):
        r = 1
        while e:
            if e & 1:
                r = raw_mul(r, a)
            a = raw_mul(a, a)
            e >>= 1
        return r

    m = q - 1
    primes = prime_divisors(m) if m > 1 else []
    gen = None
    for cand in range(2, q):
        if all(raw_pow(cand, m // r) != 1 for r in primes):
            gen = cand
            break
    if gen is None:
        raise AssertionError("internal: no primitive element found")
    exp = [1]
    acc = 1
    for _ in range(m - 1):
        acc = raw_mul(acc, gen)
        exp.append(acc)
    return exp, {v: i for i, v in enumerate(exp)}
