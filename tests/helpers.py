"""Shared enumeration helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import strategies as st

from gradeddiv.abelian import (
    FinAbGroup,
    is_direct_summand,
    squares,
    torsion_p_part,
    two_torsion,
)
from gradeddiv.exactfield import (
    CyclotomicField,
    FiniteField,
    RationalField,
    RealField,
    _gfp_mod,
    _gfp_mul,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_trim,
)
from gradeddiv.gradedalg import GradedAlgebra, OracleError, _commutant_basis, subalgebra_on_indices
from gradeddiv.gradedfield import GradedFieldError
from gradeddiv.intutil import factorint, prime_divisors
from gradeddiv.linalg import Echelon, echelon, express, insert
from gradeddiv.quasitorus import AltBicharacter, MuFunction
from gradeddiv.realclass import (
    ClassificationError,
    ClassifiedAlgebra,
    SignMap,
    _canonical_t0,
    _coset_rep,
    _k2,
    construct_item1,
    construct_label,
    enumerate_labels,
)

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


def reference_is_prime(n: int) -> bool:
    """Trial division: the reference for ``intutil.is_prime``."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def reference_generating_basis(A: GradedAlgebra) -> list[int]:
    """The greedy of gradeddiv.gradedalg._generating_basis, written out
    plainly: walking the basis from the last index down, choose b_i when it
    lies outside the span of the words s_1 (s_2 (... s_m)) in the vectors
    chosen so far, kept closed under left multiplication by them.  Both run
    in the field's own arithmetic, so they choose the same vectors."""
    n = A.dim
    ech = Echelon(A.field)
    chosen: list[int] = []
    words: list[dict] = []
    for i in reversed(range(n)):
        if ech.rank == n:
            break
        if not insert(ech, A.basis_vec(i)):
            continue
        pending = [(i, w) for w in words]
        chosen.append(i)
        words.append(A.basis_vec(i))
        pending += [(s, words[-1]) for s in chosen]
        while pending and ech.rank < n:
            s, w = pending.pop()
            sw = A.mul_vec(A.basis_vec(s), w)
            if insert(ech, sw):
                words.append(sw)
                pending += [(t, sw) for t in chosen]
    return chosen


def perturbations(A: GradedAlgebra, key: tuple, factor, wrong: int) -> dict:
    """A with one change each: the constant at key times factor, dropped, or
    sent to the basis index wrong, and the unit coefficient times factor."""
    F = A.field
    ((k, c),) = A.table[key].items()
    ((e, u),) = A.unit.items()
    dropped = {other: vec for other, vec in A.table.items() if other != key}

    def algebra(table, unit=A.unit):
        return GradedAlgebra(F, A.group, A.degrees, table, unit)

    return {
        "changed": algebra({**A.table, key: {k: F.mul(c, factor)}}),
        "dropped": algebra(dropped),
        "wrong index": algebra({**A.table, key: {wrong: c}}),
        "unit": algebra(A.table, {e: F.mul(u, factor)}),
    }


def reference_word_rank(A: GradedAlgebra, gens) -> int:
    """Rank over the field of the words s_1 (s_2 (... s_m)) in the basis
    vectors b_s, s in gens: A.dim iff they generate A as an algebra."""
    ech = Echelon(A.field)
    pending = [A.basis_vec(s) for s in gens]
    while pending:
        w = pending.pop()
        if insert(ech, w):
            pending += [A.mul_vec(A.basis_vec(s), w) for s in gens]
    return ech.rank


def reference_invert_vec(A: GradedAlgebra, x) -> dict | None:
    """Two-sided inverse of x, or None: a solution y of the stacked system
    x*y = 1, y*x = 1 over all dim basis vectors, whose right half sits at
    indices shifted by dim.  x need not be homogeneous.  The reference for
    gradeddiv.gradedalg.invert_vec, which solves inside one component."""
    if not x:
        return None
    n = A.dim
    cols = []
    for j in range(n):
        b = A.basis_vec(j)
        col = A.mul_vec(x, b)
        col.update((n + k, c) for k, c in A.mul_vec(b, x).items())
        cols.append(col)
    target = dict(A.unit)
    target.update((n + k, c) for k, c in A.unit.items())
    return express(echelon(A.field, cols), target)


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
    The reference for ``FiniteField``'s generator, ``roots_of_unity`` walk and
    Pohlig-Hellman ``dlog``, and for what is read off them."""
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


def reference_embedding_is_multiplicative(small: FiniteField, big: FiniteField, embed) -> bool:
    """Every product of small is sent to the product of the images: the
    small.q^2 check ``gradedfield.embed_field`` ran before it rested on
    f(root) = 0 for the small modulus f."""
    image = [embed(x) for x in small.elements()]
    return all(image[small.mul(a, b)] == big.mul(image[a], image[b]) for a in small.elements() for b in small.elements())


# The readers of the structure constants of 1-dimensional components that
# GradedAlgebra.cocycle replaced: the lexicographic search over every tuple
# of roots of unity for graded_iso_1dim, the power constant read off the
# product X_e X_t ... X_t, and primary_decompose's check on monomials.  The
# search and the check test n^2 equations that graded_iso_1dim and
# primary_decompose now decide by theorem on associative tables; they stay
# here as the references on those tables.


def one_dim_index(A: GradedAlgebra) -> dict:
    comps = A.components()
    out = {}
    for deg, idxs in comps.items():
        if len(idxs) != 1:
            raise OracleError("operation requires 1-dimensional homogeneous components")
        out[deg] = idxs[0]
    return out


def structure_scalar(A: GradedAlgebra, idx: dict, s, t):
    """c(s, t) with X_s X_t = c(s, t) X_{s+t}, for 1-dimensional components."""
    vec = A.entry(idx[s], idx[t])
    target = idx[A.group.add(s, t)]
    if set(vec) != {target}:
        raise OracleError("zero structure constant; the table is not graded-division")
    return vec[target]


def reference_iso_search(A: GradedAlgebra, B: GradedAlgebra) -> dict | None:
    """Search for a degree-preserving isomorphism X_t -> lambda_t X'_t.

    Requires both tables normalized so all structure constants lie in the
    field's designated root-of-unity set, and refuses others with
    OracleError; the witness search then runs over that same finite set per
    generator (complete: any witness takes torsion values because the
    support group is finite and the positive-scaling part of the unit group
    is torsion free).
    """
    if A.field != B.field:
        raise OracleError("algebras over different coefficient fields")
    if A.group.orders != B.group.orders:
        return None
    F = A.field
    G = A.group
    idx_a = one_dim_index(A)
    idx_b = one_dim_index(B)
    if set(idx_a) != set(G.elements()) or set(idx_b) != set(G.elements()):
        raise OracleError("support must be the whole group")
    roots = F.roots_of_unity()
    root_set = set(roots)
    for M, idx in ((A, idx_a), (B, idx_b)):
        for s in G.elements():
            for t in G.elements():
                if structure_scalar(M, idx, s, t) not in root_set:
                    raise OracleError("structure constants outside the designated root set")

    gens = [i for i in range(G.rank) if G.orders[i] > 1]
    elements = list(G.elements())

    e = G.identity()

    def extend(gen_choice: dict) -> dict:
        # the equation at (e, e) forces lambda_e
        lam = {e: F.div(structure_scalar(A, idx_a, e, e), structure_scalar(B, idx_b, e, e))}
        for t in elements:
            if t == e:
                continue
            i = next(pos for pos, x in enumerate(t) if x)
            if t == G.generator(i):
                lam[t] = gen_choice[i]
                continue
            prev = G.sub(t, G.generator(i))
            a = G.generator(i)
            val = F.mul(lam[prev], lam[a])
            val = F.mul(val, F.div(structure_scalar(B, idx_b, prev, a), structure_scalar(A, idx_a, prev, a)))
            lam[t] = val
        return lam

    for choice in product(roots, repeat=len(gens)):
        gen_choice = dict(zip(gens, choice))
        lam = extend(gen_choice)
        ok = True
        for s in elements:
            for t in elements:
                lhs = F.mul(F.mul(lam[s], lam[t]), structure_scalar(B, idx_b, s, t))
                rhs = F.mul(structure_scalar(A, idx_a, s, t), lam[G.add(s, t)])
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return lam
    return None


def _unit_multiple(A: GradedAlgebra, w: dict):
    """Express w as scalar * unit, raising if it is not."""
    F = A.field
    k, c = next(iter(A.unit.items()))
    if not w:
        raise OracleError("zero where a unit multiple was expected")
    rho = F.div(w.get(k, F.zero), c)
    if A.scale_vec(rho, A.unit) != w:
        raise OracleError("element is not a scalar multiple of the unit")
    return rho


def reference_power_constant(A: GradedAlgebra, t):
    """The scalar of X_t^{o(t)}, multiplied out from the unit."""
    idx = one_dim_index(A)
    x = A.basis_vec(idx[t])
    w = A.unit
    for _ in range(A.group.element_order(t)):
        w = A.mul_vec(w, x)
    return _unit_multiple(A, w)


def reference_primary_decompose(A: GradedAlgebra) -> list:
    """primary_decompose with the tensor-isomorphism check on monomials
    multiplied out from the unit."""
    K = A.group
    primes = prime_divisors(K.order) if K.order > 1 else []
    parts = []
    for p in primes:
        sub = torsion_p_part(K, p)
        idxs = sorted(i for i, d in enumerate(A.degrees) if d in sub.element_set())
        degrees = tuple(A.degrees[i] for i in idxs)
        parts.append((p, subalgebra_on_indices(A, idxs, K, degrees)))

    if not parts:
        return parts

    # verification: the multiplication map from the tensor product is a
    # graded isomorphism; with 1-dim components it suffices to check the
    # scalar cocycle condition on all pairs of tensor basis elements
    idx = {d: i for i, d in enumerate(A.degrees)}
    F = A.field

    def monomial(parts_elems):
        vec = A.unit
        for g in parts_elems:
            vec = A.mul_vec(vec, A.basis_vec(idx[g]))
        return vec

    supports = [sorted(part.support()) for _, part in parts]
    lam = {}
    for combo in product(*supports):
        total = K.identity()
        for g in combo:
            total = K.add(total, g)
        vec = monomial(combo)
        if set(vec) != {idx[total]}:
            raise OracleError("primary factor product escaped its component")
        lam[combo] = vec[idx[total]]
    part_idx = [{d: i for i, d in enumerate(part.degrees)} for _, part in parts]
    for u in lam:
        for v in lam:
            # scalar of the product in the tensor algebra
            c_tensor = F.one
            for (pi, (_, part)) in enumerate(parts):
                vec = part.entry(part_idx[pi][u[pi]], part_idx[pi][v[pi]])
                c_tensor = F.mul(c_tensor, next(iter(vec.values())))
            su = K.identity()
            sv = K.identity()
            for g in u:
                su = K.add(su, g)
            for g in v:
                sv = K.add(sv, g)
            c_a = next(iter(A.entry(idx[su], idx[sv]).values()))
            lhs = F.mul(F.mul(lam[u], lam[v]), c_a)
            w = tuple(K.add(ug, vg) for ug, vg in zip(u, v))
            rhs = F.mul(lam[w], c_tensor)
            if lhs != rhs:
                raise OracleError("tensor decomposition failed the isomorphism check")
    return parts


# Rabin's irreducibility test over GF(q), on the generic field polynomials:
# the oracle that gradedfield.binomial_irreducible's power-residue criterion
# is checked against.


def poly_mod(field, a, f):
    return poly_divmod(field, a, f)[1]


def poly_powmod(field, base, e: int, f):
    result = [field.one]
    base = poly_mod(field, base, f)
    while e:
        if e & 1:
            result = poly_mod(field, poly_mul(field, result, base), f)
        base = poly_mod(field, poly_mul(field, base, base), f)
        e >>= 1
    return result


def poly_gcd(field, a, b):
    a = poly_trim(field, list(a))
    b = poly_trim(field, list(b))
    while b:
        a, b = b, poly_mod(field, a, b)
    if a:
        inv = field.inv(a[-1])
        a = [field.mul(c, inv) for c in a]
    return a


def is_irreducible_ff(field: FiniteField, f) -> bool:
    """Rabin irreducibility test over GF(q) for arbitrary monic input."""
    f = poly_trim(field, list(f))
    n = len(f) - 1
    if n <= 0:
        return False
    if not field.is_zero(field.sub(f[-1], field.one)):
        inv = field.inv(f[-1])
        f = [field.mul(c, inv) for c in f]
    if n == 1:
        return True
    x = [field.zero, field.one]
    h = x
    checkpoints = {n // r for r in prime_divisors(n)}
    for i in range(1, n + 1):
        h = poly_powmod(field, h, field.q, f)
        if i in checkpoints:
            diff = poly_sub(field, h, x)
            if not diff or poly_gcd(field, f, diff) != [field.one]:
                return False
    return poly_sub(field, h, x) == []


# The mu extension rules: the power constant of every element, evaluated from
# the generator values and beta along the canonical factorization.  The
# oracle that construct's power classes are checked against.


def _mu_generator_power(field, mu_value, order: int, n: int):
    """Representative of mu(a^n) for a generator a of the given order.

    Within a cyclic group the compatibility rules force
    mu(a^n) = mu(a)^{n/gcd(n, o(a))} modulo (F^x)^{o(a^n)}.
    """
    n %= order
    if n == 0:
        return field.one
    d = gcd(n, order)
    return field.power(mu_value, n // d)


def _primary_split(K: FinAbGroup, g: tuple) -> list[tuple[int, tuple]]:
    """Decompose g into its p-parts, ordered by p."""
    o = K.element_order(g)
    if o == 1:
        return []
    out = []
    for p in prime_divisors(o):
        pe = 1
        while o % (pe * p) == 0:
            pe *= p
        cof = o // pe
        # c = cof * inverse(cof) mod pe gives the CRT projector coefficient
        c = cof * pow(cof, -1, pe)
        out.append((p, K.scale(c, g)))
    return out


def mu_value(
    K: FinAbGroup,
    beta: AltBicharacter,
    mu: MuFunction,
    g: tuple,
    field,
    reverse: bool = False,
):
    """Representative of mu(g), evaluated along the canonical factorization.

    Each generator power contributes through the cyclic power rule; within a
    primary component partial products combine by the unequal-order rule
    (mu(xy) = mu(x) mu(y)^{p^{k-l}}) or the equal-order rule (with the
    beta^{p^{k-1}} sign correction at p = 2); distinct primary components
    combine by mu(xy) = mu(x)^{o(y)} mu(y)^{o(x)}.  `reverse` evaluates along
    the reversed generator order, giving an independent factorization.
    """
    if not any(g):
        return field.one

    gen_order = range(K.rank) if not reverse else range(K.rank - 1, -1, -1)

    # per-prime lists of (element, representative)
    primary: dict[int, tuple[tuple, object]] = {}
    for i in gen_order:
        e = g[i]
        if e == 0:
            continue
        term = K.scale(e, K.generator(i))
        for p, part in _primary_split(K, term):
            # part = a^{e*c}; a power of the generator, so the cyclic rule applies
            exp_of_a = (e * _crt_coefficient(K, term, p)) % K.orders[i]
            rep = _mu_generator_power(field, mu.gen_values[i], K.orders[i], exp_of_a)
            if p not in primary:
                primary[p] = (part, rep)
            else:
                prev_el, prev_rep = primary[p]
                primary[p] = _combine_primary(K, field, beta, p, prev_el, prev_rep, part, rep)

    # combine across primes (coprime orders commute, beta is trivial there)
    items = sorted(primary.items())
    acc_el, acc_rep = None, field.one
    for _, (el, rep) in items:
        if not any(el):
            continue
        if acc_el is None:
            acc_el, acc_rep = el, rep
        else:
            o1, o2 = K.element_order(acc_el), K.element_order(el)
            acc_rep = field.mul(field.power(acc_rep, o2), field.power(rep, o1))
            acc_el = K.add(acc_el, el)
    if acc_el is None:
        return field.one
    if acc_el != g:
        raise AssertionError("internal: primary recombination drifted")
    return acc_rep


def _crt_coefficient(K: FinAbGroup, term: tuple, p: int) -> int:
    o = K.element_order(term)
    pe = 1
    while o % (pe * p) == 0:
        pe *= p
    cof = o // pe
    return cof * pow(cof, -1, pe)


def _combine_primary(K: FinAbGroup, field, beta, p, x, mx, y, my):
    """mu of x+y from mu(x), mu(y) for two p-elements; returns (x+y, rep)."""
    ox, oy = K.element_order(x), K.element_order(y)
    if ox < oy:
        x, y, mx, my, ox, oy = y, x, my, mx, oy, ox
    z = K.add(x, y)
    if oy == 1:
        return z, mx
    if ox > oy:
        return z, field.mul(mx, field.power(my, ox // oy))
    oz = K.element_order(z)
    if oz != ox:
        # cannot happen along the canonical factorization: partial products
        # have disjoint generator support, so orders never drop
        raise OracleError("inconsistent extension: order dropped along the factorization")
    rep = field.mul(mx, my)
    if p == 2:
        sign = field.power(beta.value(x, y, field), ox // 2)
        rep = field.mul(sign, rep)
    return z, rep


def cyclotomic_conjugate(C, x):
    """Complex conjugation of Q(zeta_N), zeta^i -> zeta^(-i) term by term:
    the oracle for the item-(4) real isomorphism D(T, beta) ~ D(T, beta^-1)."""
    out = C.zero
    for i, c in enumerate(x):
        if c:
            out = C.add(out, tuple(c * v for v in C.zeta_pow(-i)))
    return out


def polarization_holds(T: FinAbGroup, beta: AltBicharacter, forms) -> bool:
    """Whether every form mu satisfies mu(g + h) = beta(g, h) mu(g) mu(h) on
    all pairs of T_[2]: the check ``realclass.enumerate_quadratic_forms``
    made before it checked pairs (g, basis vector) only."""
    t2 = two_torsion(T).elements
    b = {(g, h): int(beta.value(g, h, REAL)) for g in t2 for h in t2}
    return all(mu(T.add(g, h)) == bgh * mu(g) * mu(h) for mu in forms for (g, h), bgh in b.items())


def classify_stratum(T: FinAbGroup, items=("1", "2", "3", "4"), verify: bool = True) -> list[ClassifiedAlgebra]:
    """Every label with support exactly T (presented) and its table, with no
    bound on the tables' size: ``realclass.classify_all`` on one stratum."""
    stratum = tuple(T.elements())
    return [ClassifiedAlgebra(stratum, label, construct_label(label, verify)) for label in enumerate_labels(T, items)]


def reference_quadratic_forms(T: FinAbGroup, beta: AltBicharacter) -> list[SignMap]:
    """The forms polarizing to beta as ``realclass.enumerate_quadratic_forms``
    built them with its all-pairs check: every sign vector on the basis of
    T_[2], extended along the basis, in the same order."""
    t2 = two_torsion(T)
    forms = []
    for signs in product((1, -1), repeat=len(t2.generators)):
        mu = {T.identity(): 1}
        for x, s in zip(t2.generators, signs):
            mu.update([(T.add(g, x), int(beta.value(g, x, REAL)) * v * s) for g, v in mu.items()])
        forms.append(SignMap.from_map(T, mu))
    if not polarization_holds(T, beta, forms):
        raise ClassificationError("polarization identity failed")
    return forms


def reference_enumerate_admissible(T: FinAbGroup, K, beta, case: str):
    """Brute force over every sign vector on the domain: the reference for
    ``realclass.enumerate_admissible``, same preconditions and output order.

    case "a": maps on T_[2] - K_[2] subject to the coherence condition of the
    2-torsion triple; returns a list of SignMap.
    case "b": maps on T - K subject to the full condition; returns a list of
    equivalence classes (tuples of SignMap), where maps are equivalent
    when their ratio is constant on each K_[2]-coset.
    """
    if K.index() != 2:
        raise ClassificationError("K must have index 2 in T")
    sq = squares(T).element_set()
    for x in sq:
        for k in K.elements:
            if beta.value_int(x, k) != 1:
                raise ClassificationError("T^[2] must pair trivially under beta")
    kset = K.element_set()
    k2 = _k2(T, K)
    if case == "a":
        t0_candidates = [t for t in two_torsion(T).elements if t not in kset]
        if not t0_candidates:
            raise ClassificationError("case (a) needs an order-2 element outside K")
        if not is_direct_summand(K, t0_candidates[0]):
            raise ClassificationError("case (a) requires K to be a direct summand")
        domain = t0_candidates
        gs = k2
    elif case == "b":
        if is_direct_summand(K, next(t for t in T.elements() if t not in kset)):
            raise ClassificationError("case (b) requires K not to be a direct summand")
        domain = [t for t in T.elements() if t not in kset]
        gs = K.elements
    else:
        raise ClassificationError(f"unknown case {case!r}")

    # the condition at each (t, g, h), on domain positions, read once
    at = {t: i for i, t in enumerate(domain)}
    add = T.add
    conditions = {
        (at[add(add(t, g), h)], at[t], at[add(t, g)], at[add(t, h)], beta.value_int(g, h))
        for t in domain
        for g in gs
        for h in k2
    }
    maps = []
    for signs in product((1, -1), repeat=len(domain)):
        if all(signs[a] * signs[b] == v * signs[c] * signs[d] for a, b, c, d, v in conditions):
            maps.append(SignMap.from_map(T, dict(zip(domain, signs))))
    if case == "a":
        return maps

    # group into classes: nu ~ nu' iff nu'/nu is constant on each K_[2]-coset
    classes: dict[tuple, list] = {}
    for nu in maps:
        sig = tuple((t, nu(t) * nu(_coset_rep(T, t, k2))) for t in domain)
        classes.setdefault(sig, []).append(nu)
    return [tuple(sorted(cls, key=lambda m: m.values)) for _, cls in sorted(classes.items())]


def _complex_pair_mul(z, w):
    (a, b), (c, d) = z, w
    return (a * c - b * d, a * d + b * c)


def _cmatrix_mul(T: FinAbGroup, m1, m2, cmul):
    """Product of 2x2 matrices whose entries map K-elements of T to Gaussian
    integers (re, im)."""
    out = [[{}, {}], [{}, {}]]
    for i in range(2):
        for j in range(2):
            acc: dict = {}
            for k in range(2):
                for s1, z1 in m1[i][k].items():
                    for s2, z2 in m2[k][j].items():
                        c = cmul(s1, s2)
                        z = _complex_pair_mul(z1, z2)
                        z = (z[0] * c, z[1] * c)
                        s = T.add(s1, s2)
                        old = acc.get(s, (0, 0))
                        acc[s] = (old[0] + z[0], old[1] + z[1])
            out[i][j] = {s: z for s, z in acc.items() if z != (0, 0)}
    return out


def reference_construct_item3(T: FinAbGroup, K, beta, nu, case: str) -> GradedAlgebra:
    """The item-(3) table by 2x2 matrix products over the complexified
    K-part: the reference for ``realclass.construct_item3`` (uncertified).
    Every product is checked to land in its component, in the real form."""
    kset = K.element_set()
    t0 = _canonical_t0(T, K, case)
    mu_t0 = {h: nu(T.add(t0, h)) * nu(t0) for h in _k2(T, K)}
    lam = nu(t0) if case == "a" else 1
    pres = beta.pres
    coords = pres.coords()
    mu_pres = SignMap.from_map(pres.group, {coords[h]: s for h, s in mu_t0.items()})
    sigma = construct_item1(pres.group, beta.chi, mu_pres, verify=False).cocycle()
    signs = {key: int(c) for key, c in sigma.items()}

    def cmul(s1, s2) -> int:
        return signs[(coords[s1], coords[s2])]

    t0sq = T.scale(2, t0)
    elems = list(T.elements())
    pos = {t: 2 * i for i, t in enumerate(elems)}

    def mat(t, with_j: bool):
        if t in kset:
            m = [[{t: (1, 0)}, {}], [{}, {t: (1, 0)}]]
        else:
            s = T.sub(t, t0)
            m = [[{}, {T.add(t0sq, s): (cmul(t0sq, s), 0)}], [{s: (lam, 0)}, {}]]
        if with_j:
            # left-multiply by J = diag(i, -i)
            m = [[{s: _complex_pair_mul(unit, z) for s, z in entry.items()} for entry in row]
                 for unit, row in zip(((0, 1), (0, -1)), m)]
        return m

    mats = []
    for t in elems:
        mats += [mat(t, False), mat(t, True)]

    def stored(z, target) -> dict:
        out = {}
        if z[0]:
            out[pos[target]] = Fraction(z[0])
        if z[1]:
            out[pos[target] + 1] = Fraction(z[1])
        return out

    def decompose(P, target) -> dict:
        if target in kset:
            if P[0][1] or P[1][0]:
                raise OracleError("diagonal component expected")
            if set(P[0][0]) - {target} or set(P[1][1]) - {target}:
                raise OracleError("product escaped its component")
            z = P[0][0].get(target, (0, 0))
            if P[1][1].get(target, (0, 0)) != (z[0], -z[1]):
                raise OracleError("diagonal entries are not conjugate")
            return stored(z, target)
        if P[0][0] or P[1][1]:
            raise OracleError("off-diagonal component expected")
        s = T.sub(target, t0)
        u, v = P[0][1], P[1][0]
        if set(u) - {T.add(t0sq, s)} or set(v) - {s}:
            raise OracleError("product escaped its component")
        zu = u.get(T.add(t0sq, s), (0, 0))
        # c = +-1, so dividing by c is multiplying by it
        c = cmul(t0sq, s)
        z = (zu[0] * c, zu[1] * c)
        if v.get(s, (0, 0)) != (lam * z[0], -lam * z[1]):
            raise OracleError("lower entry inconsistent with the real form")
        return stored(z, target)

    degrees = tuple(t for t in elems for _ in range(2))
    table = {}
    for i, ti in enumerate(degrees):
        for j, tj in enumerate(degrees):
            vec = decompose(_cmatrix_mul(T, mats[i], mats[j], cmul), T.add(ti, tj))
            if vec:
                table[(i, j)] = vec
    return GradedAlgebra(REAL, T, degrees, table, {pos[T.identity()]: Fraction(1)})


def quaternion_table(field) -> GradedAlgebra:
    """Hamilton's quaternions with the trivial grading, on the basis 1, i, j, k."""
    G = FinAbGroup(())
    e = G.identity()
    one, mone = field.one, field.neg(field.one)
    t = {}
    for a in range(4):
        t[(0, a)] = {a: one}
        if a:
            t[(a, 0)] = {a: one}
    for a in (1, 2, 3):
        t[(a, a)] = {0: mone}
    # ij = k, jk = i, ki = j, and each reversed product is its negative
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[(a, b)] = {c: one}
        t[(b, a)] = {c: mone}
    return GradedAlgebra(field, G, (e, e, e, e), t, {0: one})


def tensor_product(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """A tensor B for a trivially graded B, graded by A's group: a_i (x) b_j
    has the degree of a_i and the index i dim(B) + j.  With B the
    quaternions and A an item-(1) table it is the reference for
    ``realclass.construct_item2`` (uncertified)."""
    if A.field != B.field:
        raise OracleError("tensor factors over different coefficient fields")
    if any(any(d) for d in B.degrees):
        raise OracleError("the second tensor factor must be trivially graded")
    F = A.field
    pairs = [(i, j) for i in range(A.dim) for j in range(B.dim)]
    pos = {p: n for n, p in enumerate(pairs)}
    degrees = tuple(A.degrees[i] for i, _ in pairs)
    table = {}
    for (i, j) in pairs:
        for (k, l) in pairs:
            va = A.entry(i, k)
            vb = B.entry(j, l)
            if not va or not vb:
                continue
            table[(pos[(i, j)], pos[(k, l)])] = {
                pos[(r, s)]: F.mul(ca, cb) for r, ca in va.items() for s, cb in vb.items()
            }
    unit = {pos[(r, s)]: F.mul(ca, cb) for r, ca in A.unit.items() for s, cb in B.unit.items()}
    return GradedAlgebra(F, A.group, degrees, table, unit)


# ---------------------------------------------------------------------------
# Random D(K, beta, mu): the generator of the property and differential tests
# ---------------------------------------------------------------------------


PROPERTY_FIELDS = [
    RationalField(),
    REAL,
    FiniteField(2, 1),
    FiniteField(5, 1),
    FiniteField(13, 1),
    FiniteField(2, 2),
    FiniteField(3, 2),
    FiniteField(2, 3),
    FiniteField(5, 2),
    CyclotomicField(3),
    CyclotomicField(4),
    CyclotomicField(5),
    CyclotomicField(8),
]
PROPERTY_GROUPS = [(2,), (3,), (4,), (6,), (8,), (2, 2), (4, 2), (3, 3), (2, 2, 2), (6, 2), (4, 4), (2, 2, 2, 2)]


def nonzero_elements(F):
    small = st.integers(-9, 9).filter(bool)
    if F.kind == "GF":
        return st.sampled_from(list(range(1, F.q)))
    if F.kind == "CYC":
        # a denominator d > 1 gives the integer image a common denominator D > 1
        return st.builds(
            lambda r, n, d: F.mul(r, F.div(F.from_int(n), F.from_int(d))),
            st.sampled_from(F.roots_of_unity()),
            small,
            st.integers(1, 9),
        )
    return st.builds(Fraction, small, st.integers(1, 9))


@st.composite
def quasitorus_params(draw):
    """A random (F, K, beta, mu) with |K| <= 16 over Q, R, GF(p^ell) or
    Q(zeta_N): beta takes roots of unity that both generator orders kill."""
    F = draw(st.sampled_from(PROPERTY_FIELDS))
    G = FinAbGroup(draw(st.sampled_from(PROPERTY_GROUPS)))
    pairs = []
    for i in range(G.rank):
        for j in range(i + 1, G.rank):
            o = gcd(G.orders[i], G.orders[j])
            pairs.append((i, j, draw(st.sampled_from([r for r in F.roots_of_unity() if F.power(r, o) == F.one]))))
    mu = MuFunction(G, tuple(draw(nonzero_elements(F)) for _ in G.orders))
    return F, G, AltBicharacter.from_pairs(G, pairs, F), mu


def kernel_center_dim(A: GradedAlgebra) -> int:
    """dim Z(A) as the kernel of the commutation columns of every basis
    vector: the reference for gradeddiv.gradedalg.center_dim's count on
    twisted group algebras."""
    return len(_commutant_basis(A, range(A.dim), range(A.dim)))
