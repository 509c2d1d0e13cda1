"""Graded-division algebras with 1-dimensional components, built from invariants.

Given a finite abelian group K with a fixed cyclic decomposition, an
alternating bicharacter beta (generator-pair values) and power constants
mu_i for the generators, the algebra is presented by generators X_i subject
to

    X_i X_j = beta_ij X_j X_i   (i < j),      X_i^{o(a_i)} = mu_i.

The basis consists of normal-form monomials X^a = X_1^{a_1} ... X_m^{a_m},
one per group element, and the structure constants follow by reordering:

    X^a X^b = prod_{i<j} beta_ij^{-a_j b_i} * prod_i mu_i^{((a_i+b_i) div n_i)} * X^{(a+b) mod n}.

This closed form is a derived artifact; construction therefore verifies the
output against the associativity / grading / division oracles by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

from .abelian import FinAbGroup, GroupElement, Subgroup, element_order, torsion_p_part
from .gradedalg import GradedAlgebra, OracleError, certify, subalgebra_on_indices
from .intutil import prime_divisors


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class AltBicharacter:
    """Alternating bicharacter on a presented group, stored by generator pairs.

    values holds (i, j, beta_ij) for i < j; missing pairs default to 1.  The
    bilinear alternating extension is beta(g, h) = prod_{i<j} beta_ij^{g_i h_j - g_j h_i}.
    """

    group: FinAbGroup
    values: tuple  # ((i, j, value), ...), i < j, sorted

    @staticmethod
    def from_pairs(group: FinAbGroup, pairs, field) -> AltBicharacter:
        vals = []
        for i, j, v in pairs:
            if not 0 <= i < j < group.rank:
                raise ParameterError(f"bad generator pair ({i}, {j})")
            if field.is_zero(v):
                raise ParameterError("bicharacter values must be nonzero")
            if v != field.one:
                vals.append((i, j, v))
        return AltBicharacter(group, tuple(sorted(vals, key=lambda t: (t[0], t[1]))))

    @staticmethod
    def trivial(group: FinAbGroup) -> AltBicharacter:
        return AltBicharacter(group, ())

    def validate(self, field) -> None:
        for i, j, v in self.values:
            oi = element_order(self.group.generator(i))
            oj = element_order(self.group.generator(j))
            if field.power(v, oi) != field.one or field.power(v, oj) != field.one:
                raise ParameterError(
                    f"beta_{i}{j} must be killed by both generator orders ({oi}, {oj})"
                )

    def value(self, g: GroupElement, h: GroupElement, field):
        out = field.one
        for i, j, v in self.values:
            e = g.exponents[i] * h.exponents[j] - g.exponents[j] * h.exponents[i]
            if e:
                out = field.mul(out, field.power(v, e))
        return out

    def inverse(self, field) -> AltBicharacter:
        return AltBicharacter(
            self.group, tuple((i, j, field.inv(v)) for i, j, v in self.values)
        )

    def matrix_key(self, field):
        """Hashable canonical key (for deduplication up to inversion)."""

        def enc(v):
            out = field.elem_to_json(v)
            return tuple(out) if isinstance(out, list) else out

        return tuple((i, j, enc(v)) for i, j, v in self.values)


def radical(beta: AltBicharacter, field) -> Subgroup:
    """rad(beta) = elements pairing trivially with everything, found by
    testing against the generators (bilinearity makes that sufficient)."""
    G = beta.group
    gens = [G.generator(i) for i in range(G.rank)]
    members = [
        s
        for s in G.elements()
        if all(beta.value(s, t, field) == field.one for t in gens)
    ]
    return Subgroup.from_elements(G, members)


@dataclass(frozen=True)
class MuFunction:
    """Power constants on the generators; values extend to the whole torsion
    group through the compatibility rules for powers and products."""

    group: FinAbGroup
    gen_values: tuple  # field elements, one per generator

    def validate(self, field) -> None:
        if len(self.gen_values) != self.group.rank:
            raise ParameterError("need one mu value per cyclic factor")
        for v in self.gen_values:
            if field.is_zero(v):
                raise ParameterError("mu values must be units")


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


def _primary_split(g: GroupElement) -> list[tuple[int, GroupElement]]:
    """Decompose g into its p-parts, ordered by p."""
    o = element_order(g)
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
        out.append((p, c * g))
    return out


def mu_value(
    K: FinAbGroup,
    beta: AltBicharacter,
    mu: MuFunction,
    g: GroupElement,
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
    if element_order(g) == 1:
        return field.one

    gen_order = range(K.rank) if not reverse else range(K.rank - 1, -1, -1)

    # per-prime lists of (element, representative)
    primary: dict[int, tuple[GroupElement, object]] = {}
    for i in gen_order:
        e = g.exponents[i]
        if e == 0:
            continue
        a = K.generator(i)
        term = e * a
        if term.is_identity():
            continue
        for p, part in _primary_split(term):
            # part = a^{e*c}; a power of the generator, so the cyclic rule applies
            exp_of_a = (e * _crt_coefficient(term, p)) % K.orders[i]
            rep = _mu_generator_power(field, mu.gen_values[i], K.orders[i], exp_of_a)
            if p not in primary:
                primary[p] = (part, rep)
            else:
                prev_el, prev_rep = primary[p]
                primary[p] = _combine_primary(field, beta, p, prev_el, prev_rep, part, rep)

    # combine across primes (coprime orders commute, beta is trivial there)
    items = sorted(primary.items())
    acc_el, acc_rep = None, field.one
    for _, (el, rep) in items:
        if el.is_identity():
            continue
        if acc_el is None:
            acc_el, acc_rep = el, rep
        else:
            o1, o2 = element_order(acc_el), element_order(el)
            acc_rep = field.mul(field.power(acc_rep, o2), field.power(rep, o1))
            acc_el = acc_el + el
    if acc_el is None:
        return field.one
    if acc_el != g:
        raise AssertionError("internal: primary recombination drifted")
    return acc_rep


def _crt_coefficient(term: GroupElement, p: int) -> int:
    o = element_order(term)
    pe = 1
    while o % (pe * p) == 0:
        pe *= p
    cof = o // pe
    return cof * pow(cof, -1, pe)


def _combine_primary(field, beta, p, x, mx, y, my):
    """mu of x+y from mu(x), mu(y) for two p-elements; returns (x+y, rep)."""
    ox, oy = element_order(x), element_order(y)
    if ox < oy:
        x, y, mx, my, ox, oy = y, x, my, mx, oy, ox
    z = x + y
    if oy == 1:
        return z, mx
    if ox > oy:
        return z, field.mul(mx, field.power(my, ox // oy))
    oz = element_order(z)
    if oz != ox:
        # cannot happen along the canonical factorization: partial products
        # have disjoint generator support, so orders never drop
        raise OracleError("inconsistent extension: order dropped along the factorization")
    rep = field.mul(mx, my)
    if p == 2:
        sign = field.power(beta.value(x, y, field), ox // 2)
        rep = field.mul(sign, rep)
    return z, rep


def validate_mu(K: FinAbGroup, beta: AltBicharacter, mu: MuFunction, field) -> MuFunction:
    """Validate generator data and the extension's consistency.

    The extension is evaluated along two different factorizations (forward
    and reversed generator order) for every element; a mismatch of power
    classes is impossible for generator-driven input and raises as an
    internal error.
    """
    mu.validate(field)
    beta.validate(field)
    for g in K.elements():
        o = element_order(g)
        fwd = mu_value(K, beta, mu, g, field)
        rev = mu_value(K, beta, mu, g, field, reverse=True)
        if field.nth_power_class(fwd, o) != field.nth_power_class(rev, o):
            raise OracleError(
                f"internal: inconsistent mu extension at {g.exponents}: {fwd} vs {rev}"
            )
    return mu


def construct(
    K: FinAbGroup,
    beta: AltBicharacter,
    mu: MuFunction,
    field,
    verify: bool = True,
) -> GradedAlgebra:
    """The graded-division algebra D(K, beta, mu) with support K.

    verify=True passes the result through gradedalg.certify, which raises
    OracleError at the first failing oracle.
    """
    if beta.group != K or mu.group != K:
        raise ParameterError("beta and mu must live on K")
    beta.validate(field)
    mu.validate(field)

    basis = list(K.elements())
    pos = {g: i for i, g in enumerate(basis)}
    orders = K.orders
    F = field

    def coeff(a: GroupElement, b: GroupElement):
        out = F.one
        for i, j, v in beta.values:
            e = -a.exponents[j] * b.exponents[i]
            if e:
                out = F.mul(out, F.power(v, e))
        for i in range(K.rank):
            carry = (a.exponents[i] + b.exponents[i]) // orders[i]
            if carry:
                out = F.mul(out, F.power(mu.gen_values[i], carry))
        return out

    table = {}
    for a in basis:
        ia = pos[a]
        for b in basis:
            table[(ia, pos[b])] = {pos[a + b]: coeff(a, b)}
    unit = {pos[K.identity()]: F.one}
    A = GradedAlgebra(F, K, tuple(basis), table, unit)
    if verify:
        certify(A)
    return A


def primary_decompose(A: GradedAlgebra) -> list[tuple[int, GradedAlgebra]]:
    """Split an algebra with 1-dimensional components into its primary parts.

    Returns (p, subalgebra supported on the p-torsion) pairs.  The
    multiplication map from the tensor product of the parts,
    (g_1, ..., g_r) -> 1 X_{g_1} ... X_{g_r} = lam(g) X_{g_1 + ... + g_r},
    is verified to be a graded isomorphism: with 1-dimensional components
    that is the scalar condition lam(u) lam(v) sigma(u, v) =
    lam(u + v) prod_p sigma(u_p, v_p) on all pairs of tensor basis
    elements, read off the cocycle sigma of A.
    """
    K = A.group
    parts = []
    supports = []
    for p in prime_divisors(K.order) if K.order > 1 else []:
        sub = torsion_p_part(K, p).element_set()
        idxs = sorted(i for i, d in enumerate(A.degrees) if d in sub)
        parts.append((p, subalgebra_on_indices(A, idxs, K, tuple(A.degrees[i] for i in idxs))))
        supports.append(sorted(sub, key=lambda e: e.exponents))
    if not parts:
        return parts

    F = A.field
    sigma = A.cocycle()
    (unit_scalar,) = A.unit.values()
    lam = {}
    for combo in product(*supports):
        c, total = unit_scalar, K.identity()
        for g in combo:
            c = F.mul(c, sigma[(total, g)])
            total = total + g
        lam[combo] = (total, c)
    for u, (su, lam_u) in lam.items():
        for v, (sv, lam_v) in lam.items():
            c_tensor = F.one
            for ug, vg in zip(u, v):
                c_tensor = F.mul(c_tensor, sigma[(ug, vg)])
            w = tuple(ug + vg for ug, vg in zip(u, v))
            if F.mul(F.mul(lam_u, lam_v), sigma[(su, sv)]) != F.mul(lam[w][1], c_tensor):
                raise OracleError("tensor decomposition failed the isomorphism check")
    return parts
