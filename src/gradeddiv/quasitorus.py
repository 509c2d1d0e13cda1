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

from .abelian import FinAbGroup, GroupElement, element_order, torsion_p_part
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


@dataclass(frozen=True)
class MuFunction:
    """Power constants on the generators: mu_i = X_i^{o(a_i)}."""

    group: FinAbGroup
    gen_values: tuple  # field elements, one per generator

    def validate(self, field) -> None:
        if len(self.gen_values) != self.group.rank:
            raise ParameterError("need one mu value per cyclic factor")
        for v in self.gen_values:
            if field.is_zero(v):
                raise ParameterError("mu values must be units")


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
