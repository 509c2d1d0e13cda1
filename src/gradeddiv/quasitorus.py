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
from functools import reduce

from .abelian import FinAbGroup, torsion_p_part
from .gradedalg import GradedAlgebra, certify, subalgebra_on_indices
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
            oi, oj = self.group.orders[i], self.group.orders[j]
            if field.power(v, oi) != field.one or field.power(v, oj) != field.one:
                raise ParameterError(
                    f"beta_{i}{j} must be killed by both generator orders ({oi}, {oj})"
                )

    def value(self, g: tuple, h: tuple, field):
        out = field.one
        for i, j, v in self.values:
            e = g[i] * h[j] - g[j] * h[i]
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
    # beta_ij^(o_i) = 1 (validate), so beta_ij^e is read at e mod o_i; a
    # carry (a_i + b_i) div o_i is 0 or 1, and a factor 1 is left out
    beta_powers = []
    for i, j, v in beta.values:
        pw = [F.one]
        for _ in range(orders[i] - 1):
            pw.append(F.mul(pw[-1], v))
        beta_powers.append((i, j, pw))
    mus = [(i, m) for i, m in enumerate(mu.gen_values) if m != F.one]

    def coeff(a: tuple, b: tuple):
        factors = [pw[e] for i, j, pw in beta_powers if (e := -a[j] * b[i] % orders[i])]
        factors += [m for i, m in mus if a[i] + b[i] >= orders[i]]
        return reduce(F.mul, factors) if factors else F.one

    table = {}
    for a in basis:
        ia = pos[a]
        for b in basis:
            table[(ia, pos[b])] = {pos[K.add(a, b)]: coeff(a, b)}
    unit = {pos[K.identity()]: F.one}
    A = GradedAlgebra(F, K, tuple(basis), table, unit)
    if verify:
        certify(A)
    return A


def primary_decompose(A: GradedAlgebra) -> list[tuple[int, GradedAlgebra]]:
    """Split an algebra with 1-dimensional components into its primary parts.

    Returns (p, subalgebra supported on the p-torsion) pairs; A.cocycle()
    checks the shape.  When A passes the grading, unit and associativity
    oracles (gradedalg.certify with division=False), the multiplication map
    from the tensor product of the parts is a graded isomorphism, with no
    check: for u and v of coprime orders, beta(u, v) has order dividing
    both, so beta(u, v) = 1 and the parts commute.  Commuting unital
    subalgebras make the map a homomorphism, and it sends
    X_{g_1} (x) ... (x) X_{g_r} to a nonzero multiple of X_{g_1 + ... + g_r},
    one basis vector per element of K, the direct sum of its p-parts.
    """
    K = A.group
    parts = []
    for p in prime_divisors(K.order) if K.order > 1 else []:
        sub = torsion_p_part(K, p).element_set()
        idxs = sorted(i for i, d in enumerate(A.degrees) if d in sub)
        parts.append((p, subalgebra_on_indices(A, idxs, K, tuple(A.degrees[i] for i in idxs))))
    if parts:
        A.cocycle()
    return parts
