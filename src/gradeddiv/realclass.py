"""Classification of finite-dimensional real graded-division algebras with
abelian support.

Representatives fall into four families, distinguished by the identity
component and its position relative to the center:

* item "1":  D(T, beta, mu) with 1-dimensional components (D_e = R);
* item "2":  item (1) tensored with the trivially graded quaternions (D_e = H);
* item "3":  real forms of 2x2 matrices over the complexified D(K, beta, mu),
  where K has index 2 in T; components are 2-dimensional, D_e is a
  noncentral copy of C.  Case (a) applies when K is a direct summand of T
  (extra sign delta), case (b) otherwise.  The admissible sign maps are
  built from the quadratic forms on K_[2] polarizing to beta, by theorem
  (``enumerate_admissible``).  A case-(b) label carries one sign map of its
  class; only the report expands the class;
* item "4":  D(T, beta) with complex structure constants (D_e = C central),
  realized exactly over a cyclotomic coefficient field.

Items 2 and 3 are a twisted group algebra combined with a small division
algebra Delta: H on the basis q = (1, i, j, k), or C = span(1, J) on q = (1, J),
with q_x q_y = S[x][y] q_{x xor y}.  One writer (``_write_table``) gives both
tables in closed form, with q_x M_t at index m pos(t) + x (m = dim Delta,
pos(t) the position of t in T.elements()) and

    (q_x M_a)(q_y M_b) = kappa(a, b) chi_a(y) S[x][y] q_{x xor y} M_{a+b},

where kappa(a, b) = +-1 and chi_a(y) = -1 exactly when q_y = J and a is
outside K.  Item 2 takes H and the item-1 cocycle sigma for kappa; item 3
takes C and the kappa that ``construct_item3`` derives from the K-part
cocycle.

Everything is enumerated over exact coefficients; every constructed
representative is gated behind the associativity / grading / division
oracles, and the label data can be recovered from the bare
structure-constant table, which is how the census tests certify pairwise
distinctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product
from math import gcd

from .abelian import (
    FinAbGroup,
    Subgroup,
    SubgroupPresentation,
    index2_subgroups,
    is_direct_summand,
    squares,
    subgroup_presentation,
    two_torsion,
)
from .exactfield import CyclotomicField, RealField
from .gradedalg import (
    GradedAlgebra,
    OracleError,
    centralizer_basis,
    certify,
    commutation_bicharacter,
    power_constant,
    subalgebra_on_span,
)
from .quasitorus import AltBicharacter, MuFunction, construct

REAL = RealField()


class ClassificationError(ValueError):
    pass


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    raise ClassificationError("sign of zero requested")


# ---------------------------------------------------------------------------
# Parameter objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignMap:
    """A +-1 map on a set of elements (exponent tuples) of a presented group.

    It carries both sign parameters of the classification: a quadratic form
    mu on T_[2] whose polarization is the (restricted) bicharacter,
    mu(g + h) = beta(g, h) mu(g) mu(h), and an admissible map nu on a coset
    domain, nu(t+g+h) nu(t) = beta(g, h) nu(t+g) nu(t+h)."""

    group: FinAbGroup
    values: tuple  # ((element, sign), ...), sorted
    _signs: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_signs", dict(self.values))

    def __call__(self, g: tuple) -> int:
        return self._signs[g]

    def domain(self) -> list[tuple]:
        return [g for g, _ in self.values]

    @staticmethod
    def from_map(group: FinAbGroup, mapping: dict) -> SignMap:
        return SignMap(group, tuple(sorted(mapping.items())))


@dataclass(frozen=True)
class SubBicharacter:
    """A +-1 alternating bicharacter on a subgroup K of a presented T,
    carried by K's own presentation."""

    pres: SubgroupPresentation
    chi: AltBicharacter  # on pres.group

    def value_int(self, g: tuple, h: tuple) -> int:
        table = self.__dict__.get("_value_cache")
        if table is None:
            coords = self.pres.coords()
            table = {}
            for a, ca in coords.items():
                for b, cb in coords.items():
                    table[(a, b)] = _sign(self.chi.value(ca, cb, REAL))
            object.__setattr__(self, "_value_cache", table)
        return table[(g, h)]

    def key(self):
        return (
            self.pres.subgroup.elements,
            tuple((i, j, str(v)) for i, j, v in self.chi.values),
        )


@dataclass(frozen=True)
class ClassLabel:
    """One point of the classification: item tag plus its parameters."""

    item: str  # "1" | "2" | "3a" | "3b" | "4"
    group: FinAbGroup
    data: tuple

    def key(self):
        return (self.item, self.group.orders, _data_key(self.data))


def _data_key(obj):
    if isinstance(obj, tuple):
        return tuple(_data_key(o) for o in obj)
    if isinstance(obj, AltBicharacter):
        return ("beta", tuple((i, j, str(v)) for i, j, v in obj.values))
    if isinstance(obj, SignMap):
        return ("signs", obj.values)
    if isinstance(obj, SubBicharacter):
        return ("subbeta", obj.key())
    if isinstance(obj, Subgroup):
        return ("K", obj.elements)
    return obj


# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------


def enumerate_bicharacters_pm1(T: FinAbGroup) -> list[AltBicharacter]:
    """All alternating bicharacters T x T -> {+-1}: a free sign for each
    generator pair of even orders, forced trivial elsewhere."""
    pairs = [
        (i, j)
        for i in range(T.rank)
        for j in range(i + 1, T.rank)
        if T.orders[i] % 2 == 0 and T.orders[j] % 2 == 0
    ]
    out = []
    for signs in product((Fraction(1), Fraction(-1)), repeat=len(pairs)):
        vals = [(i, j, s) for (i, j), s in zip(pairs, signs)]
        out.append(AltBicharacter.from_pairs(T, vals, REAL))
    return out


def enumerate_bicharacters_complex(T: FinAbGroup, cyc: CyclotomicField) -> list[AltBicharacter]:
    """All alternating bicharacters T x T -> C^x; the pair value at (i, j)
    ranges over the roots of unity of order dividing gcd(o(a_i), o(a_j))."""
    pairs = []
    choices = []
    for i in range(T.rank):
        for j in range(i + 1, T.rank):
            d = gcd(T.orders[i], T.orders[j])
            if d <= 1:
                continue
            root = cyc.unity_root(d)
            pairs.append((i, j))
            choices.append([cyc.power(root, k) for k in range(d)])
    out = []
    for combo in product(*choices):
        vals = [(i, j, v) for (i, j), v in zip(pairs, combo)]
        out.append(AltBicharacter.from_pairs(T, vals, cyc))
    return out


def enumerate_quadratic_forms(T: FinAbGroup, beta: AltBicharacter) -> list[SignMap]:
    """All sign maps on T_[2] with polarization beta: a free sign on each
    basis vector x, extended by mu(g + x) = beta(g, x) mu(g) mu(x), then
    checked against that identity for every g in T_[2] and basis vector x.

    That check gives mu(g + h) = beta(g, h) mu(g) mu(h) for every pair, by
    induction on h (mu(0) = 1 and beta(g, 0) = 1 start it): if it holds at
    h for every g, then with beta bilinear
    mu(g + h + x) = beta(g + h, x) mu(g + h) mu(x)
                  = beta(g, h) beta(g, x) beta(h, x) mu(g) mu(h) mu(x)
                  = beta(g, h + x) mu(g) mu(h + x)."""
    t2 = two_torsion(T)
    b = {(g, x): _sign(beta.value(g, x, REAL)) for g in t2.elements for x in t2.generators}
    out = []
    for signs in product((1, -1), repeat=len(t2.generators)):
        mu = {T.identity(): 1}
        for x, s in zip(t2.generators, signs):
            mu.update([(T.add(g, x), b[(g, x)] * v * s) for g, v in mu.items()])
        if any(mu[T.add(g, x)] != bgx * mu[g] * mu[x] for (g, x), bgx in b.items()):
            raise ClassificationError("polarization identity failed")
        out.append(SignMap.from_map(T, mu))
    return out


def _k2(T: FinAbGroup, K: Subgroup) -> list[tuple]:
    """K_[2], the elements of K killed by doubling, sorted."""
    kset = K.element_set()
    return [g for g in two_torsion(T).elements if g in kset]


def _coset_rep(T: FinAbGroup, t: tuple, k2: list[tuple]) -> tuple:
    """The least element of the coset t + K_[2]."""
    return min(T.add(t, h) for h in k2)


def _item3_case(T: FinAbGroup, K: Subgroup) -> str:
    """Case "a" when the index-2 subgroup K is a direct summand of T, else "b"."""
    kset = K.element_set()
    return "a" if is_direct_summand(K, next(t for t in T.elements() if t not in kset)) else "b"


def _canonical_t0(T: FinAbGroup, K: Subgroup, case: str) -> tuple:
    """The least element outside K, of order 2 in case "a"."""
    kset = K.element_set()
    pool = two_torsion(T).elements if case == "a" else T.elements()
    return min(t for t in pool if t not in kset)


def enumerate_admissible(
    T: FinAbGroup, K: Subgroup, beta: SubBicharacter, case: str
):
    """The admissible sign maps, built from the quadratic forms on K_[2].

    Let t0 be ``_canonical_t0`` and r the rank of K_[2].  Setting t = t0 in
    the condition nu(t+g+h) nu(t) = beta(g, h) nu(t+g) nu(t+h) shows that
    q(h) = nu(t0 + h) nu(t0) is a quadratic form on K_[2] polarizing to
    beta; conversely the family rule mu_{t0+g}(h) = mu_{t0}(h) beta(g, h)
    and bilinearity give the condition at every other t, and twists
    constant on each K_[2]-coset stay admissible.  Hence:

    case "a": every admissible nu on T_[2] - K_[2] = t0 + K_[2] is
    nu(t) = delta * q(t - t0) with delta = +-1, 2^(r+1) maps; returns a list
    of SignMap in the order of their sign vectors, +1 before -1.
    case "b": maps on T - K, up to nu ~ nu' when their ratio is constant on
    each K_[2]-coset; the 2^r classes match the forms q one to one.
    Returns one SignMap per class, its member with sign +1 on each coset
    representative, sorted by the class's signature nu(t) nu(rep(t)).
    """
    if K.index() != 2:
        raise ClassificationError("K must have index 2 in T")
    if any(beta.value_int(x, k) != 1 for x in squares(T).elements for k in K.elements):
        raise ClassificationError("T^[2] must pair trivially under beta")
    kset = K.element_set()
    if case == "a":
        if all(t in kset for t in two_torsion(T).elements):
            raise ClassificationError("case (a) needs an order-2 element outside K")
        if not is_direct_summand(K, _canonical_t0(T, K, case)):
            raise ClassificationError("case (a) requires K to be a direct summand")
    elif case == "b":
        if _item3_case(T, K) != "b":
            raise ClassificationError("case (b) requires K not to be a direct summand")
    else:
        raise ClassificationError(f"unknown case {case!r}")

    t0 = _canonical_t0(T, K, case)
    pres = beta.pres
    forms = [
        {pres.embed(h): q(h) for h in q.domain()}
        for q in enumerate_quadratic_forms(pres.group, beta.chi)
    ]
    if case == "a":
        maps = [
            canonicalize_item3(T, K, beta, q, t0, delta_t0=delta, case="a")
            for q in forms
            for delta in (1, -1)
        ]
        return sorted(maps, key=lambda nu: [-s for _, s in nu.values])

    k2 = _k2(T, K)

    def signature(nu: SignMap) -> tuple:
        return tuple((t, nu(t) * nu(_coset_rep(T, t, k2))) for t in nu.domain())

    return sorted((canonicalize_item3(T, K, beta, q, t0, case="b") for q in forms), key=signature)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


# S of the module doc: H on (1, i, j, k) and C on (1, J)
QUATERNIONS = ((1, 1, 1, 1), (1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))
COMPLEX = ((1, 1), (1, -1))
_VALUE = {1: Fraction(1), -1: Fraction(-1)}


def _write_table(T: FinAbGroup, kappa, S: tuple, anti=(), verify: bool = True) -> GradedAlgebra:
    """The real table of the module doc's product rule, certified when
    verify is true: S is QUATERNIONS or COMPLEX, kappa(a, b) returns +-1, and
    anti holds the degrees a outside K, whose M_a anticommutes with J = q_1."""
    m = len(S)
    elems = list(T.elements())
    pos = {t: m * i for i, t in enumerate(elems)}
    table = {}
    for a in elems:
        row = [(pos[b], pos[T.add(a, b)], kappa(a, b)) for b in elems]
        chi = [-1 if y == 1 and a in anti else 1 for y in range(m)]
        for x in range(m):
            sx = [(y, x ^ y, S[x][y] * chi[y]) for y in range(m)]
            for j, k, c in row:
                for y, z, s in sx:
                    table[(pos[a] + x, j + y)] = {k + z: _VALUE[c * s]}
    degrees = tuple(t for t in elems for _ in range(m))
    A = GradedAlgebra(REAL, T, degrees, table, {pos[T.identity()]: Fraction(1)})
    if verify:
        certify(A)
    return A


def _sign_cocycle(A: GradedAlgebra, name: str) -> dict:
    """The cocycle of a table with 1-dimensional components, as ints +-1."""
    sigma = A.cocycle()
    if any(c not in (1, -1) for c in sigma.values()):
        raise ClassificationError(f"the {name} cocycle takes a value other than +-1")
    return {key: int(c) for key, c in sigma.items()}


def construct_item1(T: FinAbGroup, beta: AltBicharacter, mu: SignMap, verify: bool = True) -> GradedAlgebra:
    """D(T, beta, mu) over exact real coefficients.

    The generator constant is the sign mu(a_i^{o(a_i)/2}) for even-order
    generators (odd-order classes are trivial).  The resulting table realizes
    mu as the sign of squares on all of T_[2], which is asserted."""
    gen_values = []
    for i, n in enumerate(T.orders):
        if n % 2 == 0:
            gen_values.append(Fraction(mu(T.scale(n // 2, T.generator(i)))))
        else:
            gen_values.append(Fraction(1))
    A = construct(T, beta, MuFunction(T, tuple(gen_values)), REAL, verify=verify)
    if _signs_of_squares(A) != mu:
        raise ClassificationError("constructed table does not realize the quadratic form")
    return A


def construct_item2(T: FinAbGroup, beta: AltBicharacter, mu: SignMap, verify: bool = True) -> GradedAlgebra:
    """Item (1) tensored with the trivially graded quaternions: the
    closed-form table with H and the item-(1) cocycle."""
    # an intermediate table: only the emitted A is certified
    signs = _sign_cocycle(construct_item1(T, beta, mu, verify=False), "item-(1)")
    return _write_table(T, lambda a, b: signs[(a, b)], QUATERNIONS, verify=verify)


def construct_item4(T: FinAbGroup, beta: AltBicharacter, cyc: CyclotomicField, verify: bool = True) -> GradedAlgebra:
    """D(T, beta) over the cyclotomic model of C (trivial power constants)."""
    mu = MuFunction(T, tuple(cyc.one for _ in range(T.rank)))
    return construct(T, beta, mu, cyc, verify=verify)


def item4_conductor(T: FinAbGroup) -> int:
    return max(T.exponent, 1)


def construct_item3(
    T: FinAbGroup,
    K: Subgroup,
    beta: SubBicharacter,
    nu,
    case: str,
    verify: bool = True,
) -> GradedAlgebra:
    """Real form of M_2 over the complexified D(K, beta, mu) with
    2-dimensional components; mu and the remaining sign are read off nu
    relative to the canonical choice of t0.

    nu is a SignMap.  In case "b" it is read only through
    nu(t0 + h) nu(t0) for h in K_[2], which is constant on its class, so
    any member of the class gives the same table.

    The table is written down in closed form.  Let sigma be the K-part
    cocycle (it takes only the values +-1, checked) and lam = nu(t0) in
    case "a", 1 in case "b".  The component at t is spanned by M_t and
    J M_t, where J = diag(i, -i), M_t = x_t I for t in K and
    M_t = [[0, sigma(2t0, s) x_{2t0+s}], [lam x_s, 0]] for t = t0 + s
    outside K.  Then M_a M_b = kappa(a, b) M_{a+b} with

    * kappa = sigma(a, b) for a, b in K,
    * kappa = sigma(a, b - t0) when only a is in K,
    * kappa = sigma(a - t0, b) when only b is in K,
    * kappa = sigma(2t0, s) lam sigma(2t0 + s, b - t0), s = a - t0, else;

    and J, with J^2 = -1, commutes with M_t for t in K and anticommutes
    with it otherwise: ``_write_table`` with C on the basis (1, J)."""
    kset = K.element_set()
    t0 = _canonical_t0(T, K, case)
    mu_t0 = {h: nu(T.add(t0, h)) * nu(t0) for h in _k2(T, K)}
    lam = nu(t0) if case == "a" else 1

    # the K-part cocycle, keyed by K's presentation
    pres = beta.pres
    coords = pres.coords()
    mu_pres = SignMap.from_map(pres.group, {coords[h]: s for h, s in mu_t0.items()})
    # an intermediate table: only the emitted A is certified
    signs = _sign_cocycle(construct_item1(pres.group, beta.chi, mu_pres, verify=False), "K-part")

    # r(t) is t on K and t - t0 off it, in K's coordinates: kappa(a, b) is
    # sigma(r(a), r(b)) unless both a and b lie outside K
    elems = list(T.elements())
    r = {t: coords[t if t in kset else T.sub(t, t0)] for t in elems}
    t0sq = coords[T.scale(2, t0)]
    # for a outside K: (sigma(2t0, s) lam, a + t0 = 2t0 + s) with s = a - t0
    off = {a: (signs[(t0sq, r[a])] * lam, coords[T.add(a, t0)]) for a in elems if a not in kset}

    def kappa(a: tuple, b: tuple) -> int:
        if a in off and b in off:
            c, u = off[a]
            return c * signs[(u, r[b])]
        return signs[(r[a], r[b])]

    return _write_table(T, kappa, COMPLEX, anti=off, verify=verify)


def construct_label(label: ClassLabel, verify: bool = True) -> GradedAlgebra:
    T = label.group
    if label.item == "1":
        beta, mu = label.data
        return construct_item1(T, beta, mu, verify=verify)
    if label.item == "2":
        beta, mu = label.data
        return construct_item2(T, beta, mu, verify=verify)
    if label.item in ("3a", "3b"):
        K, beta, nu = label.data
        return construct_item3(T, K, beta, nu, label.item[-1], verify=verify)
    if label.item == "4":
        pair = label.data[0]
        cyc = CyclotomicField(item4_conductor(T))
        return construct_item4(T, pair[0], cyc, verify=verify)
    raise ClassificationError(f"unknown item {label.item!r}")


# ---------------------------------------------------------------------------
# The t0-free parametrization of item (3)
# ---------------------------------------------------------------------------


def canonicalize_item3(
    T: FinAbGroup,
    K: Subgroup,
    beta: SubBicharacter,
    mu_t0: dict,
    t0: tuple,
    delta_t0: int | None = None,
    case: str = "a",
):
    """Turn t0-relative data (mu_{t0}, delta_{t0}) into the choice-free nu.

    case "a" returns a SignMap on T_[2] - K_[2] via
    nu(t) = delta * mu_{t0}(t - t0); case "b" returns the SignMap on T - K
    that stands for the label's class: the member built from the transition
    family mu_{t0 g}(h) = mu_{t0}(h) beta(g, h) with sign +1 on every coset
    representative (``class_of_admissible`` expands the class).

    The computation is verified against a second choice of t0, deriving
    the shifted data through the transition rules.
    """
    kset = K.element_set()
    k2 = _k2(T, K)

    if case == "a":
        if delta_t0 is None:
            raise ClassificationError("case (a) needs delta")
        domain = [t for t in two_torsion(T).elements if t not in kset]

        def build(mu, delta, base):
            # t - base lies in K_[2]: both are 2-torsion and outside K
            return SignMap.from_map(T, {t: delta * mu[T.sub(t, base)] for t in domain})

        nu = build({h: mu_t0[h] for h in k2}, delta_t0, t0)
        g = next((g for g in k2 if any(g)), None)
        if g is not None:
            mu_p = {h: mu_t0[h] * beta.value_int(g, h) for h in k2}
            if build(mu_p, delta_t0 * mu_t0[g], T.add(t0, g)) != nu:
                raise ClassificationError("nu depended on the choice of t0 (case a)")
        return nu

    if case != "b":
        raise ClassificationError(f"unknown case {case!r}")

    outside = [t for t in T.elements() if t not in kset]

    def family_from(mu_base: dict, base: tuple) -> dict:
        fam = {}
        for t in outside:
            g = T.sub(t, base)
            fam[t] = {h: mu_base[h] * beta.value_int(g, h) for h in k2}
        return fam

    family = family_from(mu_t0, t0)
    mapping = {}
    for t in outside:
        r = _coset_rep(T, t, k2)
        mapping[t] = family[r][T.sub(t, r)]
    nu = SignMap.from_map(T, mapping)
    t0p = next((t for t in outside if t != t0), None)
    if t0p is not None and family_from(family[t0p], t0p) != family:
        raise ClassificationError("nu depended on the choice of t0 (case b)")
    return nu


def class_of_admissible(T: FinAbGroup, K: Subgroup, nu: SignMap) -> tuple:
    """The ~ equivalence class of nu (all coset-constant sign twists): the
    report's ``nu_class`` of a case-(b) label, 2^(|K| / |K_[2]|) members."""
    k2 = _k2(T, K)
    domain = nu.domain()
    reps = sorted({_coset_rep(T, t, k2) for t in domain})
    members = []
    for signs in product((1, -1), repeat=len(reps)):
        tw = dict(zip(reps, signs))
        members.append(SignMap.from_map(T, {t: nu(t) * tw[_coset_rep(T, t, k2)] for t in domain}))
    return tuple(sorted(members, key=lambda m: m.values))


# ---------------------------------------------------------------------------
# Recovery of label data from the bare table (the verified-invariants block)
# ---------------------------------------------------------------------------


def recover_label(A: GradedAlgebra) -> ClassLabel:
    """Recompute the classification label from the structure constants alone."""
    T = A.group
    if set(A.support()) != set(T.elements()):
        raise ClassificationError("support must be the whole group")
    if A.field.kind == "CYC":
        beta = commutation_bicharacter(A)
        cyc = A.field
        pair = _canonical_beta_pair(beta, cyc)
        return ClassLabel("4", T, (pair,))
    e_idxs = A.components()[T.identity()]
    if len(e_idxs) == 1:
        beta = commutation_bicharacter(A)
        mu = _signs_of_squares(A)
        return ClassLabel("1", T, (beta, mu))
    if len(e_idxs) == 4:
        sub = _centralizer_subalgebra(A, e_idxs, "Cent(A_e)")
        beta = commutation_bicharacter(sub)
        mu = _signs_of_squares(sub)
        return ClassLabel("2", T, (beta, mu))
    if len(e_idxs) != 2:
        raise ClassificationError("identity component of unexpected dimension")
    return _recover_item3(A)


def _signs_of_squares(A: GradedAlgebra) -> SignMap:
    """The quadratic form t -> sign of X_t^2 on T_[2] of a table with
    1-dimensional components, 1 at the identity."""
    T = A.group
    signs = {t: _sign(power_constant(A, t)) if any(t) else 1 for t in two_torsion(T).elements}
    return SignMap.from_map(T, signs)


def _centralizer_subalgebra(A: GradedAlgebra, target_idxs: list[int], name: str) -> GradedAlgebra:
    """The centralizer of the basis vectors at target_idxs as an algebra with
    1-dimensional components; it must have one homogeneous basis vector in
    every degree."""
    by_degree = {}
    for v in centralizer_basis(A, target_idxs):
        degs = {A.degrees[i] for i in v}
        if len(degs) != 1:
            raise ClassificationError(f"{name} vector is not homogeneous")
        d = degs.pop()
        if d in by_degree:
            raise ClassificationError(f"{name} is not 1-dimensional per degree")
        by_degree[d] = v
    if set(by_degree) != set(A.group.elements()):
        raise ClassificationError(f"{name} does not have full support")
    degs = sorted(by_degree)
    return subalgebra_on_span(A, [by_degree[d] for d in degs], A.group, degs)


def _recover_item3(A: GradedAlgebra) -> ClassLabel:
    T = A.group
    F = A.field
    e = T.identity()
    comps = A.components()
    # K = support of the centralizer of A_e
    cent = centralizer_basis(A, comps[e])
    K_degrees = set()
    for v in cent:
        degs = {A.degrees[i] for i in v}
        if len(degs) != 1:
            raise ClassificationError("centralizer vector is not homogeneous")
        K_degrees.add(degs.pop())
    K = Subgroup.from_elements(T, sorted(K_degrees))
    if K.index() != 2:
        raise ClassificationError("Cent(A_e) does not have index-2 support")
    case = _item3_case(T, K)
    t0 = _canonical_t0(T, K, case)

    d0 = comps[t0][0]
    # the centralizer of d0 is an item-(1)-shaped subalgebra of full support
    sub = _centralizer_subalgebra(A, [d0], "Cent(d0)")
    sigma = sub.cocycle()

    pres = subgroup_presentation(K)
    kg = pres.group
    beta_vals = []
    for i in range(kg.rank):
        for j in range(i + 1, kg.rank):
            gi, gj = pres.gens[i], pres.gens[j]
            beta_vals.append((i, j, F.div(sigma[(gi, gj)], sigma[(gj, gi)])))
    beta = SubBicharacter(pres, AltBicharacter.from_pairs(kg, beta_vals, F))

    signs = _signs_of_squares(sub)
    mu_t0 = {h: signs(h) for h in _k2(T, K)}
    delta = _sign(_unit_multiple(A, A.entry(d0, d0))) if case == "a" else None
    nu = canonicalize_item3(T, K, beta, mu_t0, t0, delta_t0=delta, case=case)
    return ClassLabel("3" + case, T, (K, beta, nu))


def _unit_multiple(A: GradedAlgebra, w):
    """Express w as scalar * unit, raising if it is not."""
    F = A.field
    k, c = next(iter(A.unit.items()))
    if not w:
        raise OracleError("zero where a unit multiple was expected")
    rho = F.div(w.get(k, F.zero), c)
    if A.scale_vec(rho, A.unit) != w:
        raise OracleError("element is not a scalar multiple of the unit")
    return rho


def _canonical_beta_pair(beta: AltBicharacter, cyc: CyclotomicField) -> tuple:
    inv = beta.inverse(cyc)
    pair = sorted([beta, inv], key=lambda b: b.matrix_key(cyc))
    return (pair[0], pair[1])


# ---------------------------------------------------------------------------
# Full classification over a bounding group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedAlgebra:
    stratum: tuple  # the elements of the subgroup T inside G
    label: ClassLabel
    algebra: GradedAlgebra | None  # None when the labels are only counted


def enumerate_labels(T: FinAbGroup, items=("1", "2", "3", "4")) -> list[ClassLabel]:
    """All labels with support exactly T (presented), in report order."""
    out: list[ClassLabel] = []

    if "1" in items or "2" in items:
        for beta in enumerate_bicharacters_pm1(T):
            for mu in enumerate_quadratic_forms(T, beta):
                out += [ClassLabel(item, T, (beta, mu)) for item in ("1", "2") if item in items]

    if "3" in items:
        for K in index2_subgroups(T):
            pres = subgroup_presentation(K)
            case = _item3_case(T, K)
            sqT = squares(T).element_set()
            for chi in enumerate_bicharacters_pm1(pres.group):
                beta = SubBicharacter(pres, chi)
                if any(
                    beta.value_int(x, k) != 1 for x in sqT for k in K.elements
                ):
                    continue
                out += [ClassLabel("3" + case, T, (K, beta, nu)) for nu in enumerate_admissible(T, K, beta, case)]

    if "4" in items:
        cyc = CyclotomicField(item4_conductor(T))
        seen = set()
        for beta in enumerate_bicharacters_complex(T, cyc):
            pair = _canonical_beta_pair(beta, cyc)
            key = pair[0].matrix_key(cyc)
            if key in seen:
                continue
            seen.add(key)
            out.append(ClassLabel("4", T, (pair,)))
    return out


# most structure constants one classification builds, summed over its tables
REPORT_CONSTANT_BOUND = 10**6


def table_constants(label: ClassLabel) -> int:
    """The structure constants of the label's table, dim^2: every product of
    two basis vectors is one nonzero term, and dim = dim D_e * |T|."""
    dim_e = {"2": 4, "3a": 2, "3b": 2}.get(label.item, 1)
    return (dim_e * label.group.order) ** 2


def classify_all(
    subgroups: list[Subgroup], items=("1", "2", "3", "4"), verify: bool = True, construct: bool = True
) -> list[ClassifiedAlgebra]:
    """Classification over each given subgroup T of a group G, in their
    order; ``abelian.all_subgroups(G)`` gives every stratum.  With construct
    false the labels are enumerated only, with no table built; otherwise the
    tables are built only when their structure constants, counted from the
    labels, stay within REPORT_CONSTANT_BOUND."""
    labeled = [
        (S.elements, label) for S in subgroups for label in enumerate_labels(subgroup_presentation(S).group, items)
    ]
    if construct:
        constants = sum(table_constants(label) for _, label in labeled)
        if constants > REPORT_CONSTANT_BOUND:
            raise ClassificationError(
                f"the {len(labeled)} tables would hold {constants} structure constants, more than "
                f"REPORT_CONSTANT_BOUND = {REPORT_CONSTANT_BOUND}; --count-only counts the labels"
            )
    return [
        ClassifiedAlgebra(stratum, label, construct_label(label, verify) if construct else None)
        for stratum, label in labeled
    ]


def census(results: list[ClassifiedAlgebra]) -> dict:
    """Per-stratum, per-item counts (item "3" merges "3a"/"3b")."""
    table: dict[tuple, dict[str, int]] = {}
    for r in results:
        row = table.setdefault(r.stratum, {"1": 0, "2": 0, "3": 0, "4": 0})
        item = "3" if r.label.item.startswith("3") else r.label.item
        row[item] += 1
    return table
