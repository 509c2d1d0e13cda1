from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from helpers import (
    abelian_groups_upto,
    classify_stratum,
    cyclotomic_conjugate,
    polarization_holds,
    quaternion_table,
    reference_construct_item3,
    reference_enumerate_admissible,
    reference_quadratic_forms,
    tensor_product,
)

from gradeddiv.abelian import (
    FinAbGroup,
    Subgroup,
    all_subgroups,
    index2_subgroups,
    is_direct_summand,
    squares,
    subgroup_presentation,
    two_torsion,
)
from gradeddiv.exactfield import CyclotomicField, RealField
from gradeddiv.gradedalg import (
    center_dim,
    centralizer_basis,
    graded_center_e_dim,
    identity_component,
    is_graded_division,
)
from gradeddiv.jsonio import algebra_to_json
from gradeddiv.quasitorus import AltBicharacter
from gradeddiv.realclass import (
    REPORT_CONSTANT_BOUND,
    SignMap,
    SubBicharacter,
    canonicalize_item3,
    census,
    class_of_admissible,
    classify_all,
    construct_item1,
    construct_item2,
    construct_item3,
    construct_item4,
    enumerate_admissible,
    enumerate_bicharacters_complex,
    enumerate_bicharacters_pm1,
    enumerate_quadratic_forms,
    item4_conductor,
    recover_label,
    table_constants,
)

R = RealField()


def trivial_subbeta(T, K):
    pres = subgroup_presentation(K)
    return SubBicharacter(pres, AltBicharacter.trivial(pres.group))


def test_enumerate_bicharacters_pm1():
    assert len(enumerate_bicharacters_pm1(FinAbGroup((3,)))) == 1
    assert len(enumerate_bicharacters_pm1(FinAbGroup((2, 2)))) == 2
    assert len(enumerate_bicharacters_pm1(FinAbGroup((2, 3)))) == 1
    assert len(enumerate_bicharacters_pm1(FinAbGroup((2, 2, 2)))) == 8


def test_enumerate_bicharacters_complex():
    C1 = CyclotomicField(item4_conductor(FinAbGroup((3,))))
    assert len(enumerate_bicharacters_complex(FinAbGroup((3,)), C1)) == 1
    C44 = CyclotomicField(4)
    betas = enumerate_bicharacters_complex(FinAbGroup((4, 4)), C44)
    assert len(betas) == 4


def test_enumerate_quadratic_forms_counts():
    Z2 = FinAbGroup((2,))
    assert len(enumerate_quadratic_forms(Z2, AltBicharacter.trivial(Z2))) == 2
    Z22 = FinAbGroup((2, 2))
    triv = AltBicharacter.trivial(Z22)
    forms = enumerate_quadratic_forms(Z22, triv)
    assert len(forms) == 4
    # with trivial polarization the forms are exactly the homomorphisms
    for mu in forms:
        for g in mu.domain():
            for h in mu.domain():
                assert mu(Z22.add(g, h)) == mu(g) * mu(h)
    nondeg = AltBicharacter.from_pairs(Z22, [(0, 1, Fraction(-1))], R)
    forms_nd = enumerate_quadratic_forms(Z22, nondeg)
    assert len(forms_nd) == 4


def test_quadratic_forms_match_exhaustive_filter():
    for orders, pairs in (((2, 2), []), ((2, 2), [(0, 1, Fraction(-1))]), ((4, 2), [(0, 1, Fraction(-1))])):
        T = FinAbGroup(orders)
        beta = AltBicharacter.from_pairs(T, pairs, R)
        forms = {qf.values for qf in enumerate_quadratic_forms(T, beta)}
        t2 = sorted(two_torsion(T).elements)
        brute = set()
        for signs in product((1, -1), repeat=len(t2)):
            mapping = dict(zip(t2, signs))
            if mapping[T.identity()] != 1:
                continue
            if all(
                mapping[T.add(g, h)] == (1 if beta.value(g, h, R) == 1 else -1) * mapping[g] * mapping[h]
                for g in t2
                for h in t2
            ):
                brute.add(SignMap.from_map(T, mapping).values)
        assert forms == brute


def test_quadratic_forms_match_the_all_pairs_reference():
    # the check on pairs (g, basis vector) accepts what the all-pairs check does
    checked = 0
    for T in abelian_groups_upto(16):
        for beta in enumerate_bicharacters_pm1(T):
            forms = enumerate_quadratic_forms(T, beta)
            assert polarization_holds(T, beta, forms)
            assert forms == reference_quadratic_forms(T, beta), (T.orders, beta.values)
            checked += 1
    assert checked == 106


def test_arf_split_for_nondegenerate_form():
    # nondegenerate polarization on Z_2 x Z_2: count forms with any value -1
    Z22 = FinAbGroup((2, 2))
    nondeg = AltBicharacter.from_pairs(Z22, [(0, 1, Fraction(-1))], R)
    forms = enumerate_quadratic_forms(Z22, nondeg)
    minus_counts = sorted(sum(1 for _, s in mu.values if s == -1) for mu in forms)
    # computed by the filter: three forms hit -1 once, one form hits it three times
    assert minus_counts == [1, 1, 1, 3]


def test_admissible_counts_examples():
    Z2 = FinAbGroup((2,))
    K0 = Subgroup.from_generators(Z2, ())
    assert len(enumerate_admissible(Z2, K0, trivial_subbeta(Z2, K0), "a")) == 2

    Z4 = FinAbGroup((4,))
    K4 = Subgroup.from_generators(Z4, [(2,)])
    labels = enumerate_admissible(Z4, K4, trivial_subbeta(Z4, K4), "b")
    assert len(labels) == 2
    assert all(len(class_of_admissible(Z4, K4, nu)) == 2 for nu in labels)

    Z22 = FinAbGroup((2, 2))
    K = Subgroup.from_generators(Z22, [(1, 0)])
    maps = enumerate_admissible(Z22, K, trivial_subbeta(Z22, K), "a")
    assert len(maps) == 4


def _item3_parameters(T):
    """Every (K, beta, case) of item (3) with support T, as classified."""
    sq = squares(T).element_set()
    for K in index2_subgroups(T):
        pres = subgroup_presentation(K)
        case = "a" if is_direct_summand(K, next(t for t in T.elements() if t not in K.element_set())) else "b"
        for chi in enumerate_bicharacters_pm1(pres.group):
            beta = SubBicharacter(pres, chi)
            if all(beta.value_int(x, k) == 1 for x in sq for k in K.elements):
                yield K, beta, case


def test_admissible_maps_match_the_brute_force():
    # every (T, K, beta) with |T| <= 16: 2^(r+1) maps in case (a), 2^r classes
    # in case (b), r the rank of K_[2]; same list, same order as the search,
    # where a case-(b) label is one sign map whose class is the search's class
    checked = 0
    for T in abelian_groups_upto(16):
        for K, beta, case in _item3_parameters(T):
            got = enumerate_admissible(T, K, beta, case)
            assert all(isinstance(nu, SignMap) for nu in got)
            expanded = got if case == "a" else [class_of_admissible(T, K, nu) for nu in got]
            assert expanded == reference_enumerate_admissible(T, K, beta, case), (T.orders, K.key(), case)
            k2 = [g for g in two_torsion(T).elements if g in K.element_set()]
            r = len(k2).bit_length() - 1
            assert len(got) == 2 ** (r + 1 if case == "a" else r)
            checked += 1
    assert checked == 171


# Z2xZ2xZ4 and Z2^4 have 112 and 1920 item-(3) labels; this many, evenly
# spread, are compared against the matrix products
ITEM3_TABLE_SAMPLE = 16


@pytest.mark.parametrize(
    "orders", [T.orders for T in abelian_groups_upto(16) if T.order % 2 == 0], ids=lambda o: "x".join(map(str, o))
)
def test_item3_tables_match_the_matrix_products(orders):
    # same constants, same key order, as the 2x2 matrix products
    T = FinAbGroup(orders)
    labels = [
        (K, beta, nu, case)
        for K, beta, case in _item3_parameters(T)
        for nu in enumerate_admissible(T, K, beta, case)
    ]
    if orders in ((2, 2, 4), (2, 2, 2, 2)):
        labels = [labels[i * len(labels) // ITEM3_TABLE_SAMPLE] for i in range(ITEM3_TABLE_SAMPLE)]
    for K, beta, nu, case in labels:
        A = construct_item3(T, K, beta, nu, case, verify=False)
        B = reference_construct_item3(T, K, beta, nu, case)
        assert list(A.table.items()) == list(B.table.items())
        assert (A.degrees, A.unit) == (B.degrees, B.unit)


@pytest.mark.parametrize("orders", [()] + [T.orders for T in abelian_groups_upto(8)], ids=lambda o: "x".join(map(str, o)))
def test_item2_tables_match_the_tensor_product(orders):
    # same constants, same key order, as the item-(1) table tensored with H
    T = FinAbGroup(orders)
    H = quaternion_table(R)
    for beta in enumerate_bicharacters_pm1(T):
        for mu in enumerate_quadratic_forms(T, beta):
            A = construct_item2(T, beta, mu, verify=False)
            B = tensor_product(construct_item1(T, beta, mu, verify=False), H)
            assert list(A.table.items()) == list(B.table.items())
            assert (A.degrees, A.unit) == (B.degrees, B.unit)


def test_admissible_maps_on_z64_are_two_sign_maps():
    # K = 2Z64 is no direct summand and K_[2] has rank 1: two classes of
    # 2^16 members each, carried as one sign map apiece
    T = FinAbGroup((64,))
    (K,) = index2_subgroups(T)
    labels = enumerate_admissible(T, K, trivial_subbeta(T, K), "b")
    assert len(labels) == 2 and all(isinstance(nu, SignMap) for nu in labels)
    assert all(len(nu.values) == 32 for nu in labels)


def test_admissible_case_validation():
    Z4 = FinAbGroup((4,))
    K4 = Subgroup.from_generators(Z4, [(2,)])
    with pytest.raises(ValueError):
        enumerate_admissible(Z4, K4, trivial_subbeta(Z4, K4), "a")


def test_construct_item1_examples():
    Z2 = FinAbGroup((2,))
    mu_neg = SignMap.from_map(Z2, {(0,): 1, (1,): -1})
    A = construct_item1(Z2, AltBicharacter.trivial(Z2), mu_neg)
    # this is C as a Z_2-graded real algebra: x^2 = -1
    idx = {d: i for i, d in enumerate(A.degrees)}
    x = A.basis_vec(idx[(1,)])
    assert A.mul_vec(x, x) == {idx[(0,)]: Fraction(-1)}
    assert center_dim(A) == 2
    assert graded_center_e_dim(A) == 1


def test_construct_item2_identity_component_is_quaternion():
    Z2 = FinAbGroup((2,))
    mu = SignMap.from_map(Z2, {(0,): 1, (1,): 1})
    A = construct_item2(Z2, AltBicharacter.trivial(Z2), mu)
    assert A.dim == 8
    Ae = identity_component(A)
    assert Ae.dim == 4
    assert center_dim(Ae) == 1  # H is central simple
    assert is_graded_division(A)[0]


def test_construct_item3a_quaternions():
    Z2 = FinAbGroup((2,))
    K = Subgroup.from_generators(Z2, ())
    beta = trivial_subbeta(Z2, K)
    t0 = (1,)
    nu_minus = SignMap.from_map(Z2, {t0: -1})
    A = construct_item3(Z2, K, beta, nu_minus, "a")
    assert A.dim == 4
    assert identity_component(A).dim == 2
    assert graded_center_e_dim(A) == 1
    assert center_dim(A) == 1
    # noncentral identity component isomorphic to C, squares in D_t0 negative
    comp = [i for i, d in enumerate(A.degrees) if d == t0]
    for i in comp:
        v = A.basis_vec(i)
        sq = A.mul_vec(v, v)
        assert sq == {0: Fraction(-1)}, sq
    # (aI + bJ)Y_t squares to (a^2+b^2) Y_t^2
    a, b = Fraction(2), Fraction(3)
    y, jy = A.basis_vec(comp[0]), A.basis_vec(comp[1])
    mix = A.add_vec(A.scale_vec(a, y), A.scale_vec(b, jy))
    assert A.mul_vec(mix, mix) == {0: (a * a + b * b) * Fraction(-1)}


def test_construct_item3_refuses_a_cocycle_value_other_than_a_sign(monkeypatch):
    from gradeddiv import realclass
    from gradeddiv.gradedalg import GradedAlgebra

    T = FinAbGroup((2, 2))
    K = index2_subgroups(T)[0]
    beta = trivial_subbeta(T, K)
    nu = enumerate_admissible(T, K, beta, "a")[0]
    assert construct_item3(T, K, beta, nu, "a").dim == 8
    item1 = realclass.construct_item1

    def doubled(*args, **kwargs):
        # the K-part table with its last constant doubled, which keeps it a twisted group algebra
        A = item1(*args, **kwargs)
        table = dict(A.table)
        key = max(table)
        table[key] = {k: 2 * c for k, c in table[key].items()}
        return GradedAlgebra(A.field, A.group, A.degrees, table, A.unit)

    monkeypatch.setattr(realclass, "construct_item1", doubled)
    with pytest.raises(realclass.ClassificationError, match="^the K-part cocycle takes a value other than \\+-1$"):
        construct_item3(T, K, beta, nu, "a")


def test_construct_item4_pauli():
    Z22 = FinAbGroup((2, 2))
    cyc = CyclotomicField(item4_conductor(Z22))
    nondeg = AltBicharacter.from_pairs(Z22, [(0, 1, cyc.neg(cyc.one))], cyc)
    A = construct_item4(Z22, nondeg, cyc)
    assert is_graded_division(A)[0]
    assert graded_center_e_dim(A) == 1


def test_item3_supports_and_sign_invariants():
    # T = Z_2 x Z_2, each index-2 K, case (a): check Cent(A_e) support and nu recovery
    T = FinAbGroup((2, 2))
    for K in index2_subgroups(T):
        beta = trivial_subbeta(T, K)
        for nu in enumerate_admissible(T, K, beta, "a"):
            A = construct_item3(T, K, beta, nu, "a")
            label = recover_label(A)
            assert label.item == "3a"
            assert label.data[0].element_set() == K.element_set()
            assert label.data[2] == nu
            # sign of squares realizes nu on the domain
            idx = {}
            for i, d in enumerate(A.degrees):
                idx.setdefault(d, []).append(i)
            for t in nu.domain():
                v = A.basis_vec(idx[t][0])
                sq = A.mul_vec(v, v)
                assert sq == {0: Fraction(nu(t))}


def test_canonicalize_item3_t0_free_case_a():
    T = FinAbGroup((2, 2))
    K = Subgroup.from_generators(T, [(1, 0)])
    beta = trivial_subbeta(T, K)
    k2 = sorted(K.element_set())
    t2_out = [t for t in two_torsion(T).elements if t not in K.element_set()]
    for nu in enumerate_admissible(T, K, beta, "a"):
        for t0 in t2_out:
            mu_t0 = {h: nu(T.add(t0, h)) * nu(t0) for h in k2}
            got = canonicalize_item3(T, K, beta, mu_t0, t0, delta_t0=nu(t0), case="a")
            assert got == nu


def test_canonicalize_item3_case_b_classes():
    T = FinAbGroup((4,))
    K = Subgroup.from_generators(T, [(2,)])
    beta = trivial_subbeta(T, K)
    kset = K.element_set()
    k2 = sorted(g for g in two_torsion(T).elements if g in kset)
    for label in enumerate_admissible(T, K, beta, "b"):
        for nu in class_of_admissible(T, K, label):
            for t0 in (t for t in T.elements() if t not in kset):
                mu_t0 = {h: nu(T.add(t0, h)) * nu(t0) for h in k2}
                got = canonicalize_item3(T, K, beta, mu_t0, t0, case="b")
                assert got == label


def test_changing_t0_transitions():
    # mu and delta transition laws leave nu fixed (direct recomputation)
    T = FinAbGroup((2, 2))
    K = Subgroup.from_generators(T, [(1, 0)])
    pres = subgroup_presentation(K)
    beta = SubBicharacter(pres, AltBicharacter.trivial(pres.group))
    nu = enumerate_admissible(T, K, beta, "a")[1]
    kset = K.element_set()
    t0s = [t for t in two_torsion(T).elements if t not in kset]
    k2 = sorted(kset)
    results = set()
    for t0 in t0s:
        mu_t0 = {h: nu(T.add(t0, h)) * nu(t0) for h in k2}
        results.add(canonicalize_item3(T, K, beta, mu_t0, t0, delta_t0=nu(t0), case="a"))
    assert len(results) == 1


def test_stratum_counts_frozen():
    # counts confirmed by the build and frozen (first verified computation)
    c2 = Counter(r.label.item for r in classify_stratum(FinAbGroup((2,))))
    assert dict(c2) == {"1": 2, "2": 2, "3a": 2, "4": 1}
    c4 = Counter(r.label.item for r in classify_stratum(FinAbGroup((4,))))
    assert dict(c4) == {"1": 2, "2": 2, "3b": 2, "4": 1}
    c22 = Counter(r.label.item for r in classify_stratum(FinAbGroup((2, 2))))
    assert dict(c22) == {"1": 8, "2": 8, "3a": 12, "4": 2}
    c3 = Counter(r.label.item for r in classify_stratum(FinAbGroup((3,))))
    assert dict(c3) == {"1": 1, "2": 1, "4": 1}


def test_mixed_case_stratum_roundtrip():
    # Z_4 x Z_2 has index-2 subgroups of both kinds, so cases (a) and (b)
    # coexist in one stratum; counts frozen after verified computation
    res = classify_stratum(FinAbGroup((4, 2)), verify=True)
    c = Counter(r.label.item for r in res)
    assert dict(c) == {"1": 8, "2": 8, "3a": 8, "3b": 4, "4": 2}
    keys = []
    for r in res:
        rec = recover_label(r.algebra)
        assert rec.key() == r.label.key(), r.label.item
        keys.append(rec.key())
    assert len(set(keys)) == len(keys)

    res8 = classify_stratum(FinAbGroup((8,)), verify=True)
    c8 = Counter(r.label.item for r in res8)
    assert dict(c8) == {"1": 2, "2": 2, "3b": 2, "4": 1}
    for r in res8:
        assert recover_label(r.algebra).key() == r.label.key()


def test_trivial_group_stratum():
    res = classify_stratum(FinAbGroup(()))
    items = sorted(r.label.item for r in res)
    assert items == ["1", "2", "4"]  # R, H, C; no item (3) without even order


def test_identity_component_types_per_item():
    for T in (FinAbGroup((2,)), FinAbGroup((4,)), FinAbGroup((2, 2))):
        for r in classify_stratum(T, verify=False):
            A = r.algebra
            dim_e = identity_component(A).dim
            ze = graded_center_e_dim(A)
            if r.label.item == "1":
                assert dim_e == 1 and ze == 1
            elif r.label.item == "2":
                assert dim_e == 4 and ze == 1
            elif r.label.item.startswith("3"):
                # noncentral complex identity component, graded-central overall
                assert dim_e == 2 and ze == 1
                e_idxs = A.components()[A.group.identity()]
                cent = centralizer_basis(A, e_idxs)
                assert len(cent) < A.dim  # A_e is not central
            else:
                assert dim_e == 1 and ze == 1  # over the C-model coefficient field


def test_item4_conjugation_is_explicit_table_iso():
    # conjugating every structure constant of D(T, beta) yields exactly the
    # table of D(T, beta^{-1}): the explicit real isomorphism between the two
    T = FinAbGroup((4, 4))
    cyc = CyclotomicField(4)
    for beta in enumerate_bicharacters_complex(T, cyc):
        inv = beta.inverse(cyc)
        A = construct_item4(T, beta, cyc, verify=False)
        B = construct_item4(T, inv, cyc, verify=False)
        for key, vec in A.table.items():
            expect = {k: cyclotomic_conjugate(cyc, c) for k, c in vec.items()}
            assert B.table[key] == expect


def test_item4_beta_inverse_identification():
    # beta and beta^{-1} label the same real algebra; distinct pairs differ
    T = FinAbGroup((4, 4))
    cyc = CyclotomicField(4)
    betas = enumerate_bicharacters_complex(T, cyc)
    from gradeddiv.realclass import _canonical_beta_pair

    pairs = {_canonical_beta_pair(b, cyc)[0].matrix_key(cyc) for b in betas}
    # 4 bicharacters (i^k values) collapse to 3 labels: {1}, {i, -i}, {-1}
    assert len(betas) == 4
    assert len(pairs) == 3


def test_item1_label_distinctness_by_iso_oracle():
    # distinct (beta, mu) give non-isomorphic algebras, exhaustively |T| <= 8
    import sys

    sys.path.insert(0, "tests")
    from helpers import abelian_groups_upto
    from gradeddiv.gradedalg import graded_iso_1dim

    pairs_checked = 0
    for T in abelian_groups_upto(8):
        algebras = []
        for beta in enumerate_bicharacters_pm1(T):
            for mu in enumerate_quadratic_forms(T, beta):
                algebras.append(((beta.values, mu.values), construct_item1(T, beta, mu, verify=False)))
        for pa, A in algebras:
            for pb, B in algebras:
                witness = graded_iso_1dim(A, B)
                assert (witness is not None) == (pa == pb), (T, pa, pb)
                pairs_checked += 1
    assert pairs_checked >= 4096  # dominated by the rank-3 elementary abelian group


def test_table_constants_count_the_emitted_constants():
    for orders in [(2,), (4,), (2, 2), (3,), (6,)]:
        results = classify_all(all_subgroups(FinAbGroup(orders)), verify=False)
        for r in results:
            assert table_constants(r.label) == len(algebra_to_json(r.algebra)["constants"]), (orders, r.label.item)
        labels = classify_all(all_subgroups(FinAbGroup(orders)), construct=False)
        assert [r.label.key() for r in labels] == [r.label.key() for r in results]


def test_the_report_bound_admits_every_group_of_order_at_most_16_but_z2_to_the_4():
    # Z2^4, 8,027,910 constants, is refused (test_cli); the largest admitted is Z2^2 x Z4
    admitted = {}
    for G in abelian_groups_upto(16):
        if G.orders != (2, 2, 2, 2):
            admitted[G.orders] = sum(table_constants(r.label) for r in classify_all(all_subgroups(G), construct=False))
    assert max(admitted.values()) == admitted[(2, 2, 4)] == 590310 <= REPORT_CONSTANT_BOUND


def test_census_goldens():
    tab2 = census(classify_all(all_subgroups(FinAbGroup((2,)))))
    assert sum(sum(v.values()) for v in tab2.values()) == 10
    tab4 = census(classify_all(all_subgroups(FinAbGroup((4,)))))
    assert sum(sum(v.values()) for v in tab4.values()) == 17
