import json
import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from helpers import (
    abelian_groups_upto,
    classify_stratum,
    nonzero_elements,
    perturbations,
    quasitorus_params,
    reference_commutant_basis,
    reference_generating_basis,
    reference_invert_vec,
    reference_word_rank,
    tensor_product,
)
from hypothesis import given, settings, strategies as st

from gradeddiv.abelian import FinAbGroup, Subgroup
from gradeddiv.exactfield import (
    CyclotomicField,
    FieldError,
    FiniteField,
    RationalField,
    RealField,
)
from gradeddiv.gradedalg import (
    GradedAlgebra,
    OracleError,
    _generating_basis,
    center_dim,
    centralizer_basis,
    certify,
    commutation_bicharacter,
    graded_center_e_dim,
    graded_iso_1dim,
    identity_component,
    invert_vec,
    is_graded_division,
    mu_invariant,
    power_constant,
    subalgebra_on_indices,
    verify_associative,
    verify_grading,
    verify_unit,
)
from gradeddiv.jsonio import algebra_from_json, algebra_to_json, dumps_canonical
from gradeddiv.quasitorus import AltBicharacter, MuFunction, construct

Q = RationalField()
R = RealField()


def group_algebra(G, field):
    return construct(G, AltBicharacter.trivial(G), MuFunction(G, tuple(field.one for _ in G.orders)), field)


def quaternions_z22():
    G = FinAbGroup((2, 2))
    beta = AltBicharacter.from_pairs(G, [(0, 1, Fraction(-1))], R)
    mu = MuFunction(G, (Fraction(-1), Fraction(-1)))
    return construct(G, beta, mu, R)


def test_group_algebra_oracles():
    A = group_algebra(FinAbGroup((2,)), Q)
    assert verify_associative(A) == (True, None)
    assert is_graded_division(A) == (True, None)
    assert verify_unit(A) == (True, None)
    assert verify_grading(A) == (True, None)


def test_broken_table_fails_associativity():
    # c(x,x)=y, c(x,y)=0, c(y,x)=x over Z_3-ish degrees: built by hand to break
    G = FinAbGroup((3,))
    F = Q
    e, a, b = (0,), (1,), (2,)
    table = {
        (0, 0): {0: F.one},
        (0, 1): {1: F.one},
        (1, 0): {1: F.one},
        (0, 2): {2: F.one},
        (2, 0): {2: F.one},
        (1, 1): {2: F.one},
        (2, 1): {0: F.one},
        # (1, 2) missing: x*y = 0 while y*x = 1, breaking associativity
        (2, 2): {1: F.one},
    }
    A = GradedAlgebra(F, G, (e, a, b), table, {0: F.one})
    ok, witness = verify_associative(A)
    assert not ok and witness is not None
    # grading and unit pass, so the gate stops at associativity
    with pytest.raises(OracleError, match=r"^associativity failed at triple \(\d+, \d+, \d+\)$"):
        certify(A)


def test_nilpotent_is_not_graded_division():
    # Q[x]/(x^2) with deg x = 1 in Z_2
    G = FinAbGroup((2,))
    e, a = (0,), (1,)
    table = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one}}
    A = GradedAlgebra(Q, G, (e, a), table, {0: Q.one})
    assert verify_associative(A)[0]
    ok, witness = is_graded_division(A)
    assert not ok
    assert witness["degree"] == (1,)
    with pytest.raises(OracleError, match=r"^graded-division failed: .*'degree': \(1,\)"):
        certify(A)


def test_quaternions_as_z22_graded():
    H = quaternions_z22()
    assert is_graded_division(H) == (True, None)
    assert center_dim(H) == 1
    assert graded_center_e_dim(H) == 1
    assert identity_component(H).dim == 1
    beta = commutation_bicharacter(H)
    G = H.group
    assert beta.value((1, 0), (0, 1), R) == Fraction(-1)
    mu = mu_invariant(H)
    assert [R.nth_power_class(v, 2) for v in mu.gen_values] == [(2, -1, ()), (2, -1, ())]
    for t in G.elements():
        if any(t):
            assert R.nth_power_class(power_constant(H, t), 2) == (2, -1, ())


def test_centers_examples():
    A = group_algebra(FinAbGroup((2,)), Q)
    assert center_dim(A) == 2
    assert graded_center_e_dim(A) == 1
    # M_2(R) as Z_2 x Z_2 graded: nondegenerate beta, trivial generator constants
    G = FinAbGroup((2, 2))
    beta = AltBicharacter.from_pairs(G, [(0, 1, Fraction(-1))], R)
    M = construct(G, beta, MuFunction(G, (Fraction(1), Fraction(1))), R)
    assert center_dim(M) == 1
    assert graded_center_e_dim(M) == 1


def test_identity_component_subalgebra():
    H = quaternions_z22()
    Ae = identity_component(H)
    assert Ae.dim == 1
    assert verify_unit(Ae)[0]
    # {1, i, j} is not closed (i*j = k escapes)
    with pytest.raises(ValueError):
        subalgebra_on_indices(H, [0, 1, 2], FinAbGroup(()))


def test_iso_oracle_basics():
    G = FinAbGroup((2,))
    A1 = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Fraction(1),)), R)
    A2 = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Fraction(-1),)), R)
    assert graded_iso_1dim(A1, A2) is None
    lam = graded_iso_1dim(A1, A1)
    assert lam is not None and all(v == 1 for v in lam.values())


def test_iso_oracle_sign_witness():
    # replacing the generator X by -X is an automorphism with lambda = (1,-1,1,-1)
    G = FinAbGroup((4,))
    A = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Fraction(1),)), R)
    lam = {(t,): Fraction((-1) ** t) for t in range(4)}
    idx = {d: i for i, d in enumerate(A.degrees)}
    for s in G.elements():
        for t in G.elements():
            c = A.entry(idx[s], idx[t])[idx[G.add(s, t)]]
            assert lam[s] * lam[t] * c == c * lam[G.add(s, t)]
    assert graded_iso_1dim(A, A) is not None


def test_iso_oracle_takes_roots_from_the_field():
    # power constants outside the roots of unity: the field's nth_root decides
    G = FinAbGroup((2,))
    e, a = G.elements()
    make = lambda F, m: construct(G, AltBicharacter.trivial(G), MuFunction(G, (m,)), F)
    assert graded_iso_1dim(make(Q, Fraction(2)), make(Q, Fraction(2))) == {e: 1, a: 1}
    # X^2 = 2 and Y^2 = 8: Y = 2X
    assert graded_iso_1dim(make(Q, Fraction(8)), make(Q, Fraction(2))) == {e: 1, a: 2}
    assert graded_iso_1dim(make(Q, Fraction(2)), make(Q, Fraction(3))) is None
    assert graded_iso_1dim(make(R, Fraction(-1, 2)), make(R, Fraction(-2))) == {e: 1, a: Fraction(1, 2)}
    assert graded_iso_1dim(make(R, Fraction(2)), make(R, Fraction(-2))) is None
    # isomorphic over R and over C, but the root is outside each model
    with pytest.raises(FieldError, match=re.escape("sqrt(2/3) has no representative in the Q model of R")):
        graded_iso_1dim(make(R, Fraction(2)), make(R, Fraction(3)))
    C4 = CyclotomicField(4)
    with pytest.raises(FieldError, match=re.escape("sqrt(['2/1', '0/1']) has no representative in the Q(zeta_4)")):
        graded_iso_1dim(make(C4, C4.from_int(2)), make(C4, C4.one))
    # -1 = i^2 in Q(zeta_4)
    assert graded_iso_1dim(make(C4, C4.from_int(-1)), make(C4, C4.one)) == {e: C4.one, a: C4.zeta}


def test_iso_oracle_over_finite_field_classes():
    F7 = FiniteField(7, 1)
    G = FinAbGroup((3,))
    make = lambda m: construct(G, AltBicharacter.trivial(G), MuFunction(G, (m,)), F7)
    A3, A4, A5 = make(3), make(4), make(5)
    # cube classes mod 7: {1,6}, {3,4}, {2,5}
    assert graded_iso_1dim(A3, A4) is not None
    assert graded_iso_1dim(A3, A5) is None


def test_support_is_subgroup_for_graded_division():
    for A in (quaternions_z22(), group_algebra(FinAbGroup((6,)), Q)):
        assert is_graded_division(A)[0]
        sup = sorted(A.support())
        Subgroup.from_elements(A.group, sup)  # raises if not closed


def test_inverse_stays_in_subgroup_components():
    # invertible elements of A_H have inverses in A_H, up to 16 dimensions;
    # the elements are not homogeneous, so the stacked reference solves it
    import random

    from gradeddiv.abelian import all_subgroups

    rng = random.Random(7)
    G16 = FinAbGroup((4, 2, 2))
    beta16 = AltBicharacter.from_pairs(G16, [(0, 1, Fraction(-1)), (1, 2, Fraction(-1))], R)
    big = construct(G16, beta16, MuFunction(G16, (Fraction(-1), Fraction(1), Fraction(-1))), R)
    cases = [(quaternions_z22(), None), (big, None)]
    found = 0
    for A, _ in cases:
        G = A.group
        idx = {d: i for i, d in enumerate(A.degrees)}
        subs = [S for S in all_subgroups(G) if 1 < S.order < G.order]
        rng.shuffle(subs)
        for sub in subs[:4]:
            for _ in range(8):
                vec = {}
                for g in sub.elements:
                    c = rng.randint(-2, 2)
                    if c:
                        vec[idx[g]] = Fraction(c)
                if not vec:
                    continue
                inv = reference_invert_vec(A, vec)
                if inv is None:
                    continue
                found += 1
                degs = {A.degrees[i] for i in inv}
                assert degs <= sub.element_set()
    assert found > 10


def test_tensor_product_group_algebra():
    A = group_algebra(FinAbGroup((2,)), Q)
    # Q[x]/(x^2 - 1), trivially graded
    B = subalgebra_on_indices(group_algebra(FinAbGroup((2,)), Q), [0, 1], FinAbGroup(()))
    T = tensor_product(A, B)
    assert T.dim == 4 and T.group == A.group
    assert T.degrees == tuple(d for d in A.degrees for _ in range(2))
    assert verify_associative(T)[0]
    with pytest.raises(OracleError, match="^the second tensor factor must be trivially graded$"):
        tensor_product(A, A)


def test_mu_invariant_z4_real():
    G = FinAbGroup((4,))
    A = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Fraction(-1),)), R)
    # mu(a) and mu(a^2) are both the negative class
    assert R.nth_power_class(power_constant(A, (1,)), 4) == (4, -1, ())
    assert R.nth_power_class(power_constant(A, (2,)), 2) == (2, -1, ())


# ---------------------------------------------------------------------------
# verify_associative against the plain n^3 triple scan
# ---------------------------------------------------------------------------


def scan_associative(A):
    """Reference oracle: every basis triple, first failure in lexicographic order."""
    for i, j, k in product(range(A.dim), repeat=3):
        if A.mul_vec(A.entry(i, j), A.basis_vec(k)) != A.mul_vec(A.basis_vec(i), A.entry(j, k)):
            return False, (i, j, k)
    return True, None


CENSUS_GROUPS = [(2,), (4,), (2, 2), (4, 2), (3,), (6,)]


@pytest.fixture(scope="module")
def census_tables():
    return {
        orders: [entry.algebra for entry in classify_stratum(FinAbGroup(orders), verify=False)]
        for orders in CENSUS_GROUPS
    }


def scaled_constant(A, rng, factor):
    """Copy of A with one seeded structure constant multiplied by the field element factor."""
    (i, j), vec = rng.choice(sorted(A.table.items()))
    k = rng.choice(sorted(vec))
    table = dict(A.table)
    table[(i, j)] = {**vec, k: A.field.mul(vec[k], factor)}
    return GradedAlgebra(A.field, A.group, A.degrees, table, A.unit)


def test_associativity_matches_triple_scan_on_census_tables(census_tables):
    import random

    rng = random.Random(3)
    failing = 0
    for tables in census_tables.values():
        for A in tables:
            assert verify_associative(A) == scan_associative(A) == (True, None)
            # the non-integer factors give the table a common denominator D > 1
            F = A.field
            for num, den in ((-1, 1), (2, 1), (3, 1), (1, 2), (-5, 3)):
                B = scaled_constant(A, rng, F.div(F.from_int(num), F.from_int(den)))
                expected = scan_associative(B)
                assert verify_associative(B) == expected
                failing += not expected[0]
    assert failing > 300


def finite_quasitorus_tables():
    """D(K, beta, mu) over GF(5) and GF(13) with |K| <= 16."""
    F5, F13 = FiniteField(5, 1), FiniteField(13, 1)
    cases = [
        (F5, (4, 4), [(0, 1, 2)], (3, 2)),  # 2 has order 4 mod 5
        (F5, (2, 2, 2), [(0, 1, 4), (1, 2, 4)], (2, 3, 4)),
        (F13, (3, 3), [(0, 1, 3)], (2, 5)),  # 3 has order 3 mod 13
        (F13, (6, 2), [(0, 1, 12)], (7, 11)),
        (F13, (12,), [], (2,)),
    ]
    out = []
    for F, orders, pairs, mu in cases:
        G = FinAbGroup(orders)
        out.append(construct(G, AltBicharacter.from_pairs(G, pairs, F), MuFunction(G, mu), F, verify=False))
    return out


def test_associativity_matches_triple_scan_over_prime_fields():
    import random

    rng = random.Random(5)
    for A in finite_quasitorus_tables():
        assert verify_associative(A) == scan_associative(A) == (True, None)
        for factor in (2, 3):
            B = scaled_constant(A, rng, A.field.from_int(factor))
            expected = scan_associative(B)
            assert not expected[0]
            assert verify_associative(B) == expected


def unreduced_differences(A):
    """Per triple (i, j, k) whose two integer sums on the field's
    ``integer_image`` differ as ints, the nonzero differences, and the
    field's ``is_zero``."""
    vecs, is_zero = A.field.integer_image(list(A.table.values()))
    rows = dict(zip(A.table, vecs))

    def integer_sum(x, y):
        out = {}
        for m, c in x.items():
            for l, d in y(m).items():
                out[l] = out.get(l, 0) + c * d
        return out

    out = {}
    for i, j, k in product(range(A.dim), repeat=3):
        left = integer_sum(rows.get((i, j), {}), lambda m: rows.get((m, k), {}))
        right = integer_sum(rows.get((j, k), {}), lambda m: rows.get((i, m), {}))
        diff = [left.get(l, 0) - right.get(l, 0) for l in left.keys() | right.keys()]
        if any(diff):
            out[(i, j, k)] = [v for v in diff if v]
    return out, is_zero


def test_prime_field_integer_sums_are_compared_mod_p():
    # with beta = -1 = 4: (X_b X_a) X_a has integer coefficient 4 * 4 * mu_a, X_b (X_a X_a) has mu_a
    F5 = FiniteField(5, 1)
    G = FinAbGroup((2, 2))
    A = construct(G, AltBicharacter.from_pairs(G, [(0, 1, 4)], F5), MuFunction(G, (2, 3)), F5, verify=False)
    unreduced, is_zero = unreduced_differences(A)
    assert is_zero(5) and not is_zero(1) and unreduced
    assert verify_associative(A) == scan_associative(A) == (True, None)


def test_cyclotomic_integer_sums_are_reduced_modulo_phi():
    # zeta^4 is stored as -1 - x - x^2 - x^3, so zeta^4 * zeta packs as -x - x^2 - x^3 - x^4: 1 only modulo Phi_5
    C5 = CyclotomicField(5)
    G = FinAbGroup((5, 5))
    A = construct(G, AltBicharacter.from_pairs(G, [(0, 1, C5.zeta)], C5), MuFunction(G, (C5.zeta, C5.one)), C5, verify=False)
    unreduced, is_zero = unreduced_differences(A)
    assert unreduced and all(is_zero(v) for diffs in unreduced.values() for v in diffs)
    assert verify_associative(A) == scan_associative(A) == (True, None)


def transported_group_algebra(F, scales):
    """F[Z_4] on the basis s_i b_i for b = 1, 1 + x, x + x^2, x^2 + x^3:
    every product of two basis vectors has several terms."""
    basis = [{0: 1}, {0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}]  # b_i in the powers of x
    powers = [{0: 1}, {0: -1, 1: 1}, {0: 1, 1: -1, 2: 1}, {0: -1, 1: 1, 2: -1, 3: 1}]  # x^e in the b_i
    table = {}
    for i, j in product(range(4), repeat=2):
        vec = {}
        for a, ca in basis[i].items():
            for b, cb in basis[j].items():
                for k, ck in powers[(a + b) % 4].items():
                    vec[k] = vec.get(k, 0) + ca * cb * ck
        # (s_i b_i)(s_j b_j) = sum of c s_i s_j / s_k (s_k b_k)
        scaled = {k: F.div(F.mul(F.from_int(c), F.mul(scales[i], scales[j])), scales[k]) for k, c in vec.items()}
        table[(i, j)] = {k: c for k, c in scaled.items() if not F.is_zero(c)}
    G = FinAbGroup((1,))
    return GradedAlgebra(F, G, (G.identity(),) * 4, table, {0: F.inv(scales[0])})


def multi_term_tables():
    C5, F9 = CyclotomicField(5), FiniteField(3, 2)
    z = C5.zeta
    c5_scales = [C5.one, z, C5.div(C5.add(z, C5.from_int(2)), C5.from_int(3)), C5.div(C5.zeta_pow(3), C5.from_int(7))]
    g = F9.generator()
    return [transported_group_algebra(C5, c5_scales), transported_group_algebra(F9, [F9.one, g, F9.power(g, 3), F9.power(g, 6)])]


def test_associativity_matches_triple_scan_on_multi_term_tables():
    for A in multi_term_tables():
        F = A.field
        assert max(len(vec) for vec in A.table.values()) >= 3
        assert verify_associative(A) == scan_associative(A) == (True, None)
        failing = 0
        for (i, j), vec in sorted(A.table.items()):
            for k in sorted(vec):
                for factor in (F.from_int(2), F.roots_of_unity()[1]):
                    table = {**A.table, (i, j): {**vec, k: F.mul(vec[k], factor)}}
                    B = GradedAlgebra(F, A.group, A.degrees, table, A.unit)
                    expected = scan_associative(B)
                    assert verify_associative(B) == expected
                    failing += not expected[0]
        assert failing > 20


@st.composite
def perturbed_quasitorus(draw):
    """A random D(K, beta, mu) with |K| <= 16 and one constant multiplied by a unit."""
    F, G, beta, mu = draw(quasitorus_params())
    A = construct(G, beta, mu, F, verify=False)
    key = draw(st.sampled_from(sorted(A.table)))
    ((k, c),) = A.table[key].items()
    table = {**A.table, key: {k: F.mul(c, draw(nonzero_elements(F)))}}
    return GradedAlgebra(F, G, A.degrees, table, A.unit)


@given(perturbed_quasitorus())
@settings(max_examples=200, deadline=None)
def test_associativity_matches_triple_scan_on_random_tables(A):
    assert verify_associative(A) == scan_associative(A)
    assert reference_word_rank(A, _generating_basis(A)) == A.dim


@given(quasitorus_params())
@settings(max_examples=100, deadline=None)
def test_json_round_trip_keeps_the_table_and_its_invariants(params):
    # degrees are exponent tuples on both sides of the JSON boundary
    F, G, beta, mu = params
    A = construct(G, beta, mu, F, verify=False)
    B = algebra_from_json(json.loads(dumps_canonical(algebra_to_json(A))))
    assert (B.field, B.group, B.degrees, B.table, B.unit) == (A.field, A.group, A.degrees, A.table, A.unit)
    assert all(type(d) is tuple for d in B.degrees)
    certify(B)
    assert commutation_bicharacter(B) == beta and mu_invariant(B) == mu
    assert graded_iso_1dim(B, B) is not None


def octonions_z222():
    """Cayley-Dickson octonions over Q; e_i e_j = +-e_{i xor j}, deg e_i = bits of i."""

    def conj(x):
        if len(x) == 1:
            return x
        h = len(x) // 2
        return conj(x[:h]) + [-c for c in x[h:]]

    def cd_mul(x, y):
        if len(x) == 1:
            return [x[0] * y[0]]
        h = len(x) // 2
        a, b, c, d = x[:h], x[h:], y[:h], y[h:]
        first = [p - q for p, q in zip(cd_mul(a, c), cd_mul(conj(d), b))]
        second = [p + q for p, q in zip(cd_mul(d, a), cd_mul(b, conj(c)))]
        return first + second

    basis = [[Fraction(int(i == k)) for k in range(8)] for i in range(8)]
    table = {}
    for i in range(8):
        for j in range(8):
            table[(i, j)] = {k: c for k, c in enumerate(cd_mul(basis[i], basis[j])) if c}
    G = FinAbGroup((2, 2, 2))
    degrees = tuple(tuple((i >> b) & 1 for b in range(3)) for i in range(8))
    return GradedAlgebra(Q, G, degrees, table, {0: Q.one})


def test_octonions_fail_associativity_with_the_scan_witness():
    O = octonions_z222()
    assert verify_grading(O) == verify_unit(O) == (True, None)
    ok, witness = verify_associative(O)
    assert not ok
    assert (ok, witness) == scan_associative(O)
    with pytest.raises(OracleError, match="^associativity failed at triple " + re.escape(str(witness)) + "$"):
        certify(O)


def test_generating_set_is_small_on_census_tables(census_tables):
    big = [A for A in census_tables[(4, 2)] if A.dim == 32]
    assert big
    for A in big:
        assert len(_generating_basis(A)) <= 5


def test_generating_set_matches_the_in_field_greedy(census_tables):
    # the reference runs the same greedy in the field, and the words span A
    census = [A for tables in census_tables.values() for A in tables]
    for A in census + finite_quasitorus_tables() + multi_term_tables():
        chosen = _generating_basis(A)
        assert chosen == reference_generating_basis(A)
        assert reference_word_rank(A, chosen) == A.dim


def test_generating_set_generates_perturbed_tables_over_every_field():
    # tables the cocycle check rejects reach the general scan: one changed,
    # dropped or misplaced constant, or a product given a second term
    C4, F5, F9 = CyclotomicField(4), FiniteField(5, 1), FiniteField(3, 2)
    Z42 = FinAbGroup((4, 2))
    requests = [
        (Q, AltBicharacter.from_pairs(Z42, [(0, 1, Fraction(-1))], Q), (Fraction(2, 3), Fraction(-1))),
        (R, AltBicharacter.from_pairs(Z42, [(0, 1, Fraction(-1))], R), (Fraction(-1), Fraction(-1))),
        (F5, AltBicharacter.from_pairs(Z42, [(0, 1, 4)], F5), (2, 3)),
        (F9, AltBicharacter.from_pairs(Z42, [(0, 1, F9.from_int(2))], F9), (F9.generator(), F9.one)),
        (C4, AltBicharacter.from_pairs(Z42, [(0, 1, C4.from_int(-1))], C4), (C4.zeta, C4.from_int(2))),
    ]
    scanned = 0
    for F, beta, mu in requests:
        A = construct(Z42, beta, MuFunction(Z42, mu), F, verify=False)
        for key in sorted(A.table)[::5]:
            ((k, c),) = A.table[key].items()
            two_terms = GradedAlgebra(F, Z42, A.degrees, {**A.table, key: {k: c, (k + 1) % A.dim: F.one}}, A.unit)
            for B in [*perturbations(A, key, F.from_int(2), (k + 1) % A.dim).values(), two_terms]:
                chosen = _generating_basis(B)
                assert chosen == reference_generating_basis(B)
                assert reference_word_rank(B, chosen) == B.dim
                scanned += 1
    assert scanned == 5 * 13 * 5


def test_generating_set_is_at_most_the_rank_on_quasitorus_tables():
    # walking down from the last degree never spends a generator on X_e
    for G in abelian_groups_upto(64):
        pairs = [(i, j, Fraction(-1)) for i in range(G.rank) for j in range(i + 1, G.rank) if gcd(G.orders[i], G.orders[j]) % 2 == 0]
        mu = MuFunction(G, tuple(Fraction(-1 if n % 2 == 0 else 3) for n in G.orders))
        A = construct(G, AltBicharacter.from_pairs(G, pairs, Q), mu, Q, verify=False)
        assert len(_generating_basis(A)) <= G.rank, G.orders


def test_commutants_match_dense_reference_on_census_tables(census_tables):
    for tables in census_tables.values():
        for A in tables:
            everything = list(range(A.dim))
            basis = [A.basis_vec(j) for j in everything]
            e_idxs = A.components()[A.group.identity()]
            assert center_dim(A) == len(reference_commutant_basis(A, everything, basis))
            assert graded_center_e_dim(A) == len(reference_commutant_basis(A, e_idxs, basis))
            # the centralizer of A_e, basis vectors and their order included
            expected = reference_commutant_basis(A, everything, [A.basis_vec(j) for j in e_idxs])
            assert [list(v.items()) for v in centralizer_basis(A, e_idxs)] == [list(v.items()) for v in expected]


# ---------------------------------------------------------------------------
# invert_vec inside A_{-t} against the stacked solve over the whole basis
# ---------------------------------------------------------------------------


def random_homogeneous(A, rng):
    """A nonzero vector of a seeded component of A with small integer coordinates."""
    F = A.field
    idxs = A.components()[rng.choice(sorted(A.components()))]
    while True:
        vec = {i: F.from_int(c) for i in idxs if (c := rng.randint(-2, 2))}
        if vec:
            return vec


def truncated_polynomials(n, G):
    """Q[x]/(x^n) graded by the cyclic G with deg x = 1."""
    degrees = tuple((d,) for d in range(n))
    table = {(i, j): {i + j: Q.one} for i in range(n) for j in range(n - i)}
    return GradedAlgebra(Q, G, degrees, table, {0: Q.one})


def test_inverse_matches_the_stacked_reference(census_tables):
    import random

    rng = random.Random(17)
    q_tables = [
        construct(G, AltBicharacter.trivial(G), MuFunction(G, mu), Q, verify=False)
        for G, mu in ((FinAbGroup((3, 2)), (Fraction(2), Fraction(-3))), (FinAbGroup((4,)), (Fraction(5, 7),)))
    ]
    gf5_tables = [A for A in finite_quasitorus_tables() if A.field.q == 5]
    # not graded-division: x is nilpotent; in Q[x]/(x^3) graded by Z_4 the
    # support {0, 1, 2} also misses -1
    nilpotent = [truncated_polynomials(2, FinAbGroup((2,))), truncated_polynomials(3, FinAbGroup((4,)))]
    invertible = missing = 0
    for A in [A for tables in census_tables.values() for A in tables] + q_tables + gf5_tables + nilpotent:
        vecs = [A.basis_vec(i) for i in range(A.dim)] + [random_homogeneous(A, rng) for _ in range(4)]
        for x in vecs:
            inv = invert_vec(A, x)
            assert inv == reference_invert_vec(A, x)
            if inv is None:
                missing += 1
            else:
                invertible += 1
    assert invertible > 1000 and missing >= 3


def test_one_dim_components_decide_invertibility_like_the_reference(census_tables):
    # a twist that passes the unit law and associativity is graded-division
    # by theorem; other 1-dim components are decided by invert_vec
    C4 = CyclotomicField(4)
    Z42, Z32 = FinAbGroup((4, 2)), FinAbGroup((3, 2))
    quasitorus = finite_quasitorus_tables() + [
        construct(Z32, AltBicharacter.trivial(Z32), MuFunction(Z32, (Fraction(2), Fraction(-3))), Q, verify=False),
        quaternions_z22(),
        construct(Z42, AltBicharacter.from_pairs(Z42, [(0, 1, C4.from_int(-1))], C4), MuFunction(Z42, (C4.zeta, C4.from_int(2))), C4, verify=False),
    ]
    # graded Q[Z_2] with X_1^2 = 0, Q[x]/(x^3) graded by Z_3 and by Z_4, and
    # Q[Z_2] graded by Z_4: 1-dim components, but no twist
    Q_Z2_in_Z4 = GradedAlgebra(Q, FinAbGroup((4,)), ((0,), (2,)), {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one}, (1, 1): {0: Q.one}}, {0: Q.one})
    others = [truncated_polynomials(2, FinAbGroup((2,))), truncated_polynomials(3, FinAbGroup((3,))), truncated_polynomials(3, FinAbGroup((4,))), Q_Z2_in_Z4]
    counts = {"twist": 0, True: 0, False: 0}
    for A in [A for tables in census_tables.values() for A in tables] + quasitorus + others:
        assert verify_unit(A)[0] and verify_associative(A)[0]
        comps = A.components()
        try:
            A.twist()
        except OracleError:
            if all(len(idxs) == 1 for idxs in comps.values()):
                witness = None
                for deg in sorted(comps):
                    x = A.basis_vec(comps[deg][0])
                    if reference_invert_vec(A, x) is None:
                        witness = {"degree": deg, "vector": x}
                        break
                assert is_graded_division(A) == (witness is None, witness)
                counts[witness is None] += 1
            continue
        assert is_graded_division(A) == (True, None)
        assert all(reference_invert_vec(A, A.basis_vec(i)) is not None for i in range(A.dim))
        counts["twist"] += 1
    assert (counts[True], counts[False]) == (1, 3) and counts["twist"] > 30


def test_invert_vec_refuses_a_non_homogeneous_vector():
    H = quaternions_z22()
    with pytest.raises(OracleError, match="^invert_vec needs a homogeneous vector"):
        invert_vec(H, {0: R.one, 1: R.one})
