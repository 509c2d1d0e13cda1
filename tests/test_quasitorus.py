from fractions import Fraction

import pytest
from helpers import mu_value

from gradeddiv.abelian import FinAbGroup
from gradeddiv.exactfield import CyclotomicField, FiniteField, RationalField, RealField
from gradeddiv.gradedalg import (
    commutation_bicharacter,
    graded_iso_1dim,
    is_graded_division,
    mu_invariant,
    power_constant,
)
from gradeddiv.quasitorus import (
    AltBicharacter,
    MuFunction,
    ParameterError,
    construct,
    primary_decompose,
)

Q = RationalField()
R = RealField()


def test_construct_group_algebra():
    G = FinAbGroup((2,))
    A = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Q.one,)), Q)
    assert A.dim == 2
    idx = {d: i for i, d in enumerate(A.degrees)}
    x = A.basis_vec(idx[(1,)])
    assert A.mul_vec(x, x) == A.unit  # x^2 = 1


def test_construct_quaternions():
    G = FinAbGroup((2, 2))
    beta = AltBicharacter.from_pairs(G, [(0, 1, Fraction(-1))], R)
    H = construct(G, beta, MuFunction(G, (Fraction(-1), Fraction(-1))), R)
    idx = {d: i for i, d in enumerate(H.degrees)}
    i_v = H.basis_vec(idx[(1, 0)])
    j_v = H.basis_vec(idx[(0, 1)])
    assert H.mul_vec(i_v, i_v) == {idx[(0, 0)]: Fraction(-1)}
    assert H.mul_vec(j_v, j_v) == {idx[(0, 0)]: Fraction(-1)}
    assert H.mul_vec(i_v, j_v) == {idx[(1, 1)]: Fraction(1)}
    assert H.mul_vec(j_v, i_v) == {idx[(1, 1)]: Fraction(-1)}
    k_v = H.basis_vec(idx[(1, 1)])
    assert H.mul_vec(k_v, k_v) == {idx[(0, 0)]: Fraction(-1)}


def test_construct_z4_eighth_roots():
    # X^4 = -1 over Q: the cyclotomic field of order 8 as a Z_4-graded algebra
    G = FinAbGroup((4,))
    A = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Fraction(-1),)), Q)
    x = A.basis_vec(1)
    assert A.vec_power(x, 4) == {0: Fraction(-1)}
    assert is_graded_division(A)[0]


def test_order_one_factors_permitted():
    G = FinAbGroup((1, 2))
    A = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Q.one, Q.one)), Q)
    assert A.dim == 2
    assert is_graded_division(A)[0]


def test_construct_validates_beta_orders():
    G = FinAbGroup((3, 3))
    beta = AltBicharacter.from_pairs(G, [(0, 1, Fraction(-1))], Q)
    with pytest.raises(ParameterError):
        construct(G, beta, MuFunction(G, (Q.one, Q.one)), Q)


def test_construct_rejects_zero_mu():
    G = FinAbGroup((2,))
    with pytest.raises(ParameterError):
        construct(G, AltBicharacter.trivial(G), MuFunction(G, (Fraction(0),)), Q)


def test_validate_mu_examples():
    # each extension rule, on the reference mu_value and on the power
    # constant of the constructed table
    def classes(G, beta, mu, g, field):
        o = G.element_order(g)
        reference = mu_value(G, beta, mu, g, field)
        A = construct(G, beta, mu, field)
        return field.nth_power_class(reference, o), field.nth_power_class(power_constant(A, g), o)

    # Z_4 over R: mu(a^2) is the image of mu(a) under squaring classes
    G = FinAbGroup((4,))
    mu = MuFunction(G, (Fraction(-1),))
    assert classes(G, AltBicharacter.trivial(G), mu, (2,), R) == ((2, -1, ()),) * 2

    # coprime orders: Z_2 x Z_3 over Q with mu = (2, 1): order-6 element gets 2^3 * 1^2 = 8
    G6 = FinAbGroup((2, 3))
    mu6 = MuFunction(G6, (Fraction(2), Fraction(1)))
    expect = Q.nth_power_class(Fraction(8), 6)
    assert classes(G6, AltBicharacter.trivial(G6), mu6, (1, 1), Q) == (expect, expect)

    # p = 2 equal orders with beta = -1: mu(gh) = -mu(g)mu(h)
    G22 = FinAbGroup((2, 2))
    beta = AltBicharacter.from_pairs(G22, [(0, 1, Fraction(-1))], R)
    mu22 = MuFunction(G22, (Fraction(1), Fraction(1)))
    assert classes(G22, beta, mu22, (1, 1), R) == ((2, -1, ()),) * 2


def test_mu_roundtrip_against_constructed_table():
    # the recursion must agree with actually powering the monomials
    cases = [
        (FinAbGroup((4, 4)), [(0, 1, Fraction(-1))], (Fraction(1), Fraction(-1))),
        (FinAbGroup((2, 4)), [(0, 1, Fraction(-1))], (Fraction(-1), Fraction(-1))),
        (FinAbGroup((8,)), [], (Fraction(-1),)),
    ]
    for G, pairs, mus in cases:
        beta = AltBicharacter.from_pairs(G, pairs, R)
        mu = MuFunction(G, mus)
        A = construct(G, beta, mu, R)
        for g in G.elements():
            o = G.element_order(g)
            rec = mu_value(G, beta, mu, g, R)
            assert R.nth_power_class(rec, o) == R.nth_power_class(power_constant(A, g), o)


def test_invariant_roundtrip():
    G = FinAbGroup((2, 4))
    beta = AltBicharacter.from_pairs(G, [(0, 1, Fraction(-1))], R)
    mu = MuFunction(G, (Fraction(-1), Fraction(1)))
    A = construct(G, beta, mu, R)
    back = commutation_bicharacter(A)
    assert back.values == beta.values
    mu_back = mu_invariant(A)
    for i in range(G.rank):
        o = G.orders[i]
        assert R.nth_power_class(mu_back.gen_values[i], o) == R.nth_power_class(mu.gen_values[i], o)


def test_invariant_roundtrip_exhaustive_small():
    # every accepted (K, beta, mu) over the reals with |K| <= 8 round-trips
    import sys

    sys.path.insert(0, "tests")
    from helpers import abelian_groups_upto, real_mu_choices
    from gradeddiv.realclass import enumerate_bicharacters_pm1

    for G in abelian_groups_upto(8):
        for beta in enumerate_bicharacters_pm1(G):
            for mu in real_mu_choices(G):
                A = construct(G, beta, mu, R, verify=False)
                assert commutation_bicharacter(A).values == beta.values
                back = mu_invariant(A)
                for i, o in enumerate(G.orders):
                    assert R.nth_power_class(back.gen_values[i], o) == R.nth_power_class(
                        mu.gen_values[i], o
                    )


def test_scaling_independence_over_gf():
    # replacing mu by mu * r^o(a) gives a graded-isomorphic algebra
    F = FiniteField(7, 1)
    G = FinAbGroup((3,))
    A = construct(G, AltBicharacter.trivial(G), MuFunction(G, (3,)), F)
    for r in range(1, F.q):
        scaled = F.mul(3, F.power(r, 3))
        B = construct(G, AltBicharacter.trivial(G), MuFunction(G, (scaled,)), F)
        assert graded_iso_1dim(A, B) is not None


def test_commutative_iff_trivial_beta():
    G = FinAbGroup((2, 2))
    ntr = AltBicharacter.from_pairs(G, [(0, 1, Fraction(-1))], R)
    A = construct(G, ntr, MuFunction(G, (Fraction(1), Fraction(1))), R)
    B = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Fraction(1), Fraction(1))), R)

    def commutative(M):
        return all(
            M.mul_vec(M.basis_vec(i), M.basis_vec(j)) == M.mul_vec(M.basis_vec(j), M.basis_vec(i))
            for i in range(M.dim)
            for j in range(M.dim)
        )

    assert not commutative(A)
    assert commutative(B)


def test_primary_decomposition():
    G6 = FinAbGroup((6,))
    A = construct(G6, AltBicharacter.trivial(G6), MuFunction(G6, (Q.one,)), Q)
    parts = primary_decompose(A)
    assert [(p, part.dim) for p, part in parts] == [(2, 2), (3, 3)]
    assert sorted(parts[0][1].degrees) == [(0,), (3,)]
    assert sorted(parts[1][1].degrees) == [(0,), (2,), (4,)]

    G23 = FinAbGroup((2, 3))
    A = construct(G23, AltBicharacter.trivial(G23), MuFunction(G23, (Fraction(2), Fraction(5))), Q)
    parts = primary_decompose(A)
    assert [(p, part.dim) for p, part in parts] == [(2, 2), (3, 3)]

    G49 = FinAbGroup((4, 9))
    A = construct(G49, AltBicharacter.trivial(G49), MuFunction(G49, (Q.one, Q.one)), Q)
    parts = primary_decompose(A)
    assert [(p, part.dim) for p, part in parts] == [(2, 4), (3, 9)]
    assert A.dim == 36


def test_cyclotomic_coefficients():
    C4 = CyclotomicField(4)
    G = FinAbGroup((2, 2))
    i_unit = C4.zeta
    beta = AltBicharacter.from_pairs(G, [(0, 1, C4.neg(C4.one))], C4)
    A = construct(G, beta, MuFunction(G, (C4.one, C4.one)), C4)
    assert is_graded_division(A)[0]
    # complex Pauli-type algebra: graded-central over the coefficient field
    from gradeddiv.gradedalg import graded_center_e_dim

    assert graded_center_e_dim(A) == 1
    b44 = AltBicharacter.from_pairs(FinAbGroup((4, 4)), [(0, 1, i_unit)], C4)
    A44 = construct(FinAbGroup((4, 4)), b44, MuFunction(FinAbGroup((4, 4)), (C4.one, C4.one)), C4)
    assert is_graded_division(A44)[0]
