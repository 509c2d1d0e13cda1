import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from helpers import dense, is_irreducible_ff, rank, reference_embedding_is_multiplicative, zero_divisor_search

from gradeddiv.abelian import FinAbGroup
from gradeddiv.exactfield import (
    FiniteField,
    RationalField,
    RealField,
    binomial_poly,
    poly_divmod,
    poly_mul,
)
from gradeddiv.gradedalg import graded_iso_1dim, identity_component, is_graded_division
from gradeddiv.gradedfield import (
    GradedFieldError,
    GradedFieldSpec,
    KummerSpec,
    _p_power_class_independent,
    binomial_irreducible,
    dual_galois_check,
    embed_field,
    ff_grading_exists,
    ff_grading_mus,
    frobenius_grading,
    is_field_by_frobenius,
    is_field_exponent2,
    is_field_general,
    is_field_p_primary,
    kummer_grading,
    reducible_binomial_witness,
    spec_algebra,
    square_class_dependency,
)
from gradeddiv.intutil import factorint
from gradeddiv.quasitorus import AltBicharacter, MuFunction, construct

Q = RationalField()


def test_binomial_criterion_rational_fixtures():
    # X^4 + 4 factors as (X^2+2X+2)(X^2-2X+2); X^3 - 2 is irreducible
    assert binomial_irreducible(Q, Fraction(-4), 4) is False
    assert binomial_irreducible(Q, Fraction(2), 3) is True
    wit = reducible_binomial_witness(Q, Fraction(-4), 4)
    assert wit["kind"] == "sum_of_squares_split"
    factors = [[Fraction(c) for c in f] for f in wit["factors"]]
    assert poly_mul(Q, factors[0], factors[1]) == [Fraction(4), 0, 0, 0, Fraction(1)]
    assert factors == [[2, 2, 1], [2, -2, 1]] or factors == [[2, -2, 1], [2, 2, 1]]
    # independent check that X^3 - 2 has no rational root (degree 3: no root
    # means irreducible); candidate roots divide the constant term
    for num in (1, -1, 2, -2):
        assert Fraction(num) ** 3 != 2


def test_binomial_criterion_gf7():
    F7 = FiniteField(7, 1)
    assert binomial_irreducible(F7, 3, 3) is True
    assert is_irreducible_ff(F7, binomial_poly(F7, 3, 3))
    assert binomial_irreducible(F7, 6, 3) is False
    wit = reducible_binomial_witness(F7, 6, 3)
    assert wit["kind"] == "power_factor"


def test_binomial_witnesses_verified_divisors():
    F = FiniteField(5, 1)
    for alpha in range(1, F.q):
        for n in range(2, 9):
            wit = reducible_binomial_witness(F, alpha, n)
            if wit is None:
                continue
            if wit["kind"] == "power_factor":
                divisor = [F.elem_from_json(c) for c in wit["divisor"]]
                _, rem = poly_divmod(F, binomial_poly(F, n, alpha), divisor)
                assert rem == []


def test_is_field_p_primary_fixtures():
    # Q[X]/(X^4+4) is not a field even though -4 is not a square
    d = is_field_p_primary(GradedFieldSpec(FinAbGroup((4,)), (Fraction(-4),), Q))
    assert d.is_false
    assert d.witness["kind"] == "sum_of_squares_split"
    # GF(7) with a Z_3 grading by a non-cube: GF(343)
    d = is_field_p_primary(GradedFieldSpec(FinAbGroup((3,)), (3,), FiniteField(7, 1)))
    assert d.is_true
    # Q(sqrt 2)
    d = is_field_p_primary(GradedFieldSpec(FinAbGroup((2,)), (Fraction(2),), Q))
    assert d.is_true
    # Q(zeta_8) as Q[X]/(X^4+1): a field
    d = is_field_p_primary(GradedFieldSpec(FinAbGroup((4,)), (Fraction(-1),), Q))
    assert d.is_true


def test_is_field_p_primary_towers_over_gf():
    # depth-2 tower over GF(7): orders (3, 3) with independent cube classes
    F7 = FiniteField(7, 1)
    d = is_field_p_primary(GradedFieldSpec(FinAbGroup((3, 3)), (3, 5), F7))
    # 3 and 5 lie in different nontrivial cube classes; the necessary
    # condition requires independence, i.e. |U| = 9 in a group of order 3
    assert d.is_false
    d = is_field_p_primary(GradedFieldSpec(FinAbGroup((9,)), (3,), F7))
    assert d.is_true  # GF(7^9)
    d2 = is_field_p_primary(GradedFieldSpec(FinAbGroup((2, 2)), (3, 5), FiniteField(11, 1)))
    assert d2.is_false


def test_is_field_exponent2_rational():
    d = is_field_exponent2(GradedFieldSpec(FinAbGroup((2, 2)), (Fraction(2), Fraction(3)), Q))
    assert d.is_true
    d = is_field_exponent2(GradedFieldSpec(FinAbGroup((2, 2)), (Fraction(2), Fraction(8)), Q))
    assert d.is_false
    assert d.witness["kind"] == "zero_divisor"
    # the witness multiplies to zero inside the 4-dimensional table; the
    # check is internal but re-verify here
    spec = GradedFieldSpec(FinAbGroup((2, 2)), (Fraction(2), Fraction(8)), Q)
    A = spec_algebra(spec)
    left = {int(k): Q.elem_from_json(v) for k, v in d.witness["left"].items()}
    right = {int(k): Q.elem_from_json(v) for k, v in d.witness["right"].items()}
    assert left and right
    assert A.mul_vec(left, right) == {}


def test_is_field_exponent2_dim8_over_gf3():
    # three quadratic factors over GF(3): criterion vs exhaustive search in
    # the 8-dimensional table (the largest case where the scan is feasible)
    from itertools import product as iproduct

    F3 = FiniteField(3, 1)
    for mus in iproduct(range(1, F3.q), repeat=3):
        spec = GradedFieldSpec(FinAbGroup((2, 2, 2)), mus, F3)
        decision = is_field_exponent2(spec)
        found = zero_divisor_search(spec_algebra(spec))
        assert decision.is_true == (found is None), mus
        # over GF(3) the square-class group has order 2, so three classes
        # can never be independent
        assert decision.is_false


def test_is_field_exponent2_char2_rejected():
    with pytest.raises(GradedFieldError):
        is_field_exponent2(GradedFieldSpec(FinAbGroup((2,)), (1,), FiniteField(2, 1)))


def test_square_class_dependency_is_the_first_relation_in_input_order():
    F5 = FiniteField(5, 1)
    # 1 is a square already; the subset scan once answered [1] (4 = 2^2)
    assert square_class_dependency(F5, [1, 4]) == [0]
    assert square_class_dependency(F5, [2, 3]) == [0, 1]
    assert square_class_dependency(F5, [2]) is None
    assert square_class_dependency(Q, [Fraction(2), Fraction(3), Fraction(6)]) == [0, 1, 2]
    assert square_class_dependency(Q, [Fraction(-2), Fraction(3), Fraction(-8)]) == [0, 2]
    assert square_class_dependency(Q, [Fraction(-1), Fraction(2)]) is None
    R = RealField()
    assert square_class_dependency(R, [Fraction(-1), Fraction(-4)]) == [0, 1]
    assert square_class_dependency(R, [Fraction(-1), Fraction(3)]) == [1]


@given(
    st.lists(st.sampled_from([1, 2, 3, 4, 6, 8]), min_size=1, max_size=3),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_is_field_over_r_is_true_only_for_r_and_c(orders, mus):
    # the only finite field extensions of R are R and C
    G = FinAbGroup(tuple(orders))
    spec = GradedFieldSpec(G, tuple(mus[: G.rank]), RealField())
    try:
        decision = is_field_general(spec)
    except ValueError as exc:
        # a split whose root is irrational has no witness in the Q model
        assert "has no representative in the Q model of R" in str(exc)
        return
    dim = G.order
    if decision.is_true:
        assert dim == 1 or (dim == 2 and [mu for n, mu in zip(orders, mus) if n == 2] [0] < 0), (orders, mus)
    else:
        assert decision.is_false, decision


def test_is_field_general_examples():
    # Z_6 over Q with mu = 2: both Q(sqrt 2) and Q(cbrt 2) steps are fields
    d = is_field_general(GradedFieldSpec(FinAbGroup((6,)), (Fraction(2),), Q))
    assert d.is_true
    # any unit mu = 1 with n > 1 kills it
    d = is_field_general(GradedFieldSpec(FinAbGroup((3,)), (Fraction(1),), Q))
    assert d.is_false
    # GF(5), Z_2 x Z_2, mu = (2, 3): 2*3 = 1 mod 5 is a square
    F5 = FiniteField(5, 1)
    d = is_field_general(GradedFieldSpec(FinAbGroup((2, 2)), (2, 3), F5))
    assert d.is_false
    A = spec_algebra(GradedFieldSpec(FinAbGroup((2, 2)), (2, 3), F5))
    assert zero_divisor_search(A) is not None
    # undecided channel: odd prime tower of depth 2 over Q
    d = is_field_general(GradedFieldSpec(FinAbGroup((9, 3)), (Fraction(2), Fraction(3)), Q))
    assert d.verdict == "undecided"


def test_cyclotomic_fixture_z2xz2_grading_of_q_zeta8():
    # Q(sqrt2, i) as a Z_2 x Z_2 graded extension of Q: mu = (2, -1)
    spec = GradedFieldSpec(FinAbGroup((2, 2)), (Fraction(2), Fraction(-1)), Q)
    assert is_field_general(spec).is_true
    A = spec_algebra(spec)
    assert is_graded_division(A)[0]
    # and the same field regraded by Z_4 via X^4 = -1
    spec4 = GradedFieldSpec(FinAbGroup((4,)), (Fraction(-1),), Q)
    assert is_field_general(spec4).is_true


def test_ff_grading_exists_examples():
    assert ff_grading_exists(3, 1, 4).is_false
    assert ff_grading_exists(7, 1, 3).is_true
    assert ff_grading_exists(5, 1, 4).is_true  # 4 | 5 - 1
    assert ff_grading_exists(7, 1, 4).is_false  # 4 divides k, 4 does not divide 6
    # trivial k
    assert ff_grading_exists(7, 1, 1).is_true


def test_ff_grading_exists_example_families():
    # GF(2^{q^a}): every grading is trivial
    for ell, k in ((1, 2), (2, 2), (1, 4), (3, 3), (1, 3), (2, 4), (1, 8), (5, 5)):
        assert ff_grading_exists(2, ell, k).is_false
    # GF(p^{q ell}) with q | p^ell - 1 admits a Z_q grading
    for p, ell, q in ((7, 1, 3), (7, 1, 2), (3, 2, 2), (5, 1, 2), (11, 1, 5), (3, 1, 2)):
        assert (p**ell - 1) % q == 0
        assert ff_grading_exists(p, ell, q).is_true


def test_ff_grading_mus():
    F7 = FiniteField(7, 1)
    mus = ff_grading_mus(F7, 3)
    assert mus == [2, 3, 4, 5]  # computed: the non-cubes of GF(7)
    for mu in range(1, F7.q):
        irreducible = is_irreducible_ff(F7, binomial_poly(F7, 3, mu))
        assert (mu in mus) == irreducible


def test_frobenius_grading_families():
    for p, ell, q in ((7, 1, 3), (3, 2, 2), (2, 2, 3)):
        A, info = frobenius_grading(p, ell, q)
        assert A.group.orders == (q,)
        assert A.dim == q
        assert is_graded_division(A)[0]
        assert identity_component(A).dim == 1
        # the grading group must be cyclic and the support torsion
        for d in A.degrees:
            assert A.group.element_order(d) in (1, q)
    with pytest.raises(GradedFieldError):
        frobenius_grading(3, 1, 4)  # 4 not prime
    with pytest.raises(GradedFieldError):
        frobenius_grading(2, 1, 3)  # 3 does not divide 2 - 1


def test_embed_field_homomorphism():
    F = FiniteField(3, 2)
    big = FiniteField(3, 4)
    emb, restrict = embed_field(F, big)
    for a in F.elements():
        assert restrict(emb(a)) == a
        for b in F.elements():
            assert emb(F.add(a, b)) == big.add(emb(a), emb(b))
            assert emb(F.mul(a, b)) == big.mul(emb(a), emb(b))
    image = {emb(a) for a in F.elements()}
    with pytest.raises(GradedFieldError, match="is not in the image of GF"):
        restrict(next(y for y in big.elements() if y not in image))


def test_embeddings_are_multiplicative_on_every_proper_subfield_pair():
    pairs = 0
    for p in (q for q in range(2, 64) if factorint(q) == {q: 1}):
        for L in range(2, 13):
            if p**L > 4096:
                break
            big = FiniteField(p, L)
            for ell in (d for d in range(1, L) if L % d == 0):
                small = FiniteField(p, ell)
                emb, restrict = embed_field(small, big)
                image = [emb(x) for x in small.elements()]
                assert [restrict(y) for y in image] == list(small.elements()) and len(set(image)) == small.q
                assert emb(small.one) == big.one
                assert reference_embedding_is_multiplicative(small, big, emb), (small, big)
                pairs += 1
    assert pairs == 57


def test_kummer_grading_examples():
    F7 = FiniteField(7, 1)
    # trivial Lambda: 6 is a cube, so Lambda = cubes and the extension is F itself
    A, info = kummer_grading(KummerSpec(F7, 3, (6,)))
    assert A.dim == 1
    # Lambda = <3>: Z_3-graded GF(343)
    A3, _ = kummer_grading(KummerSpec(F7, 3, (3,)))
    assert A3.dim == 3
    assert is_graded_division(A3)[0]
    # GF(5), n = 2, Lambda = <2, 3>: quotient has order 2 here
    F5 = FiniteField(5, 1)
    A5, info5 = kummer_grading(KummerSpec(F5, 2, (2, 3)))
    assert info5["grading_group_order"] == 2
    assert A5.dim == 2
    with pytest.raises(GradedFieldError):
        KummerSpec(FiniteField(7, 1), 4, (3,))  # 4 does not divide 6


def test_frobenius_vs_kummer_isomorphic():
    A, _ = frobenius_grading(7, 1, 3)
    K, _ = kummer_grading(KummerSpec(FiniteField(7, 1), 3, (3,)))
    assert graded_iso_1dim(A, K) is not None


def test_dual_galois_check():
    A, _ = frobenius_grading(7, 1, 3)
    ok, info = dual_galois_check(A)
    assert ok and info["automorphisms"] == 3
    K, _ = kummer_grading(KummerSpec(FiniteField(5, 1), 2, (2, 3)))
    ok, info = dual_galois_check(K)
    assert ok and info["automorphisms"] == 2
    # order-4 support over GF(5): four automorphisms
    K4, info4 = kummer_grading(KummerSpec(FiniteField(5, 1), 4, (2,)))
    assert info4["grading_group_order"] == 4
    ok, info = dual_galois_check(K4)
    assert ok and info["automorphisms"] == 4
    # trivial grading: single automorphism
    T, _ = kummer_grading(KummerSpec(FiniteField(7, 1), 3, (6,)))
    ok, info = dual_galois_check(T)
    assert ok and info["automorphisms"] == 1
    # the whole report, over GF(25) and for an order-4 support over GF(13)
    A25, _ = frobenius_grading(5, 2, 3)
    assert dual_galois_check(A25) == (True, {"automorphisms": 3, "fixed_component": "identity"})
    K13, info13 = kummer_grading(KummerSpec(FiniteField(13, 1), 4, (2,)))  # 2 generates GF(13)^x
    assert info13["grading_group_order"] == 4
    assert dual_galois_check(K13) == (True, {"automorphisms": 4, "fixed_component": "identity"})


def test_spec_algebra_supports_are_torsion():
    spec = GradedFieldSpec(FinAbGroup((6,)), (Fraction(2),), Q)
    A = spec_algebra(spec)
    for d in A.degrees:
        assert A.group.element_order(d) >= 1  # finite order by construction
    # finite-field graded fields have cyclic support in all fixtures
    A3, _ = frobenius_grading(7, 1, 3)
    assert len(A3.group.orders) == 1


def _frobenius_rank_and_fixed_dim(A):
    """Rank of x -> x^q and the dimension of its fixed space, recomputed
    here to classify which half of Berlekamp's criterion decides A."""
    F = A.field
    n = A.dim
    cols = [dense(F, A.vec_power(A.basis_vec(j), F.q), n) for j in range(n)]
    phi = [[cols[j][i] for j in range(n)] for i in range(n)]
    shifted = [[F.sub(phi[i][j], F.one if i == j else F.zero) for j in range(n)] for i in range(n)]
    return rank(F, phi), n - rank(F, shifted)


# the Frobenius (p, ell, q) and Kummer (p, n) sizes of the field-decisions
# benchmark catalogue
FIELD_DECISIONS_FROBENIUS = ((3, 1, 2), (7, 1, 3), (13, 1, 3), (2, 2, 3), (19, 1, 3), (31, 1, 3), (5, 2, 3))
FIELD_DECISIONS_KUMMER = ((7, 3), (5, 4), (19, 3), (11, 2), (13, 4), (31, 3))


def _differential_algebras():
    # the spec algebras the scan-based tests enumerate
    for q, orders in ((3, (2, 2, 2)), (3, (2,)), (3, (2, 2)), (5, (2,)), (5, (2, 2)), (7, (2,)), (7, (2, 2)), (11, (2,)), (11, (2, 2))):
        F = FiniteField(q, 1)
        for mus in iproduct(range(1, F.q), repeat=len(orders)):
            yield spec_algebra(GradedFieldSpec(FinAbGroup(orders), mus, F))
    # Z_n over GF(p) with mu = 1: X^n - 1 is (X - 1)^n for n = p (not
    # reduced) and a product of n distinct linear factors for n | p - 1
    for p, n in ((2, 2), (3, 3), (5, 5), (5, 2), (7, 3), (13, 4)):
        yield spec_algebra(GradedFieldSpec(FinAbGroup((n,)), (1,), FiniteField(p, 1)))
    for p, ell, q in FIELD_DECISIONS_FROBENIUS:
        yield frobenius_grading(p, ell, q)[0]
    for p, n in FIELD_DECISIONS_KUMMER:
        F = FiniteField(p, 1)
        yield kummer_grading(KummerSpec(F, n, (F.generator(),)))[0]


def test_is_field_by_frobenius_matches_zero_divisor_scan():
    modes = {"not_reduced": 0, "several_factors": 0, "field": 0}
    for A in _differential_algebras():
        verdict = is_field_by_frobenius(A)
        assert verdict == (zero_divisor_search(A) is None), (A.field.descriptor(), A.group.orders, A.table)
        phi_rank, fixed_dim = _frobenius_rank_and_fixed_dim(A)
        if phi_rank < A.dim:
            modes["not_reduced"] += 1
        elif fixed_dim > 1:
            modes["several_factors"] += 1
        else:
            modes["field"] += 1
    assert all(modes.values()), modes


def _p_power_class_independent_by_search(field, mus, p):
    """Reference: no nontrivial exponent vector in {0..p-1}^m makes the
    product of the mu_i powers a p-th power."""
    for combo in iproduct(range(p), repeat=len(mus)):
        if not any(combo):
            continue
        acc = field.one
        for e, mu in zip(combo, mus):
            acc = field.mul(acc, field.power(mu, e))
        if field.is_nth_power(acc, p):
            return False
    return True


def test_p_power_class_rule_matches_search():
    rng = random.Random(7)
    compared = 0
    for q in range(2, 50):
        fact = factorint(q)
        if len(fact) != 1:
            continue
        (char, ell), = fact.items()
        F = FiniteField(char, ell)
        units = list(range(1, F.q))
        for p in (2, 3, 5, 7):
            for m in (1, 2, 3):
                tuples = list(iproduct(units, repeat=m))
                if len(tuples) > 200:
                    tuples = rng.sample(tuples, 200)
                for mus in tuples:
                    expected = _p_power_class_independent_by_search(F, mus, p)
                    assert _p_power_class_independent(F, list(mus), p) == expected, (q, p, mus)
                    compared += 1
    assert compared > 10000


def test_dual_galois_check_failure_branches():
    F7 = FiniteField(7, 1)
    A = spec_algebra(GradedFieldSpec(FinAbGroup((3,)), (1,), F7))
    assert dual_galois_check(A) == (False, {"reason": "zero divisor found"})
    G = FinAbGroup((3, 3))
    beta = AltBicharacter.from_pairs(G, [(0, 1, 2)], F7)  # 2 has order 3 in GF(7)^x
    B = construct(G, beta, MuFunction(G, (3, 5)), F7, verify=True)
    assert dual_galois_check(B) == (False, {"reason": "not commutative"})


def test_dual_galois_check_frobenius_p11_q5():
    # dimension 5 over GF(11): 16105 projective vectors for a zero-divisor scan
    A, _ = frobenius_grading(11, 1, 5)
    assert dual_galois_check(A) == (True, {"automorphisms": 5, "fixed_component": "identity"})
