import random
import re
from fractions import Fraction
from math import gcd, prod

import pytest
from helpers import cyclotomic_conjugate, is_irreducible_ff, reference_field_tables, reference_is_prime
from hypothesis import given, settings, strategies as st

from gradeddiv.exactfield import (
    FIELD_TABLE_BOUND,
    CyclotomicField,
    FieldError,
    FiniteField,
    RationalField,
    RealField,
    _gfp_mod,
    _gfp_mul,
    Residues,
    binomial_poly,
    cyclotomic_polynomial,
    gfp_is_irreducible,
    minus4_fourth_power_test,
    poly_eval,
)
from gradeddiv.intutil import PRIME_TEST_BOUND, is_prime

Q = RationalField()
R = RealField()

nonzero_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=30
).filter(lambda x: x != 0)


def _order(F, x) -> int:
    """Least k >= 1 with x^k = 1, by repeated multiplication."""
    k, acc = 1, x
    while acc != F.one:
        acc = F.mul(acc, x)
        k += 1
    return k


def _square_class_rep(x: Fraction) -> Fraction:
    """The squarefree integer, with the sign of x, in the square class of x."""
    _, sign, exps = Q.nth_power_class(x, 2)
    return Fraction(sign * prod(p**e for p, e in exps))


def test_ff_construct_examples():
    assert FiniteField(2, 1).q == 2
    F7 = FiniteField(7, 1)
    assert [F7.mul(3, x) for x in range(7)] == [(3 * x) % 7 for x in range(7)]
    F9 = FiniteField(3, 2)
    assert F9.q == 9
    for x in F9.elements():
        assert F9.power(x, 9) == x
    with pytest.raises(FieldError):
        FiniteField(6, 1)


def test_ff_modulus_deterministic():
    a = FiniteField(3, 2)
    b = FiniteField(3, 2)
    assert a.modulus == b.modulus
    # the default modulus is the first monic irreducible in digit order
    assert a.modulus == (1, 0, 1)
    c = FiniteField(3, 2, modulus=(2, 2, 1))
    assert c.q == 9 and c != a  # another modulus still yields a valid field


def test_field_axioms_exhaustive_small():
    for p, ell in ((2, 2), (3, 2), (2, 3), (5, 1), (7, 1), (2, 4), (3, 4)):
        F = FiniteField(p, ell)
        els = list(F.elements())
        for a in els:
            assert F.add(a, 0) == a and F.mul(a, F.one) == a
            if a:
                assert F.mul(a, F.inv(a)) == F.one
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_is_nth_power_matches_bruteforce():
    for p, ell in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3), (11, 1), (13, 1), (11, 2)):
        F = FiniteField(p, ell)
        if F.q > 121:
            continue
        for n in range(1, 13):
            powers = {F.power(y, n) for y in range(1, F.q)}
            for x in range(1, F.q):
                assert F.is_nth_power(x, n) == (x in powers)


def test_gf7_cubes():
    F7 = FiniteField(7, 1)
    cubes = sorted({F.power(x, 3) for F in (F7,) for x in range(1, F7.q)})
    assert cubes == [1, 6]
    assert not F7.is_nth_power(3, 3)
    assert F7.is_nth_power(1, 3)


def test_rational_powers():
    assert Q.is_nth_power(Fraction(4), 2)
    assert not Q.is_nth_power(Fraction(8), 2)
    assert Q.is_nth_power(Fraction(8), 3)
    assert Q.is_nth_power(Fraction(1), 12)
    assert not Q.is_nth_power(Fraction(-4), 2)
    assert Q.is_nth_power(Fraction(-8), 3)
    with pytest.raises(FieldError):
        Q.is_nth_power(Fraction(0), 2)


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=80, deadline=None)
def test_square_class_multiplicative(x, y):
    # class(xy) is determined by class(x) * class(y): compare squarefree parts
    cx = _square_class_rep(x)
    cy = _square_class_rep(y)
    cxy = _square_class_rep(x * y)
    assert Q.nth_power_class(cx * cy, 2) == Q.nth_power_class(cxy, 2)


def test_nth_root():
    assert Q.nth_root(Fraction(-27), 3) == -3
    assert Q.nth_root(Fraction(16, 81), 4) == Fraction(2, 3)
    assert Q.nth_root(Fraction(0), 5) == 0
    F7 = FiniteField(7, 1)
    y = F7.nth_root(6, 3)
    assert F7.power(y, 3) == 6
    # no root in the field: None, where the old helper raised
    assert Q.nth_root(Fraction(2), 2) is None
    assert F7.nth_root(3, 3) is None


# the prime powers q <= 32
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1),
                (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5)]


def test_finite_field_roots_and_power_classes_match_bruteforce():
    for p, ell in SMALL_FIELDS:
        F = FiniteField(p, ell)
        roots = F.roots_of_unity()
        assert F.nth_root(0, 3) == 0
        for n in range(1, 17):
            for x in range(1, F.q):
                # the first root in roots_of_unity order, or None
                assert F.nth_root(x, n) == next((y for y in roots if F.power(y, n) == x), None), (F.q, x, n)
        for prime in (2, 3, 5, 7):
            powers = {F.power(y, prime) for y in range(1, F.q)}
            for x in range(1, F.q):
                vec = F.power_class_vector(x, prime)
                assert set(vec) <= {0} and all(0 < c < prime for c in vec.values())
                for y in range(1, F.q):
                    same = vec == F.power_class_vector(y, prime)
                    assert same == (F.div(x, y) in powers), (F.q, prime, x, y)


def _small_rationals(bound: int = 40, denominators: int = 12):
    return sorted({Fraction(a, b) for a in range(-bound, bound + 1) if a for b in range(1, denominators + 1)})


def test_rational_roots_and_power_classes_match_bruteforce():
    xs = _small_rationals()
    for x in xs:
        for n in range(1, 6):
            # a root r/s of a/b in lowest terms has r^n = |a| and s^n = b
            a, b = abs(x.numerator), x.denominator
            found = [
                Fraction(sign * r, t)
                for r in range(a + 1) if r**n <= a
                for t in range(1, b + 1) if t**n <= b
                for sign in (1, -1)
                if Fraction(sign * r, t) ** n == x
            ]
            expected = max(found) if found else None  # the positive root for even n
            assert Q.nth_root(x, n) == expected, (x, n)
            if expected is not None or (x < 0 and n % 2 == 0):
                assert R.nth_root(x, n) == expected
            else:
                with pytest.raises(FieldError, match=re.escape(f" has no representative in the Q model of R")):
                    R.nth_root(x, n)
    for prime in (2, 3, 5):
        sample = xs[:: 7]
        for x in sample:
            vec = Q.power_class_vector(x, prime)
            assert R.power_class_vector(x, prime) == ({-1: 1} if prime == 2 and x < 0 else {})
            for y in sample:
                # same class iff x / y is a p-th power, decided by the root
                assert (vec == Q.power_class_vector(y, prime)) == (Q.nth_root(x / y, prime) is not None)


def test_rational_roots_need_no_factoring(monkeypatch):
    monkeypatch.setenv("GDA_FACTOR_BOUND", "100")
    Qb = RationalField()
    big = Fraction(10007 * 10009, 10037)
    assert Qb.nth_root(big**2, 2) == big
    assert Qb.nth_root(-(big**3), 3) == -big
    assert Qb.nth_root(big, 2) is None
    with pytest.raises(ValueError, match="100"):
        Qb.power_class_vector(big, 2)


def test_refused_roots_name_the_root():
    with pytest.raises(FieldError, match=re.escape("sqrt(2) has no representative in the Q model of R")):
        R.nth_root(Fraction(2), 2)
    with pytest.raises(FieldError, match=re.escape("(-3/2)^(1/3) has no representative in the Q model of R")):
        R.nth_root(Fraction(-3, 2), 3)
    assert R.nth_root(Fraction(-2), 2) is None
    C3 = CyclotomicField(3)
    with pytest.raises(FieldError, match=re.escape("(['2/1', '1/1'])^(1/3) has no representative in the Q(zeta_3) model")):
        C3.nth_root(C3.add(C3.from_int(2), C3.zeta), 3)


@pytest.mark.parametrize("N", [1, 3, 4, 5, 8, 12])
def test_cyclotomic_roots_of_roots_of_unity(N):
    C = CyclotomicField(N)
    roots = C.roots_of_unity()
    for x in roots:
        for n in range(1, 9):
            y = C.nth_root(x, n)
            assert y == next((r for r in roots if C.power(r, n) == x), None)
    assert C.nth_root(C.zero, 2) == C.zero
    # -1 has a square root exactly when 4 | M
    assert (C.nth_root(C.from_int(-1), 2) is None) == (C.M % 4 != 0)


def test_minus4_test():
    assert minus4_fourth_power_test(Q, Fraction(-4))
    assert minus4_fourth_power_test(Q, Fraction(-64))
    assert not minus4_fourth_power_test(Q, Fraction(2))
    # characteristic 2: -4 = 0, the test is vacuous
    assert not minus4_fourth_power_test(FiniteField(2, 2), 1)


def test_real_field_sign_classes():
    assert R.is_nth_power(Fraction(-8), 3)
    assert not R.is_nth_power(Fraction(-8), 2)
    assert R.nth_power_class(Fraction(5), 2) == R.nth_power_class(Fraction(7), 2)
    assert R.nth_power_class(Fraction(-5), 2) != R.nth_power_class(Fraction(7), 2)


def test_ff_roots_of_unity_and_generator():
    F7 = FiniteField(7, 1)
    g = F7.generator()
    assert _order(F7, g) == 6
    assert set(F7.roots_of_unity()) == set(range(1, F7.q))
    z = F7.unity_root(3)
    assert _order(F7, z) == 3


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_field_basics():
    assert CyclotomicField(1).zeta == CyclotomicField(1).one
    C2 = CyclotomicField(2)
    assert C2.zeta == C2.neg(C2.one)
    C4 = CyclotomicField(4)
    assert C4.mul(C4.zeta, C4.zeta) == C4.neg(C4.one)

    C8 = CyclotomicField(8)
    z = C8.zeta
    assert C8.power(z, 4) == C8.neg(C8.one)
    for k in range(1, 8):
        assert C8.power(z, k) != C8.one
    assert C8.power(z, 8) == C8.one
    # (zeta + zeta^7)^2 = 2, i.e. zeta + conj(zeta) = sqrt(2)
    w = C8.add(z, C8.zeta_pow(7))
    assert C8.mul(w, w) == C8.from_int(2)
    phi8 = [C8.coerce([c]) for c in (1, 0, 0, 0)]
    phi8 = [C8.one, C8.zero, C8.zero, C8.zero, C8.one]
    assert poly_eval(C8, phi8, z) == C8.zero


def test_cyclotomic_json_reads_an_over_long_list_mod_phi():
    C4 = CyclotomicField(4)
    assert C4.elem_from_json(["1/1", "0/1", "1/1"]) == C4.zero
    # 2 zeta^3 = -2 zeta; a short list is padded with zeros
    assert C4.elem_from_json(["0/1", "0/1", "0/1", "2/1"]) == C4.coerce([0, -2])
    assert C4.elem_from_json(["1/2"]) == C4.coerce([Fraction(1, 2)])


def test_cyclotomic_inverse_and_conjugation():
    C8 = CyclotomicField(8)
    x = C8.add(C8.zeta, C8.from_int(3))
    assert C8.mul(x, C8.inv(x)) == C8.one

    def conj(v):
        return cyclotomic_conjugate(C8, v)

    assert conj(conj(x)) == x
    y = C8.add(C8.zeta_pow(3), C8.from_int(-2))
    assert conj(C8.mul(x, y)) == C8.mul(conj(x), conj(y))
    # zeta_4 = i goes to -i; below N = 3 every element is real
    C4 = CyclotomicField(4)
    assert cyclotomic_conjugate(C4, C4.zeta) == C4.neg(C4.zeta)
    for C in (CyclotomicField(1), CyclotomicField(2)):
        assert cyclotomic_conjugate(C, C.add(C.zeta, C.from_int(3))) == C.add(C.zeta, C.from_int(3))


def test_cyclotomic_roots_of_unity():
    C3 = CyclotomicField(3)
    roots = C3.roots_of_unity()
    assert len(roots) == 6 == len(set(roots))
    for r in roots:
        assert C3.power(r, 6) == C3.one
    assert _order(C3, C3.neg(C3.zeta)) == 6
    C4 = CyclotomicField(4)
    assert len(C4.roots_of_unity()) == 4


def test_rabin_irreducibility_smoke():
    F7 = FiniteField(7, 1)
    assert is_irreducible_ff(F7, binomial_poly(F7, 3, 3))
    assert not is_irreducible_ff(F7, binomial_poly(F7, 3, 6))
    F2 = FiniteField(2, 1)
    # X^2 + X + 1 irreducible, X^2 + 1 = (X+1)^2 reducible
    assert is_irreducible_ff(F2, [1, 1, 1])
    assert not is_irreducible_ff(F2, [1, 0, 1])


def test_factor_bound_env(monkeypatch):
    from gradeddiv.intutil import FactorBoundExceeded, factor_bound, factorint

    monkeypatch.setenv("GDA_FACTOR_BOUND", "10")
    assert factor_bound() == 10
    with pytest.raises(FactorBoundExceeded):
        factorint(10007 * 10009, bound=10)
    # small inputs still factor fine under the tight bound
    assert factorint(360, bound=10) == {2: 3, 3: 2, 5: 1}
    monkeypatch.setenv("GDA_FACTOR_BOUND", "nope")
    with pytest.raises(ValueError):
        factor_bound()


def test_elem_json_roundtrip():
    F9 = FiniteField(3, 2)
    for x in F9.elements():
        assert F9.elem_from_json(F9.elem_to_json(x)) == x
    C8 = CyclotomicField(8)
    x = C8.add(C8.zeta, C8.from_int(3))
    assert C8.elem_from_json(C8.elem_to_json(x)) == x
    assert Q.elem_from_json(Q.elem_to_json(Fraction(-3, 7))) == Fraction(-3, 7)


def _assert_tables_match_reference(F, logs_checked=None):
    """Generator and walk against the reference tables, and the logs of every
    unit, or of a seeded sample of logs_checked units."""
    exp, log = reference_field_tables(F.p, F.ell, F.modulus)
    assert F.generator() == (exp[1] if F.q > 2 else 1)
    assert F.roots_of_unity() == tuple(exp)
    units = range(1, F.q) if logs_checked is None else random.Random(F.q).sample(range(1, F.q), logs_checked)
    assert [F.dlog(x) for x in units] == [log[x] for x in units]


PRIME_POWERS_TO_1024 = [(p, ell) for p in range(2, 1025) if is_prime(p) for ell in range(1, 11) if p**ell <= 1024]


def _random_moduli():
    """Three random monic irreducible moduli for each GF(p^ell), ell >= 2,
    of at most 729 elements, drawn in a fixed order from a fixed seed."""
    rng = random.Random(20191)
    for p, ell in PRIME_POWERS_TO_1024:
        if ell < 2 or p**ell > 729:
            continue
        for _ in range(3):
            while True:
                modulus = [rng.randrange(p) for _ in range(ell)] + [1]
                if gfp_is_irreducible(modulus, p):
                    break
            yield p, ell, modulus


def test_field_tables_match_generic_product_reference():
    for p, ell in PRIME_POWERS_TO_1024:
        _assert_tables_match_reference(FiniteField(p, ell))
    for p, ell, modulus in _random_moduli():
        _assert_tables_match_reference(FiniteField(p, ell, modulus=modulus))
    # the extension fields the field-decisions benchmark builds; above 1024
    # elements a logarithm is a Pohlig-Hellman run, so 1000 of them are checked
    for p, ell in ((13, 4), (31, 3), (5, 6), (19, 3), (2, 10), (31, 2)):
        _assert_tables_match_reference(FiniteField(p, ell), 1000 if p**ell > 1024 else None)


def test_logs_roots_and_power_classes_match_the_reference_tables():
    fields = [FiniteField(p, ell) for p, ell in PRIME_POWERS_TO_1024 if p**ell <= 64]
    fields += [FiniteField(p, ell, modulus=modulus) for p, ell, modulus in _random_moduli() if p**ell <= 64]
    assert len(fields) == 27 + 3 * 9  # 18 primes, 9 proper prime powers
    for F in fields:
        exp, log = reference_field_tables(F.p, F.ell, F.modulus)
        m = F.q - 1
        assert [F.dlog(x) for x in range(1, F.q)] == [log[x] for x in range(1, F.q)]
        coprime = next(n for n in range(2, 2 * F.q) if gcd(n, m) == 1)
        for n in [d for d in range(1, m + 1) if m % d == 0] + [coprime]:
            if m % n == 0:
                assert F.unity_root(n) == exp[m // n % m]
            for x in range(1, F.q):
                # the y = g^t with y^n = x and t least, as g^t has n-th power g^(t n)
                assert F.nth_root(x, n) == next((exp[t] for t in range(m) if exp[t * n % m] == x), None), (F, n, x)
            assert F.nth_root(0, n) == 0
        for r in (2, 3, 5, 7):
            for x in range(1, F.q):
                e = log[x] % r if m % r == 0 else 0
                assert F.power_class_vector(x, r) == ({0: e} if e else {})
        for n in (m + 1, 2 * m):
            with pytest.raises(FieldError, match="no primitive"):
                F.unity_root(n)


def test_gf_2_20_tables():
    F = FiniteField(2, 20)
    m = F.q - 1
    exp = F.roots_of_unity()
    assert sorted(exp) == list(range(1, F.q))
    gen = list(F.to_vec(F.generator()))
    mod = list(F.modulus)
    for k in random.Random(2020).sample(range(m), 1000):
        assert F.dlog(exp[k]) == k
        product_ = _gfp_mod(_gfp_mul(list(F.to_vec(exp[k])), gen, 2), mod, 2)
        assert exp[(k + 1) % m] == F.from_vec(product_)


def test_oversized_field_is_refused():
    assert FIELD_TABLE_BOUND == 2**23
    for p, ell in ((2, 24), (2, 40), (13, 7), (2, 10**12), (2**61 - 1, 1)):
        with pytest.raises(FieldError, match=str(FIELD_TABLE_BOUND)):
            FiniteField(p, ell)


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == reference_is_prime(n) for n in range(-3, 10**5))
    # strong pseudoprimes to the bases 2..7 and 2..23
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n) and not reference_is_prime(n)
    assert is_prime(2**61 - 1)
    with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
        is_prime(PRIME_TEST_BOUND)


def test_residue_arithmetic_is_arithmetic_mod_p():
    P = 2**61 - 1
    Z = Residues(P)
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.randrange(1, P), rng.randrange(P)
        assert Z.mul(a, Z.inv(a)) == Z.one
        assert Z.sub(a, b) == (a - b) % P and Z.mul(a, b) == a * b % P
    assert Z.is_zero(Z.sub(b, b)) and Z.zero == 0
