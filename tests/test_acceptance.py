"""Acceptance suite.

Each criterion is one test that performs the full check at exact arithmetic
(no tolerances anywhere) and prints a single PASS line with its headline
numbers; a failed assertion marks the criterion FAIL.  Run with -s to see
the lines, or rely on the per-test pass/fail report.
"""

from fractions import Fraction
from itertools import product

import pytest

from helpers import REAL, abelian_groups_upto, is_irreducible_ff, real_mu_choices, zero_divisor_search

from gradeddiv.abelian import (
    FinAbGroup,
    all_subgroups,
    index2_subgroups,
    is_direct_summand,
    squares,
    subgroup_presentation,
    two_torsion,
)
from gradeddiv.exactfield import (
    FiniteField,
    RationalField,
    binomial_poly,
    poly_mul,
)
from gradeddiv.gradedalg import graded_iso_1dim
from gradeddiv.gradedfield import (
    GradedFieldSpec,
    KummerSpec,
    binomial_irreducible,
    dual_galois_check,
    ff_grading_exists,
    frobenius_grading,
    is_field_exponent2,
    kummer_grading,
    reducible_binomial_witness,
    spec_algebra,
)
from gradeddiv.intutil import is_prime
from gradeddiv.quasitorus import construct
from gradeddiv.realclass import (
    SubBicharacter,
    canonicalize_item3,
    census,
    class_of_admissible,
    classify_all,
    enumerate_admissible,
    enumerate_bicharacters_pm1,
    recover_label,
)

Q = RationalField()


def _small_fields():
    out = []
    for p in range(2, 64):
        if not is_prime(p):
            continue
        ell = 1
        while p**ell <= 64:
            out.append((p, ell))
            ell += 1
    return out


@pytest.fixture(scope="module")
def binomial_oracle_table():
    """Independent irreducibility data: for every GF(p^ell) with p^ell <= 64,
    n <= 12 and alpha != 0, whether X^n - alpha is irreducible, decided by
    the Rabin polynomial test (not the power-residue criterion)."""
    table = {}
    for p, ell in _small_fields():
        F = FiniteField(p, ell)
        per_field = {}
        for n in range(1, 13):
            per_field[n] = {
                alpha: is_irreducible_ff(F, binomial_poly(F, n, alpha)) for alpha in range(1, F.q)
            }
        table[(p, ell)] = (F, per_field)
    return table


def test_acceptance_1_construction_oracles():
    """All (K, beta, mu) over exact reals with |K| <= 16 pass every oracle."""
    count = 0
    for G in abelian_groups_upto(16):
        for beta in enumerate_bicharacters_pm1(G):
            for mu in real_mu_choices(G):
                construct(G, beta, mu, REAL, verify=True)  # raises on any oracle failure
                count += 1
    assert count == 1216  # group census: 25 groups of order 2..16
    print(f"\nACCEPTANCE 1: PASS - {count} constructions passed associativity "
          "and graded-division oracles (|K| <= 16, exhaustive)")


def test_acceptance_2_iso_oracle_matches_invariants():
    """Witness found iff (beta, mu) agree, exhaustively for K in {Z2, Z4, Z2xZ2}."""
    checked = 0
    for G in (FinAbGroup((2,)), FinAbGroup((4,)), FinAbGroup((2, 2))):
        algebras = []
        for beta in enumerate_bicharacters_pm1(G):
            for mu in real_mu_choices(G):
                algebras.append((beta.values, mu.gen_values, construct(G, beta, mu, REAL)))
        for beta_a, mu_a, A in algebras:
            for beta_b, mu_b, B in algebras:
                same_params = beta_a == beta_b and mu_a == mu_b
                witness = graded_iso_1dim(A, B)
                assert (witness is not None) == same_params, (G, beta_a, mu_a, beta_b, mu_b)
                if witness is not None:
                    idx_a = {d: i for i, d in enumerate(A.degrees)}
                    idx_b = {d: i for i, d in enumerate(B.degrees)}
                    for s in G.elements():
                        for t in G.elements():
                            st = G.add(s, t)
                            ca = A.entry(idx_a[s], idx_a[t])[idx_a[st]]
                            cb = B.entry(idx_b[s], idx_b[t])[idx_b[st]]
                            assert witness[s] * witness[t] * cb == ca * witness[st]
                checked += 1
    assert checked == 4 + 4 + 64
    print(f"\nACCEPTANCE 2: PASS - iso witness <=> equal (beta, mu) on {checked} pairs, "
          "zero disagreements")


def test_acceptance_3_binomial_criterion_equivalence(binomial_oracle_table):
    """Power-residue criterion vs polynomial irreducibility test: 100%
    agreement for all alpha in GF(p^ell)^x, p^ell <= 64, n <= 12; plus the
    rational fixtures X^4+4 (reducible) and X^3-2 (irreducible)."""
    checked = 0
    for (p, ell), (F, per_field) in binomial_oracle_table.items():
        for n, column in per_field.items():
            for alpha, oracle_says in column.items():
                assert binomial_irreducible(F, alpha, n) == oracle_says, (p, ell, n, alpha)
                checked += 1
    assert not binomial_irreducible(Q, Fraction(-4), 4)
    wit = reducible_binomial_witness(Q, Fraction(-4), 4)
    factors = [[Fraction(c) for c in f] for f in wit["factors"]]
    assert poly_mul(Q, factors[0], factors[1]) == [Fraction(4), 0, 0, 0, Fraction(1)]
    assert binomial_irreducible(Q, Fraction(2), 3)
    for num in (1, -1, 2, -2):  # no rational root -> the cubic is irreducible
        assert Fraction(num) ** 3 != 2
    print(f"\nACCEPTANCE 3: PASS - criterion == factorization oracle on {checked} "
          "binomials over 27 finite fields, and on both rational fixtures")


def test_acceptance_4_ff_grading_equivalence(binomial_oracle_table):
    """Grading existence conditions vs exhaustive irreducibility scan, both
    directions, including the all-false and all-true example families; the
    per-mu selection rule is cross-checked over the same range."""
    from gradeddiv.gradedfield import ff_grading_mus

    checked = 0
    for (p, ell), (F, per_field) in binomial_oracle_table.items():
        for k in range(1, 13):
            exists = ff_grading_exists(p, ell, k).is_true
            scan = any(per_field[k].values())
            assert exists == scan, (p, ell, k)
            valid = set(ff_grading_mus(F, k)) if exists else set()
            by_oracle = {alpha for alpha, irr in per_field[k].items() if irr}
            assert valid == by_oracle, (p, ell, k)
            checked += 1
    # family 1: extensions of GF(2^{q^a}) admit no nontrivial grading
    family1 = 0
    for ell in range(1, 7):
        for k in range(2, 13):
            if 2**ell > 64 or k != _prime_power_or_none(k):
                continue
            q = _prime_of(k)
            if _is_q_power(ell * k, q) and _is_q_power(k, q):
                assert ff_grading_exists(2, ell, k).is_false
                family1 += 1
    assert family1 >= 6
    # family 2: q | p^ell - 1 always admits the Z_q grading
    family2 = 0
    for p, ell in _small_fields():
        for q in (2, 3, 5, 7, 11):
            if (p**ell - 1) % q == 0:
                assert ff_grading_exists(p, ell, q).is_true
                family2 += 1
    assert family2 > 20
    print(f"\nACCEPTANCE 4: PASS - existence conditions == exhaustive mu scan on "
          f"{checked} (p, ell, k) triples; {family1} all-false and {family2} all-true family cases")


def _prime_power_or_none(k):
    from gradeddiv.intutil import prime_divisors

    ps = prime_divisors(k)
    return k if len(ps) == 1 else None


def _prime_of(k):
    from gradeddiv.intutil import prime_divisors

    return prime_divisors(k)[0]


def _is_q_power(n, q):
    while n % q == 0:
        n //= q
    return n == 1


def test_acceptance_5_exponent2_criterion_equivalence():
    """Square-class criterion vs exhaustive zero-divisor search over GF(q),
    q in {3, 5, 7, 11}, m <= 2; plus the rational fixtures."""
    cases = 0
    for q in (3, 5, 7, 11):
        F = FiniteField(q, 1)
        for m in (1, 2):
            for mus in product(range(1, F.q), repeat=m):
                spec = GradedFieldSpec(FinAbGroup((2,) * m), mus, F)
                decision = is_field_exponent2(spec)
                found = zero_divisor_search(spec_algebra(spec))
                assert decision.is_true == (found is None), (q, mus)
                cases += 1
    d = is_field_exponent2(GradedFieldSpec(FinAbGroup((2, 2)), (Fraction(2), Fraction(3)), Q))
    assert d.is_true
    d = is_field_exponent2(GradedFieldSpec(FinAbGroup((2, 2)), (Fraction(2), Fraction(8)), Q))
    assert d.is_false and d.witness["kind"] == "zero_divisor"
    A = spec_algebra(GradedFieldSpec(FinAbGroup((2, 2)), (Fraction(2), Fraction(8)), Q))
    left = {int(k): Fraction(v) for k, v in d.witness["left"].items()}
    right = {int(k): Fraction(v) for k, v in d.witness["right"].items()}
    assert A.mul_vec(left, right) == {}
    print(f"\nACCEPTANCE 5: PASS - criterion == zero-divisor scan on {cases} finite "
          "cases; rational fixtures (2,3) field / (2,8) non-field with verified witness")


# counts frozen after the first verified computation (oracle- and
# invariant-gated); the headline T=Z_2 stratum gives 2+2+2+1 = 7
FROZEN_CENSUS = {
    (2,): {((0,),): 3, ((0,), (1,)): 7},
    (4,): {((0,),): 3, ((0,), (2,)): 7, ((0,), (1,), (2,), (3,)): 7},
    (2, 2): {
        ((0, 0),): 3,
        ((0, 0), (0, 1)): 7,
        ((0, 0), (1, 0)): 7,
        ((0, 0), (1, 1)): 7,
        ((0, 0), (0, 1), (1, 0), (1, 1)): 30,
    },
}


def test_acceptance_6_real_classification_census():
    """classify-real over G in {Z2, Z4, Z2xZ2}: every representative passes
    the oracles, stratum invariants are pairwise distinct, recovered labels
    round-trip, and the counts match the frozen golden values."""
    totals = {}
    for orders, golden in FROZEN_CENSUS.items():
        G = FinAbGroup(orders)
        results = classify_all(all_subgroups(G), verify=True)  # verify=True gates every algebra
        per_stratum: dict = {}
        for r in results:
            per_stratum.setdefault(r.stratum, []).append(r)
        assert {s: len(v) for s, v in per_stratum.items()} == golden
        for stratum, entries in per_stratum.items():
            fingerprints = []
            for r in entries:
                recovered = recover_label(r.algebra)
                assert recovered.key() == r.label.key(), (stratum, r.label.item)
                fingerprints.append(recovered.key())
            assert len(set(fingerprints)) == len(fingerprints), stratum
        totals[orders] = len(results)
    assert totals == {(2,): 10, (4,): 17, (2, 2): 54}
    print("\nACCEPTANCE 6: PASS - census totals "
          f"{ {str(FinAbGroup(o)): n for o, n in totals.items()} }, all oracle-verified, "
          "stratum invariants pairwise distinct, labels recovered from tables")


def test_acceptance_7_item3_t0_independence():
    """canonicalize returns identical nu for every choice of t0: all T with
    |T| <= 16, all index-2 K, all admissible beta and nu."""
    recomputations = 0
    for T in abelian_groups_upto(16):
        if T.order % 2:
            continue
        t2 = two_torsion(T).element_set()
        sq = squares(T).element_set()
        for K in index2_subgroups(T):
            pres = subgroup_presentation(K)
            kset = K.element_set()
            k2 = sorted(g for g in t2 if g in kset)
            case = "a" if is_direct_summand(K, next(t for t in T.elements() if t not in kset)) else "b"
            for chi in enumerate_bicharacters_pm1(pres.group):
                beta = SubBicharacter(pres, chi)
                if any(beta.value_int(x, k) != 1 for x in sq for k in K.elements):
                    continue
                data = enumerate_admissible(T, K, beta, case)
                if case == "a":
                    t0s = sorted(t for t in t2 if t not in kset)
                    for nu in data:
                        outputs = set()
                        for t0 in t0s:
                            mu_t0 = {h: nu(T.add(t0, h)) * nu(t0) for h in k2}
                            outputs.add(
                                canonicalize_item3(T, K, beta, mu_t0, t0, delta_t0=nu(t0), case="a")
                            )
                            recomputations += 1
                        assert outputs == {nu}
                else:
                    t0s = sorted(t for t in T.elements() if t not in kset)
                    # a case-(b) label is one sign map; every member of its class gives it back
                    for label in data:
                        outputs = set()
                        for nu in class_of_admissible(T, K, label):
                            for t0 in t0s:
                                mu_t0 = {h: nu(T.add(t0, h)) * nu(t0) for h in k2}
                                outputs.add(canonicalize_item3(T, K, beta, mu_t0, t0, case="b"))
                                recomputations += 1
                        assert outputs == {label}
    assert recomputations > 10000
    print(f"\nACCEPTANCE 7: PASS - canonical nu identical across all t0 choices "
          f"({recomputations} recomputations, |T| <= 16 exhaustive)")


def test_acceptance_8_frobenius_kummer_cross_validation():
    """frobenius_grading(7,1,3) and kummer_grading(GF(7),3,<3>) are
    graded-isomorphic, and both pass the dual Galois check."""
    A, _ = frobenius_grading(7, 1, 3)
    B, _ = kummer_grading(KummerSpec(FiniteField(7, 1), 3, (3,)))
    witness = graded_iso_1dim(A, B)
    assert witness is not None
    ok_a, info_a = dual_galois_check(A)
    ok_b, info_b = dual_galois_check(B)
    assert ok_a and info_a["automorphisms"] == 3
    assert ok_b and info_b["automorphisms"] == 3
    print("\nACCEPTANCE 8: PASS - eigenspace and Kummer gradings of GF(343)/GF(7) "
          "are graded-isomorphic; dual Galois check passes on both")
