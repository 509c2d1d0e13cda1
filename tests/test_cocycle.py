"""The cocycle readers of gradedalg and quasitorus against the references in
helpers: the lexicographic iso search, the power constant multiplied out
from the unit, and primary_decompose's check on monomials.  iso and
primary_decompose decide by theorem on tables that pass the unit law and
associativity, so the references are compared there, and the commands
must refuse the rest.  The iso search runs over roots of unity only, so it
is compared on tables whose constants are all roots of unity; on the others
each answer of graded_iso_1dim is checked on its own terms."""

import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from helpers import (
    abelian_groups_upto,
    one_dim_index,
    reference_iso_search,
    reference_power_constant,
    reference_primary_decompose,
    structure_scalar,
)

from gradeddiv import jsonio
from gradeddiv.abelian import FinAbGroup
from gradeddiv.cli import main
from gradeddiv.exactfield import CyclotomicField, FieldError, FiniteField, RationalField, RealField
from gradeddiv.gradedalg import (
    GradedAlgebra,
    OracleError,
    commutation_bicharacter,
    graded_iso_1dim,
    mu_invariant,
    power_constant,
)
from gradeddiv.quasitorus import AltBicharacter, MuFunction, construct, primary_decompose

# at most this many candidate tuples for the exhaustive reference search,
# on a seeded sample of this many groups of order <= 16 per field
SEARCH_BOUND = 64
SHAPES_PER_FIELD = 5


def outcome(fn, *args):
    """fn's result, or the type and message of the OracleError it raises."""
    try:
        result = fn(*args)
    except OracleError as exc:
        return type(exc), str(exc)
    return list(result.items()) if isinstance(result, dict) else result


def random_algebra(rng, F, G, scalars):
    """construct(G, beta, mu) with beta drawn from the roots of unity allowed
    on each generator pair and mu drawn from scalars."""
    roots = F.roots_of_unity()
    pairs = []
    for i in range(G.rank):
        for j in range(i + 1, G.rank):
            d = gcd(G.orders[i], G.orders[j])
            pairs.append((i, j, rng.choice([c for c in roots if F.power(c, d) == F.one])))
    beta = AltBicharacter.from_pairs(G, pairs, F)
    return construct(G, beta, MuFunction(G, tuple(rng.choice(scalars) for _ in G.orders)), F, verify=False)


def rescaled(A, lam):
    """The same algebra on the basis Y_t = lam[t] X_t."""
    F = A.field
    table = {}
    for (i, j), vec in A.table.items():
        c = F.mul(lam[A.degrees[i]], lam[A.degrees[j]])
        table[(i, j)] = {k: F.div(F.mul(c, v), lam[A.degrees[k]]) for k, v in vec.items()}
    unit = {k: F.div(c, lam[A.degrees[k]]) for k, c in A.unit.items()}
    return GradedAlgebra(F, A.group, A.degrees, table, unit)


def perturbed(rng, A, scalars):
    """A with one structure constant multiplied by a scalar other than 1."""
    F = A.field
    table = dict(A.table)
    key = rng.choice(sorted(table))
    c = rng.choice([s for s in scalars if s != F.one])
    table[key] = {k: F.mul(c, v) for k, v in table[key].items()}
    return GradedAlgebra(F, A.group, A.degrees, table, dict(A.unit))


def cocycle_unital(A):
    """The unit law of a table with 1-dimensional components and unit u X_e:
    u sigma(e, t) = u sigma(t, e) = 1."""
    F, sigma, e = A.field, A.cocycle(), A.group.identity()
    (u,) = A.unit.values()
    return all(F.mul(u, sigma[(e, t)]) == F.one == F.mul(u, sigma[(t, e)]) for t in A.group.elements())


def cocycle_associative(A):
    """Associativity of a table with 1-dimensional components:
    sigma(s, t) sigma(s + t, u) = sigma(t, u) sigma(s, t + u)."""
    F, sigma, add = A.field, A.cocycle(), A.group.add
    elements = list(A.group.elements())
    return all(
        F.mul(sigma[(s, t)], sigma[(add(s, t), u)]) == F.mul(sigma[(t, u)], sigma[(s, add(t, u))])
        for s in elements
        for t in elements
        for u in elements
    )


def refusal(X):
    """The start of the message the commands give a table that fails the
    unit law or associativity, or None for a table that passes both."""
    if not cocycle_unital(X):
        return "unit law failed at basis "
    if not cocycle_associative(X):
        return "associativity failed at triple "
    return None


def normalized(X):
    """Whether every structure constant of X is a root of unity."""
    return set(X.cocycle().values()) <= set(X.field.roots_of_unity())


def check_iso_on_its_own_terms(X, Y):
    """graded_iso_1dim(X, Y) where the reference search does not apply: a
    witness solves every lambda equation; a false answer has different
    bicharacters or a generator whose power-constant ratio r has no o-th
    root (over Q and R by is_nth_power, over GF and Q(zeta_N) among the
    roots of unity); a refusal names the root the model cannot write down.
    Returns which of the three it was."""
    F, G = X.field, X.group
    try:
        lam = graded_iso_1dim(X, Y)
    except FieldError as exc:
        assert F.kind in ("R", "CYC"), exc
        assert re.match(r"^(sqrt\(.+\)|\(.+\)\^\(1/\d+\)) has no representative in the Q(\(zeta_\d+\))? model", str(exc)), exc
        return "refused"
    if lam is None:
        if commutation_bicharacter(X) != commutation_bicharacter(Y):
            return "false"
        roots = F.roots_of_unity()
        for a, o in zip(map(G.generator, range(G.rank)), G.orders):
            r = F.div(power_constant(X, a), power_constant(Y, a))
            if F.kind in ("Q", "R"):
                if not F.is_nth_power(r, o):
                    return "false"
            elif not any(F.power(c, o) == r for c in roots):
                return "false"
        raise AssertionError("iso answered false, yet every ratio has a root")
    sx, sy = X.cocycle(), Y.cocycle()
    for s in G.elements():
        for t in G.elements():
            assert F.mul(F.mul(lam[s], lam[t]), sy[(s, t)]) == F.mul(sx[(s, t)], lam[G.add(s, t)]), (s, t)
    return "true"


def cli_outcome(capsys, tmp_path, *argv_and_tables):
    """Exit code and report of a command, tables written to files in place."""
    argv = []
    for n, arg in enumerate(argv_and_tables):
        if isinstance(arg, GradedAlgebra):
            path = tmp_path / f"table{n}.json"
            path.write_text(jsonio.dumps_canonical(jsonio.algebra_to_json(arg)))
            arg = str(path)
        argv.append(arg)
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def assert_refused(capsys, tmp_path, prefix, *argv_and_tables):
    code, report = cli_outcome(capsys, tmp_path, *argv_and_tables)
    assert code == 3 and report["error"]["message"].startswith(prefix), (argv_and_tables[0], report)


EXTRA_SHAPES = [(6,), (12,), (4, 2), (2, 6), (6, 2), (2, 2, 3)]


def test_iso_matches_lexicographic_search(capsys, tmp_path):
    # on valid tables graded_iso_1dim agrees with the search; iso refuses the
    # perturbed tables that fail the unit law or associativity
    rng = random.Random(20261018)
    fields = [RealField(), FiniteField(5, 1), FiniteField(7, 1), FiniteField(3, 2), FiniteField(13, 1),
              CyclotomicField(3), CyclotomicField(4)]
    groups = list(abelian_groups_upto(16)) + [FinAbGroup(orders) for orders in EXTRA_SHAPES]
    verdicts = {"true": 0, "none": 0, "non_associative": 0, "unnormalized": 0, "refused": 0}
    for F in fields:
        roots = F.roots_of_unity()
        searchable = [G for G in groups if len(roots) ** G.rank <= SEARCH_BOUND]
        for G in rng.sample(searchable, SHAPES_PER_FIELD):
            A = random_algebra(rng, F, G, roots)
            lam = {t: rng.choice(roots) for t in G.elements()}
            broken = perturbed(rng, A, roots)
            verdicts["non_associative"] += not cocycle_associative(broken)
            others = [A, rescaled(A, lam), random_algebra(rng, F, G, roots), broken]
            if F.kind != "GF":
                # constants outside the roots of unity
                two = F.from_int(2)
                others.append(rescaled(A, {t: two if any(t) else F.one for t in G.elements()}))
            for B in others:
                for X, Y in ((A, B), (B, A)):
                    prefix = refusal(B)
                    if prefix is not None:
                        assert_refused(capsys, tmp_path, prefix, "iso", "--a", X, "--b", Y)
                        verdicts["refused"] += 1
                        continue
                    if not (normalized(X) and normalized(Y)):
                        check_iso_on_its_own_terms(X, Y)
                        verdicts["unnormalized"] += 1
                        continue
                    got = outcome(graded_iso_1dim, X, Y)
                    assert got == outcome(reference_iso_search, X, Y), (F.descriptor(), G.orders)
                    verdicts["true" if got is not None else "none"] += 1
    assert min(verdicts.values()) >= 10, verdicts


def test_iso_across_units_that_are_different_multiples_of_x_e():
    # on the basis Y_t = lam_t X_t the unit is X_e / lam_e; iso once fixed
    # lambda_e = 1 and answered false whenever lam_e != 1
    rng = random.Random(13)
    for F in (RealField(), FiniteField(7, 1), CyclotomicField(4)):
        roots = F.roots_of_unity()
        for orders in ((2,), (4,), (2, 2), (3, 2)):
            G = FinAbGroup(orders)
            e = G.identity()
            A = random_algebra(rng, F, G, roots)
            lam = {t: rng.choice(roots) for t in G.elements()}
            lam[e] = roots[1]
            B = rescaled(A, lam)
            got = graded_iso_1dim(A, B)
            assert got is not None and got[e] == F.div(A.cocycle()[(e, e)], B.cocycle()[(e, e)]) != F.one
            assert outcome(graded_iso_1dim, A, B) == outcome(reference_iso_search, A, B)
            assert graded_iso_1dim(B, A)[e] == F.inv(got[e])


def non_root_scalars(F):
    if F.kind in ("Q", "R"):
        return [Fraction(3), Fraction(-5, 2), Fraction(7), Fraction(1, 6)]
    if F.kind == "CYC":
        two = F.from_int(2)
        return [F.add(F.one, F.zeta), two, F.mul(two, F.zeta), F.sub(F.zeta, two)]
    return [u for u in range(1, F.q) if u != F.one]


def test_iso_on_tables_outside_the_roots_of_unity():
    # B has A's beta and power constants mu_i * s_i^(o_i), with s_i a scalar
    # half the time (so a root exists) and any mu_i * s_i otherwise
    rng = random.Random(14)
    fields = [RationalField(), RealField(), FiniteField(7, 1), FiniteField(3, 2), CyclotomicField(3), CyclotomicField(4)]
    shapes = [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 3)]
    seen = {kind: set() for kind in ("Q", "R", "GF", "CYC")}
    for F in fields:
        scalars = non_root_scalars(F) + list(F.roots_of_unity())[1:3]
        for orders in shapes:
            G = FinAbGroup(orders)
            for _ in range(4):
                A = random_algebra(rng, F, G, scalars)
                mus = []
                for mu, o in zip(mu_invariant(A).gen_values, orders):
                    s = rng.choice(scalars)
                    mus.append(F.mul(mu, F.power(s, o) if rng.random() < 0.5 else s))
                B = construct(G, commutation_bicharacter(A), MuFunction(G, tuple(mus)), F, verify=False)
                for X, Y in ((A, B), (B, A)):
                    seen[F.kind].add(check_iso_on_its_own_terms(X, Y))
    assert seen == {"Q": {"true", "false"}, "R": {"true", "false", "refused"}, "GF": {"true", "false"},
                    "CYC": {"true", "false", "refused"}}, seen


def test_readers_match_monomial_references(capsys, tmp_path):
    # the readers on every table; decompose and iso against the references
    # on valid tables, and refusing the perturbed tables that are not
    rng = random.Random(7)
    fields = [RationalField(), RealField(), FiniteField(5, 1), FiniteField(2, 3), FiniteField(3, 2),
              CyclotomicField(3), CyclotomicField(4)]
    shapes = [(2,), (4,), (6,), (2, 2), (2, 3), (4, 2), (3, 3), (2, 6), (12,)]
    refused = compared = 0
    for F in fields:
        scalars = non_root_scalars(F)
        for orders in shapes:
            G = FinAbGroup(orders)
            A = random_algebra(rng, F, G, scalars)
            lam = {t: rng.choice(scalars) for t in G.elements()}
            for X in (A, rescaled(A, lam), perturbed(rng, A, scalars)):
                idx = one_dim_index(X)
                for t in G.elements():
                    assert power_constant(X, t) == reference_power_constant(X, t)
                beta = [
                    (i, j, F.div(structure_scalar(X, idx, a, b), structure_scalar(X, idx, b, a)))
                    for i, a in enumerate(map(G.generator, range(G.rank)))
                    for j, b in enumerate(map(G.generator, range(G.rank)))
                    if i < j
                ]
                assert commutation_bicharacter(X) == AltBicharacter.from_pairs(G, beta, F)
                compared += 1
                prefix = refusal(X)
                if prefix is not None:
                    for argv in (("invariants", "--in", X), ("decompose", "--in", X), ("iso", "--a", X, "--b", X)):
                        assert_refused(capsys, tmp_path, prefix, *argv)
                    refused += 1
                    continue
                got = outcome(primary_decompose, X)
                assert got == outcome(reference_primary_decompose, X), (F.descriptor(), orders)
                if normalized(X):
                    assert outcome(graded_iso_1dim, X, X) == outcome(reference_iso_search, X, X)
                else:
                    assert check_iso_on_its_own_terms(X, X) == "true"
    assert compared == 3 * len(fields) * len(shapes)
    assert refused >= 10


def test_cocycle_is_read_once():
    G = FinAbGroup((2, 4))
    A = construct(G, AltBicharacter.trivial(G), MuFunction(G, (Fraction(3), Fraction(5))), RationalField())
    sigma = A.cocycle()
    assert A.cocycle() is sigma
    assert len(sigma) == 64
    assert sigma[((1, 3), (1, 1))] == 3 * 5


@pytest.mark.parametrize(
    "change, message",
    [
        ("two-dimensional", "operation requires 1-dimensional homogeneous components"),
        ("partial support", "support must be the whole group"),
        ("zero product", "zero structure constant; the table is not graded-division"),
        ("wrong component", "zero structure constant; the table is not graded-division"),
        ("unit outside A_e", "the unit is not a multiple of X_e"),
    ],
)
def test_cocycle_shape_errors(change, message):
    Q = RationalField()
    G = FinAbGroup((2,))
    e, a = (0,), (1,)
    table = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one}, (1, 1): {0: Q.one}}
    degrees, unit = (e, a), {0: Q.one}
    if change == "two-dimensional":
        degrees = (e, e)
    elif change == "partial support":
        table, degrees = {(0, 0): {0: Q.one}}, (e,)
    elif change == "zero product":
        del table[(1, 1)]
    elif change == "wrong component":
        table[(1, 1)] = {1: Q.one}
    else:
        unit = {1: Q.one}
    with pytest.raises(OracleError, match=f"^{message}$"):
        GradedAlgebra(Q, G, degrees, table, unit).cocycle()
