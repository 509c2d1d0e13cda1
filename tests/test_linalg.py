"""The sparse echelon against the dense reduced-row-echelon reference.

Every matrix is read as its list of columns: ``express`` must give the dense
``solve`` solution, ``kernel`` the dense ``nullspace`` basis in order, and
``rank`` the dense rank, exactly.
"""

import random
from fractions import Fraction

import pytest
from helpers import dense, nullspace as dense_nullspace, rank as dense_rank, solve as dense_solve

from gradeddiv.exactfield import CyclotomicField, FiniteField, RationalField, RealField
from gradeddiv.linalg import echelon, express, kernel, rank

FIELDS = [RationalField(), RealField(), FiniteField(5, 1), FiniteField(3, 2), CyclotomicField(5)]


def random_elem(F, rng):
    if rng.random() < 0.4:
        return F.zero
    if F.kind == "GF":
        return rng.randrange(F.q)
    if F.kind == "CYC":
        return F.coerce([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(F.deg)])
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_matrix(F, rng, m, n):
    """An m x n matrix, often of rank below min(m, n): a product of random
    m x r and r x n factors."""
    r = rng.randint(0, min(m, n)) if rng.random() < 0.6 else max(m, n)
    left = [[random_elem(F, rng) for _ in range(r)] for _ in range(m)]
    right = [[random_elem(F, rng) for _ in range(n)] for _ in range(r)]
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = F.zero
            for k in range(r):
                acc = F.add(acc, F.mul(left[i][k], right[k][j]))
            row.append(acc)
        rows.append(row)
    return rows


def sparse(F, values):
    return {i: c for i, c in enumerate(values) if not F.is_zero(c)}


def columns(F, rows, n):
    return [sparse(F, [row[j] for row in rows]) for j in range(n)]


def check_against_reference(F, rows, n, rhs):
    cols = columns(F, rows, n)
    ech = echelon(F, cols)
    assert rank(F, cols) == ech.rank == dense_rank(F, rows)
    assert rank(F, [sparse(F, row) for row in rows]) == dense_rank(F, rows)
    assert [dense(F, v, n) for v in kernel(F, cols)] == dense_nullspace(F, rows)
    expected = dense_solve(F, rows, rhs)
    got = express(ech, sparse(F, rhs))
    if expected is None:
        assert got is None
    else:
        assert got is not None and list(got) == sorted(got)
        assert dense(F, got, n) == expected


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_echelon_matches_dense_reference(F):
    rng = random.Random(f"linalg:{F.descriptor()}")
    for _ in range(120):
        m, n = rng.randint(1, 7), rng.randint(0, 7)
        rows = random_matrix(F, rng, m, n)
        if rng.random() < 0.5:
            # a right-hand side in the column span
            x = [random_elem(F, rng) for _ in range(n)]
            rhs = [F.zero] * m
            for i in range(m):
                for j in range(n):
                    rhs[i] = F.add(rhs[i], F.mul(rows[i][j], x[j]))
        else:
            rhs = [random_elem(F, rng) for _ in range(m)]
        check_against_reference(F, rows, n, rhs)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_echelon_empty_and_zero_matrices(F):
    # no rows and no columns
    check_against_reference(F, [], 0, [])
    assert echelon(F, []).rank == 0 and kernel(F, []) == []
    for m, n in ((1, 0), (3, 0), (1, 1), (2, 3), (4, 2)):
        zeros = [[F.zero] * n for _ in range(m)]
        check_against_reference(F, zeros, n, [F.zero] * m)
        check_against_reference(F, zeros, n, [F.one] + [F.zero] * (m - 1))
        # every zero column is a relation of its own
        assert kernel(F, [{}] * n) == [{j: F.one} for j in range(n)]
