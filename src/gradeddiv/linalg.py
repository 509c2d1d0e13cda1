"""Sparse exact linear algebra over any of the coefficient field contexts.

Vectors are dicts from index to nonzero coefficient.  There is one
elimination: ``insert`` adds vectors to an ``Echelon`` in order and keeps
each vector that is independent of the earlier ones as a row normalized at
its smallest index (coefficient 1 there, every other index larger), together
with the combination of inputs that row equals.  From that one form come

* the rank: the number of rows;
* ``express``: a vector's coefficients on the inputs, by reducing it against
  the rows; only independent inputs get coefficients, which is the solution
  with every free variable zero;
* ``kernel``: one relation per dependent input j, e_j minus the expression
  of input j in the inputs before it, in input order.

The independent inputs are the pivot columns of the matrix whose columns are
the inputs, so these are the solution and kernel basis that reducing that
matrix to reduced row echelon form gives.
"""

from __future__ import annotations


class Echelon:
    """The rows, their input combinations and the relations found so far."""

    __slots__ = ("field", "rows", "kernel")

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}  # pivot -> (row, combination of inputs)
        self.kernel: list[dict] = []  # one relation per dependent input

    @property
    def rank(self) -> int:
        return len(self.rows)


def _reduce(ech: Echelon, v: dict, comb: dict) -> tuple[dict, dict]:
    """Subtract rows from v until no index of v is a pivot, and the same
    multiples of their combinations from comb; returns both."""
    F = ech.field
    rows = ech.rows
    v = dict(v)
    while pivots := [p for p in v if p in rows]:
        p = min(pivots)
        c = v[p]
        row, row_comb = rows[p]
        for target, src in ((v, row), (comb, row_comb)):
            for k, e in src.items():
                acc = F.sub(target.get(k, F.zero), F.mul(c, e))
                if F.is_zero(acc):
                    target.pop(k, None)
                else:
                    target[k] = acc
    return v, comb


def insert(ech: Echelon, v: dict) -> bool:
    """Add v as the next input; True iff it is independent of the earlier ones."""
    F = ech.field
    # each earlier input gave either a row or a relation
    v, comb = _reduce(ech, v, {ech.rank + len(ech.kernel): F.one})
    if not v:
        ech.kernel.append({k: comb[k] for k in sorted(comb)})
        return False
    p = min(v)
    c = F.inv(v[p])
    ech.rows[p] = ({k: F.mul(c, x) for k, x in v.items()}, {k: F.mul(c, x) for k, x in comb.items()})
    return True


def echelon(field, vecs) -> Echelon:
    """The echelon form of vecs, inserted in order."""
    ech = Echelon(field)
    for v in vecs:
        insert(ech, v)
    return ech


def express(ech: Echelon, w: dict) -> dict | None:
    """Coefficients c, keyed by input position in increasing order, with
    w = sum of c_j * input_j; None if w is outside the span."""
    F = ech.field
    rest, comb = _reduce(ech, w, {})
    if rest:
        return None
    return {j: F.neg(comb[j]) for j in sorted(comb)}


def rank(field, vecs) -> int:
    return echelon(field, vecs).rank


def kernel(field, vecs) -> list[dict]:
    """Basis of the relations sum c_j * vecs_j = 0 (see the module doc)."""
    return echelon(field, vecs).kernel
