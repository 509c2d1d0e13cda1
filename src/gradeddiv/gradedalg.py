"""Structure-constant graded algebras and the oracles that certify them.

An algebra is a basis tagged with degrees in a finite abelian group, a sparse
structure-constant table, and a designated unit.  Nothing is trusted: grading
compatibility, the unit law, associativity, and the graded-division property
are all checked by explicit oracles.  ``oracle_checks`` is the one place that
runs them in sequence, and ``certify`` is the single gate built on it: every
constructor in this package passes its output through ``certify``, which
raises OracleError at the first failing oracle, and the commands that read
a table (invariants, decompose, iso) pass their input through it without
the graded-division oracle.  ``graded_iso_1dim`` and
``quasitorus.primary_decompose`` decide by theorems that hold only for
tables that passed it.

Associativity is certified through the middle nucleus
N = {a : (xa)y = x(ay) for all x, y}.  By the Teichmüller identity

    (wx, y, z) - (w, xy, z) + (w, x, yz) = w (x, y, z) + (w, x, y) z

N is closed under products, so it is a subalgebra, and A is associative
as soon as N holds a set of basis vectors that generates A.  That takes
r * n^2 triples for r generators instead of n^3.  The generators are chosen
walking the basis down from its last index, and proved to generate A by
exact linear algebra over the field on the words they form, trusting no
other oracle (``_generating_basis``).  Only when the certificate fails does
the oracle scan every triple, so the witness it reports is still the first
failing triple in lexicographic order.

Each triple is compared on integers, over every field.  The field's
``integer_image`` maps the table's vectors to int vectors (over Q and R,
D times each constant for one common denominator D) and gives a test
``is_zero``.  Coefficient l of (b_i b_j) b_k - b_i (b_j b_k) is a signed
sum of at most 2w products c_ij^m c_mk^l and c_jk^m c_im^l (w the most
entries in one table vector); the same sum formed on the ints is its image
(D^2 times it over Q), and ``is_zero`` decides whether it is 0.

An algebra whose components X_t are 1-dimensional and cover the group is a
twisted group algebra F^sigma K: X_s X_t = sigma(s, t) X_{s+t}.
``GradedAlgebra.twist`` reads such a table once into index arrays: the
product index P[i][j] (X_{t_i} X_{t_j} is a multiple of X_{t_{P[i][j]}}),
the ``integer_image`` S[i][j] of sigma, and the images of the unit's
coefficient u and of 1.  There is a read only when every product of two
basis vectors is one nonzero term in its component and the unit is u X_e,
and on a read the oracles are statements about sigma, each checked on the
ints by the image's ``is_zero``:

* grading holds: the read is the grading check;
* the unit law is u sigma(e, t) = sigma(t, e) u = 1 for every t;
* associativity is sigma(s, t) sigma(s+t, u) = sigma(t, u) sigma(s, t+u),
  and by the nucleus argument above t need only run over the group's
  nontrivial generators a_i: every sigma is nonzero, so the words in the
  X_{a_i} are nonzero multiples of every X_t and the X_{a_i} generate A.
  That is r * n^2 int comparisons, with no dict and no echelon;
* the centre of an associative table is spanned by the X_t that commute
  with every X_{a_i}, those with sigma(t, a_i) = sigma(a_i, t) (``center_dim``);
* graded division holds on every graded, unital, associative table the
  read accepts: X_t X_{-t} and X_{-t} X_t are nonzero multiples of X_e,
  hence of 1, so X_t has a right and a left inverse, which associativity
  makes one two-sided inverse.

A check that fails falls back to the general scan of its oracle, so
verdicts and witnesses are those of the scan.  ``GradedAlgebra.cocycle``
keeps sigma keyed by degree pairs, and every invariant of such an algebra
is computed from it: the commutation bicharacter sigma(s, t) / sigma(t, s),
and the power constant of t, the product of sigma(mt, t) over m < o(t).

A graded isomorphism X_t -> lambda_t X'_t of two such algebras is a
solution of lambda_s lambda_t sigma_B(s, t) = sigma_A(s, t) lambda_{s+t}:
tau = sigma_A / sigma_B is the coboundary of lambda.  When both tables are
associative, tau is a 2-cocycle, and three facts decide the equations
without checking them.  tau is symmetric iff the commutation bicharacters
of A and B agree.  A symmetric tau on K = (+) Z_{o_i} is a coboundary iff
each ratio r_i of the power constants of a generator a_i is an o_i-th
power (tau is then an abelian extension of K by F^x, which splits iff each
a_i lifts to an element of order o_i).  And for each tuple c with
c_i^{o_i} = r_i there is exactly one solution with lambda_{a_i} = c_i,
found by extending c along the multiples of the generators.
``graded_iso_1dim`` therefore compares the bicharacters, asks the field for
a root c_i = ``nth_root(r_i, o_i)`` on each generator, and extends it over
K; no constant needs to be a root of unity.  The field answers None when
r_i is no o_i-th power, and refuses (FieldError) a root its model cannot
write down, such as sqrt(2) over the Q model of R.  On tables whose
constants are roots of unity each field's root is the first root of unity
with that power, so the witness is the lexicographically first one among
tuples of roots of unity.  The equation at (e, e) forces lambda_e =
tau(e, e), and the cocycle identity at (e, e, t) and (t, e, e) gives
tau(e, t) = tau(t, e) = tau(e, e), so that value solves every equation with
e in it: the two units may be different multiples of X_e.

Invertibility decisions, on tables ``twist`` does not read (one it reads is
graded-division, above):

* a homogeneous x of degree t is invertible iff the stacked linear system
  x*y = 1, y*x = 1 has a solution y in the component A_{-t}, decided on one
  sparse echelon form (``linalg``) with d unknowns, d = dim A_{-t}.  The
  restriction rests on the grading and the unit law: together they put the
  unit in A_e (each homogeneous part u_s of the unit with s != e sends every
  basis vector to 0, so u_s = u_s * 1 = 0), and then the degree -t part of
  any inverse is an inverse too; the two-sided inverse in an associative
  algebra is unique, so it is that part.  ``oracle_checks`` therefore
  decides graded division only on graded, unital, associative tables;
* over a finite field, "every nonzero element of a component is invertible"
  is decided by exhaustive enumeration, refused with CannotCertify when the
  component has more than FINITE_SCAN_BOUND vectors;
* over the infinite coefficient fields, a component C_t of dimension > 1 is
  certified by exhibiting it as A_e * u for an invertible basis vector u and
  certifying that the identity component is a division algebra (dimension 1,
  dimension 2 with irreducible minimal polynomial, or dimension 4 matching
  the quaternion table exactly).  Inputs outside those shapes raise
  CannotCertify rather than guessing.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field as dc_field
from itertools import islice, product
from typing import NamedTuple

from .abelian import FinAbGroup
from .exactfield import FieldError
from .linalg import Echelon, echelon, express, insert, kernel


# most vectors _finite_component_scan enumerates in one component (q^d)
FINITE_SCAN_BOUND = 2**16


class OracleError(ValueError):
    pass


class CannotCertify(OracleError):
    """The division oracle has no sound certificate for this component shape."""


Vec = dict  # basis index -> nonzero field element


class Twist(NamedTuple):
    """A twisted group algebra's table as index arrays (module doc)."""

    prod: list[list[int]]  # X_{t_i} X_{t_j} is sigma X_{t_k} for k = prod[i][j]
    sigma: list[list[int]]  # the integer image of sigma(t_i, t_j)
    values: list  # sigma(t_i, t_j) itself, row-major
    unit: int  # the integer image of the unit's coefficient on X_e
    one: int  # the integer image of 1
    is_zero: Callable[[int], bool]
    e: int  # the index of X_e
    gens: list[int]  # the indices of X_{a_i} for the nontrivial generators a_i


@dataclass
class GradedAlgebra:
    field: object
    group: FinAbGroup
    degrees: tuple[tuple[int, ...], ...]  # exponent tuples of group elements
    table: dict  # (i, j) -> Vec, missing entries mean the zero product
    unit: Vec
    _components: dict | None = dc_field(default=None, repr=False, compare=False)
    _cocycle: dict | None = dc_field(default=None, repr=False, compare=False)
    _twist: Twist | str | None = dc_field(default=None, init=False, repr=False, compare=False)

    # Values are immutable by convention after construction; all oracles are
    # pure, so concurrent use is safe.

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def components(self) -> dict[tuple, list[int]]:
        if self._components is None:
            comps: dict[tuple, list[int]] = {}
            for i, d in enumerate(self.degrees):
                comps.setdefault(d, []).append(i)
            self._components = comps
        return self._components

    def support(self) -> set[tuple]:
        return set(self.components().keys())

    def twist(self) -> Twist:
        """The table of a twisted group algebra as index arrays (module doc).

        Requires 1-dimensional components X_t over the whole group, every
        product of two of them nonzero and in its component, and the unit a
        multiple of X_e; raises OracleError naming the first unmet condition
        otherwise.  Read once and kept, as is a refusal.
        """
        if self._twist is None:
            try:
                self._twist = _read_twist(self)
            except OracleError as exc:
                self._twist = str(exc)
        if isinstance(self._twist, str):
            raise OracleError(self._twist)
        return self._twist

    def cocycle(self) -> dict[tuple[tuple, tuple], object]:
        """sigma(s, t) with X_s X_t = sigma(s, t) X_{s+t}, keyed by degree
        pairs; raises OracleError where ``twist`` does.  Read once and kept."""
        if self._cocycle is None:
            self._cocycle = dict(zip(product(self.degrees, repeat=2), self.twist().values))
        return self._cocycle

    def basis_vec(self, i: int) -> Vec:
        return {i: self.field.one}

    def entry(self, i: int, j: int) -> Vec:
        return self.table.get((i, j), {})

    def mul_vec(self, x: Vec, y: Vec) -> Vec:
        F = self.field
        out: Vec = {}
        for i, xi in x.items():
            for j, yj in y.items():
                coeff = F.mul(xi, yj)
                for k, c in self.entry(i, j).items():
                    acc = F.add(out.get(k, F.zero), F.mul(coeff, c))
                    if F.is_zero(acc):
                        out.pop(k, None)
                    else:
                        out[k] = acc
        return out

    def add_vec(self, x: Vec, y: Vec) -> Vec:
        F = self.field
        out = dict(x)
        for k, c in y.items():
            acc = F.add(out.get(k, F.zero), c)
            if F.is_zero(acc):
                out.pop(k, None)
            else:
                out[k] = acc
        return out

    def scale_vec(self, c, x: Vec) -> Vec:
        F = self.field
        if F.is_zero(c):
            return {}
        return {k: F.mul(c, v) for k, v in x.items()}

    def vec_power(self, x: Vec, n: int) -> Vec:
        """x^n for n >= 0 by square-and-multiply, which regroups the
        product: valid on an associative table."""
        out = dict(self.unit)
        while n:
            if n & 1:
                out = self.mul_vec(out, x)
            n >>= 1
            if n:
                x = self.mul_vec(x, x)
        return out


def _read_twist(A: GradedAlgebra) -> Twist:
    """``GradedAlgebra.twist``'s read.  The rows of P are built walking the
    group from X_e along the generators: if t_k = t_i + a, row k is row i
    moved one step along a, so only r * n group additions are made."""
    comps = A.components()
    if any(len(idxs) != 1 for idxs in comps.values()):
        raise OracleError("operation requires 1-dimensional homogeneous components")
    if len(comps) != A.group.order:  # the group may be too large to list
        raise OracleError("support must be the whole group")
    G, n, F = A.group, A.dim, A.field
    index = {d: i for d, (i,) in comps.items()}
    e = index[G.identity()]
    steps = [[index[G.add(d, a)] for d in A.degrees] for a in map(G.generator, range(G.rank)) if any(a)]
    prod = [None] * n
    prod[e] = list(range(n))
    reached = [e]
    for i in reached:
        for step in steps:
            k = step[i]
            if prod[k] is None:
                prod[k] = [step[m] for m in prod[i]]
                reached.append(k)
    get = A.table.get
    rows = []  # row i: j -> sigma(t_i, t_j)
    for i in range(n):
        row = {}
        for j, k in enumerate(prod[i]):
            vec = get((i, j), {})
            if len(vec) != 1 or k not in vec or F.is_zero(c := vec[k]):
                raise OracleError("zero structure constant; the table is not graded-division")
            row[j] = c
        rows.append(row)
    if A.unit.keys() != {e}:
        raise OracleError("the unit is not a multiple of X_e")
    images, is_zero = F.integer_image([*rows, A.unit, {e: F.one}])
    return Twist(
        prod=prod,
        sigma=[list(row.values()) for row in images[:n]],
        values=[c for row in rows for c in row.values()],
        unit=images[n][e],
        one=images[n + 1][e],
        is_zero=is_zero,
        e=e,
        gens=[step[e] for step in steps],
    )


def _twisted(A: GradedAlgebra) -> Twist | None:
    try:
        return A.twist()
    except OracleError:
        return None


def verify_grading(A: GradedAlgebra) -> tuple[bool, tuple | None]:
    """Products of basis vectors must land in the component of the degree
    sum: true on a table ``twist`` reads, and scanned otherwise."""
    if _twisted(A) is not None:
        return True, None
    return _scan_grading(A)


def _scan_grading(A: GradedAlgebra) -> tuple[bool, tuple | None]:
    add = A.group.add
    for (i, j), vec in A.table.items():
        target = add(A.degrees[i], A.degrees[j])
        for k in vec:
            if A.degrees[k] != target:
                return False, (i, j, k)
    return True, None


def verify_unit(A: GradedAlgebra) -> tuple[bool, int | None]:
    """1 b_i = b_i 1 = b_i for every basis vector: on a ``twist``,
    u sigma(e, t) = sigma(t, e) u = 1; the first failing i otherwise."""
    tw = _twisted(A)
    if tw is not None and _twisted_unital(tw):
        return True, None
    return _scan_unit(A)


def _twisted_unital(tw: Twist) -> bool:
    """u sigma(e, t) = sigma(t, e) u = 1 for every t."""
    u, one, is_zero = tw.unit, tw.one * tw.one, tw.is_zero
    sides = (*tw.sigma[tw.e], *(row[tw.e] for row in tw.sigma))
    return all(u * c == one or is_zero(u * c - one) for c in sides)


def _scan_unit(A: GradedAlgebra) -> tuple[bool, int | None]:
    for i in range(A.dim):
        b = A.basis_vec(i)
        if A.mul_vec(A.unit, b) != b or A.mul_vec(b, A.unit) != b:
            return False, i
    return True, None


def verify_associative(A: GradedAlgebra) -> tuple[bool, tuple | None]:
    """Decide whether (b_i b_j) b_k == b_i (b_j b_k) for every basis triple.

    On a ``twist`` the triples with j a generator index are the cocycle
    identities of the module doc.  When they fail, or there is no twist,
    the scan decides (``_scan_associative``).
    """
    tw = _twisted(A)
    if tw is not None and _twisted_associative(tw):
        return True, None
    return _scan_associative(A)


def _twisted_associative(tw: Twist) -> bool:
    """sigma(s, t) sigma(s+t, u) = sigma(t, u) sigma(s, t+u) for every s, u
    and every generator t."""
    S, P, is_zero = tw.sigma, tw.prod, tw.is_zero
    for t in tw.gens:
        St, Pt = S[t], P[t]
        for Ss, Ps in zip(S, P):
            # over u: sigma(s, t) sigma(s+t, u) against sigma(t, u) sigma(s, t+u)
            c, after = Ss[t], S[Ps[t]]
            for x, y, tu in zip(after, St, Pt):
                left, right = c * x, y * Ss[tu]
                if left != right and not is_zero(left - right):
                    return False
    return True


def _scan_associative(A: GradedAlgebra) -> tuple[bool, tuple | None]:
    """The general oracle.  The triples are first checked only for j in a
    generating set of basis vectors (``_generating_basis``): they pass iff
    those vectors lie in the middle nucleus, which is a subalgebra, so then
    it is all of A.  Otherwise every j is scanned and the first failing
    triple (i, j, k) in lexicographic order is the witness.  Each triple
    tests integer sums on the field's ``integer_image`` of the table with
    its ``is_zero``.
    """
    n = A.dim
    vecs, is_zero = A.field.integer_image(list(A.table.values()))
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), vec in zip(A.table, vecs):
        rows[i][j] = vec

    def differs(i, j, k):
        # coefficient l of (b_i b_j) b_k - b_i (b_j b_k)
        acc = {}
        for m, c in rows[i][j].items():
            for l, d in rows[m][k].items():
                acc[l] = acc.get(l, 0) + c * d
        for m, c in rows[j][k].items():
            for l, d in rows[i][m].items():
                acc[l] = acc.get(l, 0) - c * d
        return not all(map(is_zero, acc.values()))

    def first_failure(js):
        for i in range(n):
            for j in js:
                for k in range(n):
                    if differs(i, j, k):
                        return i, j, k
        return None

    if first_failure(_generating_basis(A)) is None:
        return True, None
    return False, first_failure(range(n))


def _generating_basis(A: GradedAlgebra) -> list[int]:
    """Indices of basis vectors that generate A as an algebra.

    Walks the basis from the last index down and chooses b_i when it lies
    outside the span of the words s_1 (s_2 (... s_m)) in the vectors chosen
    so far.  That span is kept closed under left multiplication by the
    chosen vectors, in one ``linalg.Echelon`` of the words.  ``construct``
    lists X_e first, and X_e lies in the subalgebra any generators of the
    group generate, so walking down never spends a generator on it.

    Each word b_s w is formed from the table in the field's own
    arithmetic.  Every b_i ends up in the span of the words, so they span
    A, and as they lie in the subalgebra the chosen vectors generate, those
    generate A.
    """
    n = A.dim
    ech = Echelon(A.field)
    chosen: list[int] = []
    words: list[Vec] = []
    for i in reversed(range(n)):
        if ech.rank == n:
            break
        if not insert(ech, A.basis_vec(i)):
            continue
        # the new generator acts on every word so far, and is a word itself
        pending = [(i, w) for w in words]
        chosen.append(i)
        words.append(A.basis_vec(i))
        pending += [(s, words[-1]) for s in chosen]
        while pending and ech.rank < n:
            s, w = pending.pop()
            sw = A.mul_vec(A.basis_vec(s), w)
            if insert(ech, sw):
                words.append(sw)
                pending += [(t, sw) for t in chosen]
    return chosen


def invert_vec(A: GradedAlgebra, x: Vec) -> Vec | None:
    """Two-sided inverse of the homogeneous x, or None.

    For x of degree t the inverse lies in A_{-t} (module doc), so the
    unknowns are the columns of A_{-t}: a solution of the stacked system
    x*y = 1, y*x = 1, whose right half sits at indices shifted by dim.
    """
    if not x:
        return None
    degrees = {A.degrees[i] for i in x}
    if len(degrees) != 1:
        raise OracleError("invert_vec needs a homogeneous vector; this one has parts in several degrees")
    idxs = A.components().get(A.group.neg(degrees.pop()))
    if idxs is None:
        return None
    n = A.dim
    cols = []
    for j in idxs:
        b = A.basis_vec(j)
        col = A.mul_vec(x, b)
        col.update((n + k, c) for k, c in A.mul_vec(b, x).items())
        cols.append(col)
    target = dict(A.unit)
    target.update((n + k, c) for k, c in A.unit.items())
    sol = express(echelon(A.field, cols), target)
    return None if sol is None else {idxs[p]: c for p, c in sol.items()}


def identity_component(A: GradedAlgebra) -> GradedAlgebra:
    """A_e as an algebra over the trivial group."""
    e = A.group.identity()
    idxs = A.components().get(e, [])
    return subalgebra_on_indices(A, idxs, FinAbGroup(()))


def subalgebra_on_indices(A: GradedAlgebra, idxs: list[int], group: FinAbGroup, degrees=None) -> GradedAlgebra:
    pos = {b: i for i, b in enumerate(idxs)}
    if degrees is None:
        degrees = tuple(group.identity() for _ in idxs)
    table = {}
    for a, i in pos.items():
        for b, j in pos.items():
            vec = A.entry(a, b)
            if any(k not in pos for k in vec):
                raise OracleError("index set is not closed under multiplication")
            if vec:
                table[(i, j)] = {pos[k]: c for k, c in vec.items()}
    unit = {}
    for k, c in A.unit.items():
        if k not in pos:
            raise OracleError("unit does not lie in the selected components")
        unit[pos[k]] = c
    return GradedAlgebra(A.field, group, tuple(degrees), table, unit)


def subalgebra_on_span(A: GradedAlgebra, vecs: list[Vec], group: FinAbGroup, degrees) -> GradedAlgebra:
    """Algebra on a list of homogeneous, independent vectors closed under
    multiplication; products are expressed in the span's one echelon form."""
    ech = echelon(A.field, vecs)

    def in_span(w: Vec) -> Vec:
        expr = express(ech, w)
        if expr is None:
            raise OracleError("span is not closed under multiplication")
        return expr

    table = {}
    for i, v in enumerate(vecs):
        for j, w in enumerate(vecs):
            expr = in_span(A.mul_vec(v, w))
            if expr:
                table[(i, j)] = expr
    return GradedAlgebra(A.field, group, tuple(degrees), table, in_span(A.unit))


def centralizer_basis(A: GradedAlgebra, target_idxs: Sequence[int]) -> list[Vec]:
    """Basis of the centralizer of the basis vectors b_j, j in target_idxs."""
    return _commutant_basis(A, range(A.dim), target_idxs)


def _commutant_basis(A: GradedAlgebra, unknown_idxs: Sequence[int], target_idxs: Sequence[int]) -> list[Vec]:
    """Basis of the x in span(b_k : k in unknown_idxs) with x*b_j = b_j*x
    for every target index j: the kernel of the columns b_k*b_j - b_j*b_k,
    one block of dim coordinates per target.

    The targets are basis vectors, so each column is read off the table as
    entry(k, j) - entry(j, k), one subtraction per shared output index; no
    product is formed."""
    F = A.field
    n = A.dim
    cols = []
    for k in unknown_idxs:
        col = {}
        for ti, j in enumerate(target_idxs):
            base = ti * n
            diff = dict(A.entry(k, j))
            for r, c in A.entry(j, k).items():
                diff[r] = F.sub(diff[r], c) if r in diff else F.neg(c)
            col.update((base + r, c) for r, c in diff.items() if not F.is_zero(c))
        cols.append(col)
    return [{unknown_idxs[i]: c for i, c in rel.items()} for rel in kernel(F, cols)]


def center_dim(A: GradedAlgebra) -> int:
    """dim Z(A), for a table that passed ``certify`` (with or without the
    graded-division oracle).  On a ``twist`` it counts the X_t that commute
    with every generator X_{a_i}: the centre is graded, each component is
    1-dimensional, and an element commuting with generators of an
    associative algebra is central.  Otherwise the kernel of the
    commutation columns of every basis vector."""
    tw = _twisted(A)
    if tw is None:
        return len(_commutant_basis(A, range(A.dim), range(A.dim)))
    S, one, is_zero = tw.sigma, tw.one, tw.is_zero
    return sum(
        all(row[g] == S[g][t] or is_zero((row[g] - S[g][t]) * one) for g in tw.gens) for t, row in enumerate(S)
    )


def graded_center_e_dim(A: GradedAlgebra) -> int:
    """dim of Z(A) intersected with the identity component."""
    e_idxs = A.components().get(A.group.identity(), [])
    if not e_idxs:
        return 0
    return len(_commutant_basis(A, e_idxs, range(A.dim)))


# ---------------------------------------------------------------------------
# Graded-division oracle
# ---------------------------------------------------------------------------


def is_graded_division(A: GradedAlgebra) -> tuple[bool, dict | None]:
    """Whether every nonzero homogeneous element has a two-sided inverse.

    Returns (True, None) or (False, witness) where the witness names a
    concrete noninvertible homogeneous element.  Raises CannotCertify for
    component shapes outside the supported certificates (see module doc).
    Requires a graded, unital, associative table; on a ``twist`` graded
    division then holds (module doc), and otherwise a 1-dimensional
    component is decided by ``invert_vec``.
    """
    if _twisted(A) is not None:
        return True, None
    comps = A.components()
    e_idxs = comps.get(A.group.identity(), [])
    finite = getattr(A.field, "kind", None) == "GF"
    ae_certified: bool | None = None
    for deg in sorted(comps):
        idxs = comps[deg]
        if len(idxs) == 1:
            if invert_vec(A, A.basis_vec(idxs[0])) is None:
                return False, {"degree": deg, "vector": A.basis_vec(idxs[0])}
            continue
        if finite:
            witness = _finite_component_scan(A, idxs)
            if witness is not None:
                return False, {"degree": deg, "vector": witness}
            continue
        if ae_certified is None:
            ae_certified, ae_witness = _certify_identity_division(A, e_idxs)
            if not ae_certified:
                return False, {"degree": A.group.identity(), "vector": ae_witness}
        ok, witness = _certify_component_module(A, idxs, e_idxs)
        if not ok:
            return False, {"degree": deg, "vector": witness}
    return True, None


def _finite_component_scan(A: GradedAlgebra, idxs: list[int]) -> Vec | None:
    """First nonzero vector of the component, in enumeration order, with no
    two-sided inverse; refuses components above FINITE_SCAN_BOUND vectors."""
    F = A.field
    if F.q ** len(idxs) > FINITE_SCAN_BOUND:
        raise CannotCertify(
            f"a {len(idxs)}-dimensional component over GF({F.q}) has more than "
            f"FINITE_SCAN_BOUND = {FINITE_SCAN_BOUND} vectors to scan"
        )
    for coords in product(F.elements(), repeat=len(idxs)):
        if all(F.is_zero(c) for c in coords):
            continue
        vec = {i: c for i, c in zip(idxs, coords) if not F.is_zero(c)}
        if invert_vec(A, vec) is None:
            return vec
    return None


def _certify_identity_division(A: GradedAlgebra, e_idxs: list[int]) -> tuple[bool, Vec | None]:
    """Certify that A_e is a division algebra, or produce a zero divisor."""
    F = A.field
    d = len(e_idxs)
    if d == 1:
        if invert_vec(A, A.basis_vec(e_idxs[0])) is None:
            return False, A.basis_vec(e_idxs[0])
        return True, None
    if d == 2:
        return _certify_quadratic(A, e_idxs)
    if d == 4 and F.kind == "R":
        if _match_hamilton_basis(A, e_idxs):
            return True, None
        raise CannotCertify("4-dimensional identity component does not match the quaternion table")
    raise CannotCertify(f"no division certificate for a {d}-dimensional identity component")


def _certify_quadratic(A: GradedAlgebra, e_idxs: list[int]) -> tuple[bool, Vec | None]:
    """A_e = span(1, w): division iff the minimal polynomial of w is irreducible."""
    F = A.field
    if F.kind not in ("R", "Q"):
        raise CannotCertify("2-dimensional identity component over an unsupported field")
    for i in e_idxs:
        w = A.basis_vec(i)
        ech = echelon(F, [A.unit, w])
        if ech.rank == 2:
            break
    else:
        raise CannotCertify("identity component has no basis vector independent from the unit")
    sol = express(ech, A.mul_vec(w, w))
    if sol is None:
        raise AssertionError("internal: w^2 escaped span(1, w) inside A_e")
    alpha, beta = sol.get(0, F.zero), sol.get(1, F.zero)
    # w^2 = alpha + beta*w: X^2 - beta X - alpha splits iff disc is a square (incl. 0)
    disc = F.add(F.mul(beta, beta), F.mul(F.from_int(4), alpha))
    try:
        sqrt_disc = F.nth_root(disc, 2)
    except FieldError as exc:
        # only over R: a positive disc that is not a rational square
        raise CannotCertify(
            f"A_e = span(1, w) with w^2 = {alpha} + {beta} w is split over R, but its zero divisor "
            f"w - ({beta} + sqrt({disc}))/2 has no representative in the Q model of R"
        ) from exc
    if sqrt_disc is None:
        return True, None
    # the zero divisor w - root*1
    root = F.div(F.add(beta, sqrt_disc), F.from_int(2))
    witness = A.add_vec(w, A.scale_vec(F.neg(root), A.unit))
    if not witness:
        witness = w
    return False, witness


def _match_hamilton_basis(A: GradedAlgebra, e_idxs: list[int]) -> bool:
    """Exact basis match with 1, i, j, k relations inside A_e."""
    F = A.field
    unit = A.unit
    neg_unit = A.scale_vec(F.neg(F.one), unit)
    cands = [A.basis_vec(i) for i in e_idxs]
    for a in range(len(cands)):
        for b in range(len(cands)):
            if a == b:
                continue
            i_, j_ = cands[a], cands[b]
            if A.mul_vec(i_, i_) != neg_unit or A.mul_vec(j_, j_) != neg_unit:
                continue
            ij = A.mul_vec(i_, j_)
            ji = A.mul_vec(j_, i_)
            if A.add_vec(ij, ji):
                continue
            k_ = ij
            if A.mul_vec(k_, k_) != neg_unit:
                continue
            if A.mul_vec(j_, k_) != i_ or A.mul_vec(k_, i_) != j_:
                continue
            return True
    return False


def _certify_component_module(A: GradedAlgebra, idxs: list[int], e_idxs: list[int]) -> tuple[bool, Vec | None]:
    """Certify C_t = A_e * u with u an invertible basis vector."""
    for i in idxs:
        u = A.basis_vec(i)
        if invert_vec(A, u) is not None:
            break
    else:
        return False, A.basis_vec(idxs[0])
    ech = echelon(A.field, [A.mul_vec(A.basis_vec(k), u) for k in e_idxs])
    for j in idxs:
        if express(ech, A.basis_vec(j)) is None:
            raise CannotCertify("component is not a cyclic module over the identity component")
    return True, None


# ---------------------------------------------------------------------------
# The certification gate
# ---------------------------------------------------------------------------

_FAILURES = {
    "grading": "grading compatibility failed at {}",
    "unit": "unit law failed at basis {}",
    "associative": "associativity failed at triple {}",
    "graded_division": "graded-division failed: {}",
}


def oracle_checks(A: GradedAlgebra):
    """Yield (name, ok, witness) for the grading, unit, associativity and
    graded-division oracles, in that order; each oracle runs only when its
    result is asked for.

    The graded-division certificates hold only for graded, unital,
    associative tables (module doc), so after a failure of any of those
    oracles that check is undecided: ok is None and the witness names the
    first unmet precondition.
    """
    graded = verify_grading(A)
    yield ("grading", *graded)
    unital = verify_unit(A)
    yield ("unit", *unital)
    associative = verify_associative(A)
    yield ("associative", *associative)
    if not graded[0]:
        yield ("graded_division", None, "undecided: the table is not graded")
    elif not unital[0]:
        yield ("graded_division", None, "undecided: the unit law fails")
    elif not associative[0]:
        yield ("graded_division", None, "undecided: the table is not associative")
    else:
        yield ("graded_division", *is_graded_division(A))


def certify(A: GradedAlgebra, division: bool = True) -> list[tuple]:
    """Run the oracles on A and return the (name, ok, witness) results;
    division=False leaves out the graded-division oracle, which refuses some
    valid tables with CannotCertify.

    Raises OracleError, naming the oracle and its witness, at the first
    failure; the oracles after it do not run.
    """
    results = []
    for name, ok, witness in islice(oracle_checks(A), None if division else 3):
        if not ok:
            raise OracleError(_FAILURES[name].format(witness))
        results.append((name, ok, witness))
    return results


# ---------------------------------------------------------------------------
# Invariants of algebras with 1-dimensional components
# ---------------------------------------------------------------------------


def commutation_bicharacter(A: GradedAlgebra):
    """beta(a_i, a_j) = sigma(a_i, a_j) / sigma(a_j, a_i) on generator pairs."""
    from .quasitorus import AltBicharacter

    sigma = A.cocycle()
    F = A.field
    G = A.group
    values = []
    for i in range(G.rank):
        for j in range(i + 1, G.rank):
            if 1 in (G.orders[i], G.orders[j]):  # a trivial generator
                continue
            ai, aj = G.generator(i), G.generator(j)
            values.append((i, j, F.div(sigma[(ai, aj)], sigma[(aj, ai)])))
    return AltBicharacter.from_pairs(G, values, F)


def power_constant(A: GradedAlgebra, t: tuple):
    """The scalar c with 1 X_t X_t ... X_t (o(t) factors X_t, multiplied from
    the left) = c 1: the product of sigma(mt, t) for m < o(t), since the
    unit's own scalar cancels."""
    F = A.field
    sigma = A.cocycle()
    G = A.group
    c, s = F.one, G.identity()
    for _ in range(G.element_order(t)):
        c = F.mul(c, sigma[(s, t)])
        s = G.add(s, t)
    return c


def mu_invariant(A: GradedAlgebra):
    """The power invariant on generators: the power constants of the a_i."""
    from .quasitorus import MuFunction

    G = A.group
    return MuFunction(G, tuple(power_constant(A, G.generator(i)) for i in range(G.rank)))


def graded_iso_1dim(A: GradedAlgebra, B: GradedAlgebra) -> dict | None:
    """A degree-preserving isomorphism X_t -> lambda_t X'_t, or None.

    Requires both tables associative (gradedalg.certify with
    division=False); lambda is then decided from the commutation
    bicharacters and the power constants, with the roots the field's
    ``nth_root`` gives (module doc).
    """
    if A.field != B.field:
        raise OracleError("algebras over different coefficient fields")
    if A.group.orders != B.group.orders:
        return None
    F = A.field
    G = A.group
    sigma_a, sigma_b = A.cocycle(), B.cocycle()
    if commutation_bicharacter(A) != commutation_bicharacter(B):
        return None

    # lambda_{a_i}^{o_i} is forced, and any root with that power decides
    choice = {}
    for i, o in enumerate(G.orders):
        if o > 1:
            a = G.generator(i)
            choice[i] = F.nth_root(F.div(power_constant(A, a), power_constant(B, a)), o)
            if choice[i] is None:
                return None
    e = G.identity()
    lam = {e: F.div(sigma_a[(e, e)], sigma_b[(e, e)])}
    for t in G.elements():
        if t == e:
            continue
        i = next(pos for pos, x in enumerate(t) if x)
        a = G.generator(i)
        if t == a:
            lam[t] = choice[i]
        else:
            prev = G.sub(t, a)
            lam[t] = F.mul(F.mul(lam[prev], lam[a]), F.div(sigma_b[(prev, a)], sigma_a[(prev, a)]))
    return lam

