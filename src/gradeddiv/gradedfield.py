"""Decision procedures for gradings on fields.

A graded-field (commutative graded-division algebra with 1-dimensional
components) over F with support G is a tensor product of binomial quotients
F[X_i]/(X_i^{n_i} - mu_i); whether it is an honest field reduces, prime by
prime, to irreducibility questions for binomials.  The central tool is the
classical criterion: X^n - a is irreducible iff a avoids the q-th powers for
every prime q | n and avoids -4 F^4 when 4 | n.

Roots and power classes are the field's: ``nth_root`` for the witnesses,
``power_class_vector`` for the independence of the mu_i, decided by one
``linalg`` elimination over GF(p).  Over the Fraction model of R a witness
that needs an irrational root raises FieldError instead of a verdict.

Decisions return a three-valued verdict ("true" / "false" / "undecided")
with a machine-checkable witness: a verified polynomial factor, a verified
zero divisor, or a grading descriptor.  Over Q, towers of odd-prime-power
binomial steps beyond depth 1 would need power-residue tests inside number
fields, which are out of scope; those cases answer "undecided" with a
reason instead of guessing.

The dual Galois check of a finite graded field table decides field-ness by
Berlekamp's criterion: a commutative associative algebra over GF(q) is a
field iff x -> x^q is injective and fixes only GF(q) * 1, one rank and one
kernel computation instead of a search for zero divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abelian import FinAbGroup
from .exactfield import (
    FiniteField,
    RationalField,
    RealField,
    Residues,
    binomial_poly,
    minus4_fourth_power_test,
    poly_divmod,
    poly_eval,
    poly_mul,
)
from .gradedalg import GradedAlgebra, certify
from .intutil import factorint, prime_divisors
from .linalg import echelon, express, kernel, rank
from .quasitorus import AltBicharacter, MuFunction, construct


class GradedFieldError(ValueError):
    pass


@dataclass(frozen=True)
class GradedFieldSpec:
    """F[X_1]/(X_1^{n_1} - mu_1) (x) ... with the product-of-cyclic grading."""

    group: FinAbGroup
    mus: tuple
    field: object

    def __post_init__(self):
        if len(self.mus) != self.group.rank:
            raise GradedFieldError("need one mu per cyclic factor")
        for mu in self.mus:
            if self.field.is_zero(mu):
                raise GradedFieldError("mu values must be units")


@dataclass
class Decision:
    verdict: str  # "true" | "false" | "undecided"
    reason: str
    witness: dict | None = None

    @property
    def is_true(self):
        return self.verdict == "true"

    @property
    def is_false(self):
        return self.verdict == "false"


def spec_algebra(spec: GradedFieldSpec) -> GradedAlgebra:
    """The graded-field as an explicit structure-constant algebra."""
    return construct(
        spec.group,
        AltBicharacter.trivial(spec.group),
        MuFunction(spec.group, spec.mus),
        spec.field,
        verify=False,
    )


# ---------------------------------------------------------------------------
# Binomial irreducibility
# ---------------------------------------------------------------------------


def binomial_irreducible(field, alpha, n: int) -> bool:
    """Irreducibility of X^n - alpha via the power-residue criterion."""
    if field.is_zero(alpha):
        raise GradedFieldError("alpha must be nonzero")
    if n < 1:
        raise GradedFieldError("n must be positive")
    for q in prime_divisors(n):
        if field.is_nth_power(alpha, q):
            return False
    if n % 4 == 0 and minus4_fourth_power_test(field, alpha):
        return False
    return True


def reducible_binomial_witness(field, alpha, n: int) -> dict | None:
    """A verified nontrivial factorization of X^n - alpha, when the
    criterion reports reducibility; None when irreducible."""
    if binomial_irreducible(field, alpha, n):
        return None
    target = binomial_poly(field, n, alpha)
    for q in prime_divisors(n):
        y = field.nth_root(alpha, q)
        if y is not None:
            w = n // q
            divisor = binomial_poly(field, w, y)
            quotient, rem = poly_divmod(field, target, divisor)
            if rem:
                raise AssertionError("internal: claimed factor does not divide")
            return {
                "kind": "power_factor",
                "prime": q,
                "divisor": [field.elem_to_json(c) for c in divisor],
                "quotient": [field.elem_to_json(c) for c in quotient],
            }
    # 4 | n and alpha in -4 F^4: X^{4w} + 4 g^4 splits into two quadratics in X^w
    g = field.nth_root(field.div(alpha, field.from_int(-4)), 4)
    w = n // 4
    two_g = field.mul(field.from_int(2), g)
    two_g2 = field.mul(field.from_int(2), field.mul(g, g))
    f1 = [field.zero] * (2 * w + 1)
    f2 = [field.zero] * (2 * w + 1)
    f1[0], f1[w], f1[2 * w] = two_g2, two_g, field.one
    f2[0], f2[w], f2[2 * w] = two_g2, field.neg(two_g), field.one
    if poly_mul(field, f1, f2) != [c for c in target]:
        raise AssertionError("internal: quadratic split failed to multiply back")
    return {
        "kind": "sum_of_squares_split",
        "factors": [[field.elem_to_json(c) for c in f] for f in (f1, f2)],
    }


# ---------------------------------------------------------------------------
# Square-class independence (exponent-2 towers)
# ---------------------------------------------------------------------------


def square_class_dependency(field, mus) -> list[int] | None:
    """The first subset S, in input order, with prod_{i in S} mu_i a square:
    the first GF(2) relation among the square-class vectors of the mu_i
    (``linalg.kernel``), or None if the classes are independent in
    F^x/(F^x)^2."""
    relations = kernel(Residues(2), [field.power_class_vector(mu, 2) for mu in mus])
    return list(relations[0]) if relations else None


def is_field_exponent2(spec: GradedFieldSpec) -> Decision:
    """Exponent-2 criterion: field iff the mu square classes are independent."""
    field = spec.field
    if isinstance(field, FiniteField) and field.p == 2:
        raise GradedFieldError("criterion requires characteristic != 2")
    if any(n != 2 for n in spec.group.orders):
        raise GradedFieldError("all cyclic factors must have order 2")
    dep = square_class_dependency(field, spec.mus)
    if dep is None:
        return Decision("true", "square classes are independent")
    if isinstance(field, RealField):
        # a product that is a square in Q has its root in the Q model of R;
        # any other relation names an irrational root, which nth_root refuses
        dep = square_class_dependency(RationalField(field.bound), spec.mus) or dep
    # explicit zero divisor: with x = prod_{i in S} X_i and x^2 = r^2,
    # (x - r)(x + r) = 0
    acc = field.one
    for i in dep:
        acc = field.mul(acc, spec.mus[i])
    r = field.nth_root(acc, 2)
    A = spec_algebra(spec)
    exps = tuple(1 if i in dep else 0 for i in range(spec.group.rank))
    x = A.basis_vec(A.degrees.index(exps))
    u = A.add_vec(x, A.scale_vec(field.neg(r), A.unit))
    v = A.add_vec(x, A.scale_vec(r, A.unit))
    if A.mul_vec(u, v) != {}:
        raise AssertionError("internal: claimed zero divisor does not multiply to 0")
    return Decision(
        "false",
        "dependent square classes",
        witness={
            "kind": "zero_divisor",
            "subset": dep,
            "root": field.elem_to_json(r),
            "left": {str(k): field.elem_to_json(c) for k, c in u.items()},
            "right": {str(k): field.elem_to_json(c) for k, c in v.items()},
        },
    )


# ---------------------------------------------------------------------------
# Primary towers
# ---------------------------------------------------------------------------


def _p_power_class_independent(field, mus, p: int) -> bool:
    """Necessary condition: the p-th power classes of the mu_i generate a
    subgroup of order p^m in F^x/(F^x)^p, that is, their class vectors are
    independent over GF(p)."""
    return rank(Residues(p), [field.power_class_vector(mu, p) for mu in mus]) == len(mus)


def is_field_p_primary(spec: GradedFieldSpec) -> Decision:
    """Decide field-ness for a p-group grading via the binomial tower.

    Finite base fields are fully decided (each tower level is realized as a
    concrete field and the criterion applied there).  Over Q the decidable
    cases are a single cyclic factor (any prime power) and exponent-2
    specs; anything else reports "undecided"."""
    G = spec.group
    nontrivial = [(n, mu) for n, mu in zip(G.orders, spec.mus) if n > 1]
    if not nontrivial:
        return Decision("true", "trivial grading group")
    ps = {prime_divisors(n)[0] for n, _ in nontrivial}
    if len(ps) != 1 or any(len(prime_divisors(n)) != 1 for n, _ in nontrivial):
        raise GradedFieldError("not a p-primary grading group")
    p = ps.pop()
    field = spec.field
    mus = [mu for _, mu in nontrivial]
    m = len(mus)

    if not _p_power_class_independent(field, mus, p):
        return Decision(
            "false",
            f"the {p}-th power classes of the mu values are dependent",
            witness={"kind": "power_class_relation", "prime": p},
        )

    if isinstance(field, FiniteField):
        level = field
        degree = 1
        embed = None  # the identity until the first level above field
        for step, (n, mu) in enumerate(nontrivial):
            alpha = mu if embed is None else embed(mu)
            if not binomial_irreducible(level, alpha, n):
                wit = reducible_binomial_witness(level, alpha, n)
                wit["level"] = step
                wit["level_field"] = level.descriptor()
                return Decision("false", f"step {step} binomial is reducible", witness=wit)
            degree *= n
            if step + 1 < len(nontrivial):
                # realize the next level only while more steps need it
                nxt = FiniteField(field.p, field.ell * degree)
                embed = embed_field(field, nxt)[0]
                level = nxt
        return Decision(
            "true",
            "all tower steps irreducible",
            witness={"kind": "tower", "final_field": {"kind": "GF", "p": field.p, "ell": field.ell * degree}},
        )

    # rational base field
    if m == 1:
        n, mu = nontrivial[0]
        if binomial_irreducible(field, mu, n):
            return Decision("true", "binomial irreducible over Q")
        wit = reducible_binomial_witness(field, mu, n)
        return Decision("false", "binomial reducible over Q", witness=wit)
    if p == 2 and all(n == 2 for n, _ in nontrivial):
        sub = GradedFieldSpec(FinAbGroup(tuple(n for n, _ in nontrivial)), tuple(mus), field)
        return is_field_exponent2(sub)
    return Decision(
        "undecided",
        "tower of depth > 1 over Q with odd or mixed prime powers: "
        "power-residue tests inside number fields are out of scope",
    )


def is_field_general(spec: GradedFieldSpec) -> Decision:
    """Prime-by-prime decision: a graded-field is a field iff each primary
    part is."""
    G = spec.group
    field = spec.field
    # split every cyclic factor into its prime-power parts, keeping mu
    primary: dict[int, tuple[list[int], list]] = {}
    for n, mu in zip(G.orders, spec.mus):
        if n == 1:
            continue
        for p in prime_divisors(n):
            pe = 1
            while n % (pe * p) == 0:
                pe *= p
            orders, mus = primary.setdefault(p, ([], []))
            orders.append(pe)
            mus.append(mu)
    verdicts = []
    for p in sorted(primary):
        orders, mus = primary[p]
        sub = GradedFieldSpec(FinAbGroup(tuple(orders)), tuple(mus), field)
        if p == 2 and all(n == 2 for n in orders) and not (isinstance(field, FiniteField) and field.p == 2):
            dec = is_field_exponent2(sub)
        else:
            dec = is_field_p_primary(sub)
        if dec.is_false:
            dec.reason = f"primary part at p={p}: {dec.reason}"
            return dec
        verdicts.append((p, dec))
    if all(d.is_true for _, d in verdicts):
        return Decision("true", "every primary part is a field")
    pending = [p for p, d in verdicts if d.verdict == "undecided"]
    return Decision("undecided", f"primary parts undecided at p in {pending}")


def is_field_by_frobenius(A: GradedAlgebra) -> bool:
    """Berlekamp's criterion: an algebra A over F = GF(q) is a field iff
    Phi: x -> x^q is injective and fixes only F * 1.

    Precondition: A is commutative and associative.  Then Phi is F-linear
    (the Frobenius is additive and fixes F).  A nonzero nilpotent x has
    x^(q^k) = 0 for some k, so Phi^k, and hence Phi, is not injective; a
    kernel vector of Phi is itself nilpotent.  So rank Phi = n iff A is
    reduced.  A reduced A is a product of fields GF(q^d_i), in each of which
    Phi fixes exactly GF(q), so the dimension of Phi's fixed space counts
    those factors: it is 1 iff A is a field."""
    F = A.field
    n = A.dim
    phi = [A.vec_power(A.basis_vec(j), F.q) for j in range(n)]
    shifted = [A.add_vec(col, {j: F.neg(F.one)}) for j, col in enumerate(phi)]
    return rank(F, phi) == n and len(kernel(F, shifted)) == 1


# ---------------------------------------------------------------------------
# Gradings on finite fields
# ---------------------------------------------------------------------------


def ff_grading_exists(p: int, ell: int, k: int) -> Decision:
    """Whether GF(p^{k ell}) admits a Z_k-grading with identity component
    GF(p^ell): every prime q | k must divide p^ell - 1, and 4 | k forces
    4 | p^ell - 1.  Refuses p not prime (through the bounded factorint, so a
    p it cannot settle is refused naming the bound), ell < 1 and k < 1."""
    if p < 2 or factorint(p) != {p: 1}:
        raise GradedFieldError(f"{p} is not prime")
    if ell < 1:
        raise GradedFieldError("extension degree must be >= 1")
    if k < 1:
        raise GradedFieldError("k must be >= 1")
    m = p**ell - 1
    for q in prime_divisors(k):
        if m % q != 0:
            return Decision("false", f"prime {q} divides k but not p^ell - 1 = {m}")
    if k % 4 == 0 and m % 4 != 0:
        return Decision("false", f"4 divides k but not p^ell - 1 = {m}")
    return Decision("true", "both divisibility conditions hold")


def ff_grading_mus(F: FiniteField, k: int) -> list[int]:
    """All mu in F^x whose graded-field F[X]/(X^k - mu) is a field, sorted:
    mu^{(|F| - 1)/r} != 1 for every prime r | k.  Valid when
    ``ff_grading_exists(F.p, F.ell, k)`` holds, which puts each such r in
    |F| - 1; then mu = g^j passes iff no r divides j, read off the walk over
    the powers of the generator g."""
    primes = prime_divisors(k)
    return sorted(mu for j, mu in enumerate(F.roots_of_unity()) if all(j % r for r in primes))


def embed_field(small: FiniteField, big: FiniteField):
    """Field embedding GF(p^ell) -> GF(p^L) and its inverse on the image, as
    two maps.  The embedding sends x = sum c_i t^i in GF(p)[t]/(f), f the
    small modulus, to sum c_i root^i for the least root of f in big (Horner).
    That map is a ring homomorphism because f(root) = 0, which the root
    search checks, and it is injective as GF(p)[t]/(f) is a field, so no
    product is compared.  The inverse reads the c_i of y = sum c_i root^i off
    one echelon form of the powers root^i over GF(p), and refuses a y
    outside the image; from GF(p) the image is the y with no digit above
    the constant one, and the inverse reads that digit."""
    if small.p != big.p or big.ell % small.ell != 0:
        raise GradedFieldError("no embedding between these fields")
    root = big.zero  # GF(p) needs no root: every x is its own c_0
    if small.ell > 1:
        coeffs = [big.from_int(c) for c in small.modulus]
        # every root lies in the subfield of order small.q: 0 and the powers of
        # g^((Q-1)/(q-1)) for the generator g of big.  0 is not a root, since the
        # modulus is irreducible of degree >= 2, so the smallest root found here
        # is the first root in the integer order of big.elements()
        step = (big.q - 1) // (small.q - 1)
        subfield_units = (big.power(big.generator(), step * j) for j in range(small.q - 1))
        root = min((x for x in subfield_units if big.is_zero(poly_eval(big, coeffs, x))), default=None)
        if root is None:
            raise AssertionError("internal: modulus has no root in the big field")

    def embed(x: int) -> int:
        acc = big.zero
        for c in reversed(small.to_vec(x)):
            acc = big.add(big.mul(acc, root), big.from_int(c))
        return acc

    def refuse(y: int):
        raise GradedFieldError(f"{big.elem_to_json(y)} is not in the image of GF({small.q}) in GF({big.q})")

    if small.ell == 1:
        # elements are base-p digits, so y < p iff only its constant digit is set
        def restrict(y: int) -> int:
            if y >= small.p:
                refuse(y)
            return y

        return embed, restrict

    def digits(y: int) -> dict:
        return {i: c for i, c in enumerate(big.to_vec(y)) if c}

    powers = [big.one]
    for _ in range(small.ell - 1):
        powers.append(big.mul(powers[-1], root))
    ech = echelon(Residues(small.p), [digits(w) for w in powers])

    def restrict(y: int) -> int:
        coeffs = express(ech, digits(y))
        if coeffs is None:
            refuse(y)
        return small.from_vec([coeffs.get(i, 0) for i in range(small.ell)])

    return embed, restrict


def frobenius_grading(p: int, ell: int, q: int) -> tuple[GradedAlgebra, dict]:
    """The Z_q-grading of GF(p^{q ell}) over GF(p^ell) by eigenspaces of the
    relative Frobenius x -> x^{p^ell}; q must be a prime divisor of p^ell - 1."""
    from .intutil import is_prime

    F = FiniteField(p, ell)
    # divisibility first: it bounds q by p^ell - 1 before the trial division
    if q >= 1 and (F.q - 1) % q != 0:
        raise GradedFieldError("q must divide p^ell - 1")
    if not is_prime(q):
        raise GradedFieldError("q must be prime")
    big = FiniteField(p, ell * q)
    emb, restrict = embed_field(F, big)
    zeta_small = F.unity_root(q)
    zeta = emb(zeta_small)

    def psi(x):
        return big.power(x, F.q)

    # character projection onto the zeta-eigenspace, scanning generator powers
    gamma = big.generator()
    x1 = None
    w = big.one
    for _ in range(big.q - 1):
        w = big.mul(w, gamma)
        acc = big.zero
        pj = w
        for j in range(q):
            acc = big.add(acc, big.mul(big.power(zeta, -j), pj))
            pj = psi(pj)
        if not big.is_zero(acc):
            x1 = acc
            break
    if x1 is None:
        raise AssertionError("internal: empty eigenspace")
    if psi(x1) != big.mul(zeta, x1):
        raise AssertionError("internal: projection missed the eigenspace")

    xs = [big.one]
    for _ in range(q - 1):
        xs.append(big.mul(xs[-1], x1))
    for i, x in enumerate(xs):
        if psi(x) != big.mul(big.power(zeta, i), x):
            raise AssertionError("internal: eigenvector relation failed")
    mu_big = big.mul(xs[-1], x1)  # x1^q
    if psi(mu_big) != mu_big:
        raise AssertionError("internal: x1^q is not fixed by the relative Frobenius")
    mu = restrict(mu_big)

    Zq = FinAbGroup((q,))
    A = construct(Zq, AltBicharacter.trivial(Zq), MuFunction(Zq, (mu,)), F, verify=True)
    # cross-check the abstract table against actual field products
    for i in range(q):
        for j in range(q):
            lhs = big.mul(xs[i], xs[j])
            c = mu_big if i + j >= q else big.one
            if lhs != big.mul(c, xs[(i + j) % q]):
                raise AssertionError("internal: eigenbasis products disagree with the table")
    info = {
        "identity_component": F.descriptor(),
        "extension_field": big.descriptor(),
        "zeta": F.elem_to_json(zeta_small),
        "mu": F.elem_to_json(mu),
        "eigenvectors": [big.elem_to_json(x) for x in xs],
    }
    return A, info


@dataclass(frozen=True)
class KummerSpec:
    """Base GF(p^ell) containing a primitive n-th root of unity, plus
    generators of the subgroup Lambda modulo n-th powers."""

    field: FiniteField
    n: int
    lambda_gens: tuple

    def __post_init__(self):
        if self.n < 1 or (self.field.q - 1) % self.n != 0:
            raise GradedFieldError("base field lacks a primitive n-th root of unity")
        for a in self.lambda_gens:
            if self.field.is_zero(a):
                raise GradedFieldError("Lambda generators must be units")


def kummer_grading(spec: KummerSpec) -> tuple[GradedAlgebra, dict]:
    """The canonical grading of GF(p^ell)(Lambda^{1/n}) by Lambda/(F^x)^n:
    the component at the coset of a is F * alpha with alpha^n = a."""
    F = spec.field
    n = spec.n
    m = F.q - 1
    dlogs = [F.dlog(a) for a in spec.lambda_gens]
    d = gcd(n, *dlogs) if dlogs else n
    r = n // d  # |Lambda / (F^x)^n|
    big = FiniteField(F.p, F.ell * r)
    emb, restrict = embed_field(F, big)
    g = F.generator()

    reps = [F.power(g, (j * d) % m if m else 0) for j in range(r)]
    # reps[0] = 1, and nth_root gives it the root 1
    alphas = [big.nth_root(emb(rep), n) for rep in reps]

    # spanning check: the alphas times an F-basis span the big field over GF(p)
    rows = []
    for alpha in alphas:
        for t in range(F.ell):
            basis_elem = F.from_vec([0] * t + [1])
            prod_elem = big.mul(alpha, emb(basis_elem))
            rows.append({k: c for k, c in enumerate(big.to_vec(prod_elem)) if c})

    if rank(Residues(F.p), rows) != F.ell * r:
        raise AssertionError("internal: components do not span the composite field")

    Zr = FinAbGroup((r,))
    elems = list(Zr.elements())
    pos = {e: i for i, e in enumerate(elems)}
    table = {}
    for i in range(r):
        for j in range(r):
            prod_elem = big.mul(alphas[i], alphas[j])
            tgt = (i + j) % r
            c_big = big.mul(prod_elem, big.inv(alphas[tgt]))
            if big.power(c_big, F.q) != c_big:
                raise AssertionError("internal: structure constant escaped the base field")
            c = restrict(c_big)
            table[(pos[elems[i]], pos[elems[j]])] = {pos[elems[tgt]]: c}
    A = GradedAlgebra(F, Zr, tuple(elems), table, {0: F.one})
    certify(A)
    info = {
        "grading_group_order": r,
        "coset_representatives": [F.elem_to_json(rep) for rep in reps],
        "roots": [big.elem_to_json(a) for a in alphas],
        "extension_field": big.descriptor(),
    }
    return A, info


def dual_galois_check(A: GradedAlgebra) -> tuple[bool, dict]:
    """Verify that a G-graded field extension E of F = GF(q) with
    1-dimensional components and full support is Galois with group dual
    to G: the characters chi act by chi . x_g = chi(g) x_g as |G| distinct
    automorphisms fixing exactly the identity component.

    Precondition: A is certified (grading, unit, associativity), as the
    outputs of `frobenius_grading` and `kummer_grading` are.  What is
    checked here is that E is a field: commutativity on the table, then
    Berlekamp's criterion (`is_field_by_frobenius`).  The rest is Kummer
    theory and holds for every such A.  Since exp(G) | q - 1, F holds a
    primitive o_i-th root of unity for each cyclic factor Z_{o_i}, so the
    dual group of G in F^x has |G| characters and they separate the
    elements of G.  Each chi is multiplicative, so on a G-graded table the
    map x_g -> chi(g) x_g is an automorphism; distinct characters give
    distinct automorphisms, and x_g is fixed by all of them iff g = 0."""
    F = A.field
    if not isinstance(F, FiniteField):
        raise GradedFieldError("dual check implemented for finite base fields")
    G = A.group
    n = G.exponent
    if n > 1 and (F.q - 1) % n != 0:
        raise GradedFieldError("base field lacks a primitive exp(G)-th root of unity")
    idx = {d: i for i, d in enumerate(A.degrees)}
    if len(idx) != A.dim or set(idx) != set(G.elements()):
        raise GradedFieldError("need 1-dimensional components with full support")
    if any(A.entry(i, j) != A.entry(j, i) for i in range(A.dim) for j in range(i)):
        return False, {"reason": "not commutative"}
    if not is_field_by_frobenius(A):
        return False, {"reason": "zero divisor found"}
    return True, {"automorphisms": G.order, "fixed_component": "identity"}
