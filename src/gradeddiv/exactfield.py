"""Exact coefficient fields shared by every construction in the package.

Four contexts implement one duck-typed protocol (add, mul, inv, power,
is_nth_power, nth_power_class, nth_root, power_class_vector,
roots_of_unity, integer_image, JSON encoding).  Roots and power classes are
asked of the field, nowhere else: ``nth_root(x, n)`` is a y with y^n = x,
or None when the field has none, and raises FieldError when the model
cannot write down or decide a root of the field it stands for;
``power_class_vector(x, p)``, p prime, is the class of x in F^x/(F^x)^p as
a sparse vector over GF(p).  ``integer_image`` maps vectors of elements
to int vectors and a test ``is_zero`` that decides on the ints whether a
signed sum of products of two entries is 0 in the field: over Q and R by one
common denominator, over GF(p) mod p, and over GF(p^ell) and Q(zeta_N) by
``_packed_image``.

* ``RationalField``    - plain rationals; elements are ``fractions.Fraction``.
* ``RealField``        - exact model of a real closed field.  Elements are
  still Fractions, but n-th power classes use sign semantics: every rational
  is an n-th power for odd n, positives are for even n.  This suffices for
  real classification work, where all structure constants can be normalized
  into {0, +1, -1}.  ``nth_root`` raises where the real root is irrational.
* ``FiniteField``      - GF(p^ell) with a deterministic monic modulus.
  Elements are integers in [0, q) encoding coefficient vectors base p
  (lowest degree first).  No table of the field is built: over GF(p) a
  product is a*b mod p; over GF(p^ell) the digit vectors are packed into
  ints (Kronecker substitution), multiplied, and reduced modulo the modulus
  and p; powers and inverses are square-and-multiply.  Discrete logarithms
  to the designated generator are taken on demand by Pohlig-Hellman with
  baby-step giant-step, checked and cached per field, and the roots, power
  classes and roots of unity are read off them.  Fields above
  ``FIELD_TABLE_BOUND`` = 2^23 elements are refused before any work.
* ``CyclotomicField``  - Q(zeta_N) as residues modulo the N-th cyclotomic
  polynomial, with Fraction coefficients.  It plays the role of "enough of C"
  for computations whose constants are roots of unity: accordingly
  ``is_nth_power``/``nth_power_class`` use the divisible-group convention
  (always true / trivial class), which is the correct answer over C.
  ``nth_root`` writes down roots of roots of unity only.

Rational power classes factor integers by bounded trial division and raise
rather than guess when the bound is hit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import not_

from .intutil import DEFAULT_FACTOR_BOUND, divisors, factor_bound, factorint, is_prime, prime_divisors


class FieldError(ValueError):
    pass


class Residues:
    """Z/P for a prime P, elements ints in [0, P): only the arithmetic
    ``linalg``'s elimination runs, for linear algebra over GF(p) in
    ``gradedfield``: ranks of power-class vectors and of the digit vectors
    of ``gradedfield.kummer_grading``, and ``gradedfield.embed_field``'s
    inverse."""

    zero = 0
    one = 1

    def __init__(self, P: int):
        self.P = P

    def is_zero(self, x) -> bool:
        return x == 0

    def sub(self, a, b):
        return (a - b) % self.P

    def mul(self, a, b):
        return a * b % self.P

    def neg(self, a):
        return -a % self.P

    def inv(self, a):
        return pow(a, -1, self.P)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _iroot(a: int, n: int) -> int:
    """floor(a^(1/n)) for an int a >= 0: ``isqrt`` for n = 2 (and a < 2, its
    own root), otherwise Newton's step on ints, which falls from
    2^ceil(bits/n) > a^(1/n) to the floor and stops there."""
    if n == 2 or a < 2:
        return isqrt(a)
    x = 1 << -(-a.bit_length() // n)
    while (y := ((n - 1) * x + a // x ** (n - 1)) // n) < x:
        x = y
    return x


def _root_name(x, n: int) -> str:
    return f"sqrt({x})" if n == 2 else f"({x})^(1/{n})"


def _nonzero(is_zero: bool) -> None:
    if is_zero:
        raise FieldError("power classes are defined on nonzero elements")


# ---------------------------------------------------------------------------
# Rationals and the real-closed model
# ---------------------------------------------------------------------------


class RationalField:
    kind = "Q"

    def __init__(self, bound: int | None = None):
        self.bound = bound if bound is not None else factor_bound()
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField) and type(other) is type(self)

    def __hash__(self):
        return hash(self.kind)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def is_zero(self, x) -> bool:
        return x == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        return a / b

    def power(self, a, e: int):
        if e >= 0:
            return a**e
        return (1 / a) ** (-e)

    def roots_of_unity(self):
        return (Fraction(1), Fraction(-1))

    def unity_root(self, n: int):
        if n == 1:
            return Fraction(1)
        if n == 2:
            return Fraction(-1)
        raise FieldError(f"no primitive {n}-th root of unity in Q")

    def _exponents(self, x: Fraction) -> dict[int, int]:
        out = dict(factorint(x.numerator, self.bound))
        for p, e in factorint(x.denominator, self.bound).items():
            out[p] = out.get(p, 0) - e
        return out

    def is_nth_power(self, x, n: int) -> bool:
        _nonzero(x == 0)
        if n % 2 == 0 and x < 0:
            return False
        return all(e % n == 0 for e in self._exponents(abs(x)).values())

    def nth_power_class(self, x, n: int):
        """Canonical coset tag of x in Q^x / (Q^x)^n."""
        _nonzero(x == 0)
        sign = 1 if n % 2 == 1 else _sign(x)
        exps = tuple(sorted((p, e % n) for p, e in self._exponents(abs(x)).items() if e % n))
        return (n, sign, exps)

    def nth_root(self, x, n: int):
        """The rational y with y^n = x, positive for even n, or None."""
        if x < 0 and n % 2 == 0:
            return None
        a, b = abs(x.numerator), x.denominator
        num, den = _iroot(a, n), _iroot(b, n)
        if num**n != a or den**n != b:
            return None
        return Fraction(num if x > 0 else -num, den)

    def power_class_vector(self, x, p: int) -> dict:
        """The exponents of x mod p keyed by prime, with the sign at key -1
        when p = 2."""
        _nonzero(x == 0)
        vec = {q: e % p for q, e in self._exponents(abs(x)).items() if e % p}
        if p == 2 and x < 0:
            vec[-1] = 1
        return vec

    def integer_image(self, vecs: list[dict]) -> tuple:
        """Each vector times D, the common denominator of all their entries,
        as int vectors: a sum of products of two entries is D^2 times its
        rational value, so it is 0 iff the int is."""
        D = lcm(*{c.denominator for vec in vecs for c in vec.values()})
        return [{k: c.numerator * (D // c.denominator) for k, c in vec.items()} for vec in vecs], not_

    def elem_to_json(self, x):
        return f"{x.numerator}/{x.denominator}"

    def elem_from_json(self, data) -> Fraction:
        # bool is an int subclass, but true is no rational
        if isinstance(data, (str, int)) and not isinstance(data, bool):
            try:
                return Fraction(data)
            except ZeroDivisionError:  # "1/0"
                pass
        raise FieldError(f"bad rational encoding: {data!r}")

    def descriptor(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self):
        return "Q"


class RealField(RationalField):
    """Exact real-closed coefficients: Fractions with sign power classes."""

    kind = "R"

    def is_nth_power(self, x, n: int) -> bool:
        _nonzero(x == 0)
        return n % 2 == 1 or x > 0

    def nth_power_class(self, x, n: int):
        _nonzero(x == 0)
        return (n, 1 if n % 2 == 1 else _sign(x), ())

    def nth_root(self, x, n: int):
        """Q's root; None only for x < 0 and n even, the one case where R
        has no root either."""
        y = super().nth_root(x, n)
        if y is None and (x > 0 or n % 2):
            raise FieldError(f"{_root_name(x, n)} has no representative in the Q model of R")
        return y

    def power_class_vector(self, x, p: int) -> dict:
        """The sign at key -1 when p = 2; every real is a p-th power for odd p."""
        _nonzero(x == 0)
        return {-1: 1} if p == 2 and x < 0 else {}

    def __repr__(self):
        return "R"


# ---------------------------------------------------------------------------
# Polynomials over GF(p), coefficients as int lists (lowest degree first)
# ---------------------------------------------------------------------------


def _gfp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _gfp_mod(a, f, p):
    """a mod f with f monic."""
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i, c in enumerate(f):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _gfp_trim(a)


def _monic_gfp(f, p):
    inv = pow(f[-1], -1, p)
    return [(c * inv) % p for c in f]


def _gfp_gcd(a, b, p):
    a = _gfp_trim([c % p for c in a])
    b = _gfp_trim([c % p for c in b])
    while b:
        a, b = b, _gfp_mod(a, _monic_gfp(b, p), p)
    return _monic_gfp(a, p) if a else []


def _packed_image(coeff_vecs: list[dict], modulus, p: int) -> tuple:
    """``integer_image`` over F[x]/(f), f = modulus monic of degree d in Z[x],
    F = GF(p) or, for p = 0, Q with D-scaled coefficients.  Each coefficient
    list is packed into sum c_i 2^(k i).  A signed sum of at most 2w products
    (w the most entries in one vector) is sum_t e_t 2^(k t) over t < 2d - 1,
    |e_t| <= 2 w d c^2 < 2^(k-1) for c the largest |c_i|, so its balanced
    base-2^k digits are the e_t; ``is_zero`` reduces them modulo f (exact, f
    is monic) and tests the d low ones, mod p when p > 0."""
    d = len(modulus) - 1
    w = max(map(len, coeff_vecs), default=0)
    c = max((abs(x) for vec in coeff_vecs for xs in vec.values() for x in xs), default=0)
    k = (2 * w * d * c * c).bit_length() + 1
    mask, half = (1 << k) - 1, 1 << (k - 1)
    offset = sum(half << (k * t) for t in range(2 * d - 1))  # makes every digit e_t + half >= 0

    def is_zero(v) -> bool:
        v += offset
        e = [((v >> (k * t)) & mask) - half for t in range(2 * d - 1)]
        for t in range(2 * d - 2, d - 1, -1):
            for i in range(d):
                e[t - d + i] -= e[t] * modulus[i]
        return not any(x % p for x in e[:d]) if p else not any(e[:d])

    return [{key: sum(x << (k * i) for i, x in enumerate(xs)) for key, xs in vec.items()} for vec in coeff_vecs], is_zero


# ---------------------------------------------------------------------------
# GF(p^ell)
# ---------------------------------------------------------------------------


# largest GF(q) accepted: it bounds the walks over every unit
# (``roots_of_unity``, ``ff-grade --list-mu``) and the baby-step tables of
# discrete logarithms; larger fields are refused before any work
FIELD_TABLE_BOUND = 2**23


class FiniteField:
    """GF(p^ell); elements are ints in [0, q) encoding base-p coefficient vectors.

    Every exponentiation runs on packed elements: Rabin's test of the modulus,
    the generator search and Pohlig-Hellman.  ``generator`` skips the indices
    below p, which are GF(p)^x and so of order dividing p - 1 < q - 1.  A
    digit step of ``dlog`` raises gamma^-1, gamma of order r^e, to a power
    below r^e, not g to one of about log2 q bits."""

    kind = "GF"

    def __init__(self, p: int, ell: int, modulus=None):
        # a prime above the bound would only be refused below, after a long trial division
        if p <= FIELD_TABLE_BOUND and not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if ell < 1:
            raise FieldError("extension degree must be >= 1")
        self.p = p
        self.ell = ell
        # ell is tested first so that a huge ell never computes p**ell
        if ell >= FIELD_TABLE_BOUND.bit_length() or p**ell > FIELD_TABLE_BOUND:
            raise FieldError(
                f"GF({p}^{ell}) has more than FIELD_TABLE_BOUND = {FIELD_TABLE_BOUND} elements, too many to tabulate"
            )
        self.q = p**ell
        self.zero = 0
        self.one = 1
        self._gen = None
        self._dlogs: dict[int, int] = {}
        self._baby: dict[int, tuple] = {}
        # Kronecker packing: digit i sits in bits [k i, k i + k).  A product of
        # two packed elements has coefficients <= ell (p-1)^2, and ``_reduce``
        # adds at most (ell-1)(p-1)^2 to each low one, so every coefficient c
        # is below 2^b, as is each digit of a sum or difference that ``add``
        # and ``sub`` reduce (below 2p, and they take ell >= 2).  Then c mod p = c - p floor(c M / 2^s) for s = b +
        # bits(p) and M = ceil(2^s / p) (Granlund-Montgomery), in every digit
        # at once: c M < 2^k, and each quotient, below 2^b, sits under the bits
        # the next digit's c M shifts down.  A packed element times
        # sum p^(ell-1-j) x^j has coefficients < q, the one of x^(ell-1) being
        # the element itself (``_unpack``).  None of this depends on the
        # modulus, only ``_reducers`` does.
        b = ((2 * ell - 1) * (p - 1) ** 2).bit_length()
        self._s = s = b + p.bit_length()
        self._M = -(-(1 << s) // p)
        self._k = k = max(b + s, self.q.bit_length())
        self._mask = (1 << k) - 1
        self._quotients = sum(((1 << b) - 1) << (k * i) for i in range(ell))
        self._radix = sum(p ** (ell - 1 - j) << (k * j) for j in range(ell))
        self._radix_p = sum(p << (k * j) for j in range(ell))
        if modulus is None:
            # the first monic irreducible of degree ell, its lower coefficients
            # read as the base-p digits of 0, 1, 2, ...; for ell > 1 the
            # multiples of p are skipped, as x divides their polynomials
            candidates = (self._digits(i, p, ell) + [1] for i in range(self.q) if ell == 1 or i % p)
        else:
            candidates = [[int(c) % p for c in modulus]]
            if len(candidates[0]) != ell + 1 or candidates[0][-1] != 1:
                raise FieldError("modulus must be monic of degree ell")
        if not any(map(self._irreducible, candidates)):
            raise FieldError("modulus is not irreducible")

    def _irreducible(self, f) -> bool:
        """Makes the monic f of degree ell the modulus, and tells whether it
        is irreducible by Rabin's test on packed elements of GF(p)[x]/(f):
        x^(p^ell) = x, and x^(p^(ell/r)) - x is prime to f for every prime
        r | ell (a degree-1 f is irreducible)."""
        p, k, ell = self.p, self._k, self.ell
        self.modulus = tuple(f)
        if ell == 1:
            self._reducers = []
            return True
        # x^t mod f, packed, for the high coefficients t = ell .. 2 ell - 2:
        # x^ell = -(f_0 + ... + f_(ell-1) x^(ell-1)), and x^(t+1) = x x^t
        self._reducers = [sum(-c % p << (k * i) for i, c in enumerate(f[:-1]))]
        for _ in range(ell - 2):
            self._reducers.append(self._reduce(self._reducers[-1] << k))
        checkpoints = {ell // r for r in prime_divisors(ell)}
        h = p  # the element x
        for i in range(1, ell + 1):
            h = self.power(h, p)
            if i in checkpoints:
                h_minus_x = list(self.to_vec(h))
                h_minus_x[1] = (h_minus_x[1] - 1) % p
                # gcd(f, 0) = f: then f divides x^(p^i) - x, a product of factors of degree dividing i
                if _gfp_gcd(f, h_minus_x, p) != [1]:
                    return False
        return h == p

    @staticmethod
    def _digits(n, p, width):
        out = []
        for _ in range(width):
            out.append(n % p)
            n //= p
        return out

    def to_vec(self, x: int) -> tuple[int, ...]:
        return tuple(self._digits(x, self.p, self.ell))

    def from_vec(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) > self.ell:
            coeffs = _gfp_mod([c % self.p for c in coeffs], list(self.modulus), self.p)
        x = 0
        for c in reversed(coeffs):
            x = x * self.p + (c % self.p)
        return x

    def _pack(self, x: int) -> int:
        """The digits of the element x at k-bit spacing."""
        p, k = self.p, self._k
        v = shift = 0
        while x:
            x, c = divmod(x, p)
            v += c << shift
            shift += k
        return v

    def _reduce(self, v: int) -> int:
        """A product of two packed elements, reduced modulo the modulus and p
        and packed again: each high coefficient, mod p, adds its multiple of
        x^t mod the modulus to the low ones."""
        p, k, mask = self.p, self._k, self._mask
        low = k * self.ell
        acc = v & ((1 << low) - 1)
        v >>= low
        for r in self._reducers:
            if not v:
                break
            acc += (v & mask) % p * r
            v >>= k
        return acc - p * ((acc * self._M >> self._s) & self._quotients)

    def _unpack(self, v: int) -> int:
        """The element whose packed digits are v."""
        return (v * self._radix >> (self._k * (self.ell - 1))) & self._mask

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.ell == self.ell
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.ell, self.modulus))

    def from_int(self, n: int) -> int:
        return n % self.p

    def coerce(self, x) -> int:
        x = int(x)
        if not 0 <= x < self.q:
            raise FieldError(f"element index {x} out of range for GF({self.q})")
        return x

    def is_zero(self, x) -> bool:
        return x == 0

    def add(self, a: int, b: int) -> int:
        if self.ell == 1:
            return (a + b) % self.p
        return self._unpack(self._reduce(self._pack(a) + self._pack(b)))

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        if self.ell == 1:
            return (a - b) % self.p
        # p in every digit keeps each difference of digits >= 0
        return self._unpack(self._reduce(self._pack(a) + self._radix_p - self._pack(b)))

    def mul(self, a: int, b: int) -> int:
        if self.ell == 1:
            return a * b % self.p
        return self._unpack(self._reduce(self._pack(a) * self._pack(b)))

    def inv(self, a: int) -> int:
        return self.power(a, -1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def power(self, a: int, e: int) -> int:
        """a^e by square-and-multiply, with e taken mod q - 1 for a unit a."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of 0")
            return self.one if e == 0 else 0
        e %= self.q - 1
        if self.ell == 1:
            return pow(a, e, self.p)
        # ``_reduce`` inlined: each bit squares ("0"), then a 1 multiplies by a
        p, k, mask, reducers = self.p, self._k, self._mask, self._reducers
        M, s, quotients = self._M, self._s, self._quotients
        low = k * self.ell
        low_mask = (1 << low) - 1
        a, r = self._pack(a), 1
        for step in f"{e:b}".replace("1", "01"):
            v = r * r if step == "0" else r * a
            acc = v & low_mask
            v >>= low
            for red in reducers:
                if not v:
                    break
                acc += (v & mask) % p * red
                v >>= k
            r = acc - p * ((acc * M >> s) & quotients)
        return self._unpack(r)

    def generator(self) -> int:
        """The designated generator of the multiplicative group: the first
        element, in index order, whose (q-1)/r-th power is not 1 for every
        prime r | q - 1 (kept, with the factors of q - 1 that ``dlog`` reads).
        For ell > 1 the scan starts at index p: the indices 1 .. p - 1 are
        GF(p)^x, whose orders divide p - 1 < q - 1, so none of them generates."""
        if self._gen is None:
            m, self._factors = self.q - 1, factorint(self.q - 1)
            start = 1 if self.ell == 1 else self.p
            self._gen = next(c for c in range(start, self.q) if all(self.power(c, m // r) != 1 for r in self._factors))
        return self._gen

    def dlog(self, x: int) -> int:
        """The L in [0, q - 1) with g^L = x for g = ``generator()``, by
        Pohlig-Hellman: for each prime power r^e || q - 1, x^((q-1)/r^e) =
        g^((q-1)/r^e L) gives L mod r^e, read in base r one digit at a time
        by ``_bsgs`` in the subgroup of order r; the Chinese remainder theorem
        joins them.  A digit step multiplies by a power of gamma^-1, gamma =
        g^((q-1)/r^e) of order r^e, so its exponent d r^i is reduced below r^e
        instead of being one of about log2 q bits.  Each answer is checked and
        cached."""
        if x == 0:
            raise FieldError("discrete log of 0")
        if x not in self._dlogs:
            m, g = self.q - 1, self.generator()
            L, M = 0, 1
            for r, e in self._factors.items():
                h, Le = self.power(x, m // r**e), 0
                if e > 1:
                    gamma_inv = self.power(g, -(m // r**e))
                for i in range(e):
                    # h = gamma^(L - Le), and L - Le = d r^i (mod r^(i+1))
                    d = self._bsgs(r, self.power(h, r ** (e - 1 - i)) if i < e - 1 else h)
                    if d and i < e - 1:
                        h = self.mul(h, self.power(gamma_inv, d * r**i))
                    Le += d * r**i
                L += M * ((Le - L) * pow(M, -1, r**e) % r**e)
                M *= r**e
            if self.power(g, L) != x:
                raise AssertionError("internal: discrete log failed")
            self._dlogs[x] = L
        return self._dlogs[x]

    def _bsgs(self, r: int, y: int) -> int:
        """The d in [0, r) with gamma^d = y, gamma = g^((q-1)/r) of prime
        order r, by baby-step giant-step on packed elements: y gamma^(-s i) =
        gamma^j for d = s i + j, s = ceil(sqrt(r)); the baby steps are kept
        per r."""
        if r not in self._baby:
            gamma = self.power(self.generator(), (self.q - 1) // r)
            s, step, w, baby = isqrt(r - 1) + 1, self._pack(gamma), 1, {}
            for j in range(s):
                baby[w] = j
                w = self._reduce(w * step)
            self._baby[r] = (s, baby, self._pack(self.power(gamma, -s)))
        s, baby, giant = self._baby[r]
        y = self._pack(y)
        for i in range(s):
            if y in baby:
                return s * i + baby[y]
            y = self._reduce(y * giant)
        raise AssertionError("internal: no discrete log in the subgroup of prime order")

    def elements(self):
        return range(self.q)

    def roots_of_unity(self):
        """All of GF(q)^x, in powers-of-generator order (every unit is
        torsion): the walk g^0, g^1, ..., g^(q-2)."""
        g, w, out = self._pack(self.generator()), 1, []
        for _ in range(self.q - 1):
            out.append(self._unpack(w))
            w = self._reduce(w * g)
        return tuple(out)

    def unity_root(self, n: int) -> int:
        m = self.q - 1
        if n < 1 or m % n != 0:
            raise FieldError(f"no primitive {n}-th root of unity in GF({self.q})")
        return self.power(self.generator(), m // n)

    def is_nth_power(self, x: int, n: int) -> bool:
        return self.nth_power_class(x, n)[1] == self.one

    def nth_power_class(self, x: int, n: int):
        _nonzero(x == 0)
        return (n, self.power(x, (self.q - 1) // gcd(n, self.q - 1)))

    def nth_root(self, x: int, n: int):
        """The y = g^t with y^n = x and t least, or None: with m = q - 1 and
        d = gcd(n, m), g^s has n-th roots iff d | s, and they are g^t for
        t = (s/d) (n/d)^(-1) mod m/d plus the multiples of m/d."""
        if x == 0:
            return x
        m = self.q - 1
        s, d = self.dlog(x), gcd(n, m)
        if s % d:
            return None
        y = self.power(self.generator(), (s // d) * pow(n // d, -1, m // d) % (m // d))
        if self.power(y, n) != x:
            raise AssertionError("internal: root extraction failed")
        return y

    def power_class_vector(self, x: int, p: int) -> dict:
        """{0: log x mod p} when p divides q - 1, else {}: F^x is cyclic of
        order q - 1, so F^x/(F^x)^p has order gcd(p, q - 1)."""
        _nonzero(x == 0)
        e = self.dlog(x) % p if (self.q - 1) % p == 0 else 0
        return {0: e} if e else {}

    def integer_image(self, vecs: list[dict]) -> tuple:
        """Over GF(p) the residues, zero when divisible by p; over GF(p^ell)
        the base-p digit vectors, packed modulo the modulus (``_packed_image``)."""
        if self.ell == 1:
            return vecs, lambda v: v % self.p == 0
        return _packed_image([{k: self.to_vec(x) for k, x in vec.items()} for vec in vecs], self.modulus, self.p)

    def elem_to_json(self, x: int):
        return list(self.to_vec(x))

    def elem_from_json(self, data) -> int:
        """An element index in [0, q) or a list of digits in [0, p), lowest
        degree first; nothing is reduced mod p."""
        if type(data) is int and 0 <= data < self.q:
            return data
        if not isinstance(data, list) or any(type(c) is not int or not 0 <= c < self.p for c in data):
            raise FieldError(
                f"bad finite-field encoding: {data!r} is neither an index in [0, {self.q}) nor digits in [0, {self.p})"
            )
        return self.from_vec(data)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "p": self.p, "ell": self.ell, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.q})"


# ---------------------------------------------------------------------------
# Cyclotomic fields Q(zeta_N)
# ---------------------------------------------------------------------------

# coefficient context of the Q[X] arithmetic behind the cyclotomic fields; it
# never factors, so it takes a fixed bound instead of reading GDA_FACTOR_BOUND
_QQ = RationalField(DEFAULT_FACTOR_BOUND)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients (lowest first) of the N-th cyclotomic polynomial."""
    if N < 1:
        raise FieldError("conductor must be >= 1")
    f = [Fraction(-1)] + [Fraction(0)] * (N - 1) + [Fraction(1)]  # X^N - 1
    for d in divisors(N):
        if d == N:
            continue
        g = [Fraction(c) for c in cyclotomic_polynomial(d)]
        f, rem = poly_divmod(_QQ, f, g)
        if rem:
            raise AssertionError("internal: division was not exact")
    assert all(c.denominator == 1 for c in f)
    return tuple(int(c) for c in f)


class CyclotomicField:
    """Q(zeta_N) as residues mod the N-th cyclotomic polynomial.

    Elements are tuples of Fractions of length phi(N) (lowest degree first).
    Power residues use the C-model convention (see module docstring).
    """

    kind = "CYC"

    def __init__(self, N: int):
        if N < 1:
            raise FieldError("conductor must be >= 1")
        self.N = N
        self.phi = tuple(Fraction(c) for c in cyclotomic_polynomial(N))
        self.deg = len(self.phi) - 1
        self.zero = (Fraction(0),) * self.deg
        self.one = self._tup([Fraction(1)])
        self.zeta = self._reduce([Fraction(0), Fraction(1)])
        # torsion subgroup of the units: mu_M with M = lcm(2, N)
        self.M = N if N % 2 == 0 else 2 * N
        if N % 2 == 0:
            self._zmu = self.zeta
        else:
            self._zmu = self.neg(self.zeta_pow((N + 1) // 2))

    def _tup(self, coeffs) -> tuple:
        coeffs = list(coeffs) + [Fraction(0)] * (self.deg - len(coeffs))
        return tuple(coeffs[: self.deg])

    def _reduce(self, coeffs) -> tuple:
        coeffs = [Fraction(c) for c in coeffs]
        d = self.deg
        while len(coeffs) > d:
            lead = coeffs.pop()
            if lead:
                shift = len(coeffs) - d
                for i in range(d):
                    coeffs[shift + i] -= lead * self.phi[i]
        return self._tup(coeffs)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.N == self.N

    def __hash__(self):
        return hash((self.kind, self.N))

    def from_int(self, n: int):
        return self._tup([Fraction(n)])

    def coerce(self, x):
        return self._tup([Fraction(c) for c in x])

    def is_zero(self, x) -> bool:
        return all(c == 0 for c in x)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        if self.is_zero(a) or self.is_zero(b):
            return self.zero
        out = [Fraction(0)] * (2 * self.deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return self._reduce(out)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        # extended Euclid in Q[X] against the (irreducible) modulus
        r0, r1 = list(self.phi), poly_trim(_QQ, a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, r = poly_divmod(_QQ, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(_QQ, s0, poly_mul(_QQ, q, s1))
        if len(r0) != 1:
            raise AssertionError("internal: gcd with the cyclotomic modulus is not constant")
        c = r0[0]
        return self._reduce([s / c for s in s0])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, e: int):
        if e < 0:
            return self.power(self.inv(a), -e)
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def zeta_pow(self, k: int):
        return self.power(self.zeta, k % self.N)

    def roots_of_unity(self):
        return tuple(self.power(self._zmu, i) for i in range(self.M))

    def unity_root(self, n: int):
        if n < 1 or self.M % n != 0:
            raise FieldError(f"no primitive {n}-th root of unity in Q(zeta_{self.N})")
        return self.power(self._zmu, self.M // n)

    def is_nth_power(self, x, n: int) -> bool:
        _nonzero(self.is_zero(x))
        return True

    def nth_power_class(self, x, n: int):
        _nonzero(self.is_zero(x))
        return (n, 1)

    def nth_root(self, x, n: int):
        """The first root of unity y with y^n = x, or None when x is a root
        of unity and no root of unity is one (every root of x is one);
        raises for any other x."""
        if self.is_zero(x):
            return x
        roots = self.roots_of_unity()
        if x not in roots:
            raise FieldError(
                f"{_root_name(self.elem_to_json(x), n)} has no representative in the Q(zeta_{self.N}) model, "
                "which writes down roots of roots of unity only"
            )
        return next((y for y in roots if self.power(y, n) == x), None)

    def _scaled(self, vecs: list[dict]) -> list[dict]:
        """The coefficient tuples times D, the common denominator of all their
        coefficients, as int lists: elements of Z[zeta]."""
        D = lcm(*{c.denominator for vec in vecs for x in vec.values() for c in x})
        return [{k: [c.numerator * (D // c.denominator) for c in x] for k, x in vec.items()} for vec in vecs]

    def integer_image(self, vecs: list[dict]) -> tuple:
        """``_scaled`` packed modulo Phi_N (``_packed_image``); a sum of
        products of two entries is D^2 times its field value."""
        return _packed_image(self._scaled(vecs), cyclotomic_polynomial(self.N), 0)

    def elem_to_json(self, x):
        return [f"{c.numerator}/{c.denominator}" for c in x]

    def elem_from_json(self, data):
        """A list of rationals, lowest degree first; a list longer than the
        degree denotes its residue mod Phi_N, as ``FiniteField.from_vec``
        reads an over-long digit list."""
        if not isinstance(data, list):
            raise FieldError(f"bad cyclotomic encoding: {data!r}")
        coeffs = [_QQ.elem_from_json(c) for c in data]
        return self._reduce(coeffs) if len(coeffs) > self.deg else self._tup(coeffs)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "conductor": self.N}

    def __repr__(self):
        return f"Q(zeta_{self.N})"


# ---------------------------------------------------------------------------
# Power residue test of the binomial criterion
# ---------------------------------------------------------------------------


def minus4_fourth_power_test(field, alpha) -> bool:
    """Whether alpha lies in -4 * (F^x)^4 (vacuously false in characteristic 2)."""
    if field.is_zero(alpha):
        raise FieldError("test is defined on nonzero elements")
    minus4 = field.from_int(-4)
    if field.is_zero(minus4):
        return False
    return field.is_nth_power(field.div(alpha, minus4), 4)


# ---------------------------------------------------------------------------
# Generic dense polynomials over any of the field contexts (lowest first)
# ---------------------------------------------------------------------------


def poly_trim(field, f):
    f = list(f)
    while f and field.is_zero(f[-1]):
        f.pop()
    return f


def poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not field.is_zero(ai):
            for j, bj in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return poly_trim(field, out)


def poly_sub(field, a, b):
    n = max(len(a), len(b))
    out = [field.zero] * n
    for i, c in enumerate(a):
        out[i] = field.add(out[i], c)
    for i, c in enumerate(b):
        out[i] = field.sub(out[i], c)
    return poly_trim(field, out)


def poly_divmod(field, a, b):
    a = poly_trim(field, list(a))
    b = poly_trim(field, list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = field.inv(b[-1])
    q = [field.zero] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        c = field.mul(a[-1], binv)
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(c, bc))
        a = poly_trim(field, a)
    return poly_trim(field, q), a


def poly_eval(field, f, x):
    acc = field.zero
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def binomial_poly(field, n: int, alpha):
    """X^n - alpha."""
    f = [field.neg(alpha)] + [field.zero] * (n - 1) + [field.one]
    return f
