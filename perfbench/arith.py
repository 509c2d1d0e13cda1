"""Exact arithmetic for the benchmark's input generation and output checks.

Written apart from ``gradeddiv`` on purpose: a check that reused the
program's own field code would share its faults.  Three coefficient kinds
cover every report the benchmark reads:

* ``Rationals``  - Q and the program's real model R (both are Fractions;
  only power classes differ, and the checks never need R's sign classes).
* ``GF``         - GF(p^ell) as coefficient tuples reduced modulo the monic
  modulus a report states, with plain schoolbook polynomial arithmetic.
* ``Cyclotomic`` - Q(zeta_N) as Fraction tuples reduced modulo the N-th
  cyclotomic polynomial, computed here by exact integer division.

Every field offers the same small protocol: ``zero``, ``one``, ``add``,
``neg``, ``mul``, ``inv``, ``pow``, ``is_zero``, ``from_json``, ``to_json``
and ``roots_of_unity(d)`` (all elements x with x^d = 1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod


def prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| > 0 by trial division (benchmark inputs are small)."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_of(n: int) -> list[int]:
    return sorted(prime_factors(n)) if abs(n) > 1 else []


def p_part(n: int, p: int) -> int:
    """The largest power of the prime p dividing n."""
    pe = 1
    while n % (pe * p) == 0:
        pe *= p
    return pe


def integer_root(n: int, k: int) -> int | None:
    """The k-th root of n >= 0 if it is an integer, else None."""
    if n < 0:
        raise ValueError("integer_root needs n >= 0")
    if n < 2:
        return n
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        v = mid**k
        if v == n:
            return mid
        if v < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def rational_root(x: Fraction, k: int) -> Fraction | None:
    """A rational y with y^k = x, or None."""
    if x < 0:
        if k % 2 == 0:
            return None
        y = rational_root(-x, k)
        return None if y is None else -y
    num = integer_root(x.numerator, k)
    den = integer_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def parse_rational(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"bad rational encoding {s!r}")
    return Fraction(s)


def rational_json(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Q and R
# ---------------------------------------------------------------------------


class Rationals:
    def __init__(self, kind: str = "Q"):
        self.kind = kind
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def descriptor(self) -> dict:
        return {"kind": self.kind}

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def pow(self, a, e: int):
        return a**e

    def is_zero(self, a) -> bool:
        return a == 0

    def from_json(self, data) -> Fraction:
        return parse_rational(data)

    def to_json(self, x) -> str:
        return rational_json(x)

    def roots_of_unity(self, d: int) -> list:
        return [self.one, -self.one] if d % 2 == 0 else [self.one]


# ---------------------------------------------------------------------------
# Polynomials over GF(p), coefficient lists lowest degree first
# ---------------------------------------------------------------------------


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def gfp_mul(a, b, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def gfp_divmod(a, b, p: int) -> tuple[list, list]:
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        c = (a[-1] * inv) % p
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        _trim(a)
    return _trim(q), a


def gfp_irreducible(f, p: int) -> bool:
    """Monic f over GF(p) is irreducible iff no monic factor of degree
    1..deg/2 divides it; found by enumerating the candidates."""
    n = len(f) - 1
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for coeffs in product(range(p), repeat=d):
            if not gfp_divmod(f, list(coeffs) + [1], p)[1]:
                return False
    return True


def monic_irreducibles(p: int, ell: int) -> list[list[int]]:
    return [
        list(c) + [1]
        for c in product(range(p), repeat=ell)
        if gfp_irreducible(list(c) + [1], p)
    ]


# ---------------------------------------------------------------------------
# GF(p^ell)
# ---------------------------------------------------------------------------


class GF:
    """GF(p^ell) on coefficient tuples of length ell, modulo a monic modulus."""

    kind = "GF"

    def __init__(self, p: int, ell: int = 1, modulus=None):
        self.p = p
        self.ell = ell
        self.q = p**ell
        if modulus is None:
            if ell != 1:
                raise ValueError("GF(p^ell) with ell > 1 needs its modulus")
            modulus = [0, 1]
        self.modulus = [int(c) % p for c in modulus]
        if len(self.modulus) != ell + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree ell")
        self.zero = (0,) * ell
        self.one = (1,) + (0,) * (ell - 1)

    def descriptor(self) -> dict:
        return {"kind": "GF", "p": self.p, "ell": self.ell, "modulus": list(self.modulus)}

    def _tup(self, f) -> tuple:
        f = list(f) + [0] * (self.ell - len(f))
        return tuple(f[: self.ell])

    def from_int(self, n: int) -> tuple:
        """Element whose base-p digits (lowest first) are the coefficients."""
        digits = []
        for _ in range(self.ell):
            digits.append(n % self.p)
            n //= self.p
        return tuple(digits)

    def elements(self):
        return [self.from_int(n) for n in range(self.q)]

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        prod_ = gfp_mul(list(a), list(b), self.p)
        return self._tup(gfp_divmod(prod_, self.modulus, self.p)[1])

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.q - 2)

    def is_zero(self, a) -> bool:
        return not any(a)

    def order(self, a) -> int:
        """Multiplicative order of a unit."""
        m = self.q - 1
        n = m
        for r in primes_of(m):
            while n % r == 0 and self.pow(a, n // r) == self.one:
                n //= r
        return n

    def is_power(self, a, k: int) -> bool:
        """Whether the unit a is a k-th power (Euler's criterion)."""
        d = gcd(k, self.q - 1)
        return self.pow(a, (self.q - 1) // d) == self.one

    def from_json(self, data) -> tuple:
        if isinstance(data, int):
            return self.from_int(data)
        coeffs = [int(c) % self.p for c in data]
        if len(coeffs) > self.ell:
            coeffs = gfp_divmod(coeffs, self.modulus, self.p)[1]
        return self._tup(coeffs)

    def to_json(self, x) -> list:
        return list(x)

    def roots_of_unity(self, d: int) -> list:
        return [x for x in self.elements()[1:] if self.pow(x, d) == self.one]


# ---------------------------------------------------------------------------
# Q(zeta_N)
# ---------------------------------------------------------------------------


def _int_poly_div_exact(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        shift = len(a) - len(b)
        c, rem = divmod(a[-1], b[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return out


def cyclotomic_poly(N: int) -> list[int]:
    """Phi_N, lowest coefficient first: X^N - 1 divided by Phi_d for d | N, d < N."""
    f = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            f = _int_poly_div_exact(f, cyclotomic_poly(d))
    return f


class Cyclotomic:
    kind = "CYC"

    def __init__(self, N: int):
        self.N = N
        self.phi = cyclotomic_poly(N)
        self.deg = len(self.phi) - 1
        self.zero = (Fraction(0),) * self.deg
        self.one = self.reduce([Fraction(1)])
        self.zeta = self.reduce([Fraction(0), Fraction(1)])
        # the roots of unity in Q(zeta_N) are the M-th ones, M = lcm(2, N)
        self.M = N if N % 2 == 0 else 2 * N

    def descriptor(self) -> dict:
        return {"kind": "CYC", "conductor": self.N}

    def reduce(self, coeffs) -> tuple:
        """The element with these coefficients (lowest first), reduced modulo Phi_N."""
        c = [Fraction(x) for x in coeffs]
        d = self.deg
        while len(c) > d:
            lead = c.pop()
            if lead:
                shift = len(c) - d
                for i in range(d):
                    c[shift + i] -= lead * self.phi[i]
        c += [Fraction(0)] * (d - len(c))
        return tuple(c)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self.reduce(out)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        """Inverse by solving a * y = 1 as a linear system over Q."""
        d = self.deg
        cols = [self.mul(a, self.reduce([0] * j + [1])) for j in range(d)]
        rows = [[cols[j][r] for j in range(d)] + [self.one[r]] for r in range(d)]
        for c in range(d):
            piv = next((r for r in range(c, d) if rows[r][c] != 0), None)
            if piv is None:
                raise ZeroDivisionError("inverse of 0")
            rows[c], rows[piv] = rows[piv], rows[c]
            pv = rows[c][c]
            rows[c] = [v / pv for v in rows[c]]
            for r in range(d):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c]
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
        return tuple(rows[r][d] for r in range(d))

    def is_zero(self, a) -> bool:
        return not any(a)

    def from_json(self, data) -> tuple:
        return self.reduce([parse_rational(c) for c in data])

    def to_json(self, x) -> list:
        return [rational_json(c) for c in x]

    def root(self, k: int):
        """zeta_M^k, the generator of the roots of unity raised to k."""
        if self.N % 2 == 0:
            gen = self.zeta
        else:
            # -zeta_N^((N+1)/2) squares to zeta_N and has order 2N
            gen = self.neg(self.pow(self.zeta, (self.N + 1) // 2))
        return self.pow(gen, k % self.M)

    def roots_of_unity(self, d: int) -> list:
        g = gcd(d, self.M)
        return [self.root(k * (self.M // g)) for k in range(g)]


def field_from_descriptor(d: dict):
    kind = d.get("kind")
    if kind in ("Q", "R"):
        return Rationals(kind)
    if kind == "GF":
        return GF(int(d["p"]), int(d["ell"]), d.get("modulus"))
    if kind == "CYC":
        return Cyclotomic(int(d["conductor"]))
    raise ValueError(f"unknown field kind {kind!r}")


# ---------------------------------------------------------------------------
# Binomial irreducibility, stated independently of the program's criterion
# ---------------------------------------------------------------------------


def gf_binomial_irreducible(F: GF, a, n: int) -> bool:
    """Lidl-Niederreiter, Theorem 3.75: for n >= 2 and a unit a of order e,
    X^n - a is irreducible over GF(q) iff every prime r | n divides e but
    not (q - 1)/e, and 4 | n implies q = 1 mod 4."""
    if n == 1:
        return True
    e = F.order(a)
    for r in primes_of(n):
        if e % r or ((F.q - 1) // e) % r == 0:
            return False
    return not (n % 4 == 0 and F.q % 4 != 1)


def q_binomial_irreducible(a: Fraction, n: int) -> bool:
    """Capelli: X^n - a is irreducible over Q iff a is no p-th power for a
    prime p | n and, when 4 | n, a is not of the form -4 b^4."""
    if n == 1:
        return True
    for r in primes_of(n):
        if rational_root(a, r) is not None:
            return False
    return not (n % 4 == 0 and rational_root(a / -4, 4) is not None)


def square_class_vector(a: Fraction) -> frozenset:
    """Sign and odd-exponent primes of a: its class in Q^x / (Q^x)^2."""
    bits = {-1} if a < 0 else set()
    for p, e in prime_factors(a.numerator).items():
        if e % 2:
            bits ^= {p}
    for p, e in prime_factors(a.denominator).items():
        if e % 2:
            bits ^= {p}
    return frozenset(bits)


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of sets, read as indicator vectors."""
    bit: dict = {}
    basis: dict[int, int] = {}  # pivot bit -> reduced vector
    for v in vectors:
        m = 0
        for x in v:
            m |= 1 << bit.setdefault(x, len(bit))
        while m:
            top = m.bit_length() - 1
            if top not in basis:
                basis[top] = m
                break
            m ^= basis[top]
    return len(basis)


def is_field_by_criteria(F, orders, mus) -> str | None:
    """The verdict the classical criteria give, or None where they are not applied."""
    if isinstance(F, GF):
        parts = [(n, m) for n, m in zip(orders, mus) if n > 1]
        irreducible = all(gf_binomial_irreducible(F, m, n) for n, m in parts)
        coprime = all(gcd(a[0], b[0]) == 1 for k, a in enumerate(parts) for b in parts[k + 1 :])
        return "true" if irreducible and coprime else "false"
    if len(orders) == 1:
        return "true" if q_binomial_irreducible(mus[0], orders[0]) else "false"
    verdict = "true"
    for p in primes_of(prod(orders)):
        parts = [(p_part(n, p), m) for n, m in zip(orders, mus) if n % p == 0]
        if len(parts) == 1:
            ok = q_binomial_irreducible(parts[0][1], parts[0][0])
        elif p == 2 and all(pe == 2 for pe, _ in parts):
            ok = gf2_rank(square_class_vector(m) for _, m in parts) == len(parts)
        else:
            return None
        if not ok:
            verdict = "false"
    return verdict


def poly_mul(F, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    while out and F.is_zero(out[-1]):
        out.pop()
    return out
