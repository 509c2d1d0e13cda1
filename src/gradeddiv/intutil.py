"""Integer helpers: primality, bounded factorization, divisors.

Primality is a deterministic Miller-Rabin test, exact below
PRIME_TEST_BOUND and refused with a ValueError from there on.
Factorization is plain trial division with a hard bound; past it,
FactorBoundExceeded is raised instead of a silently wrong answer.  It is a
ValueError, so the CLI answers it like any other bad parameter (exit 3, with
the bound in the message).  The bound is configurable via the environment
variable GDA_FACTOR_BOUND.
"""

from __future__ import annotations

import os

DEFAULT_FACTOR_BOUND = 10**7


class FactorBoundExceeded(ValueError):
    """Trial division reached the bound before it finished; the input is too large."""


def factor_bound() -> int:
    raw = os.environ.get("GDA_FACTOR_BOUND")
    if raw is None:
        return DEFAULT_FACTOR_BOUND
    try:
        bound = int(raw)
    except ValueError as exc:
        raise ValueError(f"GDA_FACTOR_BOUND must be an integer, got {raw!r}") from exc
    if bound < 2:
        raise ValueError("GDA_FACTOR_BOUND must be at least 2")
    return bound


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003)
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n >= PRIME_TEST_BOUND."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int, bound: int | None = None) -> dict[int, int]:
    """Factor |n| > 0 by trial division, as {prime: exponent}."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    if bound is None:
        bound = factor_bound()
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        if d > bound:
            raise FactorBoundExceeded(f"trial division exceeded bound {bound} on residue {n}")
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        # no divisor up to sqrt(n) was found, so the residue is prime
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorint(n).keys())


def divisors(n: int) -> list[int]:
    n = abs(n)
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)
