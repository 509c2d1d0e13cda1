"""Finite abelian groups presented as products of cyclic groups.

A group is a fixed tuple of cyclic factor orders.  An element is a plain
exponent tuple, each exponent reduced modulo its factor order; the group
law is the group's ``add``, ``sub``, ``neg`` and ``scale`` (never ``+`` or
``*``, which concatenate and repeat tuples).  Tuples compare in
lexicographic exponent order, which is the order every list of elements
here is kept in.  Two presentations of isomorphic groups are distinct
values on purpose: every construction downstream is relative to a chosen
decomposition.

Subgroups store their full element lists.  Groups here are desk scale
(hundreds of elements), so everything is decided by enumeration rather than
lattice machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd, lcm, prod

from .intutil import is_prime, prime_divisors


@dataclass(frozen=True)
class FinAbGroup:
    """Direct product of cyclic groups of the given orders (each >= 1); its
    methods are the group law on exponent tuples (module doc)."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(n < 1 for n in self.orders):
            raise ValueError(f"cyclic factor orders must be >= 1, got {self.orders}")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def generator(self, i: int) -> tuple[int, ...]:
        exps = [0] * self.rank
        exps[i] = 1 % self.orders[i]
        return tuple(exps)

    def elements(self):
        """All elements in lexicographic exponent order."""
        return product(*(range(n) for n in self.orders))

    def add(self, a: tuple, b: tuple) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders, strict=True))

    def sub(self, a: tuple, b: tuple) -> tuple[int, ...]:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.orders, strict=True))

    def neg(self, a: tuple) -> tuple[int, ...]:
        return tuple(-x % n for x, n in zip(a, self.orders, strict=True))

    def scale(self, k: int, a: tuple) -> tuple[int, ...]:
        return tuple(k * x % n for x, n in zip(a, self.orders, strict=True))

    def element_order(self, a: tuple) -> int:
        """Least m >= 1 with m*a = 0, i.e. lcm over i of n_i / gcd(n_i, a_i)."""
        return lcm(*(n // gcd(n, x) for x, n in zip(a, self.orders, strict=True)))

    def to_json(self) -> dict:
        return {"orders": list(self.orders)}

    def __str__(self) -> str:
        if not self.orders:
            return "Z_1"
        return " x ".join(f"Z_{n}" for n in self.orders)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a presented group, as generators plus the full element list."""

    group: FinAbGroup
    elements: tuple[tuple[int, ...], ...]  # sorted
    generators: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_generators(group: FinAbGroup, gens) -> Subgroup:
        gens = tuple(gens)
        closure = {group.identity()}
        frontier = [group.identity()]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = group.add(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        return Subgroup(group, tuple(sorted(closure)), gens)

    @staticmethod
    def from_elements(group: FinAbGroup, elems) -> Subgroup:
        sub = Subgroup.from_generators(group, tuple(elems))
        if set(sub.elements) != set(elems):
            raise ValueError("element set is not closed under the group operation")
        return sub

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.elements)

    def __contains__(self, g: tuple) -> bool:
        return g in self.element_set()

    def index(self) -> int:
        return self.group.order // self.order


def torsion_p_part(G: FinAbGroup, p: int) -> Subgroup:
    """Subgroup of elements of p-power order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    gens = []
    for i, n in enumerate(G.orders):
        pe = 1
        while n % p == 0:
            n //= p
            pe *= p
        if pe > 1:
            # n is now the p'-part of the factor order; n * a_i has order pe
            gens.append(G.scale(n, G.generator(i)))
    return Subgroup.from_generators(G, gens)


@cache
def two_torsion(G: FinAbGroup) -> Subgroup:
    """K_[2] = elements killed by doubling, built once per presented group."""
    gens = [G.scale(n // 2, G.generator(i)) for i, n in enumerate(G.orders) if n % 2 == 0]
    return Subgroup.from_generators(G, gens)


def squares(G: FinAbGroup) -> Subgroup:
    """K^[2] = image of the doubling map."""
    gens = [G.scale(2, G.generator(i)) for i in range(G.rank)]
    return Subgroup.from_generators(G, gens)


def index2_subgroups(T: FinAbGroup) -> list[Subgroup]:
    """All subgroups of index 2, as kernels of the nonzero characters T -> Z_2."""
    if T.order % 2 != 0:
        return []
    slots = [i for i, n in enumerate(T.orders) if n % 2 == 0]
    out = []
    for mask in product(*([0, 1] for _ in slots)):
        if not any(mask):
            continue
        chi = dict(zip(slots, mask))

        def value(g: tuple) -> int:
            return sum(chi.get(i, 0) * e for i, e in enumerate(g)) % 2

        kernel = [g for g in T.elements() if value(g) == 0]
        out.append(Subgroup.from_elements(T, kernel))
    out.sort(key=lambda s: s.elements)
    return out


def is_direct_summand(K: Subgroup, t0: tuple) -> bool:
    """Whether the index-2 subgroup K splits off T, decided by 2*t0 in K^[2].

    The answer does not depend on which t0 outside K is used; that is checked
    separately as a property test.
    """
    T = K.group
    if K.index() != 2:
        raise ValueError("K must have index 2")
    if t0 in K:
        raise ValueError("t0 must lie outside K")
    doubled = {T.scale(2, k) for k in K.elements}
    return T.scale(2, t0) in doubled


def all_subgroups(G: FinAbGroup) -> list[Subgroup]:
    """Every subgroup, by closing generator sets; fine for |G| up to a few hundred."""
    found: dict[tuple, Subgroup] = {}
    trivial = Subgroup.from_generators(G, ())
    found[trivial.elements] = trivial
    frontier = [trivial]
    while frontier:
        S = frontier.pop()
        for g in G.elements():
            if g in S:
                continue
            T = Subgroup.from_generators(G, S.generators + (g,))
            if T.elements not in found:
                found[T.elements] = T
                frontier.append(T)
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


# ---------------------------------------------------------------------------
# Structure extraction: presenting a subgroup as a product of cyclic groups.
# Elements are opaque hashable, comparable tokens with caller-supplied
# operations, because _p_basis recurses on the quotient by a cyclic subgroup,
# whose tokens are canonical coset representatives (the least element of
# each coset) rather than group elements.
# ---------------------------------------------------------------------------


def _token_order(x, add, zero):
    n = 1
    acc = x
    while acc != zero:
        acc = add(acc, x)
        n += 1
    return n


def _p_basis(elems, add, neg, zero):
    """Basis of a finite abelian p-group given as tokens; list of (token, order)."""
    if len(elems) == 1:
        return []
    orders = {x: _token_order(x, add, zero) for x in elems}
    x1 = min(x for x in elems if orders[x] == max(orders.values()))
    o1 = orders[x1]
    cyc = [zero]
    acc = x1
    while acc != zero:
        cyc.append(acc)
        acc = add(acc, x1)
    cyc_set = set(cyc)

    def canon(x):
        return min(add(x, h) for h in cyc_set)

    q_elems = sorted({canon(x) for x in elems})
    q_add = lambda a, b: canon(add(a, b))
    q_neg = lambda a: canon(neg(a))
    q_zero = canon(zero)
    sub = _p_basis(q_elems, q_add, q_neg, q_zero)
    out = [(x1, o1)]
    for ybar, q_ord in sub:
        y = ybar  # canonical representative is itself a group token
        t = zero
        for _ in range(q_ord):
            t = add(t, y)
        # t lies in <x1>; find c with c*x1 == t, then shift y by (c/q_ord)*x1
        c = cyc.index(t) if t in cyc_set else None
        if c is None:
            raise AssertionError("internal: lifted element does not land in the cyclic part")
        if c % q_ord != 0:
            raise AssertionError("internal: basis lifting divisibility failed")
        z = zero
        for _ in range(c // q_ord):
            z = add(z, x1)
        out.append((add(y, neg(z)), q_ord))
    return out


def _abelian_basis(elems, add, neg, zero):
    """Independent generators with prime-power orders for a generic finite abelian group."""
    n = len(elems)
    if n == 1:
        return []
    basis = []
    for p in prime_divisors(n):
        part = [x for x in elems if _is_p_power(_token_order(x, add, zero), p)]
        basis.extend(_p_basis(part, add, neg, zero))
    total = 1
    for _, o in basis:
        total *= o
    if total != n:
        raise AssertionError("internal: basis orders do not multiply to the group order")
    return basis


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _sorted_presentation(basis):
    """Order convention: 2-primary factors first, then odd primes ascending."""

    def slot(item):
        _, o = item
        p = prime_divisors(o)[0]
        return (p != 2, p, o)

    return sorted(basis, key=lambda it: (slot(it), it[1]))


@dataclass(frozen=True)
class SubgroupPresentation:
    """A subgroup rewritten as its own FinAbGroup, with coordinate maps."""

    subgroup: Subgroup
    group: FinAbGroup  # presentation with prime-power cyclic factors
    gens: tuple[tuple[int, ...], ...]  # images of the presentation generators

    def embed(self, x: tuple) -> tuple[int, ...]:
        """Map a presentation element to the ambient group."""
        G = self.subgroup.group
        out = G.identity()
        for e, g in zip(x, self.gens):
            out = G.add(out, G.scale(e, g))
        return out

    def coords(self) -> dict[tuple, tuple]:
        cached = self.__dict__.get("_coords_cache")
        if cached is not None:
            return cached
        table = {}
        for x in self.group.elements():
            table[self.embed(x)] = x
        if len(table) != self.group.order:
            raise AssertionError("internal: presentation generators are not independent")
        object.__setattr__(self, "_coords_cache", table)
        return table


def subgroup_presentation(S: Subgroup) -> SubgroupPresentation:
    G = S.group
    basis = _abelian_basis(list(S.elements), G.add, G.neg, G.identity())
    basis = _sorted_presentation(basis)
    if not basis:
        return SubgroupPresentation(S, FinAbGroup(()), ())
    orders = tuple(o for _, o in basis)
    gens = tuple(g for g, _ in basis)
    pres = SubgroupPresentation(S, FinAbGroup(orders), gens)
    pres.coords()  # validates independence and coverage
    return pres
