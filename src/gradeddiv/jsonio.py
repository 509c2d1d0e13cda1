"""Canonical JSON descriptors for fields, groups, and algebras.

Reports are byte-stable: keys are sorted, entry lists are emitted in a fixed
order, rationals are "p/q" strings, finite-field elements are coefficient
arrays (lowest degree first), cyclotomic elements are arrays of rational
strings.
"""

from __future__ import annotations

import json

from .abelian import FinAbGroup
from .exactfield import CyclotomicField, FiniteField, RationalField, RealField
from .gradedalg import GradedAlgebra


class DescriptorError(ValueError):
    pass


def _required(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise DescriptorError(f"{where} is not a JSON object: {data!r}")
    if key not in data:
        raise DescriptorError(f"{where} has no {key!r}")
    return data[key]


def _array(value, where: str, length: int | None = None) -> list:
    """value, refused unless it is a JSON array (of length entries, if given)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise DescriptorError(f"{where} is not a JSON array{size}: {value!r}")
    return value


def _required_array(data: dict, key: str, where: str) -> list:
    return _array(_required(data, key, where), f"{where}'s {key!r}")


def _integer(value, name: str) -> int:
    """value, refused unless it is a JSON integer."""
    # bool is an int subclass, but true is no number here
    if type(value) is not int:
        raise DescriptorError(f"{name} = {value!r} is not an integer")
    return value


def _index(value, name: str, bound: int, what: str) -> int:
    """value, refused unless it is a JSON integer in [0, bound)."""
    if not 0 <= _integer(value, name) < bound:
        raise DescriptorError(f"{name} = {value} is outside the {what} indices [0, {bound})")
    return value


def field_from_json(data: dict):
    if not isinstance(data, dict):
        raise DescriptorError(f"the field descriptor is not a JSON object: {data!r}")
    kind = data.get("kind")
    if kind == "Q":
        return RationalField()
    if kind == "R":
        return RealField()
    if kind == "GF":
        p, ell = (_integer(_required(data, key, "the GF field descriptor"), f"GF {key}") for key in ("p", "ell"))
        modulus = data.get("modulus")
        if modulus is not None:
            digits = enumerate(_array(modulus, "the GF field descriptor's 'modulus'"))
            modulus = [_index(c, f"GF modulus digit {i}", p, f"GF({p}) digit") for i, c in digits]
        return FiniteField(p, ell, modulus=modulus)
    if kind == "CYC":
        return CyclotomicField(_integer(_required(data, "conductor", "the CYC field descriptor"), "CYC conductor"))
    raise DescriptorError(f"unknown field kind {kind!r}")


def group_from_json(data: dict) -> FinAbGroup:
    orders = _required_array(data, "orders", "the group descriptor")
    return FinAbGroup(tuple(_integer(n, "group order") for n in orders))


def _degree(G: FinAbGroup, exps, b: int):
    """Basis degree b, refused unless it has one exponent per cyclic factor,
    each a JSON integer in [0, order)."""
    exps = _array(exps, "a basis degree")
    if len(exps) != G.rank:
        raise DescriptorError(f"basis degree {b} has {len(exps)} exponents for a group of rank {G.rank}")
    pairs = enumerate(zip(exps, G.orders))
    return tuple(_index(x, f"basis degree {b} exponent {i}", n, f"Z_{n} exponent") for i, (x, n) in pairs)


def _constant(entry, dim: int) -> tuple:
    """(i, j, k, c) of a constant entry, refused unless it is a JSON object
    with basis indices i, j, k in [0, dim) and an entry c."""
    i, j, k = (_index(_required(entry, name, "a constant"), f"constant index {name}", dim, "basis") for name in "ijk")
    return i, j, k, _required(entry, "c", f"constant (i, j, k) = ({i}, {j}, {k})")


def algebra_to_json(A: GradedAlgebra) -> dict:
    F = A.field
    constants = []
    for (i, j), vec in A.table.items():
        for k, c in vec.items():
            constants.append({"i": i, "j": j, "k": k, "c": F.elem_to_json(c)})
    constants.sort(key=lambda e: (e["i"], e["j"], e["k"]))
    return {
        "field": F.descriptor(),
        "group": A.group.to_json(),
        "basis_degrees": [list(d) for d in A.degrees],
        "unit": sorted([[k, F.elem_to_json(c)] for k, c in A.unit.items()]),
        "constants": constants,
    }


def algebra_from_json(data: dict) -> GradedAlgebra:
    """The algebra a descriptor states; drops zero constants and zero unit
    coefficients.  Refuses a missing key, a part of the wrong JSON type, an
    empty basis, a basis index that is not a JSON integer in [0, dim), a
    degree exponent that is not a JSON integer in [0, order), and a second
    entry for one constant (i, j, k) or one unit index."""
    F = field_from_json(_required(data, "field", "the algebra descriptor"))
    G = group_from_json(_required(data, "group", "the algebra descriptor"))
    degrees = tuple(
        _degree(G, exps, b) for b, exps in enumerate(_required_array(data, "basis_degrees", "the algebra descriptor"))
    )
    if not degrees:
        # the zero algebra, where 1 = 0, would pass every oracle
        raise DescriptorError("the algebra descriptor has no basis vector: the zero algebra has 1 = 0")
    dim = len(degrees)
    table: dict = {}
    seen_constants = set()
    for entry in _required_array(data, "constants", "the algebra descriptor"):
        # one pass over a well-formed entry; the field-by-field checks name the fault
        try:
            i, j, k, c = entry["i"], entry["j"], entry["k"], entry["c"]
            valid = type(i) is type(j) is type(k) is int and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim
        except (KeyError, TypeError):
            valid = False
        if not valid:
            i, j, k, c = _constant(entry, dim)
        c = F.elem_from_json(c)
        if (i, j, k) in seen_constants:
            raise DescriptorError(f"constant (i, j, k) = ({i}, {j}, {k}) is given twice")
        seen_constants.add((i, j, k))
        if not F.is_zero(c):
            table.setdefault((i, j), {})[k] = c
    unit = {}
    seen_units = set()
    for entry in _required_array(data, "unit", "the algebra descriptor"):
        k, c = _array(entry, "a unit entry", 2)
        k = _index(k, "unit index k", dim, "basis")
        if k in seen_units:
            raise DescriptorError(f"unit index k = {k} is given twice")
        seen_units.add(k)
        c = F.elem_from_json(c)
        if not F.is_zero(c):
            unit[k] = c
    return GradedAlgebra(F, G, degrees, table, unit)


def quasitorus_params_from_json(data: dict):
    """(G, beta, mu, F) of a construct request.  Refuses a part of the wrong
    JSON type, a generator index that is not a JSON integer in [0, rank),
    and a second beta entry for one pair or mu entry for one generator."""
    from .quasitorus import AltBicharacter, MuFunction

    F = field_from_json(_required(data, "field", "the construct request"))
    G = group_from_json(_required(data, "group", "the construct request"))
    beta_entries: dict = {}
    for entry in _array(data.get("beta", []), "the construct request's 'beta'"):
        i, j, v = _array(entry, "a beta entry", 3)
        i = _index(i, "beta generator index i", G.rank, "generator")
        j = _index(j, "beta generator index j", G.rank, "generator")
        if (i, j) in beta_entries:
            raise DescriptorError(f"beta entry (i, j) = ({i}, {j}) is given twice")
        beta_entries[(i, j)] = F.elem_from_json(v)
    beta = AltBicharacter.from_pairs(G, [(i, j, v) for (i, j), v in beta_entries.items()], F)
    mu_entries: dict = {}
    for entry in _array(data.get("mu", []), "the construct request's 'mu'"):
        i, v = _array(entry, "a mu entry", 2)
        i = _index(i, "mu generator index i", G.rank, "generator")
        if i in mu_entries:
            raise DescriptorError(f"mu entry i = {i} is given twice")
        mu_entries[i] = F.elem_from_json(v)
    gen_values = tuple(mu_entries.get(i, F.one) for i in range(G.rank))
    mu = MuFunction(G, gen_values)
    return G, beta, mu, F


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
