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
    if key not in data:
        raise DescriptorError(f"{where} has no {key!r}")
    return data[key]


def field_from_json(data: dict):
    kind = data.get("kind")
    if kind == "Q":
        return RationalField()
    if kind == "R":
        return RealField()
    if kind == "GF":
        p, ell = (int(_required(data, key, "the GF field descriptor")) for key in ("p", "ell"))
        return FiniteField(p, ell, modulus=data.get("modulus"))
    if kind == "CYC":
        return CyclotomicField(int(_required(data, "conductor", "the CYC field descriptor")))
    raise DescriptorError(f"unknown field kind {kind!r}")


def group_from_json(data: dict) -> FinAbGroup:
    _required(data, "orders", "the group descriptor")
    return FinAbGroup.from_json(data)


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
        "basis_degrees": [list(d.exponents) for d in A.degrees],
        "unit": sorted([[k, F.elem_to_json(c)] for k, c in A.unit.items()]),
        "constants": constants,
    }


def algebra_from_json(data: dict) -> GradedAlgebra:
    """The algebra a descriptor states; drops zero constants and zero unit
    coefficients.  Refuses a missing key, a basis index that is not a JSON
    integer in [0, dim), and a second entry for one constant (i, j, k) or
    one unit index."""
    F = field_from_json(_required(data, "field", "the algebra descriptor"))
    G = group_from_json(_required(data, "group", "the algebra descriptor"))
    degrees = tuple(G.element(exps) for exps in _required(data, "basis_degrees", "the algebra descriptor"))
    dim = len(degrees)

    def index(value, name: str) -> int:
        # bool is an int subclass, but true is no basis index
        if type(value) is not int:
            raise DescriptorError(f"{name} = {value!r} is not an integer")
        if not 0 <= value < dim:
            raise DescriptorError(f"{name} = {value} is outside the basis indices [0, {dim})")
        return value

    table: dict = {}
    seen_constants = set()
    for entry in _required(data, "constants", "the algebra descriptor"):
        i, j, k = (index(_required(entry, name, "a constant"), f"constant index {name}") for name in "ijk")
        c = F.elem_from_json(_required(entry, "c", f"constant (i, j, k) = ({i}, {j}, {k})"))
        if (i, j, k) in seen_constants:
            raise DescriptorError(f"constant (i, j, k) = ({i}, {j}, {k}) is given twice")
        seen_constants.add((i, j, k))
        if not F.is_zero(c):
            table.setdefault((i, j), {})[k] = c
    unit = {}
    seen_units = set()
    for k, c in _required(data, "unit", "the algebra descriptor"):
        k = index(k, "unit index k")
        if k in seen_units:
            raise DescriptorError(f"unit index k = {k} is given twice")
        seen_units.add(k)
        c = F.elem_from_json(c)
        if not F.is_zero(c):
            unit[k] = c
    return GradedAlgebra(F, G, degrees, table, unit)


def quasitorus_params_from_json(data: dict):
    from .quasitorus import AltBicharacter, MuFunction

    F = field_from_json(data["field"])
    G = group_from_json(data["group"])
    beta_pairs = [(int(i), int(j), F.elem_from_json(v)) for i, j, v in data.get("beta", [])]
    beta = AltBicharacter.from_pairs(G, beta_pairs, F)
    mu_entries = {int(i): F.elem_from_json(v) for i, v in data.get("mu", [])}
    gen_values = tuple(mu_entries.get(i, F.one) for i in range(G.rank))
    mu = MuFunction(G, gen_values)
    return G, beta, mu, F


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
