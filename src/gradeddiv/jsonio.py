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


def field_from_json(data: dict):
    kind = data.get("kind")
    if kind == "Q":
        return RationalField()
    if kind == "R":
        return RealField()
    if kind == "GF":
        return FiniteField(int(data["p"]), int(data["ell"]), modulus=data.get("modulus"))
    if kind == "CYC":
        return CyclotomicField(int(data["conductor"]))
    raise DescriptorError(f"unknown field kind {kind!r}")


def group_from_json(data: dict) -> FinAbGroup:
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
    """The algebra a descriptor states; refuses basis indices outside
    [0, dim) and drops zero constants and zero unit coefficients."""
    F = field_from_json(data["field"])
    G = group_from_json(data["group"])
    degrees = tuple(G.element(exps) for exps in data["basis_degrees"])
    dim = len(degrees)

    def index(value, name: str) -> int:
        i = int(value)
        if not 0 <= i < dim:
            raise DescriptorError(f"{name} = {i} is outside the basis indices [0, {dim})")
        return i

    table: dict = {}
    for entry in data["constants"]:
        i, j, k = (index(entry[name], f"constant index {name}") for name in "ijk")
        c = F.elem_from_json(entry["c"])
        if F.is_zero(c):
            continue
        table.setdefault((i, j), {})[k] = c
    unit = {}
    for k, c in data["unit"]:
        k = index(k, "unit index k")
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
