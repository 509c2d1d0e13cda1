"""The cocycle certificate of twisted group algebras (``GradedAlgebra.twist``)
against the general scans of the grading, unit and associativity oracles."""

import hashlib
import json

import pytest
from helpers import kernel_center_dim, nonzero_elements, perturbations, quasitorus_params
from hypothesis import given, settings, strategies as st

from gradeddiv.cli import main
from gradeddiv.gradedalg import (
    OracleError,
    _scan_associative,
    _scan_grading,
    _scan_unit,
    _twisted_associative,
    _twisted_unital,
    center_dim,
    verify_associative,
    verify_grading,
    verify_unit,
)
from gradeddiv.jsonio import algebra_to_json, quasitorus_params_from_json
from gradeddiv.quasitorus import construct

ORACLES = ((verify_grading, _scan_grading), (verify_unit, _scan_unit), (verify_associative, _scan_associative))


@given(quasitorus_params(), st.data())
@settings(max_examples=150, deadline=None)
def test_cocycle_certificate_agrees_with_the_scans(params, data):
    F, G, beta, mu = params
    A = construct(G, beta, mu, F, verify=False)
    key = data.draw(st.sampled_from(sorted(A.table)))
    factor = data.draw(nonzero_elements(F).filter(lambda x: x != F.one))
    ((k, _),) = A.table[key].items()
    wrong = data.draw(st.sampled_from([m for m in range(A.dim) if m != k]))
    changed = perturbations(A, key, factor, wrong)
    for name, B in [("table", A), *changed.items()]:
        for fast, scan in ORACLES:
            assert fast(B) == scan(B), (name, fast.__name__)
        if name in ("dropped", "wrong index"):
            with pytest.raises(OracleError):
                B.twist()
        else:
            # the fast checks decide on their own: a failure is one of the scan too
            tw = B.twist()
            assert _twisted_unital(tw) == _scan_unit(B)[0]
            assert _twisted_associative(tw) == _scan_associative(B)[0]
    assert A.twist().gens == [A.degrees.index(G.generator(i)) for i in range(G.rank)]
    assert center_dim(A) == kernel_center_dim(A)


# one perturbation kind per field kind; sha256, length and exit code of the
# stdout bytes of verify on the perturbed construct output
PINNED_VERIFY = [
    (
        {"group": {"orders": [2, 4]}, "beta": [[0, 1, "-1/1"]], "mu": [[0, "-1/1"], [1, "2/3"]], "field": {"kind": "Q"}},
        "changed",
        ("889a209a516d491333dadfe01f2b4be47df87b95b12de52d7eb9b51ceaf9fe72", 2337, 0),
    ),
    (
        {"group": {"orders": [4, 2]}, "beta": [[0, 1, "-1/1"]], "mu": [[0, "-1/1"], [1, "-1/1"]], "field": {"kind": "R"}},
        "dropped",
        ("a78899c813e076f3fcdac6d049e6a112f57bf45ce5d195295bce633e557effd7", 2319, 0),
    ),
    (
        {"group": {"orders": [8]}, "beta": [], "mu": [[0, [0, 1]]], "field": {"kind": "GF", "p": 3, "ell": 2}},
        "wrong index",
        ("910f72633395d90cd874a847a73bb65603d713c4f3cce4a2f5ac3448a4059379", 2335, 0),
    ),
    (
        {
            "group": {"orders": [4, 2]},
            "beta": [[0, 1, ["-1/1", "0/1"]]],
            "mu": [[0, ["0/1", "1/1"]], [1, ["-1/1", "0/1"]]],
            "field": {"kind": "CYC", "conductor": 4},
        },
        "unit",
        ("88659aced4f4c4d976f90125fbd865ce528396d37afbe243659a155ed43545cf", 2857, 0),
    ),
]


@pytest.mark.parametrize("request_, kind, pinned", PINNED_VERIFY, ids=["Q-changed", "R-dropped", "GF9-wrong-index", "Qzeta4-unit"])
def test_verify_reports_on_perturbed_tables_are_pinned(capsys, tmp_path, request_, kind, pinned):
    G, beta, mu, F = quasitorus_params_from_json(request_)
    A = construct(G, beta, mu, F, verify=False)
    key = (1, A.dim - 1)
    ((k, _),) = A.table[key].items()
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(algebra_to_json(perturbations(A, key, F.from_int(2), (k + 1) % A.dim)[kind])))
    code = main(["verify", "--in", str(path)])
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out), code) == pinned
