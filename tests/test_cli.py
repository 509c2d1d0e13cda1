import hashlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from helpers import classify_stratum, dense, left_mult_matrix, solve

from gradeddiv import jsonio
from gradeddiv.abelian import FinAbGroup
from gradeddiv.cli import build_parser, main
from gradeddiv.exactfield import FIELD_TABLE_BOUND
from gradeddiv.gradedalg import FINITE_SCAN_BOUND, invert_vec
from gradeddiv.realclass import REPORT_CONSTANT_BOUND


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def quat_request(tmp_path):
    req = {
        "group": {"orders": [2, 2]},
        "beta": [[0, 1, "-1/1"]],
        "mu": [[0, "-1/1"], [1, "-1/1"]],
        "field": {"kind": "R"},
    }
    path = tmp_path / "req.json"
    path.write_text(json.dumps(req))
    return path


def test_construct_and_verify_roundtrip(capsys, tmp_path, quat_request):
    out = tmp_path / "alg.json"
    code, report = run_cli(capsys, "construct", "--in", str(quat_request), "--out", str(out))
    assert code == 0
    assert all(check["ok"] for check in report["verification"].values())
    assert report["input"]["group"] == {"orders": [2, 2]}  # input embedded

    code, verify_report = run_cli(capsys, "verify", "--in", str(out))
    assert code == 0
    assert verify_report["verdict"] is True


def test_invariants_report(capsys, tmp_path, quat_request):
    out = tmp_path / "alg.json"
    run_cli(capsys, "construct", "--in", str(quat_request), "--out", str(out))
    code, report = run_cli(capsys, "invariants", "--in", str(out))
    assert code == 0
    inv = report["invariants"]
    assert inv["dimension"] == 4
    assert inv["center_dim"] == 1
    assert inv["graded_center_e_dim"] == 1
    assert inv["beta"] == [[0, 1, "-1/1"]]


def test_decompose_report(capsys, tmp_path):
    req = {"group": {"orders": [6]}, "beta": [], "mu": [[0, "1/1"]], "field": {"kind": "Q"}}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(req))
    out = tmp_path / "alg.json"
    run_cli(capsys, "construct", "--in", str(path), "--out", str(out))
    code, report = run_cli(capsys, "decompose", "--in", str(out))
    assert code == 0
    assert [(p["prime"], len(p["algebra"]["basis_degrees"])) for p in report["parts"]] == [
        (2, 2),
        (3, 3),
    ]


def test_iso_subcommand(capsys, tmp_path):
    for name, mu in (("a.json", "1/1"), ("b.json", "-1/1")):
        req = {"group": {"orders": [2]}, "beta": [], "mu": [[0, mu]], "field": {"kind": "R"}}
        p = tmp_path / ("req_" + name)
        p.write_text(json.dumps(req))
        run_cli(capsys, "construct", "--in", str(p), "--out", str(tmp_path / name))
    code, report = run_cli(capsys, "iso", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"))
    assert code == 0
    assert report["verdict"] is False and report["witness"] is None
    code, report = run_cli(capsys, "iso", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "a.json"))
    assert report["verdict"] is True and report["witness"] is not None


def test_construct_over_finite_field(capsys, tmp_path):
    req = {
        "group": {"orders": [3]},
        "beta": [],
        "mu": [[0, 3]],
        "field": {"kind": "GF", "p": 7, "ell": 1},
    }
    path = tmp_path / "req.json"
    path.write_text(json.dumps(req))
    out = tmp_path / "alg.json"
    code, report = run_cli(capsys, "construct", "--in", str(path), "--out", str(out))
    assert code == 0
    assert all(check["ok"] for check in report["verification"].values())
    code, verify_report = run_cli(capsys, "verify", "--in", str(out))
    assert verify_report["verdict"] is True


def test_construct_fast_oracle_runs_grading_and_unit(capsys, quat_request):
    code, report = run_cli(capsys, "construct", "--in", str(quat_request), "--oracle", "fast")
    assert code == 0
    assert sorted(report["verification"]) == ["grading", "unit"]
    assert all(check["ok"] for check in report["verification"].values())


def test_verify_reports_every_check_of_a_failing_algebra(capsys, tmp_path):
    # Q[x]/(x^2) with deg x = 1 in Z_2: graded and associative, x is not invertible
    desc = {
        "field": {"kind": "Q"},
        "group": {"orders": [2]},
        "basis_degrees": [[0], [1]],
        "unit": [[0, "1/1"]],
        "constants": [
            {"i": 0, "j": 0, "k": 0, "c": "1/1"},
            {"i": 0, "j": 1, "k": 1, "c": "1/1"},
            {"i": 1, "j": 0, "k": 1, "c": "1/1"},
        ],
    }
    path = tmp_path / "nilpotent.json"
    path.write_text(json.dumps(desc))
    code, report = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    assert report["verdict"] is False
    checks = report["checks"]
    assert sorted(checks) == ["associative", "graded_division", "grading", "unit"]
    assert all(checks[name]["ok"] for name in ("grading", "unit", "associative"))
    assert checks["graded_division"]["ok"] is False
    assert checks["graded_division"]["witness"] == {"degree": [1], "vector": {"1": "1/1"}}


def test_verify_reports_a_non_associative_census_table(capsys, tmp_path):
    # the 12-dimensional item-2 table on Z_3 with the constant of b_4 b_8 doubled:
    # b_4 * y = 1 has a solution there, but b_4 has no two-sided inverse
    A = classify_stratum(FinAbGroup((3,)), verify=False)[1].algebra
    A.table[(4, 8)] = {0: A.field.mul(A.table[(4, 8)][0], A.field.from_int(2))}
    assert solve(A.field, left_mult_matrix(A, {4: A.field.one}), dense(A.field, A.unit, A.dim)) is not None
    assert invert_vec(A, {4: A.field.one}) is None
    path = tmp_path / "broken.json"
    path.write_text(jsonio.dumps_canonical(jsonio.algebra_to_json(A)))
    code, report = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    assert report["verdict"] is False
    assert report["checks"]["associative"]["ok"] is False
    # the graded-division certificates need an associative table
    assert report["checks"]["graded_division"] == {"ok": None, "witness": "undecided: the table is not associative"}


def _q_z2_minus_one(constants=(), unit=(("0", "1/1"),)) -> dict:
    """Q[Z_2] twisted to X_1^2 = -1, with extra constants and a given unit."""
    return {
        "field": {"kind": "Q"},
        "group": {"orders": [2]},
        "basis_degrees": [[0], [1]],
        "unit": [[int(k), c] for k, c in unit],
        "constants": [
            {"i": 0, "j": 0, "k": 0, "c": "1/1"},
            {"i": 0, "j": 1, "k": 1, "c": "1/1"},
            {"i": 1, "j": 0, "k": 1, "c": "1/1"},
            {"i": 1, "j": 1, "k": 0, "c": "-1/1"},
            *constants,
        ],
    }


@pytest.mark.parametrize(
    "desc, named",
    [
        (_q_z2_minus_one([{"i": 1, "j": 1, "k": 5, "c": "1/1"}]), "constant index k = 5"),
        (_q_z2_minus_one([{"i": 7, "j": 1, "k": 0, "c": "1/1"}]), "constant index i = 7"),
        (_q_z2_minus_one([{"i": -1, "j": 1, "k": 0, "c": "1/1"}]), "constant index i = -1"),
        (_q_z2_minus_one([{"i": 0, "j": 2, "k": 0, "c": "0/1"}]), "constant index j = 2"),
        (_q_z2_minus_one(unit=[(0, "1/1"), (2, "1/1")]), "unit index k = 2"),
    ],
)
def test_verify_refuses_basis_indices_outside_the_basis(capsys, tmp_path, desc, named):
    code, report = run_cli(capsys, "verify", "--in", _write(tmp_path, "alg.json", desc))
    assert code == 3
    assert report["error"]["code"] == "bad-parameters"
    assert report["error"]["message"] == f"{named} is outside the basis indices [0, 2)"


@pytest.mark.parametrize(
    "desc, named",
    [
        (_q_z2_minus_one([{"i": 1, "j": 1, "k": 0, "c": "1/1"}]), "constant (i, j, k) = (1, 1, 0) is given twice"),
        (_q_z2_minus_one(unit=[(0, "1/1"), (0, "1/1")]), "unit index k = 0 is given twice"),
        (_q_z2_minus_one([{"i": 1.5, "j": 1, "k": 0, "c": "1/1"}]), "constant index i = 1.5 is not an integer"),
        (_q_z2_minus_one([{"i": 1, "j": True, "k": 0, "c": "1/1"}]), "constant index j = True is not an integer"),
        (_q_z2_minus_one([{"i": 1, "j": 1, "k": "0", "c": "1/1"}]), "constant index k = '0' is not an integer"),
        ({**_q_z2_minus_one(), "unit": [[0.0, "1/1"]]}, "unit index k = 0.0 is not an integer"),
        (_q_z2_minus_one([{"i": 0, "j": 0, "k": 0}]), "constant (i, j, k) = (0, 0, 0) has no 'c'"),
        (_q_z2_minus_one([{"i": 0, "k": 0, "c": "1/1"}]), "a constant has no 'j'"),
        ({k: v for k, v in _q_z2_minus_one().items() if k != "unit"}, "the algebra descriptor has no 'unit'"),
        ({k: v for k, v in _q_z2_minus_one().items() if k != "constants"}, "the algebra descriptor has no 'constants'"),
        ({**_q_z2_minus_one(), "field": {"kind": "GF", "ell": 1}}, "the GF field descriptor has no 'p'"),
        ({**_q_z2_minus_one(), "field": {"kind": "CYC"}}, "the CYC field descriptor has no 'conductor'"),
        ({**_q_z2_minus_one(), "group": {}}, "the group descriptor has no 'orders'"),
    ],
    ids=["duplicate-constant", "duplicate-unit", "float-index", "bool-index", "string-index", "float-unit-index",
         "no-c", "no-j", "no-unit", "no-constants", "no-p", "no-conductor", "no-orders"],
)
def test_verify_refuses_ambiguous_or_incomplete_descriptors(capsys, tmp_path, desc, named):
    # the duplicate X_1^2 entry once replaced the first, and i = 1.5 was read as 1
    code, report = run_cli(capsys, "verify", "--in", _write(tmp_path, "alg.json", desc))
    assert code == 3
    assert report["error"] == {"code": "bad-parameters", "message": named}


@pytest.mark.parametrize(
    "constants, unit, failed, reason",
    [
        # Q[Z_2] with X_1^2 = X_1: associative and unital, the product lies in degree 1, not 0
        ([(1, 1, 1, "1/1")], [[0, "1/1"]], "grading", "the table is not graded"),
        # Q[Z_2] with X_1^2 = -1 and the unit doubled
        ([(1, 1, 0, "-1/1")], [[0, "2/1"]], "unit", "the unit law fails"),
    ],
)
def test_verify_leaves_graded_division_undecided_without_grading_or_unit(capsys, tmp_path, constants, unit, failed, reason):
    desc = {
        "field": {"kind": "Q"},
        "group": {"orders": [2]},
        "basis_degrees": [[0], [1]],
        "unit": unit,
        "constants": [
            {"i": i, "j": j, "k": k, "c": c}
            for i, j, k, c in [(0, 0, 0, "1/1"), (0, 1, 1, "1/1"), (1, 0, 1, "1/1"), *constants]
        ],
    }
    code, report = run_cli(capsys, "verify", "--in", _write(tmp_path, "alg.json", desc))
    assert code == 0
    assert report["verdict"] is False
    checks = report["checks"]
    assert checks[failed]["ok"] is False
    assert checks["associative"] == {"ok": True, "witness": None}
    assert checks["graded_division"] == {"ok": None, "witness": f"undecided: {reason}"}


def test_verify_drops_zero_unit_coefficients(capsys, tmp_path):
    desc = _q_z2_minus_one(unit=[(0, "1/1"), (1, "0/1")])
    code, report = run_cli(capsys, "verify", "--in", _write(tmp_path, "alg.json", desc))
    assert code == 0
    assert report["verdict"] is True
    assert all(check == {"ok": True, "witness": None} for check in report["checks"].values())


Z2xZ2_R_REQUEST = {"group": {"orders": [2, 2]}, "field": {"kind": "R"}}


@pytest.mark.parametrize(
    "beta, mu, named",
    [
        ([[0, 1.5, "-1/1"]], [], "beta generator index j = 1.5 is not an integer"),
        ([["0", 1, "-1/1"]], [], "beta generator index i = '0' is not an integer"),
        ([[0, 2, "-1/1"]], [], "beta generator index j = 2 is outside the generator indices [0, 2)"),
        ([[0, 1, "-1/1"], [0, 1, "1/1"]], [], "beta entry (i, j) = (0, 1) is given twice"),
        ([], [[0, "-1/1"], [0, "1/1"], [1, "-1/1"]], "mu entry i = 0 is given twice"),
        ([], [[True, "-1/1"]], "mu generator index i = True is not an integer"),
        ([], [[2, "-1/1"]], "mu generator index i = 2 is outside the generator indices [0, 2)"),
        ([], [[-1, "-1/1"]], "mu generator index i = -1 is outside the generator indices [0, 2)"),
    ],
    ids=["float-beta-index", "string-beta-index", "beta-index-out-of-range", "duplicate-beta", "duplicate-mu",
         "bool-mu-index", "mu-index-out-of-range", "negative-mu-index"],
)
def test_construct_refuses_ambiguous_generator_entries(capsys, tmp_path, beta, mu, named):
    # beta index 1.5 was once read as 1, and of two mu entries for one generator the last one won
    path = _write(tmp_path, "req.json", {**Z2xZ2_R_REQUEST, "beta": beta, "mu": mu})
    code, report = run_cli(capsys, "construct", "--in", path)
    assert code == 3
    assert report["error"] == {"code": "bad-parameters", "message": named}


CYC4_ONE = {
    "field": {"kind": "CYC", "conductor": 4},
    "group": {"orders": [1]},
    "basis_degrees": [[0]],
    "unit": [[0, ["1/1", "0/1"]]],
    "constants": [{"i": 0, "j": 0, "k": 0, "c": ["1/1", "0/1"]}],
}


# GF(5)[Z_2] with X_1^2 = 2
GF5_Z2 = {
    "field": {"kind": "GF", "p": 5, "ell": 1},
    "group": {"orders": [2]},
    "basis_degrees": [[0], [1]],
    "unit": [[0, 1]],
    "constants": [{"i": i, "j": j, "k": (i + j) % 2, "c": 2 if i == j == 1 else 1} for i in range(2) for j in range(2)],
}
GF5_REQUEST = {"group": {"orders": [2]}, "mu": [[0, 2]], "field": {"kind": "GF", "p": 5, "ell": 1}}
GF5_ELEMENTS = "is neither an index in [0, 5) nor digits in [0, 5)"


def test_an_over_long_cyclotomic_constant_is_read_mod_phi(capsys, tmp_path):
    # X_1^2 is written 1 + zeta^2, which is 0 in Q(zeta_4); the list was once
    # cut to its first two entries, read as 1, and verify said true
    one = ["1/1", "0/1"]
    desc = {
        **CYC4_ONE,
        "group": {"orders": [2]},
        "basis_degrees": [[0], [1]],
        "constants": [
            {"i": i, "j": j, "k": (i + j) % 2, "c": ["1/1", "0/1", "1/1"] if i == j == 1 else one}
            for i in range(2)
            for j in range(2)
        ],
    }
    code, report = run_cli(capsys, "verify", "--in", _write(tmp_path, "desc.json", desc))
    assert code == 0 and report["verdict"] is False
    assert report["checks"]["graded_division"] == {"ok": False, "witness": {"degree": [1], "vector": {"1": one}}}


@pytest.mark.parametrize(
    "command, desc, named",
    [
        ("verify", {**_q_z2_minus_one(), "field": "Q"}, "the field descriptor is not a JSON object: 'Q'"),
        ("verify", {**CYC4_ONE, "constants": [{"i": 0, "j": 0, "k": 0, "c": 5}]}, "bad cyclotomic encoding: 5"),
        ("verify", _q_z2_minus_one([{"i": 0, "j": 0, "k": 1, "c": "1/0"}]), "bad rational encoding: '1/0'"),
        ("verify", {**_q_z2_minus_one(), "constants": ["0 0 0 1/1"]}, "a constant is not a JSON object: '0 0 0 1/1'"),
        ("verify", {**_q_z2_minus_one(), "constants": 5}, "the algebra descriptor's 'constants' is not a JSON array: 5"),
        ("verify", {**_q_z2_minus_one(), "unit": [5]}, "a unit entry is not a JSON array of 2 entries: 5"),
        ("verify", {**_q_z2_minus_one(), "basis_degrees": [5, [1]]}, "a basis degree is not a JSON array: 5"),
        ("verify", {**_q_z2_minus_one(), "group": {"orders": 2}}, "the group descriptor's 'orders' is not a JSON array: 2"),
        ("verify", [1], "the algebra descriptor is not a JSON object: [1]"),
        ("construct", {**Z2xZ2_R_REQUEST, "beta": 5}, "the construct request's 'beta' is not a JSON array: 5"),
        ("construct", {**Z2xZ2_R_REQUEST, "mu": [5]}, "a mu entry is not a JSON array of 2 entries: 5"),
        ("construct", [1], "the construct request is not a JSON object: [1]"),
        ("verify", {**_q_z2_minus_one(), "group": {"orders": [2.7]}}, "group order = 2.7 is not an integer"),
        ("verify", {**_q_z2_minus_one(), "group": {"orders": [True]}}, "group order = True is not an integer"),
        ("verify", {**_q_z2_minus_one(), "field": {"kind": "GF", "p": 5.9, "ell": 1}}, "GF p = 5.9 is not an integer"),
        ("verify", {**_q_z2_minus_one(), "field": {"kind": "GF", "p": 5, "ell": True}}, "GF ell = True is not an integer"),
        ("verify", {**CYC4_ONE, "field": {"kind": "CYC", "conductor": 4.0}}, "CYC conductor = 4.0 is not an integer"),
        ("verify", _q_z2_minus_one(unit=[(0, True)]), "bad rational encoding: True"),
        ("verify", {**GF5_Z2, "unit": [[0, 6]]}, f"bad finite-field encoding: 6 {GF5_ELEMENTS}"),
        ("verify", {**GF5_Z2, "unit": [[0, -4]]}, f"bad finite-field encoding: -4 {GF5_ELEMENTS}"),
        ("verify", {**GF5_Z2, "unit": [[0, [6]]]}, f"bad finite-field encoding: [6] {GF5_ELEMENTS}"),
        ("verify", {**GF5_Z2, "unit": [[0, [True]]]}, f"bad finite-field encoding: [True] {GF5_ELEMENTS}"),
        ("construct", {**GF5_REQUEST, "field": {"kind": "GF", "p": 5.9, "ell": 1}}, "GF p = 5.9 is not an integer"),
        ("construct", {**GF5_REQUEST, "mu": [[0, 7]]}, f"bad finite-field encoding: 7 {GF5_ELEMENTS}"),
    ],
    ids=["field-string", "cyc-number", "rational-1/0", "constant-string", "constants-number", "unit-entry-number",
         "degree-number", "orders-number", "algebra-list", "beta-number", "mu-entry-number", "request-list",
         "float-order", "bool-order", "float-p", "bool-ell", "float-conductor", "bool-rational", "gf-int-above-p",
         "gf-int-negative", "gf-digit-above-p", "gf-bool-digit", "construct-float-p", "construct-gf-int-above-p"],
)
def test_descriptor_parts_of_the_wrong_json_type_are_refused(capsys, tmp_path, command, desc, named):
    # the first two once escaped as a traceback with exit 1 (AttributeError, TypeError);
    # int() once read 2.7 as 2 and true as 1, and GF(5) read 6 as 1
    code, report = run_cli(capsys, command, "--in", _write(tmp_path, "desc.json", desc))
    assert code == 3
    assert report["error"] == {"code": "bad-parameters", "message": named}


@pytest.mark.parametrize(
    "desc, named",
    [
        ({**_q_z2_minus_one(), "basis_degrees": [[0], [3]]}, "basis degree 1 exponent 0 = 3 is outside the Z_2 exponent indices [0, 2)"),
        ({**_q_z2_minus_one(), "basis_degrees": [[0], [1.5]]}, "basis degree 1 exponent 0 = 1.5 is not an integer"),
        ({**_q_z2_minus_one(), "basis_degrees": [[True], [1]]}, "basis degree 0 exponent 0 = True is not an integer"),
        ({**_q_z2_minus_one(), "basis_degrees": [[0], [1, 0]]}, "basis degree 1 has 2 exponents for a group of rank 1"),
        ({**GF5_Z2, "field": {"kind": "GF", "p": 5, "ell": 2, "modulus": [7, 0, 1]}},
         "GF modulus digit 0 = 7 is outside the GF(5) digit indices [0, 5)"),
    ],
    ids=["degree-above-order", "float-degree", "bool-degree", "degree-too-long", "modulus-digit-above-p"],
)
def test_degree_exponents_and_modulus_digits_are_not_reduced(capsys, tmp_path, desc, named):
    # each was once reduced: [[0], [3]] read as [[0], [1]], and the modulus [7, 0, 1] as x^2 + 2
    code, report = run_cli(capsys, "verify", "--in", _write(tmp_path, "desc.json", desc))
    assert code == 3
    assert report["error"] == {"code": "bad-parameters", "message": named}


def test_verify_refuses_a_split_real_identity_component_without_a_rational_zero_divisor(capsys, tmp_path):
    # R[w]/(w^2 - 2): w - sqrt(2) is a zero divisor that no Fraction writes down
    desc = {
        "field": {"kind": "R"},
        "group": {"orders": []},
        "basis_degrees": [[], []],
        "unit": [[0, "1/1"]],
        "constants": [{"i": i, "j": j, "k": (i + j) % 2, "c": "2/1" if i == j == 1 else "1/1"} for i in range(2) for j in range(2)],
    }
    code, report = run_cli(capsys, "verify", "--in", _write(tmp_path, "desc.json", desc))
    assert code == 3
    assert report["error"]["message"] == (
        "A_e = span(1, w) with w^2 = 2 + 0 w is split over R, but its zero divisor "
        "w - (0 + sqrt(8))/2 has no representative in the Q model of R"
    )


def test_verify_decides_a_rational_discriminant_without_factoring(capsys, tmp_path, monkeypatch):
    # Q[w]/(w^2 - d): the square root of d is an integer root, so the factor
    # bound no longer applies
    monkeypatch.setenv("GDA_FACTOR_BOUND", "100")
    for d, verdict in ((10007 * 10009, True), (10007**2, False)):
        desc = {
            "field": {"kind": "Q"},
            "group": {"orders": []},
            "basis_degrees": [[], []],
            "unit": [[0, "1/1"]],
            "constants": [{"i": i, "j": j, "k": (i + j) % 2, "c": f"{d}/1" if i == j == 1 else "1/1"}
                          for i in range(2) for j in range(2)],
        }
        code, report = run_cli(capsys, "verify", "--in", _write(tmp_path, "desc.json", desc))
        assert code == 0 and report["verdict"] is verdict
        if not verdict:
            assert report["checks"]["graded_division"]["witness"]["vector"] == {"0": "-10007/1", "1": "1/1"}


def _construct(capsys, tmp_path, request: dict) -> dict:
    path = tmp_path / "req.json"
    path.write_text(json.dumps(request))
    code, report = run_cli(capsys, "construct", "--in", str(path))
    assert code == 0
    return report["algebra"]


def _write(tmp_path, name: str, desc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(desc))
    return str(path)


Z2xZ4_REQUEST = {
    "group": {"orders": [2, 4]},
    "beta": [[0, 1, "-1/1"]],
    "mu": [[0, "-1/1"], [1, "1/1"]],
    "field": {"kind": "R"},
}


def test_invariants_refuses_a_zero_product(capsys, tmp_path):
    # X_(0,3) X_(0,3) = 0 in an otherwise graded-division table: no beta or mu is printed
    desc = _construct(capsys, tmp_path, Z2xZ4_REQUEST)
    desc["constants"] = [c for c in desc["constants"] if (c["i"], c["j"]) != (3, 3)]
    code, report = run_cli(capsys, "invariants", "--in", _write(tmp_path, "zero.json", desc))
    assert code == 3
    assert report["error"] == {"code": "bad-parameters", "message": "zero structure constant; the table is not graded-division"}


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_the_zero_algebra_is_refused(capsys, tmp_path, command):
    # with no basis vector the unit is 0, so 1 = 0: verify once gave verdict
    # true with every oracle ok, and decompose an empty list of parts
    desc = {"field": {"kind": "Q"}, "group": {"orders": []}, "basis_degrees": [], "unit": [], "constants": []}
    code, report = run_cli(capsys, command, "--in", _write(tmp_path, "zero.json", desc))
    assert code == 3
    assert report["error"] == {
        "code": "bad-parameters",
        "message": "the algebra descriptor has no basis vector: the zero algebra has 1 = 0",
    }


def test_unit_outside_the_identity_component_is_refused(capsys, tmp_path):
    desc = _construct(capsys, tmp_path, Z2xZ4_REQUEST)
    desc["unit"] = [[1, "1/1"]]
    path = _write(tmp_path, "unit.json", desc)
    for argv in (["iso", "--a", path, "--b", path], ["decompose", "--in", path]):
        code, report = run_cli(capsys, *argv)
        assert code == 3
        assert report["error"] == {"code": "bad-parameters", "message": "the unit is not a multiple of X_e"}
    # invariants stops earlier, at the identity component
    code, report = run_cli(capsys, "invariants", "--in", path)
    assert code == 3
    assert report["error"]["message"] == "unit does not lie in the selected components"


def test_decompose_needs_one_dimensional_components_on_the_whole_group(capsys, tmp_path):
    # the item-2 table on Z_2: 4-dimensional components
    A = classify_stratum(FinAbGroup((2,)), verify=False)[1].algebra
    code, report = run_cli(capsys, "decompose", "--in", _write(tmp_path, "h.json", jsonio.algebra_to_json(A)))
    assert code == 3
    assert report["error"]["message"] == "operation requires 1-dimensional homogeneous components"
    # Q graded by Z_6 with support Z_3
    desc = {
        "field": {"kind": "Q"},
        "group": {"orders": [6]},
        "basis_degrees": [[0], [2], [4]],
        "unit": [[0, "1/1"]],
        "constants": [{"i": i, "j": j, "k": (i + j) % 3, "c": "1/1"} for i in range(3) for j in range(3)],
    }
    code, report = run_cli(capsys, "decompose", "--in", _write(tmp_path, "z3.json", desc))
    assert code == 3
    assert report["error"]["message"] == "support must be the whole group"


def test_support_is_counted_before_the_group_is_enumerated(capsys, tmp_path):
    # R graded by Z_(10^12) with support {0}: refused at once, not after 10^12 elements
    desc = {
        "field": {"kind": "R"},
        "group": {"orders": [10**12]},
        "basis_degrees": [[0]],
        "unit": [[0, "1/1"]],
        "constants": [{"i": 0, "j": 0, "k": 0, "c": "1/1"}],
    }
    path = _write(tmp_path, "huge.json", desc)
    for argv in (["invariants", "--in", path], ["iso", "--a", path, "--b", path]):
        started = time.monotonic()
        code, report = run_cli(capsys, *argv)
        assert time.monotonic() - started < 5, argv
        assert code == 3
        assert report["error"] == {"code": "bad-parameters", "message": "support must be the whole group"}


# sha256, length and exit code of the stdout bytes of invariants, decompose
# and iso --a X --b X on the construct output X of each request
PINNED_REPORTS = [
    (
        Z2xZ4_REQUEST,
        {
            "invariants": ("b26cdbc5872f2d103c964b33c0e7f3903e592164d3880d3ee4790b0b35187ee0", 2360, 0),
            "decompose": ("97ae8e99cd7078b19c9a0a772f25083a19a59ed7074be12fdddc24921fab6685", 4230, 0),
            "iso": ("bc56cf31b3b4a11b723b4b2b76d357b9719cc865fbb3fccc607f9c2ac8cbf857", 4341, 0),
        },
    ),
    (
        {"group": {"orders": [8]}, "beta": [], "mu": [[0, [0, 1]]], "field": {"kind": "GF", "p": 3, "ell": 2}},
        {
            "invariants": ("facf3dcc93568158edcfab89330286082896221f65efdbe79be6c93c4df5541b", 2292, 0),
            "decompose": ("87a7662ebfb619f0be8c7302c5e9af18c7a7eaf7359eae1cac4c0185be76008e", 4228, 0),
            "iso": ("4b32b132e2b491fe526eb93eb203ee5c6a157290283d1b0d6b5d608a78a108b7", 4323, 0),
        },
    ),
    (
        {
            "group": {"orders": [4, 2]},
            "beta": [[0, 1, ["-1/1", "0/1"]]],
            "mu": [[0, ["0/1", "1/1"]], [1, ["-1/1", "0/1"]]],
            "field": {"kind": "CYC", "conductor": 4},
        },
        {
            "invariants": ("69984655844ae9fa61ff31c57520c32de7b97ec400f8e37eec2a885bc65141ee", 2913, 0),
            "decompose": ("f465410973d8c171bc768114928d47c396d6e340b30307544ae46e84b8c8c4eb", 5302, 0),
            "iso": ("f06364e6edbfe9766eb1dc8c08cf4c28683ca565e7298e33c1937ac4dff35fee", 5477, 0),
        },
    ),
    # two primary parts, with beta of order 2 and 3
    (
        {"group": {"orders": [2, 6]}, "beta": [[0, 1, "-1/1"]], "mu": [[0, "-1/1"], [1, "1/1"]], "field": {"kind": "Q"}},
        {
            "invariants": ("a20fa033e571a99b49c7971dab5d5306d531019def76c1e8beb5782c517c28e4", 4877, 0),
            "decompose": ("8c5e0fe9581b08561d42815a1abbc5c42537feb3dc5a85d6a5120cf631db5620", 5679, 0),
            "iso": ("5439aa108c722145aa8e34aa0da033530edf0a7ff0ffb37d2863407b5e198945", 9429, 0),
        },
    ),
    (
        {"group": {"orders": [3, 6]}, "beta": [[0, 1, 2]], "mu": [[0, 3], [1, 5]], "field": {"kind": "GF", "p": 7, "ell": 1}},
        {
            "invariants": ("799d7d3030bf3314a2a925843010e0da92b98241bb413504589e1c37253f3c6c", 10003, 0),
            "decompose": ("6d2c3dc6931db45cf4bccdfd70a2542260fc8ef210341a6d79af48becd7a1f1f", 12528, 0),
            "iso": ("f60deba3a3ed7e68c7f8f50a9c94caa88ffb28652a4472c11517bf0767d936d7", 19759, 0),
        },
    ),
    (
        {"group": {"orders": [6]}, "beta": [], "mu": [[0, ["0/1", "1/1"]]], "field": {"kind": "CYC", "conductor": 3}},
        {
            "invariants": ("10f77ab52c4abd55d3287b610fcaecae949be2a58bca0111800880dde2d119a7", 1731, 0),
            "decompose": ("ef103110ededb7a7f155690f0eb34fec1a7eac1bc1752554f61c6af02745d3df", 2355, 0),
            "iso": ("5f5f488d4726db1edec720cfe515ba074d3b3d6c29aba22e4d7d603e82fdcc34", 3209, 0),
        },
    ),
]


@pytest.mark.parametrize(
    "request_, pinned",
    PINNED_REPORTS,
    ids=["R-Z2xZ4", "GF9-Z8", "Qzeta4-Z4xZ2", "Q-Z2xZ6", "GF7-Z3xZ6", "Qzeta3-Z6"],
)
def test_reports_on_1dim_algebras_are_pinned(capsys, tmp_path, request_, pinned):
    path = _write(tmp_path, "alg.json", _construct(capsys, tmp_path, request_))
    for command, argv in (
        ("invariants", ["invariants", "--in", path]),
        ("decompose", ["decompose", "--in", path]),
        ("iso", ["iso", "--a", path, "--b", path]),
    ):
        assert _stdout_pin(capsys, argv) == pinned[command], command


def test_iso_report_on_a_changed_beta_is_pinned(capsys, tmp_path):
    a = _write(tmp_path, "a.json", _construct(capsys, tmp_path, Z2xZ4_REQUEST))
    b = _write(tmp_path, "b.json", _construct(capsys, tmp_path, {**Z2xZ4_REQUEST, "beta": []}))
    pin = ("286743b23e5531290e8181aaeb3881ee3c374eb99deaf96bb9ea9d27f7c2c927", 4233, 0)
    assert _stdout_pin(capsys, ["iso", "--a", a, "--b", b]) == pin
    code, report = run_cli(capsys, "iso", "--a", a, "--b", b)
    assert report["verdict"] is False and report["witness"] is None


def test_iso_accepts_a_unit_that_is_another_multiple_of_x_e(capsys, tmp_path):
    # R[Z_2] with X_1^2 = -1, and the same algebra on the basis Y_0 = -X_0, Y_1 = X_1 (unit -Y_0)
    a = _q_z2_minus_one()
    a["field"] = {"kind": "R"}
    sign = {0: "-1/1", 1: "-1/1", 2: "-1/1", 3: "1/1"}  # Y_0 Y_0, Y_0 Y_1, Y_1 Y_0, Y_1 Y_1
    b = {**a, "unit": [[0, "-1/1"]], "constants": [{**c, "c": sign[2 * c["i"] + c["j"]]} for c in a["constants"]]}
    pa, pb = _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)
    assert run_cli(capsys, "verify", "--in", pb)[1]["verdict"] is True
    code, report = run_cli(capsys, "iso", "--a", pa, "--b", pb)
    assert code == 0 and report["verdict"] is True
    assert report["witness"] == [[[0], "-1/1"], [[1], "1/1"]]


@pytest.mark.parametrize(
    "request_",
    [
        # the two inputs iso once refused as outside the designated root set
        {"group": {"orders": [2, 4, 4]}, "beta": [], "mu": [[0, "3/1"], [1, "5/2"], [2, "-7/1"]], "field": {"kind": "Q"}},
        {"group": {"orders": [4, 2]}, "beta": [], "mu": [[0, ["0/1", "1/1"]], [1, ["2/1", "0/1"]]],
         "field": {"kind": "CYC", "conductor": 4}},
        {"group": {"orders": [2, 6]}, "beta": [[0, 1, "-1/1"]], "mu": [[0, "4/3"], [1, "-2/1"]], "field": {"kind": "R"}},
        {"group": {"orders": [4, 2]}, "beta": [[0, 1, 10]], "mu": [[0, 2], [1, 7]], "field": {"kind": "GF", "p": 11, "ell": 1}},
        {"group": {"orders": [3, 3]}, "beta": [[0, 1, ["0/1", "1/1"]]], "mu": [[0, ["1/1", "1/1"]], [1, ["3/1", "-1/2"]]],
         "field": {"kind": "CYC", "conductor": 3}},
    ],
    ids=["Q-Z2xZ4xZ4", "Qzeta4-Z4xZ2", "R-Z2xZ6", "GF11-Z4xZ2", "Qzeta3-Z3xZ3"],
)
def test_iso_of_a_construct_output_with_itself_is_true(capsys, tmp_path, request_):
    path = _write(tmp_path, "alg.json", _construct(capsys, tmp_path, request_))
    code, report = run_cli(capsys, "iso", "--a", path, "--b", path)
    assert code == 0 and report["verdict"] is True
    one = report["witness"][0][1]
    assert all(value == one for _, value in report["witness"])


def _stdout_pin(capsys, argv) -> tuple:
    """sha256 and length of a command's stdout bytes, and its exit code."""
    code = main(argv)
    out = capsys.readouterr().out.encode()
    return hashlib.sha256(out).hexdigest(), len(out), code


def _negated_constant(desc: dict) -> dict:
    """desc with the constant of X_(0,1) X_(0,1) negated."""
    constants = [dict(c) for c in desc["constants"]]
    (entry,) = [c for c in constants if (c["i"], c["j"]) == (1, 1)]
    entry["c"] = entry["c"][1:] if entry["c"].startswith("-") else "-" + entry["c"]
    return {**desc, "constants": constants}


@pytest.mark.parametrize(
    "change, message",
    [
        (_negated_constant, "associativity failed at triple (1, 1, 2)"),
        (lambda desc: {**desc, "unit": [[0, "2/1"]]}, "unit law failed at basis 0"),
    ],
    ids=["negated-constant", "doubled-unit"],
)
def test_commands_refuse_tables_the_oracles_reject(capsys, tmp_path, change, message):
    # invariants and iso once printed beta, mu classes and a verdict for these tables
    path = _write(tmp_path, "bad.json", change(_construct(capsys, tmp_path, Z2xZ4_REQUEST)))
    for argv in (["invariants", "--in", path], ["decompose", "--in", path], ["iso", "--a", path, "--b", path]):
        code, report = run_cli(capsys, *argv)
        assert code == 3, argv
        assert report["error"] == {"code": "bad-parameters", "message": message}, argv
    code, report = run_cli(capsys, "verify", "--in", path)
    assert code == 0 and report["verdict"] is False


def test_invariants_answers_where_the_division_oracle_cannot_certify(capsys, tmp_path):
    # Hamilton's quaternions over Q, trivially graded: the gate leaves out graded division
    desc = _construct(capsys, tmp_path, {**Z2xZ4_REQUEST, "group": {"orders": [2, 2]}, "field": {"kind": "Q"},
                                         "mu": [[0, "-1/1"], [1, "-1/1"]]})
    path = _write(tmp_path, "h.json", {**desc, "group": {"orders": []}, "basis_degrees": [[]] * 4})
    code, report = run_cli(capsys, "verify", "--in", path)
    assert code == 3 and "no division certificate" in report["error"]["message"]
    code, report = run_cli(capsys, "invariants", "--in", path)
    assert code == 0
    assert report["invariants"] == {"dimension": 4, "identity_component_dim": 4, "center_dim": 1, "graded_center_e_dim": 1}


# sha256 and length of the stdout bytes of classify-real --group G
PINNED_CENSUS = {
    "2,2": ("b97c417b3e8e74b6212f631b6e205fce08bd447f7df9ed88d36772905fecbe53", 132380),
    "4": ("48add01200e1773933d901f496f30dd7eb49c0384af03b390ea879f6bcd98a00", 34229),
    "6": ("09abb1e9048c6fc55a4c5d5d9c55b76e4426e328ce7162a75efbe86bec03ee05", 68687),
    "3,3": ("1416e2195e1131b78d68ea2580461615c391f86a543800a54ae04b16ee2e3563", 79722),
    "5": ("f23a613bc9a756db971cab66f05841785f533a933308b85bbf723a8dee9f5f59", 17790),
    "7": ("d94bb61da3854959a80de021281d24b5a6c43f2fca70b7932987fcc073ca6bba", 32966),
    "9": ("561d663ab022736adeb2dd095e3781bcb00c2817f497c2f9df6171a7b7b4ebf6", 59070),
    "8": ("ee2fbea3c65f3905a970e8661307d6d90033ba8041389e09e7c86ab79080c461", 127516),
    "4,2": ("890515ab43c54f1012fb2ba755f2997da75b3eeb425182eb6f2f49cd84648e41", 581907),
    "32": ("eee5578b4f927e26536684422ef7db9e2d9f15c44febb7133f0176985600ae08", 2160603),
}


@pytest.mark.parametrize("group", PINNED_CENSUS)
def test_census_reports_are_pinned(capsys, group):
    assert main(["classify-real", "--group", group]) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == PINNED_CENSUS[group]


def test_finite_component_scan_is_refused_above_its_bound(capsys, tmp_path):
    # GF(7)[x]/(x^9), trivially graded: one 9-dimensional component of 7^9 vectors
    n = 9
    desc = {
        "field": {"kind": "GF", "p": 7, "ell": 1, "modulus": [0, 1]},
        "group": {"orders": []},
        "basis_degrees": [[]] * n,
        "unit": [[0, [1]]],
        "constants": [{"i": i, "j": j, "k": i + j, "c": [1]} for i in range(n) for j in range(n - i)],
    }
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(desc))
    started = time.monotonic()
    code, report = run_cli(capsys, "verify", "--in", str(path))
    assert time.monotonic() - started < 5
    assert 7**n > FINITE_SCAN_BOUND
    assert code == 3 and report["error"]["code"] == "bad-parameters"
    assert "FINITE_SCAN_BOUND" in report["error"]["message"] and str(FINITE_SCAN_BOUND) in report["error"]["message"]


def test_classify_real_count_only(capsys):
    code, report = run_cli(capsys, "classify-real", "--group", "2", "--count-only")
    assert code == 0
    assert report["counts"] == {"1": 2, "2": 2, "3": 2, "4": 1}
    assert report["total"] == 10  # includes the trivial stratum


def test_classify_real_full_report(capsys):
    code, report = run_cli(capsys, "classify-real", "--group", "2")
    assert code == 0
    labels = report["labels"]
    assert len(labels) == report["total"]
    for entry in labels:
        assert entry["invariants"]["recovered_label_matches"] is True
    # every emitted algebra descriptor passes verify (determinism contract companion)
    from gradeddiv import jsonio

    for entry in labels[:4]:
        A = jsonio.algebra_from_json(entry["algebra"])
        from gradeddiv.gradedalg import is_graded_division, verify_associative

        assert verify_associative(A)[0]
        assert is_graded_division(A)[0]


def test_classify_real_item_filter(capsys):
    # strata with no labels for the selected item must still be reported
    code, report = run_cli(capsys, "classify-real", "--group", "4", "--item", "3")
    assert code == 0
    assert report["counts"] == {"1": 0, "2": 0, "3": 2, "4": 0}
    assert report["strata"][0]["counts"] == {"1": 0, "2": 0, "3": 0, "4": 0}
    assert sorted(e["label"]["item"] for e in report["labels"]) == ["3a", "3a", "3b", "3b"]


def test_classify_real_has_no_jobs_flag(capsys):
    # strata are classified in one process; --jobs is an unknown argument
    code, report = run_cli(capsys, "classify-real", "--group", "4", "--jobs", "2")
    assert code == 2
    assert report["error"]["code"] == "bad-arguments"


def test_classify_real_refuses_a_report_above_its_constant_bound(capsys):
    # 8,910 tables holding 8,027,910 structure constants; building them passed 5 GB
    started = time.monotonic()
    code, report = run_cli(capsys, "classify-real", "--group", "2,2,2,2")
    assert time.monotonic() - started < 10
    assert code == 3 and report["error"]["code"] == "bad-parameters"
    message = report["error"]["message"]
    assert f"REPORT_CONSTANT_BOUND = {REPORT_CONSTANT_BOUND}" in message and "8027910" in message


def test_readme_command_lines_parse():
    # a documented flag the CLI refuses fails here; the commands only parse, nothing runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("gradeddiv ")
    ]
    assert len(lines) > 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command refused by the parser: {line}")


def test_is_field_reports(capsys):
    code, report = run_cli(capsys, "is-field", "--field", "Q", "--group", "2,2", "--mu", "2,3")
    assert code == 0 and report["verdict"] == "true"
    code, report = run_cli(capsys, "is-field", "--field", "Q", "--group", "2,2", "--mu", "2,8")
    assert code == 0 and report["verdict"] == "false"
    assert report["witness"]["kind"] == "zero_divisor"
    code, report = run_cli(capsys, "is-field", "--field", "GF", "--p", "5", "--group", "2,2", "--mu", "2,3")
    assert code == 0 and report["verdict"] == "false"
    code, report = run_cli(capsys, "is-field", "--field", "Q", "--group", "9,3", "--mu", "2,3")
    assert code == 0 and report["verdict"] == "undecided"


def test_out_of_range_gf_scalars_are_refused(capsys):
    # 7 and -3 over GF(5) were reduced mod 5 and echoed as [[2]]
    for value, argv in (
        ("7", ["is-field", "--field", "GF", "--p", "5", "--group", "2", "--mu", "7"]),
        ("-3", ["is-field", "--field", "GF", "--p", "5", "--group", "2", "--mu=-3"]),
        ("10", ["kummer-grade", "--p", "7", "--ell", "1", "--n", "3", "--lam", "10"]),
        ("9", ["is-field", "--field", "GF", "--p", "3", "--ell", "2", "--group", "2,2", "--mu", "1,9"]),
    ):
        code, report = run_cli(capsys, *argv)
        assert code == 2, argv
        assert report["error"] == {"code": "bad-parameters", "message": f"bad field element {value!r}"}
    # the largest index is an element still
    code, report = run_cli(capsys, "is-field", "--field", "GF", "--p", "5", "--group", "2", "--mu", "4")
    assert code == 0 and report["input"]["mu"] == [[4]]


@pytest.mark.parametrize(
    "group, mu, verdict, witness",
    [
        ("3", "2", "false", {"kind": "power_class_relation", "prime": 3}),
        ("2", "-1", "true", None),
        ("2,2", "-1,-4", "false", {"kind": "zero_divisor", "subset": [0, 1], "root": "2/1",
                                   "left": {"0": "-2/1", "3": "1/1"}, "right": {"0": "2/1", "3": "1/1"}}),
        # 2 and 4 are both squares in R, but only 4 has its root in the Q model
        # of R: the witness comes from a relation among the rational square classes
        ("2,2", "2,4", "false", {"kind": "zero_divisor", "subset": [1], "root": "2/1",
                                 "left": {"0": "-2/1", "1": "1/1"}, "right": {"0": "2/1", "1": "1/1"}}),
        ("2,2", "4,2", "false", {"kind": "zero_divisor", "subset": [0], "root": "2/1",
                                 "left": {"0": "-2/1", "2": "1/1"}, "right": {"0": "2/1", "2": "1/1"}}),
        ("2,2,2", "2,3,6", "false", {"kind": "zero_divisor", "subset": [0, 1, 2], "root": "6/1",
                                     "left": {"0": "-6/1", "7": "1/1"}, "right": {"0": "6/1", "7": "1/1"}}),
    ],
)
def test_is_field_over_r(capsys, group, mu, verdict, witness):
    code, report = run_cli(capsys, "is-field", "--field", "R", "--group", group, f"--mu={mu}")
    assert code == 0 and report["verdict"] == verdict and report["witness"] == witness


def test_is_field_over_r_refuses_an_irrational_root(capsys):
    # R[X]/(X^2 - 2) is R x R; is-field once answered true from Q's square classes
    for group, mu in (("2", "2"), ("2,2", "2,3")):
        code, report = run_cli(capsys, "is-field", "--field", "R", "--group", group, f"--mu={mu}")
        assert code == 3
        assert report["error"] == {"code": "bad-parameters", "message": "sqrt(2) has no representative in the Q model of R"}


# sha256, length and exit code of the stdout bytes of field-decision requests
PINNED_FIELD_REPORTS = {
    "Q-Z2^3-dependent": (
        ["is-field", "--field", "Q", "--group", "2,2,2", "--mu", "2,3,6"],
        ("e6857bf0c0f4c6b2b2b8a1f0a9b682d7d384673b24e27abdd440df7011eef07d", 305, 0),
    ),
    "Q-Z4-minus4g4": (
        ["is-field", "--field", "Q", "--group", "4", "--mu=-324"],
        ("579957c9d97ec8d85b2b58a89808d8cf4a1f7ff4b0968cfd4e2c249199321091", 266, 0),
    ),
    "GF7-Z9-tower": (
        ["is-field", "--field", "GF", "--p", "7", "--group", "9", "--mu", "3"],
        ("d087523bf6acd329e96acd4d4c60b80380de2e92713ca78a46e4362432329df4", 192, 0),
    ),
    "GF7-Z3xZ3-dependent": (
        ["is-field", "--field", "GF", "--p", "7", "--group", "3,3", "--mu", "3,5"],
        ("6b9e51178241ca3c7f5c566a51776293a7796dfb7d30943b2055afed2aec662a", 281, 0),
    ),
    "GF13-Z3xZ4": (
        ["is-field", "--field", "GF", "--p", "13", "--group", "3,4", "--mu", "2,2"],
        ("b3ccdfc4155005cdfc04d3fe5739e49cfeb46cd4f545e16662a76fc2df63c3d0", 199, 0),
    ),
    "ff-grade-list-mu": (
        ["ff-grade", "--p", "7", "--ell", "1", "--k", "3", "--list-mu"],
        ("5a322a0af60cd9c48d2f50744f6d932b3d9ef6dfee7739271eac38a13b54783f", 136, 0),
    ),
    "kummer-grade": (
        ["kummer-grade", "--p", "7", "--ell", "1", "--n", "3", "--lam", "3"],
        ("4f9087ec449e063d36370679b5099d240e4d63ec85c8b471135b3da11af8038d", 734, 0),
    ),
}


@pytest.mark.parametrize("name", PINNED_FIELD_REPORTS)
def test_field_decision_reports_are_pinned(capsys, name):
    argv, pin = PINNED_FIELD_REPORTS[name]
    assert _stdout_pin(capsys, argv) == pin


def test_ff_grade_reports(capsys):
    code, report = run_cli(capsys, "ff-grade", "--p", "3", "--ell", "1", "--k", "4")
    assert code == 0
    assert report["verdict"] is False
    assert "4" in report["reason"]
    code, report = run_cli(capsys, "ff-grade", "--p", "7", "--ell", "1", "--k", "3", "--list-mu")
    assert report["verdict"] is True
    assert report["mu"] == [[2], [3], [4], [5]]


def test_ff_grade_builds_the_field_once_and_decides_once(capsys, monkeypatch):
    from gradeddiv import cli, exactfield, gradedfield

    decisions, builds = [], []
    decide = cli.ff_grading_exists
    build = exactfield.FiniteField.__init__

    def counting_decide(*args):
        decisions.append(args)
        return decide(*args)

    def counting_build(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(cli, "ff_grading_exists", counting_decide)
    monkeypatch.setattr(gradedfield, "ff_grading_exists", counting_decide)
    monkeypatch.setattr(exactfield.FiniteField, "__init__", counting_build)
    for argv, mus in (
        (("--p", "7", "--ell", "1", "--k", "3"), [[2], [3], [4], [5]]),
        (("--p", "3", "--ell", "1", "--k", "4"), []),
    ):
        decisions.clear()
        builds.clear()
        code, report = run_cli(capsys, "ff-grade", *argv, "--list-mu")
        assert code == 0 and report["mu"] == mus
        assert len(decisions) == 1 and len(builds) == 1


def test_frobenius_and_kummer_commands(capsys, tmp_path):
    fa = tmp_path / "frob.json"
    code, report = run_cli(capsys, "frobenius-grade", "--p", "7", "--ell", "1", "--q", "3", "--out", str(fa))
    assert code == 0 and report["verdict"] is True
    assert report["dual_galois"]["ok"] is True

    kb = tmp_path / "kum.json"
    code, report = run_cli(capsys, "kummer-grade", "--p", "7", "--ell", "1", "--n", "3", "--lam", "3", "--out", str(kb))
    assert code == 0 and report["verdict"] is True

    code, report = run_cli(capsys, "iso", "--a", str(fa), "--b", str(kb))
    assert code == 0 and report["verdict"] is True

    code, report = run_cli(capsys, "verify", "--in", str(fa))
    assert code == 0 and report["verdict"] is True


def test_error_exit_codes(capsys, tmp_path):
    # missing file: input error
    code, report = run_cli(capsys, "verify", "--in", str(tmp_path / "missing.json"))
    assert code == 2
    assert report["error"]["code"] == "io-error"
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_cli(capsys, "verify", "--in", str(bad))
    assert code == 2 and report["error"]["code"] == "bad-json"
    # precondition violation: mu count mismatch
    code, report = run_cli(capsys, "is-field", "--field", "Q", "--group", "2,2", "--mu", "2")
    assert code == 2 and report["error"]["code"] == "bad-parameters"
    # frobenius with q not dividing p^ell - 1
    code, report = run_cli(capsys, "frobenius-grade", "--p", "2", "--ell", "1", "--q", "3")
    assert code == 3 and report["error"]["code"] == "bad-parameters"


def test_frobenius_grading_of_gf_2_20(capsys):
    code, report = run_cli(capsys, "frobenius-grade", "--p", "2", "--ell", "4", "--q", "5")
    assert code == 0 and report["dual_galois"]["ok"] is True
    # the report of the generic-product table build
    assert report["witness"]["mu"] == [0, 1, 0, 0]
    assert report["witness"]["eigenvectors"] == [
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0],
        [1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1],
        [0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1],
        [0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0],
    ]


# the address space of a child process, in bytes: enough for the interpreter
# and the requests below; exp/log tables of GF(2^20) took 98 MB peak RSS
CHILD_ADDRESS_SPACE = 80 << 20


def _run_in_a_small_address_space(argv) -> tuple[bytes, int]:
    """The stdout bytes and exit code of the command in a child process
    whose address space is capped at CHILD_ADDRESS_SPACE."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "gradeddiv.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=cap,
        timeout=120,
    )
    return done.stdout, done.returncode


# sha256 and length of the stdout bytes of requests on fields of a million
# elements and more, recorded with the exp/log tables that took 98 MB
# (GF(2^20)) and 387 MB (GF(13^6)) peak RSS, and with the embedding tables
# of all of GF(8388593) that took 1.37 GB
LARGE_FIELD_REPORTS = {
    "frobenius-GF(2^20)": (
        ["frobenius-grade", "--p", "2", "--ell", "4", "--q", "5"],
        ("dac9a1391e0a6d2208671f255f7c598cb6e88283557b8d9d2a1fb9590538905e", 1609),
    ),
    "kummer-GF(13^6)": (
        ["kummer-grade", "--p", "13", "--ell", "1", "--n", "6", "--lam", "2"],
        ("80eafe4f90fa3b258094f8bf80ee10ce966e976677d02ba1f1139cd8d93a6a83", 1595),
    ),
    "kummer-GF(8388593)": (
        ["kummer-grade", "--p", "8388593", "--ell", "1", "--n", "2", "--lam", "1"],
        ("6d607700bf226d141fdc7b46aef09bd729909fff947809a6667baf3680e1a20c", 488),
    ),
}


@pytest.mark.parametrize("name", LARGE_FIELD_REPORTS)
def test_large_field_reports_in_a_small_address_space(name):
    argv, pin = LARGE_FIELD_REPORTS[name]
    out, code = _run_in_a_small_address_space(argv)
    assert code == 0 and (hashlib.sha256(out).hexdigest(), len(out)) == pin


def test_count_only_counts_z2_to_the_4_in_a_small_address_space():
    # 8,910 labels; building each table to count it passed 2 GB
    out, code = _run_in_a_small_address_space(["classify-real", "--group", "2,2,2,2", "--count-only"])
    assert code == 0 and json.loads(out)["total"] == 8910


def test_oversized_field_is_refused_at_once(capsys):
    started = time.monotonic()
    code, report = run_cli(capsys, "is-field", "--field", "GF", "--p", "2", "--ell", "40", "--group", "3", "--mu=1")
    assert time.monotonic() - started < 5
    assert code == 3 and report["error"]["code"] == "bad-parameters"
    assert str(FIELD_TABLE_BOUND) in report["error"]["message"]


def test_factor_bound_is_refused_with_exit_3(capsys):
    # a 19-digit prime: trial division stops at the default bound 10^7
    big = "1000000000000000003"
    for argv in (
        ["is-field", "--field", "Q", "--group", "2", f"--mu={big}"],
        ["ff-grade", "--p", "2", "--ell", "3", "--k", big],
        ["ff-grade", "--p", big, "--ell", "1", "--k", "2"],
    ):
        code, report = run_cli(capsys, *argv)
        assert code == 3 and report["error"]["code"] == "bad-parameters", argv
        assert "10000000" in report["error"]["message"], argv


def test_ff_grade_refuses_bad_field_parameters(capsys):
    cases = [
        (("--p", "4", "--ell", "1", "--k", "3"), "4 is not prime"),
        (("--p", "1", "--ell", "1", "--k", "2"), "1 is not prime"),
        (("--p", "2", "--ell", "0", "--k", "3"), "extension degree must be >= 1"),
        (("--p", "2", "--ell", "-2", "--k", "3"), "extension degree must be >= 1"),
        (("--p", "7", "--ell", "1", "--k", "0"), "k must be >= 1"),
        (("--p", "7", "--ell", "1", "--k", "-2"), "k must be >= 1"),
    ]
    for args, message in cases:
        for extra in ((), ("--list-mu",)):
            code, report = run_cli(capsys, "ff-grade", *args, *extra)
            assert code == 3, args + extra
            assert report["error"] == {"code": "bad-parameters", "message": message}


def test_frobenius_grade_tests_divisibility_before_primality(capsys, monkeypatch):
    from gradeddiv import intutil

    seen = []
    real_is_prime = intutil.is_prime

    def recording_is_prime(n):
        seen.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(intutil, "is_prime", recording_is_prime)
    code, report = run_cli(capsys, "frobenius-grade", "--p", "2", "--ell", "1", "--q", "1000000000000000003")
    assert code == 3 and report["error"]["message"] == "q must divide p^ell - 1"
    assert seen == []
    # a divisor of p^ell - 1 is still tested for primality
    code, report = run_cli(capsys, "frobenius-grade", "--p", "13", "--ell", "1", "--q", "4")
    assert code == 3 and report["error"]["message"] == "q must be prime"
    assert seen == [4]


def test_classify_real_builds_the_subgroup_lattice_once(capsys, monkeypatch):
    from gradeddiv import abelian, cli

    calls = []
    real_all_subgroups = abelian.all_subgroups

    def counting_all_subgroups(G):
        calls.append(G.orders)
        return real_all_subgroups(G)

    monkeypatch.setattr(abelian, "all_subgroups", counting_all_subgroups)
    monkeypatch.setattr(cli, "all_subgroups", counting_all_subgroups)
    for argv in (["--count-only"], ["--item", "3"], ["--oracle", "fast"]):
        calls.clear()
        code, _ = run_cli(capsys, "classify-real", "--group", "4,2", *argv)
        assert code == 0 and calls == [(4, 2)], argv


def test_reports_byte_identical(capsys):
    main(["classify-real", "--group", "2", "--count-only"])
    first = capsys.readouterr().out
    main(["classify-real", "--group", "2", "--count-only"])
    second = capsys.readouterr().out
    assert first == second
    main(["ff-grade", "--p", "3", "--ell", "1", "--k", "4"])
    a = capsys.readouterr().out
    main(["ff-grade", "--p", "3", "--ell", "1", "--k", "4"])
    b = capsys.readouterr().out
    assert a == b
