"""Tests of the benchmark's own checks: real reports pass, corrupted ones fail.

    python3 -m pytest perfbench/test_checks.py -q

Reports come from running the program in-process on small inputs (the
README examples among them); each check must accept the report and reject
a copy with one structure constant, count or verdict changed.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import arith  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from worker import prepare, serve  # noqa: E402

from gradeddiv import cli  # noqa: E402


def run(argv, workdir: Path, req=None):
    """(meta, report) as the worker records them."""
    req = dict(req or {}, argv=argv)
    prepare(req, workdir)
    code, _, out, error, _ = serve(cli, argv)
    meta = {k: v for k, v in req.items() if k != "write"}
    meta.update(code=code, error=error)
    return meta, json.loads(out) if out else None


def corrupt_constant(desc: dict) -> dict:
    """The descriptor with its first structure constant doubled."""
    bad = copy.deepcopy(desc)
    F = arith.field_from_descriptor(bad["field"])
    entry = bad["constants"][1]
    x = F.from_json(entry["c"])
    entry["c"] = F.to_json(F.add(x, x))
    return bad


# ---------------------------------------------------------------------------
# quasitorus-stream
# ---------------------------------------------------------------------------


def run_session(steps, workdir):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        return [run(step["argv"], workdir, step) for step in steps]


def quaternion_session(mode: str):
    orders, beta, mu = [2, 2], [[0, 1, "-1/1"]], ["-1/1", "-1/1"]
    expect = {"field": {"kind": "R"}, "orders": orders, "beta": beta, "mu": mu, "mode": mode}
    req = {"group": {"orders": orders}, "beta": beta, "mu": [[0, "-1/1"], [1, "-1/1"]], "field": {"kind": "R"}}
    steps = [
        {"argv": ["construct", "--in", "req.json", "--out", "alg.json"], "write": {"req.json": req}},
        {"argv": ["verify", "--in", "alg.json"]},
        {"argv": ["invariants", "--in", "alg.json"]},
        {"argv": ["decompose", "--in", "alg.json"]},
    ]
    if mode == "iso-true":
        lam = [[[0, 0], "1/1"], [[0, 1], "-1/1"], [[1, 0], "1/1"], [[1, 1], "-1/1"]]
        expect["lambda"] = lam
        steps.append({"argv": ["iso", "--a", "alg.json", "--b", "b.json"], "derive": {"kind": "rescale", "src": "alg.json", "lambda": lam, "out": "b.json"}})
    else:
        expect["other_beta"] = []
        steps.append(
            {
                "argv": ["iso", "--a", "alg.json", "--b", "b.json"],
                "derive": {"kind": "rebuild", "field": {"kind": "R"}, "orders": orders, "beta": [], "mu": mu, "out": "b.json"},
            }
        )
    for step in steps:
        step["session"] = "s"
        step["expect"] = expect
    return steps


@pytest.mark.parametrize("mode", ["iso-true", "iso-false"])
def test_quaternion_session_passes(tmp_path, mode):
    items = run_session(quaternion_session(mode), tmp_path)
    assert checks.check_quasitorus_session(items) == [[]] * 5


def test_corrupted_quasitorus_reports_fail(tmp_path):
    items = run_session(quaternion_session("iso-true"), tmp_path)

    def problems_after(step: int, mutate):
        bad = copy.deepcopy(items)
        mutate(bad[step][1])
        return checks.check_quasitorus_session(bad)[step]

    def bad_constant(report):
        report["algebra"] = corrupt_constant(report["algebra"])

    assert problems_after(0, bad_constant)
    assert problems_after(1, lambda r: r.update(verdict=False))
    assert problems_after(2, lambda r: r["invariants"].update(center_dim=2))
    assert problems_after(2, lambda r: r["invariants"].update(beta=[]))
    assert problems_after(3, lambda r: r["parts"].pop())
    assert problems_after(4, lambda r: r.update(verdict=False, witness=None))
    def bad_witness(report):
        # flip the scalar at degree (1, 1) alone; the generators' scalars fix it
        entry = report["witness"][3]
        entry[1] = "1/1" if entry[1] == "-1/1" else "-1/1"

    assert problems_after(4, bad_witness)


def test_generated_sessions_pass(tmp_path):
    """The workload's small sessions: every mode over every coefficient kind."""
    rng = random.Random(7)
    steps = []
    for k, slot in enumerate(workloads.QUASITORUS_SLOTS):
        if slot[2] <= 9:
            steps += workloads._session(rng, f"s{k}", *slot)
    items = run_session(steps, tmp_path)
    assert all(meta["code"] == 0 for meta, _ in items)
    assert checks.check_run("quasitorus-stream", iter(items), 0) == [[]] * len(items)


def test_rescaled_and_rebuilt_inputs_are_algebras():
    F = arith.Cyclotomic(3)
    desc = F.descriptor()
    root = F.root(1)
    alg = workloads.closed_form_algebra(F, desc, [3, 2], [], [F.to_json(root), F.to_json(F.one)])
    assert checks.OneDimTable(alg).problems() == []
    lam = [[[a, b], F.to_json(F.one if (a, b) == (0, 0) else F.root(a + b))] for a in range(3) for b in range(2)]
    assert checks.OneDimTable(workloads.rescaled_algebra(alg, lam)).problems() == []


# ---------------------------------------------------------------------------
# field-decisions
# ---------------------------------------------------------------------------

FIELD_EXAMPLES = [
    ["is-field", "--field", "Q", "--group", "2,2", "--mu=2,3"],
    ["is-field", "--field", "Q", "--group", "2,2", "--mu=2,8"],
    ["is-field", "--field", "Q", "--group", "4", "--mu=-4"],
    ["is-field", "--field", "Q", "--group", "6", "--mu=8"],
    ["is-field", "--field", "GF", "--p", "5", "--ell", "1", "--group", "2,2", "--mu=2,3"],
    ["is-field", "--field", "GF", "--p", "3", "--ell", "1", "--group", "4", "--mu=2"],
    ["ff-grade", "--p", "3", "--ell", "1", "--k", "4", "--list-mu"],
    ["ff-grade", "--p", "7", "--ell", "1", "--k", "3", "--list-mu"],
    ["frobenius-grade", "--p", "7", "--ell", "1", "--q", "3"],
    ["kummer-grade", "--p", "7", "--ell", "1", "--n", "3", "--lam", "3"],
]


@pytest.mark.parametrize("argv", FIELD_EXAMPLES, ids=lambda a: " ".join(a))
def test_field_examples_pass(tmp_path, argv):
    meta, report = run(argv, tmp_path)
    assert checks.check_field(meta, report) == []


def test_readme_is_field_verdicts(tmp_path):
    assert run(FIELD_EXAMPLES[0], tmp_path)[1]["verdict"] == "true"
    assert run(FIELD_EXAMPLES[1], tmp_path)[1]["verdict"] == "false"


def flip(verdict):
    return {"true": "false", "false": "true", True: False, False: True}[verdict]


@pytest.mark.parametrize("argv", FIELD_EXAMPLES, ids=lambda a: " ".join(a))
def test_flipped_field_verdicts_fail(tmp_path, argv):
    meta, report = run(argv, tmp_path)
    report["verdict"] = flip(report["verdict"])
    assert checks.check_field(meta, report)


def test_corrupted_field_witnesses_fail(tmp_path):
    meta, report = run(FIELD_EXAMPLES[1], tmp_path)
    key = next(iter(report["witness"]["left"]))
    report["witness"]["left"][key] = "5/1"
    assert checks.check_field(meta, report)

    meta, report = run(FIELD_EXAMPLES[2], tmp_path)
    report["witness"]["factors"][0][0] = "3/1"
    assert checks.check_field(meta, report)

    meta, report = run(FIELD_EXAMPLES[7], tmp_path)
    report["mu"].pop()
    assert checks.check_field(meta, report)

    for argv in FIELD_EXAMPLES[8:]:
        meta, report = run(argv, tmp_path)
        report["algebra"] = corrupt_constant(report["algebra"])
        assert checks.check_field(meta, report)


# ---------------------------------------------------------------------------
# real-census
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def census_2_2(tmp_path_factory):
    argv = ["classify-real", "--group", "2,2"]
    return run(argv, tmp_path_factory.mktemp("census"), {"expect": {"group": "2,2"}})


def census_problems(item):
    return checks.check_census(item[0], item[1], random.Random(0))


def test_census_report_passes(census_2_2):
    assert census_problems(census_2_2) == []


def test_corrupted_census_reports_fail(census_2_2):
    def problems_after(mutate):
        bad = copy.deepcopy(census_2_2)
        mutate(bad[1])
        return census_problems(bad)

    def bad_table(report):
        # a table small enough that every census check covers it
        label = next(e for e in report["labels"] if e["dimension"] == 4 and e["label"]["item"] == "1")
        label["algebra"] = corrupt_constant(label["algebra"])

    def bad_counts(report):
        for row in report["strata"]:
            if len(row["subgroup"]) == 2:
                row["counts"]["1"] += 1
                break

    assert problems_after(bad_table)
    assert problems_after(bad_counts)
    assert problems_after(lambda r: r["labels"][0]["invariants"].update(recovered_label_matches=False))
    assert problems_after(lambda r: r["labels"].pop())


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic
# ---------------------------------------------------------------------------


def test_cyclotomic_polynomials():
    assert arith.cyclotomic_poly(1) == [-1, 1]
    assert arith.cyclotomic_poly(4) == [1, 0, 1]
    assert arith.cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    F = arith.Cyclotomic(12)
    assert F.pow(F.zeta, 12) == F.one and F.pow(F.zeta, 6) != F.one
    x = F.add(F.one, F.zeta)
    assert F.mul(x, F.inv(x)) == F.one


@pytest.mark.parametrize("p,ell", [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_gf_binomial_criterion_matches_root_search(p, ell):
    """Against brute force: X^n - a for n in {2, 3, 4} is reducible over a
    finite field iff it has a root or (n = 4) splits into two quadratics."""
    F = arith.GF(p, ell, arith.monic_irreducibles(p, ell)[0])
    elems = F.elements()
    units = elems[1:]
    for n in (2, 3, 4):
        for a in units:
            f = [F.neg(a)] + [F.zero] * (n - 1) + [F.one]
            has_root = any(F.pow(x, n) == a for x in units)
            quad_split = n == 4 and any(
                arith.poly_mul(F, [b0, b1, F.one], [c0, c1, F.one]) == f
                for b0 in elems
                for b1 in elems
                for c0 in elems
                for c1 in elems
            )
            assert arith.gf_binomial_irreducible(F, a, n) == (not has_root and not quad_split), (n, a)


def test_capelli_and_square_classes():
    assert arith.q_binomial_irreducible(Fraction(2), 4)
    assert not arith.q_binomial_irreducible(Fraction(-4), 4)
    assert not arith.q_binomial_irreducible(Fraction(-8), 3)
    assert not arith.q_binomial_irreducible(Fraction(9, 4), 2)
    vectors = [arith.square_class_vector(Fraction(x)) for x in (2, 3, 6)]
    assert arith.gf2_rank(vectors) == 2
    assert arith.gf2_rank(vectors[:2] + [arith.square_class_vector(Fraction(-1))]) == 3


def test_abelian_types_and_bicharacter_counts():
    assert checks.abelian_type([(a, b) for a in range(4) for b in range(2)], (4, 2)) == (2, 4)
    assert checks.abelian_type([(0, 0), (2, 0), (0, 1), (2, 1)], (4, 2)) == (2, 2)
    assert checks.abelian_type([(a,) for a in range(6)], (6,)) == (2, 3)
    assert checks.count_bicharacters_up_to_inversion((3, 3)) == 2
    assert checks.count_bicharacters_up_to_inversion((2, 2, 2)) == 8


def test_rounds_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_round(w, 5, 2) == workloads.make_round(w, 5, 2)
    assert workloads.make_round("field-decisions", 5, 2) != workloads.make_round("field-decisions", 6, 2)
