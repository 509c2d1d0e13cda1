"""Command-line front door: construct / verify / classify / decide.

All subcommands emit a single JSON report on stdout.  Reports embed the
exact input descriptor and are byte-identical across runs for identical
inputs.  Exit code 0 means a verdict was computed (including "false" and
"undecided" verdicts); nonzero exit codes mean input errors, with a
machine-readable error code in the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache
from itertools import islice

from . import jsonio
from .abelian import FinAbGroup, all_subgroups
from .exactfield import FiniteField, RationalField, RealField
from .gradedalg import (
    GradedAlgebra,
    center_dim,
    certify,
    commutation_bicharacter,
    graded_center_e_dim,
    graded_iso_1dim,
    identity_component,
    mu_invariant,
    oracle_checks,
)
from .gradedfield import (
    GradedFieldSpec,
    KummerSpec,
    dual_galois_check,
    ff_grading_exists,
    ff_grading_mus,
    frobenius_grading,
    is_field_general,
    kummer_grading,
)
from .quasitorus import construct, primary_decompose
from .realclass import census, class_of_admissible, classify_all, recover_label

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _emit(report: dict) -> None:
    sys.stdout.write(jsonio.dumps_canonical(report))


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise CliError("io-error", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError("bad-json", f"malformed JSON in {path}: {exc}") from exc


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps_canonical(obj))


def _parse_group(text: str) -> FinAbGroup:
    text = text.strip()
    if not text:
        return FinAbGroup(())
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError("bad-parameters", f"bad group spec {text!r}") from exc
    if any(n < 1 for n in orders):
        raise CliError("bad-parameters", "cyclic factor orders must be >= 1")
    return FinAbGroup(orders)


def _parse_field(args) -> object:
    name = args.field.upper()
    if name == "Q":
        return RationalField()
    if name == "R":
        return RealField()
    if name == "GF":
        if args.p is None:
            raise CliError("bad-parameters", "--field GF needs --p (and optional --ell)")
        return FiniteField(args.p, args.ell or 1)
    raise CliError("bad-parameters", f"unknown field {args.field!r}")


def _parse_scalars(field, text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            if isinstance(field, FiniteField):
                out.append(field.coerce(int(part)))
            else:
                out.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError("bad-parameters", f"bad field element {part!r}") from exc
    return tuple(out)


def _oracle_report(field, checks) -> dict:
    """JSON form of the (name, ok, witness) results of gradedalg.oracle_checks."""
    out = {}
    for name, ok, wit in checks:
        if isinstance(wit, tuple):
            wit = list(wit)
        elif isinstance(wit, dict):
            wit = {
                "degree": list(wit["degree"]),
                "vector": {str(k): field.elem_to_json(c) for k, c in wit["vector"].items()},
            }
        out[name] = {"ok": ok, "witness": wit}
    return out


def _invariants_report(A: GradedAlgebra) -> dict:
    F = A.field
    # a table refused for its shape keeps that message; then the oracles run
    A_e = identity_component(A)
    one_dim = all(len(ix) == 1 for ix in A.components().values())
    if one_dim:
        A.cocycle()
    certify(A, division=False)
    report = {
        "dimension": A.dim,
        "identity_component_dim": A_e.dim,
        "center_dim": center_dim(A),
        "graded_center_e_dim": graded_center_e_dim(A),
    }
    if one_dim:
        beta = commutation_bicharacter(A)
        mu = mu_invariant(A)
        report["beta"] = [[i, j, F.elem_to_json(v)] for i, j, v in beta.values]
        # a tag holds ints only, and JSON writes its tuples as arrays
        report["mu_generator_classes"] = [
            {"representative": F.elem_to_json(v), "order": o, "tag": F.nth_power_class(v, max(o, 1))}
            for v, o in zip(mu.gen_values, A.group.orders)
        ]
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> dict:
    data = _read_json(args.infile)
    G, beta, mu, F = jsonio.quasitorus_params_from_json(data)
    A = construct(G, beta, mu, F, verify=False)
    # fast mode runs only the grading and unit oracles
    checks = certify(A) if args.oracle == "full" else list(islice(oracle_checks(A), 2))
    desc = jsonio.algebra_to_json(A)
    if args.out:
        _write_json(args.out, desc)
    return {"input": data, "algebra": desc, "verification": _oracle_report(F, checks)}


def _cmd_invariants(args) -> dict:
    data = _read_json(args.infile)
    A = jsonio.algebra_from_json(data)
    return {"input": data, "invariants": _invariants_report(A)}


def _cmd_decompose(args) -> dict:
    data = _read_json(args.infile)
    A = jsonio.algebra_from_json(data)
    # its shape errors come first; the parts are reported only once A passes
    parts = primary_decompose(A)
    certify(A, division=False)
    return {
        "input": data,
        "parts": [{"prime": p, "algebra": jsonio.algebra_to_json(part)} for p, part in parts],
    }


def _cmd_iso(args) -> dict:
    da, db = _read_json(args.a), _read_json(args.b)
    A, B = jsonio.algebra_from_json(da), jsonio.algebra_from_json(db)
    # the cocycles' shape errors come first, where graded_iso_1dim reads them
    if A.field == B.field and A.group.orders == B.group.orders:
        A.cocycle()
        B.cocycle()
    certify(A, division=False)
    certify(B, division=False)
    lam = graded_iso_1dim(A, B)
    witness = None
    if lam is not None:
        witness = sorted(
            [[list(t), A.field.elem_to_json(v)] for t, v in lam.items()]
        )
    return {"input": {"a": da, "b": db}, "verdict": lam is not None, "witness": witness}


def _cmd_verify(args) -> dict:
    data = _read_json(args.infile)
    A = jsonio.algebra_from_json(data)
    # every oracle runs, also after a failure, so the report names each verdict
    checks = _oracle_report(A.field, oracle_checks(A))
    verdict = all(c["ok"] for c in checks.values())
    return {"input": data, "verdict": verdict, "checks": checks}


def _cmd_is_field(args) -> dict:
    field = _parse_field(args)
    G = _parse_group(args.group)
    mus = _parse_scalars(field, args.mu)
    if len(mus) != G.rank:
        raise CliError("bad-parameters", "need one mu per cyclic factor")
    decision = is_field_general(GradedFieldSpec(G, mus, field))
    return {
        "input": {
            "field": field.descriptor(),
            "group": G.to_json(),
            "mu": [field.elem_to_json(m) for m in mus],
        },
        "verdict": decision.verdict,
        "reason": decision.reason,
        "witness": decision.witness,
    }


def _cmd_ff_grade(args) -> dict:
    decision = ff_grading_exists(args.p, args.ell, args.k)
    report = {
        "input": {"p": args.p, "ell": args.ell, "k": args.k},
        "verdict": decision.verdict == "true",
        "reason": decision.reason,
    }
    if args.list_mu:
        F = FiniteField(args.p, args.ell)
        mus = ff_grading_mus(F, args.k) if decision.is_true else []
        report["mu"] = [F.elem_to_json(m) for m in mus]
    return report


def _cmd_frobenius(args) -> dict:
    A, info = frobenius_grading(args.p, args.ell, args.q)
    desc = jsonio.algebra_to_json(A)
    if args.out:
        _write_json(args.out, desc)
    ok, galois = dual_galois_check(A)
    return {
        "input": {"p": args.p, "ell": args.ell, "q": args.q},
        "verdict": True,
        "algebra": desc,
        "witness": info,
        "dual_galois": {"ok": ok, **galois},
    }


def _cmd_kummer(args) -> dict:
    F = FiniteField(args.p, args.ell)
    gens = _parse_scalars(F, args.lam)
    A, info = kummer_grading(KummerSpec(F, args.n, gens))
    desc = jsonio.algebra_to_json(A)
    if args.out:
        _write_json(args.out, desc)
    ok, galois = dual_galois_check(A)
    return {
        "input": {
            "p": args.p,
            "ell": args.ell,
            "n": args.n,
            "lambda": [F.elem_to_json(g) for g in gens],
        },
        "verdict": True,
        "algebra": desc,
        "witness": info,
        "dual_galois": {"ok": ok, **galois},
    }


def _label_params_json(label, field) -> dict:
    """The label's parameters; its constants are elements of the field of its algebra."""
    out: dict = {"group": label.group.to_json()}
    if label.item in ("1", "2"):
        beta, mu = label.data
        out["beta"] = [[i, j, field.elem_to_json(v)] for i, j, v in beta.values]
        out["mu"] = [[list(e), s] for e, s in mu.values]
    elif label.item in ("3a", "3b"):
        K, beta, nu = label.data
        out["K"] = [list(e) for e in K.elements]
        out["K_generators"] = [list(g) for g in beta.pres.gens]
        out["beta_on_K"] = [[i, j, field.elem_to_json(v)] for i, j, v in beta.chi.values]
        if label.item == "3b":
            # the label carries one member; the report lists its whole class, as
            # JSON writes each member's ((exponents, sign), ...) tuples
            out["nu_class"] = [m.values for m in class_of_admissible(label.group, K, nu)]
        else:
            out["nu"] = [[list(e), s] for e, s in nu.values]
        out["case"] = label.item[-1]
    else:
        pair = label.data[0]
        out["beta_pair"] = [
            [[i, j, field.elem_to_json(v)] for i, j, v in b.values] for b in pair
        ]
    return out


def _cmd_classify_real(args) -> dict:
    G = _parse_group(args.group)
    if G.order > 64:
        raise CliError("bad-parameters", "classification bounded to |G| <= 64")
    items = ("1", "2", "3", "4") if args.item is None else (str(args.item),)
    verify = args.oracle == "full"

    subgroups = all_subgroups(G)
    results = classify_all(subgroups, items=items, verify=verify, construct=not args.count_only)
    # every stratum is reported, also those without a label
    strata = [S.elements for S in subgroups]
    rows = census(results)
    empty_row = {"1": 0, "2": 0, "3": 0, "4": 0}
    full_key = tuple(G.elements())
    report: dict = {
        "input": {"group": G.to_json(), "item": args.item, "oracle": args.oracle},
        "counts": rows.get(full_key, empty_row),
        "strata": [
            {"subgroup": [list(e) for e in stratum], "counts": rows.get(stratum, empty_row)}
            for stratum in strata
        ],
        "total": len(results),
    }
    if not args.count_only:
        entries = []
        for r in results:
            entry = {
                "label": {"item": r.label.item, "group": list(r.label.group.orders)},
                "stratum": [list(e) for e in r.stratum],
                "parameters": _label_params_json(r.label, r.algebra.field),
                "dimension": r.algebra.dim,
                "algebra": jsonio.algebra_to_json(r.algebra),
            }
            if verify:
                rec = recover_label(r.algebra)
                entry["invariants"] = {
                    "identity_component_dim": identity_component(r.algebra).dim,
                    "graded_center_e_dim": graded_center_e_dim(r.algebra),
                    "recovered_label_matches": rec.key() == r.label.key(),
                }
            entries.append(entry)
        report["labels"] = entries
    if args.out:
        _write_json(args.out, report)
    return report


# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gradeddiv",
        description="Exact construction, verification, classification, and "
        "field-ness decisions for group-graded division algebras.",
    )
    # reports stay byte-identical across runs; timing goes to stderr only
    parser.add_argument("--verbose", action="store_true", help="print timing to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build D(K, beta, mu) from a JSON request")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--oracle", choices=("full", "fast"), default="full")

    p = sub.add_parser("invariants", help="commutation bicharacter, mu classes, centers")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("decompose", help="split into primary components")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("iso", help="decide graded isomorphism from the cocycles (1-dim components)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("verify", help="run all oracles on an algebra descriptor")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("classify-real", help="real classification over subgroups of G")
    p.add_argument("--group", required=True)
    p.add_argument("--item", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.add_argument("--oracle", choices=("full", "fast"), default="full")

    p = sub.add_parser("is-field", help="decide whether a graded-field is a field")
    p.add_argument("--field", required=True, help="Q, R, or GF")
    p.add_argument("--p", type=int)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--group", required=True)
    p.add_argument("--mu", required=True)

    p = sub.add_parser("ff-grade", help="existence of Z_k-gradings on finite fields")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--list-mu", action="store_true")

    p = sub.add_parser("frobenius-grade", help="eigenspace grading of GF(p^{q ell})")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("kummer-grade", help="canonical grading of a Kummer extension")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True, help="comma-separated Lambda generators")
    p.add_argument("--out")

    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "invariants": _cmd_invariants,
    "decompose": _cmd_decompose,
    "iso": _cmd_iso,
    "verify": _cmd_verify,
    "classify-real": _cmd_classify_real,
    "is-field": _cmd_is_field,
    "ff-grade": _cmd_ff_grade,
    "frobenius-grade": _cmd_frobenius,
    "kummer-grade": _cmd_kummer,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            # unknown subcommand or bad flags; argparse already printed usage
            _emit({"error": {"code": "bad-arguments", "message": "invalid command line"}})
            return EXIT_INPUT
        raise
    verbose = args.verbose
    started = time.monotonic()
    try:
        report = _HANDLERS[args.command](args)
    except CliError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}})
        return exc.exit_code
    except ValueError as exc:
        _emit({"error": {"code": "bad-parameters", "message": str(exc)}})
        return EXIT_PRECONDITION
    report = {"command": args.command, **report}
    _emit(report)
    if verbose:
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
