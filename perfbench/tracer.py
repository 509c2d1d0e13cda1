"""Spans and counts at the boundaries of the gradeddiv modules.

The tracer wraps, from outside the program, every public module-level
function of each layer (the modules of the package), so a call records a
span: its name ``layer.function``, start, end, the index of the enclosing
span and the id of the request that caused it.  Spans stay in memory and
are written out when the run ends.  The add/mul/inv methods of the
coefficient fields are counted per field kind instead: they are called far
too often to keep a record per call.  The field constructors (FiniteField
and CyclotomicField, which build tables and cyclotomic polynomials) get
spans like the functions.

A layer's self time is its spans' durations minus the parts of them that
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = (
    "cli",
    "jsonio",
    "quasitorus",
    "gradedalg",
    "realclass",
    "gradedfield",
    "exactfield",
    "linalg",
    "abelian",
    "intutil",
)

PACKAGE = "gradeddiv"
FIELD_KINDS = ("Q", "R", "GF", "CYC")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, request id)
        self.stack: list[int] = []
        self.request = -1
        self.ops = dict.fromkeys(FIELD_KINDS, 0)
        # algebras passed to verify_associative by the current request, kept
        # alive until it ends so that ids stay distinct
        self.assoc_algebras: dict[int, object] = {}
        self.assoc_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self.assoc_algebras = {}
        self.assoc_calls = 0

    def end_request(self) -> tuple[int, int]:
        """(associativity oracle calls, distinct algebras they ran on) of the request."""
        out = (self.assoc_calls, len(self.assoc_algebras))
        self.assoc_algebras = {}
        self.assoc_calls = 0
        return out

    def _span(self, name: str, fn, watch_first_arg: bool = False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if watch_first_arg and args:
                tracer.assoc_algebras[id(args[0])] = args[0]
                tracer.assoc_calls += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.request)

        return wrapper

    def _counter(self, fn):
        ops = self.ops

        @functools.wraps(fn)
        def wrapper(field, *args):
            ops[field.kind] += 1
            return fn(field, *args)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = PACKAGE
        modules = [m for n, m in sorted(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._span(
                    f"{layer}.{name}", obj, watch_first_arg=(layer, name) == ("gradedalg", "verify_associative")
                )
                # modules bind imported functions under their own names
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            self._set(m, attr, wrapper)
        exactfield = sys.modules[f"{pkg}.exactfield"]
        for cls in (exactfield.FiniteField, exactfield.CyclotomicField):
            self._set(cls, "__init__", self._span(f"exactfield.{cls.__name__}", cls.__init__))
        for cls in (exactfield.RationalField, exactfield.FiniteField, exactfield.CyclotomicField):
            for op in ("add", "mul", "inv"):
                self._set(cls, op, self._counter(cls.__dict__[op]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _names(*names: str) -> frozenset:
    return frozenset(names)


# inclusive time of the outermost call into any of these functions
INCLUSIVE = {
    "round_s": _names("cli.main"),
    "jsonio.decode_s": _names(
        "jsonio.field_from_json", "jsonio.group_from_json", "jsonio.algebra_from_json", "jsonio.quasitorus_params_from_json"
    ),
    "jsonio.encode_s": _names("jsonio.algebra_to_json", "jsonio.group_to_json", "jsonio.dumps_canonical"),
    "quasitorus.decompose_s": _names("quasitorus.primary_decompose"),
    "gradedalg.assoc_s": _names("gradedalg.verify_associative"),
    "gradedalg.division_s": _names("gradedalg.is_graded_division"),
    "gradedalg.invariants_s": _names(
        "gradedalg.center_dim",
        "gradedalg.center_basis",
        "gradedalg.graded_center_e_dim",
        "gradedalg.centralizer_basis",
        "gradedalg.commutation_bicharacter",
        "gradedalg.mu_invariant",
        "gradedalg.mu_class_of_element",
        "gradedalg.identity_component",
    ),
    "gradedalg.iso_s": _names("gradedalg.graded_iso_1dim"),
    "realclass.enumerate_s": _names(
        "realclass.enumerate_bicharacters_pm1",
        "realclass.enumerate_bicharacters_complex",
        "realclass.enumerate_quadratic_forms",
        "realclass.enumerate_admissible",
    ),
    "realclass.recover_s": _names("realclass.recover_label"),
    "gradedfield.decide_s": _names("gradedfield.is_field_general"),
    "gradedfield.zero_divisor_scan_s": _names("gradedfield.zero_divisor_search"),
    "gradedfield.dual_check_s": _names("gradedfield.dual_galois_check"),
    "exactfield.field_build_s": _names("exactfield.FiniteField", "exactfield.CyclotomicField"),
    "exactfield.poly_s": _names(
        "exactfield.poly_trim",
        "exactfield.poly_mul",
        "exactfield.poly_sub",
        "exactfield.poly_divmod",
        "exactfield.poly_mod",
        "exactfield.poly_powmod",
        "exactfield.poly_gcd",
        "exactfield.poly_eval",
        "exactfield.binomial_poly",
        "exactfield.is_irreducible_ff",
        "exactfield.gfp_is_irreducible",
        "exactfield.cyclotomic_polynomial",
    ),
    "abelian.subgroups_s": _names(
        "abelian.all_subgroups",
        "abelian.index2_subgroups",
        "abelian.subgroup_presentation",
        "abelian.torsion_p_part",
        "abelian.two_torsion",
        "abelian.squares",
        "abelian.coset_decomposition",
        "abelian.quotient_group",
    ),
    "intutil.factor_s": _names("intutil.factorint"),
}

# self time of these functions (their span minus child spans)
SELF = {
    "quasitorus.construct_self_s": _names("quasitorus.construct"),
    "realclass.construct_self_s": _names(
        "realclass.construct_label",
        "realclass.construct_item1",
        "realclass.construct_item2",
        "realclass.construct_item3",
        "realclass.construct_item4",
        "realclass.quaternion_table",
    ),
    "gradedfield.grading_self_s": _names(
        "gradedfield.ff_grading_exists",
        "gradedfield.ff_grading_mus",
        "gradedfield.frobenius_grading",
        "gradedfield.kummer_grading",
        "gradedfield.embed_field",
        "gradedfield.spec_algebra",
    ),
}

# calls per round, counted on the run's first traced round
CALLS = {
    "gradedalg.assoc_calls": ("gradedalg.verify_associative",),
    "realclass.labels": ("realclass.construct_label",),
    "exactfield.field_builds": ("exactfield.FiniteField", "exactfield.CyclotomicField"),
    "intutil.factor_calls": ("intutil.factorint",),
}

def layer_metrics(spans, request_round: dict[int, int], rounds: int) -> tuple[dict[str, float], dict[str, int]]:
    """(times, counts) per layer.  Times are seconds per round averaged over
    the traced rounds; call counts are those of round 0, whose inputs depend
    only on the seed, so they repeat exactly from run to run."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def outermost(names: frozenset) -> list[int]:
        inside = [False] * n
        picked = []
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0 and (inside[parent] or spans[parent][0] in names):
                inside[i] = True
            if name in names and not inside[i]:
                picked.append(i)
        return picked

    def self_time(pick) -> float:
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(spans) if pick(s[0])) / rounds

    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for metric, names in INCLUSIVE.items():
        times[metric] = sum(spans[i][2] - spans[i][1] for i in outermost(names)) / rounds
    for metric, names in SELF.items():
        times[metric] = self_time(lambda name: name in names)
    times["cli.self_s"] = self_time(lambda name: name.startswith("cli."))

    calls_in = outermost(frozenset(s[0] for s in spans if s[0].startswith("linalg.")))
    times["linalg.s"] = sum(spans[i][2] - spans[i][1] for i in calls_in) / rounds
    counts["linalg.calls"] = sum(1 for i in calls_in if request_round.get(spans[i][4]) == 0)
    for metric, names in CALLS.items():
        counts[metric] = sum(1 for s in spans if s[0] in names and request_round.get(s[4]) == 0)
    return times, counts
