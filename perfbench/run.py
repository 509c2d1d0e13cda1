"""gradeddiv benchmark: one workload (or all three) end to end.

    python3 perfbench/run.py --workload quasitorus-stream --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each workload runs in its own worker process (worker.py) as a closed loop
with one client; set-up is timed in further fresh processes.  After the
worker ends, every report is checked (checks.py) outside the timed region.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The program is imported from
``src/`` of the checkout this file sits in; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 4  # fresh processes timing set-up, besides the worker itself
WORKER_TIMEOUT_S = 150  # a worker normally ends within 70 s; the whole run must end within 180 s

# metric names and units are those BENCHMARK.json declares
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    pass


def _worker(args: list[str], workdir: Path) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--workdir", str(workdir)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _read_results(path: Path, labels: list[int], argvs: list):
    """(meta, report) pairs; adds the classification labels seen to labels[0]
    and each request's command line to argvs."""
    with open(path, encoding="utf-8") as fh:
        while True:
            meta = fh.readline()
            if not meta:
                return
            report = json.loads(fh.readline())
            if isinstance(report, dict) and report.get("command") == "classify-real":
                labels[0] += report["total"]
            meta = json.loads(meta)
            argvs.append(meta["argv"])
            yield meta, report


def quantile(values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics weighted
    by the Beta((n+1)p, (n+1)(1-p)) mass of each 1/n slice of [0, 1].

    It averages the order statistics near the quantile instead of picking
    one, so it moves less from run to run, most of all where the requests of
    a round leave gaps between their latencies."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logs = [
        [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in ((i + (k + 0.5) / steps) / n for k in range(steps))]
        for i in range(n)
    ]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            setups.append(json.loads(_worker(["--workload", workload, "--setup-only"], workdir))["setup_s"])
        _worker(
            ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            workdir,
        )
        with open(workdir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        setups.append(summary["setup_s"])
        labels, argvs = [0], []
        problems = checks.check_run(workload, _read_results(workdir / "results.jsonl", labels, argvs), seed)
        if trace:
            shutil.copy(workdir / "spans.jsonl", WORK / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = summary["latencies"]
    attempted = len(lat)
    failed = sum(1 for p in problems if p)
    result = {
        "workload": workload,
        "correct": not any(problems),
        "attempted": attempted,
        "failed": failed,
        "problems": [f"{' '.join(a)}: {'; '.join(p)}" for a, p in zip(argvs, problems) if p][:5],
        "rounds": summary["rounds"],
    }
    if trace:
        layer = {k: v * summary["time_scale"] for k, v in summary["layer_times"].items()}
        layer.update(summary["layer_counts"])
        round0 = [i for i, r in summary["request_round"].items() if r == 0]
        for kind, calls in summary["ops_round0"].items():
            layer[f"exactfield.ops.{kind}"] = calls
        layer["cli.report_bytes"] = sum(summary["report_bytes"][int(i)] for i in round0) / len(round0)
        assoc = summary["assoc_round0"]
        calls, algebras = (sum(v[k] for v in assoc.values()) for k in (0, 1))
        layer["gradedalg.assoc_calls_per_algebra"] = calls / algebras if algebras else 0.0
        result["assoc_by_command"] = {cmd: v[0] / v[1] for cmd, v in sorted(assoc.items()) if v[1]}
        layer["trace.overhead_pct"] = 100.0 * (summary["traced_round0_s"] / summary["untraced_round0_s"] - 1.0)
        result["metrics"] = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        result["spans"] = summary["spans"]
        result["traced"] = {
            "round_s": layer["round_s"],
            "assoc_share": layer["gradedalg.assoc_s"] / layer["round_s"],
        }
    else:
        raw = summary["raw_latencies"]
        busy, raw_busy = sum(lat), sum(raw)
        if workload == "real-census":
            # a round is the same nine classifications; a run serves one or
            # two rounds, so the percentiles are taken over the mean latency
            # of each group, which does not depend on how many rounds ran
            lat, raw = _mean_by_group(lat, argvs), _mean_by_group(raw, argvs)
        values = {
            "setup_s": statistics.median(setups),
            "requests_per_s": attempted / busy,
            "latency_p50_ms": 1000.0 * quantile(lat, 0.50),
            # real-census has nine groups, too few for a tail percentile;
            # its p95 is then mostly the slowest group, (4,2)
            "latency_p95_ms": 1000.0 * quantile(lat, 0.95),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        result["raw"] = {
            "latency_p50_ms": 1000.0 * quantile(raw, 0.50),
            "latency_p95_ms": 1000.0 * quantile(raw, 0.95),
            "busy_s": raw_busy,
            "speed_samples": summary["speed_samples"],
        }
        if workload == "real-census":
            result["labels_per_s"] = labels[0] / busy
    return result


def _mean_by_group(values: list[float], argvs: list[list[str]]) -> list[float]:
    groups: dict[str, list[float]] = {}
    for value, argv in zip(values, argvs):
        groups.setdefault(argv[argv.index("--group") + 1], []).append(value)
    return [statistics.fmean(v) for v in groups.values()]


def _print_result(result: dict) -> None:
    w = result["workload"]
    print(f"[{w}] attempted {result['attempted']} requests in {result['rounds']} rounds, failed {result['failed']}, correct {str(result['correct']).lower()}")
    for problem in result["problems"]:
        print(f"[{w}]   problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"[{w}]   {name:40s} {m['value']:>16.6g} {m['unit']}")
    for cmd, ratio in result.get("assoc_by_command", {}).items():
        print(f"[{w}]   {'assoc calls per algebra, ' + cmd + ' (not in the JSON)':40s} {ratio:>16.6g} calls/algebra")
    if "spans" in result:
        print(f"[{w}]   {'spans recorded (not in the JSON)':40s} {result['spans']:>16d} count")
    for name, value in result.get("traced", {}).items():
        print(f"[{w}]   {name + ' (traced, not in the JSON)':40s} {value:>16.6g}")
    for name, value in result.get("raw", {}).items():
        print(f"[{w}]   {name + ' (unscaled, not in the JSON)':40s} {value:>16.6g}")
    if "labels_per_s" in result:
        print(f"[{w}]   {'labels_per_s (not in the JSON)':40s} {result['labels_per_s']:>16.6g} 1/s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gradeddiv" / "cli.py").is_file():
        print(f"no gradeddiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    for result in results:
        _print_result(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
