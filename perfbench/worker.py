"""One workload run: a closed loop with one client, in its own process.

The client calls ``gradeddiv.cli.main(argv)`` in-process with stdout
captured, so a latency is what a command-line caller waits for, less the
interpreter start-up.  The next request is sent only when the previous one
has returned.  Whole rounds are run until ``--seconds`` have passed (and,
for the streams, until enough requests for a p95 are done).  Every report
goes, with the request that produced it, to ``results.jsonl`` in the work
directory; the checks read them from there after the process ends.

Times are reported at a reference machine speed.  The host is shared, and
the same code was measured to run up to twice as slow from one minute to
the next.  So the client times a fixed calibration loop of pure-Python
exact arithmetic between requests and, through an interval timer, inside
long ones (see SpeedProbe), and scales each request's time by CAL_REF_S
over the loop's time around it.  A change to the program moves the scaled
time; a change in machine speed moves program and loop alike and cancels.

With ``--trace 1`` the run serves round 0 untraced, then installs the tracer
and runs its rounds traced, then serves round 0 untraced once more; the
traced round 0 against the faster untraced one gives the tracing overhead.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0 --workdir DIR
    python3 perfbench/worker.py --workload W --setup-only --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CAL_REF_S = 0.001  # the calibration loop's time at the reference speed
SPEED_SAMPLE_EVERY_S = 0.05


def calibrate() -> float:
    """Seconds a fixed loop of Fraction arithmetic and dict stores takes now."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(130):
        f = Fraction(i % 7 + 1, i % 5 + 1)
        acc += f * f
        table[(i % 13, i % 11)] = acc
    return time.perf_counter() - start


def speed_sample() -> float:
    return statistics.median(calibrate() for _ in range(5))


class SpeedProbe:
    """Calibration samples between requests, and inside long ones.

    Between requests a sample is taken when SPEED_SAMPLE_EVERY_S has passed
    since the last.  During a request an interval timer interrupts it every
    SPEED_SAMPLE_EVERY_S to run the loop once; the time those runs take is
    taken off the request's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")
        self.inside: list[float] = []
        self.inside_s = 0.0

    def sample(self) -> None:
        self.samples.append(speed_sample())
        self.last = time.perf_counter()

    def before_request(self) -> int:
        """Index of the sample that precedes the next request."""
        if time.perf_counter() - self.last >= SPEED_SAMPLE_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.inside.append(calibrate())
        self.inside_s += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        self.inside, self.inside_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SPEED_SAMPLE_EVERY_S, SPEED_SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, idx: int, inside: list[float]) -> float:
        """CAL_REF_S over the machine's speed during a request: the loop's
        mean time inside it (the mean, not the median, since the request's
        duration adds up the slow and the fast stretches alike), or, for a
        request too short to be sampled, the mean of the samples just before
        and just after it."""
        if len(inside) >= 3:
            return CAL_REF_S / statistics.fmean(inside)
        after = self.samples[min(idx + 1, len(self.samples) - 1)]
        return CAL_REF_S / ((self.samples[idx] + after) / 2)


def serve(cli, argv, probe: SpeedProbe | None = None) -> tuple[int | None, float, str, str | None, list[float]]:
    """(exit code or None on a crash, seconds, stdout, traceback, in-request
    calibration times).  With a probe, the seconds exclude its sampling."""
    buf = io.StringIO()
    error = None
    with probe.sampling() if probe is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # a crash is a failed request; keep serving the rest
            code = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    if probe is None:
        return code, elapsed, buf.getvalue(), error, []
    return code, elapsed - probe.inside_s, buf.getvalue(), error, probe.inside


def prepare(req: dict, workdir: Path) -> None:
    for name, obj in req.get("write", {}).items():
        with open(workdir / name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    if "derive" in req:
        workloads.derive(req["derive"], workdir)


class Client:
    def __init__(self, cli, workload: str, seed: int, workdir: Path, results, sample_inside: bool):
        self.cli = cli
        self.sample_inside = sample_inside
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.results = results
        self.probe = SpeedProbe()
        # (seconds, preceding speed sample, in-request calibration times) per recorded request
        self.timed: list[tuple[float, int, list[float]]] = []
        self.report_bytes: list[int] = []
        self.request_round: dict[int, int] = {}
        # round 0, per command: [associativity oracle calls, distinct algebras]
        self.assoc_round0: dict[str, list[int]] = {}

    def run_round(self, r: int, tracer=None, record: bool = True) -> list[tuple[float, int, list[float]]]:
        """Serve round r; returns the timing entries of its requests."""
        timed = []
        for req in workloads.make_round(self.workload, self.seed, r):
            prepare(req, self.workdir)
            rid = len(self.request_round)
            sample = self.probe.before_request()
            if tracer is not None:
                tracer.begin_request(rid)
            code, dt, out, error, inside = serve(self.cli, req["argv"], self.probe if self.sample_inside else None)
            assoc = tracer.end_request() if tracer is not None else None
            timed.append((dt, sample, inside))
            if not record:
                continue
            self.request_round[rid] = r
            if assoc is not None and r == 0:
                acc = self.assoc_round0.setdefault(req["argv"][0], [0, 0])
                acc[0] += assoc[0]
                acc[1] += assoc[1]
            self.timed.append((dt, sample, inside))
            self.report_bytes.append(len(out.encode()))
            meta = {k: v for k, v in req.items() if k != "write"}
            meta.update(id=rid, round=r, code=code, seconds=dt, error=error)
            self.results.write(json.dumps(meta) + "\n")
            self.results.write(out if out.endswith("\n") else "null\n")
        return timed

    def scaled(self, timed) -> list[float]:
        return [dt * self.probe.scale(idx, inside) for dt, idx, inside in timed]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)

    # set-up: import the program from this checkout and serve one warm-up request
    speed_before = speed_sample()
    setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gradeddiv.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "gradeddiv":
        print(f"imported gradeddiv from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    warm = workloads.WARMUP[args.workload]
    prepare(warm, workdir)
    with contextlib.chdir(workdir):
        code, _, _, error, _ = serve(cli, warm["argv"])
    setup_s = (time.perf_counter() - setup_start) * CAL_REF_S / ((speed_before + speed_sample()) / 2)
    if code != 0:
        print(f"warm-up request failed with exit code {code}\n{error or ''}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    summary: dict = {"setup_s": setup_s}
    stream = args.workload != "real-census"
    with open(workdir / "results.jsonl", "w", encoding="utf-8") as results, contextlib.chdir(workdir):
        # a traced run samples the machine's speed between requests only, so
        # that no calibration time lands in spans and traced and untraced
        # rounds are scaled alike
        client = Client(cli, args.workload, args.seed, workdir, results, sample_inside=not args.trace)
        tracer = None
        if args.trace:
            untraced = [client.run_round(0, record=False)]
            tracer = tracing.Tracer()
            tracer.install()
            ops_before = dict(tracer.ops)
            first_traced_sample = len(client.probe.samples)
        start = time.perf_counter()
        rounds = []
        while True:
            rounds.append(client.run_round(len(rounds), tracer))
            if tracer is not None and len(rounds) == 1:
                summary["ops_round0"] = {k: tracer.ops[k] - ops_before[k] for k in tracer.ops}
            if time.perf_counter() - start >= args.seconds and (not stream or len(client.timed) >= workloads.MIN_STREAM_REQUESTS):
                break
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            traced_samples = client.probe.samples[first_traced_sample:]
            untraced.append(client.run_round(0, record=False))
            client.probe.sample()
            # per-layer times are scaled by the machine speed over the traced rounds
            summary["time_scale"] = CAL_REF_S / statistics.median(traced_samples)
            summary["layer_times"], summary["layer_counts"] = tracing.layer_metrics(
                tracer.spans, client.request_round, len(rounds)
            )
            summary["untraced_round0_s"] = min(sum(client.scaled(t)) for t in untraced)
            summary["traced_round0_s"] = sum(client.scaled(rounds[0]))
            summary["spans"] = len(tracer.spans)
            summary["assoc_round0"] = client.assoc_round0
            tracer.write(workdir / "spans.jsonl")
        else:
            client.probe.sample()
    summary.update(
        rounds=len(rounds),
        latencies=client.scaled(client.timed),
        raw_latencies=[dt for dt, _, _ in client.timed],
        speed_samples=len(client.probe.samples),
        report_bytes=client.report_bytes,
        request_round={str(k): v for k, v in client.request_round.items()},
    )
    with open(workdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
