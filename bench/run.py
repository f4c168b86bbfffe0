"""Checked benchmark for the hankelkit CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; hankelkit is imported from ``src/``.
One process is one closed-loop client: it calls ``hankelkit.cli.main`` in
process on JSON documents generated and written before timing starts, one
document at a time, in whole rounds over the workload's fixed document set,
and stops before a round that would take the measured CLI time past
``--seconds``.  Every output is checked (``checks.py``); the first output of
each document gets the full check, and a later output that is byte-identical
to an already checked one is accepted as such.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones: ``setup_s``, ``docs_per_s``,
``doc_p50_ms`` and ``peak_rss_mb``.  With ``--trace 1`` the run measures half
of ``--seconds`` untraced and half traced, and reports per document the call
count and self time of each traced function (``tracer.py``) plus the tracing
overhead.  Results and traces go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_LAUNCHES = 9
SETUP_CODE = "import hankelkit.cli; hankelkit.cli.build_parser()"

# On a host whose cores are shared, the speed of this process swings by a third
# or more for tens of seconds at a time.  A fixed computation of the benchmark's
# own (no hankelkit code) is timed between documents, at least every
# CALIBRATE_EVERY_S of CLI time, and every measured interval is scaled by
# CALIBRATION_REF_S over the mean calibration time on either side of it: times
# are reported in seconds at the speed where the calibration takes
# CALIBRATION_REF_S, which cancels the swings and leaves the program's own cost.
CALIBRATION_REF_S = 0.0035
CALIBRATE_EVERY_S = 0.25


class Speed:
    def __init__(self) -> None:
        rng = random.Random("calibration")
        self.matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(14)] for _ in range(14)]
        self.last = self.sample()

    def sample(self, reps: int = 3) -> float:
        """Median time of `reps` runs of the calibration computation."""
        times = []
        for _ in range(reps):
            start = perf_counter()
            checks.det(self.matrix)
            times.append(perf_counter() - start)
        return statistics.median(times)

    def factor(self, interval_s: float = 0.0) -> float:
        """Scale for the intervals measured since the previous call.

        Longer intervals get more calibration runs (one more per 0.1 s, up to
        15), since one scale applies to all of that interval's time.
        """
        current = self.sample(3 + min(12, int(interval_s / 0.1)))
        factor = CALIBRATION_REF_S / ((self.last + current) / 2)
        self.last = current
        return factor


def measure_setup(speed: Speed) -> float:
    """Median time from launching an interpreter to a built CLI parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def launch() -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return (perf_counter() - start) * speed.factor()

    launch()  # writes the bytecode caches, which a user pays once, not per invocation
    return statistics.median(launch() for _ in range(SETUP_LAUNCHES))


class Runner:
    """Runs documents through cli.main, times them and checks their outputs."""

    def __init__(self, cli, docs: list, doc_dir: Path, speed: Speed) -> None:
        self.cli = cli
        self.speed = speed
        self.docs = docs
        self.doc_dir = doc_dir
        self.paths: list[str] = []
        self.verified: dict[int, str] = {}  # doc index -> a checked output text
        self.wrong = 0
        self.incorrect: list[str] = []  # the first few checker messages
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str]) -> tuple[int | None, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                # Looked up per call so that the tracer's wrapper is the one called.
                code = self.cli.main(argv)
            except Exception:  # an exception escaping main is a failed document
                code = None
                err.write(traceback.format_exc(limit=2))
            elapsed = perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def check(self, index: int, text: str) -> bool:
        if self.verified.get(index) == text:
            return True
        doc = self.docs[index]
        try:
            doc.check(json.loads(text))
        except Exception as exc:  # any checker error means the output is wrong
            self.wrong += 1
            if len(self.incorrect) < 20:
                self.incorrect.append(f"{doc.label} {self.paths[index]}: {type(exc).__name__}: {exc}")
            return False
        self.verified[index] = text
        return True

    def prepare(self) -> None:
        """Write every document to disk; run (untimed) those whose outputs seed follow-ups."""
        docs, self.docs = self.docs, []
        for doc in docs:
            self._add(doc)
            if doc.followups is None:
                continue
            index = len(self.docs) - 1
            code, text, _, _ = self.call(doc.args + [self.paths[index]])
            if code == 0 and self.check(index, text):
                for followup in doc.followups(json.loads(text)):
                    self._add(followup)

    def _add(self, doc) -> None:
        path = self.doc_dir / f"{len(self.docs):03d}.json"
        path.write_text(json.dumps(doc.payload), encoding="utf-8")
        self.docs.append(doc)
        self.paths.append(str(path))

    def run_rounds(self, seconds: float, tracer=None) -> list[list[float]]:
        """Whole rounds until the next one would pass `seconds` of CLI time.

        Returns each document's latencies (in reference seconds), one per round;
        a failed document's latencies are kept too, so that failures count as
        missing any limit.
        """
        latencies: list[list[float]] = [[] for _ in self.docs]
        cli_time = 0.0
        while True:
            round_time = 0.0
            pending: list[tuple[int, float]] = []
            for index, doc in enumerate(self.docs):
                if tracer is not None:
                    tracer.request += 1
                code, text, err, elapsed = self.call(doc.args + [self.paths[index]])
                self.attempted += 1
                pending.append((index, elapsed))
                round_time += elapsed
                if code != 0:
                    self.failed += 1
                    if len(self.errors) < 20:
                        self.errors.append(f"{doc.label} {self.paths[index]}: exit {code}: {err.strip()[-300:]}")
                else:
                    self.check(index, text)
                block = sum(e for _, e in pending)
                if block >= CALIBRATE_EVERY_S or index == len(self.docs) - 1:
                    factor = self.speed.factor(block)
                    for i, e in pending:
                        latencies[i].append(e * factor)
                    pending = []
            cli_time += round_time
            if cli_time + round_time > seconds:
                return latencies


def build_docs(workload: str, seed: int) -> list:
    return workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    latencies = runner.run_rounds(seconds)
    # Per-document medians over rounds damp bursts of contention on a shared machine.
    per_doc = [statistics.median(times) for times in latencies]
    completed = (runner.attempted - runner.failed) / len(latencies[0])
    return {
        "setup_s": metric(setup_s, "s"),
        "docs_per_s": metric(completed / sum(per_doc), "1/s"),
        "doc_p50_ms": metric(statistics.median(per_doc) * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner: Runner, seconds: float, trace_path: Path) -> dict:
    plain = runner.run_rounds(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    traced = runner.run_rounds(seconds / 2, tracer)
    docs = sum(len(times) for times in traced)
    metrics = {}
    for name in tracing.traced_names():
        metrics[f"{name}.calls"] = metric(tracer.calls[name] / docs, "count")
        metrics[f"{name}.self_ms"] = metric(tracer.self_s[name] * 1e3 / docs, "ms")
    per_round = [sum(statistics.median(times) for times in run) for run in (plain, traced)]
    metrics["trace.overhead_pct"] = metric((per_round[1] / per_round[0] - 1) * 100, "%")
    trace_path.write_text(json.dumps({
        "fields": ["request", "span", "parent", "name", "start", "end"],
        "spans": tracer.spans,
        "dropped": tracer.dropped,
    }), encoding="utf-8")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hankelkit" / "cli.py").is_file():
        print(f"error: no hankelkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hankelkit.cli as cli

    speed = Speed()
    setup_s = measure_setup(speed) if args.trace == 0 else None
    docs = build_docs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc_dir = OUT_DIR / f"docs-{tag}-{os.getpid()}"
    doc_dir.mkdir(parents=True)
    try:
        runner = Runner(cli, docs, doc_dir, speed)
        runner.prepare()
        if args.trace == 0:
            metrics = end_to_end(runner, args.seconds, setup_s)
        else:
            metrics = per_layer(runner, args.seconds, OUT_DIR / f"trace-{tag}.json")
    finally:
        shutil.rmtree(doc_dir, ignore_errors=True)

    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    details = dict(result, documents=len(runner.docs), incorrect=runner.incorrect, errors=runner.errors)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(details, indent=2), encoding="utf-8")
    for message in details["incorrect"] + runner.errors:
        print(message, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
