#!/usr/bin/env python3
"""The qfano benchmark: one workload per run, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 7 --seconds 30 --trace 0

The benchmark drives the CLI in process through ``qfano.cli.main(argv)``
with stdout captured, checks every output against ``golden.json``, and
prints as its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
``tracing.py``.  The line before it records the machine and the run.

Every timing is given in *reference seconds*: the measured seconds scaled by
how fast a fixed pure-Python reference loop, run between the ops, ran in the
same run (``REF_UNIT_S`` over its measured time).  The shared machine the
benchmark was written on at times runs everything up to twice as slowly, for
minutes on end.  The scaling takes that out, while a change to qfano leaves
the reference as it is.  The run record holds the measured figures too.
DESIGN.md explains the workloads and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = ("build", "filter-diff", "query")

#: Placeholder for the database path in an argv and in the golden keys.
DB = "DB"

#: One pass of the query workload; the seed only shuffles its order.
#: 16 of 20 reads (80%) cost about one database load and re-verification
#: each, so p50 (the 10th of 20) falls among them.  4 of 20 (20%) are the
#: q9_4A link solve, about three times slower, so p90 (the 18th of 20) is
#: inside that band.
QUERY_MIX: tuple[tuple[str, ...], ...] = (
    *(("table", "--case", f"q{q}") for q in range(3, 9)),
    ("facts",),
    ("export", "--format", "csv"),
    ("export", "--format", "json"),
    ("export", "--format", "table"),
    ("wps", "check", "--weights", "1,2,3,4,5", "--degree", "6"),
    ("wps", "check", "--weights", "1,1,2,3,5", "--degree", "6"),
    ("wps", "check", "--weights", "1,1,1,2"),
    ("wps", "check", "--weights", "1,2,3,5"),
    ("link", "solve", "q6_basket7.case"),
    ("link", "solve", "q8_basket_3_9.case"),
    *(("link", "solve", "q9_4A.case"),) * 4,
)

#: The filter flags ``diff`` flips.  A filter-diff pass makes one op per flag,
#: the work of ``diff --q 5``, so that each flip is timed on its own.  At
#: q = 5 a pass takes about 5 s, so each op runs about six times in 30 s.
FILTER_Q = "5"
FILTER_FLAGS = ("degree_cap_enforced", "enforce_vanishing", "bm_inequality", "nonnegativity")

#: Fresh interpreters started by the set-up: many for a bare import, which
#: takes about 0.1 s, and few for the query set-up, a parallel build.
SET_UP_IMPORTS = 15
SET_UP_BUILDS = 3

#: After each op the reference loop runs for about this share of the op's time.
REF_SHARE = 0.15
#: The reference unit's seed and its nominal time: a timing of t seconds in
#: a run whose units took r seconds on average is reported as
#: t * REF_UNIT_S / r.  An import-only set-up is scaled the same way by a
#: bare interpreter start and its nominal time, BARE_START_S.  Both nominal
#: times are what the 2-vCPU Xeon VM the benchmark was written on took in a
#: calm stretch, so a scaled time reads as seconds on that machine.
REF_SEED = 1
REF_UNIT_S = 0.04
BARE_START_S = 0.05

SET_UP_CODE = (
    "import sys\n"
    "from qfano.cli import main\n"
    "sys.exit(main(sys.argv[1:]) if len(sys.argv) > 1 else 0)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# statistics


def percentile(samples: Sequence[float], per_mille: int) -> float:
    """Nearest-rank percentile, ``per_mille`` in thousandths."""
    rank = max(1, -(-per_mille * len(samples) // 1000))
    return sorted(samples)[rank - 1]


def mean_pass(
    pass_ops: Sequence[tuple[str, ...]], timed: Sequence[tuple[tuple[str, ...], float]]
) -> list[float]:
    """The latencies of ``pass_ops``, each the mean of that op's ``(argv, latency)``
    pairs in ``timed``."""
    runs: dict[tuple[str, ...], list[float]] = {}
    for argv, latency in timed:
        runs.setdefault(argv, []).append(latency)
    return [sum(runs[argv]) / len(runs[argv]) for argv in pass_ops]


def reference_work() -> int:
    """One unit of the reference loop, about 40 ms: integer arithmetic, then
    dict, tuple and ``Fraction`` work of the kind qfano does, then a table with
    scattered keys.  It runs none of qfano's code.  Parts that lean on the core,
    on the allocator and on the caches each follow a busy machine a little
    differently, so together they follow it better than any one of them."""
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    table: dict[tuple[int, int, int], int] = {}
    total = Fraction(0)
    for i in range(1, 5_000):
        key = (i % 53, i % 47, i % 7)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 13 + 1, i % 11 + 2)
    rng = random.Random(REF_SEED)
    scattered = {(rng.randrange(10**6), i): Fraction(i, 7 + i % 13) for i in range(12_000)}
    return acc + len(table) + total.denominator + sum(key[0] % 3 == 0 for key in scattered)


class Reference:
    """Interleaves reference units with the measured work and gives the scale
    from measured seconds to reference seconds."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.units = 0
        self.owed = 0.0

    def after(self, busy: float) -> None:
        """Run reference units for about ``REF_SHARE`` of ``busy`` seconds,
        carrying the remainder over to the next call."""
        self.owed += REF_SHARE * busy
        while self.owed > 0:
            start = perf_counter()
            reference_work()
            elapsed = perf_counter() - start
            self.seconds += elapsed
            self.units += 1
            self.owed -= elapsed

    def scale(self) -> float:
        return REF_UNIT_S * self.units / self.seconds


# ---------------------------------------------------------------------------
# workloads


def parallel_jobs() -> int:
    """Workers for the parallel build: two, but never more than the usable CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


def make_pass(workload: str, rng: random.Random) -> list[tuple[str, ...]]:
    """The CLI invocations of one pass, with ``DB`` standing for the database."""
    if workload == "build":
        return [("enumerate", "--all", "--db", DB, "--jobs", "1")]
    if workload == "filter-diff":
        return [("diff", "--q", FILTER_Q, "--flag", flag) for flag in FILTER_FLAGS]
    ops = [argv + ("--db", DB) for argv in QUERY_MIX]
    rng.shuffle(ops)
    return ops


def golden_key(argv: Sequence[str]) -> str:
    """The argv with ``--jobs N`` dropped: output may not depend on it."""
    out: list[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--jobs":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def distinct_ops() -> list[tuple[str, ...]]:
    """Every distinct invocation any workload makes (one per golden key)."""
    ops = make_pass("build", random.Random(0)) + make_pass("filter-diff", random.Random(0))
    ops += [argv + ("--db", DB) for argv in dict.fromkeys(QUERY_MIX)]
    return ops


# ---------------------------------------------------------------------------
# running and checking


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def candidates_digest(db_path: str) -> str:
    """Digest of the database's ``candidates`` array, independent of layout."""
    with open(db_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return digest(json.dumps(doc["candidates"], sort_keys=True, separators=(",", ":")))


def run_op(cli, argv: Sequence[str], db_path: str) -> tuple[float, str | None]:
    """Run one CLI invocation; return its latency and stdout (``None`` on failure).

    ``cli.main`` is looked up on every call so that a traced pass reaches the
    wrapper the tracer put there."""
    real = [db_path if arg == DB else arg for arg in argv]
    if argv[0] == "enumerate":
        # a database left by an earlier op must not pass for this op's output
        Path(db_path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(real)
    except Exception:
        elapsed = perf_counter() - start
        print(f"perfbench: {' '.join(argv)} raised:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, None
    elapsed = perf_counter() - start
    if code != 0:
        print(f"perfbench: {' '.join(argv)} exited {code}: {err.getvalue().strip()}",
              file=sys.stderr)
        return elapsed, None
    return elapsed, out.getvalue().replace(db_path, DB)


def output_ok(argv: Sequence[str], stdout: str | None, db_path: str, golden: dict) -> bool:
    """Compare an invocation's stdout (and a written database) with the golden digests."""
    if stdout is None:
        return False
    key = golden_key(argv)
    if digest(stdout) != golden.get(key):
        print(f"perfbench: output of {key!r} differs from golden.json", file=sys.stderr)
        return False
    if argv[0] == "enumerate":
        try:
            candidates = candidates_digest(db_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"perfbench: {key!r} wrote no readable database: {exc!r}", file=sys.stderr)
            return False
        if candidates != golden["candidates"]:
            print("perfbench: database candidates differ from golden.json", file=sys.stderr)
            return False
    return True


def set_up(workload: str, db_path: str, golden: dict) -> tuple[list[float], list[float], int]:
    """Start fresh interpreters that import the CLI; for ``query`` each also builds
    the database the reads use, in parallel.

    An import is scaled by a bare interpreter start made just before it, a
    build by reference units run after it.  Returns the scaled times, the
    measured times and the number of processes that failed."""
    argv = ()
    if workload == "query":
        argv = ("enumerate", "--all", "--db", DB, "--jobs", str(parallel_jobs()))
    reps = SET_UP_BUILDS if argv else SET_UP_IMPORTS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    real = [db_path if arg == DB else arg for arg in argv]
    scaled, times, failed = [], [], 0
    for _ in range(reps):
        Path(db_path).unlink(missing_ok=True)
        if not argv:
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=170)
            bare = perf_counter() - start
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SET_UP_CODE, *real],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        times.append(perf_counter() - start)
        if argv:
            ref = Reference()
            ref.after(times[-1])
            scaled.append(times[-1] * ref.scale())
        else:
            scaled.append(times[-1] * BARE_START_S / bare)
        if proc.returncode != 0:
            print(f"perfbench: set-up exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            failed += 1
        elif argv and not output_ok(argv, proc.stdout.replace(db_path, DB), db_path, golden):
            failed += 1
    return scaled, times, failed


def run_pass(
    cli, ops: Sequence[tuple[str, ...]], db_path: str, golden: dict,
    tracer=None, ref: Reference | None = None, deadline: float | None = None,
) -> tuple[list[float], int]:
    """Run the invocations of one pass in order; return latencies and failures.

    ``ref`` runs after each op.  At ``deadline`` (a ``perf_counter`` time) the
    pass stops early, so it may return fewer latencies than ``ops``."""
    latencies, failed = [], 0
    for op_id, argv in enumerate(ops):
        if deadline is not None and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.op = op_id
        elapsed, stdout = run_op(cli, argv, db_path)
        latencies.append(elapsed)
        if not output_ok(argv, stdout, db_path, golden):
            failed += 1
        if ref is not None:
            ref.after(elapsed)
    return latencies, failed


# ---------------------------------------------------------------------------
# the run


def machine_record() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def load_qfano():
    """Import the CLI module from the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("qfano.cli")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure for ``seconds`` and return the result object."""
    from tracing import METRIC_UNITS, Tracer, median_metrics

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              **machine_record(), "loadavg_start": list(os.getloadavg())}
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    WORK.mkdir(exist_ok=True)
    db_path = str(WORK / f"{workload}.json")
    spans_path = WORK / f"spans-{workload}.jsonl"
    if workload == "query":
        record["set_up_jobs"] = parallel_jobs()
        if record["set_up_jobs"] < 2:
            print("perfbench: one CPU available, so the query set-up builds with "
                  "--jobs 1 and no parallel build is measured", file=sys.stderr)

    setup_times, measured_setup, failed = set_up(workload, db_path, golden)
    attempted = len(setup_times)
    cli = load_qfano()
    rng = random.Random(seed)
    pass_ops = make_pass(workload, rng)
    ops = pass_ops
    plain: list[tuple[tuple[str, ...], float]] = []
    traced: list[tuple[tuple[str, ...], float]] = []
    tracers: list[Tracer] = []
    ref = Reference()
    passes = 0
    start = perf_counter()
    while True:
        # after the first whole pass an untraced pass stops at the deadline
        deadline = start + seconds if passes and not trace else None
        latencies, bad = run_pass(cli, ops, db_path, golden, ref=ref, deadline=deadline)
        plain += zip(ops, latencies)
        attempted, failed = attempted + len(latencies), failed + bad
        passes += len(latencies) == len(ops)
        if trace:
            with Tracer() as tracer:
                latencies, bad = run_pass(cli, ops, db_path, golden, tracer)
            tracers.append(tracer)
            traced += zip(ops, latencies)
            attempted, failed = attempted + len(ops), failed + bad
        if perf_counter() - start >= seconds:
            break
        ops = make_pass(workload, rng)

    measured = mean_pass(pass_ops, plain)
    scale = ref.scale()
    record.update(passes=passes, ops=len(plain), loadavg_end=list(os.getloadavg()),
                  scale=scale, measured_wall_s=sum(measured),
                  measured_setup_s=statistics.median(measured_setup))
    if trace:
        values = median_metrics([t.metrics() for t in tracers])
        values["trace_overhead_ratio"] = sum(mean_pass(pass_ops, traced)) / sum(measured)
        units = METRIC_UNITS
        record["absent_layers"] = sorted(set(tracers[0].absent))
        spans_path.unlink(missing_ok=True)
        for i, tracer in enumerate(tracers):
            tracer.write_spans(spans_path, f"pass{i}")
    else:
        pass_s = [latency * scale for latency in measured]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(pass_s),
            "op_p50_ms": percentile(pass_s, 500) * 1000,
            "op_p90_ms": percentile(pass_s, 900) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    print(json.dumps({"run": record}))
    for name, value in values.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}", file=sys.stderr)
    print(f"failed {failed} of {attempted} operations", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfano" / "cli.py").is_file():
        print(f"perfbench: no qfano sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
