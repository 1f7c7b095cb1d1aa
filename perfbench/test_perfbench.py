"""Tests of the benchmark itself, not of qfano.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import types

import pytest

import run
from tracing import METRIC_UNITS, Target, Tracer

CLI = run.load_qfano()
with open(run.GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

COUNTS = [name for name, unit in METRIC_UNITS.items() if unit in ("count", "bytes")]


def test_percentiles_fall_in_the_intended_bands():
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 500) == 50
    assert run.percentile(samples, 900) == 90
    assert run.percentile([7.0], 900) == 7.0
    # a load-dominated read costs 1, a q9_4A solve about 3
    costs = [3.0 if argv == ("link", "solve", "q9_4A.case") else 1.0 for argv in run.QUERY_MIX]
    assert (run.percentile(costs, 500), run.percentile(costs, 900)) == (1.0, 3.0)


def test_mean_pass_takes_each_op_at_its_mean():
    a, b = ("a",), ("b",)
    timed = [(a, 5.0), (b, 1.0), (a, 4.0), (b, 2.0), (a, 3.0)]
    assert run.mean_pass([b, a, a], timed) == [1.5, 4.0, 4.0]


def test_reference_runs_its_share_and_scales_by_its_mean_unit():
    ref = run.Reference()
    ref.after(0.0)
    assert ref.units == 0
    ref.after(1.0)
    assert ref.seconds >= run.REF_SHARE * 1.0
    assert ref.owed <= 0
    assert ref.scale() == pytest.approx(run.REF_UNIT_S * ref.units / ref.seconds)


def test_pass_stops_at_its_deadline():
    fake = types.SimpleNamespace(main=lambda argv: print("x") or 0)
    golden = {"facts": run.digest("x\n")}
    latencies, failed = run.run_pass(fake, [("facts",)] * 3, "unused", golden, deadline=0.0)
    assert (latencies, failed) == ([], 0)
    latencies, failed = run.run_pass(fake, [("facts",)] * 3, "unused", golden)
    assert (len(latencies), failed) == (3, 0)


def _query_sequence(seed, passes):
    rng = random.Random(seed)
    return [op for _ in range(passes) for op in run.make_pass("query", rng)]


def test_same_seed_same_query_sequence():
    first = _query_sequence(7, 3)
    assert first == _query_sequence(7, 3)
    assert first != _query_sequence(8, 3)
    # the seed only orders a fixed multiset of reads
    per_pass = len(run.QUERY_MIX)
    assert sorted(first[:per_pass]) == sorted(_query_sequence(8, 1))


def test_parallel_jobs_never_exceed_cpus():
    assert 1 <= run.parallel_jobs() <= min(2, len(os.sched_getaffinity(0)))


def test_golden_covers_every_distinct_op():
    keys = {run.golden_key(argv) for argv in run.distinct_ops()}
    assert keys | {"candidates"} == set(GOLDEN)


@pytest.mark.parametrize(
    "main, golden",
    [
        (lambda argv: 1 // 0, {}),  # exception
        (lambda argv: 3, {}),  # nonzero exit
        (lambda argv: print("x") or 0, {"facts": run.digest("y\n")}),  # digest mismatch
    ],
)
def test_failures_are_counted(main, golden):
    fake = types.SimpleNamespace(main=main)
    latencies, failed = run.run_pass(fake, [("facts",)], "unused", golden)
    assert (len(latencies), failed) == (1, 1)


def test_enumerate_that_writes_no_database_fails(tmp_path):
    """A database left by an earlier op must not pass for a later op's output."""
    db_path = tmp_path / "stale.json"
    db_path.write_text(json.dumps({"candidates": []}), encoding="utf-8")
    argv = ("enumerate", "--all", "--db", run.DB, "--jobs", "1")
    golden = {run.golden_key(argv): run.digest("summary\n"),
              "candidates": run.candidates_digest(str(db_path))}
    fake = types.SimpleNamespace(main=lambda argv: print("summary") or 0)
    latencies, failed = run.run_pass(fake, [argv], str(db_path), golden)
    assert (len(latencies), failed) == (1, 1)


def test_self_time_subtracts_direct_children():
    tracer = Tracer(targets=())
    tracer.spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 5.0, 6.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
    ]
    assert tracer.self_time("a") == pytest.approx(6.0)
    assert tracer.self_time("b") == pytest.approx(2.0 + 1.0)


def _qfano_bindings():
    bindings = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.split(".")[0] == "qfano"
        for attr, value in vars(module).items()
    }
    candidate = sys.modules["qfano.enumeration"].Candidate
    bindings[("Candidate", "from_parts")] = candidate.__dict__["from_parts"]
    return bindings


def _assert_restored(before):
    after = _qfano_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_wrappers_restored_after_traced_pass(tmp_path):
    before = _qfano_bindings()
    ops = [("link", "solve", "q6_basket7.case", "--db", "missing.json")]
    with Tracer() as tracer:
        assert CLI.main.__name__ == "span"
        run.run_pass(CLI, ops, str(tmp_path / "missing.json"), GOLDEN, tracer)
    _assert_restored(before)
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    _assert_restored(before)


def test_missing_or_uncalled_layers_read_zero():
    targets = (
        Target("qfano.enumeration", "no_such_function"),
        Target("qfano.no_such_module", "anything"),
        Target("qfano.enumeration", "NoSuchClass.method"),
        Target("qfano.links", "solve", result_metrics=(("links.solutions", "sum"),)),
    )
    with Tracer(targets) as tracer:
        pass
    assert sorted(tracer.absent) == [
        "enumeration.NoSuchClass.method",
        "enumeration.no_such_function",
        "no_such_module.anything",
    ]
    metrics = tracer.metrics()
    assert set(metrics) == set(METRIC_UNITS) - {"trace_overhead_ratio"}
    assert metrics["links.solve.s"] == 0
    assert metrics["links.solutions"] == 0
    assert metrics["enumeration.survivor_ratio"] == 0


@pytest.fixture(scope="module")
def traced_builds(tmp_path_factory):
    """Two traced serial builds of the full database."""
    db_path = str(tmp_path_factory.mktemp("db") / "candidates.json")
    runs = []
    for _ in range(2):
        ops = run.make_pass("build", random.Random(0))
        with Tracer() as tracer:
            _, failed = run.run_pass(CLI, ops, db_path, GOLDEN, tracer)
        assert failed == 0
        runs.append(tracer.metrics())
    return db_path, runs


def test_traced_build_counts(traced_builds):
    _, (first, second) = traced_builds
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["enumeration.baskets"] == 49_587
    assert first["enumeration.degree_candidates.calls"] == 49_587
    assert first["enumeration.degrees"] == 173_646
    assert first["enumeration.survivors"] == 472
    assert first["enumeration.Candidate.from_parts.calls"] == 472
    assert first["riemann_roch.chi.calls"] == 2_406
    assert first["store.db_bytes"] == 205_823
    assert first["links.solutions"] == 0
    assert first["cli.self_s"] > 0 and first["enumeration.scan.self_s"] > 0


@pytest.mark.parametrize(
    "case, solutions",
    [("q9_4A.case", 24), ("q6_basket7.case", 0), ("q8_basket_3_9.case", 0)],
)
def test_traced_link_solutions(traced_builds, case, solutions):
    db_path, _ = traced_builds
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            _, failed = run.run_pass(CLI, [("link", "solve", case, "--db", run.DB)],
                                     db_path, GOLDEN, tracer)
        assert failed == 0
        runs.append({k: tracer.metrics()[k] for k in COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["links.solutions"] == solutions
    # one database load re-verifies every candidate
    assert runs[0]["enumeration.Candidate.from_parts.calls"] == 472
