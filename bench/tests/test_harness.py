"""Self-test of the benchmark harness, at a tiny size.

    python3 -m pytest bench/tests -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from cremona import verify  # noqa: E402


def tiny_round(workload: str, seed: int = 1):
    """A few cheap items that still reach every layer the workload measures."""
    if workload == "search":
        return workloads.search_round(seed, strata=((4, 3), (4, 5)), fixed=False)
    if workload == "fp_evidence":
        quotient = [it for it in workloads._quotient_items() if it.label.startswith("qfano")]
        return quotient + workloads.fp_round(seed, smooth_strata=((4, 0, 13), (4, 1, 13)),
                                             map_strata=((3, 3, 2, 3, 13),), fixed=False)
    strata = {"Q": ((5, 3, 4, 6),), "Q(zeta3)": ((5, 3, 4, 6),), "params": ((4, 3, 3, 4),)}
    return workloads._chain_items() + workloads.expand_round(seed, strata=strata, fixed=False)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_round_passes_its_checks(workload):
    items = tiny_round(workload)
    assert items
    for item in items:
        _, reason = run.run_one(item)
        assert reason is None, f"{item.label}: {reason}"


def test_rounds_depend_only_on_the_seed():
    for workload in run.WORKLOADS:
        if workload == "search":
            a, b, c = (workloads.search_round(s, strata=((4, 3), (5, 4))) for s in (3, 3, 4))
        else:
            a, b, c = (workloads.build_round(workload, s) for s in (3, 3, 4))
        assert a == b
        assert a != c


def test_end_to_end_metric_names_match_benchmark_json():
    spec = benchmark_json()
    metrics, attempted, failures, env = run.end_to_end(tiny_round("expand"), seconds=0.01)
    assert attempted >= 1 and not failures
    assert {n: u for n, (_, u) in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert 0 < env["item_p50_s"] <= env["item_p90_s"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_are_bound_and_repeat(workload):
    spec = benchmark_json()
    items = tiny_round(workload)
    first, _, failures, env = run.per_layer(workload, items)
    second, _, _, _ = run.per_layer(workload, items)
    assert not failures
    assert {n: u for n, (_, u) in first.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    # every count this workload is meant to move is nonzero, so each wrapper
    # is bound where the engine calls it ...
    assert env["zero_counts"] == [] and env["missing_targets"] == []
    # ... and counts repeat exactly for the same inputs
    counts = {n: v for n, (v, u) in first.items() if u == "count"}
    assert counts == {n: v for n, (v, u) in second.items() if u == "count"}
    # the tracer leaves the engine as it found it
    assert not hasattr(verify.eval_compiled, "__wrapped__")
    assert not hasattr(verify.fiber_histogram, "__wrapped__")


def test_spans_nest_within_their_item():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for k, item in enumerate(tiny_round("expand")[:4]):
            run.run_one(item, tracer, k)
    finally:
        tracer.uninstall()
    by_id = {span[0]: span for span in tracer.spans}
    assert by_id
    for span_id, parent, item, layer, _, start, dt in tracer.spans:
        if parent is None:
            assert layer == "bench"
            continue
        p = by_id[parent]
        assert p[2] == item
        assert p[5] <= start and start + dt <= p[5] + p[6] + 1e-6


def test_wrong_reference_counts_as_failure(monkeypatch, capsys):
    good = next(it for it in tiny_round("expand") if it.kind == "model")
    bad = dataclasses.replace(good, expect=not good.expect)
    assert run.run_one(good)[1] is None
    assert run.run_one(bad)[1] is not None

    monkeypatch.setattr(workloads, "build_round", lambda workload, seed: [good, bad])
    code = run.main(["--workload", "expand", "--seconds", "0.01", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_engine_it_exits_2_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "expand",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
