"""Self-tests of the benchmark's input generator and result checks.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import boolform as bf  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import run_batch  # noqa: E402
from boolform import ModelId  # noqa: E402

EXPECTED = workloads.load_expected()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for seed in range(20):
        assert (workloads.make_inputs(workload, seed)
                == workloads.make_inputs(workload, seed))
    drawn = {json.dumps(workloads.make_inputs(workload, seed), sort_keys=True)
             for seed in range(20)}
    assert len(drawn) > 1


def test_workload_lists_agree():
    assert run.WORKLOADS == workloads.WORKLOADS


def test_oracle_sizes_in_tree_band():
    lo, hi = workloads.ORACLE_TREE_BAND
    for model, sizes in workloads.ORACLE_SIZES.items():
        for m, n in sizes:
            assert lo <= bf.count_trees(model, m, n) <= hi, (model, m, n)


def test_oracle_functions_small_and_recorded():
    for text in workloads.ORACLE_FUNCTIONS:
        assert bf.BoolFunc.from_string(text).n <= 3
        for model in ModelId:
            L = EXPECTED["oracle"][text][model.value]["L"]
            assert 1 <= L <= 4
            if text in workloads.ORACLE_FUNCTIONS_L4:
                assert L == 4


def test_every_drawable_report_is_recorded():
    for model in ModelId:
        recorded = EXPECTED["asymptotic"][model.value]
        assert set(recorded) == {str(n) for n in workloads.ASYMPTOTIC_N_GRID}


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == spans.PER_LAYER_UNITS)


# ---------------------------------------------------------------------------
# a deliberately corrupted result is counted as failed


def _with_outputs(batch, outputs):
    """The same jobs and checks, returning the given outputs instead."""
    return [dataclasses.replace(job, run=lambda out=out: out)
            for job, out in zip(batch, outputs)]


def _assert_each_corruption_fails(batch, outputs, corruptions):
    assert run_batch(_with_outputs(batch, outputs))["failed"] == 0
    for index, corrupt in corruptions:
        bad = list(outputs)
        bad[index] = corrupt(copy.deepcopy(outputs[index]))
        result = run_batch(_with_outputs(batch, bad))
        assert result["failed"] == 1, (batch[index].name, result)
        assert result["failures"][0]["job"] == batch[index].name


def test_corrupted_exact_results_fail():
    inputs = {"jobs": [{"model": "assoccomm", "n": 2}]}
    batch = workloads.jobs("exact", inputs, EXPECTED)
    outputs = [job.run() for job in batch]

    def wrong_coefficient(res):
        base, g, st, sanity = res
        coeffs = list(base.coeffs)
        coeffs[3] += 1
        return bf.PowerSeries(coeffs), g, st, sanity

    def bad_residual(res):
        base, g, st, sanity = res
        return base, g, st, dataclasses.replace(sanity, max_discrepancy=1)

    def dropped_function(dist):
        dist.counts.popitem()
        return dist

    _assert_each_corruption_fails(batch, outputs, [
        (0, wrong_coefficient), (0, bad_residual), (1, dropped_function),
        (2, dropped_function), (3, lambda count: count + 1)])


def test_corrupted_oracle_results_fail():
    inputs = {"models": [{"model": "comm", "size": [3, 2],
                          "functions": ["n:2:6", "n:2:8"]}],
              "cli": [{"model": "assoc", "fn": "n:2:8"}]}
    batch = workloads.jobs("oracle", inputs, EXPECTED)
    # the lemma job's size is the workload's; a smaller one checks the same
    batch[1] = dataclasses.replace(
        batch[1], run=lambda: bf.verify_pattern_lemmas(ModelId.COMM, 4, 2))
    outputs = [job.run() for job in batch]

    def moved_count(res):
        generated, dp = res
        f = next(iter(generated.counts))
        generated.counts[f] += 1
        return generated, dp

    def counterexample(rep):
        rep.counterexamples.append(("injected", None, 0))
        return rep

    def wrong_tally(res):
        ts, tally = res
        return ts, dataclasses.replace(tally, lambda_T=tally.lambda_T + 1)

    def wrong_tree(res):
        ts, tally = res
        other = bf.parse_tree("x1", ts.model)
        return dataclasses.replace(ts, trees=ts.trees[:-1] + [other]), tally

    _assert_each_corruption_fails(batch, outputs, [
        (0, moved_count), (1, counterexample), (2, wrong_tally),
        (3, wrong_tree), (4, lambda res: (1, res[1])),
        (4, lambda res: (0, res[1][:-5])),
        (4, lambda res: (0, res[1].replace('"M": 2', '"M": 3')))])


def test_corrupted_asymptotic_results_fail():
    n = workloads.ASYMPTOTIC_N_GRID[0]
    inputs = {"jobs": [{"model": model, "n": n}
                       for model in ("catalan", "assoc")]}
    batch = workloads.jobs("asymptotic", inputs, EXPECTED)
    outputs = [job.run() for job in batch]

    def last_digit(rep):
        digits = rep["ratios"]["literal_const"]
        rep["ratios"]["literal_const"] = digits[:-1] + (
            "1" if digits[-1] != "1" else "2")
        return rep

    _assert_each_corruption_fails(batch, outputs, [(0, last_digit),
                                                   (1, last_digit)])


def test_raising_job_counts_as_failed():
    def boom():
        raise bf.NumericError("injected")

    job = workloads.Job("boom", boom, lambda out: None)
    result = run_batch([job])
    assert (result["attempted"], result["failed"]) == (1, 1)


# ---------------------------------------------------------------------------
# host-speed scaling


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_probe_accounts_for_its_samples():
    start = time.perf_counter()
    with hostspeed.SpeedProbe(0.01) as probe:
        _busy(0.3)
    elapsed = time.perf_counter() - start
    assert len(probe.samples) >= 5
    assert probe.sampling_s == pytest.approx(sum(probe.samples))
    # the body's time without the samples, to within the enter/exit calls
    assert probe.measured_s == pytest.approx(elapsed - probe.sampling_s,
                                             abs=0.01)
    # every stretch is scaled by REFERENCE_S over a sample's reference time
    lo = hostspeed.REFERENCE_S / max(probe.samples)
    hi = hostspeed.REFERENCE_S / min(probe.samples)
    assert lo <= probe.factor <= hi
    assert probe.scaled_s == pytest.approx(probe.measured_s * probe.factor)


def test_untraced_batch_reports_scaled_and_measured_times():
    job = workloads.Job("busy", lambda: _busy(0.2), lambda out: None)
    result = run_batch([job])
    assert result["measured_wall_s"] == pytest.approx(0.2, abs=0.05)
    assert result["wall_s"] == pytest.approx(
        result["measured_wall_s"] * result["host_factor"])
    assert result["cpu_s"] == pytest.approx(
        result["measured_cpu_s"] * result["host_factor"])
