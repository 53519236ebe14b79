"""Workload inputs, the jobs that run them, and the checks on every result.

Inputs are plain data made from (workload, seed) alone; `jobs()` turns them
into calls into boolform's public functions. Jobs look functions up on the
package at call time, so a tracer installed after import sees them. Checks run
after the timed batch and return None for a correct result or a short reason.

Why each workload exists (ROADMAP open items 2-4 each target one module):

- asymptotic: singularity analysis at 256 bits and order 64. Nearly all the
  time goes to the `assoccomm` branch point and ratio ladder, the rest to the
  `comm` series solve and evaluation; exhaustive, patterns and complexity do
  no work. It exercises the singular layer (item 2) and uses series only as
  order-64, large-n input to the evaluators.
- exact: exact power series at small n (drawn from 2..8) plus the
  truth-table DP at m = 9 and 10 and the classifier DP at m = 12. Series
  solving dominates; singular does no work. It exercises the series solver
  (item 3) with many small-n solves, a different use of series from
  `asymptotic`.
- oracle: tree generation against the DP, pattern lemmas, the complexity
  search and expansions, and the CLI. Series and singular do almost no work
  (the plane models have closed-form singularities). It exercises item 4 and
  bypasses items 2 and 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import mpmath as mp

import boolform as bf
import boolform.cli as bf_cli
from boolform import ModelId

PRECISION = 256
ORDER = 64
WORKLOADS = ("asymptotic", "exact", "oracle")

# asymptotic: n is drawn from a grid so that every drawable report has
# digits recorded in expected.json. The grid starts at 250 because the
# assoccomm branch point costs about 20% more at n = 150 than at n = 350,
# which would make the work depend on the seed.
ASYMPTOTIC_N_GRID = tuple(range(250, 401, 25))

# exact
EXACT_N = (2, 8)
# both sizes every time: assoccomm's DP costs 1.8x more at m = 10 than at 9
EXACT_DIST_M = (9, 10)
EXACT_DIST_VARS = 3
EXACT_CLASSIFIER_M = 12
EXACT_COUNT_CHECK_M = 8

# oracle: sizes (m, n) with 20k-60k trees. Left out although in the band:
# comm (7, 1), assoccomm (8, 1) and (6, 2), whose generation costs 2-4x the
# other sizes of their model and would make the work depend on the seed.
ORACLE_TREE_BAND = (20_000, 60_000)
ORACLE_SIZES = {
    ModelId.CATALAN: ((4, 3),),
    ModelId.ASSOC: ((6, 1), (4, 3)),
    ModelId.COMM: ((5, 2), (4, 4)),
    ModelId.ASSOC_COMM: ((5, 3),),
}
ORACLE_LEMMA_SIZE = (7, 2)
# functions with n <= 3 and L <= 4 (L = 5 searches take minutes). Each model
# gets one L = 4 function (a search over every tree up to size 4) and one
# cheaper one, so the search work is the same for every seed.
ORACLE_FUNCTIONS_L4 = ("n:2:6", "n:2:9")
ORACLE_FUNCTIONS_SMALL = ("n:1:2", "n:2:8", "n:2:e", "n:2:b", "n:3:80",
                          "n:3:a8", "n:3:8a", "n:3:fe")
ORACLE_FUNCTIONS = ORACLE_FUNCTIONS_L4 + ORACLE_FUNCTIONS_SMALL
ORACLE_CLI_MODELS = (ModelId.CATALAN, ModelId.ASSOC)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs as plain data; the same seed gives the same."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "asymptotic":
        return {"jobs": [{"model": model.value,
                          "n": rng.choice(ASYMPTOTIC_N_GRID)}
                         for model in ModelId]}
    if workload == "exact":
        return {"jobs": [{"model": model.value, "n": rng.randint(*EXACT_N)}
                         for model in ModelId]}
    if workload == "oracle":
        return {"models": [{"model": model.value,
                            "size": list(rng.choice(ORACLE_SIZES[model])),
                            "functions": [rng.choice(ORACLE_FUNCTIONS_L4),
                                          rng.choice(ORACLE_FUNCTIONS_SMALL)]}
                           for model in ModelId],
                "cli": [{"model": model.value,
                         "fn": rng.choice(ORACLE_FUNCTIONS_L4)}
                        for model in ORACLE_CLI_MODELS]}
    raise ValueError("unknown workload %r" % workload)


def jobs(workload: str, inputs: dict, expected: dict) -> list[Job]:
    by_workload = {"asymptotic": _asymptotic_jobs, "exact": _exact_jobs,
                   "oracle": _oracle_jobs}
    return by_workload[workload](inputs, expected)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def report_digits(rep: dict) -> dict:
    """The printed digits of a singularity_report that the checks compare."""
    return {"rho": rep["rho"], "value_at_rho": rep["value_at_rho"],
            "true_const": rep["ratios"]["true_const"],
            "literal_const": rep["ratios"]["literal_const"]}


# ---------------------------------------------------------------------------
# asymptotic


def _asymptotic_jobs(inputs: dict, expected: dict) -> list[Job]:
    out = []
    for spec in inputs["jobs"]:
        model, n = ModelId(spec["model"]), spec["n"]
        want = expected["asymptotic"][model.value][str(n)]
        out.append(Job(
            "singularity_report:%s:%d" % (model.value, n),
            lambda model=model, n=n: bf.singularity_report(model, n, PRECISION,
                                                           ORDER),
            lambda rep, model=model, n=n, want=want:
                _check_report(rep, model, n, want)))
    return out


def _check_report(rep: dict, model: ModelId, n: int, want: dict) -> Optional[str]:
    got = report_digits(rep)
    if got != want:
        return "digits %r differ from recorded %r" % (got, want)
    if model in (ModelId.CATALAN, ModelId.ASSOC):
        with mp.workprec(PRECISION):
            closed = bf.dominant_singularity(model, n, PRECISION,
                                             order=ORDER).rho
            numeric = bf.dominant_singularity(model, n, PRECISION,
                                              method="numeric-system",
                                              order=ORDER).rho
            if abs(numeric - closed) > closed * mp.mpf(2) ** (20 - PRECISION):
                return "numeric rho %s != closed form %s" % (
                    mp.nstr(numeric, 30), mp.nstr(closed, 30))
    return None


# ---------------------------------------------------------------------------
# exact


def _exact_jobs(inputs: dict, expected: dict) -> list[Job]:
    out = []
    for spec in inputs["jobs"]:
        model, n = ModelId(spec["model"]), spec["n"]
        out.append(Job(
            "series:%s:%d" % (model.value, n),
            lambda model=model, n=n: (
                bf.solve_model_series(model, n, ORDER),
                bf.solve_aux_series(model, "g_x", n, ORDER),
                bf.solve_aux_series(model, "st_x", n, ORDER),
                bf.series_sanity(model, n, ORDER)),
            lambda res, model=model, n=n: _check_series(res, model, n)))
        for m in EXACT_DIST_M:
            out.append(Job(
                "distribution:%s:%d" % (model.value, m),
                lambda model=model, m=m: bf.distribution(model, m,
                                                         EXACT_DIST_VARS),
                lambda dist, model=model, m=m: _check_distribution(
                    dist, bf.count_trees(model, m, EXACT_DIST_VARS))))
        out.append(Job(
            "classifier_counts:%s:%d" % (model.value, n),
            lambda model=model, n=n: bf.classifier_counts(
                model, "st_x", EXACT_CLASSIFIER_M, n),
            lambda count, model=model, n=n: _check_classifier(count, model, n)))
    return out


def _check_series(res, model: ModelId, n: int) -> Optional[str]:
    base, g, st, sanity = res
    for m in range(1, EXACT_COUNT_CHECK_M + 1):
        if base[m] != bf.count_trees(model, m, n):
            return "series coefficient %d != count_trees" % m
        if g[m] != bf.classifier_counts(model, "g_x", m, n):
            return "g_x coefficient %d != classifier_counts" % m
    if st[EXACT_CLASSIFIER_M] != bf.classifier_counts(
            model, "st_x", EXACT_CLASSIFIER_M, n):
        return "st_x coefficient %d != classifier_counts" % EXACT_CLASSIFIER_M
    if not sanity.ok:
        return "series_sanity residual %s" % sanity.max_discrepancy
    return None


def _check_distribution(dist, count: int) -> Optional[str]:
    if dist.total != count or sum(dist.counts.values()) != count:
        return "distribution total %d != count_trees %d" % (dist.total, count)
    return None


def _check_classifier(count: int, model: ModelId, n: int) -> Optional[str]:
    # the st_x series is cached from the series job, or solved here
    want = bf.solve_aux_series(model, "st_x", n, ORDER)[EXACT_CLASSIFIER_M]
    if count != want:
        return "classifier_counts %d != st_x coefficient %s" % (count, want)
    return None


# ---------------------------------------------------------------------------
# oracle


def _oracle_jobs(inputs: dict, expected: dict) -> list[Job]:
    out = []
    for spec in inputs["models"]:
        model = ModelId(spec["model"])
        m, n = spec["size"]
        out.append(Job(
            "generation:%s:%d:%d" % (model.value, m, n),
            lambda model=model, m=m, n=n: (
                bf.distribution_by_generation(model, m, n),
                bf.distribution(model, m, n)),
            lambda res, model=model, m=m, n=n: _check_generation(
                res, bf.count_trees(model, m, n))))
        out.append(Job(
            "lemmas:%s" % model.value,
            lambda model=model: bf.verify_pattern_lemmas(model,
                                                         *ORACLE_LEMMA_SIZE),
            _check_lemmas))
        for text in spec["functions"]:
            want = expected["oracle"][text][model.value]
            out.append(Job(
                "complexity:%s:%s" % (model.value, text),
                lambda model=model, text=text: _complexity_job(text, model),
                lambda res, text=text, want=want: _check_complexity(
                    res, text, want)))
    for spec in inputs["cli"]:
        argv = ["complexity", "--model", spec["model"], "--fn", spec["fn"],
                "--out", "json"]
        want = expected["oracle"][spec["fn"]][spec["model"]]
        out.append(Job(
            "cli:%s:%s" % (spec["model"], spec["fn"]),
            lambda argv=argv: _cli_job(argv),
            lambda res, want=want: _check_cli(res, want)))
    return out


def _complexity_job(text: str, model: ModelId):
    ts = bf.complexity(bf.BoolFunc.from_string(text), model)
    return ts, bf.enumerate_expansions(ts)


def _cli_job(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bf_cli.run(argv)
    return code, out.getvalue()


def _check_generation(res, count: int) -> Optional[str]:
    generated, dp = res
    if generated.total != count:
        return "generated %d trees, count_trees says %d" % (generated.total,
                                                            count)
    if generated.counts != dp.counts:
        return "generation and DP disagree"
    return None


def _check_lemmas(rep) -> Optional[str]:
    if not rep.ok or rep.trees_checked <= 0:
        return "lemma report not ok (%d counterexamples, %d checked)" % (
            len(rep.counterexamples), rep.trees_checked)
    return None


def _check_complexity(res, text: str, want: dict) -> Optional[str]:
    ts, tally = res
    got = {"L": ts.L, "M": ts.M, "lambda_T": tally.lambda_T,
           "lambda_X": tally.lambda_X}
    if got != want:
        return "complexity %r != recorded %r" % (got, want)
    f = bf.BoolFunc.from_string(text)
    for t in ts.trees:
        if bf.compute_function(t, f.n) != f or len(list(t.leaves())) != ts.L:
            return "minimal tree %s does not compute f in L leaves" % (
                bf.format_tree(t))
    return None


def _check_cli(res, want: dict) -> Optional[str]:
    code, text = res
    if code != 0:
        return "cli exited %d" % code
    try:
        payload = json.loads(text)
    except ValueError:
        return "cli output is not JSON: %r" % text[:200]
    got = {k: payload.get(k) for k in want}
    if payload.get("schema") != bf_cli.SCHEMA or got != want:
        return "cli payload %r != recorded %r" % (got, want)
    return None
