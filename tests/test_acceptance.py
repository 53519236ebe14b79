"""The eight acceptance checks, one pass/fail line each.

Each test computes its verdict first and always prints an
"ACCEPTANCE k: PASS|FAIL" line before asserting, so the report stays
readable even when an entry misses its tolerance.
"""

import math

import mpmath as mp

from boolform.boolfun import BoolFunc, Literal
from boolform.complexity import (complexity, enumerate_expansions,
                                 lambda_bounds, lambda_x_bounds)
from boolform.exhaustive import classifier_counts, count_trees, distribution
from boolform.patterns import verify_pattern_lemmas
from boolform.series import solve_aux_series, solve_model_series
from boolform.singular import (REFERENCE_CONSTANTS, constant_estimate,
                               dominant_singularity, probability_literal,
                               w_rates)
from boolform.trees import ModelId

ALL_MODELS = list(ModelId)


def _report(k, name, ok, detail=""):
    print("ACCEPTANCE %d (%s): %s%s"
          % (k, name, "PASS" if ok else "FAIL",
             " -- " + detail if detail else ""))


def test_acceptance_1_series_vs_counts():
    failures = []
    for model in ALL_MODELS:
        max_m = 9 if model.binary else 8
        for n in (1, 2):
            s = solve_model_series(model, n, max_m)
            for m in range(1, max_m + 1):
                if s.coeffs[m] != count_trees(model, m, n):
                    failures.append((model.value, n, m))
    _report(1, "series coefficients equal exhaustive counts", not failures,
            str(failures[:3]) if failures else "")
    assert not failures


def test_acceptance_2_aux_series_vs_classifiers():
    failures = []
    for model in ALL_MODELS:
        for kind in ("st_x", "g_x"):
            for n in (1, 2):
                s = solve_aux_series(model, kind, n, 7)
                for m in range(1, 8):
                    if s.coeffs[m] != classifier_counts(model, kind, m, n):
                        failures.append((model.value, kind, n, m))
    _report(2, "auxiliary series equal classifier counts", not failures,
            str(failures[:3]) if failures else "")
    assert not failures


def test_acceptance_3_constants_table():
    # The comm rows expect the derived limits 3/4 and 5/16 (proved in
    # tests/test_comm_limits.py); the published 641/1024 and 1153/4096
    # stay in REFERENCE_CONSTANTS and are printed beside them.
    # On the default grid the largest error is 1.02e-6 (comm, True).
    expected = [
        (ModelId.CATALAN, "True", 0.75, 1e-5),
        (ModelId.ASSOC, "True", 51 - 36 * math.sqrt(2), 1e-5),
        (ModelId.COMM, "True", 3 / 4, 1e-5),
        (ModelId.ASSOC_COMM, "True", (2 * math.log(2) - 1) ** 2 / 4, 1e-5),
        (ModelId.CATALAN, "literal", 5 / 16, 1e-5),
        (ModelId.ASSOC, "literal", 546 - 386 * math.sqrt(2), 1e-5),
        (ModelId.COMM, "literal", 5 / 16, 1e-5),
        (ModelId.ASSOC_COMM, "literal",
         (2 * math.log(2) - 1) ** 2 * (2 * math.log(2) + 1) / 4, 1e-5),
    ]
    rows = []
    for model, target, ref, tol in expected:
        est, _err = constant_estimate(model, target)
        rows.append((model, target, float(est), ref, tol,
                     abs(float(est) - ref) <= tol))
    ok = all(r[-1] for r in rows)
    for model, target, est, ref, tol, good in rows:
        published = float(REFERENCE_CONSTANTS[(model, target)]())
        print("    %-10s %-8s computed=%.8f expected=%.8f published=%.8f"
              " tol=%.0e %s%s"
              % (model.value, target, est, ref, published, tol,
                 "ok" if good else "MISS",
                 "  (published value contradicts the derivation)"
                 if abs(published - ref) > tol else ""))
    _report(3, "constants table within tolerances", ok)
    assert ok


def test_acceptance_4_singularity_systems():
    checks = []
    n = 100
    rep = dominant_singularity(ModelId.COMM, n)
    refined = (mp.mpf(1) / (8 * n)) * (1 - mp.mpf(1) / (8 * n)
                                       + mp.mpf(7) / (256 * n * n))
    checks.append(abs(rep.rho - refined) / refined < 1e-5)
    checks.append(abs(rep.value_at_rho - mp.mpf(1) / 2) < mp.mpf(10) ** -8)
    rep = dominant_singularity(ModelId.ASSOC_COMM, 1000)
    checks.append(abs(rep.value_at_rho - mp.log(2)) < 1e-2)
    for model in (ModelId.CATALAN, ModelId.ASSOC):
        closed = dominant_singularity(model, 7, method="closed-form")
        numeric = dominant_singularity(model, 7, method="numeric-system")
        checks.append(abs(closed.rho - numeric.rho) < mp.mpf(10) ** -50)
    _report(4, "singularity systems", all(checks), str(checks))
    assert all(checks)


def test_acceptance_5_pattern_lemmas():
    sizes = {ModelId.CATALAN: 7, ModelId.ASSOC: 6,
             ModelId.COMM: 7, ModelId.ASSOC_COMM: 6}
    bad = []
    for model, max_m in sizes.items():
        for n in (1, 2):
            rep = verify_pattern_lemmas(model, max_m, n)
            if not rep.ok:
                bad.append((model.value, n, rep.counterexamples[:2]))
    _report(5, "pattern lemmas have no counterexamples", not bad,
            str(bad) if bad else "")
    assert not bad


def test_acceptance_6_duality():
    failures = []
    for model in ALL_MODELS:
        for n in (1, 2):
            for m in range(1, 9):
                d = distribution(model, m, n)
                for f, c in d.counts.items():
                    if d.counts.get(f.negate()) != c:
                        failures.append((model.value, m, n, f.to_string()))
    _report(6, "distribution is self-dual under negation", not failures,
            str(failures[:3]) if failures else "")
    assert not failures


def test_acceptance_7_complexity_suite():
    x1 = BoolFunc.from_literal(Literal(1, True), 2)
    and12 = BoolFunc(2, 0b1000)
    maj = BoolFunc.from_string("n:3:ea")
    checks = {}
    checks["independence"] = all(
        len({complexity(BoolFunc(2, t), m).L for m in ModelId}) == 1
        for t in range(16))
    checks["xor"] = complexity(BoolFunc(2, 0b0110), ModelId.CATALAN).L == 4
    ts = complexity(x1, ModelId.CATALAN)
    checks["lambda_T(x1)=4"] = enumerate_expansions(ts).lambda_T == 4
    b = lambda_bounds(ts)
    checks["literal bounds coincide at 5/16"] = b.lower == b.upper == 5 / 16
    for model in (ModelId.CATALAN, ModelId.COMM, ModelId.ASSOC_COMM):
        for f in (x1, and12, maj):
            ts = complexity(f, model)
            t = enumerate_expansions(ts)
            xb = lambda_x_bounds(ts)
            checks["lambda_X %s %s" % (model.value, f.to_string())] = \
                xb.lower <= t.lambda_X <= xb.upper
    ok = all(checks.values())
    _report(7, "complexity suite", ok,
            "" if ok else str([k for k, v in checks.items() if not v]))
    assert ok


def test_acceptance_8_expansion_formula_consistency():
    x1 = BoolFunc.from_literal(Literal(1, True), 2)
    n = 200
    failures = []
    for model in ALL_MODELS:
        ts = complexity(x1, model)
        tally = enumerate_expansions(ts)
        rho = dominant_singularity(model, n).rho
        w1, w2 = w_rates(model, n)
        est = float(rho ** ts.L * (tally.lambda_T * w1 + tally.lambda_X * w2)
                    * n ** (ts.L + 1))
        ref = float(probability_literal(model, n))
        if abs(est - ref) / ref > 0.02:
            failures.append((model.value, est, ref))
    _report(8, "expansion formula matches literal constant", not failures,
            str(failures) if failures else "")
    assert not failures
