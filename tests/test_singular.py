import dataclasses
import hashlib

import mpmath as mp
import pytest

from boolform import singular
from boolform.errors import DomainError, NumericError
from boolform.series import solve_model_series
from boolform.singular import (REFERENCE_CONSTANTS, analytic_evaluators,
                               constant_estimate, dominant_singularity,
                               limiting_ratio, probability_literal,
                               probability_true, singularity_report, w_rates)
from boolform.trees import ModelId

ALL_MODELS = list(ModelId)


def test_closed_form_singularities():
    with mp.workprec(200):
        rep = dominant_singularity(ModelId.CATALAN, 3)
        assert abs(rep.rho - mp.mpf(1) / 48) < mp.mpf(10) ** -40
        assert abs(rep.value_at_rho - mp.mpf(1) / 4) < mp.mpf(10) ** -40
        rep = dominant_singularity(ModelId.ASSOC, 3)
        assert abs(rep.rho - (3 - 2 * mp.sqrt(2)) / 6) < mp.mpf(10) ** -40
        # half-class value at the singularity
        assert abs(rep.value_at_rho - (mp.sqrt(2) - 1)) < mp.mpf(10) ** -40


@pytest.mark.parametrize("model", [ModelId.CATALAN, ModelId.ASSOC])
def test_numeric_solver_reproduces_closed_forms(model):
    closed = dominant_singularity(model, 5, method="closed-form")
    numeric = dominant_singularity(model, 5, method="numeric-system")
    assert abs(closed.rho - numeric.rho) < mp.mpf(10) ** -50


def test_comm_gamma_against_refined_expansion():
    n = 100
    rep = dominant_singularity(ModelId.COMM, n)
    refined = (mp.mpf(1) / (8 * n)) * (1 - mp.mpf(1) / (8 * n)
                                       + mp.mpf(7) / (256 * n * n))
    assert abs(rep.rho - refined) / refined < 1e-5
    # branch point condition: C(gamma) = 1/2
    assert abs(rep.value_at_rho - mp.mpf(1) / 2) < mp.mpf(10) ** -8


def test_assoccomm_half_value_near_log2():
    n = 1000
    rep = dominant_singularity(ModelId.ASSOC_COMM, n)
    # half-class value tends to ln 2 like O(1/n)
    assert abs(rep.value_at_rho - mp.log(2)) < 1e-2
    assert abs(rep.rho - (2 * mp.log(2) - 1) / (2 * n)) / rep.rho < 1e-2


def test_limiting_ratio_on_known_series():
    # S = T/2 has ratio exactly 1/2 regardless of the singularity
    n = 1
    ev = analytic_evaluators(ModelId.CATALAN, n, 64)
    rho = dominant_singularity(ModelId.CATALAN, n).rho
    res = limiting_ratio(lambda z: ev["dT"](z) / 2, ev["dT"], rho)
    assert abs(res.value - mp.mpf(1) / 2) < 1e-20


def test_limiting_ratio_with_power_series_input():
    n = 1
    s = solve_model_series(ModelId.CATALAN, n, 64)
    rho = dominant_singularity(ModelId.CATALAN, n).rho
    res = limiting_ratio(s, s, rho)
    assert abs(res.value - 1) < 1e-12


@pytest.mark.parametrize("precision", [-3, 0, 1, 52])
def test_precision_below_53_bits_is_a_domain_error(precision):
    ev = analytic_evaluators(ModelId.CATALAN, 3)
    with pytest.raises(DomainError, match="precision"):
        dominant_singularity(ModelId.COMM, 3, precision)
    with pytest.raises(DomainError, match="precision"):
        limiting_ratio(ev["dst"], ev["dT"], mp.mpf(1) / 48, precision)


def test_numeric_error_beyond_branch_point():
    ev = analytic_evaluators(ModelId.ASSOC_COMM, 2, 48)
    rep = dominant_singularity(ModelId.ASSOC_COMM, 2, order=48)
    with pytest.raises(NumericError):
        ev["T"](rep.rho * mp.mpf("1.2"))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_w_rates_scaling(model):
    n = 50
    w1, w2 = w_rates(model, n)
    # both ratios are Theta(1/n) and positive
    assert 0 < w1 < 5.0 / n
    assert 0 < w2 < 5.0 / n


def test_probability_true_catalan_near_limit():
    # n * P(True-ratio) tends to 3/4
    # finite-n drift is O(1/n); at n=400 the value sits a few 1e-3 below
    val = probability_true(ModelId.CATALAN, 400)
    assert abs(val - 0.75) < 0.01


def test_probability_literal_catalan_near_limit():
    val = probability_literal(ModelId.CATALAN, 400)
    assert abs(val - 0.3125) < 0.002


def test_constant_estimate_catalan():
    est, err = constant_estimate(ModelId.CATALAN, "True", (50, 100, 200))
    assert abs(est - 0.75) < 0.005
    assert err < 0.01


def test_reference_constants_table_is_complete():
    for model in ALL_MODELS:
        for target in ("True", "literal"):
            val = REFERENCE_CONSTANTS[(model, target)]()
            assert 0 < float(val) < 1


def test_singularity_report_shape():
    rep = singularity_report(ModelId.COMM, 10, order=32)
    assert rep["model"] == "comm"
    assert set(rep["ratios"]) == {"true_const", "literal_const"}
    assert "rho" in rep and "method" in rep


# printed digits of singularity_report at n = 100, 256 bits, order 64, as
# plain bisection and uncached evaluation give them; any faster solver or
# cache must reproduce them. comm's value_at_rho is complex because the
# square root at rho takes a rounding residue.
PINNED_REPORTS_N100 = {
    ModelId.CATALAN: {
        "rho": "0.000625",
        "value_at_rho": "0.25",
        "true_const": "0.73162556696037822726",
        "literal_const": "0.30697663649036616518",
    },
    ModelId.COMM: {
        "rho": "0.0012484409067188106195575855947",
        "value_at_rho": "(0.5 - 2.5516389732364512431167060215e-39j)",
        "true_const": "0.7307245746435571315",
        "literal_const": "0.30629208071188373035",
    },
    ModelId.ASSOC_COMM: {
        "rho": "0.00192774941559990185203640563534",
        "value_at_rho": "0.692774941559990185203640563534",
        "true_const": "0.03716217809345763114",
        "literal_const": "0.088652229607331746924",
    },
}


# sha256 of the repr of T, dT, st, dst, g and dg at n = 100 on the 21 rungs
# z = rho(1 - 1e-2 2^-k) of limiting_ratio's ladder, per precision in bits,
# recorded once and frozen: catalan's evaluator is bit for bit the same
PINNED_EVALUATOR_DIGESTS_N100 = {
    ModelId.CATALAN: {
        60: "a856c02bcffdf3923836259808f10385c4927e773f2ef0ddc6da4df92072bc09",
        256: "1096991804ec683b07fb53995f386f5aee54b293aa9b9635750f7f567ce1f01c"},
}


@pytest.mark.parametrize("model", sorted(PINNED_REPORTS_N100, key=str))
def test_singularity_report_digits_pinned(model):
    rep = singularity_report(model, 100, 256, 64)
    got = {"rho": rep["rho"], "value_at_rho": rep["value_at_rho"],
           "true_const": rep["ratios"]["true_const"],
           "literal_const": rep["ratios"]["literal_const"]}
    assert got == PINNED_REPORTS_N100[model]
    for prec, digest in PINNED_EVALUATOR_DIGESTS_N100.get(model, {}).items():
        with mp.workprec(prec):
            ev = analytic_evaluators(model, 100)
            rho = dominant_singularity(model, 100, prec).rho
            values = [[repr(ev[name](rho * (1 - mp.mpf(1e-2) * mp.mpf(2) ** -k)))
                       for name in ("T", "dT", "st", "dst", "g", "dg")]
                      for k in range(21)]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == digest


def test_singularity_report_solves_each_branch_point_once(monkeypatch):
    calls = []
    solve = singular._branch_condition

    def counting(model, n, order):
        calls.append((model, n))
        return solve(model, n, order)

    monkeypatch.setattr(singular, "_branch_condition", counting)
    singular._dominant_singularity.cache_clear()
    singular._rates.cache_clear()
    for model in (ModelId.COMM, ModelId.ASSOC_COMM):
        singularity_report(model, 12, order=32)
        # the default method and the explicit one share the cached solve
        dominant_singularity(model, 12, method="numeric-system", order=32)
    assert calls == [(ModelId.COMM, 12), (ModelId.ASSOC_COMM, 12)]


def test_singularity_report_is_frozen():
    rep = dominant_singularity(ModelId.CATALAN, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.rho = 0


def test_newton_raises_without_sign_change():
    with mp.workprec(128):
        with pytest.raises(NumericError, match="no sign change"):
            singular._newton(lambda z: z * z + 1, lambda z: 2 * z,
                             mp.mpf(0), mp.mpf(1), mp.eps)


def test_newton_raises_when_a_step_leaves_the_bracket():
    # Newton on a cube root doubles the distance to the zero at every step
    def f(z):
        return mp.sign(z - 0.5) * abs(z - 0.5) ** (mp.mpf(1) / 3)

    def df(z):
        return abs(z - 0.5) ** (-mp.mpf(2) / 3) / 3

    with mp.workprec(128):
        with pytest.raises(NumericError, match="left the bracket"):
            singular._newton(f, df, mp.mpf(0), mp.mpf(1), mp.eps)


@pytest.mark.parametrize("prec", [60, 256])
def test_bisection_with_a_newton_guess_gives_the_same_bits(prec):
    def f(z):
        return mp.cos(z) - z

    with mp.workprec(prec):
        lo, hi = mp.mpf(0), mp.mpf(1)
        guess = singular._newton(f, lambda z: -mp.sin(z) - 1, lo, hi,
                                 mp.eps * 2 ** 8)
        assert singular._bisect(f, lo, hi, guess=guess) == singular._bisect(f, lo, hi)


def test_bisection_raises_on_a_wrong_guess():
    with mp.workprec(128):
        with pytest.raises(NumericError, match="guess outside"):
            singular._bisect(lambda z: z - mp.mpf("0.3"), mp.mpf(0), mp.mpf(1),
                             guess=mp.mpf("0.7"))


def test_tail_sum_raises_past_its_cap():
    with mp.workprec(64):
        with pytest.raises(NumericError) as info:
            singular._tail_sum(mp.mpf(1), lambda l: mp.mpf(1) / l)
    diag = info.value.diagnostics
    assert diag["z"] == 1.0
    assert diag["l"] == singular._TAIL_TERMS_MAX + 1
    assert diag["term"] == pytest.approx(1.0 / diag["l"])
