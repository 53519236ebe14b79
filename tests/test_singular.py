import dataclasses
import hashlib
from fractions import Fraction

import mpmath as mp
import pytest

from boolform import singular
from boolform.errors import DomainError, NumericError
from boolform.series import solve_aux_series, solve_model_series
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


def _catalan_dT(n):
    # T = (1 - sqrt(1 - 16nz))/4
    return lambda z: 2 * n / mp.sqrt(1 - 16 * n * z)


def test_limiting_ratio_on_known_series():
    # S = T/2 has ratio exactly 1/2 regardless of the singularity
    n = 1
    dT = _catalan_dT(n)
    rho = dominant_singularity(ModelId.CATALAN, n).rho
    res = limiting_ratio(lambda z: dT(z) / 2, dT, rho)
    assert abs(res.value - mp.mpf(1) / 2) < 1e-20


def test_limiting_ratio_with_power_series_input():
    n = 1
    s = solve_model_series(ModelId.CATALAN, n, 64)
    rho = dominant_singularity(ModelId.CATALAN, n).rho
    res = limiting_ratio(s, s, rho)
    assert abs(res.value - 1) < 1e-12


@pytest.mark.parametrize("precision", [-3, 0, 1, 52])
def test_precision_below_53_bits_is_a_domain_error(precision):
    dT = _catalan_dT(3)
    with pytest.raises(DomainError, match="precision"):
        dominant_singularity(ModelId.COMM, 3, precision)
    with pytest.raises(DomainError, match="precision"):
        limiting_ratio(dT, dT, mp.mpf(1) / 48, precision)


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
    ModelId.ASSOC: {
        "rho": "0.000857864376269049511983112757903",
        "value_at_rho": "0.41421356237309504880168872421",
        "true_const": "0.087884705820937311643",
        "literal_const": "0.11326710973250175785",
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


# sha256 of the repr of T, st and g at n = 100 on the 21 rungs
# z = rho(1 - 1e-2 2^-k) of limiting_ratio's ladder, per precision in bits,
# recorded once and frozen: catalan's evaluator is bit for bit the same
PINNED_EVALUATOR_DIGESTS_N100 = {
    ModelId.CATALAN: {
        60: "928c9f24a54dfa882a57266deb545f6634474d96e2cbdbc01751a8243026e7ff",
        256: "ff3a28360566d3c75f12ed4dd1b0255c21b6f4acc894ebc0970d16c304175e9e"},
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
                       for name in ("T", "st", "g")]
                      for k in range(21)]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == digest


def _horner(series, z):
    acc = mp.mpf(0)
    for c in reversed(series.coeffs):
        acc = acc * z + mp.mpf(c.numerator) / c.denominator
    return acc


@pytest.mark.parametrize("n", [3, 100])
@pytest.mark.parametrize("model", ALL_MODELS)
def test_evaluators_match_the_exact_series(model, n):
    # at z = rho/8 the order-64 truncation is off by about 8^-64, so the
    # closed and implicit forms must agree with the series far below it
    series = {"T": solve_model_series(model, n, 64),
              "st": solve_aux_series(model, "st_x", n, 64),
              "g": solve_aux_series(model, "g_x", n, 64)}
    with mp.workprec(256):
        z = dominant_singularity(model, n, 256, order=64).rho / 8
        ev = analytic_evaluators(model, n, 64)
        assert sorted(ev) == sorted(series)
        for name, s in series.items():
            want = _horner(s, z)
            assert abs(ev[name](z) - want) < abs(want) * mp.mpf(10) ** -50, name


@pytest.mark.parametrize("n", [1, 2, 10, 100, 300])
@pytest.mark.parametrize("model", ALL_MODELS)
def test_w_rates_at_60_bits_agree_with_256_bits(model, n):
    # the branch-point rates keep 3.2e-13 relative or better at 60 bits
    # (worst: comm's w1 at n = 300)
    lo = w_rates(model, n, 60)
    hi = w_rates(model, n, 256)
    with mp.workprec(256):
        for a, b in zip(lo, hi):
            assert isinstance(a, mp.mpf)
            assert abs(mp.mpf(a) - b) < abs(b) * mp.mpf("1e-12")


def _neville_at_zero(xs, ys):
    # value at x = 0 of the polynomial through the points (xs, ys)
    p = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - k):
            p[i] = (xs[i + k] * p[i] - xs[i] * p[i + 1]) / (xs[i + k] - xs[i])
    return p[0]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("model", ALL_MODELS)
def test_w_rates_match_extrapolated_coefficient_ratios(model, n):
    # an independent route: the exact order-64 coefficient ratios S_m/T_m,
    # extrapolated in 1/m from m = 54..64. More points diverge for the
    # non-plane models (1.2e-4 with 15 points for assoccomm at n = 1).
    t = solve_model_series(model, n, 64).coeffs
    ms = range(54, 65)
    xs = [Fraction(1, m) for m in ms]
    limits = {}
    for kind in ("st_x", "g_x"):
        s = solve_aux_series(model, kind, n, 64).coeffs
        limits[kind] = _neville_at_zero(xs, [Fraction(s[m]) / t[m] for m in ms])
    w1, w2 = w_rates(model, n)
    with mp.workprec(256):
        for want, got in ((w1, n * limits["st_x"]), (w2, limits["g_x"])):
            got = mp.mpf(got.numerator) / got.denominator
            assert abs(got - want) < want * mp.mpf("1e-8")


@pytest.mark.parametrize("model", ALL_MODELS)
def test_w_rates_agree_with_the_ratio_ladder(model):
    # limiting_ratio on numeric derivatives of the value closures, an
    # independent route to the same limits
    n, prec = 10, 128
    with mp.workprec(prec):
        ev = analytic_evaluators(model, n)
        rho = dominant_singularity(model, n, prec).rho

        def slope(name):
            return lambda z: mp.diff(ev[name], z)

        r_st = limiting_ratio(slope("st"), slope("T"), rho, prec).value
        r_g = limiting_ratio(slope("g"), slope("T"), rho, prec).value
        w1, w2 = w_rates(model, n, prec)
        assert abs(n * r_st - w1) < w1 * mp.mpf("1e-30")
        assert abs(r_g - w2) < w2 * mp.mpf("1e-30")


def test_w_rates_run_no_ladder(monkeypatch):
    def no_ladder(*args, **kwargs):
        raise AssertionError("the rates route ran the ratio ladder")

    monkeypatch.setattr(singular, "limiting_ratio", no_ladder)
    singular._rates.cache_clear()
    for model in ALL_MODELS:
        w1, w2 = w_rates(model, 10)
        assert w1 > 0 and w2 > 0


def test_w_rates_raise_on_a_complex_rate(monkeypatch):
    # a square root of a negative rounding residue must not become a rate
    monkeypatch.setattr(singular, "_evaluators", lambda model, n, order: (
        {}, lambda rho: (mp.mpc(1, 1e-40), mp.mpf(1))))
    singular._rates.cache_clear()
    with pytest.raises(NumericError) as info:
        w_rates(ModelId.CATALAN, 7)
    assert info.value.diagnostics["n"] == 7
    singular._rates.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 10])
def test_assoc_numeric_value_at_rho_is_real(n):
    with mp.workprec(256):
        rep = dominant_singularity(ModelId.ASSOC, n, method="numeric-system")
        assert isinstance(rep.value_at_rho, mp.mpf)
        closed = mp.sqrt(2) - 1
        assert abs(rep.value_at_rho - closed) < closed * mp.mpf("1e-70")


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
