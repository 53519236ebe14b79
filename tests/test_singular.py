import ast
import dataclasses
import hashlib
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from boolform import singular
from boolform.errors import DomainError, NumericError
from boolform.series import (DEFAULT_ORDER, PowerSeries, solve_aux_series,
                             solve_half_series, solve_model_series)
from boolform.singular import (RATIO_POINTS, REFERENCE_CONSTANTS, _grammar,
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
        # assoc's value at the singularity is T(rho) = sqrt(2) - 1
        assert abs(rep.value_at_rho - (mp.sqrt(2) - 1)) < mp.mpf(10) ** -40


@pytest.mark.parametrize("model", [ModelId.CATALAN, ModelId.ASSOC])
def test_numeric_solver_reproduces_closed_forms(model):
    closed = dominant_singularity(model, 5, method="closed-form")
    numeric = dominant_singularity(model, 5, method="numeric-system")
    assert abs(closed.rho - numeric.rho) < mp.mpf(10) ** -50


@pytest.mark.parametrize("prec", [450, 600])
def test_numeric_solver_keeps_every_bit_past_400_bits(prec):
    # bisection takes as many halvings as the precision asks for; a fixed
    # 400 left assoc's rho 2.95e-121 off at either precision
    with mp.workprec(prec):
        closed = dominant_singularity(ModelId.ASSOC, 5, prec, "closed-form").rho
        numeric = dominant_singularity(ModelId.ASSOC, 5, prec,
                                       "numeric-system").rho
        assert abs(closed - numeric) < closed * mp.eps * 8


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
@pytest.mark.parametrize("model", ALL_MODELS)
def test_branch_condition_changes_sign_on_the_bracket(model, n):
    # each grammar's bracket holds its branch point with no search for it
    with mp.workprec(256):
        grammar = singular._grammar(model, n, 64)
        assert grammar.cond(mp.mpf(0)) > 0 > grammar.cond(grammar.hi)


def test_singular_finds_branch_points_without_derivatives():
    # one derivative-free guess steers every branch-point bisection: no
    # Newton, no derivative series, and no root search in the evaluators
    tree = ast.parse(Path(singular.__file__).read_text())
    owners = {"derivative": None, "_bisect": "_dominant_singularity"}
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.FunctionDef) and node.name == "_newton":
                found.append((node.lineno, "def _newton"))
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in owners and (owners[name] is None or
                                       getattr(top, "name", None) != owners[name]):
                    found.append((node.lineno, ast.unparse(node)))
    assert not found, found


def test_singular_names_models_only_in_the_reference_table():
    # each grammar states its own branch point, so singular.py tells the
    # models apart by their binary/plane shape and names them only in the
    # table of published constants
    tree = ast.parse(Path(singular.__file__).read_text())
    table = [node for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets]
             == ["REFERENCE_CONSTANTS"]]
    allowed = {id(node) for node in ast.walk(table[0])}
    values = {model.value for model in ModelId}
    named = [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
             if id(node) not in allowed
             and (isinstance(node, ast.Attribute)
                  and node.attr in ModelId.__members__
                  or isinstance(node, ast.Constant) and node.value in values)]
    assert len(table) == 1 and not named, named


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


def _shifted(series):
    # T_m over T_(m+1): the series of T_m and of T_(m+1), both of order N - 1
    coeffs = series.coeffs
    return PowerSeries(coeffs[:-1]), PowerSeries(coeffs[1:])


def test_limiting_ratio_on_known_series():
    # S = T/2 has every ratio exactly 1/2, whatever the singularity
    t = solve_model_series(ModelId.CATALAN, 1, 32)
    res = limiting_ratio(t.scale(Fraction(1, 2)), t)
    assert res.value == mp.mpf(1) / 2 and res.diagnostics["error"] == 0
    # catalan's T_m/T_(m+1) tends to rho = 1/(16n)
    n = 3
    res = limiting_ratio(*_shifted(solve_model_series(ModelId.CATALAN, n, 128)))
    with mp.workprec(256):
        assert abs(res.value - mp.mpf(1) / (16 * n)) < mp.mpf("1e-25")


def test_constants_carry_the_requested_precision():
    # at mpmath's 53-bit default, a 256-bit request gives the 256-bit values
    n, precision = 100, 256
    assert mp.mp.prec == 53
    for model in ALL_MODELS:
        got = [probability_true(model, n, precision),
               probability_literal(model, n, precision)]
        with mp.workprec(precision):
            want = [probability_true(model, n, precision),
                    probability_literal(model, n, precision)]
            for g, w in zip(got, want):
                assert abs(g - w) <= abs(w) * mp.mpf(2) ** -250, (model, g, w)


@pytest.mark.parametrize("precision", [-3, 0, 1, 52])
def test_precision_below_53_bits_is_a_domain_error(precision):
    t = solve_model_series(ModelId.CATALAN, 3, 32)
    with pytest.raises(DomainError, match="precision"):
        dominant_singularity(ModelId.COMM, 3, precision)
    with pytest.raises(DomainError, match="precision"):
        limiting_ratio(t, t, precision)


def test_limiting_ratio_raises_on_a_ratio_without_limit():
    # (-1)^m m over all-ones: the extrapolants swing wider than the ratios
    order = 128
    with pytest.raises(NumericError) as info:
        limiting_ratio(PowerSeries([(-1) ** m * m for m in range(order + 1)]),
                       PowerSeries([1] * (order + 1)))
    assert isinstance(info.value.diagnostics["error"], float)


def test_limiting_ratio_raises_on_a_zero_denominator_in_the_window():
    ones = PowerSeries([1] * 65)
    with pytest.raises(DomainError, match="den_m = 0"):
        limiting_ratio(ones, PowerSeries([1] * 60 + [0] + [1] * 4))


def test_limiting_ratio_needs_a_window_above_m_zero():
    # the window m = N - K..N must start at m >= 1, so order K + 1 is the least
    for order in (0, RATIO_POINTS - 1, RATIO_POINTS):
        short = PowerSeries([1] * (order + 1))
        with pytest.raises(DomainError, match="m < 1"):
            limiting_ratio(short, short)
    ones = PowerSeries([1] * (RATIO_POINTS + 2))
    assert limiting_ratio(ones, ones).value == 1


def test_numeric_error_beyond_branch_point():
    ev = _grammar(ModelId.ASSOC_COMM, 2, 48).values
    rep = dominant_singularity(ModelId.ASSOC_COMM, 2, order=48)
    with pytest.raises(NumericError):
        ev["T"](rep.rho * mp.mpf("1.2"))


@pytest.mark.parametrize("prec", [60, 256])
@pytest.mark.parametrize("n", [1, 2, 100, 300])
def test_assoccomm_evaluator_reaches_the_branch_point(n, prec):
    # T = 1 - c sqrt(1 - z/rho) + ..., so at rho, and one ulp past it, T is
    # real and rounding moves it by O(sqrt(eps)) from the branch value 1
    with mp.workprec(prec):
        ev = _grammar(ModelId.ASSOC_COMM, n, DEFAULT_ORDER).values
        rho = dominant_singularity(ModelId.ASSOC_COMM, n, prec).rho
        for z in (rho, rho * (1 + mp.eps)):
            t = ev["T"](z)
            assert isinstance(t, mp.mpf)
            assert abs(t - 1) <= 2 * mp.sqrt(mp.eps)


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
    # a repeated n is used once: Neville's step would divide by zero at it
    assert (constant_estimate(ModelId.CATALAN, "True", (100, 100, 200, 400))
            == constant_estimate(ModelId.CATALAN, "True", (100, 200, 400)))


def _known_limit(model, target):
    # comm's limits are the derived 3/4 and 5/16 (tests/test_comm_limits.py),
    # not the published ones that REFERENCE_CONSTANTS keeps
    if model is ModelId.COMM:
        return mp.mpf(3) / 4 if target == "True" else mp.mpf(5) / 16
    return REFERENCE_CONSTANTS[(model, target)]()


@pytest.mark.parametrize("target", ["True", "literal"])
@pytest.mark.parametrize("model", ALL_MODELS)
def test_constant_estimate_error_bar_covers_the_true_error(model, target):
    # on the default grid the bar reads 49-384x the error
    est, err = constant_estimate(model, target)
    with mp.workprec(256):
        assert abs(est - _known_limit(model, target)) <= err


def test_extrapolate_is_exact_on_fractions():
    # y = 3 + 2/n - 5/n^2 + 7/n^3 through four points is read exactly at 0
    def y(n):
        return 3 + Fraction(2, n) - Fraction(5, n ** 2) + Fraction(7, n ** 3)

    ns = (1, 2, 3, 5)
    assert singular._extrapolate(ns, [y(n) for n in ns]) == 3
    # through three points the 7/n^3 term is left over
    assert singular._extrapolate(ns[1:], [y(n) for n in ns[1:]]) != 3
    for point in (Fraction(2, 7), mp.mpf("0.3"), 0.3):
        assert singular._extrapolate([7], [point]) is point


@pytest.mark.parametrize("kind", ["mpf", "float"])
def test_extrapolate_rounds_on_mpf_and_float(kind):
    ns = (100, 200, 400)
    coeffs = (Fraction(3, 4), Fraction(-7, 3), Fraction(11, 5))
    exact = [sum(c / Fraction(n) ** k for k, c in enumerate(coeffs))
             for n in ns]
    assert singular._extrapolate(ns, exact) == coeffs[0]
    with mp.workprec(256):
        if kind == "mpf":
            ys = [mp.mpf(v.numerator) / v.denominator for v in exact]
            eps = mp.eps
        else:
            ys, eps = [float(v) for v in exact], 2.0 ** -52
        got = singular._extrapolate(ns, ys)
        assert type(got) is type(ys[0])
        assert abs(got - mp.mpf(3) / 4) <= 16 * eps


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


# sha256 of the repr of T, st and g at n = 100 at 21 points approaching rho,
# z = rho(1 - 1e-2 2^-k) for k = 0..20 (plain test data), per precision in
# bits, recorded once and frozen: catalan's evaluator is bit for bit the same
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
            ev = _grammar(model, 100, DEFAULT_ORDER).values
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
        ev = _grammar(model, n, 64).values
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


@pytest.mark.parametrize("n", [1, 2, 10, 300])
@pytest.mark.parametrize("model", ALL_MODELS)
def test_w_rates_match_extrapolated_coefficient_ratios(model, n):
    # an independent route: the exact order-128 coefficient ratios
    # w1 = n lim st_x/T, w2 = lim g_x/T and rho = lim T_m/T_(m+1),
    # extrapolated in 1/m; the worst case is 8.4e-18 (assoccomm, n = 1, w1)
    t = solve_model_series(model, n, 128)
    got = [n * limiting_ratio(solve_aux_series(model, "st_x", n, 128), t).value,
           limiting_ratio(solve_aux_series(model, "g_x", n, 128), t).value,
           limiting_ratio(*_shifted(t)).value]
    rep = dominant_singularity(model, n)
    with mp.workprec(256):
        for g, want in zip(got, (rep.w1, rep.w2, rep.rho)):
            assert abs(g - want) < want * mp.mpf("1e-16"), (g, want)


# sha256 of the repr of limiting_ratio's (value, diagnostics), or of a
# failure's (type, message, diagnostics), per model, over kind in (st_x,
# g_x), n in (1, 2, 5) and order in (32, 64, 128) of
# limiting_ratio(aux series, model series): 64 values and 8 NumericErrors,
# recorded once and frozen
PINNED_RATIO_DIGESTS = {
    ModelId.CATALAN:
        "ea677a1bb4bf9fc058d2b59b1957728517d4f1b0cd02cfb270ad1a735f96041a",
    ModelId.ASSOC:
        "994eba31c375a5441c4349c2cca4a00925a8a0df9d9a22398ca5fe3fbae88675",
    ModelId.COMM:
        "6a7c983773364b6661013f5653dd73f3b4debd970fc718dc7fae0135a6198364",
    ModelId.ASSOC_COMM:
        "9bab6aba914662d2f85666ac3e9b7fb03e814106a073573382672de22dcf19d0",
}


@pytest.mark.parametrize("model", ALL_MODELS)
def test_limiting_ratio_pinned(model):
    entries = []
    for kind in ("st_x", "g_x"):
        for n in (1, 2, 5):
            for order in (32, 64, 128):
                num = solve_aux_series(model, kind, n, order)
                den = solve_model_series(model, n, order)
                try:
                    res = limiting_ratio(num, den)
                    entries.append(repr((res.value, res.diagnostics)))
                except NumericError as e:
                    entries.append(repr((type(e).__name__, str(e),
                                         e.diagnostics)))
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == PINNED_RATIO_DIGESTS[model]


def test_limiting_ratio_reads_only_the_series(monkeypatch):
    # the coefficient route uses no evaluator, root finder or derivative
    series = {model: (solve_model_series(model, 2, 128),
                      solve_aux_series(model, "g_x", 2, 128))
              for model in ALL_MODELS}
    want = {model: w_rates(model, 2)[1] for model in ALL_MODELS}

    def refuse(*args, **kwargs):
        raise AssertionError("the coefficient route left the series")

    for name in ("_grammar", "_SeriesEval", "_regula_falsi", "_bisect",
                 "dominant_singularity"):
        monkeypatch.setattr(singular, name, refuse)
    monkeypatch.setattr(mp, "diff", refuse)
    for model, (t, g) in series.items():
        got = limiting_ratio(g, t).value
        with mp.workprec(256):
            assert abs(got - want[model]) < want[model] * mp.mpf("1e-16")


def test_w_rates_run_no_ladder(monkeypatch):
    def no_ladder(*args, **kwargs):
        raise AssertionError("the rates route ran the ratio ladder")

    monkeypatch.setattr(singular, "limiting_ratio", no_ladder)
    singular._dominant_singularity.cache_clear()
    for model in ALL_MODELS:
        w1, w2 = w_rates(model, 10)
        assert w1 > 0 and w2 > 0


def test_w_rates_raise_on_a_complex_rate(monkeypatch):
    # a square root of a negative rounding residue must not become a rate
    grammar = singular._grammar
    monkeypatch.setattr(singular, "_grammar", lambda model, n, order: (
        dataclasses.replace(grammar(model, n, order),
                            rates=lambda rho: (mp.mpc(1, 1e-40), mp.mpf(1)))))
    singular._dominant_singularity.cache_clear()
    with pytest.raises(NumericError) as info:
        w_rates(ModelId.CATALAN, 7)
    assert info.value.diagnostics["n"] == 7
    singular._dominant_singularity.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 10])
def test_assoc_numeric_value_at_rho_is_real(n):
    with mp.workprec(256):
        rep = dominant_singularity(ModelId.ASSOC, n, method="numeric-system")
        assert isinstance(rep.value_at_rho, mp.mpf)
        closed = mp.sqrt(2) - 1
        assert abs(rep.value_at_rho - closed) < closed * mp.mpf("1e-70")


def test_singularity_report_solves_each_branch_point_once(monkeypatch):
    calls = []
    solve = singular._bisect

    def counting(*args, **kwargs):
        calls.append(key)
        return solve(*args, **kwargs)

    monkeypatch.setattr(singular, "_bisect", counting)
    singular._dominant_singularity.cache_clear()
    for key in ((ModelId.COMM, 12), (ModelId.ASSOC_COMM, 12)):
        singularity_report(*key, order=32)
        # the default method and the explicit one share the cached solve
        dominant_singularity(*key, method="numeric-system", order=32)
    assert calls == [(ModelId.COMM, 12), (ModelId.ASSOC_COMM, 12)]


@pytest.mark.parametrize("model", ALL_MODELS)
def test_singularity_report_builds_each_grammar_once(monkeypatch, model):
    # rho, the rates and both constants come from one record per branch point
    calls = []
    build = singular._grammar

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(singular, "_grammar", counting)
    singular._dominant_singularity.cache_clear()
    singularity_report(model, 30, order=32)
    singular._dominant_singularity.cache_clear()
    assert calls == [(model, 30, 32)]


def test_singular_layer_rejects_n_or_order_below_one():
    # the closed forms read no series, so nothing else checked n and order
    for model in ALL_MODELS:
        for n, order in ((0, 8), (-2, 8), (1, 0), (1, -5)):
            with pytest.raises(DomainError, match="must be >= 1"):
                _grammar(model, n, order)
            with pytest.raises(DomainError, match="must be >= 1"):
                dominant_singularity(model, n, order=order)


def test_singularity_report_is_frozen():
    rep = dominant_singularity(ModelId.CATALAN, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.rho = 0


def test_regula_falsi_raises_without_sign_change():
    with mp.workprec(128):
        with pytest.raises(NumericError, match="no sign change"):
            singular._regula_falsi(lambda z: z * z + 1, mp.mpf(0), mp.mpf(1),
                                   mp.eps)


@pytest.mark.parametrize("hi", [1, 0.9])
def test_regula_falsi_stays_inside_the_bracket_on_a_cube_root(hi):
    # Newton on a cube root doubles the distance to the zero at every step
    # and leaves the bracket; the secant of a bracket's ends stays inside
    points = []

    def f(z):
        points.append(z)
        return mp.sign(z - 0.5) * abs(z - 0.5) ** (mp.mpf(1) / 3)

    with mp.workprec(128):
        lo, hi = mp.mpf(0), mp.mpf(hi)
        zero = singular._regula_falsi(f, lo, hi, mp.eps)
        assert abs(zero - 0.5) <= mp.eps
    assert all(lo <= z <= hi for z in points)


def _plain_bisect(fn, lo, hi):
    # unguided bisection, the reference that guided bisection must match
    flo = fn(lo)
    steps = 2 * mp.mp.prec + int(mp.mag((hi - lo) / max(abs(lo), abs(hi))))
    for _ in range(steps):
        mid = (lo + hi) / 2
        fm = fn(mid)
        if fm == 0:
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < abs(mid) * mp.eps * 4:
            return (lo + hi) / 2
    raise AssertionError("plain bisection did not narrow the bracket")


# plain bisection of assoccomm's condition at 256 bits takes seconds
@pytest.mark.parametrize("case,prec", [
    ("cos", 60), ("cos", 256), ("comm", 60), ("comm", 256), ("assoccomm", 60)])
def test_bisection_with_a_regula_falsi_guess_gives_the_same_bits(case, prec):
    with mp.workprec(prec):
        if case == "cos":
            fn, hi = (lambda z: mp.cos(z) - z), mp.mpf(1)
        else:
            grammar = singular._grammar(ModelId(case), 12, 64)
            fn, hi = grammar.cond, grammar.hi
        lo = mp.mpf(0)
        guess = singular._regula_falsi(fn, lo, hi, mp.eps * 2 ** 8)
        assert singular._bisect(fn, lo, hi, guess) == _plain_bisect(fn, lo, hi)


def test_bisection_raises_when_the_bracket_stays_wide():
    # a zero below eps times the bracket's end is not reached to 4 ulps
    # within 2 prec + 1 halvings
    with mp.workprec(128):
        with pytest.raises(NumericError, match="4 ulps") as info:
            singular._bisect(lambda z: z - mp.mpf(2) ** -384, mp.mpf(0),
                             mp.mpf(1), guess=mp.mpf(2) ** -384)
    assert info.value.diagnostics["steps"] == 257


def test_bisection_raises_on_a_wrong_guess():
    with mp.workprec(128):
        with pytest.raises(NumericError, match="guess outside"):
            singular._bisect(lambda z: z - mp.mpf("0.3"), mp.mpf(0), mp.mpf(1),
                             guess=mp.mpf("0.7"))


def _polya_reference(hat, z):
    # sum over l >= 2 of hat(z^l)/l, one Horner sum per l, until z^l is
    # below eps 2^-16
    acc, l = mp.mpf(0), 2
    while True:
        acc += _horner(hat, z ** l) / l
        if abs(z) ** l < mp.eps * mp.mpf(2) ** -16:
            return acc
        l += 1


@pytest.mark.parametrize("n", [2, 300])
def test_assoccomm_condition_matches_a_polya_sum_term_by_term(n):
    hat = solve_half_series(ModelId.ASSOC_COMM, n, 64)
    with mp.workprec(256):
        cond = singular._grammar(ModelId.ASSOC_COMM, n, 64).cond
        rho = dominant_singularity(ModelId.ASSOC_COMM, n, 256, order=64).rho
        for z in (rho / 2, rho * (1 - mp.mpf(2) ** -20), rho):
            want = 2 - mp.exp(mp.mpf(1) / 2 + n * z + _polya_reference(hat, z))
            assert abs(cond(z) - want) <= 8 * mp.eps, z


# rho._mpf_ of assoccomm at order 64, per (n, precision in bits), recorded
# once and frozen: the mantissa in hex and the exponent
PINNED_ASSOCCOMM_RHO = {
    (2, 60): ("5a450d1a38b3b6b", -62),
    (10, 60): ("9b3c50a82681ab", -61),
    (100, 60): ("7e5644b1e3f68cf", -68),
    (250, 60): ("194bf0f4f6685e3", -67),
    (400, 60): ("7e8514c23a99d31", -70),
    (2, 256): ("5a450d1a38b3b6a7a22f65faefd0c0f4"
               "79b51cdabb963d567b83e81692527841", -258),
    (10, 256): ("4d9e28541340d57abd2778033742fa98"
                "179a2c37a5055356ef3e5a3861fe8691", -260),
    (100, 256): ("7e5644b1e3f68cf10735922b8bc63f07"
                 "faacf3c8292f6010c430602bee2322e7", -264),
    (250, 256): ("652fc3d3d9a178ac8dfb88ee22bd5f3a"
                 "744e8e8537cd714260220dc92cf2182d", -265),
    (400, 256): ("7e8514c23a99d30f5584c51bd74a6be2"
                 "0663a5b5a9c837240f72d3befe5456f", -262),
}


@pytest.mark.parametrize("n,prec", sorted(PINNED_ASSOCCOMM_RHO))
def test_assoccomm_rho_bits_pinned(n, prec):
    rho = dominant_singularity(ModelId.ASSOC_COMM, n, prec, order=64).rho
    sign, man, exp, _ = rho._mpf_
    assert (sign, "%x" % man, exp) == (0, *PINNED_ASSOCCOMM_RHO[n, prec])


def test_assoccomm_condition_raises_outside_the_disk_of_log_pi():
    # log Pi has radius sqrt(rho), and 1/2 > sqrt(rho) = 0.297 at n = 2
    cond = singular._grammar(ModelId.ASSOC_COMM, 2, 64).cond
    with mp.workprec(256):
        with pytest.raises(NumericError, match="tail not negligible"):
            cond(mp.mpf(1) / 2)
