import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from boolform import series
from boolform.errors import DomainError
from boolform.exhaustive import classifier_counts, count_trees
from boolform.series import (AUX_KINDS, PowerSeries, log_one_minus_z,
                             polya_sum, series_sanity, solve_aux_series,
                             solve_equation, solve_half_series,
                             solve_model_series)
from boolform.trees import ModelId

ALL_MODELS = list(ModelId)


def test_power_series_arithmetic():
    a = PowerSeries([Fraction(1), Fraction(2), Fraction(3)])
    b = PowerSeries([Fraction(0), Fraction(1), Fraction(0)])
    assert (a * b).coeffs == [Fraction(0), Fraction(1), Fraction(2)]
    assert (a + b).coeffs == [Fraction(1), Fraction(3), Fraction(3)]


def test_power_series_inverse_and_exp():
    one_minus = PowerSeries([Fraction(1), Fraction(-1), Fraction(0), Fraction(0)])
    inv = one_minus.inverse()
    assert inv.coeffs == [Fraction(1)] * 4
    z = PowerSeries([Fraction(0), Fraction(1), Fraction(0), Fraction(0)])
    e = z.exp()
    assert e.coeffs == [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)]
    # log_one_minus_z is the positive series log(1/(1-z))
    assert log_one_minus_z(6).exp() == PowerSeries([Fraction(1)] * 7)


def test_substitute_power():
    s = PowerSeries([Fraction(0), Fraction(1), Fraction(1), Fraction(1),
                     Fraction(1)])
    sq = s.substitute_power(2)
    assert sq.coeffs == [Fraction(0), Fraction(0), Fraction(1), Fraction(0),
                         Fraction(1)]


def test_polya_sum_first_terms():
    s = PowerSeries([Fraction(0), Fraction(1), Fraction(0), Fraction(0),
                     Fraction(0)])
    p = polya_sum(s)
    # z + z^2/2 + z^3/3 + z^4/4
    assert p.coeffs == [Fraction(0), Fraction(1), Fraction(1, 2),
                        Fraction(1, 3), Fraction(1, 4)]


def test_quotients_that_are_not_integral_stay_fractions():
    inv = PowerSeries([2, -1, 0, 0]).inverse().coeffs
    assert inv == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                   Fraction(1, 16)]
    assert all(type(c) is Fraction for c in inv)
    half = PowerSeries([0, 2, 3]).scale(Fraction(1, 2)).coeffs
    assert half == [0, 1, Fraction(3, 2)]
    assert type(half[1]) is int and type(half[2]) is Fraction


def _polya_tail_by_definition(s):
    # sum over i >= 2 of s(z^i)/i, one substituted series per i
    out = PowerSeries.zero(s.order)
    for i in range(2, s.order + 1):
        out = out + s.substitute_power(i).scale(Fraction(1, i))
    return out


@st.composite
def _series_without_constant(draw):
    # s_0 = 0 and val 1..3; the first nonzero entry may be negative
    val = draw(st.integers(1, 3))
    head = draw(st.integers(-4, 4).filter(bool))
    rest = draw(st.lists(st.integers(-4, 4), max_size=9))
    return PowerSeries([0] * val + [head] + rest)


@settings(max_examples=60, deadline=None)
@given(_series_without_constant())
@example(PowerSeries([0, Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 4),
                     1, Fraction(1, 6)]))
def test_multisets_and_polya_tail_match_their_definitions(s):
    one = PowerSeries.monomial(1, 0, s.order)
    many = series._many(ModelId.ASSOC_COMM, s)
    assert many == polya_sum(s).exp() - one - s
    tail = series._polya_tail(s)
    assert tail == _polya_tail_by_definition(s)
    for c in many.coeffs + tail.coeffs:
        assert type(c) is int or c.denominator != 1, c


def test_multisets_need_a_zero_constant_term():
    with pytest.raises(DomainError):
        series._many(ModelId.ASSOC_COMM, PowerSeries([1, 1, 0, 0]))


@pytest.mark.parametrize("model,max_m", [
    (ModelId.CATALAN, 9), (ModelId.COMM, 9),
    (ModelId.ASSOC, 8), (ModelId.ASSOC_COMM, 8),
])
def test_series_coefficients_equal_counts(model, max_m):
    for n in (1, 2):
        s = solve_model_series(model, n, max_m)
        assert s.coeffs[0] == 0
        for m in range(1, max_m + 1):
            assert s.coeffs[m] == count_trees(model, m, n), (model, m, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_assoccomm_counts_equal_the_series_to_order_100(n):
    # the multiset recurrence against the exact series, far past the sizes
    # the frozen count digests reach
    s = solve_model_series(ModelId.ASSOC_COMM, n, 100)
    assert [count_trees(ModelId.ASSOC_COMM, m, n) for m in range(1, 101)] \
        == s.coeffs[1:]


def test_half_series_only_for_stratified():
    with pytest.raises(DomainError):
        solve_half_series(ModelId.CATALAN, 1)
    half = solve_half_series(ModelId.ASSOC_COMM, 2, 4)
    # full = 2*half - 2nz
    full = solve_model_series(ModelId.ASSOC_COMM, 2, 4)
    assert full.coeffs[1] == 2 * 2
    assert 2 * half.coeffs[2] == full.coeffs[2]
    assert list(half.coeffs[1:5]) == [4, 10, 60, 430]


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("kind", ["g_x", "st_x"])
def test_aux_series_match_classifier_counts(model, kind):
    for n in (1, 2):
        s = solve_aux_series(model, kind, n, 7)
        for m in range(1, 8):
            assert s.coeffs[m] == classifier_counts(model, kind, m, n), \
                (model, kind, m, n)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_aux_complements(model):
    n = 2
    base = solve_model_series(model, n, 8)
    for kind, bar in (("g_x", "gbar_x"), ("st_x", "stbar_x")):
        s = solve_aux_series(model, kind, n, 8)
        sbar = solve_aux_series(model, bar, n, 8)
        assert s + sbar == base


def test_h_x_is_catalan_only():
    s = solve_aux_series(ModelId.CATALAN, "h_x", 1, 6)
    assert s.coeffs[0] == 0
    with pytest.raises(DomainError):
        solve_aux_series(ModelId.COMM, "h_x", 1, 6)


def test_simple_x_kinds_exist():
    for kind in ("simple_x_T", "simple_x_X"):
        assert kind in AUX_KINDS
        s = solve_aux_series(ModelId.CATALAN, kind, 1, 6)
        assert all(c >= 0 for c in s.coeffs)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_aux_kinds_are_read_from_one_cached_table(model):
    # the simple-x kinds are built with the solve, not afresh per call
    first = solve_aux_series(model, "simple_x_T", 2, 8)
    assert solve_aux_series(model, "simple_x_T", 2, 8) is first
    assert ("h_x" in series._aux_series(model, 1, 8)) \
        == (model is ModelId.CATALAN)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_series_sanity_zero_residuals(model):
    for n in (1, 2):
        rep = series_sanity(model, n, 24)
        assert rep.ok, rep.checks


@pytest.mark.parametrize("model", ALL_MODELS)
def test_series_sanity_zero_residuals_at_order_128(model):
    for n in (1, 2):
        rep = series_sanity(model, n, 128)
        assert rep.ok, rep.checks


def test_frozen_aux_coefficients():
    assert solve_aux_series(ModelId.CATALAN, "g_x", 1, 4).coeffs[1] == 1
    assert solve_aux_series(ModelId.CATALAN, "st_x", 1, 4).coeffs[2] == 2
    assert solve_aux_series(ModelId.COMM, "st_x", 1, 4).coeffs[2] == 1
    assert solve_aux_series(ModelId.ASSOC, "st_x", 1, 4).coeffs[3] == 6
    assert solve_aux_series(ModelId.ASSOC_COMM, "st_x", 1, 4).coeffs[3] == 2


def test_to_json_fractions():
    s = PowerSeries([Fraction(1, 3), Fraction(-2, 7)])
    assert s.to_json() == ["1/3", "-2/7"]


def test_solve_equation_rejects_coefficient_dependent_on_itself():
    n = 1

    def half_slope(s):
        # the stratified non-plane equation in its slope-1/2 form, where
        # coefficient m of the right-hand side depends on s_m
        one = PowerSeries.monomial(1, 0, s.order)
        leaves = PowerSeries.monomial(2 * n, 1, s.order)
        return (polya_sum(s).exp() - one + leaves).scale(Fraction(1, 2))

    def unit_slope(s):
        return s + PowerSeries.monomial(1, 1, s.order)

    # the equations are written over the same online operations as the
    # models', so the read-ahead guard on the unknown stops both at m = 1
    for rhs in (half_slope, unit_slope):
        with pytest.raises(DomainError, match="reads coefficient 1 of the "
                                              "unknown"):
            solve_equation(rhs, 8)


# sha256 of json.dumps([to_json() at n = 1, to_json() at n = 2]), order 24,
# recorded with the probe-based solver that the one-evaluation solver replaced
PINNED_SERIES = {
    (ModelId.CATALAN, "base"):
        "e90475a539452a4f82ce29ca6ce3bbf5a5d86555dd012d59f29550e12e0eba49",
    (ModelId.CATALAN, "g_x"):
        "a5b7d2a9c5c49b4f8e0958299db37c932907f7fa47afc132e9fcaabe8ad4933a",
    (ModelId.CATALAN, "gbar_x"):
        "dd5f3e873e96da4c96f3c59847efe57fcc93fce9cd9d98d3d3adbad82cf4dd31",
    (ModelId.CATALAN, "st_x"):
        "3c3205e1354f67496390ed7ac07ceaab7a704944a6603d78d202bee83ebe22fb",
    (ModelId.CATALAN, "stbar_x"):
        "70bb53bede6831b6a32d2a3befd47381f48c7afa80ae1fed463d721fe3b0d76c",
    (ModelId.CATALAN, "h_x"):
        "2a8f138d769461b35a21979f9e27727980776256a251263c2428e39d058cdcfa",
    (ModelId.CATALAN, "simple_x_T"):
        "abad1d3c0761fb8e76742b5b95b6cf2cd60f100900ec6d8cef0de4834e81ebd3",
    (ModelId.CATALAN, "simple_x_X"):
        "eae5bfa20e82ac11dbb36b814f00b2db7e4308db8cc62896af269f8386b4f039",
    (ModelId.ASSOC, "base"):
        "b09b4bf58a4a7c270562eab0dda2b671eeebbadeb0dffa64fde99259af9b0e23",
    (ModelId.ASSOC, "half"):
        "cead90b5d3761f79a8636c97d8b97395484d4ce8974eecf6d3ddf88a9148d356",
    (ModelId.ASSOC, "g_x"):
        "02e81699c72abb5098e6ede23706a11c9459ed2ed19698c1e733e7e63bd2bfdc",
    (ModelId.ASSOC, "gbar_x"):
        "61627f712b4fdbd67d8b9faf524b2b8f4df000bcbb28ed95c3877351b2f7cbec",
    (ModelId.ASSOC, "st_x"):
        "c18075ad6b4bdf0583be234cdafb173a7eb6cff08484bf89c6100b86491b8c53",
    (ModelId.ASSOC, "stbar_x"):
        "bde730a3269bb9ecb5dad525bcf439c800e74c60ef6d305f26d79d7bca176a92",
    (ModelId.ASSOC, "simple_x_T"):
        "fd0834a6caf4a92abbdf318d90b0f4b54ab26e761582d1ea44770609b2a2498b",
    (ModelId.ASSOC, "simple_x_X"):
        "a57ee5a7586069e9d2573df708ad5ecb802bc75fd708c92c2426139c3293f391",
    (ModelId.COMM, "base"):
        "503d737ae57385ac069934b3e874130e45bc960686bebfb08da6bdbf6365bb39",
    (ModelId.COMM, "g_x"):
        "7c2f0572658cc1849ba3160783878b0c645a9e5dfb7d70d3f0bea00f8f5055dc",
    (ModelId.COMM, "gbar_x"):
        "a73cc48bf6542845629409a151bd76f8af6e0dbcf67f48e6eba0ee50ed3abab6",
    (ModelId.COMM, "st_x"):
        "4f5bf0729b3dd47f81fbedb8c0dce27944325e52049afb87c8870176ff9205b9",
    (ModelId.COMM, "stbar_x"):
        "df52c49dc45c03a606a8e91231cb3fe6876d5b1d03104da9aadd4af6653459ba",
    (ModelId.COMM, "simple_x_T"):
        "77092b3f2d020656db899aca9eb500237b1f196c08098e6f8a14d62bd58cd0f9",
    (ModelId.COMM, "simple_x_X"):
        "69c7ea778a076daebfcc5102a8e71f545c7e365e3baa9971236e5c94996b3aef",
    (ModelId.ASSOC_COMM, "base"):
        "f5704cfa54a155a9d77c459c7a0c2bace4b65afd8f4c860a9a2e532dbb60055e",
    (ModelId.ASSOC_COMM, "half"):
        "a9860ac39b9fd0dc670535aa37579503535ee4379e89ea5667a979d754b92501",
    (ModelId.ASSOC_COMM, "g_x"):
        "c0050c831e3df1d0a2eabf76191aa4604dad172dfada4483ee136f595151f1fc",
    (ModelId.ASSOC_COMM, "gbar_x"):
        "226517df4ae901533f055a8c6616aa64b2017cb98c94825ddb6d53c207f5d75d",
    (ModelId.ASSOC_COMM, "st_x"):
        "636616b106397ed984d57699291e55dea3f2a5919939ecd3993af85ebf8d1522",
    (ModelId.ASSOC_COMM, "stbar_x"):
        "bbe985363fcdc5b44d0b1e4743be6cde045b0c19b3809809ed1343c0d10c72c0",
    (ModelId.ASSOC_COMM, "simple_x_T"):
        "b6a13b9c5f39b3d47354bf9a3a7881e09274340aaf8b04e7ac803349fe687f3f",
    (ModelId.ASSOC_COMM, "simple_x_X"):
        "5ac42d3cf8a2b45d244515d4d7bbcab16998c33dfca5a3a51054e94885e15bac",
}

# the same at order 96 for n = 1 and n = 300, recorded with the solver that
# evaluated the whole right-hand side once per coefficient
PINNED_SERIES_96 = {
    (ModelId.CATALAN, "base"):
        "8bd6976100b7f4c9dd36fecb0683510e4403997499b1aa42206744496650a5d4",
    (ModelId.CATALAN, "g_x"):
        "1c3f005a34ada8b299ade3fc6634c902dfbd4be26285cf58ce5534e31e02affb",
    (ModelId.CATALAN, "gbar_x"):
        "14afecf7d4f586ac1aa931e6a3bc5a1fb848a56927a2279c4d6ea9be9cdb2fe6",
    (ModelId.CATALAN, "st_x"):
        "77e01273d45832324aae6dc0e4f2e69b04b439ad3e3a15859935981251bbf862",
    (ModelId.CATALAN, "stbar_x"):
        "a06181bb3c92e8ad5809de754b9df9acb4914dd0a01752939ee923b6b4ed8b74",
    (ModelId.CATALAN, "h_x"):
        "86c4f2bf3af3ccb5a2dc2a135a4e0a0d82acd0f73931d83a7a64ea6403d905f7",
    (ModelId.CATALAN, "simple_x_T"):
        "6afc9802d06a8f619c194e9eb42f194c6ea4e394f824b69f750e15107daa27ae",
    (ModelId.CATALAN, "simple_x_X"):
        "243120a3824fdcba06853be4f45285c8aaf7a297362595f87513f952bf6b097d",
    (ModelId.ASSOC, "base"):
        "a0e8b747ba4684049498b4f399b768279234eec8beee6a3a00400f4857b66a05",
    (ModelId.ASSOC, "half"):
        "9531b254a81ebf25bda56abb664411927100dc8be876074cae3cc3b3eb3bcca7",
    (ModelId.ASSOC, "g_x"):
        "ea577b15b1b4cdae673890693ddb2916a4d6761e569d9d317d3ae2f8b54620d9",
    (ModelId.ASSOC, "gbar_x"):
        "12725021a4ad4a61049f3af349698f43b9fd0fa271c731261ccf2e640c4e9f2f",
    (ModelId.ASSOC, "st_x"):
        "0cb92a13ecb5659510a0ad17812cded073c158e8bc06d2c35fc85e491c3d5fff",
    (ModelId.ASSOC, "stbar_x"):
        "3c2de74c093397730104c280e2b27bdcf5790d0b9caa433195354f3c25754469",
    (ModelId.ASSOC, "simple_x_T"):
        "79e231ea6bb78e5356f452e983648e6c2d88c8d05c7a858aa4ec0c5b73a81cb2",
    (ModelId.ASSOC, "simple_x_X"):
        "d2dadd93721a5aaf01c001c10e357f98cb01c2a3c555f384e6322ba92881e952",
    (ModelId.COMM, "base"):
        "8340052d3c1c86cfe336338abc85872da5e109d3f928c955b49db160130317fc",
    (ModelId.COMM, "g_x"):
        "7813fb0af2cecdcf82667d851bb3e57f49058887a24b00acd2acddbe41cdbf05",
    (ModelId.COMM, "gbar_x"):
        "7f5893303f4894f9cafa16e7c6c48ae035d350a8bc5eb2597f40b03c664f6fa0",
    (ModelId.COMM, "st_x"):
        "7af0e3ec293efa360d6bb050244d6defc1e05e9e7ec20aa5282c00bc84d53909",
    (ModelId.COMM, "stbar_x"):
        "b49dcb9cc0bbaa75325b33e3bf07b075ada812171a2fb35ec175096125aa1ebf",
    (ModelId.COMM, "simple_x_T"):
        "c16ab56fc33a0081a5aaf798155637da6183c31a0ec4660973c64fb33f0690f4",
    (ModelId.COMM, "simple_x_X"):
        "7f74910eb713d013b85da041e82623c8f054c9ee712140ece5f46f89ce656c59",
    (ModelId.ASSOC_COMM, "base"):
        "12fdcaf05cc34fe6da56c03f4df99b475698aa449c71f91266c9231cfe6c9db2",
    (ModelId.ASSOC_COMM, "half"):
        "eff7b6a8ac4c2fec2eee042e3468b73eb22e6186e74e451de0054b3001222e58",
    (ModelId.ASSOC_COMM, "g_x"):
        "27e9530fd920350618983d1d624fcbabb73275fbca9b9f32da1d35e564ed1132",
    (ModelId.ASSOC_COMM, "gbar_x"):
        "fc128261bdacfc09a1319925b6860c8f2a4f6567ea1b2f4fbd88ac567b569940",
    (ModelId.ASSOC_COMM, "st_x"):
        "0690c5aadb57174a643809da766a1ea8d84f136ed4e1979e4aed888a7f77484c",
    (ModelId.ASSOC_COMM, "stbar_x"):
        "188f2df448dbf69b605175038aa1afc18c59a9db016afb82dc93136dd30d3633",
    (ModelId.ASSOC_COMM, "simple_x_T"):
        "3e61c69274640cc9509767533622cb9e633ec964e7503e51c91e7196c7b54c42",
    (ModelId.ASSOC_COMM, "simple_x_X"):
        "c758ed29747935a97e05612044c63e4016f88560ad5fd8d47227a9455c30293a",
}


def _solve_kind(model, kind, n, order):
    if kind == "base":
        return solve_model_series(model, n, order)
    if kind == "half":
        return solve_half_series(model, n, order)
    return solve_aux_series(model, kind, n, order)


def _check_digests(pinned, order, ns):
    kinds = {(model, kind) for model in ALL_MODELS
             for kind in ("base", "half") + AUX_KINDS
             if (kind != "half" or model.stratified)
             and (kind != "h_x" or model is ModelId.CATALAN)}
    assert set(pinned) == kinds
    for (model, kind), digest in pinned.items():
        text = json.dumps([_solve_kind(model, kind, n, order).to_json()
                           for n in ns])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (model, kind)


def test_series_digests_pinned():
    _check_digests(PINNED_SERIES, 24, (1, 2))


def test_series_digests_pinned_at_order_96():
    _check_digests(PINNED_SERIES_96, 96, (1, 300))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_integral_coefficients_are_ints(model):
    # Fractions appear only where a construction divides; an integral
    # quotient is kept as an int
    for kind in (kind for m, kind in PINNED_SERIES if m is model):
        s = _solve_kind(model, kind, 3, 32)
        assert all(type(c) is int for c in s.coeffs), kind


@pytest.mark.parametrize("model", ALL_MODELS)
def test_integral_series_make_no_fraction_per_coefficient(model, monkeypatch):
    # the series of a full solve at n = 3 (base, every aux kind and
    # series_sanity) are integral, so the Fractions made on the way are a
    # few constants, the same at every order
    new, made = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)
    counts = []
    for order in (32, 64):
        series._solve_base.cache_clear()
        series._aux_series.cache_clear()
        made.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        for kind in (kind for m, kind in PINNED_SERIES if m is model):
            _solve_kind(model, kind, 3, order).coeffs
        series_sanity(model, 3, order)
        monkeypatch.undo()
        counts.append(len(made))
    assert counts[0] == counts[1], counts
