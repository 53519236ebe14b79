"""Dominant singularities, values at the singularity, limiting ratios.

Each model's counting series T has a square-root dominant singularity rho
on the positive axis, at a branch value tau.  Every class S counted here is
S = G(z, T) with G analytic at (rho, tau), so the limiting coefficient
ratio S_m/T_m is dG/dT at (rho, tau) (singularity analysis: Flajolet &
Sedgewick, Analytic Combinatorics, ch. VI and VII.4).  The rates are read
there in closed form.  limiting_ratio reads the same limits, and rho as
lim T_m/T_(m+1), off the exact coefficients, extrapolated in 1/m; it uses no
evaluator and no root finder, so it checks them independently.

One record per grammar (pairs, SEQ, MSET) states its branch point: value
closures, branch condition and bracket, value at rho, closed form and rates.
Each branch point is solved once, into one cached SingularityReport of rho,
the value there, the rates and both constants, which every entry point reads;
one derivative-free regula falsi guess steers every branch-point bisection.

Near the singularity the truncated series are useless (the tail decays
like (1-eps)^order), so every evaluator here is in closed form: a radical
for pairs and SEQ, the principal branch W_0 of Lambert W for MSET.
Truncated series only enter through the z^2-substituted terms and MSET's
log Pi = sum over l >= 2 of hat(z^l)/l, one exact series of order 2 order and
radius sqrt(rho); all sit deep inside their disks of convergence, and
_SeriesEval's one tail check guards them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import mpmath as mp

from .errors import DomainError, NumericError
from .series import (DEFAULT_ORDER, PowerSeries, _check_size, _polya_tail,
                     _simple_x_factor, solve_aux_series, solve_half_series,
                     solve_model_series)
from .trees import ModelId

DEFAULT_PRECISION = 256
DEFAULT_N_GRID = (100, 200, 400)  # n extrapolated to n -> inf


class _SeriesEval:
    """Horner evaluator of a truncated series at mpf arguments.

    Each exact coefficient is converted to mpf once per working precision,
    as mpf(numerator)/mpf(denominator) at that precision, and each value is
    kept per (precision, argument) for the life of the evaluator.  A
    geometric tail that is not negligible raises NumericError.
    """

    def __init__(self, s: PowerSeries):
        self.coeffs = s.coeffs
        self._by_prec: dict = {}  # precision -> (mpf coefficients, values)

    def __call__(self, z):
        prec = mp.mp.prec
        state = self._by_prec.get(prec)
        if state is None:
            coeffs = [mp.mpf(c.numerator) / mp.mpf(c.denominator)
                      for c in self.coeffs]
            state = self._by_prec[prec] = (coeffs, {})
        coeffs, seen = state
        hit = seen.get(z)
        if hit is not None:
            return hit
        acc = mp.mpf(0)
        for c in reversed(coeffs):
            acc = acc * z + c
        tail = abs(coeffs[-1] * z ** (len(coeffs) - 1))
        # geometric tail estimate must be well below the needed accuracy
        if tail > (abs(acc) + mp.mpf("1e-30")) * mp.mpf("1e-25"):
            raise NumericError("series tail not negligible at z=%s" % z,
                               diagnostics={"tail": float(tail),
                                            "value": float(acc)})
        seen[z] = acc
        return acc


# ---------------------------------------------------------------------------
# one record per grammar


@dataclass(frozen=True)
class _Grammar:
    """A grammar at one n and order; closures evaluate at the working
    precision, hi and closed are at the precision of the build."""
    values: dict  # z -> T, st (ST^x, simple tautologies on x1), g (g_x)
    cond: Callable  # branch condition: > 0 at 0, its zero rho, < 0 at hi
    hi: object
    # rho -> T(rho); for assoccomm (MSET) the half series hat(rho) = 1/2 + n rho,
    # where T(rho) = 1 exactly
    value_at: Callable
    closed: Optional[tuple]  # (rho, value_at(rho)) in closed form, or None
    rates: Callable  # rho -> (w1, w2) = (n dst/dT, dg/dT) at the branch point


def _eval_binary(model: ModelId, n: int, order: int) -> _Grammar:
    """A node takes a pair of children: pairs(y) = a y^2 + y(z^2)/2, with
    a = 1 and no z^2 term if plane, a = 1/2 if not (z^2 terms from the
    truncated series).

    T = 2nz + 2 pairs(T) and gbar = (2n - 1)z + pairs(T) + pairs(gbar) have
    the form y = P + A y^2, so y = (1 - sqrt(1 - 4AP))/(2A).  The trees that
    are not simple tautologies, stbar = 2nz + pairs(T) + 2 pairs(gbar) -
    pairs(2 gbar - stbar), solve a y^2 + (1 - 4a gbar) y = 2nz + pairs(T) -
    2a gbar^2 + stbar(z^2)/2.  gbar and stbar are written once as functions
    of (z, T): the values put in T(z), the rates the branch value tau = 1/(4a)
    where T's discriminant, the branch condition, vanishes (linear if plane).
    """
    n_ = mp.mpf(n)
    a = mp.mpf(1) if model.plane else mp.mpf(1) / 2

    def at_z2(series):
        # y(z^2), the z^2 term of pairs(y)
        if model.plane:
            return lambda z: 0
        ev = _SeriesEval(series())
        return lambda z: ev(z * z)

    t2 = at_z2(lambda: solve_model_series(model, n, order))
    gbar2 = at_z2(lambda: solve_aux_series(model, "gbar_x", n, order))
    stbar2 = at_z2(lambda: solve_aux_series(model, "stbar_x", n, order))

    def pairs(y, y2):
        return a * y ** 2 + y2 / 2

    def gbar(z, t):
        q = (2 * n_ - 1) * z + pairs(t, t2(z)) + gbar2(z) / 2
        return (1 - mp.sqrt(1 - 4 * a * q)) / (2 * a)

    def stbar(z, t, gb):
        q = 2 * n_ * z + pairs(t, t2(z)) + stbar2(z) / 2 - 2 * a * gb ** 2
        b = 1 - 4 * a * gb
        return (-b + mp.sqrt(b * b + 4 * a * q)) / (2 * a)

    def disc(z):
        return 1 - 8 * a * 2 * n_ * z - 8 * a * t2(z)

    def T(z):
        return (1 - mp.sqrt(disc(z))) / (4 * a)

    def g(z):
        t = T(z)
        return t - gbar(z, t)

    def st(z):
        t = T(z)
        return t - stbar(z, t, gbar(z, t))

    def rates(rho):
        # implicit differentiation of the two quadratics in T, with the z^2
        # terms held constant, written in g = tau - gbar and s = tau - stbar
        tau = 1 / (4 * a)
        gb = gbar(rho, tau)
        g, s = tau - gb, tau - stbar(rho, tau, gb)
        w2 = 4 * a * g / (1 + 4 * a * g)
        w1 = n_ * 4 * a * (s - 4 * a * g * s + 8 * a * g ** 2) / (
            (1 + 4 * a * g) * (1 - 4 * a * s + 8 * a * g))
        return w1, w2

    closed = (1 / (16 * a * n_), 1 / (4 * a)) if model.plane else None
    return _Grammar({"T": T, "st": st, "g": g}, disc, 1 / (8 * n_), T, closed,
                    rates)


def _eval_stratified(model: ModelId, n: int, order: int) -> _Grammar:
    """A node takes a sequence (plane) or multiset (non-plane) of >= 2
    children: many(u) = E(u) - 1 - u, with E(u) = 1/(1 - u) for SEQ and
    E(u) = e^u Pi(z) for MSET, log Pi(z) = sum over l >= 2 of hat(z^l)/l,
    one exact series of order 2 order and radius sqrt(rho) (_SeriesEval).

    hat = 2nz + many(hat) solves E(hat) = 1 + 2 hat - 2nz on its lower
    branch and T = 2 hat - 2nz = E_0 - 1, in closed form: hat is a radical for
    SEQ, and E_0 = -2 W_0(-e^(nz - 1/2) Pi/2) for MSET (Lambert W's principal
    branch, Corless et al. 1996), whose branch point -1/e is rho.  With E_k
    the E of hat - kz, g = E_0 - E_1 and st = E_0 - 2 E_1 + E_2 are evaluated
    without cancellation as g = z E_0 q1 and st = z^2 E_0 q2: q1 = q2 = 1 for
    MSET, where E_k = (1 - z)^k E_0, and q1 = E_1, q2 = 2 E_1 E_2 for SEQ.
    They are written once as functions of (z, E_0, u = 1 - hat): the values
    put in E_0(z), the rates the branch point E_u = 2, where E_0 = sqrt(2)
    for SEQ and E_0 = 2 for MSET.  The branch condition is hat's discriminant
    for SEQ, a quadratic with a closed form, and 2 - E_u at 1/2 + nz for MSET.
    """
    n_ = mp.mpf(n)
    if model.plane:
        def cond(z):
            # hat = (b - sqrt(b^2 - 16nz))/4 with b = 1 + 2nz
            b = 1 + 2 * n_ * z
            return b * b - 16 * n_ * z

        # E(hat) = 1/(1 - hat) = sqrt(2) at rho, and T = 2 hat - 2nz
        def value_at(rho):
            return 2 * (1 - 1 / mp.sqrt(2)) - 2 * n_ * rho

        closed = ((3 - 2 * mp.sqrt(2)) / (2 * n_), mp.sqrt(2) - 1)
    else:
        # coefficient m of the Polya tail reads hat_(m/l) with l >= 2 only,
        # so up to order 2 order it never reads a padded zero
        hat = solve_half_series(model, n, order).coeffs
        log_pi = _SeriesEval(_polya_tail(PowerSeries(hat + [0] * order)))

        def cond(z):
            # branch point of y = (e^y Pi - 1 + 2nz)/2: e^y Pi = 2 with y = 1/2 + nz
            return 2 - mp.exp(mp.mpf(1) / 2 + n_ * z + log_pi(z))

        def lambert_e0(z):
            # E_0 = -2 W(x) solves E_0 e^(-E_0/2) = e^(nz - 1/2) Pi; hat's
            # lower branch is W's principal branch W_0
            x = -mp.exp(n_ * z - mp.mpf(1) / 2 + log_pi(z)) / 2
            branch = -mp.exp(-1)
            if x > branch:
                return -2 * mp.lambertw(x)
            if x < branch * (1 + mp.eps * 2 ** 8):
                raise NumericError("z beyond the branch point",
                                   diagnostics={"z": float(z), "x": float(x)})
            return mp.mpf(2)  # W_0(-1/e) = -1, up to rounding at z = rho

        def value_at(rho):
            return mp.mpf(1) / 2 + n_ * rho

        closed = None

    def parts(z, e0, u):
        # g, st and their log-slopes in hat: d log E_k/d hat is E_k for SEQ
        # (E_u = E^2) and 1 for MSET (E_u = E)
        if model.plane:
            e1, e2 = 1 / (u + z), 1 / (u + 2 * z)
            return z * e0 * e1, z * z * e0 * (2 * e1 * e2), e0 + e1, e0 + e1 + e2
        return z * e0, z * z * e0, 1, 1

    def values(z):
        if model.plane:
            hat = (1 + 2 * n_ * z - mp.sqrt(cond(z))) / 4
            t, e0, u = 2 * hat - 2 * n_ * z, 1 / (1 - hat), 1 - hat
        else:
            e0, u = lambert_e0(z), None
            t = e0 - 1
        g, st, _, _ = parts(z, e0, u)
        return {"T": t, "g": g, "st": st}

    def rates(rho):
        # E_0 at the branch point E_u = 2, and dT/dhat = 2
        u = 1 / mp.sqrt(2) if model.plane else None
        e0 = 1 / u if model.plane else mp.mpf(2)
        g, st, dlog_g, dlog_st = parts(rho, e0, u)
        return n_ * st * dlog_st / 2, g * dlog_g / 2

    return _Grammar({name: (lambda z, name=name: values(z)[name])
                     for name in ("T", "st", "g")},
                    cond, mp.mpf(1) / (4 * n_), value_at, closed, rates)


def _grammar(model: ModelId, n: int, order: int) -> _Grammar:
    _check_size(n, order)
    return (_eval_binary if model.binary else _eval_stratified)(model, n, order)


# ---------------------------------------------------------------------------
# dominant singularities


@dataclass(frozen=True)
class SingularityReport:
    """Everything known at a model's branch point at n variables.

    rho is the dominant singularity, found by method ("closed-form" or
    "numeric-system").  value_at_rho is T(rho) for catalan, assoc and comm
    (whose 1/2 can carry a complex rounding residue), for assoccomm (MSET) the
    half series hat(rho) = 1/2 + n rho, where T(rho) = 1 exactly.  w1 and w2
    are the rates there (w_rates), true_const = n w1 and literal_const = n^2 c
    rho (w1 + w2), c the simple-x factor.  All are read at the record's rho:
    numeric-system records of catalan and assoc carry them at the numeric rho,
    w_rates and the probabilities read the default method's."""
    model: ModelId
    n: int
    rho: object
    value_at_rho: object
    method: str
    w1: object
    w2: object
    true_const: object
    literal_const: object


def _regula_falsi(fn: Callable, lo, hi, rtol):
    """Zero of fn in [lo, hi] by regula falsi, to a bracket below rtol.

    Each step puts the secant through the bracket's ends, so every point
    stays inside the bracket and fn's derivative is never needed.  In the
    Illinois variant (Dowell & Jarratt, BIT 1971) a new point on the side of
    the last one halves the value of the end kept, so both ends close in on
    the zero.  No sign change, or a bracket still wider after 2 prec steps,
    more than bisection takes, raises NumericError.
    """
    a, fa, b, fb = lo, fn(lo), hi, fn(hi)
    if fa * fb > 0:
        raise NumericError("no sign change in bracket",
                           diagnostics={"lo": float(lo), "hi": float(hi)})
    steps = 2 * mp.mp.prec
    for _ in range(steps):
        c = b - fb * (b - a) / (fb - fa)
        fc = fn(c)
        if fc == 0:
            return c
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa /= 2  # c falls on b's side, so a is kept
        b, fb = c, fc
        if abs(b - a) < abs(c) * rtol:
            return c
    raise NumericError("regula falsi did not narrow the bracket",
                       diagnostics={"a": float(a), "b": float(b),
                                    "steps": steps})


def _bisect(fn: Callable, lo, hi, guess):
    """Zero of fn in [lo, hi] by bisection, to a bracket below 4 ulps.

    2 prec + log2((hi - lo)/max(|lo|, |hi|)) halvings reach 4 ulps of any zero
    above eps max(|lo|, |hi|); a bracket still wider raises NumericError.

    A step whose midpoint lies more than 2^20 ulps from the guess of the zero
    takes its side from the guess instead of evaluating fn.  Wherever fn's
    sign is right that far from its zero, the steps and the result are those
    of plain bisection; the final bracket is checked for a sign change, so a
    wrong guess raises NumericError.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo * fhi > 0:
        raise NumericError("no sign change in bracket",
                           diagnostics={"lo": float(lo), "hi": float(hi)})
    margin = abs(guess) * mp.eps * 2 ** 20
    steps = 2 * mp.mp.prec + int(mp.mag((hi - lo) / max(abs(lo), abs(hi))))
    for _ in range(steps):
        mid = (lo + hi) / 2
        if abs(mid - guess) > margin:
            if mid < guess:
                lo = mid
            else:
                hi = mid
        else:
            fm = fn(mid)
            if fm == 0:
                return mid
            if flo * fm <= 0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
        if hi - lo < abs(mid) * mp.eps * 4:
            break
    else:
        raise NumericError("bisection did not narrow the bracket to 4 ulps",
                           diagnostics={"lo": float(lo), "hi": float(hi),
                                        "steps": steps})
    if fn(lo) * fn(hi) > 0:
        raise NumericError("guess outside the final bracket",
                           diagnostics={"lo": float(lo), "hi": float(hi),
                                        "guess": float(guess)})
    return (lo + hi) / 2


def _check_precision(precision: int) -> None:
    if precision < 53:
        raise DomainError("precision must be >= 53 bits")


def dominant_singularity(model: ModelId, n: int,
                         precision: int = DEFAULT_PRECISION,
                         method: Optional[str] = None,
                         order: int = DEFAULT_ORDER) -> SingularityReport:
    """The record at the smallest positive singularity of the model series."""
    _check_precision(precision)
    if method is None:
        method = "closed-form" if model.plane else "numeric-system"
    return _dominant_singularity(model, n, precision, method, order)


@lru_cache(maxsize=None)
def _dominant_singularity(model: ModelId, n: int, precision: int, method: str,
                          order: int) -> SingularityReport:
    if method not in ("closed-form", "numeric-system"):
        raise DomainError("unknown method %r" % method)
    with mp.workprec(precision):
        grammar = _grammar(model, n, order)
        if method == "closed-form":
            if grammar.closed is None:
                raise DomainError("no closed form for %s" % model.value)
            rho, value = grammar.closed
        else:
            zero = mp.mpf(0)
            # bisection evaluates cond only near a 2^8-ulp regula falsi guess
            guess = _regula_falsi(grammar.cond, zero, grammar.hi, mp.eps * 256)
            rho = _bisect(grammar.cond, zero, grammar.hi, guess)
            value = grammar.value_at(rho)
        w1, w2 = grammar.rates(rho)
        if not all(isinstance(w, mp.mpf) and w > 0 for w in (w1, w2)):
            raise NumericError("branch-point rates are not positive reals",
                               diagnostics={"model": model.value, "n": n,
                                            "w1": str(w1), "w2": str(w2)})
        literal = mp.mpf(n) ** 2 * _simple_x_factor(model) * rho * (w1 + w2)
        return SingularityReport(model, n, rho, value, method, w1, w2,
                                 n * w1, literal)


# ---------------------------------------------------------------------------
# limiting ratios


RATIO_POINTS = 13  # K, the points of each Neville window in 1/m


def _extrapolate(ns, ys):
    """The value at 1/n = 0 of the polynomial in 1/n through the points
    (n, y), by Neville's scheme: exact on Fractions, rounded on mpf and
    float.  The ns must be distinct."""
    p = list(ys)
    for k in range(1, len(p)):
        p = [(ns[i] * p[i] - ns[i + k] * p[i + 1]) / (ns[i] - ns[i + k])
             for i in range(len(p) - 1)]
    return p[0]


@dataclass
class RatioResult:
    value: object
    diagnostics: dict = field(default_factory=dict)


def limiting_ratio(numerator: PowerSeries, denominator: PowerSeries,
                   precision: int = DEFAULT_PRECISION) -> RatioResult:
    """lim num_m/den_m, extrapolated from exact coefficient ratios in 1/m.

    Under a square-root dominant singularity alone on its circle, S_m/T_m
    and T_m/T_(m+1) expand in powers of 1/m (Flajolet & Sedgewick, Thm VI.1
    and VII.4).  The last K + 1 ratios, m = N - K..N with N the lower order,
    go to 1/m = 0 by Neville's scheme in Fractions over both windows of K
    points; the later window's value is converted once, at `precision`.

    diagnostics["error"], the distance between the two windows' values, is
    an estimate, not a bound: on the models' rates it read 4-11x below the
    true error.  One not below the last raw step |r_N - r_(N-1)|, unless 0,
    raises NumericError; a window with m < 1 or a zero den_m, DomainError.
    """
    _check_precision(precision)
    top = min(numerator.order, denominator.order)
    ms = range(top - RATIO_POINTS, top + 1)
    if ms[0] < 1 or not all(denominator[m] for m in ms):
        raise DomainError("m < 1 or den_m = 0 in m = %d..%d" % (ms[0], top))
    ratios = [Fraction(numerator[m]) / denominator[m] for m in ms]
    p = [_extrapolate(ms[i:i + RATIO_POINTS], ratios[i:i + RATIO_POINTS])
         for i in (0, 1)]
    err, step = abs(p[1] - p[0]), abs(ratios[-1] - ratios[-2])
    diagnostics = {"error": float(err), "step": float(step), "m": top}
    if err and not err < step:
        raise NumericError("ratio extrapolation did not converge",
                           diagnostics=diagnostics)
    value = mp.fdiv(p[1].numerator, p[1].denominator, prec=precision)
    return RatioResult(value, diagnostics)


# ---------------------------------------------------------------------------
# constants


def w_rates(model: ModelId, n: int, precision: int = DEFAULT_PRECISION,
            order: int = DEFAULT_ORDER):
    """Per-literal rates w1 = n * lim ST^x_m / T_m and w2 = lim g_x_m / T_m.

    ST^x counts the simple tautologies realized by the variable of x = x1,
    g_x the trees with an or-only path to x.  w1 sums the simple-tautology
    rate over the n variables.  n * w1 and n * P_n(True), with P_n(True) =
    lim_m P_{m,n}(True), share their n -> inf limit but differ at a fixed n.
    Both rates carry the full 1/n dependence.

    Each class is S = G(z, T) with G analytic at T's square-root branch
    point (rho, tau), so lim S_m/T_m = dG/dT there; tau comes from the
    branch condition, not from a square root of a vanishing discriminant.
    """
    rep = dominant_singularity(model, n, precision, order=order)
    return rep.w1, rep.w2


def probability_true(model: ModelId, n: int,
                     precision: int = DEFAULT_PRECISION,
                     order: int = DEFAULT_ORDER):
    """n^2 * lim_m ST^{x1}_m / T_m, the scaled simple-tautology rate.

    This is n * w1 (see w_rates).  As n -> inf it has the same limit as
    n * P_n(True), where P_n(True) = lim_m P_{m,n}(True), but at a fixed n
    it is a different value.
    """
    return dominant_singularity(model, n, precision, order=order).true_const


def probability_literal(model: ModelId, n: int,
                        precision: int = DEFAULT_PRECISION,
                        order: int = DEFAULT_ORDER):
    """n^2-scaled limit probability of computing the fixed literal x1.

    Combines the two simple-x shapes: a factor (4 rho plane / 2 rho
    non-plane) times (tautology part + repeated-literal part).
    """
    return dominant_singularity(model, n, precision, order=order).literal_const


REFERENCE_CONSTANTS = {
    (ModelId.CATALAN, "True"): lambda: mp.mpf(3) / 4,
    (ModelId.CATALAN, "literal"): lambda: mp.mpf(5) / 16,
    (ModelId.ASSOC, "True"): lambda: 51 - 36 * mp.sqrt(2),
    (ModelId.ASSOC, "literal"): lambda: 546 - 386 * mp.sqrt(2),
    (ModelId.COMM, "True"): lambda: mp.mpf(641) / 1024,
    (ModelId.COMM, "literal"): lambda: mp.mpf(1153) / 4096,
    (ModelId.ASSOC_COMM, "True"): lambda: (2 * mp.log(2) - 1) ** 2 / 4,
    (ModelId.ASSOC_COMM, "literal"):
        lambda: (2 * mp.log(2) - 1) ** 2 * (2 * mp.log(2) + 1) / 4,
}


def constant_estimate(model: ModelId, target: str,
                      n_grid=DEFAULT_N_GRID,
                      precision: int = DEFAULT_PRECISION,
                      order: int = DEFAULT_ORDER):
    """Estimate the n->inf constant from its values at the distinct n of
    n_grid, extrapolated to 1/n = 0 through all of them (_extrapolate).

    target 'True': n^2-free probability of a tautology (scaled by n).
    target 'literal': probability of the fixed literal (scaled by n^2).
    Returns (lambda, errorbar); the error bar is the shift when the
    smallest n is dropped from the extrapolation.
    """
    if target not in ("True", "literal"):
        raise DomainError("target must be 'True' or 'literal'")
    grid = sorted(set(n_grid))
    if len(grid) < 3:
        raise DomainError("n_grid needs at least 3 distinct values")
    attr = "true_const" if target == "True" else "literal_const"
    with mp.workprec(precision):
        ys = [getattr(dominant_singularity(model, n, precision, order=order),
                      attr) for n in grid]
        lam, lam2 = _extrapolate(grid, ys), _extrapolate(grid[1:], ys[1:])
        return lam, abs(lam - lam2)


def singularity_report(model: ModelId, n: int,
                       precision: int = DEFAULT_PRECISION,
                       order: int = DEFAULT_ORDER) -> dict:
    """JSON-ready summary for one (model, n)."""
    with mp.workprec(precision):
        rep = dominant_singularity(model, n, precision, order=order)
        return {
            "model": model.value,
            "n": n,
            "rho": mp.nstr(rep.rho, 30),
            "value_at_rho": mp.nstr(rep.value_at_rho, 30),
            "method": rep.method,
            "ratios": {
                "true_const": mp.nstr(rep.true_const, 20),
                "literal_const": mp.nstr(rep.literal_const, 20),
            },
            "diagnostics": {"precision_bits": precision, "order": order},
        }
