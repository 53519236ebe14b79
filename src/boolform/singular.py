"""Dominant singularities, values at the singularity, limiting ratios.

Each model's counting series has a square-root dominant singularity on the
positive axis.  Limiting coefficient ratios S_m/T_m are computed as
lim_{z->rho} S'(z)/T'(z) on a geometric ladder z = rho(1-eps_k) with
Richardson extrapolation in sqrt(eps).

Near the singularity the truncated series are useless (the tail decays
like (1-eps)^order), so the evaluators here use the closed radical or
implicit form of each equation; truncated series only enter through the
z^2- and z^l-substituted terms, which sit deep inside the disk of
convergence and converge geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

import mpmath as mp

from .errors import DomainError, NumericError
from .series import (DEFAULT_ORDER, PowerSeries, solve_aux_series,
                     solve_half_series, solve_model_series)
from .trees import ModelId

DEFAULT_PRECISION = 256


class _SeriesEval:
    """Horner evaluator of a truncated series at mpf arguments.

    Each Fraction coefficient is converted to mpf once per working precision,
    as mpf(numerator)/mpf(denominator) at that precision, and each value is
    kept per (precision, argument) for the life of the evaluator.  With
    tail_check, a geometric tail that is not negligible raises NumericError.
    """

    def __init__(self, s: PowerSeries, tail_check: bool = True):
        self.coeffs = s.coeffs
        self.tail_check = tail_check
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
        if self.tail_check:
            tail = abs(coeffs[-1] * z ** (len(coeffs) - 1))
            # geometric tail estimate must be well below the needed accuracy
            if tail > (abs(acc) + mp.mpf("1e-30")) * mp.mpf("1e-25"):
                raise NumericError("series tail not negligible at z=%s" % z,
                                   diagnostics={"tail": float(tail),
                                                "value": float(acc)})
        seen[z] = acc
        return acc


# ---------------------------------------------------------------------------
# per-model analytic evaluators
#
# Each factory returns a dict of closures:
#   T, dT:     model series and derivative
#   st, dst:   simple tautologies realized by x1 (ST^x)
#   g, dg:     or-only path to a leaf x1 (g_x)


def _eval_binary(model: ModelId, n: int, order: int):
    """A node takes a pair of children: pairs(y) = a y^2 + y(z^2)/2, with
    a = 1 and no z^2 term if plane, a = 1/2 if not (z^2 terms from the
    truncated series).

    T = 2nz + 2 pairs(T) and gbar = (2n - 1)z + pairs(T) + pairs(gbar) have
    the form y = P + A y^2, so y = (1 - root)/(2A) with root = sqrt(1 - 4AP)
    and y' = P'/root.  The trees that are not simple tautologies, stbar =
    2nz + pairs(T) + 2 pairs(gbar) - pairs(2 gbar - stbar), solve
    a y^2 + (1 - 4a gbar) y = 2nz + pairs(T) - 2a gbar^2 + stbar(z^2)/2.
    """
    n_ = mp.mpf(n)
    a = mp.mpf(1) if model.plane else mp.mpf(1) / 2

    def at_z2(series):
        # y(z^2) and z y'(z^2), the z^2 terms of pairs(y) and its derivative
        if model.plane:
            return (lambda z: 0), (lambda z: 0)
        s = series()
        ev, dev = _SeriesEval(s), _SeriesEval(s.derivative())
        return (lambda z: ev(z * z)), (lambda z: z * dev(z * z))

    t2, dt2 = at_z2(lambda: solve_model_series(model, n, order))
    gbar2, dgbar2 = at_z2(lambda: solve_aux_series(model, "gbar_x", n, order))
    stbar2, dstbar2 = at_z2(lambda: solve_aux_series(model, "stbar_x", n, order))

    def pairs(y, y2):
        return a * y ** 2 + y2 / 2

    def dpairs(y, dy, dy2):
        return 2 * a * y * dy + dy2

    def root_t(z):
        return mp.sqrt(1 - 8 * a * 2 * n_ * z - 8 * a * t2(z))

    def T(z):
        return (1 - root_t(z)) / (4 * a)

    def dT(z):
        return (2 * n_ + 2 * dt2(z)) / root_t(z)

    def root_gbar(z):
        q = (2 * n_ - 1) * z + pairs(T(z), t2(z)) + gbar2(z) / 2
        return mp.sqrt(1 - 4 * a * q)

    def gbar(z):
        return (1 - root_gbar(z)) / (2 * a)

    def dgbar(z):
        qp = (2 * n_ - 1) + dpairs(T(z), dT(z), dt2(z)) + dgbar2(z)
        return qp / root_gbar(z)

    def g(z):
        return T(z) - gbar(z)

    def dg(z):
        return dT(z) - dgbar(z)

    def stbar(z):
        gb = gbar(z)
        q = 2 * n_ * z + pairs(T(z), t2(z)) + stbar2(z) / 2 - 2 * a * gb ** 2
        b = 1 - 4 * a * gb
        return (-b + mp.sqrt(b * b + 4 * a * q)) / (2 * a)

    def dstbar(z):
        gb, dgb = gbar(z), dgbar(z)
        sb = stbar(z)
        qp = (2 * n_ + dpairs(T(z), dT(z), dt2(z)) + dstbar2(z)
              - 4 * a * gb * dgb)
        return (qp + 4 * a * dgb * sb) / (2 * a * sb + 1 - 4 * a * gb)

    def st(z):
        return T(z) - stbar(z)

    def dst(z):
        return dT(z) - dstbar(z)

    return {"T": T, "dT": dT, "st": st, "dst": dst, "g": g, "dg": dg}


def _F(u):
    return u * u / (1 - u)


def _dF(u):
    return (2 * u - u * u) / (1 - u) ** 2


def _eval_assoc(n: int, order: int):
    n_ = mp.mpf(n)

    def hat(z):
        b = 1 + 2 * n_ * z
        return (b - mp.sqrt(b * b - 16 * n_ * z)) / 4

    def dhat(z):
        h = hat(z)
        return 2 * n_ * (1 - h) / (1 + 2 * n_ * z - 4 * h)

    def T(z):
        return 2 * hat(z) - 2 * n_ * z

    def dT(z):
        return 2 * dhat(z) - 2 * n_

    def g(z):
        h = hat(z)
        return z + _F(h) - _F(h - z)

    def dg(z):
        h, dh = hat(z), dhat(z)
        return 1 + _dF(h) * dh - _dF(h - z) * (dh - 1)

    def st(z):
        h = hat(z)
        return _F(h) - 2 * _F(h - z) + _F(h - 2 * z)

    def dst(z):
        h, dh = hat(z), dhat(z)
        return _dF(h) * dh - 2 * _dF(h - z) * (dh - 1) + _dF(h - 2 * z) * (dh - 2)

    return {"T": T, "dT": dT, "st": st, "dst": dst, "g": g, "dg": dg}


_TAIL_TERMS_MAX = 6000


def _tail_sum(z, fn):
    """Sum over l >= 2 of fn(l), whose terms shrink like z^l."""
    acc = mp.mpf(0)
    l = 2
    while True:
        term = fn(l)
        acc += term
        if abs(z) ** l < mp.eps * mp.mpf(2) ** -16:
            return acc
        if l > _TAIL_TERMS_MAX:
            raise NumericError("Polya tail sum did not converge",
                               diagnostics={"z": float(z), "l": l,
                                            "term": float(abs(term))})
        l += 1


def _log_pi(ev_hat, z):
    """Polya tail: log Pi(z) = sum over l >= 2 of hat(z^l)/l."""
    return _tail_sum(z, lambda l: ev_hat(z ** l) / l)


def _dlog_pi(ev_dhat, z):
    """Derivative of log Pi: sum over l >= 2 of z^(l-1) hat'(z^l)."""
    return _tail_sum(z, lambda l: z ** (l - 1) * ev_dhat(z ** l))


def _eval_assoccomm(n: int, order: int):
    n_ = mp.mpf(n)
    hat_series = solve_half_series(ModelId.ASSOC_COMM, n, order)
    ev_hat = _SeriesEval(hat_series)
    ev_dhat = _SeriesEval(hat_series.derivative())

    hat_cache: dict = {}

    def hat(z):
        # solve y = (exp(y)*Pi(z) - 1 + 2nz)/2 on the lower branch, where
        # phi(y) = y - rhs is increasing up to the branch point e^y Pi = 2
        if z in hat_cache:
            return hat_cache[z]
        pi = mp.exp(_log_pi(ev_hat, z))

        def phi(y):
            return y - (mp.exp(y) * pi - 1 + 2 * n_ * z) / 2

        ycrit = mp.log(2 / pi)
        if phi(ycrit) < 0:
            raise NumericError("argument beyond the branch point",
                               diagnostics={"z": float(z)})
        lo, hi = mp.mpf(0), ycrit
        for _ in range(mp.mp.prec + 20):
            mid = (lo + hi) / 2
            if phi(mid) <= 0:
                lo = mid
            else:
                hi = mid
        y = (lo + hi) / 2
        hat_cache[z] = y
        return y

    dhat_cache: dict = {}

    def dhat(z):
        # dT and both _dw need it at every rung
        if z in dhat_cache:
            return dhat_cache[z]
        y = hat(z)
        e = mp.exp(y) * mp.exp(_log_pi(ev_hat, z))
        dy = (n_ + e * _dlog_pi(ev_dhat, z) / 2) / (1 - e / 2)
        dhat_cache[z] = dy
        return dy

    def T(z):
        return 2 * hat(z) - 2 * n_ * z

    def dT(z):
        return 2 * dhat(z) - 2 * n_

    def _w(z, shift: int):
        # sum over l >= 1 of (hat(z^l) - shift*z^l)/l, exact leading term
        acc = hat(z) - shift * z
        acc += _tail_sum(z, lambda l: (ev_hat(z ** l) - shift * z ** l) / l)
        return acc

    def _dw(z, shift: int):
        acc = dhat(z) - shift
        acc += _tail_sum(z, lambda l: z ** (l - 1) * (ev_dhat(z ** l) - shift))
        return acc

    def g(z):
        return z / (1 - z) * mp.exp(_w(z, 1))

    def dg(z):
        return g(z) * (1 / z + 1 / (1 - z) + _dw(z, 1))

    def st(z):
        return (z / (1 - z)) ** 2 * mp.exp(_w(z, 2))

    def dst(z):
        return st(z) * (2 / z + 2 / (1 - z) + _dw(z, 2))

    return {"T": T, "dT": dT, "st": st, "dst": dst, "g": g, "dg": dg}


def analytic_evaluators(model: ModelId, n: int, order: int = DEFAULT_ORDER):
    """Closed/implicit evaluators for T, ST^x, g_x and their derivatives."""
    if model.binary:
        return _eval_binary(model, n, order)
    return (_eval_assoc if model.plane else _eval_assoccomm)(n, order)


# ---------------------------------------------------------------------------
# dominant singularities


@dataclass(frozen=True)
class SingularityReport:
    model: ModelId
    n: int
    rho: object
    value_at_rho: object
    method: str


def _bisect(fn: Callable, lo, hi, iters: int = 400, guess=None):
    """Zero of fn in [lo, hi] by bisection.

    With a guess of the zero, a step whose midpoint lies more than 2^20 ulps
    from the guess takes its side from the guess instead of evaluating fn.
    Wherever fn's sign is right that far from its zero, the steps and the
    result are those of plain bisection; the final bracket is checked for a
    sign change, so a wrong guess raises NumericError.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo * fhi > 0:
        raise NumericError("no sign change in bracket",
                           diagnostics={"lo": float(lo), "hi": float(hi)})
    margin = None if guess is None else abs(guess) * mp.eps * 2 ** 20
    for _ in range(iters):
        mid = (lo + hi) / 2
        if margin is not None and abs(mid - guess) > margin:
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
    if guess is not None and fn(lo) * fn(hi) > 0:
        raise NumericError("guess outside the final bracket",
                           diagnostics={"lo": float(lo), "hi": float(hi),
                                        "guess": float(guess)})
    return (lo + hi) / 2


_NEWTON_STEPS_MAX = 100


def _newton(fn: Callable, dfn: Callable, lo, hi, rtol):
    """Zero of fn in [lo, hi] by Newton steps from hi, to a step below rtol.

    Suited to a monotone fn that is convex or concave on the bracket, where
    every step stays inside it; a step that leaves the bracket, or no
    convergence within _NEWTON_STEPS_MAX steps, raises NumericError.  rtol
    must stay above the relative rounding noise of fn's zero.
    """
    flo = fn(lo)
    fz = fn(hi)
    if flo * fz > 0:
        raise NumericError("no sign change in bracket",
                           diagnostics={"lo": float(lo), "hi": float(hi)})
    z = hi
    for k in range(_NEWTON_STEPS_MAX):
        if fz == 0:
            return z
        step = fz / dfn(z)
        z_next = z - step
        if not lo <= z_next <= hi:
            raise NumericError("Newton step left the bracket",
                               diagnostics={"lo": float(lo), "hi": float(hi),
                                            "z": float(z_next), "iterations": k + 1})
        z = z_next
        if abs(step) <= abs(z) * rtol:
            return z
        fz = fn(z)
    raise NumericError("Newton did not converge",
                       diagnostics={"z": float(z), "step": float(step),
                                    "iterations": _NEWTON_STEPS_MAX})


def _branch_condition(model: ModelId, n: int, order: int):
    """(f, f') with f's smallest positive zero the singularity.

    f' is None where plain bisection is cheap enough.
    """
    n_ = mp.mpf(n)
    if model is ModelId.CATALAN:
        return (lambda z: 1 - 16 * n_ * z), None
    if model is ModelId.ASSOC:
        return (lambda z: (1 + 2 * n_ * z) ** 2 - 16 * n_ * z), None
    if model is ModelId.COMM:
        ev_c = _SeriesEval(solve_model_series(ModelId.COMM, n, order))
        return (lambda z: 1 - 8 * n_ * z - 4 * ev_c(z * z)), None
    hat_series = solve_half_series(ModelId.ASSOC_COMM, n, order)
    ev_hat = _SeriesEval(hat_series)
    # the derivative only steers Newton's steps, so its tail goes unchecked
    ev_dhat = _SeriesEval(hat_series.derivative(), tail_check=False)

    def cond(z):
        # branch point of y = (e^y Pi - 1 + 2nz)/2: e^y Pi = 2 with y = 1/2 + nz
        return 2 - mp.exp(mp.mpf(1) / 2 + n_ * z + _log_pi(ev_hat, z))

    def dcond(z):
        return (cond(z) - 2) * (n_ + _dlog_pi(ev_dhat, z))

    return cond, dcond


def _check_precision(precision: int) -> None:
    if precision < 53:
        raise DomainError("precision must be >= 53 bits")


def dominant_singularity(model: ModelId, n: int,
                         precision: int = DEFAULT_PRECISION,
                         method: Optional[str] = None,
                         order: int = DEFAULT_ORDER) -> SingularityReport:
    """Smallest positive singularity of the model series and its value there."""
    if n < 1:
        raise DomainError("n must be >= 1")
    _check_precision(precision)
    if method is None:
        method = "closed-form" if model in (ModelId.CATALAN, ModelId.ASSOC) else "numeric-system"
    return _dominant_singularity(model, n, precision, method, order)


@lru_cache(maxsize=None)
def _dominant_singularity(model: ModelId, n: int, precision: int, method: str,
                          order: int) -> SingularityReport:
    with mp.workprec(precision):
        n_ = mp.mpf(n)
        if method == "closed-form":
            if model is ModelId.CATALAN:
                rho = 1 / (16 * n_)
                value = mp.mpf(1) / 4
            elif model is ModelId.ASSOC:
                rho = (3 - 2 * mp.sqrt(2)) / (2 * n_)
                value = mp.sqrt(2) - 1
            else:
                raise DomainError("no closed form for %s" % model.value)
            return SingularityReport(model, n, rho, value, method)
        if method != "numeric-system":
            raise DomainError("unknown method %r" % method)
        cond, dcond = _branch_condition(model, n, order)
        # initial bracket chosen so any z^2 / z^l substitutions stay well
        # inside the disk of convergence
        if model is ModelId.COMM:
            hi = mp.mpf(1) / (8 * n_)
        elif model is ModelId.ASSOC_COMM:
            hi = mp.mpf(1) / (4 * n_)
        else:
            hi = mp.mpf(1) / (2 * n_)
        while cond(hi) > 0:
            hi *= 2
            if hi > 10:
                raise NumericError("failed to bracket the singularity",
                                   diagnostics={"model": model.value, "n": n})
        # Newton finds the zero to 2^8 ulps in a few steps; bisection then
        # needs fn only near it, and gives the same bits as without the guess
        guess = None if dcond is None else _newton(cond, dcond, mp.mpf(0), hi,
                                                   mp.eps * 2 ** 8)
        rho = _bisect(cond, mp.mpf(0), hi, guess=guess)
        if model is ModelId.ASSOC_COMM:
            # at the branch point the half-series value is 1/2 + n*rho
            value = mp.mpf(1) / 2 + n_ * rho
        else:
            value = analytic_evaluators(model, n, order)["T"](rho)
        return SingularityReport(model, n, rho, value, method)


# ---------------------------------------------------------------------------
# limiting ratios


@dataclass
class RatioResult:
    kind: str
    value: object
    diagnostics: dict = field(default_factory=dict)


Evaluator = Union[PowerSeries, Callable]


def _as_derivative_fn(obj: Evaluator) -> Callable:
    if isinstance(obj, PowerSeries):
        return _SeriesEval(obj.derivative(), tail_check=False)
    return obj


def limiting_ratio(numerator: Evaluator, denominator: Evaluator, rho,
                   precision: int = DEFAULT_PRECISION,
                   eps0: float = 1e-2, levels: int = 20,
                   kind: str = "ratio") -> RatioResult:
    """lim_{z->rho} S'(z)/T'(z) by ladder evaluation plus extrapolation.

    numerator / denominator: a PowerSeries (its derivative is evaluated by
    Horner; accuracy is limited by the truncation order) or a callable
    z -> S'(z).  The ladder is eps_k = eps0 * 2^-k; extrapolation is
    Richardson in sqrt(eps), matching the square-root singular expansion.
    """
    _check_precision(precision)
    with mp.workprec(precision):
        fnum = _as_derivative_fn(numerator)
        fden = _as_derivative_fn(denominator)
        rho = mp.mpf(rho) if not isinstance(rho, mp.mpf) else rho
        ladder = []
        for k in range(levels + 1):
            eps = mp.mpf(eps0) * mp.mpf(2) ** -k
            z = rho * (1 - eps)
            ladder.append(fnum(z) / fden(z))
        # Richardson in sqrt(eps): ratio(eps) = L + a*sqrt(eps) + b*eps + ...
        rows = [list(ladder)]
        for j in range(1, levels + 1):
            prev = rows[-1]
            fac = mp.mpf(2) ** (mp.mpf(j) / 2) - 1
            rows.append([prev[k] + (prev[k] - prev[k - 1]) / fac
                         for k in range(1, len(prev))])
        diag = [rows[j][-1] for j in range(len(rows)) if rows[j]]
        value = diag[-1]
        err = abs(diag[-1] - diag[-2]) if len(diag) > 1 else mp.inf
        raw_err = abs(ladder[-1] - ladder[-2])
        if not (err < raw_err or err < abs(value) * mp.mpf(1e-6) + mp.mpf(1e-30)):
            raise NumericError("ratio ladder failed to converge",
                               diagnostics={"ladder": [float(x) for x in ladder],
                                            "extrapolants": [float(x) for x in diag]})
        return RatioResult(kind, value, {
            "ladder": [float(x) for x in ladder],
            "extrapolants": [float(x) for x in diag],
            "error": float(err),
        })


# ---------------------------------------------------------------------------
# constants


def _plane_factor(model: ModelId) -> int:
    return 4 if model.plane else 2


@lru_cache(maxsize=None)
def _rates(model: ModelId, n: int, precision: int, order: int):
    """(w1, w2) = (n * st-ratio, g-ratio) at this n, high precision."""
    with mp.workprec(precision):
        rho = dominant_singularity(model, n, precision, order=order).rho
        ev = analytic_evaluators(model, n, order)
        r_st = limiting_ratio(ev["dst"], ev["dT"], rho, precision, kind="st_x").value
        r_g = limiting_ratio(ev["dg"], ev["dT"], rho, precision, kind="g_x").value
        return n * r_st, r_g


def w_rates(model: ModelId, n: int, precision: int = DEFAULT_PRECISION,
            order: int = DEFAULT_ORDER):
    """Per-literal rates w1 = n * lim ST^x_m / T_m and w2 = lim g_x_m / T_m.

    ST^x counts the simple tautologies realized by the variable of x = x1,
    g_x the trees with an or-only path to x.  w1 sums the simple-tautology
    rate over the n variables.  n * w1 and n * P_n(True), with P_n(True) =
    lim_m P_{m,n}(True), share their n -> inf limit but differ at a fixed n.
    Both rates carry the full 1/n dependence.
    """
    return _rates(model, n, precision, order)


def probability_true(model: ModelId, n: int,
                     precision: int = DEFAULT_PRECISION,
                     order: int = DEFAULT_ORDER):
    """n^2 * lim_m ST^{x1}_m / T_m, the scaled simple-tautology rate.

    This is n * w1 (see w_rates).  As n -> inf it has the same limit as
    n * P_n(True), where P_n(True) = lim_m P_{m,n}(True), but at a fixed n
    it is a different value.
    """
    w1, _ = _rates(model, n, precision, order)
    return n * w1


def probability_literal(model: ModelId, n: int,
                        precision: int = DEFAULT_PRECISION,
                        order: int = DEFAULT_ORDER):
    """n^2-scaled limit probability of computing the fixed literal x1.

    Combines the two simple-x shapes: a factor (4 rho plane / 2 rho
    non-plane) times (tautology part + repeated-literal part).
    """
    with mp.workprec(precision):
        w1, w2 = _rates(model, n, precision, order)
        rho = dominant_singularity(model, n, precision, order=order).rho
        return mp.mpf(n) ** 2 * _plane_factor(model) * rho * (w1 + w2)


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
                      n_grid=(100, 200, 400),
                      precision: int = DEFAULT_PRECISION,
                      order: int = DEFAULT_ORDER):
    """Estimate the n->inf constant by fitting lambda + c/n over n_grid.

    target 'True': n^2-free probability of a tautology (scaled by n).
    target 'literal': probability of the fixed literal (scaled by n^2).
    Returns (lambda, errorbar); the error bar is the shift when the
    smallest n is dropped from the fit.
    """
    if target not in ("True", "literal"):
        raise DomainError("target must be 'True' or 'literal'")
    if len(set(n_grid)) < 3:
        raise DomainError("n_grid needs at least 3 distinct values")
    grid = sorted(n_grid)
    with mp.workprec(precision):
        ys = []
        for n in grid:
            if target == "True":
                ys.append(probability_true(model, n, precision, order))
            else:
                ys.append(probability_literal(model, n, precision, order))

        def fit(ns, vals):
            # least squares for y = lam + c/n
            s1 = mp.mpf(len(ns))
            sx = mp.fsum(1 / mp.mpf(n) for n in ns)
            sxx = mp.fsum(1 / mp.mpf(n) ** 2 for n in ns)
            sy = mp.fsum(vals)
            sxy = mp.fsum(v / mp.mpf(n) for n, v in zip(ns, vals))
            det = s1 * sxx - sx * sx
            return (sxx * sy - sx * sxy) / det

        lam = fit(grid, ys)
        lam2 = fit(grid[1:], ys[1:])
        return lam, abs(lam - lam2)


def singularity_report(model: ModelId, n: int,
                       precision: int = DEFAULT_PRECISION,
                       order: int = DEFAULT_ORDER) -> dict:
    """JSON-ready summary for one (model, n)."""
    with mp.workprec(precision):
        rep = dominant_singularity(model, n, precision, order=order)
        w1, w2 = w_rates(model, n, precision, order)
        return {
            "model": model.value,
            "n": n,
            "rho": mp.nstr(rep.rho, 30),
            "value_at_rho": mp.nstr(rep.value_at_rho, 30),
            "method": rep.method,
            "ratios": {
                "true_const": mp.nstr(probability_true(model, n, precision, order), 20),
                "literal_const": mp.nstr(probability_literal(model, n, precision, order), 20),
            },
            "diagnostics": {"precision_bits": precision, "order": order},
        }
