"""Dominant singularities, values at the singularity, limiting ratios.

Each model's counting series T has a square-root dominant singularity rho
on the positive axis, at a branch value tau.  Every class S counted here is
S = G(z, T) with G analytic at (rho, tau), so the limiting coefficient
ratio S_m/T_m is dG/dT at (rho, tau) (singularity analysis: Flajolet &
Sedgewick, Analytic Combinatorics, ch. VI and VII.4).  The rates are read
there in closed form; limiting_ratio, a geometric ladder z = rho(1 - eps_k)
on S'(z)/T'(z) with Richardson extrapolation in sqrt(eps), stays as an
independent check of them.

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
# Each factory returns (values, rates):
#   values:  closures of z for T (model series), st (simple tautologies
#            realized by x1, ST^x) and g (or-only path to a leaf x1, g_x)
#   rates:   rho -> (w1, w2) = (n dst/dT, dg/dT) at the branch point (rho, tau)


def _eval_binary(model: ModelId, n: int, order: int):
    """A node takes a pair of children: pairs(y) = a y^2 + y(z^2)/2, with
    a = 1 and no z^2 term if plane, a = 1/2 if not (z^2 terms from the
    truncated series).

    T = 2nz + 2 pairs(T) and gbar = (2n - 1)z + pairs(T) + pairs(gbar) have
    the form y = P + A y^2, so y = (1 - sqrt(1 - 4AP))/(2A).  The trees that
    are not simple tautologies, stbar = 2nz + pairs(T) + 2 pairs(gbar) -
    pairs(2 gbar - stbar), solve a y^2 + (1 - 4a gbar) y = 2nz + pairs(T) -
    2a gbar^2 + stbar(z^2)/2.  gbar and stbar are written once as functions
    of (z, T): the values put in T(z), the rates the branch value tau = 1/(4a)
    where T's square root vanishes.
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

    def T(z):
        return (1 - mp.sqrt(1 - 8 * a * 2 * n_ * z - 8 * a * t2(z))) / (4 * a)

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

    return {"T": T, "st": st, "g": g}, rates


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


def _eval_stratified(model: ModelId, n: int, order: int):
    """A node takes a sequence (plane) or multiset (non-plane) of >= 2
    children: many(u) = E(u) - 1 - u, with E(u) = 1/(1 - u) for SEQ and
    E(u) = e^u Pi(z) for MSET, log Pi(z) = sum over l >= 2 of hat(z^l)/l
    (the truncated half series).

    hat = 2nz + many(hat) solves E(hat) = 1 + 2 hat - 2nz on its lower
    branch and T = 2 hat - 2nz.  With E_k the E of hat - kz, g = E_0 - E_1
    and st = E_0 - 2 E_1 + E_2 are evaluated without cancellation as
    g = z E_0 q1 and st = z^2 E_0 q2: q1 = q2 = 1 for MSET, where
    E_k = (1 - z)^k E_0, and q1 = E_1, q2 = 2 E_1 E_2 for SEQ.  They are
    written once as functions of (z, E_0, u = 1 - hat): the values put in
    hat(z), the rates the branch point E_u = 2, where E_0 = sqrt(2) for SEQ
    and E_0 = 2 for MSET.
    """
    n_ = mp.mpf(n)
    if not model.plane:
        ev_hat = _SeriesEval(solve_half_series(model, n, order))

    def parts(z, e0, u):
        # g, st and their log-slopes in hat: d log E_k/d hat is E_k for SEQ
        # (E_u = E^2) and 1 for MSET (E_u = E)
        if model.plane:
            e1, e2 = 1 / (u + z), 1 / (u + 2 * z)
            return z * e0 * e1, z * z * e0 * (2 * e1 * e2), e0 + e1, e0 + e1 + e2
        return z * e0, z * z * e0, 1, 1

    def values(z):
        if model.plane:
            b = 1 + 2 * n_ * z
            hat = (b - mp.sqrt(b * b - 16 * n_ * z)) / 4
            e0, u = 1 / (1 - hat), 1 - hat
        else:
            pi = mp.exp(_log_pi(ev_hat, z))
            # E(y) - 1 - 2y + 2nz falls from y = 0 to the branch point E(y) = 2
            hat = _bisect(lambda y: mp.exp(y) * pi - 1 - 2 * y + 2 * n_ * z,
                          mp.mpf(0), mp.log(2 / pi))
            e0, u = mp.exp(hat) * pi, None
        g, st, _, _ = parts(z, e0, u)
        return {"T": 2 * hat - 2 * n_ * z, "g": g, "st": st}

    def rates(rho):
        # E_0 at the branch point E_u = 2, and dT/dhat = 2
        if model.plane:
            u = 1 / mp.sqrt(2)
            e0 = 1 / u
        else:
            e0, u = mp.mpf(2), None
        g, st, dlog_g, dlog_st = parts(rho, e0, u)
        return n_ * st * dlog_st / 2, g * dlog_g / 2

    return {name: (lambda z, name=name: values(z)[name])
            for name in ("T", "st", "g")}, rates


def _evaluators(model: ModelId, n: int, order: int):
    return (_eval_binary if model.binary else _eval_stratified)(model, n, order)


def analytic_evaluators(model: ModelId, n: int, order: int = DEFAULT_ORDER):
    """Closed/implicit evaluators z -> T, ST^x and g_x, keyed "T", "st", "g".

    They hold up to the dominant singularity; the z^2 and z^l terms come
    from the order-`order` series.
    """
    return _evaluators(model, n, order)[0]


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
        elif model is ModelId.ASSOC:
            # T = 2 hat - 2nz with E(hat) = 1/(1 - hat) = sqrt(2) there
            value = 2 * (1 - 1 / mp.sqrt(2)) - 2 * n_ * rho
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
    """(w1, w2) = (n dST^x/dT, dg_x/dT) at the branch point, high precision."""
    with mp.workprec(precision):
        rho = dominant_singularity(model, n, precision, order=order).rho
        w1, w2 = _evaluators(model, n, order)[1](rho)
        if not all(isinstance(w, mp.mpf) and w > 0 for w in (w1, w2)):
            raise NumericError("branch-point rates are not positive reals",
                               diagnostics={"model": model.value, "n": n,
                                            "w1": str(w1), "w2": str(w2)})
        return w1, w2


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


def fit_limit(ns, vals):
    """lam of the least-squares fit y = lam + c/n, at the working precision."""
    s1 = mp.mpf(len(ns))
    sx = mp.fsum(1 / mp.mpf(n) for n in ns)
    sxx = mp.fsum(1 / mp.mpf(n) ** 2 for n in ns)
    sy = mp.fsum(vals)
    sxy = mp.fsum(v / mp.mpf(n) for n, v in zip(ns, vals))
    det = s1 * sxx - sx * sx
    return (sxx * sy - sx * sxy) / det


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
        lam = fit_limit(grid, ys)
        lam2 = fit_limit(grid[1:], ys[1:])
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
