"""Exact truncated power series and the model functional equations.

Coefficients are Fractions; every operation is exact to the stored order.
Functional equations are solved coefficient by coefficient: the right-hand
side is affine in the unknown coefficient being determined (checked by a
three-point probe), so each coefficient is obtained by solving a linear
equation.  This covers the plain fixed points (where the slope is 0) and
the exponential equation of the non-plane stratified model (slope 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import DomainError
from .trees import ModelId

DEFAULT_ORDER = 64


class PowerSeries:
    """Truncated formal power series with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [Fraction(c) for c in coeffs]
        if not self.coeffs:
            self.coeffs = [Fraction(0)]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int) -> Fraction:
        return self.coeffs[m] if 0 <= m <= self.order else Fraction(0)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries([0] * (order + 1))

    @staticmethod
    def monomial(coeff, power: int, order: int) -> "PowerSeries":
        c = [Fraction(0)] * (order + 1)
        if power <= order:
            c[power] = Fraction(coeff)
        return PowerSeries(c)

    def truncate(self, order: int) -> "PowerSeries":
        c = self.coeffs[: order + 1]
        c += [Fraction(0)] * (order + 1 - len(c))
        return PowerSeries(c)

    # -- arithmetic ----------------------------------------------------

    def _order_with(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        d = self._order_with(other)
        return PowerSeries([self[m] + other[m] for m in range(d + 1)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        d = self._order_with(other)
        return PowerSeries([self[m] - other[m] for m in range(d + 1)])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        d = self._order_with(other)
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (d + 1)
        for i in range(min(len(a) - 1, d) + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(len(b) - 1, d - i) + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return PowerSeries(out)

    def scale(self, factor) -> "PowerSeries":
        f = Fraction(factor)
        return PowerSeries([c * f for c in self.coeffs])

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise DomainError("inverse needs nonzero constant term")
        d = self.order
        out = [Fraction(0)] * (d + 1)
        out[0] = 1 / self.coeffs[0]
        for m in range(1, d + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                acc += self[k] * out[m - k]
            out[m] = -acc / self.coeffs[0]
        return PowerSeries(out)

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term, via E' = U'E."""
        if self.coeffs[0] != 0:
            raise DomainError("exp needs zero constant term")
        d = self.order
        out = [Fraction(0)] * (d + 1)
        out[0] = Fraction(1)
        for m in range(1, d + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if self[k]:
                    acc += k * self[k] * out[m - k]
            out[m] = acc / m
        return PowerSeries(out)

    def substitute_power(self, k: int) -> "PowerSeries":
        """S(z) -> S(z^k), same truncation order."""
        if k < 1:
            raise DomainError("substitution power must be >= 1")
        d = self.order
        out = [Fraction(0)] * (d + 1)
        for m in range(0, d // k + 1):
            out[m * k] = self[m]
        return PowerSeries(out)

    def derivative(self) -> "PowerSeries":
        return PowerSeries([m * self[m] for m in range(1, self.order + 1)])

    def evaluate(self, z):
        """Horner evaluation; exact for Fraction z, float/mpf otherwise."""
        acc = z * 0
        for c in reversed(self.coeffs):
            acc = acc * z + (c if isinstance(z, Fraction) else type(z)(c.numerator) / type(z)(c.denominator))
        return acc

    # -- export --------------------------------------------------------

    def to_json(self) -> list[str]:
        return ["%d/%d" % (c.numerator, c.denominator) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return "PowerSeries([%s%s])" % (head, ", ..." if self.order > 5 else "")


def polya_sum(s: PowerSeries) -> PowerSeries:
    """Sum over i >= 1 of s(z^i)/i; s must have zero constant term."""
    if s.coeffs[0] != 0:
        raise DomainError("polya_sum needs zero constant term")
    d = s.order
    out = [Fraction(0)] * (d + 1)
    for i in range(1, d + 1):
        for m in range(1, d // i + 1):
            if s[m]:
                out[m * i] += s[m] / i
    return PowerSeries(out)


def log_one_minus_z(order: int) -> PowerSeries:
    """Truncation of -log(1-z) = sum z^l/l."""
    return PowerSeries([Fraction(0)] + [Fraction(1, l) for l in range(1, order + 1)])


# ---------------------------------------------------------------------------
# fixed-point solver


def solve_equation(rhs: Callable[[PowerSeries], PowerSeries],
                   order: int) -> PowerSeries:
    """Solve S = rhs(S) coefficient by coefficient.

    Coefficient m of rhs(S) must be affine in S_m with slope != 1 and must
    not depend on coefficients above m; both are probed numerically (three
    evaluation points on the first few coefficients, two afterwards).
    """
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        def probe(value: Fraction) -> Fraction:
            coeffs[m] = value
            return rhs(PowerSeries(coeffs[: m + 1]))[m]

        r0 = probe(Fraction(0))
        r1 = probe(Fraction(1))
        slope = r1 - r0
        if m <= 4:
            r2 = probe(Fraction(2))
            if r2 - r1 != slope:
                raise DomainError("equation not affine in coefficient %d" % m)
        if slope == 1:
            raise DomainError("ill-founded equation at coefficient %d" % m)
        coeffs[m] = r0 / (1 - slope)
    return PowerSeries(coeffs)


# ---------------------------------------------------------------------------
# model equations


def _rhs_catalan(n: int):
    def rhs(s: PowerSeries) -> PowerSeries:
        return PowerSeries.monomial(2 * n, 1, s.order) + (s * s).scale(2)
    return rhs


def _rhs_assoc_half(n: int):
    def rhs(s: PowerSeries) -> PowerSeries:
        one = PowerSeries.monomial(1, 0, s.order)
        return PowerSeries.monomial(2 * n, 1, s.order) + (s * s) * (one - s).inverse()
    return rhs


def _rhs_comm(n: int):
    def rhs(s: PowerSeries) -> PowerSeries:
        return (PowerSeries.monomial(2 * n, 1, s.order) + s * s
                + s.substitute_power(2))
    return rhs


def _rhs_assoccomm_half(n: int):
    def rhs(s: PowerSeries) -> PowerSeries:
        one = PowerSeries.monomial(1, 0, s.order)
        e = polya_sum(s).exp()
        return (e - one + PowerSeries.monomial(2 * n, 1, s.order)).scale(Fraction(1, 2))
    return rhs


_MODEL_RHS = {
    ModelId.CATALAN: _rhs_catalan,
    ModelId.ASSOC: _rhs_assoc_half,
    ModelId.COMM: _rhs_comm,
    ModelId.ASSOC_COMM: _rhs_assoccomm_half,
}


@lru_cache(maxsize=None)
def _solve_base(model: ModelId, n: int, order: int) -> PowerSeries:
    # solved series are treated as immutable; cached per (model, n, order)
    return solve_equation(_MODEL_RHS[model](n), order)


def solve_half_series(model: ModelId, n: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Leaf-or-single-connective class series (stratified models only)."""
    if not model.stratified:
        raise DomainError("half-series only defined for stratified models")
    return _solve_base(model, n, order)


def solve_model_series(model: ModelId, n: int, order: int = DEFAULT_ORDER,
                       with_half: bool = False):
    """Counting series of the model; optionally also the half-series."""
    if order < 1:
        raise DomainError("order must be >= 1")
    if model.stratified:
        half = _solve_base(model, n, order)
        full = half.scale(2) - PowerSeries.monomial(2 * n, 1, order)
        return (full, half) if with_half else full
    if with_half:
        raise DomainError("half-series only defined for stratified models")
    return _solve_base(model, n, order)


# ---------------------------------------------------------------------------
# auxiliary series (all relative to the fixed literal x = x1)

AUX_KINDS = ("g_x", "gbar_x", "st_x", "stbar_x", "h_x", "simple_x_T", "simple_x_X")


def _aux_catalan(kind: str, n: int, order: int) -> PowerSeries:
    t = solve_model_series(ModelId.CATALAN, n, order)

    def rhs_gbar(s: PowerSeries) -> PowerSeries:
        return (PowerSeries.monomial(2 * n - 1, 1, s.order)
                + t.truncate(s.order) * t.truncate(s.order) + s * s)

    gbar = solve_equation(rhs_gbar, order)
    g = t - gbar
    if kind == "gbar_x":
        return gbar
    if kind == "g_x":
        return g
    # gt = g - st: or-path to x but not to ~x; st enters through gt, so the
    # equation is solved jointly with st = T - stbar substituted
    def rhs_stbar(s: PowerSeries) -> PowerSeries:
        d = s.order
        gt = g.truncate(d) - t.truncate(d) + s
        return (PowerSeries.monomial(2 * n, 1, d)
                + t.truncate(d) * t.truncate(d)
                + s * s - (gt * gt).scale(2))

    stbar = solve_equation(rhs_stbar, order)
    if kind == "stbar_x":
        return stbar
    st = t - stbar
    if kind == "h_x":
        gt = g - st
        return (gt * gt).scale(2)
    return st  # st_x


def _f_seq(u: PowerSeries) -> PowerSeries:
    # u^2/(1-u): sequences of >= 2 items
    one = PowerSeries.monomial(1, 0, u.order)
    return (u * u) * (one - u).inverse()


def _aux_assoc(kind: str, n: int, order: int) -> PowerSeries:
    a, half = solve_model_series(ModelId.ASSOC, n, order, with_half=True)
    z = PowerSeries.monomial(1, 1, order)
    g = z + _f_seq(half) - _f_seq(half - z)
    if kind == "g_x":
        return g
    if kind == "gbar_x":
        return a - g
    st = _f_seq(half) - _f_seq(half - z).scale(2) + _f_seq(half - z.scale(2))
    if kind == "st_x":
        return st
    if kind == "stbar_x":
        return a - st
    raise DomainError("kind %r not defined for assoc" % kind)


def _aux_comm(kind: str, n: int, order: int) -> PowerSeries:
    c = solve_model_series(ModelId.COMM, n, order)
    c2 = c.substitute_power(2)
    pair = (c * c + c2).scale(Fraction(1, 2))

    def rhs_gbar(s: PowerSeries) -> PowerSeries:
        d = s.order
        return (PowerSeries.monomial(2 * n - 1, 1, d) + pair.truncate(d)
                + (s * s + s.substitute_power(2)).scale(Fraction(1, 2)))

    gbar = solve_equation(rhs_gbar, order)
    g = c - gbar
    if kind == "gbar_x":
        return gbar
    if kind == "g_x":
        return g

    def rhs_stbar(s: PowerSeries) -> PowerSeries:
        d = s.order
        # subtracted term pairs an x-only or-path with an ~x-only one;
        # each factor is g - st = g - (C - stbar), stbar substituted
        gt = g.truncate(d) - c.truncate(d) + s
        return (PowerSeries.monomial(2 * n, 1, d) + pair.truncate(d)
                + (s * s + s.substitute_power(2)).scale(Fraction(1, 2))
                - gt * gt)

    stbar = solve_equation(rhs_stbar, order)
    if kind == "stbar_x":
        return stbar
    if kind == "st_x":
        return c - stbar
    raise DomainError("kind %r not defined for comm" % kind)


def _aux_assoccomm(kind: str, n: int, order: int) -> PowerSeries:
    p, half = solve_model_series(ModelId.ASSOC_COMM, n, order, with_half=True)
    z = PowerSeries.monomial(1, 1, order)
    one = PowerSeries.monomial(1, 0, order)
    ps = polya_sum(half)
    lg = log_one_minus_z(order)
    inv1z = (one - z).inverse()
    g = z * inv1z * (ps - lg).exp()
    if kind == "g_x":
        return g
    if kind == "gbar_x":
        return p - g
    st = (z * z) * inv1z * inv1z * (ps - lg.scale(2)).exp()
    if kind == "st_x":
        return st
    if kind == "stbar_x":
        return p - st
    raise DomainError("kind %r not defined for assoccomm" % kind)


_AUX = {
    ModelId.CATALAN: _aux_catalan,
    ModelId.ASSOC: _aux_assoc,
    ModelId.COMM: _aux_comm,
    ModelId.ASSOC_COMM: _aux_assoccomm,
}


def solve_aux_series(model: ModelId, kind: str, n: int,
                     order: int = DEFAULT_ORDER) -> PowerSeries:
    """Auxiliary series for the fixed literal x = x1.

    g_x counts trees with an or-only path to a leaf x; st_x counts simple
    tautologies realized by the variable of x; gbar_x / stbar_x are the
    complements within the model series; h_x (binary plane only) counts
    ordered pairs whose or-paths hit x and ~x.  simple_x_T / simple_x_X
    are the leading-order series of the two simple-x shapes: a literal
    adjoined to a simple tautology/contradiction, or a literal repeated
    behind the opposite connective.
    """
    if kind not in AUX_KINDS:
        raise DomainError("unknown aux kind %r" % kind)
    if kind == "h_x" and model is not ModelId.CATALAN:
        raise DomainError("h_x only defined for the binary plane model")
    if kind in ("simple_x_T", "simple_x_X"):
        c = 4 if model.plane else 2
        z = PowerSeries.monomial(1, 1, order)
        if kind == "simple_x_T":
            return z.scale(c * n) * solve_aux_series(model, "st_x", n, order)
        return z.scale(c) * solve_aux_series(model, "g_x", n, order)
    return _solve_aux_cached(model, kind, n, order)


@lru_cache(maxsize=None)
def _solve_aux_cached(model: ModelId, kind: str, n: int, order: int) -> PowerSeries:
    return _AUX[model](kind, n, order)


# ---------------------------------------------------------------------------
# sanity


@dataclass
class SanityReport:
    model: ModelId
    n: int
    order: int
    max_discrepancy: Fraction
    checks: dict

    @property
    def ok(self) -> bool:
        return self.max_discrepancy == 0


def series_sanity(model: ModelId, n: int, order: int = DEFAULT_ORDER) -> SanityReport:
    """Substitute each solved series back into its equation; exact residuals."""
    checks = {}
    if model.stratified:
        full, half = solve_model_series(model, n, order, with_half=True)
        res = _MODEL_RHS[model](n)(half) - half
        checks["half"] = max(abs(c) for c in res.coeffs)
        res2 = half.scale(2) - PowerSeries.monomial(2 * n, 1, order) - full
        checks["full"] = max(abs(c) for c in res2.coeffs)
    else:
        full = solve_model_series(model, n, order)
        res = _MODEL_RHS[model](n)(full) - full
        checks["full"] = max(abs(c) for c in res.coeffs)
    if model is ModelId.CATALAN:
        g = solve_aux_series(model, "g_x", n, order)
        gbar = solve_aux_series(model, "gbar_x", n, order)
        checks["g_split"] = max(abs(c) for c in (g + gbar - full).coeffs)
    mx = max(checks.values())
    return SanityReport(model, n, order, mx, checks)
