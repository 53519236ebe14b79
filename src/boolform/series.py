"""Exact truncated power series and the model functional equations.

Coefficients are Fractions; every operation is exact to the stored order.
The four models differ only in how an internal node takes its children:
binary models take ordered (plane) or unordered (non-plane) pairs,
stratified models take sequences or multisets of at least two (`_pairs`
and `_many`; the SEQ and MSET constructions, the latter through the Polya
exponential).  Every equation is written so that coefficient m of its
right-hand side does not depend on coefficient m of the unknown, and is
solved with one evaluation of the right-hand side per coefficient.
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
    """Solve S = rhs(S) with S_0 = 0, one coefficient at a time.

    Coefficient m of rhs(S) must depend only on S_1..S_{m-1}; S_m is then
    coefficient m of rhs applied to the solution so far, one evaluation per
    coefficient.  The solution is put back into the equation once at full
    order, and DomainError is raised if any coefficient is off, as it is
    when coefficient m of rhs(S) also depends on S_m.
    """
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        coeffs[m] = rhs(PowerSeries(coeffs[: m + 1]))[m]
    s = PowerSeries(coeffs)
    off = [m for m, c in enumerate((rhs(s) - s).coeffs) if c]
    if off:
        raise DomainError("equation not solved at coefficient %d" % off[0])
    return s


# ---------------------------------------------------------------------------
# model equations: the models differ only in how a node takes its children


def _pairs(model: ModelId, s: PowerSeries) -> PowerSeries:
    """Pairs of s-structures: ordered (plane) or unordered (non-plane)."""
    if model.plane:
        return s * s
    return (s * s + s.substitute_power(2)).scale(Fraction(1, 2))


def _many(model: ModelId, s: PowerSeries) -> PowerSeries:
    """Sequences (plane) or multisets (non-plane) of >= 2 s-structures."""
    one = PowerSeries.monomial(1, 0, s.order)
    if model.plane:
        return (s * s) * (one - s).inverse()
    return polya_sum(s).exp() - one - s


def _base_rhs(model: ModelId, n: int):
    """Binary T = 2nz + 2 pairs(T); stratified hat = 2nz + many(hat).

    hat counts the leaves and the trees with one fixed root connective;
    the children of such a root are leaves or trees of the other one.
    """
    def rhs(s: PowerSeries) -> PowerSeries:
        leaves = PowerSeries.monomial(2 * n, 1, s.order)
        if model.stratified:
            return leaves + _many(model, s)
        return leaves + _pairs(model, s).scale(2)
    return rhs


@lru_cache(maxsize=None)
def _solve_base(model: ModelId, n: int, order: int) -> PowerSeries:
    # every series entry point comes through here; solved series are
    # treated as immutable and cached per (model, n, order)
    if n < 1:
        raise DomainError("n must be >= 1")
    if order < 1:
        raise DomainError("order must be >= 1")
    return solve_equation(_base_rhs(model, n), order)


def solve_half_series(model: ModelId, n: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Leaf-or-single-connective class series (stratified models only)."""
    if not model.stratified:
        raise DomainError("half-series only defined for stratified models")
    return _solve_base(model, n, order)


def solve_model_series(model: ModelId, n: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Counting series of the model."""
    base = _solve_base(model, n, order)
    if model.stratified:
        return base.scale(2) - PowerSeries.monomial(2 * n, 1, order)
    return base


# ---------------------------------------------------------------------------
# auxiliary series (all relative to the fixed literal x = x1)

AUX_KINDS = ("g_x", "gbar_x", "st_x", "stbar_x", "h_x", "simple_x_T", "simple_x_X")


def _cross(model: ModelId, gt: PowerSeries) -> PowerSeries:
    """Or-pairs of an x-only and a ~x-only or-path tree; gt counts each."""
    sq = gt * gt
    return sq.scale(2) if model.plane else sq


def _aux_series(model: ModelId, n: int, order: int) -> dict:
    """g_x, gbar_x, st_x, stbar_x and (binary) h_x, solved afresh."""
    full = solve_model_series(model, n, order)
    if model.stratified:
        # or-root children counted by hat: hat - z leaves out the leaf x,
        # hat - 2z both x and ~x
        hat = _solve_base(model, n, order)
        z = PowerSeries.monomial(1, 1, order)
        g = z + _many(model, hat) - _many(model, hat - z)
        st = (_many(model, hat) - _many(model, hat - z).scale(2)
              + _many(model, hat - z.scale(2)))
        return {"g_x": g, "gbar_x": full - g, "st_x": st, "stbar_x": full - st}
    # binary: an and-root takes any pair, an or-root a pair of trees that
    # (gbar) have no or-path to x or (stbar) are no simple tautology on
    # the variable of x, without the pairs of x-only and ~x-only or-paths
    pairs_full = _pairs(model, full)

    def rhs(s: PowerSeries, leaves: int, gbar=None) -> PowerSeries:
        d = s.order
        out = (PowerSeries.monomial(leaves, 1, d) + pairs_full.truncate(d)
               + _pairs(model, s))
        return out if gbar is None else out - _cross(model, s - gbar.truncate(d))

    gbar = solve_equation(lambda s: rhs(s, 2 * n - 1), order)
    stbar = solve_equation(lambda s: rhs(s, 2 * n, gbar), order)
    return {"g_x": full - gbar, "gbar_x": gbar, "st_x": full - stbar,
            "stbar_x": stbar, "h_x": _cross(model, stbar - gbar)}


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
    return _solve_aux_cached(model, n, order)[kind]


@lru_cache(maxsize=None)
def _solve_aux_cached(model: ModelId, n: int, order: int) -> dict:
    # every kind comes from one solve, so gbar is solved once for all
    return _aux_series(model, n, order)


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
    full = solve_model_series(model, n, order)
    if model.stratified:
        half = solve_half_series(model, n, order)
        res = _base_rhs(model, n)(half) - half
        checks["half"] = max(abs(c) for c in res.coeffs)
        res2 = half.scale(2) - PowerSeries.monomial(2 * n, 1, order) - full
        checks["full"] = max(abs(c) for c in res2.coeffs)
    else:
        res = _base_rhs(model, n)(full) - full
        checks["full"] = max(abs(c) for c in res.coeffs)
    if model is ModelId.CATALAN:
        g = solve_aux_series(model, "g_x", n, order)
        gbar = solve_aux_series(model, "gbar_x", n, order)
        checks["g_split"] = max(abs(c) for c in (g + gbar - full).coeffs)
    mx = max(checks.values())
    return SanityReport(model, n, order, mx, checks)
