"""Exact truncated power series and the model functional equations.

Coefficients are exact: Python ints where they are integral, Fractions
where a construction divides.  Series are online (van der Hoeven, "Relax,
but don't be too lazy", JSC 2002): an operation returns a series whose
coefficient m is computed when it is first read, from coefficients of its
operands that are already known, and kept.  Sums, scalings and z^k
substitutions cost O(1) per coefficient; products, inverses and exp cost
one O(m) convolution.

The four models differ only in how an internal node takes its children:
binary models take ordered (plane) or unordered (non-plane) pairs,
stratified models take sequences or multisets of at least two (`_pairs`
and `_many`; the SEQ construction through the inverse recurrence of
1/(1 - s), the MSET construction through the Polya exponential).  Each
equation is written once, over these operations, so that coefficient m of
its right-hand side does not read coefficient m of the unknown;
`solve_equation` applies it to the unknown and takes one O(m) step per
coefficient, O(order^2) per solve, and `series_sanity` applies it to the
solved series.  In exp(polya_sum(s)) - 1 - s the term s_m reaches
coefficient m through both exp and the Polya sum and cancels; `_many`
takes the multiset recurrence (Flajolet & Sedgewick, Analytic
Combinatorics, I.2 and II.4) over divisor sums of s with that term
cancelled, so that it never reads s_m, and on an integral s every
division it makes is exact and stays in ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from operator import mul
from typing import Callable

from .errors import DomainError
from .trees import ModelId

DEFAULT_ORDER = 64


def _exact(c) -> Rational:
    """c as an int if it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quo(num, den) -> Rational:
    """num / den, by integer division when both are ints and it is exact."""
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        if not r:
            return q
    return _exact(Fraction(num, den))


class PowerSeries:
    """Truncated formal power series with exact coefficients.

    A series made from a coefficient list is known.  One made by an
    operation is online: coefficient m is computed by `_next(m)` the first
    time it is read, after coefficients 0..m-1, and kept in `_c`.  `val` is
    a lower bound on the index of the first nonzero coefficient; products
    skip the terms it shows to be zero, which keeps an online product from
    reading ahead.
    """

    __slots__ = ("_c", "_next", "order", "val")

    def __init__(self, coeffs):
        self._c = [_exact(c) for c in coeffs] or [0]
        self._next = None
        self.order = len(self._c) - 1
        self.val = next((m for m, c in enumerate(self._c) if c),
                        self.order + 1)

    @classmethod
    def _online(cls, order: int, val: int,
                coeff: Callable[[int], Rational] | None) -> "PowerSeries":
        s = cls.__new__(cls)
        s._c, s._next, s.order, s.val = [], coeff, order, val
        return s

    def _upto(self, m: int) -> list:
        """The coefficient list, computed through index m."""
        c = self._c
        while len(c) <= m:
            k = len(c)
            c.append(self._next(k) if k >= self.val else 0)
        return c

    @property
    def coeffs(self) -> list:
        return self._upto(self.order)

    def __getitem__(self, m: int) -> Rational:
        return self._upto(m)[m] if 0 <= m <= self.order else 0

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries([0] * (order + 1))

    @staticmethod
    def monomial(coeff, power: int, order: int) -> "PowerSeries":
        c = [0] * (order + 1)
        if power <= order:
            c[power] = coeff
        return PowerSeries(c)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self, other
        return PowerSeries._online(min(a.order, b.order), min(a.val, b.val),
                                   lambda m: _exact(a._upto(m)[m] + b._upto(m)[m]))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self, other
        va, vb = a.val, b.val

        def coeff(m):
            # a_i b_{m-i} for va <= i <= m - vb
            x, y = a._upto(m - vb), b._upto(m - va)
            return sum(map(mul, x[va:m - vb + 1], reversed(y[vb:m - va + 1])))
        return PowerSeries._online(min(a.order, b.order), va + vb, coeff)

    def scale(self, factor) -> "PowerSeries":
        a, f = self, _exact(factor)
        p, q = f.numerator, f.denominator

        def coeff(m):
            c = a._upto(m)[m]
            return _quo(c * p, q) if c else 0
        return PowerSeries._online(a.order, a.val, coeff)

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        a, a0 = self, self[0]
        if a0 == 0:
            raise DomainError("inverse needs nonzero constant term")
        out = PowerSeries._online(a.order, 0, None)
        q = out._c
        q.append(_quo(1, a0))

        def coeff(m):
            # a_0 q_m = -(a_1 q_{m-1} + ... + a_m q_0)
            x = a._upto(m)
            return _quo(-sum(map(mul, x[1:m + 1], reversed(q))), a0)
        out._next = coeff
        return out

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term, via E' = U'E."""
        one = PowerSeries.monomial(1, 0, self.order)
        return one + self + _exp_minus_linear(self)

    def substitute_power(self, k: int) -> "PowerSeries":
        """S(z) -> S(z^k), same truncation order.

        Every z^k substitution of the model equations, in pairs and in the
        Polya sum, is made here.
        """
        if k < 1:
            raise DomainError("substitution power must be >= 1")
        a = self
        return PowerSeries._online(
            a.order, a.val * k,
            lambda m: 0 if m % k else a._upto(m // k)[m // k])

    # -- export --------------------------------------------------------

    def to_json(self) -> list[str]:
        return ["%d/%d" % (c.numerator, c.denominator) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return "PowerSeries([%s%s])" % (head, ", ..." if self.order > 5 else "")


def _exp_minus_linear(u: PowerSeries) -> PowerSeries:
    """exp(u) - 1 - u; coefficient m reads u_1..u_{m-1} only.

    E' = U'E gives m E_m = sum_{k=1..m} k u_k E_{m-k}, whose k = m term is
    m u_m, so coefficient m is sum_{k=1..m-1} k u_k E_{m-k} / m, with
    E_j = u_j + (this series)_j for j >= 1.
    """
    if u[0] != 0:
        raise DomainError("exp needs zero constant term")
    out = PowerSeries._online(u.order, 2 * max(u.val, 1), None)
    y = out._c
    ku, e = [0], [1]  # k u_k and E_k for k < m

    def coeff(m):
        x = u._upto(m - 1)
        for j in range(len(e), m):
            ku.append(_exact(j * x[j]))
            e.append(_exact(x[j] + y[j]))
        return _quo(sum(map(mul, ku[1:], reversed(e[1:]))), m)
    out._next = coeff
    return out


def _divisor_sums(s: PowerSeries) -> PowerSeries:
    """D with D_m = sum over d | m, d < m of d s_d.

    Coefficient m reads s_1..s_{m/2}, never s_0 or s_m.
    """
    def coeff(m):
        x = s._upto(m // 2)
        return sum(d * x[d] for d in range(1, m // 2 + 1) if m % d == 0)
    return PowerSeries._online(s.order, 2 * max(s.val, 1), coeff)


def _polya_tail(s: PowerSeries) -> PowerSeries:
    """Sum over i >= 2 of s(z^i)/i, that is polya_sum(s) - s.

    s(z^i)/i has z^m term s_d/i where m = d i, so coefficient m is D_m/m
    with D the divisor sums of s; it reads s_d for d | m, d < m only.
    """
    d = _divisor_sums(s)
    return PowerSeries._online(s.order, d.val,
                               lambda m: _quo(d._upto(m)[m], m))


def polya_sum(s: PowerSeries) -> PowerSeries:
    """Sum over i >= 1 of s(z^i)/i; s must have zero constant term."""
    if s[0] != 0:
        raise DomainError("polya_sum needs zero constant term")
    return s + _polya_tail(s)


def log_one_minus_z(order: int) -> PowerSeries:
    """Truncation of -log(1-z) = sum z^l/l."""
    return PowerSeries([0] + [Fraction(1, l) for l in range(1, order + 1)])


# ---------------------------------------------------------------------------
# fixed-point solver


def _read_ahead(m: int) -> Rational:
    raise DomainError("coefficient %d of the right-hand side reads "
                      "coefficient %d of the unknown" % (m, m))


def solve_equation(rhs: Callable[[PowerSeries], PowerSeries],
                   order: int) -> PowerSeries:
    """Solve S = rhs(S) with S_0 = 0, one O(m) step per coefficient.

    rhs is applied once, to the online unknown S, and coefficient m of its
    result is read after S_1..S_{m-1}; that is S_m.  Each operation in rhs
    computes its coefficient m from coefficients already known, with one
    convolution at most, so the solve costs O(order^2).  Reading S_m while
    computing coefficient m of rhs(S) raises DomainError.  The solution is
    then put back into the equation at full order, one more O(order^2)
    pass, and DomainError is raised if any coefficient is off.
    """
    unknown = PowerSeries._online(order, 1, _read_ahead)
    known = unknown._upto(0)  # S_0 = 0, below val
    right = rhs(unknown)
    for m in range(1, order + 1):
        known.append(right[m])
    s = PowerSeries(known)
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
    """Sequences (plane) or multisets (non-plane) of >= 2 s-structures.

    SEQ is s^2/(1 - s).  MSET is E - 1 - s with E = exp(polya_sum(s)).
    E' = P'E for P = polya_sum(s) gives m E_m = sum_{k=1..m} c_k E_{m-k},
    c_k = k P_k = k s_k + D_k with D the divisor sums of s.  The k = m term
    is m s_m + D_m, so coefficient m of E - 1 - s is
    (sum_{k=1..m-1} c_k E_{m-k} + D_m)/m, with E_j = s_j + (this series)_j
    for j >= 1: it reads s_1..s_{m-1} only, and for an integral s every
    quotient by m is exact.
    """
    if model.plane:
        one = PowerSeries.monomial(1, 0, s.order)
        return (s * s) * (one - s).inverse()
    if s[0] != 0:
        raise DomainError("multisets need a zero constant term")
    d = _divisor_sums(s)
    out = PowerSeries._online(s.order, d.val, None)
    y = out._c
    c, e = [0], [1]  # c_k and E_k for k < m

    def coeff(m):
        x, dx = s._upto(m - 1), d._upto(m)
        for j in range(len(e), m):
            c.append(_exact(j * x[j] + dx[j]))
            e.append(_exact(x[j] + y[j]))
        return _quo(sum(map(mul, c[1:], reversed(e[1:]))) + dx[m], m)
    out._next = coeff
    return out


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


def _check_size(n: int, order: int) -> None:
    if n < 1:
        raise DomainError("n must be >= 1")
    if order < 1:
        raise DomainError("order must be >= 1")


@lru_cache(maxsize=None)
def _solve_base(model: ModelId, n: int, order: int) -> PowerSeries:
    # every series entry point comes through here; solved series are
    # treated as immutable and cached per (model, n, order)
    _check_size(n, order)
    return solve_equation(_base_rhs(model, n), order)


def _known(s: PowerSeries) -> PowerSeries:
    # computed in full here, so that the time is spent in the solve and the
    # cached result holds no operands
    return PowerSeries(s.coeffs)


def solve_half_series(model: ModelId, n: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Leaf-or-single-connective class series (stratified models only)."""
    if not model.stratified:
        raise DomainError("half-series only defined for stratified models")
    return _solve_base(model, n, order)


def solve_model_series(model: ModelId, n: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Counting series of the model."""
    base = _solve_base(model, n, order)
    if model.stratified:
        return _known(base.scale(2) - PowerSeries.monomial(2 * n, 1, order))
    return base


# ---------------------------------------------------------------------------
# auxiliary series (all relative to the fixed literal x = x1)

AUX_KINDS = ("g_x", "gbar_x", "st_x", "stbar_x", "h_x", "simple_x_T", "simple_x_X")


def _cross(model: ModelId, gt: PowerSeries) -> PowerSeries:
    """Or-pairs of an x-only and a ~x-only or-path tree; gt counts each."""
    sq = gt * gt
    return sq.scale(2) if model.plane else sq


def _simple_x_factor(model: ModelId) -> int:
    # root arrangements of a simple-x shape: a literal and a subtree under
    # either connective, and in plane models with the literal on either side
    return 4 if model.plane else 2


@lru_cache(maxsize=None)
def _aux_series(model: ModelId, n: int, order: int) -> dict:
    """Every aux kind defined for the model, from one solve per (n, order)."""
    full = solve_model_series(model, n, order)
    z = PowerSeries.monomial(1, 1, order)
    if model.stratified:
        # or-root children counted by hat = 2nz + many(hat): hat - z leaves
        # out the leaf x, hat - 2z both x and ~x
        hat = _solve_base(model, n, order)
        many = hat - z.scale(2 * n)
        many_x = _many(model, hat - z)
        many_xx = _many(model, hat - z.scale(2))
        g = _known(z + many - many_x)
        st = _known(many - many_x.scale(2) + many_xx)
        gbar, stbar = _known(full - g), _known(full - st)
    else:
        # binary: an and-root takes any pair, an or-root a pair of trees that
        # (gbar) have no or-path to x or (stbar) are no simple tautology on
        # the variable of x, without the pairs of x-only and ~x-only or-paths
        # the base equation T = 2nz + 2 pairs(T) gives pairs(T)
        pairs_full = (full - z.scale(2 * n)).scale(Fraction(1, 2))

        def rhs(s: PowerSeries, leaves: int, gbar=None) -> PowerSeries:
            out = (PowerSeries.monomial(leaves, 1, s.order) + pairs_full
                   + _pairs(model, s))
            return out if gbar is None else out - _cross(model, s - gbar)

        gbar = solve_equation(lambda s: rhs(s, 2 * n - 1), order)
        stbar = solve_equation(lambda s: rhs(s, 2 * n, gbar), order)
        g, st = _known(full - gbar), _known(full - stbar)
    # the simple-x kinds stay online, computed when first read: only the
    # CLI's series --kind simple_x_T|simple_x_X reads them
    c = _simple_x_factor(model)
    table = {"g_x": g, "gbar_x": gbar, "st_x": st, "stbar_x": stbar,
             "simple_x_T": z.scale(c * n) * st, "simple_x_X": z.scale(c) * g}
    if model is ModelId.CATALAN:
        table["h_x"] = _known(_cross(model, stbar - gbar))
    return table


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
    return _aux_series(model, n, order)[kind]


# ---------------------------------------------------------------------------
# sanity


@dataclass
class SanityReport:
    model: ModelId
    n: int
    order: int
    max_discrepancy: Rational
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
