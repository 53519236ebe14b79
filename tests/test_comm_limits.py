"""The limiting constants of the binary non-plane model are 3/4 and 5/16.

Two routes, independent of each other:

- Reduction.  Near its singularity rho_n ~ 1/(8n) every z^2-substituted
  term of the `comm` system (C(z^2), gbar(z^2), stbar(z^2)) is O(1/n).
  Without those terms the `comm` system is the `catalan` system after
  the change of variables T(z) = C(2z)/2 (and likewise for gbar, stbar),
  so rho_cat = rho_comm/2, the plane factor 4 rho_cat equals the
  non-plane factor 2 rho_comm, and both constants are Catalan's: 3/4 for
  n P(True) and 5/16 for n^2 P(x1).  The reduction is checked exactly.
- Coefficient ratios.  Float recurrences of the full `comm` equations,
  scaled by (8n)^-m, give ST^x_m / C_m and the simple-x shapes over C_m
  up to m = 3000; Richardson extrapolation in 1/m reads off the limits
  at each n without the singularity layer or the series solver.  They
  match `probability_true` / `probability_literal` at n = 100 and drift
  like 1/n toward 3/4 and 5/16, not toward the published 641/1024 and
  1153/4096.
"""

from fractions import Fraction

import numpy as np
import pytest

from boolform import series
from boolform.series import PowerSeries, solve_aux_series, solve_model_series
from boolform.singular import (REFERENCE_CONSTANTS, probability_literal,
                               probability_true)
from boolform.trees import ModelId


# ---------------------------------------------------------------------------
# reduction to the catalan system


def test_comm_system_without_squares_is_catalan_symbolically():
    sp = pytest.importorskip("sympy")
    n, z, C, Gb, Sb, T, gb, sb = sp.symbols("n z C Gb Sb T gb sb")
    # comm equations (series.py) with every z^2-substituted term dropped;
    # gt = g - st = stbar - gbar
    comm = [
        2 * n * z + C ** 2 - C,
        (2 * n - 1) * z + C ** 2 / 2 + Gb ** 2 / 2 - Gb,
        2 * n * z + C ** 2 / 2 + Sb ** 2 / 2 - (Sb - Gb) ** 2 - Sb,
    ]
    catalan = [
        2 * n * z + 2 * T ** 2 - T,
        (2 * n - 1) * z + T ** 2 + gb ** 2 - gb,
        2 * n * z + T ** 2 + sb ** 2 - 2 * (sb - gb) ** 2 - sb,
    ]
    # C(2z) = 2 T(z), evaluated at the point 2z
    subst = {z: 2 * z, C: 2 * T, Gb: 2 * gb, Sb: 2 * sb}
    for eq_comm, eq_cat in zip(comm, catalan):
        assert sp.expand(eq_comm.subs(subst, simultaneous=True)
                         - 2 * eq_cat) == 0


@pytest.mark.parametrize("n", [1, 3])
def test_comm_series_without_squares_are_catalan_series(monkeypatch, n):
    order = 14
    # the package's own comm equations, with S(z^2) -> 0 and no caching
    monkeypatch.setattr(PowerSeries, "substitute_power",
                        lambda self, k: PowerSeries.zero(self.order))
    monkeypatch.setattr(series, "_solve_base", series._solve_base.__wrapped__)
    reduced = {"C": series.solve_model_series(ModelId.COMM, n, order)}
    aux = series._aux_series.__wrapped__(ModelId.COMM, n, order)
    for kind in ("g_x", "gbar_x", "st_x", "stbar_x"):
        reduced[kind] = aux[kind]
    monkeypatch.undo()

    catalan = {"C": solve_model_series(ModelId.CATALAN, n, order)}
    for kind in ("g_x", "gbar_x", "st_x", "stbar_x"):
        catalan[kind] = solve_aux_series(ModelId.CATALAN, kind, n, order)
    for key, red in reduced.items():
        # T(z) = C(2z)/2, coefficient by coefficient
        assert [Fraction(2) ** (m - 1) * c for m, c in enumerate(red.coeffs)] \
            == catalan[key].coeffs, key
    # the z^2 terms are what separates the two models
    assert solve_model_series(ModelId.COMM, n, order) != reduced["C"]


# ---------------------------------------------------------------------------
# coefficient-ratio route


def _pair_coefficient(a, m, r):
    """Coefficient m of A^2 + A(z^2), all coefficients scaled by r^m."""
    square = a[1:m] @ a[m - 1:0:-1]
    return square + a[m // 2] * r ** (m // 2) if m % 2 == 0 else square


def _comm_scaled_coefficients(n, m_max):
    """C_m r^m, g_m r^m, ST_m r^m for r = 1/(8n), from the comm equations.

    C = 2nz + C^2 + C(z^2); gbar = (2n-1)z + (C^2 + C(z^2))/2
    + (gbar^2 + gbar(z^2))/2; stbar = 2nz + (C^2 + C(z^2))/2
    + (stbar^2 + stbar(z^2))/2 - (stbar - gbar)^2; g = C - gbar,
    ST = C - stbar.
    """
    r = 1.0 / (8 * n)
    c, gbar, stbar = (np.zeros(m_max + 1) for _ in range(3))
    c[1], gbar[1], stbar[1] = 2 * n * r, (2 * n - 1) * r, 2 * n * r
    gt = stbar - gbar
    for m in range(2, m_max + 1):
        c[m] = _pair_coefficient(c, m, r)
        gbar[m] = (c[m] + _pair_coefficient(gbar, m, r)) / 2
        stbar[m] = ((c[m] + _pair_coefficient(stbar, m, r)) / 2
                    - gt[1:m] @ gt[m - 1:0:-1])
        gt[m] = stbar[m] - gbar[m]
    return c, c - gbar, c - stbar, r


def _extrapolate(hs, ys):
    """Polynomial (Neville) extrapolation of ys(h) to h = 0."""
    p = list(ys)
    for k in range(1, len(p)):
        p = [(hs[i + k] * p[i] - hs[i] * p[i + 1]) / (hs[i + k] - hs[i])
             for i in range(len(p) - 1)]
    return p[0]


def _ratio_constants(n, m_max=3000):
    """(n P(True), n^2 P(x1)) in the m -> inf limit, from coefficient ratios.

    P(True) ~ n ST_m/C_m; P(x1) counts the simple-x shapes
    2n z ST + 2 z g, so n^2 P(x1) = n^2 (2n ST_{m-1} + 2 g_{m-1}) / C_m.
    """
    c, g, st, r = _comm_scaled_coefficients(n, m_max)
    ms = [m_max // 2 ** j for j in range(4)]
    hs = [1 / m for m in ms]
    true = _extrapolate(hs, [n * n * st[m] / c[m] for m in ms])
    literal = _extrapolate(hs, [n * n * r * (2 * n * st[m - 1] + 2 * g[m - 1])
                                / c[m] for m in ms])
    return true, literal


def test_ratio_route_matches_evaluator_at_n100():
    true, literal = _ratio_constants(100)
    # the two routes agree to about 1e-10; a z^2 term of an auxiliary
    # equation off by a factor 2 moves the evaluator by about 2e-7
    assert abs(true / float(probability_true(ModelId.COMM, 100)) - 1) < 1e-8
    assert abs(literal / float(probability_literal(ModelId.COMM, 100)) - 1) \
        < 1e-8


def test_ratio_route_drifts_to_catalan_limits():
    grid = (100, 1000, 10000)
    rows = [_ratio_constants(n) for n in grid]
    hs = [1 / n for n in grid]
    for k, (target, limit) in enumerate((("True", 0.75),
                                         ("literal", 5 / 16))):
        published = float(REFERENCE_CONSTANTS[(ModelId.COMM, target)]())
        vals = [row[k] for row in rows]
        # the gap to the limit shrinks like 1/n from below
        scaled_gaps = [n * (limit - v) for n, v in zip(grid, vals)]
        assert all(gap > 0 for gap in scaled_gaps)
        assert max(scaled_gaps) < 1.05 * min(scaled_gaps)
        extrapolated = _extrapolate(hs, vals)
        assert abs(extrapolated - limit) < 1e-5
        assert abs(extrapolated - published) > 0.03
