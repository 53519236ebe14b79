"""Boolean-function complexity, minimal trees, and expansion counting.

L(f) is the size of a smallest tree computing f; M_f the number of such
trees.  Non-negligible trees computing f arise from minimal trees by a
single expansion, either inserting a simple tautology/contradiction
(T-expansion) or a tree of shape x <> ... for an essential x
(X-expansion).  Tallying valid expansion sites gives the coefficients
lambda_T, lambda_X that drive the asymptotic probability of f.  One site
walk serves all four models and branches only on binary/plane (_sites).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .boolfun import BoolFunc, Literal
from .errors import DomainError
from .trees import AND, OR, ModelId, Tree, _fold, compute_function
from .exhaustive import trees_computing
from . import singular


@dataclass
class MinimalTreeSet:
    f: BoolFunc
    model: ModelId
    L: int
    trees: list

    @property
    def M(self) -> int:
        return len(self.trees)


def complexity(f: BoolFunc, model: ModelId) -> MinimalTreeSet:
    """Search sizes 1, 2, ... until some tree computes f; return them all.

    Each size is searched on truth tables by exhaustive.trees_computing,
    which builds a Tree only for the trees that compute f, in
    generate_trees' order.  Every non-constant f has a tree (its DNF), so
    the search ends, unless the generation cap, charged as generate_trees
    charges it, raises ResourceCapError first: on n = 3 at size 6
    (catalan), 7 (assoc, comm) or 8 (assoccomm), no later on more variables.
    """
    if f.is_constant():
        return MinimalTreeSet(f, model, 0, [])
    for m in itertools.count(1):
        found = trees_computing(model, m, f)
        if found:
            return MinimalTreeSet(f, model, m, found)


# ---------------------------------------------------------------------------
# expansions


@dataclass
class ExpansionTally:
    f: BoolFunc
    model: ModelId
    lambda_T: int
    lambda_X: int
    per_tree: list = field(default_factory=list)  # (tree, t_count, x_count)


def _sites(t: Tree, n: int):
    """(conn, ways, table, up) per class of expansion sites of t, on n
    variables: the class joins the witness w to a node of truth table
    `table` under a conn-node, so the expanded tree's table is
    up(_fold(conn, (table, w))), where up(h) is t's table with that node's
    replaced by h.  ways is the number of sites in the class.

    Any node can be pushed down under a new conn-node beside the witness; in
    a stratified model conn must differ from the node's connective and its
    parent's.  In a stratified model an internal node can also take the
    witness as one more child, and and(kids..., w) = and(kids...) & w.  And
    and Or commute, so the two sides of a plane push-down, and the
    len(kids) + 1 gaps of a plane insertion, form one class.
    """
    model = t.model

    def walk(node: Tree, table: int, parent_conn: Optional[str], up):
        for conn in (AND, OR):
            if model.binary or conn not in (node.conn, parent_conn):
                yield conn, 2 if model.plane else 1, table, up
        kids = node.children
        if kids and not model.binary:
            yield node.conn, len(kids) + 1 if model.plane else 1, table, up
        tables = [compute_function(kid, n).table for kid in kids]
        for i, kid in enumerate(kids):
            def up_kid(h, i=i):
                return up(_fold(node.conn, tables[:i] + [h] + tables[i + 1:]))
            yield from walk(kid, tables[i], node.conn, up_kid)

    yield from walk(t, compute_function(t, n).table, None, lambda h: h)


def enumerate_expansions(ts: MinimalTreeSet) -> ExpansionTally:
    """Tally valid T- and X-expansion sites over all minimal trees.

    The witnesses are the smallest legal inserts, two leaves on a fresh
    variable y under the other connective: y | ~y (T) and x | y (X) below
    an and-node, y & ~y and x & y below an or-node, for each literal x of
    an essential variable.  A T-witness is neutral, so every T-site is
    valid.  An X-witness is neutral at one value of y and x at the other,
    so it is valid exactly when joining the node to x with the site's
    connective leaves f unchanged, which is decided on f's own n variables.
    """
    f = ts.f
    if f.is_constant():
        raise DomainError("expansions are defined for non-constant functions")
    n = f.n
    # validity depends on the polarity, so both are tried per site
    xs = [BoolFunc.from_literal(Literal(v, pol), n).table
          for v in sorted(f.essential_vars()) for pol in (True, False)]
    tally = ExpansionTally(f, ts.model, 0, 0)
    for t in ts.trees:
        t_count = x_count = 0
        for conn, ways, table, up in _sites(t, n):
            t_count += ways
            x_count += ways * sum(up(_fold(conn, (table, x))) == f.table
                                  for x in xs)
        tally.lambda_T += t_count
        tally.lambda_X += x_count
        tally.per_tree.append((t, t_count, x_count))
    return tally


# ---------------------------------------------------------------------------
# published closed-form bounds


class Bounds(NamedTuple):
    lower: float
    upper: float
    restricted: bool  # True when the source states the bound for L > 1 only


SQRT2 = math.sqrt(2.0)
LN2 = math.log(2.0)


def _bounds_of(ts: MinimalTreeSet) -> tuple[Bounds, Bounds, Bounds]:
    if ts.L == 0:
        raise DomainError("bounds are defined for non-constant functions")
    return _published(ts.model, ts.L, ts.M)


def lambda_bounds(ts: MinimalTreeSet) -> Bounds:
    """Closed-form bounds on the constant lambda_f, per model, read from
    the minimal trees complexity() found.

    The formulas are the published ones.  The `comm` pair collapses at
    L = 1 (M = 1) to 1153/4096, the published literal constant, which
    contradicts the derived limit 5/16 (tests/test_comm_limits.py).  So
    `probability_vs_bounds(x1, comm)` reports `within_bounds: False` and
    says why in `reason`.
    """
    return _bounds_of(ts)[0]


def _published(model: ModelId, L: int, M: int) -> tuple[Bounds, Bounds, Bounds]:
    """The published bounds on lambda_f and on lambda_X, and the lambda_T
    reference (an exact value for the binary models), in that order."""
    if model is ModelId.CATALAN:
        # per-leaf sites give 4L, fathers add 2*ceil(L/2) once L > 1
        ell = (L + 1) // 2 if L > 1 else 0
        pairs = (((8 * L - 3 + ell) * M / 16.0 ** L,
                  (4 * L * L + 4 * L - 3) * M / 16.0 ** L),
                 ((4 * L + 2 * ell) * M, 4 * L * (2 * L - 1) * M),
                 (4 * (2 * L - 1) * M,) * 2)
    elif model is ModelId.ASSOC:
        c = ((3 - 2 * SQRT2) / 2) ** L
        # lambda_T's derivation assumes at least one internal node
        pairs = ((c * (133 * L + 153 - (93 * L + 108) * SQRT2) * M,
                  c * (-(12 * L * L - 247 * L + 51)
                       + (9 * L * L - 174 * L + 36) * SQRT2) * M),
                 (5 * L * M, L * (3 * L + 2) * M),
                 (3 * (L + 1) * M, (5 * L - 1) * M))
    elif model is ModelId.COMM:
        pairs = (((1794 * L - 641) * M / (512.0 * 8 ** L),
                  (2 * L - 1) * (512 * L + 641) * M / (512.0 * 8 ** L)),
                 (2 * L * M, 2 * L * (2 * L - 1) * M),
                 (2 * (2 * L - 1) * M,) * 2)
    else:
        c = ((2 * LN2 - 1) / 2) ** L
        pairs = ((c * ((LN2 ** 2 - 0.25) * L + LN2 ** 2 - 2 * LN2 + 0.5) * M,
                  c * (2 * LN2 - 1) * (L + 1 + 4 * LN2) * L / 4 * M),
                 (2 * L * M, (L * L + 3 * L) * M),
                 ((L + 2) * M, 2 * L * M))
    # the stratified models' bounds are stated for L > 1 only
    restricted = model.stratified and L == 1
    return tuple(Bounds(lo, hi, restricted) for lo, hi in pairs)


def lambda_x_bounds(ts: MinimalTreeSet) -> Bounds:
    """Bounds on the X-expansion tally lambda_X(f)."""
    return _bounds_of(ts)[1]


def lambda_t_reference(ts: MinimalTreeSet) -> Bounds:
    """Exact value (binary models) or bounds on the T-expansion tally."""
    return _bounds_of(ts)[2]


def _tol(bounds: Bounds) -> float:
    return 1e-3 * max(abs(bounds.lower), abs(bounds.upper), 1e-6)


def _violation(limit: float, bounds: Bounds, model: ModelId, L: int) -> str:
    """Which bound the limit misses, and by how much."""
    if limit < bounds.lower:
        reason = "limit %.6g is below the lower bound %.6g by %.3g" % (
            limit, bounds.lower, bounds.lower - limit)
    else:
        reason = "limit %.6g is above the upper bound %.6g by %.3g" % (
            limit, bounds.upper, limit - bounds.upper)
    if model is ModelId.COMM and L == 1:
        reason += ("; the published comm bounds collapse at L = 1 to "
                   "1153/4096, which the derived limit 5/16 contradicts "
                   "(tests/test_comm_limits.py)")
    return reason


def probability_vs_bounds(
        f: BoolFunc, model: ModelId,
        n_grid: Sequence[int] = singular.DEFAULT_N_GRID) -> dict:
    """Expansion-formula estimate of lambda_f against the closed bounds.

    The estimate at each n is rho_n^L (lambda_T w1 + lambda_X w2) n^(L+1)
    with the tallied expansion counts and the limiting ratios w1, w2 of
    simple tautologies and fixed-literal trees.  The n -> infinity value is
    the polynomial in 1/n through the estimates at the distinct grid points,
    read at 1/n = 0 (singular._extrapolate; one point gives its estimate),
    and that limit is what the bound check uses.  When the limit falls
    outside the bounds, `reason` names the missed bound and the gap.
    """
    # an estimate at n counts trees on x1..xn, so f must depend on none past n
    least = max(f.essential_vars(), default=1)
    if not n_grid or min(n_grid) < least:
        raise DomainError("n_grid needs at least one value, each >= %d: at "
                          "least 1 and every variable f depends on" % least)
    ts = complexity(f, model)
    tally = enumerate_expansions(ts)
    bounds = _published(model, ts.L, ts.M)[0]
    rows = []
    for n in dict.fromkeys(n_grid):  # each distinct n once, in order
        sing = singular.dominant_singularity(model, n)
        rho, w1, w2 = float(sing.rho), float(sing.w1), float(sing.w2)
        est = rho ** ts.L * (tally.lambda_T * w1
                             + tally.lambda_X * w2) * n ** (ts.L + 1)
        rows.append({"n": n, "rho": rho, "estimate": est})
    limit = singular._extrapolate([r["n"] for r in rows],
                                  [r["estimate"] for r in rows])
    # slack covers the O(1/n^k) remainder of extrapolating through k points
    within = (None if bounds.restricted else
              bounds.lower - _tol(bounds) <= limit <= bounds.upper + _tol(bounds))
    return {
        "f": f.to_string(),
        "model": model.value,
        "L": ts.L,
        "M": ts.M,
        "lambda_T": tally.lambda_T,
        "lambda_X": tally.lambda_X,
        "bounds": {"lower": bounds.lower, "upper": bounds.upper,
                   "restricted": bounds.restricted},
        "grid": rows,
        "limit": limit,
        "within_bounds": within,
        "reason": (_violation(limit, bounds, model, ts.L)
                   if within is False else None),
    }
