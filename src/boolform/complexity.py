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

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .boolfun import BoolFunc, Literal
from .errors import DomainError, ResourceCapError
from .trees import AND, OR, ModelId, Tree, compute_function, opposite
from .exhaustive import generate_trees
from . import singular

SEARCH_BUDGET = 8


@dataclass
class MinimalTreeSet:
    f: BoolFunc
    model: ModelId
    L: int
    trees: list

    @property
    def M(self) -> int:
        return len(self.trees)


def complexity(f: BoolFunc, model: ModelId, budget: int = SEARCH_BUDGET) -> MinimalTreeSet:
    """Search sizes 1, 2, ... until some tree computes f; return them all."""
    if f.is_constant():
        return MinimalTreeSet(f, model, 0, [])
    for m in range(1, budget + 1):
        found = [t for t in generate_trees(model, m, f.n)
                 if compute_function(t, f.n) == f]
        if found:
            return MinimalTreeSet(f, model, m, found)
    raise ResourceCapError("no tree of size <= %d computes %s" % (budget, f))


def complexity_model_independence(f: BoolFunc, budget: int = SEARCH_BUDGET) -> bool:
    values = {complexity(f, model, budget).L for model in ModelId}
    return len(values) == 1


# ---------------------------------------------------------------------------
# expansions


def _witness(kind: str, conn: str, x: Optional[Literal], fresh: int,
             model: ModelId) -> Tree:
    """Smallest legal insert: a two-leaf tree rooted by opposite(conn).

    T under conn=AND wants a simple tautology y|~y; under OR a simple
    contradiction.  X under AND wants x|fresh, under OR x&fresh, where x
    is the realizing literal.
    """
    root = opposite(conn)
    y = Literal(fresh, True)
    if kind == "T":
        a, b = y, Literal(fresh, False)
    else:
        a, b = x, y
    return Tree.internal(root, [Tree.leaf(a, model), Tree.leaf(b, model)], model)


@dataclass
class ExpansionTally:
    f: BoolFunc
    model: ModelId
    lambda_T: int
    lambda_X: int
    per_tree: list = field(default_factory=list)  # (tree, t_count, x_count)


def _sites(t: Tree):
    """(conn, build) per expansion site of t: build(w) is t with the witness w
    placed as a child of a conn-node.

    Any node can be pushed down under a new conn-node beside the witness; in
    a stratified model conn must differ from the node's connective and its
    parent's.  In a stratified model an internal node can also take the
    witness as one more child, at every gap (plane) or in one slot.
    """
    model = t.model
    sides = (0, 1) if model.plane else (0,)

    def walk(node: Tree, parent_conn: Optional[str], rebuild):
        # rebuild(sub) is t with this node replaced by sub
        for conn in (AND, OR):
            if model.binary or conn not in (node.conn, parent_conn):
                for side in sides:
                    def build(w, conn=conn, side=side):
                        kids = [node, w] if side == 0 else [w, node]
                        return rebuild(Tree.internal(conn, kids, model))
                    yield conn, build
        kids = node.children
        if kids and not model.binary:
            for pos in range(len(kids) + 1) if model.plane else (0,):
                def build(w, pos=pos):
                    return rebuild(Tree.internal(
                        node.conn, kids[:pos] + (w,) + kids[pos:], model))
                yield node.conn, build
        for i, child in enumerate(kids):
            def rebuild_child(sub, i=i):
                return rebuild(Tree.internal(
                    node.conn, kids[:i] + (sub,) + kids[i + 1:], model))
            yield from walk(child, node.conn, rebuild_child)

    yield from walk(t, None, lambda sub: sub)


def enumerate_expansions(ts: MinimalTreeSet) -> ExpansionTally:
    """Tally valid T- and X-expansion sites over all minimal trees.

    Every candidate site is validated by actually building the expanded
    tree with a two-leaf witness on a fresh variable and re-checking the
    computed function; per-site validity is uniform over same-kind
    expansions, so one witness decides the site.
    """
    f = ts.f
    if f.is_constant():
        raise DomainError("expansions are defined for non-constant functions")
    model, n = ts.model, f.n
    fresh = n + 1
    lifted = f.lift(n + 1)
    # X-realizations range over literals of essential variables; validity
    # depends on the polarity, so both are tried per site
    essential = [Literal(v, pol) for v in sorted(f.essential_vars())
                 for pol in (True, False)]
    tally = ExpansionTally(f, model, 0, 0)

    def valid(expanded: Tree) -> bool:
        return compute_function(expanded, n + 1) == lifted

    for t in ts.trees:
        t_count = x_count = 0
        for conn, build in _sites(t):
            t_count += valid(build(_witness("T", conn, None, fresh, model)))
            x_count += sum(valid(build(_witness("X", conn, x, fresh, model)))
                           for x in essential)
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


def _lm(f: BoolFunc, model: ModelId) -> tuple[int, int]:
    ts = complexity(f, model)
    if ts.L == 0:
        raise DomainError("bounds are defined for non-constant functions")
    return ts.L, ts.M


def lambda_bounds(f: BoolFunc, model: ModelId) -> Bounds:
    """Closed-form bounds on the constant lambda_f, per model.

    The formulas are the published ones.  The `comm` pair collapses at
    L = 1 (M = 1) to 1153/4096, the published literal constant, which
    contradicts the derived limit 5/16 (tests/test_comm_limits.py).  So
    `probability_vs_bounds(x1, comm)` reports `within_bounds: False` and
    says why in `reason`.
    """
    return _bounds_formula(model, *_lm(f, model))


def _bounds_formula(model: ModelId, L: int, M: int) -> Bounds:
    if model is ModelId.CATALAN:
        ell = (L + 1) // 2 if L > 1 else 0
        return Bounds((8 * L - 3 + ell) * M / 16.0 ** L,
                      (4 * L * L + 4 * L - 3) * M / 16.0 ** L, False)
    if model is ModelId.ASSOC:
        c = ((3 - 2 * SQRT2) / 2) ** L
        lo = c * (133 * L + 153 - (93 * L + 108) * SQRT2) * M
        hi = c * (-(12 * L * L - 247 * L + 51)
                  + (9 * L * L - 174 * L + 36) * SQRT2) * M
        return Bounds(lo, hi, L == 1)
    if model is ModelId.COMM:
        return Bounds((1794 * L - 641) * M / (512.0 * 8 ** L),
                      (2 * L - 1) * (512 * L + 641) * M / (512.0 * 8 ** L), False)
    c = ((2 * LN2 - 1) / 2) ** L
    lo = c * ((LN2 ** 2 - 0.25) * L + LN2 ** 2 - 2 * LN2 + 0.5) * M
    hi = c * (2 * LN2 - 1) * (L + 1 + 4 * LN2) * L / 4 * M
    return Bounds(lo, hi, L == 1)


def lambda_x_bounds(f: BoolFunc, model: ModelId) -> Bounds:
    """Bounds on the X-expansion tally lambda_X(f)."""
    L, M = _lm(f, model)
    if model is ModelId.CATALAN:
        # per-leaf sites give 4L, fathers add 2*ceil(L/2) once L > 1
        ell = (L + 1) // 2 if L > 1 else 0
        return Bounds((4 * L + 2 * ell) * M, 4 * L * (2 * L - 1) * M, False)
    if model is ModelId.ASSOC:
        return Bounds(5 * L * M, L * (3 * L + 2) * M, L == 1)
    if model is ModelId.COMM:
        return Bounds(2 * L * M, 2 * L * (2 * L - 1) * M, False)
    return Bounds(2 * L * M, (L * L + 3 * L) * M, L == 1)


def lambda_t_reference(f: BoolFunc, model: ModelId) -> Bounds:
    """Exact value (binary models) or bounds on the T-expansion tally."""
    L, M = _lm(f, model)
    if model is ModelId.CATALAN:
        v = 4 * (2 * L - 1) * M
        return Bounds(v, v, False)
    if model is ModelId.COMM:
        v = 2 * (2 * L - 1) * M
        return Bounds(v, v, False)
    if model is ModelId.ASSOC:
        # derivation assumes at least one internal node
        return Bounds(3 * (L + 1) * M, (5 * L - 1) * M, L == 1)
    return Bounds((L + 2) * M, 2 * L * M, L == 1)


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


def probability_vs_bounds(f: BoolFunc, model: ModelId,
                          n_grid: Sequence[int] = (100, 200, 400)) -> dict:
    """Expansion-formula estimate of lambda_f against the closed bounds.

    The estimate at each n is rho_n^L (lambda_T w1 + lambda_X w2) n^(L+1)
    with the tallied expansion counts and the limiting ratios w1, w2 of
    simple tautologies and fixed-literal trees.  With two or more grid
    points the n -> infinity value is read off a least-squares a + b/n
    fit, and that limit is what the bound check uses.  When the limit
    falls outside the bounds, `reason` names the missed bound and the gap.
    """
    ts = complexity(f, model)
    tally = enumerate_expansions(ts)
    bounds = _bounds_formula(model, ts.L, ts.M)
    rows = []
    for n in n_grid:
        rho = float(singular.dominant_singularity(model, n).rho)
        w1, w2 = singular.w_rates(model, n)
        est = rho ** ts.L * (tally.lambda_T * float(w1)
                             + tally.lambda_X * float(w2)) * n ** (ts.L + 1)
        rows.append({"n": n, "rho": rho, "estimate": est})
    if len(rows) >= 2:
        import numpy as np
        ns = np.array([r["n"] for r in rows], dtype=float)
        ys = np.array([r["estimate"] for r in rows])
        design = np.vstack([np.ones_like(ns), 1.0 / ns]).T
        limit = float(np.linalg.lstsq(design, ys, rcond=None)[0][0])
    else:
        limit = rows[-1]["estimate"]
    # slack covers the residual O(1/n^2) error of the two-term fit
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
