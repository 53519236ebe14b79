"""Exhaustive counting, generation and finite-size distributions.

This module is the brute-force oracle for the rest of the package.  It holds
three routes, so that each checks the others: tree counts by one recurrence
(count_trees), one tree generator (generate_trees, guarded by a configurable
cap) and one value DP (distribution and classifier_counts, no cap needed).
Their cores call none of each other's functions; the entry points consult
count_trees only for the cap, for range checks and to size and check the
DP's integers.
The generator builds each subtree once per call and keeps the lists of the
trees smaller than the ones it streams; its cap counts both.  Its leaves and
node builder make Trees, or truth tables for distribution_by_generation.

All three routes follow one grammar for all four models, each in its own
code.  A connective node takes its children from one pool (any tree if
binary; a leaf or a tree rooted by the other connective if stratified),
exactly two (binary) or at least two (stratified), as a sequence (plane) or
as a multiset (non-plane).  The counts run this grammar over sizes only.
The DP runs the same grammar entrywise on numpy vectors over values: truth
tables for distributions, and classifier states for the counts of trees
with an or-only path to a fixed literal and of simple tautologies realized
by a fixed variable (see classifier_counts).  It builds the or-rooted trees
in the subset-sum domain and gets the and-rooted ones by swapping every
connective.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb
from operator import mul
from typing import Callable, Iterator, Sequence

import numpy as np

from .boolfun import BoolFunc, Literal
from .errors import DomainError, ResourceCapError
from .trees import AND, OR, ModelId, Tree, _fold, compute_function, opposite

GENERATION_CAP = 50_000_000


# ---------------------------------------------------------------------------
# counting


def _multiset_ge2(counts: list[int], m: int) -> int:
    """Multisets of >= 2 trees with sizes summing to m, item supplies counts[s]."""
    # f[j] = multisets of trees of size < m, total size j (>= 2 parts if j = m)
    f = [0] * (m + 1)
    f[0] = 1
    for s in range(1, m):
        if counts[s] == 0:
            continue
        # convolve with sum_k C(counts[s]+k-1, k) z^(s*k)
        g = [0] * (m + 1)
        for j in range(m + 1):
            if f[j] == 0:
                continue
            k = 0
            while j + s * k <= m:
                g[j + s * k] += f[j] * comb(counts[s] + k - 1, k)
                k += 1
        f = g
    return f[m]


def _counts(model: ModelId, m: int, n: int) -> list[int]:
    """c[s] for s <= m: the trees of size s if binary; if stratified, the
    trees of size s that are a leaf or rooted by one fixed connective.

    c = 2nz + 2 pairs(c), with ordered pairs c*c or unordered pairs
    (c*c + c(z^2))/2 (binary); c = 2nz + the sequences (plane) or multisets
    of >= 2 c-trees (stratified).
    """
    binary, plane = model.binary, model.plane
    c = [0] * (m + 1)
    c[1] = 2 * n
    seq = c[:]  # sequences of >= 1 c-trees, for the plane stratified model
    for s in range(2, m + 1):
        if binary:
            # pairs of trees of sizes i < s - i, and of two of size s/2
            apart = sum(map(mul, c[1:(s + 1) // 2], c[s - 1:s // 2:-1]))
            same = c[s // 2] if s % 2 == 0 else 0
            c[s] = 2 * (2 * apart + same * same if plane
                        else apart + (same * same + same) // 2)
        elif plane:
            c[s] = sum(map(mul, c[1:s], seq[s - 1:0:-1]))
            seq[s] = 2 * c[s]
        else:
            c[s] = _multiset_ge2(c, s)
    return c


def count_trees(model: ModelId, m: int, n: int) -> int:
    """Exact number of canonical model trees with m leaves over n variables."""
    if m < 1 or n < 1:
        raise DomainError("m and n must be >= 1")
    # a stratified tree of size >= 2 has either root connective
    c = _counts(model, m, n)[m]
    return c if model.binary or m == 1 else 2 * c


# ---------------------------------------------------------------------------
# generation


def _literals(n: int) -> list[Literal]:
    return [Literal(v, positive) for v in range(1, n + 1)
            for positive in (True, False)]


# The generator lists a multiset of children in non-decreasing (size, index)
# order.  It takes the leaf alphabet and a builder node(conn, kids), so it
# yields labelled trees, their truth tables (distribution_by_generation) and
# the connective shapes of patterns.verify_pattern_lemmas (one-symbol alphabet).
Node = Callable[[str, Sequence], object]


def _generate(model: ModelId, m: int, leaves: Sequence, node: Node) -> Iterator:
    """Trees of size m, streamed.  Each smaller subtree is built once per call,
    kept in a list per (size, pool) for every choice of its siblings, and
    dropped when the generator finishes or is closed."""
    plane, binary = model.plane, model.binary

    @lru_cache(maxsize=None)
    def listed(size: int, pool: tuple) -> list:
        return list(trees(size, pool))

    def trees(size: int, roots: Sequence[str]) -> Iterator:
        if size == 1:
            yield from leaves
            return
        for conn in roots:
            pool = (AND, OR) if binary else (opposite(conn),)

            def kids(remaining: int, lo: int, start: int, acc: list) -> Iterator:
                # acc holds the children so far; the next has size >= lo, and
                # index >= start at size lo.  A child that is not the last leaves
                # room for one more: of any size (plane) or no smaller (non-plane)
                top = remaining - 1 if plane else remaining // 2
                for size in range(lo, top + 1):
                    first = start if size == lo else 0
                    for idx, child in islice(enumerate(listed(size, pool)),
                                             first, None):
                        rest = remaining - size
                        if binary:
                            # the second child takes all that remains
                            for other in islice(listed(rest, pool),
                                                0 if plane or rest > size else idx,
                                                None):
                                yield node(conn, (child, other))
                        else:
                            yield from kids(rest, 1 if plane else size,
                                            0 if plane else idx, acc + [child])
                if acc:
                    # the last child takes all that remains
                    first = start if remaining == lo else 0
                    for child in islice(listed(remaining, pool), first, None):
                        yield node(conn, acc + [child])

            yield from kids(size, 1, 0, [])

    try:
        yield from trees(m, (AND, OR))
    finally:
        listed.cache_clear()


def _check_cap(model: ModelId, m: int, n: int) -> None:
    # the trees streamed plus the smaller subtrees listed to build them
    total = count_trees(model, m, n) + sum(count_trees(model, s, n)
                                           for s in range(2, m))
    if total > GENERATION_CAP:
        raise ResourceCapError("generation of %d trees exceeds cap %d"
                               % (total, GENERATION_CAP))


def generate_trees(model: ModelId, m: int, n: int) -> Iterator[Tree]:
    """Stream every canonical tree exactly once, deterministic order."""
    _check_cap(model, m, n)
    leaves = [Tree.leaf(lit, model) for lit in _literals(n)]
    return _generate(model, m, leaves,
                     lambda conn, kids: Tree.internal(conn, kids, model))


# ---------------------------------------------------------------------------
# value DP
#
# A value is a bits-bit int: a truth table, or a classifier's or-path state.
# An or-node's value is the bitwise or of its children's, so in the
# subset-sum domain (entry v counts the trees whose value lies inside v) its
# children combine entrywise as the sizes do in _counts; for multisets too,
# as or is idempotent.  Swapping every connective maps the or-rooted trees
# of a size one to one onto the and-rooted ones, so the caller supplies that
# map on value vectors and the DP builds only or-nodes.


def _zeta(vec, inverse: bool = False):
    """Subset sums of vec over the bits of its index (inverse: the Mobius
    transform that undoes them), in place; vec must be C-contiguous."""
    op = np.subtract if inverse else np.add
    for k in range(vec.size.bit_length() - 1):
        w = vec.reshape(1 << k, 2, -1)
        op(w[:, 1], w[:, 0], out=w[:, 1])
    return vec


def _dot(xs: Sequence, ys: Sequence):
    """Sum of the products xs[i] ys[i], accumulated in place to save memory."""
    out = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        out += x * y
    return out


def _value_dp(model: ModelId, m: int, leaves, swap: Callable):
    """Value vector of the model's trees of size m.  leaves is the leaves'
    vector (transformed in place); swap maps the or-rooted trees' vector of
    a size to a new one for the and-rooted trees.  leaves' dtype must hold
    2 m times the number of trees of size m, which bounds every entry."""
    binary, plane = model.binary, model.plane
    # transformed, per size: all trees, and the children of an or-node (any
    # tree if binary; a leaf or an and-rooted tree if stratified)
    trees = [1, _zeta(leaves)]
    kids = trees if binary else trees[:]
    c = [0] * (m + 1)
    for s in range(2, m + 1):
        if binary or plane:
            # a first child, then one more (binary) or any tree (plane)
            ors = _dot(kids[1:s], (kids if binary else trees)[s - 1:0:-1])
            if not plane:
                # unordered pairs: count the pairs of equal children twice
                ors += kids[s // 2] if s % 2 == 0 else 0
                ors //= 2
        else:
            # the multisets of >= 1 kids of size k are trees[k] (trees[0] is
            # the empty one), and s M_s = sum_k c_k M_(s-k) with c[k] = sum
            # over d | k of d kids[d]; c[s] lacks the lone kid of size s
            for j in range(s - 1, m + 1, s - 1):
                c[j] += (s - 1) * kids[s - 1]
            ors = _dot(c[1:s + 1], trees[s - 1::-1])
            ors //= s
        ands = swap(_zeta(ors, inverse=True))
        ors += ands
        trees.append(_zeta(ors))
        if not binary:
            kids.append(_zeta(ands))
        del ands  # not kept if binary, and the next products need the room
    return _zeta(trees[m], inverse=True)


def _int_type(bound: int):
    """The narrowest numpy integer type that holds bound, else object."""
    return next((t for t in (np.int8, np.int16, np.int32, np.int64)
                 if bound <= np.iinfo(t).max), object)


# ---------------------------------------------------------------------------
# distributions


@dataclass
class Distribution:
    model: ModelId
    m: int
    n: int
    counts: dict  # BoolFunc -> int
    total: int

    def to_json_dict(self) -> dict:
        entries = sorted(self.counts.items(), key=lambda kv: kv[0].table)
        return {
            "model": self.model.value,
            "m": self.m,
            "n": self.n,
            "total": str(self.total),
            "entries": [
                {"function": f.to_string(), "count": str(c)} for f, c in entries
            ],
        }

    def to_csv_rows(self) -> list[tuple[str, str]]:
        entries = sorted(self.counts.items(), key=lambda kv: kv[0].table)
        return [(f.to_string(), str(c)) for f, c in entries]


def distribution(model: ModelId, m: int, n: int) -> Distribution:
    """Exact counts of trees per computed function, via DP over truth tables."""
    expected = count_trees(model, m, n)  # also rejects m < 1 and n < 1
    if n > 4:
        raise ResourceCapError("distribution DP supports n <= 4")

    bits = 1 << n  # a truth table has one bit per assignment
    leaves = np.zeros(1 << bits, _int_type(2 * m * expected))
    for lit in _literals(n):
        leaves[BoolFunc.from_literal(lit, n).table] += 1
    # f to its dual ~f(~x): complement the table, then bit-reverse it
    vec = _value_dp(model, m, leaves,
                    lambda v: v[::-1].reshape((2,) * bits).T.reshape(-1))
    tables = np.flatnonzero(vec)
    counts = {BoolFunc(n, tab): cnt
              for tab, cnt in zip(tables.tolist(), vec[tables].tolist())}
    total = sum(counts.values())
    # numpy wraps on overflow, so a negative count is an error too
    if total != expected or min(counts.values()) < 0:
        raise AssertionError("distribution total %d != count %d" % (total, expected))
    return Distribution(model, m, n, counts, total)


def distribution_by_generation(model: ModelId, m: int, n: int) -> Distribution:
    """Same result as distribution(), by generating every tree (cross-check)
    as its truth table: the literals' tables folded by compute_function's fold."""
    _check_cap(model, m, n)
    leaves = [BoolFunc.from_literal(lit, n).table for lit in _literals(n)]
    tables = Counter(_generate(model, m, leaves, _fold))
    counts = {BoolFunc(n, table): c for table, c in tables.items()}
    return Distribution(model, m, n, counts, sum(counts.values()))


# ---------------------------------------------------------------------------
# classifiers


def _path_literals(t: Tree, conn: str) -> set[Literal]:
    """Literals joined to the root by a conn-only path (a lone leaf counts)."""
    if t.is_leaf():
        return {t.literal}  # type: ignore[arg-type]
    if t.conn != conn:
        return set()
    return set().union(*(_path_literals(c, conn) for c in t.children))


def or_path_literals(t: Tree) -> set[Literal]:
    """Literals joined to the root by an or-only path (a lone leaf counts)."""
    return _path_literals(t, OR)


def is_simple_tautology(t: Tree) -> set[int]:
    """Variables realizing t as a simple tautology (empty set = not simple)."""
    lits = or_path_literals(t)
    return {lit.var for lit in lits if lit.negate() in lits}


def _is_simple_contradiction(t: Tree) -> bool:
    # the dual's or-paths are t's and-paths, every literal negated
    lits = _path_literals(t, AND)
    return any(lit.negate() in lits for lit in lits)


def is_simple_x(t: Tree):
    """Classify as ('x_T', lit), ('x_X', lit) or None.

    Shapes (binary root): lit & ST, lit | SC, lit & (lit | ...),
    lit | (lit & ...), where the companion of the second pair repeats the
    literal and carries no other first-level leaf with the same variable.
    """
    if t.is_leaf() or len(t.children) != 2:
        return None
    c1, c2 = t.children
    for a, b in ((c1, c2), (c2, c1)):
        if not a.is_leaf():
            continue
        lit = a.literal
        if t.conn == AND and is_simple_tautology(b):
            return ("x_T", lit)
        if t.conn == OR and _is_simple_contradiction(b):
            return ("x_T", lit)
        if not b.is_leaf() and b.conn == opposite(t.conn):
            leaf_kids = [c.literal for c in b.children if c.is_leaf()]
            if (lit in leaf_kids
                    and sum(1 for l in leaf_kids if l.var == lit.var) == 1):
                return ("x_X", lit)
    return None


def classify_tautologies(model: ModelId, m: int, n: int) -> tuple[int, int]:
    """(simple, non-simple) counts over all trees computing True."""
    true_f = BoolFunc.constant(n, True)
    simple = Counter(bool(is_simple_tautology(t))
                     for t in generate_trees(model, m, n)
                     if compute_function(t, n) == true_f)
    return simple[True], simple[False]


def classifier_counts(model: ModelId, kind: str, m: int, n: int) -> int:
    """Exact count of size-m trees with the classifier property for x1.

    kind 'g_x': an or-only path from the root to a leaf x1.
    kind 'st_x': simple tautology realized by variable 1.
    The count runs the value DP over 2-bit states (bit 0: an or-path to x1,
    bit 1: to ~x1; an and-rooted tree has neither), without building trees.
    """
    if kind not in ("g_x", "st_x"):
        raise DomainError("unknown classifier kind %r" % kind)
    # count_trees also rejects m < 1 and n < 1
    dtype = _int_type(2 * m * count_trees(model, m, n))
    vec = _value_dp(model, m, np.array([2 * n - 2, 1, 1, 0], dtype),
                    lambda v: np.array([v.sum(), 0, 0, 0], v.dtype))
    return int(vec[3] if kind == "st_x" else vec[1] + vec[3])


def classifier_counts_by_generation(model: ModelId, kind: str, m: int,
                                    n: int) -> int:
    """Literal generate-and-classify version of classifier_counts."""
    if kind not in ("g_x", "st_x"):
        raise DomainError("unknown classifier kind %r" % kind)
    lit = Literal(1, True)
    if kind == "st_x":
        return sum(1 in is_simple_tautology(t)
                   for t in generate_trees(model, m, n))
    return sum(lit in or_path_literals(t) for t in generate_trees(model, m, n))
