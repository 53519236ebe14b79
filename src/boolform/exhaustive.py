"""Exhaustive counting, generation and finite-size distributions.

This module is the brute-force oracle for the rest of the package.  It holds
three routes, so that each checks the others: tree counts by one recurrence
(count_trees), one tree generator (generate_trees, guarded by a configurable
cap) and one value DP (distribution and classifier_counts, no cap needed).
Their cores call none of each other's functions; the entry points consult
count_trees only for the cap, for range checks and to check the DP's total.
The generator builds each subtree once per call and keeps the lists of the
trees smaller than the ones it streams; its cap counts both.

All three routes follow one grammar for all four models, each in its own
code.  A connective node takes its children from one pool (any tree if
binary; a leaf or a tree rooted by the other connective if stratified),
exactly two (binary) or at least two (stratified), as a sequence (plane) or
as a multiset (non-plane).  The counts run this grammar over sizes only.
The DP runs over truth tables for distributions, and over classifier
states for the counts of trees with an or-only path to a fixed literal and
of simple tautologies realized by a fixed variable (see classifier_counts).
It counts multisets with "choose with repetition" terms and folds each
repeated child explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb
from operator import mul
from typing import Callable, Iterator, Sequence

from .boolfun import BoolFunc, Literal
from .errors import DomainError, ResourceCapError
from .trees import AND, OR, ModelId, Tree, compute_function, dual_tree, opposite

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
    out = []
    for v in range(1, n + 1):
        out.append(Literal(v, True))
        out.append(Literal(v, False))
    return out


# The generator lists a multiset of children in non-decreasing (size, index)
# order.  It takes the leaf alphabet and a builder node(conn, kids), so it
# yields both labelled trees (generate_trees) and the unlabelled connective
# shapes of patterns.verify_pattern_lemmas (one-symbol alphabet).
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


def generate_trees(model: ModelId, m: int, n: int) -> Iterator[Tree]:
    """Stream every canonical tree exactly once, deterministic order."""
    # the trees streamed plus the smaller subtrees listed to build them
    total = count_trees(model, m, n) + sum(count_trees(model, s, n)
                                           for s in range(2, m))
    if total > GENERATION_CAP:
        raise ResourceCapError("generation of %d trees exceeds cap %d"
                               % (total, GENERATION_CAP))
    leaves = [Tree.leaf(lit, model) for lit in _literals(n)]
    return _generate(model, m, leaves,
                     lambda conn, kids: Tree.internal(conn, kids, model))


# ---------------------------------------------------------------------------
# value DP
#
# A "value" is any hashable tag computed bottom-up: the truth table for
# distributions, an or-path state for classifier counts.  For each size and
# connective the DP folds the children's values as a sequence (plane: a first
# child, then a tail) or as a multiset (non-plane: a knapsack over (size,
# value) groups whose state carries over from one size to the next).
# Combines must be associative and commutative.  They need not be
# idempotent: the classifier's and-combine maps (1,0),(1,0) to (0,0).  So
# each repeated child of a multiset is folded explicitly, and the Polya
# exponential, whose z^l terms count l equal children as one, does not carry
# over to value vectors.

Value = object
Combine = Callable[[Value, Value], Value]
Vec = dict  # value -> count


def _fold_pairs(va: Vec, vb: Vec, f: Combine, out: Vec) -> None:
    for g, cg in va.items():
        for h, ch in vb.items():
            key = f(g, h)
            out[key] = out.get(key, 0) + cg * ch


def _merged(va: Vec, vb: Vec) -> Vec:
    out = dict(va)
    for key, cnt in vb.items():
        out[key] = out.get(key, 0) + cnt
    return out


def _leaf_vec(n: int, leaf_value: Callable[[Literal], Value]) -> Vec:
    vec: Vec = {}
    for lit in _literals(n):
        key = leaf_value(lit)
        vec[key] = vec.get(key, 0) + 1
    return vec


def _add_multisets(sets: dict, size: int, kids: Vec, fold: Combine,
                   binary: bool) -> None:
    """Let the multisets of children take any number of the kids of one size.

    sets[1][t] and sets[2][t] are the value vectors of the multisets of total
    size t with one part and with two or more; a binary node takes two.
    """
    m = len(sets[1]) - 1
    for key, cnt in kids.items():
        # k copies of the group: value key folded k times (combines need not
        # be idempotent), picked from cnt trees in C(cnt + k - 1, k) ways
        copies, value, ways = [], key, cnt
        for k in range(1, (2 if binary else m // size) + 1):
            copies.append({value: ways})
            value, ways = fold(value, key), ways * (cnt + k) // (k + 1)
        # totals descend, so no multiset takes this group twice
        for t in range(m - size, 0, -1):
            for parts in (1,) if binary else (1, 2):
                if not sets[parts][t]:
                    continue
                for k, copy in enumerate(copies, 1):
                    if t + k * size > m or (binary and parts + k > 2):
                        break
                    _fold_pairs(copy, sets[parts][t], fold,
                                sets[min(parts + k, 2)][t + k * size])
        for k, copy in enumerate(copies, 1):
            if k * size > m:
                break
            out = sets[min(k, 2)][k * size]
            for value, ways in copy.items():
                out[value] = out.get(value, 0) + ways


def _value_dp(model: ModelId, m: int, n: int, leaf_value,
              f_and: Combine, f_or: Combine) -> Vec:
    """Value vector of the model's trees of size m."""
    folds = {AND: f_and, OR: f_or}
    trees: list[Vec] = [{}, _leaf_vec(n, leaf_value)]
    rooted = {AND: [{}, {}], OR: [{}, {}]}
    # per connective and size: the pool of children; plane models keep the
    # tails that may follow a first child (one child if binary, one or more
    # if stratified), non-plane models the multisets of children
    pool = {AND: [{}], OR: [{}]}
    tail = {AND: [{}], OR: [{}]}
    sets = {conn: {1: [{} for _ in range(m + 1)], 2: [{} for _ in range(m + 1)]}
            for conn in (AND, OR)}
    for s in range(1, m + 1):
        if s > 1:
            for conn in (AND, OR):
                if model.plane:
                    out: Vec = {}
                    for i in range(1, s):
                        _fold_pairs(pool[conn][i], tail[conn][s - i],
                                    folds[conn], out)
                else:
                    # complete: later sizes add only to larger totals
                    out = sets[conn][2][s]
                rooted[conn].append(out)
            trees.append(_merged(rooted[AND][s], rooted[OR][s]))
        for conn in (AND, OR):
            kids = trees[s] if model.binary or s == 1 else rooted[opposite(conn)][s]
            pool[conn].append(kids)
            if model.plane:
                tail[conn].append(kids if model.binary
                                  else _merged(kids, rooted[conn][s]))
            else:
                _add_multisets(sets[conn], s, kids, folds[conn], model.binary)
    return trees[m]


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

    def leaf_value(lit: Literal) -> int:
        return BoolFunc.from_literal(lit, n).table

    vec = _value_dp(model, m, n, leaf_value,
                    lambda g, h: g & h, lambda g, h: g | h)
    counts = {BoolFunc(n, tab): cnt for tab, cnt in vec.items() if cnt}
    total = sum(counts.values())
    if total != expected:
        raise AssertionError("distribution total %d != count %d" % (total, expected))
    return Distribution(model, m, n, counts, total)


def distribution_by_generation(model: ModelId, m: int, n: int) -> Distribution:
    """Same result as distribution(), by materializing every tree (cross-check)."""
    counts: dict = {}
    total = 0
    for t in generate_trees(model, m, n):
        f = compute_function(t, n)
        counts[f] = counts.get(f, 0) + 1
        total += 1
    return Distribution(model, m, n, counts, total)


# ---------------------------------------------------------------------------
# classifiers


def or_path_literals(t: Tree) -> set[Literal]:
    """Literals joined to the root by an or-only path (a lone leaf counts)."""
    if t.is_leaf():
        return {t.literal}  # type: ignore[arg-type]
    if t.conn == OR:
        out: set[Literal] = set()
        for c in t.children:
            out |= or_path_literals(c)
        return out
    return set()


def is_simple_tautology(t: Tree) -> set[int]:
    """Variables realizing t as a simple tautology (empty set = not simple)."""
    lits = or_path_literals(t)
    return {lit.var for lit in lits if lit.negate() in lits}


def _is_simple_contradiction(t: Tree) -> bool:
    return bool(is_simple_tautology(dual_tree(t)))


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
    simple = 0
    nonsimple = 0
    for t in generate_trees(model, m, n):
        if compute_function(t, n) == true_f:
            if is_simple_tautology(t):
                simple += 1
            else:
                nonsimple += 1
    return simple, nonsimple


def classifier_counts(model: ModelId, kind: str, m: int, n: int) -> int:
    """Exact count of size-m trees with the classifier property for x1.

    kind 'g_x': an or-only path from the root to a leaf x1.
    kind 'st_x': simple tautology realized by variable 1.
    The count runs the structural DP over classifier states (or-path-to-x1,
    or-path-to-~x1); this encodes exactly the brute-force classifier
    semantics without materializing trees.
    """
    if kind not in ("g_x", "st_x"):
        raise DomainError("unknown classifier kind %r" % kind)
    if m < 1 or n < 1:
        raise DomainError("m and n must be >= 1")

    def leaf_value(lit: Literal):
        if lit.var == 1:
            return (1, 0) if lit.positive else (0, 1)
        return (0, 0)

    vec = _value_dp(model, m, n, leaf_value,
                    lambda g, h: (0, 0),
                    lambda g, h: (g[0] | h[0], g[1] | h[1]))
    if kind == "st_x":
        return vec.get((1, 1), 0)
    return sum(cnt for (a, _b), cnt in vec.items() if a == 1)


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
