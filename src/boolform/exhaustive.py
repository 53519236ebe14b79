"""Exhaustive counting, generation and finite-size distributions.

This module is the brute-force oracle for the rest of the package.  Counting
and distributions use dynamic programming (no cap needed); materializing
trees is guarded by a configurable cap.

The distribution DP runs over truth tables directly; for the non-plane
models the unordered pair / multiset structure is handled with the usual
"choose with repetition" diagonal terms.  The same engines, run over
classifier states instead of truth tables, produce exact counts of trees
with an or-only path to a fixed literal and of simple tautologies realized
by a fixed variable (see classifier_counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, Sequence

from .boolfun import BoolFunc, Literal
from .errors import DomainError, ResourceCapError
from .trees import AND, OR, ModelId, Tree, compute_function, dual_tree, opposite

GENERATION_CAP = 50_000_000


# ---------------------------------------------------------------------------
# counting


def _counts_catalan(m: int, n: int) -> list[int]:
    t = [0] * (m + 1)
    if m >= 1:
        t[1] = 2 * n
    for s in range(2, m + 1):
        t[s] = 2 * sum(t[i] * t[s - i] for i in range(1, s))
    return t


def _counts_assoc_half(m: int, n: int) -> list[int]:
    # hat[s]: trees that are a leaf or rooted by one fixed connective.
    hat = [0] * (m + 1)
    q = [0] * (m + 1)  # q = hat/(1-hat), sequences of >= 1 hat-trees
    for s in range(1, m + 1):
        r2 = sum(hat[i] * q[s - i] for i in range(1, s))
        hat[s] = (2 * n if s == 1 else 0) + r2
        q[s] = hat[s] + r2
    return hat


def _counts_assoc(m: int, n: int) -> list[int]:
    hat = _counts_assoc_half(m, n)
    a = [0] * (m + 1)
    for s in range(1, m + 1):
        a[s] = 2 * hat[s] - (2 * n if s == 1 else 0)
    return a


def _pairs_unordered(c1: int) -> int:
    # unordered pairs from c1 objects, repetition allowed
    return comb(c1 + 1, 2)


def _counts_comm(m: int, n: int) -> list[int]:
    c = [0] * (m + 1)
    if m >= 1:
        c[1] = 2 * n
    for s in range(2, m + 1):
        pairs = sum(c[i] * c[s - i] for i in range(1, (s + 1) // 2))
        if s % 2 == 0:
            pairs += _pairs_unordered(c[s // 2])
        c[s] = 2 * pairs
    return c


def _multiset_ge2(counts: list[int], m: int) -> int:
    """Multisets of >= 2 trees with sizes summing to m, item supplies counts[s]."""
    # f[j] = multisets (any number of parts >= 0) of total size j
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
    single = counts[m] if m < len(counts) else 0
    return f[m] - single - (1 if m == 0 else 0)


def _counts_assoccomm_half(m: int, n: int) -> list[int]:
    hat = [0] * (m + 1)
    for s in range(1, m + 1):
        hat[s] = (2 * n if s == 1 else 0) + _multiset_ge2(hat, s)
    return hat


def _counts_assoccomm(m: int, n: int) -> list[int]:
    hat = _counts_assoccomm_half(m, n)
    p = [0] * (m + 1)
    for s in range(1, m + 1):
        p[s] = 2 * hat[s] - (2 * n if s == 1 else 0)
    return p


_COUNTERS = {
    ModelId.CATALAN: _counts_catalan,
    ModelId.ASSOC: _counts_assoc,
    ModelId.COMM: _counts_comm,
    ModelId.ASSOC_COMM: _counts_assoccomm,
}


def count_trees(model: ModelId, m: int, n: int) -> int:
    """Exact number of canonical model trees with m leaves over n variables."""
    if m < 1 or n < 1:
        raise DomainError("m and n must be >= 1")
    return _COUNTERS[model](m, n)[m]


# ---------------------------------------------------------------------------
# generation


def _literals(n: int) -> list[Literal]:
    out = []
    for v in range(1, n + 1):
        out.append(Literal(v, True))
        out.append(Literal(v, False))
    return out


# The generators take the leaf alphabet and a builder node(conn, kids), so one
# recursion yields both labelled trees (generate_trees) and the unlabelled
# connective shapes of patterns.verify_pattern_lemmas (one-symbol alphabet).
Node = Callable[[str, Sequence], object]


def _gen_catalan(m: int, leaves: Sequence, node: Node) -> Iterator:
    if m == 1:
        yield from leaves
        return
    for conn in (AND, OR):
        for i in range(1, m):
            for left in _gen_catalan(i, leaves, node):
                for right in _gen_catalan(m - i, leaves, node):
                    yield node(conn, (left, right))


def _gen_assoc_class(m: int, leaves: Sequence, node: Node, conn: str) -> Iterator:
    # trees usable as a child of an opposite(conn)-node: leaf or conn-rooted
    if m == 1:
        yield from leaves
        return

    def parts(remaining: int, acc: list) -> Iterator:
        # first child must leave room for at least one more
        top = remaining if acc else remaining - 1
        for size in range(1, top + 1):
            for child in _gen_assoc_class(size, leaves, node, opposite(conn)):
                if size == remaining:
                    yield node(conn, acc + [child])
                else:
                    yield from parts(remaining - size, acc + [child])

    yield from parts(m, [])


def _gen_assoc(m: int, leaves: Sequence, node: Node) -> Iterator:
    if m == 1:
        yield from leaves
        return
    for conn in (AND, OR):
        yield from _gen_assoc_class(m, leaves, node, conn)


def _gen_comm(m: int, leaves: Sequence, node: Node) -> Iterator:
    if m == 1:
        yield from leaves
        return
    for conn in (AND, OR):
        for i in range(1, m // 2 + 1):
            j = m - i
            if i < j:
                for left in _gen_comm(i, leaves, node):
                    for right in _gen_comm(j, leaves, node):
                        yield node(conn, (left, right))
            else:
                # unordered pair from equal sizes: stream by index
                for idx1, left in enumerate(_gen_comm(i, leaves, node)):
                    for idx2, right in enumerate(_gen_comm(i, leaves, node)):
                        if idx2 >= idx1:
                            yield node(conn, (left, right))


def _gen_ac_class(m: int, leaves: Sequence, node: Node, conn: str) -> Iterator:
    if m == 1:
        yield from leaves
        return

    # children: multiset of >= 2 leaf-or-opposite-rooted trees, enumerated as
    # non-decreasing (size, index) sequences for uniqueness
    def rec(remaining: int, min_size: int, min_idx: int, acc: list) -> Iterator:
        # first child must leave room for at least one more
        top = remaining if acc else remaining - 1
        for size in range(min_size, top + 1):
            start = min_idx if size == min_size else 0
            for idx, child in enumerate(_gen_ac_class(size, leaves, node,
                                                      opposite(conn))):
                if idx < start:
                    continue
                if size == remaining:
                    yield node(conn, acc + [child])
                else:
                    yield from rec(remaining - size, size, idx, acc + [child])

    yield from rec(m, 1, 0, [])


def _gen_assoccomm(m: int, leaves: Sequence, node: Node) -> Iterator:
    if m == 1:
        yield from leaves
        return
    for conn in (AND, OR):
        yield from _gen_ac_class(m, leaves, node, conn)


_GENERATORS = {
    ModelId.CATALAN: _gen_catalan,
    ModelId.ASSOC: _gen_assoc,
    ModelId.COMM: _gen_comm,
    ModelId.ASSOC_COMM: _gen_assoccomm,
}


def generate_trees(model: ModelId, m: int, n: int,
                   cap: int = GENERATION_CAP) -> Iterator[Tree]:
    """Stream every canonical tree exactly once, deterministic order."""
    total = count_trees(model, m, n)
    if total > cap:
        raise ResourceCapError(
            "generation of %d trees exceeds cap %d" % (total, cap))
    leaves = [Tree.leaf(lit, model) for lit in _literals(n)]
    return _GENERATORS[model](
        m, leaves, lambda conn, kids: Tree.internal(conn, kids, model))


# ---------------------------------------------------------------------------
# value-annotated DP engines
#
# A "value" is any hashable tag computed bottom-up: the truth table for
# distributions, an or-path state for classifier counts.  Combines must be
# associative and idempotent on repeated arguments (true for &, | and for
# the or-path state lattice).

Value = object
Combine = Callable[[Value, Value], Value]
Vec = dict  # value -> count


def _fold_pairs(va: Vec, vb: Vec, f: Combine, out: Vec) -> None:
    for g, cg in va.items():
        for h, ch in vb.items():
            key = f(g, h)
            out[key] = out.get(key, 0) + cg * ch


def _leaf_vec(n: int, leaf_value: Callable[[Literal], Value]) -> Vec:
    vec: Vec = {}
    for lit in _literals(n):
        key = leaf_value(lit)
        vec[key] = vec.get(key, 0) + 1
    return vec


def _dp_catalan(m: int, n: int, leaf_value, f_and: Combine, f_or: Combine) -> list[Vec]:
    d: list[Vec] = [dict() for _ in range(m + 1)]
    if m >= 1:
        d[1] = _leaf_vec(n, leaf_value)
    for s in range(2, m + 1):
        out: Vec = {}
        for i in range(1, s):
            _fold_pairs(d[i], d[s - i], f_and, out)
            _fold_pairs(d[i], d[s - i], f_or, out)
        d[s] = out
    return d


def _dp_assoc(m: int, n: int, leaf_value, f_and: Combine, f_or: Combine) -> list[Vec]:
    leaves = _leaf_vec(n, leaf_value)
    cls = {AND: [dict() for _ in range(m + 1)], OR: [dict() for _ in range(m + 1)]}
    seq = {AND: [dict() for _ in range(m + 1)], OR: [dict() for _ in range(m + 1)]}
    folds = {AND: f_and, OR: f_or}
    model_vec: list[Vec] = [dict() for _ in range(m + 1)]
    if m >= 1:
        cls[AND][1] = dict(leaves)
        cls[OR][1] = dict(leaves)
        model_vec[1] = dict(leaves)
    for s in range(1, m + 1):
        rooted_by: dict[str, Vec] = {}
        for conn in (AND, OR):
            other = cls[opposite(conn)]
            # sequences of >= 2 opposite-class children, folded under conn
            rooted: Vec = {}
            for i in range(1, s):
                _fold_pairs(other[i], seq[conn][s - i], folds[conn], rooted)
            rooted_by[conn] = rooted
            if s >= 2:
                for key, cnt in rooted.items():
                    cls[conn][s][key] = cls[conn][s].get(key, 0) + cnt
                    model_vec[s][key] = model_vec[s].get(key, 0) + cnt
        # seq uses the completed same-size opposite class
        for conn in (AND, OR):
            sq: Vec = dict(cls[opposite(conn)][s])
            for key, cnt in rooted_by[conn].items():
                sq[key] = sq.get(key, 0) + cnt
            seq[conn][s] = sq
    return model_vec


def _dp_comm(m: int, n: int, leaf_value, f_and: Combine, f_or: Combine) -> list[Vec]:
    d: list[Vec] = [dict() for _ in range(m + 1)]
    if m >= 1:
        d[1] = _leaf_vec(n, leaf_value)
    for s in range(2, m + 1):
        out: Vec = {}
        for i in range(1, (s + 1) // 2):
            _fold_pairs(d[i], d[s - i], f_and, out)
            _fold_pairs(d[i], d[s - i], f_or, out)
        if s % 2 == 0:
            half = d[s // 2]
            keys = sorted(half.keys(), key=repr)
            for a_i, g in enumerate(keys):
                for h in keys[a_i:]:
                    if g == h:
                        ways = _pairs_unordered(half[g])
                    else:
                        ways = half[g] * half[h]
                    for f in (f_and, f_or):
                        key = f(g, h)
                        out[key] = out.get(key, 0) + ways
        d[s] = out
    return d


def _dp_assoccomm(m: int, n: int, leaf_value, f_and: Combine, f_or: Combine) -> list[Vec]:
    leaves = _leaf_vec(n, leaf_value)
    cls = {AND: [dict() for _ in range(m + 1)], OR: [dict() for _ in range(m + 1)]}
    folds = {AND: f_and, OR: f_or}
    neutral = {AND: "TOP", OR: "TOP"}  # sentinel, replaced on first fold
    model_vec: list[Vec] = [dict() for _ in range(m + 1)]
    if m >= 1:
        cls[AND][1] = dict(leaves)
        cls[OR][1] = dict(leaves)
        model_vec[1] = dict(leaves)
    for s in range(2, m + 1):
        for conn in (AND, OR):
            other = cls[opposite(conn)]
            fold = folds[conn]
            # dp over item groups (size, value): state (total, value, min(parts,2))
            dp: dict = {(0, neutral[conn], 0): 1}
            groups = []
            for size in range(1, s):
                for key in sorted(other[size].keys(), key=repr):
                    groups.append((size, key, other[size][key]))
            for size, key, cnt in groups:
                ndp = dict(dp)
                for (tot, val, parts), ways in dp.items():
                    k = 1
                    nval = val
                    while tot + size * k <= s:
                        nval = key if nval == neutral[conn] else fold(nval, key)
                        state = (tot + size * k, nval, min(parts + k, 2))
                        ndp[state] = ndp.get(state, 0) + ways * comb(cnt + k - 1, k)
                        k += 1
                dp = ndp
            rooted: Vec = {}
            for (tot, val, parts), ways in dp.items():
                if tot == s and parts >= 2:
                    rooted[val] = rooted.get(val, 0) + ways
            for key, cnt in rooted.items():
                cls[conn][s][key] = cls[conn][s].get(key, 0) + cnt
                model_vec[s][key] = model_vec[s].get(key, 0) + cnt
    return model_vec


_DP_ENGINES = {
    ModelId.CATALAN: _dp_catalan,
    ModelId.ASSOC: _dp_assoc,
    ModelId.COMM: _dp_comm,
    ModelId.ASSOC_COMM: _dp_assoccomm,
}


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
    if n > 4:
        raise ResourceCapError("distribution DP supports n <= 4")

    def leaf_value(lit: Literal) -> int:
        return BoolFunc.from_literal(lit, n).table

    vecs = _DP_ENGINES[model](m, n, leaf_value,
                              lambda g, h: g & h, lambda g, h: g | h)
    counts = {BoolFunc(n, tab): cnt for tab, cnt in vecs[m].items() if cnt}
    total = sum(counts.values())
    expected = count_trees(model, m, n)
    if total != expected:
        raise AssertionError("distribution total %d != count %d" % (total, expected))
    return Distribution(model, m, n, counts, total)


def distribution_by_generation(model: ModelId, m: int, n: int,
                               cap: int = GENERATION_CAP) -> Distribution:
    """Same result as distribution(), by materializing every tree (cross-check)."""
    counts: dict = {}
    total = 0
    for t in generate_trees(model, m, n, cap=cap):
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


def classify_tautologies(model: ModelId, m: int, n: int,
                         cap: int = GENERATION_CAP) -> tuple[int, int]:
    """(simple, non-simple) counts over all trees computing True."""
    true_f = BoolFunc.constant(n, True)
    simple = 0
    nonsimple = 0
    for t in generate_trees(model, m, n, cap=cap):
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

    def leaf_value(lit: Literal):
        if lit.var == 1:
            return (1, 0) if lit.positive else (0, 1)
        return (0, 0)

    vecs = _DP_ENGINES[model](m, n, leaf_value,
                              lambda g, h: (0, 0),
                              lambda g, h: (g[0] | h[0], g[1] | h[1]))
    if kind == "st_x":
        return vecs[m].get((1, 1), 0)
    return sum(cnt for (a, _b), cnt in vecs[m].items() if a == 1)


def classifier_counts_by_generation(model: ModelId, kind: str, m: int, n: int,
                                    cap: int = GENERATION_CAP) -> int:
    """Literal generate-and-classify version of classifier_counts."""
    lit = Literal(1, True)
    total = 0
    for t in generate_trees(model, m, n, cap=cap):
        if kind == "st_x":
            if 1 in is_simple_tautology(t):
                total += 1
        elif kind == "g_x":
            if lit in or_path_literals(t):
                total += 1
        else:
            raise DomainError("unknown classifier kind %r" % kind)
    return total
