"""Pattern languages N, R, S: matching, restrictions, half-embeddings.

A pattern decomposes a tree into pattern leaves and placeholder subtrees.
Matching is deterministic on plane trees; on non-plane trees every child
ordering induces an embedding and minimal_embedding searches them all.

Counting conventions: a tree with l pattern leaves has
  repetitions  = l - (number of distinct variables on pattern leaves)
  restrictions = repetitions + (number of essential variables of the whole
                 tree that appear at least once on its pattern leaves).

verify_pattern_lemmas checks the three structural facts used throughout
the asymptotic analysis, by exhausting connective-labelled shapes (the
tree generator of boolform.exhaustive run over a one-symbol leaf
alphabet) and vectorizing over all leaf labellings with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import comb
from typing import Optional

import numpy as np

from .boolfun import Literal
from .errors import DomainError, ResourceCapError
from .exhaustive import _generate
from .trees import AND, OR, ModelId, Tree, compute_function

EMBEDDING_CAP = 1_000_000


class PatternId(Enum):
    N = "N"  # binary: or-nodes recurse both sides, and-nodes keep one side
    R = "R"  # stratified: or-nodes recurse everywhere, and-nodes keep one child
    S = "S"  # stratified dual: and-nodes recurse everywhere, or-nodes keep one


def _pattern_for(model: ModelId, p: PatternId) -> None:
    if p is PatternId.N and model.binary:
        return
    if p in (PatternId.R, PatternId.S) and model.stratified:
        return
    raise DomainError("pattern %s not defined on model %s" % (p.value, model.value))


def _continues_all(p: PatternId, conn: str) -> bool:
    """Does the pattern recurse into every child of a conn-node?"""
    if p is PatternId.S:
        return conn == AND
    return conn == OR


@dataclass
class PatternMatch:
    tree: Tree
    pattern: PatternId
    depth: int
    pattern_leaves: tuple  # paths
    placeholders: tuple  # paths of placeholder subtree roots
    orderings: Optional[dict] = None  # path -> index of the continuing child

    def pattern_literals(self) -> list[Literal]:
        out = []
        for path in self.pattern_leaves:
            node = self.tree
            for i in path:
                node = node.children[i]
            out.append(node.literal)
        return out


@dataclass
class RestrictionCount:
    repetitions: int
    restrictions: int
    realized: set


def _candidates(t: Tree, p: PatternId, k: int, path: tuple,
                free_choice: bool) -> list:
    """All (pattern-leaf paths, placeholder paths, choices) decompositions.

    k is the number of additional pattern levels plugged into placeholders
    (depth = k+1).  With free_choice False the first child continues (the
    deterministic plane reading); otherwise every child may.
    """
    if t.is_leaf():
        return [(frozenset([path]), frozenset(), {})]
    kids = t.children
    if _continues_all(p, t.conn):
        acc = [(frozenset(), frozenset(), {})]
        for i, c in enumerate(kids):
            sub = _candidates(c, p, k, path + (i,), free_choice)
            acc = [(a | s, b | q, {**ch, **ch2})
                   for a, b, ch in acc for s, q, ch2 in sub]
        return acc
    # one child continues, the others are placeholders
    out = []
    choices = range(len(kids)) if free_choice else (0,)
    for keep in choices:
        cont = _candidates(kids[keep], p, k, path + (keep,), free_choice)
        rest = [(frozenset(), frozenset(), {})]
        for i, c in enumerate(kids):
            if i == keep:
                continue
            if k >= 1:
                sub = _candidates(c, p, k - 1, path + (i,), free_choice)
            else:
                sub = [(frozenset(), frozenset([path + (i,)]), {})]
            rest = [(a | s, b | q, {**ch, **ch2})
                    for a, b, ch in rest for s, q, ch2 in sub]
        for a, b, ch in cont:
            for a2, b2, ch2 in rest:
                out.append((a | a2, b | b2, {**ch, **ch2, path: keep}))
    return out


def match_pattern(t: Tree, p: PatternId, depth: int = 1) -> PatternMatch:
    """Deterministic decomposition; plane models only."""
    _pattern_for(t.model, p)
    if not t.model.plane:
        raise DomainError("non-plane trees need minimal_embedding")
    cands = _candidates(t, p, depth - 1, (), free_choice=False)
    leaves, holes, choices = cands[0]
    return PatternMatch(t, p, depth, tuple(sorted(leaves)), tuple(sorted(holes)),
                        choices or None)


def _restrictions_of(t: Tree, leaves: frozenset, essential: set) -> tuple[int, int, set]:
    lits = []
    for path in leaves:
        node = t
        for i in path:
            node = node.children[i]
        lits.append(node.literal)
    pattern_vars = {l.var for l in lits}
    reps = len(lits) - len(pattern_vars)
    realized = essential & pattern_vars
    return reps, reps + len(realized), realized


def count_restrictions(t: Tree, p: PatternId, depth: int = 1) -> RestrictionCount:
    """Repetitions and restrictions; minimal over embeddings if non-plane."""
    _pattern_for(t.model, p)
    essential = compute_function(t).essential_vars()
    m = (match_pattern if t.model.plane else minimal_embedding)(t, p, depth)
    return RestrictionCount(*_restrictions_of(t, frozenset(m.pattern_leaves),
                                              essential))


def minimal_embedding(t: Tree, p: PatternId, depth: int = 1,
                      cap: int = EMBEDDING_CAP) -> PatternMatch:
    """Embedding of a non-plane tree minimizing the restriction count."""
    _pattern_for(t.model, p)
    # orderings to search: product of arities over continue-choice nodes
    total = 1
    for _, node in t.nodes():
        if not node.is_leaf() and not _continues_all(p, node.conn):
            total *= len(node.children)
            if total > cap:
                raise ResourceCapError("embedding search over %d orderings" % total)
    essential = compute_function(t).essential_vars()
    best = None
    for leaves, holes, choices in _candidates(t, p, depth - 1, (), free_choice=True):
        _, total_r, _ = _restrictions_of(t, leaves, essential)
        if best is None or total_r < best[0]:
            best = (total_r, leaves, holes, choices)
    _, leaves, holes, choices = best
    return PatternMatch(t, p, depth, tuple(sorted(leaves)), tuple(sorted(holes)),
                        choices or None)


# ---------------------------------------------------------------------------
# labelling counts (cross-checks for the asymptotic weight polynomial)


@lru_cache(maxsize=None)
def stirling2(l: int, j: int) -> int:
    if l == j == 0:
        return 1
    if l == 0 or j == 0 or j > l:
        return 0
    return j * stirling2(l - 1, j) + stirling2(l - 1, j - 1)


def _falling(a: int, b: int) -> int:
    out = 1
    for i in range(b):
        out *= a - i
    return out


def labelling_weight(v: int, k: int, l: int) -> int:
    """w_{v,k}(l): the l-dependent part of the k-restriction labelling count."""
    return sum(stirling2(l, l - r) * comb(v, k - r) * _falling(l - r, k - r)
               for r in range(0, k + 1))


def labelling_count(l: int, k: int, m: int, n: int, v: int,
                    plane: bool = True) -> int:
    """Leaf-labellings with k restrictions, essential set prescribed of size v.

    A labelling assigns each leaf a variable and polarity; restrictions are
    counted as repetitions among the l pattern leaves plus the number of
    prescribed variables appearing there.  The plane count labels all m
    leaves; the mobile variant labels the pattern leaves only.
    """
    total = 0
    for r in range(0, k + 1):
        d = l - r  # distinct pattern variables
        j = k - r  # of which prescribed
        if d < 0 or j > d:
            continue
        ways = (stirling2(l, d) * comb(v, j) * _falling(d, j)
                * _falling(n - v, d - j))
        if plane:
            ways *= n ** (m - l) * 2 ** m
        else:
            ways *= 2 ** l
        total += ways
    return total


# ---------------------------------------------------------------------------
# vectorized lemma verification


def _shape_node(conn: str, kids) -> tuple:
    # an unlabelled shape is a canonical tree over a one-symbol leaf alphabet
    return (conn, tuple(kids))


def _shape_leaf_count(shape) -> int:
    if shape is None:
        return 1
    return sum(_shape_leaf_count(c) for c in shape[1])


def _shape_cands(shape, p: PatternId, k: int, start: int, free: bool):
    """Candidate pattern-leaf index bitmasks (analogue of _candidates)."""
    if shape is None:
        return [1 << start], 1
    conn, kids = shape
    sizes = []
    pos = start
    for c in kids:
        s = _shape_leaf_count(c)
        sizes.append((c, pos, s))
        pos += s
    width = pos - start
    if _continues_all(p, conn):
        acc = [0]
        for c, cpos, _s in sizes:
            sub, _ = _shape_cands(c, p, k, cpos, free)
            acc = [a | s for a in acc for s in sub]
        return sorted(set(acc)), width
    out = []
    choices = range(len(kids)) if free else (0,)
    for keep in choices:
        cont, _ = _shape_cands(sizes[keep][0], p, k, sizes[keep][1], free)
        rest = [0]
        for i, (c, cpos, _s) in enumerate(sizes):
            if i == keep:
                continue
            if k >= 1:
                sub, _ = _shape_cands(c, p, k - 1, cpos, free)
            else:
                sub = [0]
            rest = [a | s for a in rest for s in sub]
        out.extend(a | b for a in cont for b in rest)
    return sorted(set(out)), width


def _or_path_leaves(shape, start: int) -> int:
    """Bitmask of leaves joined to the root by or-only paths."""
    if shape is None:
        return 1 << start
    conn, kids = shape
    if conn != OR:
        return 0
    mask = 0
    pos = start
    for c in kids:
        mask |= _or_path_leaves(c, pos)
        pos += _shape_leaf_count(c)
    return mask


def _fold_tables(shape, leaf_tabs: list, idx: list):
    if shape is None:
        t = leaf_tabs[idx[0]]
        idx[0] += 1
        return t
    conn, kids = shape
    acc = _fold_tables(kids[0], leaf_tabs, idx)
    for c in kids[1:]:
        t = _fold_tables(c, leaf_tabs, idx)
        acc = (acc & t) if conn == AND else (acc | t)
    return acc


@dataclass
class LemmaReport:
    model: ModelId
    max_size: int
    n: int
    trees_checked: int
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_pattern_lemmas(model: ModelId, m: int, n: int) -> LemmaReport:
    """Exhaustive check of the pattern lemmas on all trees up to size m.

    (a) a tautology has at least one depth-2 restriction;
    (b) a tautology whose minimal depth-2 restriction count is 1 is simple;
    (c) a tree whose depth-1 pattern leaves are all set to False computes
        False, whatever the placeholders compute;
    (s) stratified models: all S-pattern leaves True forces the tree True.
    """
    if m < 1 or n < 1:
        raise DomainError("m and n must be >= 1")
    if n > 2:
        raise ResourceCapError("lemma engine supports n <= 2")
    p = PatternId.N if model.binary else PatternId.R
    free = not model.plane
    nlits = 2 * n
    width = 1 << n
    full = (1 << width) - 1
    # leaf truth table per literal digit: var = d >> 1, negated when d & 1
    lit_table = np.zeros(nlits, dtype=np.uint32)
    for d in range(nlits):
        var, neg = d >> 1, d & 1
        tab = 0
        for a in range(width):
            bit = (a >> var) & 1
            if bit != neg:
                tab |= 1 << a
        lit_table[d] = tab
    pop = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.int64)
    # simple-tautology LUT over literal-presence masks (bit 2v+neg)
    simple_lut = np.zeros(1 << nlits, dtype=bool)
    for mask in range(1 << nlits):
        simple_lut[mask] = any((mask >> (2 * v)) & 1 and (mask >> (2 * v + 1)) & 1
                               for v in range(n))

    report = LemmaReport(model, m, n, 0)
    for size in range(1, m + 1):
        count = nlits ** size
        codes = np.arange(count, dtype=np.int64)
        digits = [(codes // nlits ** i) % nlits for i in range(size)]
        leaf_tabs = [lit_table[d] for d in digits]
        var_bits = [np.left_shift(1, d >> 1) for d in digits]
        lit_bits = [np.left_shift(1, d) for d in digits]
        for shape in _generate(model, size, (None,), _shape_node):
            root = _fold_tables(shape, leaf_tabs, [0])
            tauto = root == full
            report.trees_checked += count
            # (c): values only, labels are irrelevant
            d1, _w = _shape_cands(shape, p, 0, 0, free)
            for cmask in d1:
                vals = [not ((cmask >> i) & 1) for i in range(size)]
                if _fold_tables(shape, vals, [0]):
                    report.counterexamples.append(
                        ("all-pattern-leaves-false", shape, cmask))
            if model.stratified:
                s1, _w = _shape_cands(shape, PatternId.S, 0, 0, free)
                for cmask in s1:
                    vals = [bool((cmask >> i) & 1) for i in range(size)]
                    if not _fold_tables(shape, vals, [0]):
                        report.counterexamples.append(
                            ("all-s-leaves-true", shape, cmask))
            if not tauto.any():
                continue
            sel = np.nonzero(tauto)[0]
            vb = [b[sel] for b in var_bits]
            # minimal depth-2 restriction count; tautologies have no
            # essential variables, so restrictions = repetitions
            d2, _w = _shape_cands(shape, p, 1, 0, free)
            min_reps = None
            for cmask in d2:
                vmask = np.zeros(len(sel), dtype=np.int64)
                l = 0
                for i in range(size):
                    if (cmask >> i) & 1:
                        vmask |= vb[i]
                        l += 1
                reps = l - pop[vmask]
                min_reps = reps if min_reps is None else np.minimum(min_reps, reps)
            bad = np.nonzero(min_reps < 1)[0]
            for b in bad[:5]:
                report.counterexamples.append(
                    ("tautology-without-restriction", shape, int(codes[sel[b]])))
            ones = np.nonzero(min_reps == 1)[0]
            if len(ones):
                orp = _or_path_leaves(shape, 0)
                lmask = np.zeros(len(sel), dtype=np.int64)
                for i in range(size):
                    if (orp >> i) & 1:
                        lmask |= np.asarray(lit_bits[i])[sel]
                not_simple = ~simple_lut[lmask[ones]]
                for b in np.nonzero(not_simple)[0][:5]:
                    report.counterexamples.append(
                        ("one-restriction-not-simple", shape, int(codes[sel[ones[b]]])))
    return report
