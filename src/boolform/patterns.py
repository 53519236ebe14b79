"""Pattern languages N, R, S: matching, restrictions, half-embeddings.

A pattern decomposes a tree into pattern leaves and placeholder subtrees.
One decomposition, _shape_cands, serves labelled trees and the unlabelled
shapes of the lemma verifier alike: it works on a tree's shape and returns
its pattern leaves as bitmasks (bit i is the i-th leaf in preorder).  The
placeholders of a tree are the largest subtrees that hold no pattern leaf.
Matching is deterministic on plane trees; on non-plane trees every child
ordering induces an embedding and minimal_embedding searches them all.

Counting conventions: a tree with l pattern leaves has
  repetitions  = l - (number of distinct variables on pattern leaves)
  restrictions = repetitions + (number of essential variables of the whole
                 tree that appear at least once on its pattern leaves).

verify_pattern_lemmas checks the three structural facts used throughout
the asymptotic analysis, by exhausting connective-labelled shapes (the
tree generator of boolform.exhaustive run over a one-symbol leaf
alphabet) and vectorizing over all leaf labellings with numpy.  A shape's
labellings are the product of its children's, so its truth table under
every labelling is an outer product of its children's tables, and one
memo per call shares the tables and decompositions of sub-shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import comb

import numpy as np

from .boolfun import BoolFunc
from .errors import DomainError, ResourceCapError
from .exhaustive import _generate, _literals, count_trees
from .trees import AND, OR, ModelId, Tree, compute_function

EMBEDDING_CAP = 1_000_000
# leaf labellings verify_pattern_lemmas may check: catalan (7, 2) has 1.44e8
# (0.4-0.5 s on a 2-core x86-64 host), (8, 2) 3.74e9 (7 s, 45 MB peak).  A
# shape's table takes a byte per labelling, 16 KB at size 7 and n = 2, and
# the memo keeps those of up to m - 2 leaves: 0.24 MB at catalan (7, 2) and at
# most 2.5 MB under the cap, but 5.8 MB at (8, 2) and 3.7 GB at (10, 2)
LEMMA_CAP = 1 << 28


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


@dataclass
class RestrictionCount:
    repetitions: int
    restrictions: int
    realized: set


def _shape_node(conn: str, kids) -> tuple:
    # an unlabelled shape is a canonical tree over a one-symbol leaf alphabet
    return (conn, tuple(kids))


def _shape(t: Tree):
    return None if t.is_leaf() else _shape_node(t.conn, map(_shape, t.children))


class _Memo(dict):
    """Decompositions and tables of the sub-shapes met in one call, kept for
    shapes of at most keep leaves; wider ones are rebuilt from their kept
    children, which bounds the memory."""

    def __init__(self, keep: int):
        super().__init__()
        self.keep = keep


def _shape_cands(shape, p: PatternId, k: int, free: bool, memo: _Memo):
    """Pattern-leaf bitmasks of a shape, bit 0 its first leaf, and its width
    (number of leaves).

    k is the number of additional pattern levels plugged into placeholders
    (depth = k+1); a subtree reached with k < 0 is a placeholder.  With free
    False the first child continues (the deterministic plane reading);
    otherwise every child may.  Each child is decomposed only in the roles
    it can take, and its masks are shifted to its first leaf.  memo, keyed
    by (shape, p, k), serves callers with one value of free.
    """
    if shape is None:
        return [1 if k >= 0 else 0], 1
    key = (shape, p, k)
    got = memo.get(key)
    if got is not None:
        return got
    conn, kids = shape
    every = k < 0 or _continues_all(p, conn)
    keeps = range(len(kids)) if free and not every else (0,)
    cont, rest = {}, {}
    pos = 0
    for i, c in enumerate(kids):
        if i in keeps:
            sub, width = _shape_cands(c, p, k, free, memo)
            cont[i] = [s << pos for s in sub]
        if i > 0 or len(keeps) > 1:
            # a child that is not kept continues too, or is one level lower
            sub, width = _shape_cands(c, p, k if every else k - 1, free, memo)
            rest[i] = [s << pos for s in sub]
        pos += width
    out = []
    for keep in keeps:
        acc = cont[keep]
        for i, sub in rest.items():
            if i != keep:
                acc = [a | s for a in acc for s in sub]
        out.extend(acc)
    got = sorted(set(out)), pos
    if pos <= memo.keep:
        memo[key] = got
    return got


def _restrictions_of(mask: int, lits: list, essential: set) -> tuple[int, int, set]:
    pattern_vars = [lit.var for i, lit in enumerate(lits) if (mask >> i) & 1]
    distinct = set(pattern_vars)
    reps = len(pattern_vars) - len(distinct)
    realized = essential & distinct
    return reps, reps + len(realized), realized


def _masks(t: Tree, p: PatternId, depth: int, free: bool) -> list:
    """Pattern-leaf masks of t: the plane reading, or every embedding if free."""
    _pattern_for(t.model, p)
    if depth < 1:
        raise DomainError("pattern depth must be >= 1")
    if free:
        # orderings to search: product of arities over continue-choice nodes
        total = 1
        for _, node in t.nodes():
            if not node.is_leaf() and not _continues_all(p, node.conn):
                total *= len(node.children)
                if total > EMBEDDING_CAP:
                    raise ResourceCapError("embedding search over %d orderings" % total)
    return _shape_cands(_shape(t), p, depth - 1, free, _Memo(0))[0]


def _minimal(t: Tree, masks: list) -> tuple[int, tuple[int, int, set]]:
    """The mask with the fewest restrictions, and its (repetitions,
    restrictions, realized); ties go to the smallest sorted list of leaf
    indices."""
    lits = list(t.leaves())
    essential = compute_function(t).essential_vars()
    counts = {mask: _restrictions_of(mask, lits, essential) for mask in masks}
    best = min(masks, key=lambda mask: (
        counts[mask][1], [i for i in range(len(lits)) if (mask >> i) & 1]))
    return best, counts[best]


def _match(t: Tree, p: PatternId, depth: int, mask: int) -> PatternMatch:
    nodes = list(t.nodes())
    paths = [path for path, node in nodes if node.is_leaf()]
    leaves = tuple(path for i, path in enumerate(paths) if (mask >> i) & 1)
    # the pattern enters exactly the ancestors of its leaves
    entered = {path[:j] for path in leaves for j in range(len(path) + 1)}
    holes = tuple(path for path, _ in nodes
                  if path not in entered and path[:-1] in entered)
    return PatternMatch(t, p, depth, leaves, holes)


def match_pattern(t: Tree, p: PatternId, depth: int = 1) -> PatternMatch:
    """Deterministic decomposition; plane models only."""
    if not t.model.plane:
        raise DomainError("non-plane trees need minimal_embedding")
    (mask,) = _masks(t, p, depth, False)
    return _match(t, p, depth, mask)


def count_restrictions(t: Tree, p: PatternId, depth: int = 1) -> RestrictionCount:
    """Repetitions and restrictions; minimal over embeddings if non-plane."""
    return RestrictionCount(*_minimal(t, _masks(t, p, depth, not t.model.plane))[1])


def minimal_embedding(t: Tree, p: PatternId, depth: int = 1) -> PatternMatch:
    """Embedding of a non-plane tree minimizing the restriction count."""
    return _match(t, p, depth, _minimal(t, _masks(t, p, depth, True))[0])


# ---------------------------------------------------------------------------
# labelling counts (cross-checks for the asymptotic weight polynomial)


@lru_cache(maxsize=None)
def stirling2(l: int, j: int) -> int:
    if l < 0 or j < 0:
        raise DomainError("stirling2 needs l, j >= 0")
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
    if min(v, k, l) < 0:
        raise DomainError("labelling_weight needs v, k, l >= 0")
    # terms with r > l have no l - r distinct pattern variables
    return sum(stirling2(l, l - r) * comb(v, k - r) * _falling(l - r, k - r)
               for r in range(0, min(k, l) + 1))


def labelling_count(l: int, k: int, m: int, n: int, v: int,
                    plane: bool = True) -> int:
    """Leaf-labellings with k restrictions, essential set prescribed of size v.

    A labelling assigns each leaf a variable and polarity; restrictions are
    counted as repetitions among the l pattern leaves plus the number of
    prescribed variables appearing there.  The plane count labels all m
    leaves; the mobile variant labels the pattern leaves only.
    """
    if not (0 <= v <= n and 0 <= l <= m and k >= 0):
        raise DomainError("need 0 <= v <= n, 0 <= l <= m and k >= 0")
    # l - k of the distinct pattern variables are unprescribed, for every r
    ways = labelling_weight(v, k, l) * _falling(n - v, l - k)
    return ways * (n ** (m - l) * 2 ** m if plane else 2 ** l)


# ---------------------------------------------------------------------------
# vectorized lemma verification
#
# Leaf i of a shape (preorder) carries a literal digit d_i: variable d_i >> 1,
# negated when d_i & 1.  A labelling is the code sum d_i (2n)^i, so a node's
# labellings are the product of its children's, the first child's in the low
# digits, and its table over them is op.outer(next child's, so far's).


def _literal_tables(n: int) -> np.ndarray:
    """Truth table of each literal digit; n <= 2 fits a table in a byte."""
    return np.array([BoolFunc.from_literal(lit, n).table
                     for lit in _literals(n)], dtype=np.uint8)


def _outer(op, nxt: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """op.outer(nxt, acc), flattened.  An acc of 2, 4 or 8 bytes is packed
    into one word and each entry of nxt copied into every byte of one, so a
    row takes one word-wide op instead of a short inner loop; the ops are
    bitwise, so no byte reaches into its neighbour."""
    if acc.size in (2, 4, 8):
        word = np.dtype("u%d" % acc.size)
        every_byte = word.type(int.from_bytes(b"\1" * acc.size, "little"))
        return op(nxt.astype(word) * every_byte, acc.view(word)).view(np.uint8)
    return op.outer(nxt, acc).ravel()


def _shape_table(shape, leaf: np.ndarray, memo: _Memo) -> np.ndarray:
    """Truth tables of a shape under all its labellings, indexed by code;
    leaf is _literal_tables(n).  memo is keyed by shape."""
    if shape is None:
        return leaf
    got = memo.get(shape)
    if got is not None:
        return got
    conn, kids = shape
    op = np.bitwise_and if conn == AND else np.bitwise_or
    acc = _shape_table(kids[0], leaf, memo)
    for c in kids[1:]:
        acc = _outer(op, _shape_table(c, leaf, memo), acc)
    if acc.size <= leaf.size ** memo.keep:
        memo[shape] = acc
    return acc


def _or_path_leaves(shape) -> tuple[int, int]:
    """Bitmask of leaves joined to the root by or-only paths, and the width."""
    if shape is None:
        return 1, 1
    conn, kids = shape
    mask = pos = 0
    for c in kids:
        sub, width = _or_path_leaves(c)
        mask |= sub << pos
        pos += width
    return (mask if conn == OR else 0), pos


@dataclass
class LemmaReport:
    """Outcome of verify_pattern_lemmas.

    trees_checked counts leaf labellings, (2n)^size per connective-labelled
    shape, not distinct trees.  In a non-plane model, labellings that only
    swap the labels of same-shaped sibling subtrees give one tree, so comm
    (7, 2) checks 10,813,220 labellings of 3,649,724 trees.  For plane
    models the two counts agree.  tautologies counts the labellings among
    them that compute True, the ones lemmas (a) and (b) are checked on.
    """

    model: ModelId
    max_size: int
    n: int
    trees_checked: int
    counterexamples: list = field(default_factory=list)
    tautologies: int = 0

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

    Every connective-labelled shape is checked under all (2n)^size leaf
    labellings; the report's trees_checked is that number of labellings,
    which exceeds the number of distinct trees for the non-plane models.
    """
    if m < 1 or n < 1:
        raise DomainError("m and n must be >= 1")
    if n > 2:
        raise ResourceCapError("lemma engine supports n <= 2")
    # labellings of the plane counterpart: exact for plane models, an upper
    # bound otherwise
    plane = ModelId.CATALAN if model.binary else ModelId.ASSOC
    total = sum(count_trees(plane, s, n) for s in range(1, m + 1))
    if total > LEMMA_CAP:
        raise ResourceCapError(
            "lemma check of %d labellings exceeds cap %d" % (total, LEMMA_CAP))
    p = PatternId.N if model.binary else PatternId.R
    free = not model.plane
    nlits = 2 * n
    full = (1 << (1 << n)) - 1
    lit_table = _literal_tables(n)
    # simple-tautology LUT over literal-presence masks (bit 2v+neg)
    simple_lut = np.zeros(1 << nlits, dtype=bool)
    for mask in range(1 << nlits):
        simple_lut[mask] = any((mask >> (2 * v)) & 1 and (mask >> (2 * v + 1)) & 1
                               for v in range(n))
    # tables of shapes up to m - 2 leaves are kept; a size-(m - 1) sub-shape
    # is rebuilt from its kept children, as keeping its table would cost
    # (2n)^(m - 1) bytes per shape (5.5 MB in all at catalan (7, 2))
    memo = _Memo(m - 2)
    report = LemmaReport(model, m, n, 0)
    for size in range(1, m + 1):
        # code of the labelling with digit 1 (~x1) on a mask's leaves and
        # digit 0 (x1) elsewhere.  A code spends n bits per leaf, and for
        # n = 2 leaf i's variable is bit 2i + 1, so a mask's variable bits
        # are 2 (n - 1) spread[mask]; n = 1 has none
        spread = [sum(nlits ** i for i in range(size) if mask >> i & 1)
                  for mask in range(1 << size)]
        all_leaves = (1 << size) - 1
        for shape in _generate(model, size, (None,), _shape_node):
            root = _shape_table(shape, lit_table, memo)
            report.trees_checked += nlits ** size
            # (c) and (s) put ~x1 on the leaves set False, x1 on the others,
            # and read the table at x1 = 1, its bit 1
            d1, _w = _shape_cands(shape, p, 0, free, memo)
            for cmask in d1:
                if root[spread[cmask]] & 2:
                    report.counterexamples.append(
                        ("all-pattern-leaves-false", shape, cmask))
            if model.stratified:
                s1, _w = _shape_cands(shape, PatternId.S, 0, free, memo)
                for cmask in s1:
                    if not root[spread[all_leaves ^ cmask]] & 2:
                        report.counterexamples.append(
                            ("all-s-leaves-true", shape, cmask))
            taut = (root == full).nonzero()[0]
            report.tautologies += len(taut)
            if not len(taut):
                continue
            # minimal depth-2 restriction count; tautologies have no
            # essential variables, so restrictions = repetitions.  The (at
            # least one) pattern leaves have two distinct variables when
            # their variable bits v are neither all clear nor all set
            d2, _w = _shape_cands(shape, p, 1, free, memo)
            min_reps = None
            for cmask in d2:
                vm = 2 * (n - 1) * spread[cmask]
                v = taut & vm
                reps = cmask.bit_count() - 1 - ((v != 0) & (v != vm))
                min_reps = reps if min_reps is None else np.minimum(min_reps, reps)
            for code in taut[min_reps < 1][:5]:
                report.counterexamples.append(
                    ("tautology-without-restriction", shape, int(code)))
            ones = taut[min_reps == 1]
            if len(ones):
                orp, _w = _or_path_leaves(shape)
                lmask = np.zeros(len(ones), dtype=np.int64)
                for i in range(size):
                    if (orp >> i) & 1:
                        lmask |= 1 << ((ones >> (n * i)) & (nlits - 1))
                for code in ones[~simple_lut[lmask]][:5]:
                    report.counterexamples.append(
                        ("one-restriction-not-simple", shape, int(code)))
    return report
