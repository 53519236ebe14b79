"""Pattern languages N, R, S and an exhaustive check of the pattern lemmas.

A pattern decomposes a tree into pattern leaves and placeholder subtrees,
the largest subtrees that hold no pattern leaf.  N (binary models) and R
(stratified) recurse into every child of an or-node and keep one child of
an and-node; S (stratified) is the dual.  A depth-d pattern plugs d - 1
further levels into its placeholders.  The reading is deterministic on
plane trees (the first child continues); on non-plane trees every child
ordering induces an embedding, and a tree's restriction count is the
least over its embeddings.

Counting conventions: a tree with l pattern leaves has
  repetitions  = l - (number of distinct variables on pattern leaves)
  restrictions = repetitions + (number of essential variables of the whole
                 tree that appear at least once on its pattern leaves).

verify_pattern_lemmas checks the three structural facts used throughout
the asymptotic analysis, by exhausting connective-labelled shapes (the
tree generator of boolform.exhaustive run over a one-symbol leaf
alphabet) and vectorizing over all leaf labellings with numpy.  The
decomposition, _cands, works on a shape's record (_Shape) and returns its
pattern leaves as bitmasks (bit i is the i-th leaf in preorder), each
with the value the shape computes when they are set False and the other
leaves True (the dual for S), the same for every labelling.  A shape's
labellings are the product of its children's, so its histogram (the
number of its labellings that compute each truth table) folds from its
children's, and its truth table under every labelling is an outer product
of its children's tables.  The generator runs once, at size m, and builds
one record per shape from its children's records; the smaller shapes it
lists to build the larger ones are checked as they are built, so each
shape is decomposed once and its masks and histogram serve its parents.
Tautologies are counted from histograms, lemmas (c) and (s) read the
values that come with the masks, and depth-2 masks are listed only for
shapes whose fewest pattern leaves (_least) could bring a restriction
count below 2, so a shape's whole table is built only where lemmas (a)
and (b) index its tautologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .boolfun import BoolFunc
from .errors import DomainError, ResourceCapError
from .exhaustive import _generate, _literals, count_trees
from .trees import AND, OR, ModelId

# leaf labellings verify_pattern_lemmas may check: catalan (7, 2) has 1.44e8
# (0.08-0.13 s on a 2-core x86-64 host), (8, 2) 3.74e9 (0.53-0.62 s, 49 MB).
# The records the generator lists keep their tables, a byte per labelling,
# up to m - 2 leaves: 0.24 MB at catalan (7, 2) and at most 2.5 MB under
# the cap, but 5.8 MB at (8, 2) and 3.7 GB at (10, 2).  Each also keeps its
# histogram, 2^(2^n) counts: 0.4 MB in all at catalan (7, 2), 10 MB at
# (9, 1), and its masks with their values.  A shape's whole table, 16 KB at
# size 7 and n = 2, is read only where lemmas (a) and (b) index its
# tautologies: l depth-2 pattern leaves repeat at least l - n times, so only
# the shapes with a tautology and a mask of at most n + 1 leaves need it
# (173 of 10,067 at catalan (7, 2))
LEMMA_CAP = 1 << 28


class _Shape:
    """A connective-labelled shape, built from its children's records: bit i
    of a mask is its i-th leaf in preorder, offsets[j] is child j's first
    leaf, orp masks the leaves joined to the root by or-only paths, table is
    its truth tables under all labellings when kept (width <= keep), hist
    the number of its labellings per truth table once _hist has filled it,
    and memo caches the (mask, value) pairs of _cands and their fewest
    pattern leaves (_least) per (connective, level).  A leaf has no kids and
    is given its table."""

    __slots__ = ("conn", "kids", "width", "offsets", "orp", "table", "hist",
                 "memo")

    def __init__(self, conn, kids, keep: int = 0, table=None):
        self.conn, self.kids, self.table, self.memo = conn, kids, table, {}
        self.hist = None
        self.width, self.orp, self.offsets = 1, 1, []
        if kids:
            pos = orp = 0
            for c in kids:
                self.offsets.append(pos)
                orp |= c.orp << pos
                pos += c.width
            self.width, self.orp = pos, orp if conn == OR else 0
            if pos <= keep:
                self.table = _table(self)

    def nested(self):
        """The shape as nested (conn, kids) tuples, None for a leaf."""
        return (self.conn, tuple(c.nested() for c in self.kids)) if self.kids else None


def _cands(s: _Shape, every: str, k: int, free: bool) -> list:
    """Sorted (mask, value) pairs of a shape's pattern leaves, bit 0 of a
    mask its first leaf.  value is what the shape computes with the mask's
    leaves False and the others True (every = OR), or with them True and
    the others False (every = AND): a placeholder is (0, every == OR), a
    pattern leaf (1, every == AND), and a node folds its children's values.

    every is the connective whose nodes the pattern recurses into at every
    child (OR for N and R, AND for S); at the other it keeps one child.  k
    is the number of additional pattern levels plugged into placeholders
    (depth = k+1); a subtree reached with k < 0 is a placeholder.  With
    free False the first child continues (the deterministic plane reading);
    otherwise every child may, and the masks of all embeddings are
    returned.  For each
    continuing child the children are walked once, that one at level k and
    the others one level lower (at k too under an every-node), and their
    masks are shifted to their first leaves.  The cache on s serves callers
    with one value of free.
    """
    if k < 0:
        return [(0, every == OR)]
    if not s.kids:
        return [(1, every == AND)]
    key = ("cands", every, k)
    got = s.memo.get(key)
    if got is not None:
        return got
    all_kids = s.conn == every
    lower = k if all_kids else k - 1
    conj = s.conn == AND
    out = []
    for keep in range(len(s.kids)) if free and not all_kids else (0,):
        acc = _cands(s.kids[0], every, k if keep == 0 else lower, free)
        for i in range(1, len(s.kids)):
            pos = s.offsets[i]
            sub = _cands(s.kids[i], every, k if i == keep else lower, free)
            if conj:
                acc = [(a | x << pos, u & v) for a, u in acc for x, v in sub]
            else:
                acc = [(a | x << pos, u | v) for a, u in acc for x, v in sub]
        out.extend(acc)
    got = s.memo[key] = sorted(set(out))
    return got


def _least(s: _Shape, every: str, k: int, free: bool) -> int:
    """The fewest pattern leaves of a mask of _cands(s, every, k, free), by
    the same recursion in min-plus form: a continuing child's masks combine
    with every choice of the others', so the fewest add up."""
    if k < 0:
        return 0
    if not s.kids:
        return 1
    key = ("least", every, k)
    got = s.memo.get(key)
    if got is not None:
        return got
    if s.conn == every:
        got = sum(_least(c, every, k, free) for c in s.kids)
    else:
        low = [_least(c, every, k - 1, free) for c in s.kids]
        got = sum(low) + min(_least(c, every, k, free) - least
                             for c, least in zip(s.kids if free else s.kids[:1], low))
    s.memo[key] = got
    return got


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


def _table(s: _Shape) -> np.ndarray:
    """Truth tables of a shape under all its labellings, indexed by code:
    its kept table, or one folded from its children's."""
    if s.table is not None:
        return s.table
    op = np.bitwise_and if s.conn == AND else np.bitwise_or
    acc = _table(s.kids[0])
    for c in s.kids[1:]:
        acc = _outer(op, _table(c), acc)
    return acc


@lru_cache(maxsize=None)
def _fold_matrices(conn: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For a conn-node over the v = 2^(2^n) truth tables: the (v^2, v)
    one-hot matrix taking the pair (x, y) of tables, at row x v + y, to
    op(x, y), and the (v, v) matrix of [op(x, y) is True]."""
    v = 1 << (1 << n)
    x, y = np.divmod(np.arange(v * v), v)
    onehot = np.zeros((v * v, v), dtype=np.int64)
    onehot[np.arange(v * v), x & y if conn == AND else x | y] = 1
    true = onehot[:, v - 1].reshape(v, v).copy()
    onehot.setflags(write=False)
    true.setflags(write=False)
    return onehot, true


def _folded(conn: str, kids, n: int) -> np.ndarray:
    """Histogram of a conn-node over kids: the outer product of the
    histograms so far and the next child's, summed by the table it gives."""
    acc = _hist(kids[0], n)
    for c in kids[1:]:
        acc = np.outer(acc, _hist(c, n)).ravel() @ _fold_matrices(conn, n)[0]
    return acc


def _hist(s: _Shape, n: int) -> np.ndarray:
    """Number of a shape's labellings that compute each truth table, kept on
    its record: counted in its kept table, or folded from its children's."""
    if s.hist is None:
        s.hist = (np.bincount(s.table, minlength=1 << (1 << n))
                  if s.table is not None else _folded(s.conn, s.kids, n))
    return s.hist


def _tautologies(s: _Shape, n: int) -> int:
    """Number of a shape's labellings that compute True, h [op is True] h',
    h the histogram of its children but the last and h' the last child's;
    its own table and histogram are not built."""
    if not s.kids:
        return int(_hist(s, n)[-1])
    return int(_folded(s.conn, s.kids[:-1], n).dot(_fold_matrices(s.conn, n)[1])
               .dot(_hist(s.kids[-1], n)))


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


class _LemmaCheck:
    """The checks of one verify_pattern_lemmas call.  check(shape, count)
    checks a shape under all its labellings, count of which compute True,
    and files its counterexamples under (size, or-rooted), so that they
    can be listed by size and then in generation order, whatever order the
    shapes are checked in."""

    def __init__(self, model: ModelId, m: int, n: int):
        self.report = LemmaReport(model, m, n, 0)
        self.free, self.stratified = not model.plane, model.stratified
        self.found = {}
        nlits = 2 * n
        # simple-tautology LUT over literal-presence masks (bit 2v+neg)
        self.simple_lut = np.zeros(1 << nlits, dtype=bool)
        for mask in range(1 << nlits):
            self.simple_lut[mask] = any(
                (mask >> (2 * v)) & 1 and (mask >> (2 * v + 1)) & 1 for v in range(n))
        # the code bits that hold the variables of a mask's leaves: a code
        # spends n bits per leaf, and for n = 2 leaf i's variable is bit
        # 2i + 1; n = 1 has none
        self.varbits = [0]
        for i in range(m):
            self.varbits += [v | 2 * (n - 1) * nlits ** i for v in self.varbits]

    def check(self, shape: _Shape, count: int) -> None:
        report, free, n = self.report, self.free, self.report.n
        nlits = 2 * n
        report.trees_checked += nlits ** shape.width
        found = self.found.setdefault((shape.width, shape.conn == OR), [])
        # (c) reads the shape's value with its depth-1 pattern leaves False
        # and the others True, (s) with its S-pattern leaves True and the
        # others False.  N and R recurse into every child of an or-node, S
        # of an and-node
        for cmask, true in _cands(shape, OR, 0, free):
            if true:
                found.append(("all-pattern-leaves-false", shape.nested(), cmask))
        if self.stratified:
            for cmask, true in _cands(shape, AND, 0, free):
                if not true:
                    found.append(("all-s-leaves-true", shape.nested(), cmask))
        if not count:
            return
        report.tautologies += count
        # minimal depth-2 restriction count; tautologies have no essential
        # variables, so restrictions = repetitions.  l pattern leaves repeat
        # at least l - n times, so only masks of at most n + 1 leaves can
        # bring the minimum below 2
        if _least(shape, OR, 1, free) > n + 1:
            return
        near = [c for c, _ in _cands(shape, OR, 1, free) if c.bit_count() <= n + 1]
        taut = np.flatnonzero(_table(shape) == (1 << (1 << n)) - 1)
        # the (at least one) pattern leaves have two distinct variables
        # when their variable bits v are neither all clear nor all set
        min_reps = None
        for cmask in near:
            vm = self.varbits[cmask]
            v = taut & vm
            reps = cmask.bit_count() - 1 - ((v != 0) & (v != vm))
            min_reps = reps if min_reps is None else np.minimum(min_reps, reps)
        for code in taut[min_reps < 1][:5]:
            found.append(("tautology-without-restriction", shape.nested(), int(code)))
        ones = taut[min_reps == 1]
        if len(ones):
            lmask = np.zeros(len(ones), dtype=np.int64)
            for i in range(shape.width):
                if (shape.orp >> i) & 1:
                    lmask |= 1 << ((ones >> (n * i)) & (nlits - 1))
            for code in ones[~self.simple_lut[lmask]][:5]:
                found.append(("one-restriction-not-simple", shape.nested(), int(code)))


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
    One generation of size m builds every shape: the shapes below size m,
    which it lists to build the larger ones, are checked as they are built,
    and the size-m roots as they are yielded.
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
    lemmas = _LemmaCheck(model, m, n)

    def build(conn: str, kids: list) -> _Shape:
        # tables of shapes up to m - 2 leaves are kept; a size-(m - 1)
        # sub-shape's histogram is folded from its kept children's, as
        # keeping its table would cost (2n)^(m - 1) bytes per shape (5.5 MB
        # in all at catalan (7, 2)).  A listed shape's tautologies are read
        # from the histogram its parents read anyway
        shape = _Shape(conn, kids, m - 2)
        if shape.width < m:
            lemmas.check(shape, int(_hist(shape, n)[-1]))
        return shape

    leaf = _Shape(None, (), table=_literal_tables(n))
    lemmas.check(leaf, int(_hist(leaf, n)[-1]))
    if m > 1:  # a generation of size 1 yields the leaf alone
        for shape in _generate(model, m, (leaf,), build):
            lemmas.check(shape, _tautologies(shape, n))
    report = lemmas.report
    report.counterexamples = [c for key in sorted(lemmas.found)
                              for c in lemmas.found[key]]
    return report
