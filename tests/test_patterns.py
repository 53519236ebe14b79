import hashlib
from collections import Counter
from functools import lru_cache, partial
from itertools import count, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boolform import patterns
from boolform.boolfun import BoolFunc
from boolform.errors import DomainError
from boolform.exhaustive import (_generate, _literals, distribution,
                                 generate_trees, is_simple_tautology)
from boolform.patterns import (_cands, _hist, _least, _literal_tables, _Shape,
                               _table, _tautologies, verify_pattern_lemmas)
from boolform.trees import AND, OR, ModelId, Tree, compute_function, parse_tree
from test_exhaustive import _oracle_functions

ALL_MODELS = list(ModelId)

# connective-labelled shapes with m = 1..7 leaves, counted once, then frozen
FROZEN_SHAPE_COUNTS = {
    ModelId.CATALAN: [1, 2, 8, 40, 224, 1344, 8448],
    ModelId.ASSOC: [1, 2, 6, 22, 90, 394, 1806],
    ModelId.COMM: [1, 2, 4, 14, 44, 164, 616],
    ModelId.ASSOC_COMM: [1, 2, 4, 10, 24, 66, 180],
}

# (trees_checked, tautologies) of verify_pattern_lemmas(model, 7, 2), which
# reports no counterexample, recorded before the verifier stopped indexing
# the tautologies of shapes whose masks all have more than n + 1 leaves
FROZEN_LEMMA_REPORTS_7_2 = {
    ModelId.CATALAN: (144_157_220, 27_214_452),
    ModelId.ASSOC: (31_301_540, 3_809_632),
    ModelId.COMM: (10_813_220, 2_115_848),
    ModelId.ASSOC_COMM: (3_246_884, 426_604),
}

# sha256 of (pattern leaves, placeholders, repetitions, restrictions, realized)
# for every tree with m <= 4 (n = 1 plane, n = 2 non-plane), every applicable
# pattern and depths 1 and 2, recorded from the package's former Tree-level
# pattern API, which the oracle below reproduced tree by tree
FROZEN_PATTERN_DIGESTS = {
    ModelId.CATALAN:
        "8e46b5b102fa6ae51ebd06cfc826fab6addabc8fcd56aaf668bbb3996e3014cb",
    ModelId.ASSOC:
        "a90023888896a3cfbbeea58b74dcd1987439e14af493b06e462097eb8c36ef7d",
    ModelId.COMM:
        "1727f5ceb27b4a17b3a637f1eec4f0782936e957a70f19020d548f3977cf98a0",
    ModelId.ASSOC_COMM:
        "023afc1e9d3733b378fd62977710fb8de52a529297f64db651234275fa768ee3",
}


# ---------------------------------------------------------------------------
# pattern oracle: a plain recursion over Tree paths that shares no function
# with boolform.patterns.  every is the connective whose nodes a pattern
# recurses into at every child: OR for N and R, AND for S.  At a node of the
# other connective one child continues and the others are placeholders, or,
# below depth 1, roots of one level less of pattern.


def _every(model):
    """The connectives a model's patterns recurse into at every child: N,
    or R and S."""
    return (OR,) if model.binary else (OR, AND)


def _decompositions(t, every, k, free, path=()):
    """Every (pattern-leaf paths, placeholder paths) of t, each in preorder.

    k is the number of pattern levels plugged into placeholders below this
    one (depth = k + 1).  With free False the first child continues, the
    plane reading; otherwise each child may, one embedding per choice."""
    if t.is_leaf():
        return [((path,), ())]
    kids = t.children
    out = []
    for keep in range(len(kids)) if free and t.conn != every else (0,):
        acc = [((), ())]
        for i, c in enumerate(kids):
            if t.conn == every or i == keep:
                sub = _decompositions(c, every, k, free, path + (i,))
            elif k >= 1:
                sub = _decompositions(c, every, k - 1, free, path + (i,))
            else:
                sub = [((), (path + (i,),))]
            acc = [(a + s, b + q) for a, b in acc for s, q in sub]
        out.extend(acc)
    return out


def _restrictions(node, leaves, essential):
    """(repetitions, restrictions, realized) of a set of pattern leaves;
    node maps a path to its subtree."""
    pattern_vars = [node[path].literal.var for path in leaves]
    distinct = set(pattern_vars)
    reps = len(pattern_vars) - len(distinct)
    realized = essential & distinct
    return reps, reps + len(realized), realized


def _match(t, every, depth=1):
    """(pattern leaves, placeholders, restriction counts) of t's plane
    reading, or of its embedding with the fewest restrictions if t is
    non-plane, ties to the smallest sorted list of pattern-leaf paths."""
    node, essential = dict(t.nodes()), compute_function(t).essential_vars()
    scored = [(leaves, holes, _restrictions(node, leaves, essential))
              for leaves, holes
              in _decompositions(t, every, depth - 1, not t.model.plane)]
    return min(scored, key=lambda d: (d[2][1], d[0]))


@lru_cache(maxsize=None)
def _records(model, size, n=1):
    """Records of a size's shapes, keeping the tables the verifier keeps."""
    leaf = _Shape(None, (), table=_literal_tables(n))
    return list(_generate(model, size, (leaf,), partial(_Shape, keep=size - 2)))


@lru_cache(maxsize=None)
def _shapes(model, size):
    return [r.nested() for r in _records(model, size)]


def _labelled(shape, code, n, model):
    """The tree of a shape under a labelling code: leaf i (preorder) takes
    literal digit i of the code, base 2n, lowest first."""
    lits = _literals(n)
    digits = (code // (2 * n) ** i % (2 * n) for i in count())

    def build(s):
        if s is None:
            return Tree.leaf(lits[next(digits)], model)
        conn, kids = s
        return Tree.internal(conn, [build(c) for c in kids], model)
    return build(shape)


def test_match_pattern_binary_examples():
    t = parse_tree("(or x1 x2)", ModelId.CATALAN)
    leaves, holes, _ = _match(t, OR)
    assert leaves == ((0,), (1,))
    assert holes == ()
    t = parse_tree("(and x1 x2)", ModelId.CATALAN)
    leaves, holes, _ = _match(t, OR)
    assert leaves == ((0,),)
    assert holes == ((1,),)


def test_match_pattern_stratified_example():
    t = parse_tree("(or x1 (and x2 x3))", ModelId.ASSOC)
    leaves, holes, _ = _match(t, OR)  # R
    assert leaves == ((0,), (1, 0))
    assert holes == ((1, 1),)


def test_match_partition_invariant():
    t = parse_tree("(and (or x1 x2) (or x3 (and x1 x2)))", ModelId.CATALAN)
    for depth in (1, 2):
        leaves, holes, _ = _match(t, OR, depth)
        covered = set(leaves)
        for hole in holes:
            node = t
            for i in hole:
                node = node.children[i]
            covered.update(hole + p for p, sub in node.nodes() if sub.is_leaf())
        all_leaves = {p for p, sub in t.nodes() if sub.is_leaf()}
        assert covered == all_leaves


def test_depth_two_extends_pattern():
    t = parse_tree("(and (or x1 x2) x3)", ModelId.CATALAN)
    leaves1, _, _ = _match(t, OR, 1)
    leaves2, _, _ = _match(t, OR, 2)
    assert set(leaves1) <= set(leaves2)
    assert len(leaves2) > len(leaves1)


def test_count_restrictions_examples():
    for text, reps, total in [("(or x1 ~x1)", 1, 1),
                              ("(or x1 x1)", 1, 2),
                              ("(or x1 x2)", 0, 2)]:
        t = parse_tree(text, ModelId.CATALAN)
        assert _match(t, OR)[2][:2] == (reps, total), text


def test_restrictions_realized_set():
    t = parse_tree("(or x1 x2)", ModelId.CATALAN)
    assert _match(t, OR)[2][2] == {1, 2}
    # a tautology has no essential variables, so nothing is realized
    t = parse_tree("(or x1 ~x1)", ModelId.CATALAN)
    assert _match(t, OR)[2][2] == set()


def test_minimal_embedding_picks_smaller_count():
    t = parse_tree("(and (or x2 ~x2) x1)", ModelId.COMM)
    leaves, _, (_, restrictions, _) = _match(t, OR)
    # keeping the literal side yields no repetition and one realized var
    assert restrictions == 1
    assert len(leaves) == 1


def test_s_pattern_on_assoc():
    t = parse_tree("(and x1 (or x2 x3))", ModelId.ASSOC)
    leaves, _, _ = _match(t, AND)
    # and-node recurses everywhere, or-node keeps its first child
    assert leaves == ((0,), (1, 0))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_cands_masks_are_the_oracles_pattern_leaves(model):
    # Tree.internal re-sorts the children of a non-plane tree, so each shape
    # is built in the plane counterpart model, in its record's child order,
    # and read with the model's own (free or plane) reading
    plane = ModelId.CATALAN if model.binary else ModelId.ASSOC
    free = not model.plane
    for size in range(1, 6):
        for shape in _records(model, size):
            t = _labelled(shape.nested(), 0, 1, plane)
            bit = {path: 1 << i for i, path in
                   enumerate(p for p, sub in t.nodes() if sub.is_leaf())}
            for every in _every(model):
                for k in (0, 1):
                    want = {sum(bit[path] for path in leaves)
                            for leaves, _ in _decompositions(t, every, k, free)}
                    got = {mask for mask, _ in _cands(shape, every, k, free)}
                    assert got == want, (shape.nested(), every, k)


def test_pattern_oracle_reaches_no_patterns_function():
    # the oracle checks the verifier's decomposition only while it shares no
    # code with it; the walk does follow names into boolform
    reached = _oracle_functions([_match, _every])
    assert {_decompositions, _restrictions, compute_function} <= reached
    assert not [f for f in reached if f.__module__ == patterns.__name__]


# ---------------------------------------------------------------------------
# labelling counts: closed forms for the k-restriction labelling count of the
# asymptotic weight polynomial, checked against brute force


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


def test_stirling_numbers():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 5) == 0


def test_negative_arguments_are_domain_errors():
    # stirling2(l, l) recursed without end for l < 0
    for l, j in ((-1, -1), (-3, -3), (2, -1)):
        with pytest.raises(DomainError):
            stirling2(l, j)
    for v, k, l in ((2, 1, -1), (-1, 1, 2), (1, -1, 2)):
        with pytest.raises(DomainError):
            labelling_weight(v, k, l)


def test_labelling_weight_small_values():
    # w_{v,k}(l) for l=2: S2(2,2)=1, S2(2,1)=1
    assert labelling_weight(1, 1, 2) == 3  # r=0: C(1,1)*2 ; r=1: S2(2,1)*C(1,0)
    assert labelling_weight(0, 1, 2) == 1  # only the repetition term


@pytest.mark.parametrize("l,m,n,v,plane", [
    (2, 3, 2, 1, True), (3, 3, 2, 1, True), (2, 4, 1, 1, True),
    (3, 3, 2, 1, False), (2, 2, 2, 0, False),
])
def test_labelling_count_against_brute_force(l, m, n, v, plane):
    prescribed = set(range(v))
    got = {}
    width = m if plane else l
    for lab in product(range(2 * n), repeat=width):
        pattern_vars = [lab[i] >> 1 for i in range(l)]
        reps = l - len(set(pattern_vars))
        k = reps + len(set(pattern_vars) & prescribed)
        got[k] = got.get(k, 0) + 1
    for k in range(l + v + 1):
        assert labelling_count(l, k, m, n, v, plane=plane) == got.get(k, 0)


@pytest.mark.parametrize("l,k,m,n,v", [
    (1, 0, 1, 2, 3),  # v = 3 prescribed variables of n = 2 counted -2
    (3, 0, 2, 1, 0),  # l = 3 pattern leaves of m = 2 leaves gave 0.0
    (2, -1, 3, 2, 1),  # k = -1 restrictions gave 0
])
def test_labelling_count_rejects_out_of_range_arguments(l, k, m, n, v):
    with pytest.raises(DomainError):
        labelling_count(l, k, m, n, v)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_lemmas_hold_at_small_sizes(model):
    shapes = [_shapes(model, m) for m in range(1, 8)]
    assert [len(s) for s in shapes] == FROZEN_SHAPE_COUNTS[model]
    assert all(len(set(s)) == len(s) for s in shapes)
    for n in (1, 2):
        rep = verify_pattern_lemmas(model, 5, n)
        assert rep.ok, rep.counterexamples[:3]
        # every shape is checked under all (2n)^m leaf labellings
        assert rep.trees_checked == sum(
            c * (2 * n) ** m
            for m, c in enumerate(FROZEN_SHAPE_COUNTS[model][:5], 1))
        # tautology labellings against the truth-table DP's tautology trees,
        # which labellings over-count in the non-plane models
        true = BoolFunc.constant(n, True)
        trees = sum(distribution(model, m, n).counts.get(true, 0)
                    for m in range(1, 6))
        assert trees > 0
        assert (rep.tautologies == trees if model.plane
                else rep.tautologies >= trees)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_pattern_digests_pinned(model):
    # ties between minimal embeddings included, e.g. (or (and x1 x2) (and x1 ~x2))
    h = hashlib.sha256()
    for m in range(1, 5):
        for t in generate_trees(model, m, 1 if model.plane else 2):
            for every in _every(model):
                for depth in (1, 2):
                    leaves, holes, (reps, restrictions, realized) = _match(
                        t, every, depth)
                    h.update(repr((leaves, holes, reps, restrictions,
                                   sorted(realized))).encode())
    assert h.hexdigest() == FROZEN_PATTERN_DIGESTS[model]


@pytest.mark.parametrize("model,tautologies", [
    (ModelId.CATALAN, 1844), (ModelId.ASSOC, 716),
    (ModelId.COMM, 310), (ModelId.ASSOC_COMM, 98),
])
def test_lemmas_a_b_tree_by_tree(model, tautologies):
    # the vectorized verifier's lemmas (a) and (b), one labelled tree at a
    # time, with the oracle's restriction counts, against exhaustive's
    # simple-tautology classifier
    true = BoolFunc.constant(2, True)
    seen = 0
    for m in range(1, 5):
        for t in generate_trees(model, m, 2):
            if compute_function(t, 2) != true:
                continue
            seen += 1
            r = _match(t, OR, 2)[2][1]
            assert r >= 1, t
            assert r > 1 or is_simple_tautology(t), t
    assert seen == tautologies


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_MODELS), st.integers(1, 6), st.sampled_from([1, 2]),
       st.data())
def test_shape_table_entry_is_the_labelled_trees_function(model, size, n, data):
    shapes = _records(model, size, n)
    shape = shapes[data.draw(st.integers(0, len(shapes) - 1))]
    code = data.draw(st.integers(0, (2 * n) ** size - 1))
    table = _table(shape)
    tree = _labelled(shape.nested(), code, n, model)
    assert int(table[code]) == compute_function(tree, n).table


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_MODELS), st.integers(1, 6), st.sampled_from([1, 2]),
       st.data())
def test_histograms_and_point_reads_match_the_shape_table(model, size, n, data):
    # the verifier counts tautologies from the children's histograms, reads
    # lemmas (c) and (s) from the values _cands carries with the masks, and
    # screens depth-2 masks by _least, building no root table
    shapes = _records(model, size, n)
    shape = shapes[data.draw(st.integers(0, len(shapes) - 1))]
    table = _table(shape)
    full = (1 << (1 << n)) - 1
    assert _tautologies(shape, n) == np.count_nonzero(table == full)
    assert np.array_equal(_hist(shape, n), np.bincount(table, minlength=full + 1))
    free = not model.plane
    for every in (OR, AND):
        for mask, value in _cands(shape, every, 0, free):
            # digit 1 (~x1) on the leaves set False, digit 0 (x1) elsewhere,
            # read at x1 = 1, bit 1 of the table entry
            false = mask if every == OR else ((1 << size) - 1) ^ mask
            code = sum((2 * n) ** i for i in range(size) if false >> i & 1)
            assert value == bool(table[code] & 2), (every, mask)
        for k in (0, 1):
            assert _least(shape, every, k, free) == min(
                mask.bit_count() for mask, _ in _cands(shape, every, k, free))


def test_lemma_check_builds_root_tables_only_for_lemmas_a_and_b(monkeypatch):
    # a checked shape's table is built only where lemmas (a) and (b) index
    # its tautologies: it has one and a depth-2 mask of at most n + 1
    # leaves, 173 of the 10,067 catalan shapes up to size 7
    real_check, real_table = patterns._LemmaCheck.check, patterns._table
    root, checked, built = None, 0, []

    def check(self, shape, count):
        nonlocal root, checked
        root, checked = shape, checked + 1
        real_check(self, shape, count)
        root = None

    def table(s):
        if s is root:
            built.append(s.nested())
        return real_table(s)
    monkeypatch.setattr(patterns._LemmaCheck, "check", check)
    monkeypatch.setattr(patterns, "_table", table)
    rep = verify_pattern_lemmas(ModelId.CATALAN, 7, 2)
    assert rep.ok and checked == 10_067
    assert len(built) <= 173, len(built)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_lemma_check_generates_once_and_checks_each_shape_once(model, monkeypatch):
    # one generation of size 7 lists every smaller shape once, and each is
    # checked as it is built; the size-7 roots are checked as they stream
    real_generate, real_check = patterns._generate, patterns._LemmaCheck.check
    calls, checked = [], Counter()

    def generate(*args):
        calls.append(args[:2])
        return real_generate(*args)

    def check(self, shape, count):
        checked[shape.nested()] += 1
        real_check(self, shape, count)
    monkeypatch.setattr(patterns, "_generate", generate)
    monkeypatch.setattr(patterns._LemmaCheck, "check", check)
    rep = verify_pattern_lemmas(model, 7, 2)
    assert rep.ok and calls == [(model, 7)]
    assert checked == Counter(s for m in range(1, 8) for s in _shapes(model, m))
    assert len(checked) == sum(FROZEN_SHAPE_COUNTS[model])  # 10,067 catalan


@pytest.mark.parametrize("model", ALL_MODELS)
def test_planted_false_lemma_b_is_reported(model, monkeypatch):
    # with no or-path leaf no tautology is simple, so each one whose minimal
    # restriction count is 1 breaks lemma (b): at most 5 are kept per shape
    real = patterns._Shape.__init__

    def no_or_paths(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self.orp = 0
    monkeypatch.setattr(patterns._Shape, "__init__", no_or_paths)
    rep = verify_pattern_lemmas(model, 5, 2)
    assert rep.counterexamples
    per_shape = Counter(shape for _, shape, _ in rep.counterexamples)
    assert max(per_shape.values()) == 5
    for kind, shape, code in rep.counterexamples:
        assert kind == "one-restriction-not-simple"
        t = _labelled(shape, code, 2, model)
        assert compute_function(t, 2) == BoolFunc.constant(2, True)
        assert _match(t, OR, 2)[2][1] == 1


@pytest.mark.parametrize("model", ALL_MODELS)
def test_planted_false_lemma_c_is_reported(model, monkeypatch):
    # a depth-1 pattern whose leaves are all planted as True non-pattern
    # leaves sets no leaf False, and the real fold at every node makes a
    # tree whose leaves are all True compute True: every shape breaks lemma
    # (c) once
    real = patterns._cands

    def no_leaves(s, every, k, free):
        return [(0, True)] if k == 0 and not s.kids else real(s, every, k, free)
    monkeypatch.setattr(patterns, "_cands", no_leaves)
    rep = verify_pattern_lemmas(model, 5, 1)
    broken = [shape for kind, shape, _ in rep.counterexamples
              if kind == "all-pattern-leaves-false"]
    assert broken == [s for m in range(1, 6) for s in _shapes(model, m)]


@pytest.mark.parametrize("model", ALL_MODELS)
def test_planted_false_lemma_a_is_reported(model, monkeypatch):
    # a depth-2 pattern of the first leaf alone repeats no variable, so every
    # tautology breaks lemma (a): at most 5 are kept per shape, and the
    # oracle finds the restriction that the planted pattern hides
    real = patterns._cands

    def first_leaf(s, every, k, free):
        return [(1, False)] if k == 1 else real(s, every, k, free)
    monkeypatch.setattr(patterns, "_cands", first_leaf)
    rep = verify_pattern_lemmas(model, 5, 2)
    assert rep.counterexamples
    per_shape = Counter(shape for _, shape, _ in rep.counterexamples)
    assert max(per_shape.values()) == 5
    for kind, shape, code in rep.counterexamples:
        assert kind == "tautology-without-restriction"
        t = _labelled(shape, code, 2, model)
        assert compute_function(t, 2) == BoolFunc.constant(2, True)
        assert _match(t, OR, 2)[2][1] >= 1


@pytest.mark.parametrize("model", ALL_MODELS)
def test_lemma_report_at_size_7_pinned(model):
    rep = verify_pattern_lemmas(model, 7, 2)
    assert (rep.trees_checked, rep.tautologies) == FROZEN_LEMMA_REPORTS_7_2[model]
    assert rep.counterexamples == []
