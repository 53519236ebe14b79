import hashlib
import importlib
import sys
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

import boolform
from boolform import exhaustive
from boolform.boolfun import BoolFunc, Literal
from boolform.complexity import (MinimalTreeSet, _sites, complexity,
                                 enumerate_expansions, lambda_bounds,
                                 lambda_t_reference, lambda_x_bounds,
                                 probability_vs_bounds)
from boolform.errors import DomainError, ResourceCapError
from boolform.exhaustive import distribution, generate_trees
from boolform.trees import (AND, OR, ModelId, Tree, compute_function,
                            format_tree, opposite, parse_tree)

ALL_MODELS = list(ModelId)
X1 = BoolFunc.from_literal(Literal(1, True), 2)
AND12 = BoolFunc(2, 0b1000)
XOR = BoolFunc(2, 0b0110)
MAJ3 = BoolFunc.from_string("n:3:ea")  # x1 | (x2 & x3)


def test_complexity_is_the_function_and_the_module_stays_reachable():
    # bench/workloads.py calls bf.complexity(...) and bench/spans.py reaches
    # the module with importlib.import_module; both paths are public
    module = importlib.import_module("boolform.complexity")
    assert boolform.complexity is module.complexity
    assert isinstance(module, types.ModuleType)
    assert module is sys.modules["boolform.complexity"]


@pytest.mark.parametrize("model", ALL_MODELS)
def test_literal_complexity(model):
    ts = complexity(X1, model)
    assert ts.L == 1 and ts.M == 1
    assert compute_function(ts.trees[0], 2) == X1


def test_and_complexity_per_model():
    assert complexity(AND12, ModelId.CATALAN).M == 2
    assert complexity(AND12, ModelId.COMM).M == 1
    assert complexity(AND12, ModelId.CATALAN).L == 2


def test_xor_needs_four_leaves():
    assert complexity(XOR, ModelId.CATALAN).L == 4


def test_constant_functions_have_l_zero():
    ts = complexity(BoolFunc.constant(2, True), ModelId.COMM)
    assert ts.L == 0 and ts.trees == []


def test_minimal_trees_all_compute_f():
    for model in ALL_MODELS:
        ts = complexity(MAJ3, model)
        assert all(compute_function(t, 3) == MAJ3 for t in ts.trees)
        assert all(sum(1 for _ in t.leaves()) == ts.L for t in ts.trees)


def test_model_independence_all_sixteen():
    assert all(len({complexity(BoolFunc(2, t), m).L for m in ModelId}) == 1
               for t in range(16))


ORACLE_FUNCTIONS = ([BoolFunc.from_string("n:1:2")]
                    + [BoolFunc(2, t) for t in range(1, 15)]
                    + [BoolFunc.from_string("n:3:" + h)
                       for h in ("ea", "80", "a8", "8a", "fe")])


@pytest.mark.parametrize("model", ALL_MODELS)
def test_search_on_tables_matches_generate_and_test(model):
    # generate-and-test builds every tree and computes its function: the
    # search on truth tables must find the same trees, in the same order
    def computing(f, m):
        return [t for t in generate_trees(model, m, f.n)
                if compute_function(t, f.n) == f]

    for f in ORACLE_FUNCTIONS:
        ts = complexity(f, model)
        assert ts.trees == computing(f, ts.L), f
        assert not any(computing(f, m) for m in range(1, ts.L)), f
        assert ts.M == distribution(model, ts.L, f.n).counts[f], f


def test_search_builds_trees_only_for_matches(monkeypatch):
    # generate-and-test built every internal node of every tree it listed
    # or tested, 11,360 for XOR in catalan; a binary tree computing f has
    # L - 1 of them
    calls = 0
    internal = Tree.internal

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return internal(*args, **kwargs)

    monkeypatch.setattr(Tree, "internal", staticmethod(counted))
    ts = complexity(XOR, ModelId.CATALAN)
    assert (ts.L, ts.M) == (4, 16)
    assert calls <= ts.M * (ts.L - 1)


def test_generation_cap_ends_the_search(monkeypatch):
    # XOR needs size 4, whose 10,240 trees plus the 544 listed smaller ones
    # exceed the cap
    monkeypatch.setattr(exhaustive, "GENERATION_CAP", 1000)
    with pytest.raises(ResourceCapError):
        complexity(XOR, ModelId.CATALAN)


# sha256 of the repr of (lambda_T, lambda_X, per-tree (format_tree, t_count,
# x_count)) for n:1:2, n:3:ea and the 14 non-constant functions of two
# variables, recorded once and frozen
FROZEN_TALLY_DIGESTS = {
    ModelId.CATALAN: "ebbc78b68cc2e1e156ac0a6f1342adadf2562b52ac4e28c2fb02d326170f08cf",
    ModelId.ASSOC: "60027eb439afecfdcb37ee7e38047be6f5f2d69ceb659b6eaa1f56a579cb3523",
    ModelId.COMM: "61fb8caea46d45a67f6a3e80021022a447f50be6a64e401efe814d2cd80fec28",
    ModelId.ASSOC_COMM: "eb4d4931cd33530894ecf00a1485380e6a2194b5eac0644700bd8250130d1338",
}


def test_expansion_tallies_for_literal():
    expected = {ModelId.CATALAN: (4, 4), ModelId.ASSOC: (4, 4),
                ModelId.COMM: (2, 2), ModelId.ASSOC_COMM: (2, 2)}
    for model, (lt, lx) in expected.items():
        tally = enumerate_expansions(complexity(X1, model))
        assert (tally.lambda_T, tally.lambda_X) == (lt, lx), model
    fns = [BoolFunc.from_string("n:1:2"), MAJ3] + [BoolFunc(2, t)
                                                   for t in range(1, 15)]
    for model, digest in FROZEN_TALLY_DIGESTS.items():
        rows = []
        for f in fns:
            tally = enumerate_expansions(complexity(f, model))
            rows.append((tally.lambda_T, tally.lambda_X,
                         [(format_tree(t), tc, xc) for t, tc, xc in tally.per_tree]))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, model


def _every_site(node, parent_conn=None, rebuild=lambda sub: sub):
    """(conn, build) for every expansion site: each side of a push-down and
    each gap of an insertion on its own."""
    model, kids = node.model, node.children
    for conn in (AND, OR):
        if model.binary or conn not in (node.conn, parent_conn):
            yield conn, lambda w, conn=conn: rebuild(
                Tree.internal(conn, [node, w], model))
            if model.plane:
                yield conn, lambda w, conn=conn: rebuild(
                    Tree.internal(conn, [w, node], model))
    if kids and not model.binary:
        for pos in range(len(kids) + 1) if model.plane else (0,):
            yield node.conn, lambda w, pos=pos: rebuild(Tree.internal(
                node.conn, kids[:pos] + (w,) + kids[pos:], model))
    for i, child in enumerate(kids):
        yield from _every_site(child, node.conn, lambda sub, i=i: rebuild(
            Tree.internal(node.conn, kids[:i] + (sub,) + kids[i + 1:], model)))


def _site_by_site_counts(t, f):
    """(t_count, x_count) of t, building both witness kinds at every site."""
    model, n = t.model, f.n
    lifted, y = f.lift(n + 1), Literal(n + 1)
    essential = [Literal(v, pol) for v in sorted(f.essential_vars())
                 for pol in (True, False)]
    t_count = x_count = 0
    for conn, build in _every_site(t):
        def valid(a, b):
            w = Tree.internal(opposite(conn), [Tree.leaf(a, model),
                                               Tree.leaf(b, model)], model)
            return compute_function(build(w), n + 1) == lifted
        t_count += valid(y, y.negate())
        x_count += sum(valid(x, y) for x in essential)
    return t_count, x_count


@st.composite
def trees_and_n(draw):
    """A random tree of any model, at most depth 3, on n <= 3 variables."""
    model = draw(st.sampled_from(ALL_MODELS))
    n = draw(st.integers(1, 3))

    def build(conns, depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return Tree.leaf(Literal(draw(st.integers(1, n)),
                                     draw(st.booleans())), model)
        conn = draw(st.sampled_from(conns))
        arity = 2 if model.binary else draw(st.integers(2, 3))
        kid_conns = (AND, OR) if model.binary else (opposite(conn),)
        return Tree.internal(conn, [build(kid_conns, depth - 1)
                                    for _ in range(arity)], model)

    return build((AND, OR), 3), n


@settings(max_examples=150, deadline=None)
@given(trees_and_n())
def test_tally_per_class_matches_site_by_site(tree_n):
    # the tally is defined per tree, minimal or not, so any tree will do
    t, n = tree_n
    f = compute_function(t, n)
    assume(not f.is_constant())
    tally = enumerate_expansions(MinimalTreeSet(f, t.model, 0, [t]))
    assert tally.per_tree == [(t, *_site_by_site_counts(t, f))]


def test_catalan_sites_are_one_class_per_node_and_connective():
    for text in ("x1", "(and x1 ~x2)", "(or (and x1 x2) (and ~x1 ~x2))",
                 "(and (or x1 (and x2 x3)) (or ~x1 x3))"):
        t = parse_tree(text, ModelId.CATALAN)
        leaves = sum(1 for _ in t.leaves())
        sites = list(_sites(t, 3))
        assert len(sites) == 2 * (2 * leaves - 1)
        assert sum(ways for _, ways, _, _ in sites) == 4 * (2 * leaves - 1)


def test_lambda_t_matches_closed_form():
    for model in ALL_MODELS:
        for f in (X1, AND12):
            ts = complexity(f, model)
            tally = enumerate_expansions(ts)
            ref = lambda_t_reference(ts)
            if ref.restricted:
                assert tally.lambda_T <= ref.upper
                continue
            assert ref.lower <= tally.lambda_T <= ref.upper, (model, f)


def test_lambda_x_within_published_bounds():
    for model in (ModelId.CATALAN, ModelId.COMM, ModelId.ASSOC_COMM):
        for f in (X1, AND12, MAJ3):
            ts = complexity(f, model)
            tally = enumerate_expansions(ts)
            b = lambda_x_bounds(ts)
            assert b.lower <= tally.lambda_X <= b.upper, (model, f)


def test_expansion_duality():
    for model in ALL_MODELS:
        for f in (AND12, MAJ3):
            a = enumerate_expansions(complexity(f, model))
            b = enumerate_expansions(complexity(f.negate(), model))
            assert (a.lambda_T, a.lambda_X) == (b.lambda_T, b.lambda_X)


def test_expansions_reject_constants():
    ts = complexity(BoolFunc.constant(2, False), ModelId.CATALAN)
    with pytest.raises(DomainError):
        enumerate_expansions(ts)


def test_bounds_coincide_for_literals():
    b = lambda_bounds(complexity(X1, ModelId.CATALAN))
    assert b.lower == b.upper == 5.0 / 16
    b = lambda_bounds(complexity(X1, ModelId.COMM))
    assert b.lower == b.upper == 1153.0 / 4096


def test_bounds_ordered_for_l_two():
    for model in ALL_MODELS:
        b = lambda_bounds(complexity(AND12, model))
        assert b.lower <= b.upper
        assert not b.restricted


def test_restricted_flag_for_stratified_literal_bounds():
    assert lambda_bounds(complexity(X1, ModelId.ASSOC)).restricted
    assert lambda_bounds(complexity(X1, ModelId.ASSOC_COMM)).restricted
    assert not lambda_bounds(complexity(X1, ModelId.CATALAN)).restricted


@pytest.mark.parametrize("bound", [lambda_bounds, lambda_x_bounds,
                                   lambda_t_reference])
def test_bounds_reject_constants(bound):
    ts = complexity(BoolFunc.constant(2, True), ModelId.CATALAN)
    with pytest.raises(DomainError):
        bound(ts)


def test_bounds_read_the_callers_search(monkeypatch):
    # the bounds take the minimal trees already found and search no more
    complexity_module = importlib.import_module("boolform.complexity")
    ts = complexity(AND12, ModelId.CATALAN)

    def refuse(*args, **kwargs):
        raise AssertionError("the bounds searched again")

    monkeypatch.setattr(complexity_module, "trees_computing", refuse)
    monkeypatch.setattr(complexity_module, "complexity", refuse)
    for bound in (lambda_bounds, lambda_x_bounds, lambda_t_reference):
        assert bound(ts).lower <= bound(ts).upper


def test_catalan_and_bounds_frozen():
    b = lambda_bounds(complexity(AND12, ModelId.CATALAN))
    # L=2, M=2, ell=1
    assert b.lower == (8 * 2 - 3 + 1) * 2 / 16.0 ** 2
    assert b.upper == (4 * 4 + 8 - 3) * 2 / 16.0 ** 2


def test_probability_vs_bounds_rejects_an_empty_grid():
    # an empty grid raised IndexError after the search
    with pytest.raises(DomainError, match="n_grid"):
        probability_vs_bounds(AND12, ModelId.CATALAN, n_grid=())


def test_probability_vs_bounds_checks_the_grid_before_searching(monkeypatch):
    # n_grid = (0,) failed in dominant_singularity after the search and tally
    def refuse(*args, **kwargs):
        raise AssertionError("searched before checking n_grid")

    # boolform.complexity is the function; the module is imported by name
    monkeypatch.setattr(importlib.import_module("boolform.complexity"),
                        "complexity", refuse)
    # AND12 depends on x2 and MAJ3 on x3: an estimate at fewer variables
    # counted trees that cannot compute f
    for f, grid in ((AND12, (0,)), (AND12, (100, -1)), (AND12, (1,)),
                    (MAJ3, (100, 2))):
        with pytest.raises(DomainError, match="n_grid"):
            probability_vs_bounds(f, ModelId.CATALAN, n_grid=grid)


def test_probability_vs_bounds_reads_the_variables_f_depends_on():
    # X1 is given on two variables but depends on x1 alone
    rep = probability_vs_bounds(X1, ModelId.CATALAN, n_grid=(1,))
    assert rep["L"] == 1 and rep["grid"][0]["n"] == 1


def test_probability_vs_bounds_internal_consistency():
    rep = probability_vs_bounds(AND12, ModelId.CATALAN, n_grid=(100, 200))
    assert rep["within_bounds"] is True
    assert rep["reason"] is None
    assert rep["L"] == 2 and rep["M"] == 2
    assert rep["grid"][0]["estimate"] > 0
    # a repeated grid point is used once: Neville's step would divide by
    # zero at it
    assert probability_vs_bounds(AND12, ModelId.CATALAN,
                                 n_grid=(100, 100, 200)) == rep
    # the comm literal's limit 5/16 exceeds the collapsed published bounds
    rep = probability_vs_bounds(X1, ModelId.COMM, n_grid=(100,))
    # one grid point is its own limit
    assert rep["limit"] == rep["grid"][0]["estimate"]
    assert rep["within_bounds"] is False
    assert rep["bounds"]["upper"] == 1153.0 / 4096 < rep["limit"]
    assert rep["reason"].startswith(
        "limit %.6g is above the upper bound 0.281494 by %.3g;"
        % (rep["limit"], rep["limit"] - 1153.0 / 4096))
    assert "1153/4096" in rep["reason"] and "5/16" in rep["reason"]
