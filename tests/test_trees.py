import pytest
from hypothesis import given, settings, strategies as st

from boolform.boolfun import BoolFunc, Literal
from boolform.errors import InputError
from boolform.trees import (AND, OR, ModelId, StructureError, Tree,
                            canonicalize, compute_function, dual_tree,
                            format_tree, opposite, parse_tree)


def leaf(v, pos=True, model=ModelId.CATALAN):
    return Tree.leaf(Literal(v, pos), model)


def test_parse_format_roundtrip():
    text = "(and x1 (or x2 ~x3))"
    t = parse_tree(text, ModelId.CATALAN)
    assert format_tree(t) == text


@pytest.mark.parametrize("token", ["x1_0", "x+2", "x\u0663", "x-1",
                                   "x01", "x0", "~x00"])
def test_parse_rejects_malformed_leaves(token):
    # int() would read x1_0 as x10, x+2 as x2, an Arabic-Indic three as x3
    # and x01 as x1
    with pytest.raises(StructureError, match="bad leaf token"):
        parse_tree("(and %s x1)" % token, ModelId.ASSOC)


def test_compute_function_worked_example():
    t = parse_tree("(or x1 (and x2 x3))", ModelId.CATALAN)
    assert compute_function(t).to_string() == "n:3:ea"


def test_binary_models_reject_wide_nodes():
    with pytest.raises(StructureError):
        parse_tree("(and x1 x2 x3)", ModelId.CATALAN)
    with pytest.raises(StructureError):
        parse_tree("(or x1 x2 x3)", ModelId.COMM)


def test_stratified_models_reject_repeated_connective():
    with pytest.raises(StructureError):
        parse_tree("(and x1 (and x2 x3))", ModelId.ASSOC)
    # opposite connectives nest fine
    parse_tree("(and x1 (or x2 x3))", ModelId.ASSOC)


def test_unary_internal_nodes_rejected():
    with pytest.raises(StructureError):
        Tree.internal(AND, [leaf(1)], ModelId.CATALAN)


def test_nonplane_children_are_sorted():
    a = parse_tree("(and x2 x1)", ModelId.COMM)
    b = parse_tree("(and x1 x2)", ModelId.COMM)
    assert a == b
    assert hash(a) == hash(b)
    # plane trees keep the order
    assert (parse_tree("(and x2 x1)", ModelId.CATALAN)
            != parse_tree("(and x1 x2)", ModelId.CATALAN))


def test_dual_tree_negates_function_with_flipped_literals():
    t = parse_tree("(or x1 (and x2 ~x3))", ModelId.CATALAN)
    d = dual_tree(t)
    f = compute_function(t, 3)
    g = compute_function(d, 3)
    # De Morgan: conn swap + literal flip computes the negation
    assert g == f.negate()
    assert d.conn == AND


def test_dual_tree_is_involution():
    t = parse_tree("(and (or x1 x2) (or ~x1 x2))", ModelId.COMM)
    assert dual_tree(dual_tree(t)) == t


def test_nodes_and_leaves_traversal():
    t = parse_tree("(or x1 (and x2 x3))", ModelId.CATALAN)
    paths = [p for p, _ in t.nodes()]
    assert () in paths and (1, 0) in paths
    assert [str(l) for l in t.leaves()] == ["x1", "x2", "x3"]
    assert t.variables() == {1, 2, 3}


def test_compute_function_with_explicit_n():
    t = leaf(1)
    f = compute_function(t, 3)
    assert f.n == 3
    assert f == BoolFunc.from_literal(Literal(1, True), 3)


def test_compute_function_rejects_n_below_largest_variable():
    t = parse_tree("(and x1 (or ~x3 x2))", ModelId.CATALAN)
    for n in (2, 1, 0, -1):
        with pytest.raises(InputError):
            compute_function(t, n)
    assert compute_function(t, 3) == compute_function(t)


@st.composite
def raw_trees(draw):
    """(raw, model, n): nested (conn, [children]) / Literal data of a random
    tree of any model over at most n <= 3 variables."""
    model = draw(st.sampled_from(list(ModelId)))
    n = draw(st.integers(1, 3))

    def build(conns, budget):
        if budget <= 1 or draw(st.booleans()):
            return Literal(draw(st.integers(1, n)), draw(st.booleans()))
        conn = draw(st.sampled_from(conns))
        arity = 2 if model.binary else draw(st.integers(2, 3))
        kid_conns = (AND, OR) if model.binary else (opposite(conn),)
        return (conn, [build(kid_conns, budget // arity) for _ in range(arity)])

    return build((AND, OR), 8), model, n


def small_trees():
    """(tree, n): a random tree of any model over at most n <= 3 variables."""
    return raw_trees().map(lambda r: (canonicalize(r[0], r[1]), r[2]))


def _raw(t):
    return t.literal if t.is_leaf() else (t.conn, [_raw(c) for c in t.children])


@settings(max_examples=50)
@given(small_trees())
def test_format_parse_roundtrip_on_every_model(tree_n):
    t, _ = tree_n
    assert parse_tree(format_tree(t), t.model) == t


@settings(max_examples=50)
@given(raw_trees())
def test_canonicalize_is_idempotent_on_the_raw_form(raw_model_n):
    raw, model, _ = raw_model_n
    t = canonicalize(raw, model)
    assert canonicalize(_raw(t), model) == t


def _value(t, bits):
    if t.is_leaf():
        return bool(bits[t.literal.var - 1]) == t.literal.positive
    values = [_value(c, bits) for c in t.children]
    return all(values) if t.conn == AND else any(values)


@given(small_trees())
def test_compute_function_matches_evaluation_duality_and_lift(tree_n):
    t, n = tree_n
    f = compute_function(t, n)
    for idx in range(1 << n):
        bits = [(idx >> i) & 1 for i in range(n)]
        assert f.evaluate(bits) == _value(t, bits)
    assert compute_function(dual_tree(t), n) == f.negate()
    assert compute_function(t, n + 1) == f.lift(n + 1)
