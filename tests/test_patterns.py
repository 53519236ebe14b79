from itertools import product

import pytest

from boolform.errors import DomainError
from boolform.exhaustive import _generate
from boolform.patterns import (PatternId, _shape_node, count_restrictions,
                               labelling_count, labelling_weight,
                               match_pattern, minimal_embedding, stirling2,
                               verify_pattern_lemmas)
from boolform.trees import ModelId, parse_tree

ALL_MODELS = list(ModelId)

# connective-labelled shapes with m = 1..7 leaves, counted once, then frozen
FROZEN_SHAPE_COUNTS = {
    ModelId.CATALAN: [1, 2, 8, 40, 224, 1344, 8448],
    ModelId.ASSOC: [1, 2, 6, 22, 90, 394, 1806],
    ModelId.COMM: [1, 2, 4, 14, 44, 164, 616],
    ModelId.ASSOC_COMM: [1, 2, 4, 10, 24, 66, 180],
}


def test_match_pattern_binary_examples():
    t = parse_tree("(or x1 x2)", ModelId.CATALAN)
    m = match_pattern(t, PatternId.N)
    assert m.pattern_leaves == ((0,), (1,))
    assert m.placeholders == ()
    t = parse_tree("(and x1 x2)", ModelId.CATALAN)
    m = match_pattern(t, PatternId.N)
    assert m.pattern_leaves == ((0,),)
    assert m.placeholders == ((1,),)


def test_match_pattern_stratified_example():
    t = parse_tree("(or x1 (and x2 x3))", ModelId.ASSOC)
    m = match_pattern(t, PatternId.R)
    assert m.pattern_leaves == ((0,), (1, 0))
    assert m.placeholders == ((1, 1),)


def test_match_partition_invariant():
    t = parse_tree("(and (or x1 x2) (or x3 (and x1 x2)))", ModelId.CATALAN)
    for depth in (1, 2):
        m = match_pattern(t, PatternId.N, depth)
        covered = set(m.pattern_leaves)
        for hole in m.placeholders:
            node = t
            for i in hole:
                node = node.children[i]
            covered.update(hole + p for p, sub in node.nodes() if sub.is_leaf())
        all_leaves = {p for p, sub in t.nodes() if sub.is_leaf()}
        assert covered == all_leaves


def test_depth_two_extends_pattern():
    t = parse_tree("(and (or x1 x2) x3)", ModelId.CATALAN)
    m1 = match_pattern(t, PatternId.N, 1)
    m2 = match_pattern(t, PatternId.N, 2)
    assert set(m1.pattern_leaves) <= set(m2.pattern_leaves)
    assert len(m2.pattern_leaves) > len(m1.pattern_leaves)


def test_count_restrictions_examples():
    for text, reps, total in [("(or x1 ~x1)", 1, 1),
                              ("(or x1 x1)", 1, 2),
                              ("(or x1 x2)", 0, 2)]:
        t = parse_tree(text, ModelId.CATALAN)
        rc = count_restrictions(t, PatternId.N)
        assert (rc.repetitions, rc.restrictions) == (reps, total), text


def test_restrictions_realized_set():
    t = parse_tree("(or x1 x2)", ModelId.CATALAN)
    rc = count_restrictions(t, PatternId.N)
    assert rc.realized == {1, 2}
    # a tautology has no essential variables, so nothing is realized
    t = parse_tree("(or x1 ~x1)", ModelId.CATALAN)
    assert count_restrictions(t, PatternId.N).realized == set()


def test_minimal_embedding_picks_smaller_count():
    t = parse_tree("(and (or x2 ~x2) x1)", ModelId.COMM)
    rc = count_restrictions(t, PatternId.N)
    # keeping the literal side yields no repetition and one realized var
    assert rc.restrictions == 1
    m = minimal_embedding(t, PatternId.N)
    assert len(m.pattern_leaves) == 1


def test_pattern_model_compatibility():
    t = parse_tree("(or x1 x2)", ModelId.CATALAN)
    with pytest.raises(DomainError):
        match_pattern(t, PatternId.R)
    t = parse_tree("(or x1 x2)", ModelId.ASSOC)
    with pytest.raises(DomainError):
        match_pattern(t, PatternId.N)


def test_s_pattern_on_assoc():
    t = parse_tree("(and x1 (or x2 x3))", ModelId.ASSOC)
    m = match_pattern(t, PatternId.S)
    # and-node recurses everywhere, or-node keeps its first child
    assert m.pattern_leaves == ((0,), (1, 0))


def test_stirling_numbers():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 5) == 0


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


@pytest.mark.parametrize("model", ALL_MODELS)
def test_lemmas_hold_at_small_sizes(model):
    shapes = [list(_generate(model, m, (None,), _shape_node))
              for m in range(1, 8)]
    assert [len(s) for s in shapes] == FROZEN_SHAPE_COUNTS[model]
    assert all(len(set(s)) == len(s) for s in shapes)
    for n in (1, 2):
        rep = verify_pattern_lemmas(model, 5, n)
        assert rep.ok, rep.counterexamples[:3]
        # every shape is checked under all (2n)^m leaf labellings
        assert rep.trees_checked == sum(
            c * (2 * n) ** m
            for m, c in enumerate(FROZEN_SHAPE_COUNTS[model][:5], 1))
