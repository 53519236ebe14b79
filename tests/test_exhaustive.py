import hashlib

import pytest

from boolform.boolfun import BoolFunc, Literal
from boolform.errors import ResourceCapError
from boolform.exhaustive import (classifier_counts,
                                 classifier_counts_by_generation,
                                 classify_tautologies, count_trees,
                                 distribution, distribution_by_generation,
                                 generate_trees, is_simple_tautology,
                                 is_simple_x, or_path_literals)
from boolform.trees import ModelId, compute_function, format_tree, parse_tree

ALL_MODELS = list(ModelId)

# exhaustively recounted once, then frozen
FROZEN_COUNTS = {
    (ModelId.CATALAN, 2, 1): 8,
    (ModelId.CATALAN, 4, 2): 10240,
    (ModelId.ASSOC, 3, 1): 48,
    (ModelId.ASSOC, 6, 2): 1613824,
    (ModelId.COMM, 2, 1): 6,
    (ModelId.ASSOC_COMM, 2, 1): 6,
}

COMM_N2_PREFIX = [4, 20, 160, 1700, 20000, 253760, 3374080]

# sha256 of the newline-joined format_tree sequence of generate_trees(model,
# m, n), recorded once and frozen: generation order is part of the contract
FROZEN_GENERATION_DIGESTS = {
    ModelId.CATALAN: {
        (4, 1): "99ee87ec7024426e4fe3f141858fe84e850f382b3dc4856739cbc2ffbdc5e505",
        (3, 2): "f15cd55e879ffe08e991b4bf7abb2bbf4b76992d5dc41caf9ff64f9ea796280e"},
    ModelId.ASSOC: {
        (4, 1): "442c1ed125d7b12cdc35e3216549b165d29e1e9d92b149b922ef7116fc928c78",
        (3, 2): "bb0fd1ef637982208830d6d55dd480e6e6d7cd10eb00e6d272217d1a461eefbb"},
    ModelId.COMM: {
        (4, 1): "fe78a1e7a8551f6c1c615f4635eabc193764679cb6cc643d1005624eb089ef98",
        (3, 2): "d6dd87b697aa5787d6c0f0c62efcaad98416e9ee1968690a5dbed28aff1fbc76"},
    ModelId.ASSOC_COMM: {
        (4, 1): "b950b562a1d367a65602dc5865ff2b4410c434982fdf9cf6f47d8848ff095980",
        (3, 2): "7bb2a4d85bb2e08b62fdc85d5e49afb0e09656034a1ec7f41acd1fdff0dbcc4e"},
}


def test_frozen_counts():
    for (model, m, n), value in FROZEN_COUNTS.items():
        assert count_trees(model, m, n) == value


def test_comm_count_sequence_n2():
    got = [count_trees(ModelId.COMM, m, 2) for m in range(1, 8)]
    assert got == COMM_N2_PREFIX


@pytest.mark.parametrize("model", ALL_MODELS)
def test_generation_matches_counts_and_is_duplicate_free(model):
    for n in (1, 2):
        for m in range(1, 6):
            trees = list(generate_trees(model, m, n))
            assert len(trees) == count_trees(model, m, n)
            assert len(set(trees)) == len(trees)
            assert all(sum(1 for _ in t.leaves()) == m for t in trees)
    for (m, n), digest in FROZEN_GENERATION_DIGESTS[model].items():
        text = "\n".join(format_tree(t) for t in generate_trees(model, m, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("model", ALL_MODELS)
def test_distribution_agrees_with_generation(model):
    for m in range(1, 6):
        dp = distribution(model, m, 2)
        gen = distribution_by_generation(model, m, 2)
        assert dp.counts == gen.counts
        assert dp.total == sum(dp.counts.values()) == count_trees(model, m, 2)


def test_distribution_frozen_values():
    d = distribution(ModelId.CATALAN, 2, 1)
    assert d.total == 8
    assert d.counts[BoolFunc.constant(1, True)] == 2
    d = distribution(ModelId.COMM, 2, 1)
    assert d.total == 6
    assert d.counts[BoolFunc.constant(1, True)] == 1


@pytest.mark.parametrize("model", ALL_MODELS)
def test_duality_of_distribution(model):
    for m in range(1, 7):
        d = distribution(model, m, 2)
        for f, c in d.counts.items():
            assert d.counts[f.negate()] == c


def test_distribution_exports():
    d = distribution(ModelId.CATALAN, 2, 1)
    j = d.to_json_dict()
    assert j["total"] == "8"
    assert sum(int(e["count"]) for e in j["entries"]) == 8
    rows = d.to_csv_rows()
    assert ("n:1:1", "2") in rows


def test_or_path_literals_and_simple_tautology():
    t = parse_tree("(or x1 (or ~x1 x2))", ModelId.CATALAN)
    assert or_path_literals(t) == {Literal(1, True), Literal(1, False),
                                   Literal(2, True)}
    assert is_simple_tautology(t) == {1}
    t2 = parse_tree("(and x1 (or ~x1 x1))", ModelId.CATALAN)
    assert is_simple_tautology(t2) == set()


def test_is_simple_x_shapes():
    t = parse_tree("(and x1 (or x2 ~x2))", ModelId.CATALAN)
    assert is_simple_x(t) == ("x_T", Literal(1, True))
    t = parse_tree("(or ~x1 (and x2 ~x2))", ModelId.CATALAN)
    assert is_simple_x(t) == ("x_T", Literal(1, False))
    t = parse_tree("(and x1 (or x1 x2))", ModelId.CATALAN)
    assert is_simple_x(t) == ("x_X", Literal(1, True))
    t = parse_tree("(and x1 x2)", ModelId.CATALAN)
    assert is_simple_x(t) is None


def test_classify_tautologies_frozen():
    assert classify_tautologies(ModelId.CATALAN, 2, 1) == (2, 0)
    assert classify_tautologies(ModelId.CATALAN, 3, 1) == (12, 4)


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("kind", ["g_x", "st_x"])
def test_classifier_dp_matches_generation(model, kind):
    for n in (1, 2):
        for m in range(1, 6):
            assert (classifier_counts(model, kind, m, n)
                    == classifier_counts_by_generation(model, kind, m, n))


def test_classifier_frozen_values():
    assert classifier_counts(ModelId.CATALAN, "g_x", 1, 1) == 1
    assert classifier_counts(ModelId.CATALAN, "st_x", 2, 1) == 2
    assert classifier_counts(ModelId.COMM, "st_x", 2, 1) == 1
    assert classifier_counts(ModelId.ASSOC, "st_x", 3, 1) == 6
    assert classifier_counts(ModelId.ASSOC_COMM, "st_x", 3, 1) == 2
    assert classifier_counts(ModelId.ASSOC_COMM, "g_x", 2, 2) == 4


def test_generation_cap_enforced():
    with pytest.raises(ResourceCapError):
        list(generate_trees(ModelId.CATALAN, 12, 2, cap=1000))


def test_generated_trees_compute_consistent_functions():
    # spot check: the DP's function tally equals recomputation per tree
    for t in generate_trees(ModelId.ASSOC, 4, 2):
        f = compute_function(t, 2)
        assert f.n == 2
