import hashlib
import types
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boolform import exhaustive
from boolform.boolfun import BoolFunc, Literal
from boolform.errors import DomainError, ResourceCapError
from boolform.exhaustive import (classifier_counts,
                                 classifier_counts_by_generation,
                                 classify_tautologies, count_trees,
                                 distribution, distribution_by_generation,
                                 generate_trees, is_simple_tautology,
                                 is_simple_x, or_path_literals)
from boolform.trees import (ModelId, Tree, compute_function, dual_tree,
                            format_tree, parse_tree)

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

# sha256 of repr([count_trees(model, m, n) for m in 1..24]) per n, recorded
# once and frozen
FROZEN_COUNT_DIGESTS = {
    ModelId.CATALAN: {
        1: "25a5b62f405f9c5eae54d1e56d726656ae3eb66275820ea2e476235de7c4dda7",
        2: "9db20ecbf42bf075d38df8312860f286b345448419773d0f0992049be2169e68",
        3: "0cf9ca662df0a40b799ef9f35c6f09c8b73e2a2fde6499629a3899708e6dea12",
        7: "1b8382b5da0d9fdfe157332ba95086fc419dd58bee739ecc9b52f676c6b59f71"},
    ModelId.ASSOC: {
        1: "974e6deda9c48a55bbdebe340c11ce7eba6745912b572756619dbf220b1900d6",
        2: "220df74947f3c99bd0840331b7ba8aa032ef993558166dd597bcbb12df58baf4",
        3: "f94f2962d403ccf71334f787b51e43b28ed6dd634fb138ac0de6b72c8fd93b63",
        7: "e5ed263f4cf04ff55c252c9288a07c0e01ee34f53e11d344abda826f63970856"},
    ModelId.COMM: {
        1: "df21f9a12d752da591ce8c6e4fbbb6ada1e664e658239b25e64ddb220d03343e",
        2: "f699e74427d55e0fdce7b650641cf8921209527ca5bdbf5534eaf5c5d02f8fe1",
        3: "e8e4fd4dad6c1c86acfc5cd69d5af3a578984b0f0c4a6aea7961a2ce90016805",
        7: "19a490eaab2603029cf3f85b51eb9e75299acbaf50eb595acc4f9b043c33a1f5"},
    ModelId.ASSOC_COMM: {
        1: "bc4808ab435359cb2307709c809d6713c1b45b3ea0cb0805233e66255d8efb61",
        2: "f92e078cbd140e9e5f38c2e7b7018ee4b1ef1b15e65a364a9fcc99ac7fba50a8",
        3: "a1f146cec463d5c1b3ac51a0d65860f0e22c01b98d7216213eced6d1ae26ece7",
        7: "1a694b733c482803b8a300872697b0c587219856914d79f9a36f564f64bb73d5"},
}

# sha256 of the newline-joined format_tree sequence of generate_trees(model,
# m, n), recorded once and frozen: generation order is part of the contract.
# The third size of each model reuses listed subtrees below the root.
FROZEN_GENERATION_DIGESTS = {
    ModelId.CATALAN: {
        (4, 1): "99ee87ec7024426e4fe3f141858fe84e850f382b3dc4856739cbc2ffbdc5e505",
        (3, 2): "f15cd55e879ffe08e991b4bf7abb2bbf4b76992d5dc41caf9ff64f9ea796280e",
        (5, 1): "c817e1aebd7c0ed8990dc84a2b07739a076d22ddee15b4eeb112cd08e6c22f86"},
    ModelId.ASSOC: {
        (4, 1): "442c1ed125d7b12cdc35e3216549b165d29e1e9d92b149b922ef7116fc928c78",
        (3, 2): "bb0fd1ef637982208830d6d55dd480e6e6d7cd10eb00e6d272217d1a461eefbb",
        (6, 1): "06eeed2c1662ad3a5e4e5d296adac824e79333c5cad3f6e38ef80c1c51bb9a83"},
    ModelId.COMM: {
        (4, 1): "fe78a1e7a8551f6c1c615f4635eabc193764679cb6cc643d1005624eb089ef98",
        (3, 2): "d6dd87b697aa5787d6c0f0c62efcaad98416e9ee1968690a5dbed28aff1fbc76",
        (6, 1): "2c5f0e7558b6a620b25b2dbab1c201dd84d0a280fc7072df9672095135b80ad2"},
    ModelId.ASSOC_COMM: {
        (4, 1): "b950b562a1d367a65602dc5865ff2b4410c434982fdf9cf6f47d8848ff095980",
        (3, 2): "7bb2a4d85bb2e08b62fdc85d5e49afb0e09656034a1ec7f41acd1fdff0dbcc4e",
        (7, 1): "bc4e4b88fb2131792711108d6bd5ad29a9284d4cf7a7b0445f4978ba47b12e13"},
}

# the first size at which 2 m count_trees(model, m, 3), the bound on the
# DP's integers, passes int64, so that the DP runs on Python ints
WIDE_SIZES = {ModelId.CATALAN: 13, ModelId.ASSOC: 13, ModelId.COMM: 15,
              ModelId.ASSOC_COMM: 17}

# sha256 of the value DP's output beyond the sizes generation can check,
# recorded once and frozen: repr of the sorted (truth table, count) pairs of
# distribution(model, 8, 3) and of distribution(model, WIDE_SIZES[model], 3),
# and repr of the lists classifier_counts(model, kind, m, n) for m = 1..12,
# one list per n in (1, 2, 3)
FROZEN_DP_DIGESTS = {
    ModelId.CATALAN: {
        "distribution": "6b3373751ca2eb22bebe46453ee81107184434514390d19b11e9635ca65217df",
        "wide": "83f8806486a1fa299e51cf119348a806784432542c65df69bebb53cd0ad4503d",
        "g_x": "dd4b572a77dc1e5ccd9bffe196bb9ea5fd2a30c7a9ca7b8552ce8d2b619c75f1",
        "st_x": "4e8358536744087ab3110a07dc85826a683f8e9aced45746d471b4e6bf4c4774"},
    ModelId.ASSOC: {
        "distribution": "3716a540f884c3e262af8f1dcf5ac619793dd20d60105ac640e4247d4195dcbf",
        "wide": "793310f1fd51a17b7caefce679610c19c6a0fb0ee4c7a3ec4d743b6e75f0c947",
        "g_x": "2904e173c565acec458b4a46081e26e66448e50b1f12f975704a2f3841de7914",
        "st_x": "04e7030998ff2d6ffa48df4d663a2ef441eb0f618fd929a6dca904a8bf620f5a"},
    ModelId.COMM: {
        "distribution": "27c559363e84789249f03ad776fff8e632af7c04c0c5d6f1de78f551a53ffa78",
        "wide": "0f1804e846644723d310c5353cf5e45b49b9df8916e94f1d7fd8788105e4858a",
        "g_x": "818df3fe6121c9fa6f41fe5e12b721b32050a6b06c797eea853f61b1df859776",
        "st_x": "688cc915f9de751aab89be179118eb0a8f835ae88e406df4fff974e85af33f21"},
    ModelId.ASSOC_COMM: {
        "distribution": "0c9b5da28d91a3e184433c5fdef6b8ef9b14b219046274711be7c98df50d0bb1",
        "wide": "8376e2fc221ef20f2a050651a97ac1be273ac07b9bb5395aecd7ef575c9be2cd",
        "g_x": "cbdb33df8ca33fd429ea83f3e24d6188fbd5cb5324f7ab6b5031d298d1b2f2eb",
        "st_x": "06aa0424a7e66fd9421d74e9444190d7f465304318f0abc4952d8b4c14e9a3a2"},
}


def test_frozen_counts():
    for (model, m, n), value in FROZEN_COUNTS.items():
        assert count_trees(model, m, n) == value
    for model, digests in FROZEN_COUNT_DIGESTS.items():
        for n, digest in digests.items():
            counts = [count_trees(model, m, n) for m in range(1, 25)]
            assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest


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


@pytest.mark.parametrize("model, m, n", [(ModelId.CATALAN, 4, 3),
                                         (ModelId.ASSOC, 4, 3),
                                         (ModelId.COMM, 5, 2),
                                         (ModelId.ASSOC_COMM, 5, 3)])
def test_generation_builds_each_subtree_once(model, m, n):
    # every subtree of size >= 2 is built at most once per call
    calls = 0

    def node(conn, kids):
        nonlocal calls
        calls += 1
        return Tree.internal(conn, kids, model)

    leaves = [Tree.leaf(lit, model) for lit in exhaustive._literals(n)]
    trees = sum(1 for _ in exhaustive._generate(model, m, leaves, node))
    assert trees == count_trees(model, m, n)
    assert calls <= sum(count_trees(model, s, n) for s in range(2, m + 1))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_distribution_agrees_with_generation(model):
    for m in range(1, 6):
        dp = distribution(model, m, 2)
        gen = distribution_by_generation(model, m, 2)
        assert dp.counts == gen.counts
        assert dp.total == sum(dp.counts.values()) == count_trees(model, m, 2)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(ALL_MODELS), st.integers(1, 4), st.integers(1, 2))
def test_distribution_agrees_with_generation_on_random_sizes(model, m, n):
    assert (distribution(model, m, n).counts
            == distribution_by_generation(model, m, n).counts)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_dp_beyond_generation_pinned(model):
    wide = WIDE_SIZES[model]
    assert (2 * (wide - 1) * count_trees(model, wide - 1, 3)
            <= np.iinfo(np.int64).max < 2 * wide * count_trees(model, wide, 3))
    digests = {}
    for key, m in (("distribution", 8), ("wide", wide)):
        counts = distribution(model, m, 3).counts
        entries = sorted((f.table, c) for f, c in counts.items())
        digests[key] = hashlib.sha256(repr(entries).encode()).hexdigest()
    for kind in ("g_x", "st_x"):
        counts = [[classifier_counts(model, kind, m, n) for m in range(1, 13)]
                  for n in (1, 2, 3)]
        digests[kind] = hashlib.sha256(repr(counts).encode()).hexdigest()
    assert digests == FROZEN_DP_DIGESTS[model]


def _oracle_functions(roots):
    """Functions of exhaustive that roots reference, directly or in turn."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        obj = getattr(exhaustive, name)
        funcs = obj.values() if isinstance(obj, dict) else [obj]
        codes = [f.__code__ for f in funcs]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            for ref in code.co_names:
                target = getattr(exhaustive, ref, None)
                targets = target.values() if isinstance(target, dict) else [target]
                if any(isinstance(t, types.FunctionType)
                       and t.__module__ == exhaustive.__name__ for t in targets):
                    todo.append(ref)
    return seen


def test_oracles_share_no_functions():
    # generation, the value DP and the counting recurrences check each other
    # only while none of them calls into another
    counts = {name for name in vars(exhaustive) if name.startswith("_counts")}
    oracles = {"generator": _oracle_functions(["_generate"]),
               "value DP": _oracle_functions(["_value_dp"]),
               "counts": _oracle_functions(counts)}
    assert counts and "_zeta" in oracles["value DP"]
    for a, b in combinations(sorted(oracles), 2):
        assert not oracles[a] & oracles[b], (a, b, oracles[a] & oracles[b])
    # the generation route checks the DP's distribution
    route = _oracle_functions(["distribution_by_generation"])
    assert "_generate" in route and not route & oracles["value DP"]


@pytest.mark.parametrize("call", [
    lambda: distribution(ModelId.CATALAN, 0, 2),
    lambda: distribution(ModelId.COMM, -1, 2),
    lambda: distribution(ModelId.ASSOC, 3, 0),
    lambda: classifier_counts(ModelId.CATALAN, "g_x", 0, 1),
    lambda: classifier_counts(ModelId.ASSOC_COMM, "st_x", 3, 0),
    lambda: classifier_counts_by_generation(ModelId.COMM, "st_x", 0, 1),
    lambda: classifier_counts_by_generation(ModelId.ASSOC, "g_x", 3, 0),
    # the kind is checked before some 3.5e30 trees would be generated
    lambda: classifier_counts_by_generation(ModelId.CATALAN, "bogus", 20, 3),
    lambda: distribution_by_generation(ModelId.ASSOC_COMM, 0, 2),
    lambda: distribution_by_generation(ModelId.CATALAN, 3, 0),
])
def test_out_of_range_sizes_raise(call):
    with pytest.raises(DomainError):
        call()


def test_distribution_frozen_values():
    d = distribution(ModelId.CATALAN, 2, 1)
    assert d.total == 8
    assert d.counts[BoolFunc.constant(1, True)] == 2
    d = distribution(ModelId.COMM, 2, 1)
    assert d.total == 6
    assert d.counts[BoolFunc.constant(1, True)] == 1


@pytest.mark.parametrize("model", ALL_MODELS)
def test_duality_of_distribution(model):
    # n = 3 and 4 lie beyond generation's reach
    for n, top in ((2, 6), (3, 8), (4, 6)):
        for m in range(1, top + 1):
            d = distribution(model, m, n)
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


def test_generation_cap_enforced(monkeypatch):
    monkeypatch.setattr(exhaustive, "GENERATION_CAP", 1000)
    with pytest.raises(ResourceCapError):
        list(generate_trees(ModelId.CATALAN, 12, 2))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_generation_cap_counts_listed_subtrees(monkeypatch, model):
    # the subtrees listed below the root count against the cap too, on both
    # routes through the generator
    streamed = count_trees(model, 4, 2)
    listed = count_trees(model, 2, 2) + count_trees(model, 3, 2)
    for route in (lambda: generate_trees(model, 4, 2),
                  lambda: distribution_by_generation(model, 4, 2)):
        monkeypatch.setattr(exhaustive, "GENERATION_CAP", streamed)
        with pytest.raises(ResourceCapError):
            route()
        monkeypatch.setattr(exhaustive, "GENERATION_CAP", streamed + listed - 1)
        with pytest.raises(ResourceCapError):
            route()
    monkeypatch.setattr(exhaustive, "GENERATION_CAP", streamed + listed)
    assert sum(1 for _ in generate_trees(model, 4, 2)) == streamed
    assert distribution_by_generation(model, 4, 2).total == streamed


@pytest.mark.parametrize("model", ALL_MODELS)
def test_streamed_tables_match_compute_function(model):
    # the generation route folds truth tables as it builds each tree; here
    # compute_function reads them off the generated Trees instead
    for m, n in ((1, 2), (2, 2), (3, 2), (4, 2), (3, 3)):
        assert (distribution_by_generation(model, m, n).counts
                == Counter(compute_function(t, n)
                           for t in generate_trees(model, m, n)))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_distribution_by_generation_builds_no_tree(monkeypatch, model):
    def refuse(*args, **kwargs):
        raise AssertionError("the generation route built a Tree")

    monkeypatch.setattr(exhaustive, "compute_function", refuse)
    monkeypatch.setattr(Tree, "internal", staticmethod(refuse))
    monkeypatch.setattr(Tree, "__init__", refuse)
    assert (distribution_by_generation(model, 4, 2).counts
            == distribution(model, 4, 2).counts)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_simple_contradiction_matches_dual_tree(model):
    # t is a simple contradiction iff its dual is a simple tautology
    for m in range(1, 5):
        for t in generate_trees(model, m, 2):
            for _, sub in t.nodes():
                assert (exhaustive._is_simple_contradiction(sub)
                        == bool(is_simple_tautology(dual_tree(sub))))
