import hashlib
import importlib

import pytest

from boolform.boolfun import BoolFunc, Literal
from boolform.complexity import (complexity, complexity_model_independence,
                                 enumerate_expansions, lambda_bounds,
                                 lambda_t_reference, lambda_x_bounds,
                                 probability_vs_bounds)
from boolform.errors import DomainError, ResourceCapError
from boolform.trees import ModelId, compute_function, format_tree

ALL_MODELS = list(ModelId)
X1 = BoolFunc.from_literal(Literal(1, True), 2)
AND12 = BoolFunc(2, 0b1000)
XOR = BoolFunc(2, 0b0110)
MAJ3 = BoolFunc.from_string("n:3:ea")  # x1 | (x2 & x3)


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
    assert all(complexity_model_independence(BoolFunc(2, t))
               for t in range(16))


def test_search_budget_raises(monkeypatch):
    # boolform.complexity is the function; the module is imported by name
    monkeypatch.setattr(importlib.import_module("boolform.complexity"),
                        "SEARCH_BUDGET", 3)
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


def test_lambda_t_matches_closed_form():
    for model in ALL_MODELS:
        for f in (X1, AND12):
            tally = enumerate_expansions(complexity(f, model))
            ref = lambda_t_reference(f, model)
            if ref.restricted:
                assert tally.lambda_T <= ref.upper
                continue
            assert ref.lower <= tally.lambda_T <= ref.upper, (model, f)


def test_lambda_x_within_published_bounds():
    for model in (ModelId.CATALAN, ModelId.COMM, ModelId.ASSOC_COMM):
        for f in (X1, AND12, MAJ3):
            tally = enumerate_expansions(complexity(f, model))
            b = lambda_x_bounds(f, model)
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
    b = lambda_bounds(X1, ModelId.CATALAN)
    assert b.lower == b.upper == 5.0 / 16
    b = lambda_bounds(X1, ModelId.COMM)
    assert b.lower == b.upper == 1153.0 / 4096


def test_bounds_ordered_for_l_two():
    for model in ALL_MODELS:
        b = lambda_bounds(AND12, model)
        assert b.lower <= b.upper
        assert not b.restricted


def test_restricted_flag_for_stratified_literal_bounds():
    assert lambda_bounds(X1, ModelId.ASSOC).restricted
    assert lambda_bounds(X1, ModelId.ASSOC_COMM).restricted
    assert not lambda_bounds(X1, ModelId.CATALAN).restricted


def test_catalan_and_bounds_frozen():
    b = lambda_bounds(AND12, ModelId.CATALAN)
    # L=2, M=2, ell=1
    assert b.lower == (8 * 2 - 3 + 1) * 2 / 16.0 ** 2
    assert b.upper == (4 * 4 + 8 - 3) * 2 / 16.0 ** 2


def test_probability_vs_bounds_rejects_an_empty_grid():
    # an empty grid raised IndexError after the search
    with pytest.raises(DomainError, match="n_grid"):
        probability_vs_bounds(AND12, ModelId.CATALAN, n_grid=())


def test_probability_vs_bounds_internal_consistency():
    rep = probability_vs_bounds(AND12, ModelId.CATALAN, n_grid=(100, 200))
    assert rep["within_bounds"] is True
    assert rep["reason"] is None
    assert rep["L"] == 2 and rep["M"] == 2
    assert rep["grid"][0]["estimate"] > 0
    # the comm literal's limit 5/16 exceeds the collapsed published bounds
    rep = probability_vs_bounds(X1, ModelId.COMM, n_grid=(100,))
    assert rep["within_bounds"] is False
    assert rep["bounds"]["upper"] == 1153.0 / 4096 < rep["limit"]
    assert rep["reason"].startswith(
        "limit %.6g is above the upper bound 0.281494 by %.3g;"
        % (rep["limit"], rep["limit"] - 1153.0 / 4096))
    assert "1153/4096" in rep["reason"] and "5/16" in rep["reason"]
