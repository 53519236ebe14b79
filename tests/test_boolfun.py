import tracemalloc

import pytest
from hypothesis import given, strategies as st

from boolform.boolfun import BoolFunc, InputError, Literal
from boolform.trees import ModelId, compute_function, parse_tree


def test_literal_ordering_and_negate():
    a = Literal(1, True)
    assert a.negate() == Literal(1, False)
    assert a.negate().negate() == a
    assert str(Literal(3, False)) == "~x3"


def test_literal_takes_an_int_variable_only():
    # Literal(True) compared and hashed equal to Literal(1), and Literal(1.5)
    # built, then failed in from_literal's shift with a TypeError
    for var in (True, 1.5, 2.0, "1"):
        with pytest.raises(InputError, match="int"):
            Literal(var)


def test_literal_takes_a_bool_polarity_only():
    # Literal(1, "no") printed as x1 and got x1's table yet was unequal to
    # Literal(1, True); Literal(1, 0) compared and hashed like Literal(1, False)
    for positive in ("no", 0, 1, None, 1.0):
        with pytest.raises(InputError, match="bool"):
            Literal(1, positive)


def test_truth_table_bit_order():
    # x1 is the least significant bit of the assignment index
    f = BoolFunc.from_literal(Literal(1, True), 2)
    assert f.table == 0b1010
    g = BoolFunc.from_literal(Literal(2, True), 2)
    assert g.table == 0b1100


def test_from_literal_matches_assignment_loop():
    for n in range(1, 9):
        for var in range(1, n + 1):
            for positive in (True, False):
                table = sum(1 << idx for idx in range(1 << n)
                            if bool(idx >> (var - 1) & 1) == positive)
                assert BoolFunc.from_literal(Literal(var, positive), n).table == table


def test_worked_example_serialization():
    # x1 | (x2 & x3)
    x1 = BoolFunc.from_literal(Literal(1, True), 3)
    x2 = BoolFunc.from_literal(Literal(2, True), 3)
    x3 = BoolFunc.from_literal(Literal(3, True), 3)
    f = BoolFunc(3, x1.table | (x2.table & x3.table))
    assert f.table == 0xEA
    assert f.to_string() == "n:3:ea"
    assert BoolFunc.from_string("n:3:ea") == f


def test_hex_width_is_padded():
    assert BoolFunc.constant(1, False).to_string() == "n:1:0"
    assert BoolFunc.constant(3, True).to_string() == "n:3:ff"
    assert BoolFunc.constant(4, False).to_string() == "n:4:0000"


def test_constant_and_essential():
    t = BoolFunc.constant(2, True)
    assert t.is_constant()
    assert t.essential_vars() == set()
    f = BoolFunc.from_literal(Literal(2, False), 3)
    assert f.essential_vars() == {2}
    assert not f.is_constant()
    # a bit-by-bit scan of the 2^20 entries per variable takes minutes
    assert BoolFunc.from_literal(Literal(20, False), 20).essential_vars() == {20}


def test_negate_involution():
    f = BoolFunc.from_string("n:2:6")  # xor
    assert f.negate().negate() == f
    assert f.negate().table == 0b1001


def test_evaluate_matches_table():
    f = BoolFunc.from_string("n:3:ea")
    for idx in range(8):
        assignment = [(idx >> k) & 1 for k in range(3)]
        assert f.evaluate(assignment) == bool((f.table >> idx) & 1)


def test_lift_preserves_behavior():
    f = BoolFunc.from_string("n:2:6")
    g = f.lift(3)
    assert g.n == 3
    assert g.essential_vars() == f.essential_vars()
    for idx in range(8):
        assignment = [(idx >> k) & 1 for k in range(3)]
        assert g.evaluate(assignment) == f.evaluate(assignment[:2])


@pytest.mark.parametrize("n", [25, 40])
@pytest.mark.parametrize("build", [
    lambda n: BoolFunc.constant(n, True),
    lambda n: BoolFunc.from_literal(Literal(1), n),
    lambda n: BoolFunc(1, 1).lift(n),
    lambda n: compute_function(parse_tree("x1", ModelId.CATALAN), n),
    lambda n: compute_function(parse_tree("x%d" % n, ModelId.CATALAN)),
])
def test_n_checked_before_any_table_is_built(build, n):
    # a table of 2^25 bits takes 4 MB, of 2^40 bits 128 GiB
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="n must be in 1..24"):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_invalid_inputs_rejected():
    with pytest.raises(InputError):
        BoolFunc(0, 0)
    with pytest.raises(InputError):
        BoolFunc(2, 1 << 16)
    with pytest.raises(InputError):
        BoolFunc.from_string("2:aa")
    # int() reads all but the last: a prefix, an underscore, signs, a space,
    # a non-ASCII digit, a leading zero in the count; then an empty table
    for text in ("n:3:0xea", "n:3:e_a", "n:+3:ea", "n:3:+ea", "n:3: ea",
                 "n:\u0663:ea", "n:3:-0", "n:03:ea", "n:3:"):
        with pytest.raises(InputError, match="expected 'n:<count>:<hex>'"):
            BoolFunc.from_string(text)
    # upper case and zero padding stay accepted
    assert BoolFunc.from_string("n:3:00EA") == BoolFunc(3, 0xEA)
    with pytest.raises(InputError):
        Literal(0, True)


@pytest.mark.parametrize("n,table", [(1, True), (True, 2), (2, 3.0), (2.0, 3)])
def test_non_int_arguments_rejected(n, table):
    # BoolFunc(1, True) equalled BoolFunc(1, 1), BoolFunc(True, 2) aliased
    # n = 1, BoolFunc(2, 3.0) failed only in to_string, BoolFunc(2.0, 3)
    # raised a bare TypeError
    with pytest.raises(InputError, match="must be an int"):
        BoolFunc(n, table)


@given(st.integers(min_value=1, max_value=4), st.data())
def test_serialization_roundtrip(n, data):
    table = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    f = BoolFunc(n, table)
    assert BoolFunc.from_string(f.to_string()) == f


@given(st.integers(min_value=1, max_value=3), st.data())
def test_essential_vars_are_the_ones_that_matter(n, data):
    table = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    f = BoolFunc(n, table)
    ess = f.essential_vars()
    for v in range(1, n + 1):
        flips = any(
            f.evaluate([(i >> k) & 1 for k in range(n)])
            != f.evaluate([(i >> k) & 1 if k != v - 1 else 1 - ((i >> k) & 1)
                           for k in range(n)])
            for i in range(1 << n))
        assert (v in ess) == flips
