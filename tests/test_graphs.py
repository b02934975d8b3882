from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgk.graphs import (
    MAX_CURVES,
    ChainParseError,
    Fork,
    canonical_chain,
    format_chain,
    parse_chain,
    parse_fork,
    read_brackets,
    reverse_chain,
)
from reference import WeightedTree, fork_to_json, int_det


def test_parse_basic():
    assert parse_chain("[3,(2)]") == (3, 2, 2)
    assert parse_chain("[(0)]") == ()
    assert parse_chain("[]") == ()
    assert parse_chain("[2,3,4,2]") == (2, 3, 4, 2)
    assert parse_chain("[(3)]") == (2, 2, 2)
    assert parse_chain("[ 4 , (2) ]") == (4, 2, 2)
    # whitespace around the text is ignored on either side
    assert parse_chain("[3] ") == (3,)
    assert parse_chain("[2,3]\n") == (2, 3)
    assert parse_chain("  [3]") == (3,)
    assert parse_chain(" [ ] ") == ()


@pytest.mark.parametrize(
    "bad", ["", "3,2", "[3,,2]", "[3 2]", "[-1]", "[0]", "[3,]", "[,3]", "[3", "[x]"]
)
def test_parse_errors(bad):
    with pytest.raises(ChainParseError):
        parse_chain(bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("[x]", "bad chain entry 'x' (at position 1)"),
        ("  [2, x]", "bad chain entry 'x' (at position 5)"),
        ("[3,]", "bad chain entry '' (at position 3)"),
        ("[3", "expected ']' after entry '3' (at position 2)"),
        (" 3,2", "expected '[' (at position 1)"),
        # the fiber entries are refused: a chain has no marks or multiplicities
        ("[2,1*,2]", "chain entry '1*' must be a positive weight or a run (k) (at position 3)"),
        ("[2:1]", "chain entry '2:1' must be a positive weight or a run (k) (at position 1)"),
        ("[3,0]", "chain entry '0' must be a positive weight or a run (k) (at position 3)"),
    ],
)
def test_parse_errors_name_the_entry(bad, message):
    with pytest.raises(ChainParseError) as info:
        parse_chain(bad)
    assert str(info.value) == message


def test_read_brackets_gives_one_tuple_per_curve():
    # a run (k) is k curves of weight 2, all from the one entry
    assert read_brackets("[3, (2)]", "fiber") == [
        (3, False, None, "3", 1),
        (2, False, None, "(2)", 3),
        (2, False, None, "(2)", 3),
    ]
    assert read_brackets(" [1*:14]", "fiber") == [(1, True, 14, "1*:14", 2)]


def test_read_brackets_refuses_a_run_past_the_curve_bound():
    assert len(read_brackets(f"[({MAX_CURVES})]", "chain")) == MAX_CURVES
    assert len(parse_chain(f"[3,({MAX_CURVES - 1})]")) == MAX_CURVES
    for text, kind, entry, pos in (
        (f"[({MAX_CURVES + 1})]", "run", f"({MAX_CURVES + 1})", 1),
        (f"[3,({MAX_CURVES})]", "run", f"({MAX_CURVES})", 3),
        ("[(60000), (60000)]", "run", "(60000)", 9),
        ("[(1000000000000)]", "run", "(1000000000000)", 1),
        (f"[({MAX_CURVES}),3]", "entry", "3", len(f"[({MAX_CURVES}),")),
        (f"[({MAX_CURVES}),1*:2]", "entry", "1*:2", len(f"[({MAX_CURVES}),")),
    ):
        with pytest.raises(ChainParseError) as info:
            read_brackets(text, "fiber")
        want = f"{kind} {entry!r} takes the fiber past {MAX_CURVES} curves (at position {pos})"
        assert str(info.value) == want


def test_read_brackets_refuses_a_number_past_the_digit_limit():
    # int() refuses more than 4,300 digits; the entry and its position are
    # named instead of Python's own message
    nines = "9" * 5000
    for text, word, entry, pos in (
        (f"[({nines})]", "chain", f"({nines})", 1),
        (f"[2, {nines}]", "chain", nines, 3),
        (f"[1*:{nines}]", "fiber", f"1*:{nines}", 1),
    ):
        with pytest.raises(ChainParseError) as info:
            read_brackets(text, word)
        assert str(info.value) == f"{word} entry {entry!r} has too many digits (at position {pos})"


def test_format_compresses_runs():
    assert format_chain((3, 2, 2)) == "[3,(2)]"
    assert format_chain((2,)) == "[2]"
    assert format_chain((2, 3, 2)) == "[2,3,2]"
    assert format_chain((2, 2, 3, 2, 2)) == "[(2),3,(2)]"
    assert format_chain(()) == "[]"


chains_strategy = st.lists(st.integers(1, 9), max_size=12).map(tuple)


@given(chains_strategy)
def test_parse_format_roundtrip(ws):
    assert parse_chain(format_chain(ws)) == ws


@given(chains_strategy)
def test_format_parse_is_canonical_text(ws):
    text = format_chain(ws)
    assert format_chain(parse_chain(text)) == text


@given(chains_strategy)
def test_reverse_involution(ws):
    assert reverse_chain(reverse_chain(ws)) == ws


def test_canonical_chain():
    assert canonical_chain((3, 2)) == (2, 3)
    assert canonical_chain((2, 3, 2)) == (2, 3, 2)


def test_intersection_matrix_chain():
    assert WeightedTree.from_chain((2,)).intersection_matrix() == [[-2]]
    assert WeightedTree.from_chain((3, 2)).intersection_matrix() == [
        [-3, 1],
        [1, -2],
    ]


def test_intersection_matrix_fork():
    fork = Fork(2, ((2,), (2,), (2,)))
    m = WeightedTree.from_fork(fork).intersection_matrix()
    assert m[0] == [-2, 1, 1, 1]
    assert [m[i][i] for i in range(4)] == [-2, -2, -2, -2]


def test_negative_definite():
    assert WeightedTree.from_chain((2, 2)).is_negative_definite()
    assert not WeightedTree.from_chain((0,)).is_negative_definite()
    e8 = Fork(2, ((2,), (2, 2), (2, 2, 2, 2)))
    assert WeightedTree.from_fork(e8).is_negative_definite()


def test_discriminant_against_bareiss():
    for ws in [(2,), (3, 2), (2, 3, 2), (5, 3, 1, 2, 3, 2, 2, 2)]:
        t = WeightedTree.from_chain(ws)
        assert t.discriminant() == int_det(t.minus_intersection_matrix())
    fork = Fork(2, ((2,), (2,), (3,)))
    t = WeightedTree.from_fork(fork)
    assert t.discriminant() == int_det(t.minus_intersection_matrix()) == 8


def test_fork_json_roundtrip():
    fork = Fork(2, ((2,), (2, 2), (2, 2, 2, 2)))
    assert parse_fork(fork_to_json(fork)) == fork
    # the command line sends only text starting with '{' here
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_fork("[2, 2]")
