import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from assocarray.algebra import from_finite_spec, make_builtin
from assocarray.array import from_triples, to_triples
from assocarray.fileio import (
    ParseError,
    parse_edge_list,
    parse_finite_algebra,
    parse_set_triples,
    parse_triples,
    serialize_edge_list,
    serialize_finite_algebra,
    serialize_triples,
)
from assocarray.graph import random_graph
from assocarray.values import Value


def test_parse_triples_basic(naturals):
    assert parse_triples("a\tb\t5\n", naturals) == [("a", "b", Value.number(5))]


def test_parse_triples_set_values(powerset_xy):
    assert parse_triples("a\tb\t{x,y}\n", powerset_xy) == [
        ("a", "b", Value.tokens(["x", "y"]))
    ]


def test_parse_triples_keeps_zero_values(naturals):
    triples = parse_triples("a\tb\t0\n", naturals)
    assert triples == [("a", "b", Value.number(0))]
    assert to_triples(from_triples(triples, naturals)) == []


def test_parse_triples_skips_blanks_and_comments(naturals):
    text = "# header\n\na\tb\t1\n   \n# done\n"
    assert parse_triples(text, naturals) == [("a", "b", Value.number(1))]


def test_parse_triples_field_count_diagnostic(naturals):
    with pytest.raises(ParseError) as exc_info:
        parse_triples("a\tb\n", naturals)
    err = exc_info.value
    assert err.line_no == 1
    assert "3 tab-separated fields" in err.message


def test_parse_triples_value_diagnostic_line_number(naturals):
    with pytest.raises(ParseError) as exc_info:
        parse_triples("a\tb\t1\n# fine\nc\td\t-9\n", naturals)
    assert exc_info.value.line_no == 3
    assert exc_info.value.field == "value"


@pytest.mark.parametrize("raw", ["007", "-0", "4/2", "1/1", "2/4"])
def test_parse_triples_rejects_non_canonical_numbers(raw):
    rationals = make_builtin("nonneg_rational_arithmetic")
    with pytest.raises(ParseError) as exc_info:
        parse_triples(f"a\tb\t1\nc\td\t{raw}\n", rationals)
    assert exc_info.value.line_no == 2
    assert exc_info.value.field == "value"
    assert "not canonical" in exc_info.value.message


def test_parse_triples_diagnostics_are_deterministic(naturals):
    bad = "a\tb\t1\nbroken line\n"
    messages = set()
    for _ in range(3):
        with pytest.raises(ParseError) as exc_info:
            parse_triples(bad, naturals)
        messages.add(str(exc_info.value))
    assert len(messages) == 1


def test_serialize_triples_sorted_output(naturals):
    arr = from_triples(
        [("b", "a", Value.number(1)), ("a", "b", Value.number(2))], naturals
    )
    assert serialize_triples(arr) == "a\tb\t2\nb\ta\t1\n"


def test_serialize_empty_array(naturals):
    assert serialize_triples(from_triples([], naturals)) == ""


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=99),
        ),
        max_size=8,
    )
)
def test_triples_roundtrip(raw):
    nat = make_builtin("natural_arithmetic")
    arr = from_triples([(r, c, Value.number(n)) for r, c, n in raw], nat)
    text = serialize_triples(arr)
    assert from_triples(parse_triples(text, nat), nat) == arr
    assert serialize_triples(from_triples(parse_triples(text, nat), nat)) == text


def test_parse_edge_list_defaults_to_one(naturals):
    g = parse_edge_list("k1\ta\tb\n", naturals)
    assert g == (
        type(g[0])(key="k1", sources={"a": naturals.one}, targets={"b": naturals.one}),
    )


def test_parse_edge_list_accumulates_hyperedges(naturals):
    g = parse_edge_list("k1\ta\tc\nk1\tb\tc\n", naturals)
    assert len(g) == 1
    assert g[0].sources == {"a": naturals.one, "b": naturals.one}
    assert g[0].targets == {"c": naturals.one}


def test_parse_edge_list_explicit_weights(integers):
    g = parse_edge_list("k\ta\tb\t2\t-3\n", integers)
    assert g[0].sources == {"a": Value.number(2)}
    assert g[0].targets == {"b": Value.number(-3)}


def test_parse_edge_list_out_weight_only(integers):
    g = parse_edge_list("k\ta\tb\t5\n", integers)
    assert g[0].sources == {"a": Value.number(5)}
    assert g[0].targets == {"b": integers.one}


def test_parse_edge_list_rejects_zero_weight(naturals):
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list("k1\ta\tb\t0\n", naturals)
    assert "zero weight" in exc_info.value.message


@pytest.mark.parametrize(
    "weights", ["007", "2\t-0", "4/2"], ids=["out-007", "in--0", "out-4/2"]
)
def test_parse_edge_list_rejects_non_canonical_numbers(integers, weights):
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list(f"k1\ta\tb\t2\n# fine\nk2\tb\tc\t{weights}\n", integers)
    assert exc_info.value.line_no == 3
    assert "not canonical" in exc_info.value.message


def test_parse_edge_list_rejects_short_lines(naturals):
    with pytest.raises(ParseError):
        parse_edge_list("k1\ta\n", naturals)


def test_parse_edge_list_rejects_conflicting_weights(naturals):
    text = "k\ta\tb\t2\nk\ta\tc\t3\n"
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list(text, naturals)
    assert "conflicting weights" in exc_info.value.message


def test_edge_list_roundtrip_on_random_graphs(naturals):
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(naturals, rng)
        text = serialize_edge_list(g)
        assert parse_edge_list(text, naturals) == g
        assert serialize_edge_list(parse_edge_list(text, naturals)) == text


def test_parse_set_triples_is_universe_free():
    triples = parse_set_triples("d1\td2\t{pear}\n")
    assert triples == [("d1", "d2", Value.tokens(["pear"]))]
    with pytest.raises(ParseError):
        parse_set_triples("d1\td2\t5\n")


BOOL_TEXT = """\
elements: 0,1
zero: 0
one: 1
plus:
0,1
1,1
times:
0,0
0,1
"""


def test_parse_finite_algebra_boolean_table():
    spec = parse_finite_algebra(BOOL_TEXT)
    alg = from_finite_spec(spec, name="bool")
    zero, one = alg.carrier
    assert alg.plus(zero, one) == one
    assert alg.times(zero, one) == zero


def test_parse_finite_algebra_brace_aware_commas():
    text = (
        "elements: {},{x},{x,y},{y}\n"
        "zero: {}\n"
        "one: {x,y}\n"
        "plus:\n"
        "{},{x},{x,y},{y}\n"
        "{x},{x},{x,y},{x,y}\n"
        "{x,y},{x,y},{x,y},{x,y}\n"
        "{y},{x,y},{x,y},{y}\n"
        "times:\n"
        "{},{},{},{}\n"
        "{},{x},{x},{}\n"
        "{},{x},{x,y},{y}\n"
        "{},{},{y},{y}\n"
    )
    spec = parse_finite_algebra(text)
    table_alg = from_finite_spec(spec, name="powerset_table")
    reference = make_builtin("powerset", universe=["x", "y"])
    for a in table_alg.carrier:
        for b in table_alg.carrier:
            assert table_alg.plus(a, b) == reference.plus(a, b)
            assert table_alg.times(a, b) == reference.times(a, b)


def test_parse_finite_algebra_ragged_row_diagnostic():
    text = BOOL_TEXT.replace("1,1", "1")
    with pytest.raises(ParseError) as exc_info:
        parse_finite_algebra(text)
    assert exc_info.value.line_no == 6
    assert "expected 2 entries" in exc_info.value.message


def test_parse_finite_algebra_unknown_identity():
    text = BOOL_TEXT.replace("zero: 0", "zero: q")
    with pytest.raises(ParseError) as exc_info:
        parse_finite_algebra(text)
    assert "not a listed element" in exc_info.value.message


@pytest.mark.parametrize("name", ["00", "-0", "2/4"])
def test_parse_finite_algebra_rejects_non_canonical_element(name):
    text = BOOL_TEXT.replace("elements: 0,1", f"elements: {name},1")
    with pytest.raises(ParseError) as exc_info:
        parse_finite_algebra(text)
    assert exc_info.value.line_no == 1
    assert exc_info.value.field == "element 1"
    assert "not canonical" in exc_info.value.message


def test_parse_finite_algebra_missing_section():
    with pytest.raises(ParseError) as exc_info:
        parse_finite_algebra("elements: 0,1\nzero: 0\none: 1\n")
    assert "missing" in str(exc_info.value)


def test_parse_finite_algebra_unknown_table_cell():
    text = BOOL_TEXT.replace("0,0\n0,1\n", "0,0\n0,7\n")
    with pytest.raises(ParseError) as exc_info:
        parse_finite_algebra(text)
    assert "times cell (2, 2)" in exc_info.value.field


def test_parse_finite_algebra_rejects_trailing_content():
    with pytest.raises(ParseError) as exc_info:
        parse_finite_algebra(BOOL_TEXT + "extra\n")
    assert "unexpected content" in exc_info.value.message


def test_parse_finite_algebra_comments_anywhere():
    commented = BOOL_TEXT.replace("plus:\n", "# or table follows\nplus:\n")
    assert parse_finite_algebra(commented) == parse_finite_algebra(BOOL_TEXT)


def test_finite_algebra_serialize_roundtrip():
    spec = parse_finite_algebra(BOOL_TEXT)
    assert parse_finite_algebra(serialize_finite_algebra(spec)) == spec


def test_fixture_algebras_parse(data_dir):
    for path in sorted(data_dir.glob("*.alg")):
        spec = parse_finite_algebra(path.read_text(encoding="utf-8"), role=str(path))
        from_finite_spec(spec, name=path.stem)
