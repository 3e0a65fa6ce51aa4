import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assocarray.algebra import FiniteAlgebraSpec, from_finite_spec, make_builtin
from assocarray.array import check_key, from_triples
from assocarray.errors import ValidationError
from assocarray.fileio import (
    ParseError,
    _field,
    _logical_lines,
    _parse_edge_sides,
    _split_top_level_commas,
    parse_edge_list,
    parse_finite_algebra,
    parse_set_triples,
    parse_triples,
    read_text,
    serialize_edge_list,
    serialize_triples,
)
from assocarray.graph import EdgeRecord, _incidence_pair, incidence_arrays
from assocarray.values import Value, encode_value
from conftest import load_algebra_file, random_graph


def serialize_finite_algebra(spec: FiniteAlgebraSpec) -> str:
    """Emit the table format that parse_finite_algebra reads."""
    names = [encode_value(v) for v in spec.elements]
    lines = [
        "elements: " + ",".join(names),
        f"zero: {names[spec.zero_index]}",
        f"one: {names[spec.one_index]}",
    ]
    for which, table in (("plus", spec.plus_table), ("times", spec.times_table)):
        lines.append(f"{which}:")
        lines.extend(",".join(names[cell] for cell in row) for row in table)
    return "\n".join(lines) + "\n"


def test_parse_triples_basic(naturals):
    assert parse_triples("a\tb\t5\n", naturals) == [("a", "b", Value.number(5))]


def test_parse_triples_set_values(powerset_xy):
    assert parse_triples("a\tb\t{x,y}\n", powerset_xy) == [
        ("a", "b", Value.tokens(["x", "y"]))
    ]


def test_parse_triples_keeps_zero_values(naturals):
    triples = parse_triples("a\tb\t0\n", naturals)
    assert triples == [("a", "b", Value.number(0))]
    assert list(from_triples(triples, naturals)) == []


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


@pytest.mark.parametrize(
    "text, line_no, field",
    [
        ("a\tb\t1\nb\t #x\t1\nb\t #x\t1\n", 2, "column key"),
        ("a\tb\t1\n\ta\t1\nb\t\t1\n", 2, "row key"),
        ("a\tb\t1\nb\t\t1\n\ta\t1\n", 2, "column key"),
    ],
)
def test_parse_triples_reports_a_key_fault_on_its_first_line(naturals, text, line_no, field):
    # each distinct key is checked once; a key that fails is never taken as
    # checked, so it fails where it first appears, in either role
    with pytest.raises(ParseError) as exc_info:
        parse_triples(text, naturals)
    assert (exc_info.value.line_no, exc_info.value.field) == (line_no, field)


@pytest.mark.parametrize("raw", ["007", "-0", "4/2", "1/1", "2/4"])
def test_parse_triples_rejects_non_canonical_numbers(raw):
    rationals = make_builtin("nonneg_rational_arithmetic")
    with pytest.raises(ParseError) as exc_info:
        parse_triples(f"a\tb\t1\nc\td\t{raw}\n", rationals)
    assert exc_info.value.line_no == 2
    assert exc_info.value.field == "value"
    assert "not canonical" in exc_info.value.message


def test_parse_triples_decodes_each_distinct_value_text_once(naturals):
    decoded = []

    def counted(text):
        decoded.append(text)
        return naturals.decode_op(text)

    counting = dataclasses.replace(naturals, decode_op=counted)
    triples = parse_triples("a\tb\t1\na\tc\t2\nb\tb\t1\nc\tc\t2\nc\ta\t1\n", counting)
    assert [v for _, _, v in triples] == [1, 2, 1, 2, 1]
    assert decoded == ["1", "2"]
    # a text that fails is never stored, so it fails on the first line holding it
    decoded.clear()
    with pytest.raises(ParseError) as exc_info:
        parse_triples("a\tb\t1\na\tc\t-1\nb\tb\t1\n# skip\nc\tc\t-1\n", counting)
    assert (exc_info.value.line_no, exc_info.value.field) == (2, "value")
    assert decoded == ["1", "-1"]


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


# #-led and space-led keys too: a key either is refused or reads back as is.
triple_key_st = st.sampled_from(["a", "b", "c", "#a", " #b", " c", "c#", " ", "\u3000#"])


@given(
    st.lists(
        st.tuples(
            triple_key_st,
            triple_key_st,
            st.integers(min_value=0, max_value=99),
        ),
        max_size=8,
    )
)
@example([("#a", "b", 1)])
def test_triples_roundtrip(raw):
    nat = make_builtin("natural_arithmetic")
    try:
        arr = from_triples([(r, c, Value.number(n)) for r, c, n in raw], nat)
    except ValidationError:
        return
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
    "alg",
    [make_builtin("max_plus_realzero"), make_builtin("powerset", universe=[])],
    ids=["max_plus_realzero", "empty-powerset"],
)
def test_parse_edge_list_refuses_an_omitted_weight_where_one_is_zero(alg):
    # the default weight is one, which equals zero here; the file wrote no zero
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list("# header\nk1\ta\tb\n", alg)
    err = exc_info.value
    assert (err.line_no, err.field) == (2, "out_value")
    assert "zero weight is forbidden" not in err.message
    assert "omitted" in err.message and "write the weight" in err.message
    assert alg.name in err.message


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


# Lines of 3-5 fields, many of them valid, joined by one of several line
# breaks; st.text() adds arbitrary text, where nearly every draw is an error.
edge_field_st = st.one_of(
    st.sampled_from(["a", "b", "1", "2", "{x}", "{x,y}"]),
    st.sampled_from(["0", "{}", "#", " ", ""]),
    st.text(max_size=3),
)
edge_lines_st = st.lists(
    st.lists(edge_field_st, min_size=3, max_size=5).map("\t".join), max_size=6
)
edge_text_st = st.one_of(
    st.builds(str.join, st.sampled_from(["\n", "\r\n", "\x0b", "\u2028"]), edge_lines_st),
    st.text(max_size=60),
)


@pytest.mark.parametrize(
    "alg",
    [make_builtin("natural_arithmetic"), make_builtin("powerset", universe=["x", "y"])],
    ids=["natural", "powerset"],
)
@settings(max_examples=300, deadline=None)
@given(text=edge_text_st)
def test_parse_edge_list_fails_on_a_line_or_round_trips(alg, text):
    try:
        g = parse_edge_list(text, alg)
    except ParseError as exc:
        assert 1 <= exc.line_no <= max(1, len(text.splitlines()))
        return
    again = parse_edge_list(serialize_edge_list(g), alg)
    assert {e.key: (e.sources, e.targets) for e in again} == {
        e.key: (e.sources, e.targets) for e in g
    }


def edge_list_st(weights):
    """Edge lists over a few keys and vertices, so that most draws parse;
    repeated keys make hyperedges, and a repeated endpoint may conflict."""
    line_st = st.tuples(
        st.sampled_from(["k1", "k2", "k3"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        st.lists(st.sampled_from(weights), max_size=2),
    ).map(lambda t: "\t".join((*t[:3], *t[3])))
    return st.lists(line_st, max_size=8).map("\n".join)


@pytest.mark.parametrize(
    "alg, text_st",
    [
        (make_builtin("natural_arithmetic"), edge_list_st(["1", "2", "0"])),
        (make_builtin("powerset", universe=["x", "y"]), edge_list_st(["{x}", "{x,y}", "{}"])),
        (make_builtin("natural_arithmetic"), edge_text_st),
        (make_builtin("integer_ring"), edge_list_st(["1", "-1", "2", "0"])),
        (make_builtin("max_plus_realzero"), edge_list_st(["1", "-2", "0"])),
        (make_builtin("max_min_strings"), edge_list_st(["a", "b1", "<TOP>", ""])),
        (load_algebra_file("annihilator_right"), edge_list_st(["1", "v", "0"])),
    ],
    ids=[
        "natural", "powerset", "natural-fuzz",
        "integer_ring", "max_plus_realzero", "max_min_strings", "annihilator_right",
    ],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_parsed_edge_list_is_a_valid_graph_with_the_parsed_rows(alg, text_st, data):
    # parse_edge_list enforces every rule incidence_arrays checks, so the
    # checked graph's rows are exactly the parsed per-edge maps, and the CLI's
    # unchecked build from the parse's side maps gives the same pair, equal to
    # the triples construction in entries, iteration order and key sets.
    text = data.draw(text_st)
    try:
        g = parse_edge_list(text, alg)
    except ParseError:
        return
    p = incidence_arrays(g, alg)
    assert p.e_out.rows == {e.key: e.sources for e in g}
    assert p.e_in.rows == {e.key: e.targets for e in g}
    fast = _incidence_pair(*_parse_edge_sides(text, alg, role="edge-list"))
    assert fast == p
    for arr, checked, side in ((fast.e_out, p.e_out, "sources"), (fast.e_in, p.e_in, "targets")):
        ref = from_triples([(e.key, v, w) for e in g for v, w in getattr(e, side).items()], alg)
        assert list(arr) == list(checked) == list(ref)
        assert (arr.row_keys, arr.col_keys) == (ref.row_keys, ref.col_keys)


def _parse_edge_list_unmemoized(text, alg, role="edge-list"):
    # the parse loop as it was before its per-parse memos: every key and
    # weight text is checked or decoded again on every line.  The reference.
    sources, targets = {}, {}
    for line_no, line in _logical_lines(text):
        fields = line.split("\t")
        if not 3 <= len(fields) <= 5:
            raise ParseError(
                role, line_no, "line",
                f"expected 3 to 5 tab-separated fields, got {len(fields)}",
            )
        key = _field(role, line_no, "edge key", check_key, fields[0])
        src = _field(role, line_no, "source vertex", check_key, fields[1])
        dst = _field(role, line_no, "target vertex", check_key, fields[2])
        weights = []
        for label, raw in (("out_value", fields[3:4]), ("in_value", fields[4:5])):
            w = _field(role, line_no, label, alg.decode_op, raw[0]) if raw else alg.one
            if w == alg.zero:
                raise ParseError(role, line_no, label, "zero weight is forbidden" if raw else (
                    f"weight omitted, and its default one equals zero in {alg.name}; "
                    "write the weight"
                ))
            weights.append(w)
        out_w, in_w = weights
        for side, vertex, w, label in (
            (sources.setdefault(key, {}), src, out_w, "source"),
            (targets.setdefault(key, {}), dst, in_w, "target"),
        ):
            if vertex in side and side[vertex] != w:
                raise ParseError(
                    role, line_no, f"{label} vertex {vertex!r}",
                    f"conflicting weights {encode_value(side[vertex])} and {encode_value(w)}",
                )
            side[vertex] = w
    return tuple(EdgeRecord(key=k, sources=side, targets=targets[k]) for k, side in sources.items())


def _parse_outcome(parse, text, alg):
    try:
        return parse(text, alg)
    except ParseError as exc:
        return (exc.line_no, exc.field, exc.message)


MEMO_CASES = [
    ("natural", make_builtin("natural_arithmetic"), ["1", "2", "0", "007", "20"]),
    ("powerset", make_builtin("powerset", universe=["x", "y"]), ["{x}", "{x,y}", "{}", "{z}"]),
    ("max_min_strings", make_builtin("max_min_strings"), ["a", "b1", "<TOP>", "", "a b"]),
    ("max_plus_realzero", make_builtin("max_plus_realzero"), ["1", "-2", "0", "-0"]),
]


@pytest.mark.parametrize(
    "alg, text_st",
    [
        param
        for _, alg, weights in MEMO_CASES
        for param in ((alg, edge_text_st), (alg, edge_list_st(weights)))
    ],
    ids=[f"{name}-{kind}" for name, _, _ in MEMO_CASES for kind in ("fuzz", "edges")],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_edge_list_matches_the_unmemoized_loop(alg, text_st, data):
    text = data.draw(text_st)
    assert _parse_outcome(parse_edge_list, text, alg) == _parse_outcome(
        _parse_edge_list_unmemoized, text, alg
    )


def test_parse_edge_list_reports_a_repeated_bad_text_on_its_first_line(naturals):
    # "0" passes as a vertex key on line 1; as a weight it is refused, and
    # neither a passing key nor a failing weight carries over between the two
    text = "k1\t0\tb\t2\nk2\tb\tc\t2\t0\nk3\tc\td\t0\n"
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list(text, naturals)
    err = exc_info.value
    assert (err.line_no, err.field, err.message) == (2, "in_value", "zero weight is forbidden")
    text = "k1\ta\tb\t2\nk2\tb\tc\t007\nk3\tc\td\t007\n"
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list(text, naturals)
    assert (exc_info.value.line_no, exc_info.value.field) == (2, "out_value")


def test_parse_edge_list_refuses_an_omitted_weight_after_an_explicit_one(max_plus):
    text = "k1\ta\tb\t1\t2\nk2\tb\tc\t1\n"
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list(text, max_plus)
    err = exc_info.value
    assert (err.line_no, err.field) == (2, "in_value")
    assert "omitted" in err.message


def test_parse_edge_list_catches_a_conflict_between_memoized_weights(naturals):
    g = parse_edge_list("k1\ta\tb\t2\t3\nk2\tc\td\t3\t2\n", naturals)
    assert g[0].sources["a"] is g[1].targets["d"]  # equal texts share one value
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list("k1\ta\tb\t2\t3\nk2\tc\td\t3\t2\nk1\ta\tc\t3\t2\n", naturals)
    err = exc_info.value
    assert (err.line_no, err.field, err.message) == (
        3, "source vertex 'a'", "conflicting weights 2 and 3"
    )


def test_parse_set_triples_is_universe_free():
    triples = parse_set_triples("d1\td2\t{pear}\n")
    assert triples == [("d1", "d2", Value.tokens(["pear"]))]
    with pytest.raises(ParseError):
        parse_set_triples("d1\td2\t5\n")


# Valid triple lines with at most one junk line among them, joined by one of
# several line breaks; st.text() adds arbitrary text.
set_field_st = st.one_of(
    st.sampled_from(["d1", "{x}", "{y,x}", "{x,x}", "{x,}", "x", "#", " ", ""]),
    st.text(max_size=3),
)
set_line_st = st.tuples(
    st.sampled_from(["d1", "d2", "d3"]),
    st.sampled_from(["d1", "d2", "d3"]),
    st.sampled_from(["{x}", "{y}", "{x,y}", "{}"]),
).map("\t".join)


@st.composite
def set_lines_st(draw):
    lines = draw(st.lists(set_line_st, max_size=5))
    if draw(st.booleans()):
        junk = draw(st.lists(set_field_st, min_size=2, max_size=4).map("\t".join))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return draw(st.sampled_from(["\n", "\r", "\r\n", "\x0c", "\u2029"])).join(lines)


set_text_st = st.one_of(set_lines_st(), st.text(max_size=60))


@settings(max_examples=200, deadline=None)
@given(text=set_text_st)
def test_parse_set_triples_fails_on_a_line_or_round_trips(text):
    try:
        triples = parse_set_triples(text)
    except ParseError as exc:
        assert 1 <= exc.line_no <= len(text.splitlines()) + 1
        return
    tokens = sorted({t for _, _, v in triples for t in v})
    alg = make_builtin("powerset", universe=tokens)
    arr = from_triples(triples, alg)
    again = serialize_triples(arr)
    assert from_triples(parse_set_triples(again), alg) == arr
    assert serialize_triples(from_triples(parse_set_triples(again), alg)) == again


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


POWERSET_TEXT = (
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


def test_parse_finite_algebra_brace_aware_commas():
    spec = parse_finite_algebra(POWERSET_TEXT)
    table_alg = from_finite_spec(spec, name="powerset_table")
    reference = make_builtin("powerset", universe=["x", "y"])
    for a in table_alg.carrier:
        for b in table_alg.carrier:
            assert table_alg.plus(a, b) == reference.plus(a, b)
            assert table_alg.times(a, b) == reference.times(a, b)


def test_parse_finite_algebra_names_an_unknown_token_set_cell():
    text = POWERSET_TEXT.replace("{x},{x},{x,y},{x,y}\n", "{x},{x,z},{x,y},{x,y}\n")
    with pytest.raises(ParseError) as exc_info:
        parse_finite_algebra(text)
    assert str(exc_info.value) == (
        "algebra, line 6, plus cell (2, 2): '{x,z}' is not a listed element"
    )


def _walk_top_level_commas(text: str) -> list[str]:
    # the per-character walker the parser once used: the reference
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        current.append(ch)
    parts.append("".join(current))
    return parts


@given(st.text(alphabet=",{}ab \t"))
# a lone "}" drives the depth negative, so its pieces are still rejoined
@example("a},b")
@example("}a,b")
@example("{a},b")
@example("a,b")
def test_split_top_level_commas_matches_the_character_walker(text):
    assert _split_top_level_commas(text) == _walk_top_level_commas(text)


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


@pytest.mark.parametrize("name", ["00", "-0", "2/4", "\uffff"])
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


def test_parse_finite_algebra_wants_table_rows_on_their_own_lines():
    with pytest.raises(ParseError) as exc_info:
        parse_finite_algebra(BOOL_TEXT.replace("times:\n", "times: 0,0\n"))
    assert str(exc_info.value) == (
        "algebra, line 7, times: table rows must start on the next line"
    )


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


# Tables over listed names, one of which may be junk, then at most one cell
# replaced and at most one line dropped, doubled or preceded by a comment;
# st.text() adds arbitrary text.
alg_junk_st = st.one_of(
    st.sampled_from(["0", "a", "{x}", "00", "2/4", " ", ""]), st.text(max_size=3)
)


@st.composite
def alg_text_st(draw):
    names = draw(st.lists(
        st.sampled_from(["0", "1", "a", "{x}", "{}", "<TOP>"]), min_size=1, max_size=3, unique=True
    ))
    if draw(st.booleans()):
        names[draw(st.integers(0, len(names) - 1))] = draw(alg_junk_st)
    cell_st = st.sampled_from(names)

    def rows():
        return [",".join(draw(st.lists(cell_st, min_size=len(names), max_size=len(names))))
                for _ in names]

    lines = ["elements: " + ",".join(names)]
    lines += [f"{which}: {draw(cell_st)}" for which in ("zero", "one")]
    lines += ["plus:", *rows(), "times:", *rows()]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(alg_junk_st)
        lines[i] = ",".join(cells)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2, ["# note", lines[i]]]))
    return draw(st.sampled_from(["\n", "\r", "\r\n", "\x1e", "\x85"])).join(lines)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(alg_text_st(), st.text(max_size=80)))
def test_parse_finite_algebra_fails_on_a_line_or_round_trips(text):
    try:
        spec = parse_finite_algebra(text)
    except ParseError as exc:
        assert 1 <= exc.line_no <= len(text.splitlines()) + 1
        return
    again = serialize_finite_algebra(spec)
    assert parse_finite_algebra(again) == spec
    assert serialize_finite_algebra(parse_finite_algebra(again)) == again


@pytest.mark.parametrize("brk", [b"\n", b"\r", b"\r\n", b"\x0b", "\u2028".encode()])
def test_read_text_numbers_a_bad_byte_as_the_parsers_do(tmp_path, brk):
    path = tmp_path / "bad.edges"
    path.write_bytes(brk.join([b"k1\ta\tb", b"k2\tb\tc", b"k3\tc\t\xffd", b""]))
    with pytest.raises(ParseError) as exc_info:
        read_text(str(path))
    assert exc_info.value.line_no == 3
    assert "not valid UTF-8" in exc_info.value.message
