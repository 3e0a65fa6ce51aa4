from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIELD_BREAKS

from assocarray import (
    ValidationError,
    from_finite_spec,
    from_triples,
    make_builtin,
    serialize_triples,
)
from assocarray.algebra import FiniteAlgebraSpec
from assocarray.values import (
    TOP_ENCODING,
    TOP_PAYLOAD,
    Value,
    decode_any,
    encode_value,
    parse_number,
    parse_token_set,
)

tokens_st = st.lists(
    st.text(alphabet="abcdefgh0123456789_", min_size=1, max_size=5),
    max_size=5,
)


def test_number_normalizes_whole_fractions():
    assert Value.number(Fraction(4, 2)) == 2
    assert type(Value.number(Fraction(4, 2))) is int


def test_number_rejects_bool_and_float():
    with pytest.raises(TypeError):
        Value.number(True)
    with pytest.raises(TypeError):
        Value.number(1.5)


def test_text_rejects_tabs_and_newlines():
    for ch in FIELD_BREAKS:
        for bad in (f"a{ch}b", ch, f"a{ch}"):
            with pytest.raises(ValueError):
                Value.text(bad)
        with pytest.raises(ValueError):
            decode_any(f"a{ch}b")
    assert Value.text("a\x1fb") == "a\x1fb"  # not a line break


def test_text_rejects_a_non_string():
    with pytest.raises(TypeError, match="text payload must be str, got 7"):
        Value.text(7)


def test_encode_value_refuses_an_unknown_kind():
    # the kind is read off the value's type, and a float or a bool has none
    for payload in (1.5, True):
        with pytest.raises(ValueError, match=f"no value kind has payload {payload!r}"):
            encode_value(payload)


@pytest.mark.parametrize(
    "a,b,kinds,shown",
    [
        (Value.number(1), Value.text("1"), (int, str), ("1", "1")),
        (Value.tokens([]), Value.text(""), (tuple, str), ("{}", "")),
        # one encoding, {}, for two values
        (Value.tokens([]), Value.text("{}"), (tuple, str), ("{}", "{}")),
    ],
    ids=[f"a{i}-b{i}-kinds{i}-shown{i}" for i in range(3)],  # by position: "" makes a blank id
)
def test_look_alike_payloads_of_two_kinds_stay_apart(a, b, kinds, shown):
    # the type is the kind, and it keeps values apart where encodings do not
    assert (type(a), type(b)) == kinds
    assert (encode_value(a), encode_value(b)) == shown
    assert a != b and b != a
    assert len({a: "a", b: "b"}) == 2


# True, 1.0 and a whole Fraction equal 1 and hash alike, so a dict lookup
# alone lets them pass as the element 1; every carrier refuses them, table
# carriers included.
_BIT_TABLE = FiniteAlgebraSpec(
    elements=(0, 1), zero_index=0, one_index=1,
    plus_table=((0, 1), (1, 0)), times_table=((0, 0), (0, 1)),
)


@pytest.mark.parametrize(
    "look_alike", [True, 1.0, Fraction(1)], ids=["bool", "float", "whole_fraction"]
)
@pytest.mark.parametrize(
    "alg",
    [
        make_builtin("natural_arithmetic"),
        make_builtin("nonneg_rational_arithmetic"),
        make_builtin("max_min_chain", levels=3),
        make_builtin("boolean_or_and"),
        from_finite_spec(_BIT_TABLE, name="bit_table"),
    ],
    ids=lambda alg: alg.name,
)
def test_look_alikes_of_a_number_are_not_members(alg, look_alike):
    assert serialize_triples(from_triples([("r", "c", 1)], alg)) == "r\tc\t1\n"
    assert look_alike == 1 and hash(look_alike) == hash(1)
    assert not alg.contains(look_alike)
    with pytest.raises(ValidationError, match="outside the carrier"):
        from_triples([("r", "c", look_alike)], alg)
    assert not alg.contains([1])  # unhashable: False, not a TypeError


def test_tokens_sorted_and_deduplicated():
    assert Value.tokens(["pear", "apple", "pear"]) == ("apple", "pear")


def test_tokens_reject_separator_characters():
    for bad in ("", "a b", "a,b", "{a", "a}"):
        with pytest.raises(ValueError):
            Value.tokens([bad])


ENCODE_EXAMPLES = [
    (Value.number(0), "0"),
    (Value.number(-7), "-7"),
    (Value.number(Fraction(1, 3)), "1/3"),
    (Value.number(Fraction(-5, 2)), "-5/2"),
    (Value.tokens([]), "{}"),
    (Value.tokens(["b", "a"]), "{a,b}"),
    (Value.text(""), ""),
    (Value.text("hello"), "hello"),
    (TOP_PAYLOAD, TOP_ENCODING),
]


# Cases are named by position: a value's own text can be blank or U+FFFF.
@pytest.mark.parametrize(
    "value,encoded",
    ENCODE_EXAMPLES,
    ids=[f"value{i}-{encoded}" for i, (_, encoded) in enumerate(ENCODE_EXAMPLES)],
)
def test_encode_examples(value, encoded):
    assert encode_value(value) == encoded


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_integer_encode_decode_roundtrip(n):
    v = Value.number(n)
    assert parse_number(encode_value(v)) == v


@given(
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=1, max_value=100),
)
def test_fraction_encode_decode_roundtrip(num, den):
    v = Value.number(Fraction(num, den))
    assert parse_number(encode_value(v)) == v


@given(tokens_st)
def test_token_set_encode_decode_roundtrip(items):
    v = Value.tokens(items)
    assert parse_token_set(encode_value(v)) == v


def test_parse_number_rejects_garbage():
    for bad in ("", "x", "1.5", "1/0", "1/", "/2", "--3", "1 "):
        with pytest.raises(ValueError):
            parse_number(bad)


def _fraction_message(text):
    try:
        Fraction(text)
    except ValueError as exc:
        return str(exc)


LONG_LITERAL = "1" + "0" * 4999
# Past Python's digit limit, where it has one, int and Fraction refuse a
# literal with the same message.
LONG_MESSAGE = _fraction_message(LONG_LITERAL)


@pytest.mark.parametrize(
    "text,result,message",
    [
        ("0", 0, None),
        ("-5", -5, None),
        ("007", None, "'007' is not canonical; write it as '7'"),
        ("-0", None, "'-0' is not canonical; write it as '0'"),
        ("\u0663", None, "'\u0663' is not canonical; write it as '3'"),  # ARABIC-INDIC DIGIT THREE
        ("1/2", Fraction(1, 2), None),
        ("2/4", None, "'2/4' is not canonical; write it as '1/2'"),
        ("4/2", None, "'4/2' is not canonical; write it as '2'"),
        ("1/0", None, "zero denominator in '1/0'"),
        (LONG_LITERAL, None if LONG_MESSAGE else 10**4999, LONG_MESSAGE),
    ],
    ids=["0", "-5", "007", "-0", "arabic-indic-3", "1/2", "2/4", "4/2", "1/0", "5000-digits"],
)
def test_parse_number_results_and_messages(text, result, message):
    # an integer literal decodes by int, a p/q literal by Fraction
    if message is None:
        got = parse_number(text)
        assert got == result and type(got) is type(result)
    else:
        with pytest.raises(ValueError) as exc:
            parse_number(text)
        assert str(exc.value) == message


def test_parse_token_set_requires_canonical_form():
    assert parse_token_set("{}") == Value.tokens([])
    assert parse_token_set("{a,b}") == Value.tokens(["a", "b"])
    for bad in ("x", "{b,a}", "{a,a}", "{a, b}", "{a", "a}", "{,}"):
        with pytest.raises(ValueError):
            parse_token_set(bad)


def test_decode_any_dispatch():
    assert decode_any("42") == Value.number(42)
    assert decode_any("3/4") == Value.number(Fraction(3, 4))
    assert decode_any("{a}") == Value.tokens(["a"])
    assert decode_any("word") == Value.text("word")
    assert decode_any(TOP_ENCODING) == TOP_PAYLOAD
    with pytest.raises(ValueError):
        decode_any("bad\tvalue")


def test_decode_any_refuses_the_literal_top_payload():
    with pytest.raises(ValueError) as exc_info:
        decode_any(TOP_PAYLOAD)
    assert str(exc_info.value) == "'\\uffff' is not canonical; write it as '<TOP>'"
    assert decode_any(TOP_ENCODING) == TOP_PAYLOAD


def test_top_sentinel_sorts_above_alphanumerics():
    assert TOP_PAYLOAD > "zzzzzzzz"
    assert TOP_PAYLOAD > "ZZZZZZ99"
