from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIELD_BREAKS

from assocarray.values import (
    NUMBER,
    TEXT,
    TOKENS,
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
    assert Value.number(Fraction(4, 2)) == Value.number(2)
    assert Value.number(Fraction(4, 2)).payload == 2
    assert isinstance(Value.number(Fraction(4, 2)).payload, int)


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
    assert Value.text("a\x1fb").payload == "a\x1fb"  # not a line break


def test_text_rejects_a_non_string():
    with pytest.raises(TypeError, match="text payload must be str, got 7"):
        Value.text(7)


def test_repr_shows_kind_and_encoding():
    assert repr(Value.number(Fraction(1, 2))) == "Value(number:1/2)"
    assert repr(Value.tokens(["b", "a"])) == "Value(tokens:{a,b})"


def test_encode_value_refuses_an_unknown_kind():
    # the kind is read off the payload's type, and a float or a bool has none
    for payload in (1.5, True):
        with pytest.raises(ValueError, match=f"no value kind has payload {payload!r}"):
            encode_value(Value(payload))


@pytest.mark.parametrize(
    "a,b,kinds,shown",
    [
        (Value.number(1), Value.text("1"), (NUMBER, TEXT), ("Value(number:1)", "Value(text:1)")),
        (Value.tokens([]), Value.text(""), (TOKENS, TEXT), ("Value(tokens:{})", "Value(text:)")),
        # one encoding, {}, for two values
        (Value.tokens([]), Value.text("{}"), (TOKENS, TEXT), ("Value(tokens:{})", "Value(text:{})")),
    ],
)
def test_look_alike_payloads_of_two_kinds_stay_apart(a, b, kinds, shown):
    assert a != b and b != a
    assert (a.kind, b.kind) == kinds
    assert (repr(a), repr(b)) == shown
    assert len({a: "a", b: "b"}) == 2


def test_tokens_sorted_and_deduplicated():
    v = Value.tokens(["pear", "apple", "pear"])
    assert v.payload == ("apple", "pear")


def test_tokens_reject_separator_characters():
    for bad in ("", "a b", "a,b", "{a", "a}"):
        with pytest.raises(ValueError):
            Value.tokens([bad])


@pytest.mark.parametrize(
    "value,encoded",
    [
        (Value.number(0), "0"),
        (Value.number(-7), "-7"),
        (Value.number(Fraction(1, 3)), "1/3"),
        (Value.number(Fraction(-5, 2)), "-5/2"),
        (Value.tokens([]), "{}"),
        (Value.tokens(["b", "a"]), "{a,b}"),
        (Value.text(""), ""),
        (Value.text("hello"), "hello"),
        (Value(TOP_PAYLOAD), TOP_ENCODING),
    ],
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
    assert decode_any(TOP_ENCODING) == Value(TOP_PAYLOAD)
    with pytest.raises(ValueError):
        decode_any("bad\tvalue")


def test_decode_any_refuses_the_literal_top_payload():
    with pytest.raises(ValueError) as exc_info:
        decode_any(TOP_PAYLOAD)
    assert str(exc_info.value) == "'\\uffff' is not canonical; write it as '<TOP>'"
    assert decode_any(TOP_ENCODING) == Value(TOP_PAYLOAD)


def test_top_sentinel_sorts_above_alphanumerics():
    assert TOP_PAYLOAD > "zzzzzzzz"
    assert TOP_PAYLOAD > "ZZZZZZ99"
