"""Carrier values: tagged payloads with a canonical, machine-stable text form.

Three payload families cover every builtin carrier: exact numbers (ints and
rationals), plain strings, and finite sets of tokens.  The canonical encoding
is what the TSV formats store; it is chosen so that encoding a value and
decoding it back is the identity on every carrier element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

NUMBER = "number"
TEXT = "text"
TOKENS = "tokens"

# Internal payload of the string-carrier top element.  U+FFFF sorts above
# every alphanumeric code point, which is all the string orderings need.
TOP_PAYLOAD = "￿"
TOP_ENCODING = "<TOP>"

_NUMBER_FORM = re.compile(r"-?\d+(?:/\d+)?")
_TOKEN_FORBIDDEN = re.compile(r"[\s,{}]")


def _has_field_break(s: str) -> bool:
    """Whether ``s`` holds a tab or a character ``str.splitlines`` breaks on,
    either of which would split a field of the tab-separated formats."""
    return "\t" in s or "".join(s.splitlines()) != s


@dataclass(frozen=True, slots=True)
class Value:
    """One element of a value set.

    ``kind`` is NUMBER (payload int or Fraction), TEXT (payload str), or
    TOKENS (payload a sorted tuple of distinct token strings).  Equality is
    exact payload equality and is what every zero test reduces to.
    """

    kind: str
    payload: int | Fraction | str | tuple[str, ...]

    @staticmethod
    def number(x: int | Fraction) -> "Value":
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"number payload must be int or Fraction, got {x!r}")
        if isinstance(x, Fraction) and x.denominator == 1:
            x = int(x)
        return Value(NUMBER, x)

    @staticmethod
    def text(s: str) -> "Value":
        if not isinstance(s, str):
            raise TypeError(f"text payload must be str, got {s!r}")
        if _has_field_break(s):
            raise ValueError(f"text payload {s!r} contains a tab or line break")
        return Value(TEXT, s)

    @staticmethod
    def tokens(items: Iterable[str]) -> "Value":
        toks = sorted(set(items))
        for tok in toks:
            if not tok:
                raise ValueError("set tokens must be non-empty strings")
            if _TOKEN_FORBIDDEN.search(tok):
                raise ValueError(
                    f"set token {tok!r} contains whitespace, comma, or brace characters"
                )
        return Value(TOKENS, tuple(toks))

    def __repr__(self) -> str:
        return f"Value({self.kind}:{encode_value(self)})"


def encode_value(v: Value) -> str:
    """Canonical text form: decimal ints, ``p/q`` rationals, ``{a,b}`` sets,
    bare strings, and the reserved ``<TOP>`` sentinel."""
    if v.kind == NUMBER:
        return str(v.payload)
    if v.kind == TEXT:
        return TOP_ENCODING if v.payload == TOP_PAYLOAD else str(v.payload)
    if v.kind == TOKENS:
        return "{" + ",".join(v.payload) + "}"
    raise ValueError(f"unknown value kind {v.kind!r}")


def parse_number(text: str) -> Value:
    """Decode a decimal integer or reduced ``p/q`` rational.

    Raises ValueError on anything else, including a zero denominator and a
    non-canonical spelling such as ``007``, ``-0``, ``4/2`` or ``2/4``.
    """
    if not _NUMBER_FORM.fullmatch(text):
        raise ValueError(f"not a number literal: {text!r}")
    try:
        v = Value.number(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if encode_value(v) != text:
        raise ValueError(f"{text!r} is not canonical; write it as {encode_value(v)!r}")
    return v


def parse_token_set(text: str) -> Value:
    """Decode ``{a,b,c}`` with distinct members in ascending order.

    The empty set is ``{}``.  Whitespace inside the braces is not allowed.
    """
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a token set literal: {text!r}")
    inner = text[1:-1]
    if not inner:
        return Value(TOKENS, ())
    toks = inner.split(",")
    prev = None
    for tok in toks:
        if not tok:
            raise ValueError(f"empty token in set literal {text!r}")
        if _TOKEN_FORBIDDEN.search(tok):
            raise ValueError(f"forbidden character in token {tok!r}")
        if prev is not None and tok <= prev:
            raise ValueError(f"set members must be distinct and ascending in {text!r}")
        prev = tok
    return Value(TOKENS, tuple(toks))


def decode_any(text: str) -> Value:
    """Decode a value of any kind by surface syntax; only canonical text decodes.

    Sets win over numbers over bare strings; ``<TOP>`` names the string-carrier
    top element, and its payload written literally is refused.  This is the
    decoder for finite algebra element names, where the carrier kind is not known.
    """
    if text == TOP_ENCODING:
        return Value(TEXT, TOP_PAYLOAD)
    if text == TOP_PAYLOAD:
        raise ValueError(f"{text!r} is not canonical; write it as {TOP_ENCODING!r}")
    if text.startswith("{"):
        return parse_token_set(text)
    if _NUMBER_FORM.fullmatch(text):
        return parse_number(text)
    return Value.text(text)
