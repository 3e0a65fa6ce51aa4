"""Carrier values: plain payloads with a canonical, machine-stable text form.

A carrier element is its payload: an exact number (an ``int``, or a
``Fraction`` that is not whole), a ``str``, or a token set (a sorted tuple of
distinct token strings), whose types keep ``1``, ``"1"``, ``()`` and ``""``
apart.  The canonical encoding is what the TSV formats store; encoding a value
and decoding it back is the identity on every carrier element.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

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


def _lift_number(x: int | Fraction) -> int | Fraction:
    # Value.number less the type checks a native passes; a whole rational lifts to its int
    if type(x) is not int and x.denominator == 1:
        return x.numerator
    return x


class Value:
    """Checked constructors of carrier elements, each returning the payload.

    As an annotation, ``Value`` names any carrier element: an ``int`` or a
    non-whole ``Fraction``, a ``str``, or a sorted tuple of distinct tokens.
    Equality is plain payload equality and is what every zero test reduces to.
    """

    @staticmethod
    def number(x: int | Fraction) -> int | Fraction:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"number payload must be int or Fraction, got {x!r}")
        return _lift_number(x)

    @staticmethod
    def text(s: str) -> str:
        if not isinstance(s, str):
            raise TypeError(f"text payload must be str, got {s!r}")
        if _has_field_break(s):
            raise ValueError(f"text payload {s!r} contains a tab or line break")
        return s

    @staticmethod
    def tokens(items: Iterable[str]) -> tuple[str, ...]:
        toks = sorted(set(items))
        for tok in toks:
            if not tok:
                raise ValueError("set tokens must be non-empty strings")
            if _TOKEN_FORBIDDEN.search(tok):
                raise ValueError(
                    f"set token {tok!r} contains whitespace, comma, or brace characters"
                )
        return tuple(toks)


def encode_value(v: Value) -> str:
    """Canonical text form: decimal ints, ``p/q`` rationals, ``{a,b}`` sets,
    bare strings, and the reserved ``<TOP>`` sentinel."""
    t = type(v)
    if t is int or t is Fraction:
        return str(v)
    if t is str:
        return TOP_ENCODING if v == TOP_PAYLOAD else v
    if t is tuple:
        return "{" + ",".join(v) + "}"
    raise ValueError(f"no value kind has payload {v!r}")


def parse_number(text: str) -> Value:
    """Decode a decimal integer or reduced ``p/q`` rational.

    Raises ValueError on anything else, including a zero denominator and a
    non-canonical spelling such as ``007``, ``-0``, ``4/2`` or ``2/4``.
    """
    if not _NUMBER_FORM.fullmatch(text):
        raise ValueError(f"not a number literal: {text!r}")
    try:
        v = Value.number(Fraction(text) if "/" in text else int(text))
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
        return ()
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
    return tuple(toks)


def decode_any(text: str) -> Value:
    """Decode a value of any kind by surface syntax; only canonical text decodes.

    Sets win over numbers over bare strings; ``<TOP>`` names the string-carrier
    top element, and its payload written literally is refused.  This is the
    decoder for finite algebra element names, where the carrier kind is not known.
    """
    if text == TOP_ENCODING:
        return TOP_PAYLOAD
    if text == TOP_PAYLOAD:
        raise ValueError(f"{text!r} is not canonical; write it as {TOP_ENCODING!r}")
    if text.startswith("{"):
        return parse_token_set(text)
    if _NUMBER_FORM.fullmatch(text):
        return parse_number(text)
    return Value.text(text)
