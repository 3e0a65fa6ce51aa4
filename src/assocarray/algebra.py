"""Pluggable value algebras.

An :class:`Algebra` bundles a carrier of :class:`~assocarray.values.Value`
elements with two binary operations and their designated identity elements
(``zero`` and ``one``).  ``zero`` doubles as the sparsity element: the array
layer stores only values that differ from it.

Carriers come in two shapes.  Finite carriers are enumerated outright and can
be checked exhaustively; infinite ones carry a membership predicate plus a
deterministic sampler.  Builtin families additionally carry hand-verified
classification facts so the compliance checker can report analytically known
failures with exact witnesses instead of hoping a sampler trips over them.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import ConfigurationError, DomainError, ValidationError
from .values import (
    NUMBER,
    TEXT,
    TOKENS,
    TOP_ENCODING,
    TOP_PAYLOAD,
    Value,
    encode_value,
    parse_number,
    parse_token_set,
)

# Check names shared with the criteria module and the CLI report format.
CHECK_IDENTITY = "identity"
CHECK_CRITERION1 = "criterion1"  # no non-trivial additive inverses
CHECK_CRITERION2 = "criterion2"  # zero-product property
CHECK_CRITERION3 = "criterion3"  # zero annihilates

# Universes above this size are not enumerated; the powerset family then
# behaves like an infinite carrier (membership predicate plus sampler).
_POWERSET_ENUMERATION_LIMIT = 12

_ALNUM_RE = re.compile(r"[A-Za-z0-9]*")


@dataclass(frozen=True)
class Algebra:
    """A value set closed under two operations, with designated identities.

    ``plus_op`` and ``times_op`` are total on the carrier and pure.  ``carrier``
    is the finite enumeration or None for infinite families, in which case
    ``sample_op`` must be supplied.  ``decode_op`` turns canonical text into a
    carrier member and raises ValueError on anything else.
    """

    name: str
    zero: Value
    one: Value
    plus_op: Callable[[Value, Value], Value]
    times_op: Callable[[Value, Value], Value]
    contains_op: Callable[[Value], bool]
    decode_op: Callable[[str], Value]
    carrier: tuple[Value, ...] | None = None
    sample_op: Callable[[random.Random], Value] | None = None
    known_failures: Mapping[str, tuple[Value, ...]] = field(default_factory=dict)
    analytically_compliant: bool = False

    @property
    def is_finite(self) -> bool:
        return self.carrier is not None

    def contains(self, v: Value) -> bool:
        return self.contains_op(v)

    def _require_member(self, v: Value) -> None:
        if not self.contains_op(v):
            raise DomainError(f"{encode_value(v)} is not in the carrier of {self.name}")

    def plus(self, a: Value, b: Value) -> Value:
        self._require_member(a)
        self._require_member(b)
        return self.plus_op(a, b)

    def times(self, a: Value, b: Value) -> Value:
        self._require_member(a)
        self._require_member(b)
        return self.times_op(a, b)

    def decode(self, text: str) -> Value:
        return self.decode_op(text)

    def sample(self, rng: random.Random) -> Value:
        if self.carrier is not None:
            return rng.choice(self.carrier)
        if self.sample_op is None:
            raise ConfigurationError(f"algebra {self.name} has no sampler")
        return self.sample_op(rng)

    def sample_nonzero(self, rng: random.Random, max_tries: int = 1000) -> Value:
        if self.carrier is not None:
            nonzero = [v for v in self.carrier if v != self.zero]
            if not nonzero:
                raise ConfigurationError(f"algebra {self.name} has no nonzero elements")
            return rng.choice(nonzero)
        for _ in range(max_tries):
            v = self.sample(rng)
            if v != self.zero:
                return v
        raise ConfigurationError(f"sampler for {self.name} produced only zero values")


@dataclass(frozen=True)
class FiniteAlgebraSpec:
    """Concrete encoding of a finite carrier with operation tables.

    Tables map (left, right) element indices to result indices.  ``validate``
    checks totality, index ranges, distinct elements, and that the designated
    identities are listed; violations name the offending cell.
    """

    elements: tuple[Value, ...]
    zero_index: int
    one_index: int
    plus_table: tuple[tuple[int, ...], ...]
    times_table: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        n = len(self.elements)
        if n == 0:
            raise ValidationError("element list is empty")
        if len(set(self.elements)) != n:
            raise ValidationError("element list has duplicate values")
        encodings = [encode_value(e) for e in self.elements]
        if len(set(encodings)) != n:
            raise ValidationError("element encodings are not distinct")
        for label, idx in (("zero", self.zero_index), ("one", self.one_index)):
            if not 0 <= idx < n:
                raise ValidationError(f"{label} index {idx} out of range for {n} elements")
        for label, table in (("plus", self.plus_table), ("times", self.times_table)):
            if len(table) != n:
                raise ValidationError(f"{label} table has {len(table)} rows, expected {n}")
            for i, row in enumerate(table):
                if len(row) != n:
                    raise ValidationError(
                        f"{label} table row {i} ({encodings[i]}) has {len(row)} cells, expected {n}"
                    )
                for j, cell in enumerate(row):
                    if not 0 <= cell < n:
                        raise ValidationError(
                            f"{label} table cell ({encodings[i]}, {encodings[j]}) "
                            f"has out-of-range result index {cell}"
                        )


def from_finite_spec(spec: FiniteAlgebraSpec, name: str = "finite") -> Algebra:
    """Build a table-lookup algebra from a validated finite spec."""
    spec.validate()
    elements = spec.elements
    index = {v: i for i, v in enumerate(elements)}
    by_encoding = {encode_value(v): v for v in elements}
    plus_table = spec.plus_table
    times_table = spec.times_table

    def plus_op(a: Value, b: Value) -> Value:
        return elements[plus_table[index[a]][index[b]]]

    def times_op(a: Value, b: Value) -> Value:
        return elements[times_table[index[a]][index[b]]]

    def decode_op(text: str) -> Value:
        try:
            return by_encoding[text]
        except KeyError:
            raise ValueError(f"{text!r} does not name an element of {name}") from None

    return Algebra(
        name=name,
        zero=elements[spec.zero_index],
        one=elements[spec.one_index],
        plus_op=plus_op,
        times_op=times_op,
        contains_op=lambda v: v in index,
        decode_op=decode_op,
        carrier=elements,
    )


# --- builtin families -------------------------------------------------------


def _num(v: Value) -> int | Fraction:
    return v.payload  # type: ignore[return-value]


def _decode_numeric(alg_name: str, membership: Callable[[Value], bool]) -> Callable[[str], Value]:
    def decode_op(text: str) -> Value:
        v = parse_number(text)
        if not membership(v):
            raise ValueError(f"{text!r} is not in the carrier of {alg_name}")
        return v

    return decode_op


def _natural() -> Algebra:
    def member(v: Value) -> bool:
        return v.kind == NUMBER and isinstance(v.payload, int) and v.payload >= 0

    name = "natural_arithmetic"
    return Algebra(
        name=name,
        zero=Value.number(0),
        one=Value.number(1),
        plus_op=lambda a, b: Value.number(_num(a) + _num(b)),
        times_op=lambda a, b: Value.number(_num(a) * _num(b)),
        contains_op=member,
        decode_op=_decode_numeric(name, member),
        sample_op=lambda rng: Value.number(rng.randint(0, 20)),
        analytically_compliant=True,
    )


def _nonneg_rational() -> Algebra:
    def member(v: Value) -> bool:
        return v.kind == NUMBER and v.payload >= 0

    name = "nonneg_rational_arithmetic"
    return Algebra(
        name=name,
        zero=Value.number(0),
        one=Value.number(1),
        plus_op=lambda a, b: Value.number(Fraction(_num(a)) + Fraction(_num(b))),
        times_op=lambda a, b: Value.number(Fraction(_num(a)) * Fraction(_num(b))),
        contains_op=member,
        decode_op=_decode_numeric(name, member),
        sample_op=lambda rng: Value.number(Fraction(rng.randint(0, 10), rng.randint(1, 10))),
        analytically_compliant=True,
    )


def _integer_ring() -> Algebra:
    def member(v: Value) -> bool:
        return v.kind == NUMBER and isinstance(v.payload, int)

    name = "integer_ring"
    return Algebra(
        name=name,
        zero=Value.number(0),
        one=Value.number(1),
        plus_op=lambda a, b: Value.number(_num(a) + _num(b)),
        times_op=lambda a, b: Value.number(_num(a) * _num(b)),
        contains_op=member,
        decode_op=_decode_numeric(name, member),
        sample_op=lambda rng: Value.number(rng.randint(-10, 10)),
        # Additive inverses exist: 1 + (-1) = 0.  Products of nonzero integers
        # are nonzero and multiplication by 0 yields 0, so the other checks hold.
        known_failures={CHECK_CRITERION1: (Value.number(1), Value.number(-1))},
    )


def _max_plus_realzero() -> Algebra:
    """Max-plus over the integers with the plain number 0 as the null value.

    Combining is max, scaling is addition.  Designating 0 (rather than a
    bottom element) as the sparsity value breaks the identity law for
    combining, the zero-product property, and annihilation; the designated
    one is 0 as well, since adding 0 is the true scaling identity.
    """

    def member(v: Value) -> bool:
        return v.kind == NUMBER and isinstance(v.payload, int)

    name = "max_plus_realzero"
    return Algebra(
        name=name,
        zero=Value.number(0),
        one=Value.number(0),
        plus_op=lambda a, b: Value.number(max(_num(a), _num(b))),
        times_op=lambda a, b: Value.number(_num(a) + _num(b)),
        contains_op=member,
        decode_op=_decode_numeric(name, member),
        sample_op=lambda rng: Value.number(rng.randint(-10, 10)),
        known_failures={
            CHECK_IDENTITY: (Value.number(-1),),
            CHECK_CRITERION2: (Value.number(5), Value.number(-5)),
            CHECK_CRITERION3: (Value.number(5),),
        },
    )


def _max_min_chain(levels: int) -> Algebra:
    if not isinstance(levels, int) or levels < 2:
        raise ConfigurationError("max_min_chain requires an integer level count >= 2")
    carrier = tuple(Value.number(i) for i in range(levels))
    members = set(carrier)
    name = f"max_min_chain({levels})"

    def decode_op(text: str) -> Value:
        v = parse_number(text)
        if v not in members:
            raise ValueError(f"{text!r} is not a level of {name}")
        return v

    return Algebra(
        name=name,
        zero=carrier[0],
        one=carrier[-1],
        plus_op=lambda a, b: a if _num(a) >= _num(b) else b,
        times_op=lambda a, b: a if _num(a) <= _num(b) else b,
        contains_op=lambda v: v in members,
        decode_op=decode_op,
        carrier=carrier,
    )


def _max_min_strings() -> Algebra:
    """Alphanumeric strings ordered lexicographically, combined by max/min.

    The empty string is the bottom (and the sparsity value); an explicit top
    sentinel is adjoined as the scaling identity because no alphanumeric
    string is maximal.  The sentinel encodes as ``<TOP>``.
    """
    top = Value(TEXT, TOP_PAYLOAD)

    def member(v: Value) -> bool:
        if v.kind != TEXT or not isinstance(v.payload, str):
            return False
        return v.payload == TOP_PAYLOAD or bool(_ALNUM_RE.fullmatch(v.payload))

    def decode_op(text: str) -> Value:
        # digit-only names stay strings here, so no decode_any dispatch
        if text == TOP_ENCODING:
            return top
        if not _ALNUM_RE.fullmatch(text):
            raise ValueError(f"{text!r} is not an alphanumeric string value")
        return Value(TEXT, text)

    def sample_op(rng: random.Random) -> Value:
        r = rng.random()
        if r < 0.05:
            return Value(TEXT, "")
        if r < 0.10:
            return top
        length = rng.randint(1, 6)
        return Value(TEXT, "".join(rng.choice("abcdefghij0123456789") for _ in range(length)))

    return Algebra(
        name="max_min_strings",
        zero=Value(TEXT, ""),
        one=top,
        plus_op=lambda a, b: a if a.payload >= b.payload else b,  # type: ignore[operator]
        times_op=lambda a, b: a if a.payload <= b.payload else b,  # type: ignore[operator]
        contains_op=member,
        decode_op=decode_op,
        sample_op=sample_op,
        analytically_compliant=True,
    )


def _powerset(universe: Sequence[str]) -> Algebra:
    toks = sorted(set(universe))
    for tok in toks:
        Value.tokens([tok])  # charset validation
    universe_set = frozenset(toks)
    name = "powerset({" + ",".join(toks) + "})"

    def member(v: Value) -> bool:
        return v.kind == TOKENS and set(v.payload) <= universe_set

    def decode_op(text: str) -> Value:
        v = parse_token_set(text)
        if not member(v):
            raise ValueError(f"{text!r} has tokens outside the universe of {name}")
        return v

    carrier: tuple[Value, ...] | None = None
    sample_op = None
    if len(toks) <= _POWERSET_ENUMERATION_LIMIT:
        carrier = tuple(
            Value(TOKENS, combo)
            for size in range(len(toks) + 1)
            for combo in itertools.combinations(toks, size)
        )
    else:

        def sample_op(rng: random.Random) -> Value:
            chosen = [t for t in toks if rng.random() < 0.5]
            return Value(TOKENS, tuple(chosen))

    def union(a: Value, b: Value) -> Value:
        if not a.payload:
            return b
        if not b.payload:
            return a
        return Value(TOKENS, tuple(sorted(set(a.payload) | set(b.payload))))

    def intersection(a: Value, b: Value) -> Value:
        common = set(a.payload) & set(b.payload)
        return Value(TOKENS, tuple(sorted(common)))

    return Algebra(
        name=name,
        zero=Value(TOKENS, ()),
        one=Value(TOKENS, tuple(toks)),
        plus_op=union,
        times_op=intersection,
        contains_op=member,
        decode_op=decode_op,
        carrier=carrier,
        sample_op=sample_op,
    )


def _boolean_or_and() -> Algebra:
    zero = Value.number(0)
    one = Value.number(1)
    carrier = (zero, one)

    def decode_op(text: str) -> Value:
        if text == "0":
            return zero
        if text == "1":
            return one
        raise ValueError(f"{text!r} is not a boolean value (0 or 1)")

    return Algebra(
        name="boolean_or_and",
        zero=zero,
        one=one,
        plus_op=lambda a, b: one if (a.payload or b.payload) else zero,
        times_op=lambda a, b: one if (a.payload and b.payload) else zero,
        contains_op=lambda v: v in (zero, one),
        decode_op=decode_op,
        carrier=carrier,
    )


_FAMILIES: dict[str, Callable[..., Algebra]] = {
    "natural_arithmetic": _natural,
    "nonneg_rational_arithmetic": _nonneg_rational,
    "integer_ring": _integer_ring,
    "max_min_chain": _max_min_chain,
    "max_min_strings": _max_min_strings,
    "powerset": _powerset,
    "boolean_or_and": _boolean_or_and,
    "max_plus_realzero": _max_plus_realzero,
}

BUILTIN_FAMILY_NAMES = tuple(sorted(_FAMILIES))


def make_builtin(name: str, **params) -> Algebra:
    """Construct a builtin algebra family member.

    ``max_min_chain`` takes ``levels`` (int >= 2); ``powerset`` takes
    ``universe`` (a sequence of token strings).  The other families take no
    parameters.
    """
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown builtin algebra {name!r}; known families: {', '.join(BUILTIN_FAMILY_NAMES)}"
        ) from None
    if name == "max_min_chain":
        if set(params) != {"levels"}:
            raise ConfigurationError("max_min_chain requires exactly the 'levels' parameter")
        return builder(params["levels"])
    if name == "powerset":
        if set(params) != {"universe"}:
            raise ConfigurationError("powerset requires exactly the 'universe' parameter")
        universe = params["universe"]
        if isinstance(universe, str) or not isinstance(universe, Sequence):
            raise ConfigurationError("powerset universe must be a sequence of token strings")
        return builder(universe)
    if params:
        raise ConfigurationError(f"{name} takes no parameters, got {sorted(params)}")
    return builder()
