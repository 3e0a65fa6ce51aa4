"""Pluggable value algebras.

An :class:`Algebra` bundles a carrier of plain values (see
:mod:`~assocarray.values`) with two binary operations and their designated
identity elements (``zero`` and ``one``).  ``zero`` doubles as the sparsity
element: the array layer stores only values that differ from it.  A number,
chain or string element is its own native, so those operations act on the
stored values; a powerset or table algebra encodes its carrier natively.

Carriers come in two shapes.  Finite carriers are enumerated outright and can
be checked exhaustively; infinite ones carry a membership predicate plus a
deterministic sampler.  Builtin families also state their laws once: the
checks their operations prove in closed form, and the checks they fail with
an exact witness, so no reader has to hope a sampler trips over either.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import ConfigurationError, DomainError, ValidationError
from .values import (
    TOP_ENCODING,
    TOP_PAYLOAD,
    Value,
    _lift_number,
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

# The largest max_min_chain carrier, the size of the largest enumerated
# powerset carrier; a longer chain is refused before any level is built.
_MAX_CHAIN_LEVELS = 2**_POWERSET_ENUMERATION_LIMIT

_ALNUM_RE = re.compile(r"[A-Za-z0-9]*")

_Member = Callable[[Value], bool]


def _same(x):
    return x


@dataclass(frozen=True)
class Algebra:
    """A value set closed under two operations, with designated identities.

    ``plus_op`` and ``times_op`` are total on the carrier and pure, and they
    act on its natives: ``lower`` maps a carrier member to its native and
    ``lift`` maps a native back.  The encoding is injective and natives are
    hashable, so the product and the law checks compare natives alone.  The
    builtin natives are:

    - the value itself for the number families, the chain levels and
      ``max_min_strings``, where ``lift`` is the identity except that
      ``nonneg_rational_arithmetic`` turns a whole rational into its ``int``;
    - a bitmask over the sorted universe for ``powerset``;
    - the element index for a table algebra from :func:`from_finite_spec`.

    Both default to the identity, so an algebra built in code may give
    operations on values.  :meth:`plus` and :meth:`times` are the checked
    operations on values.

    ``carrier`` is the finite enumeration or None for infinite families, in
    which case ``sample_op`` must be supplied.  ``decode_op`` turns canonical
    text into a carrier member and raises ValueError on anything else.

    ``proved`` names the checks that hold in closed form.  Like
    ``known_failures``, which maps each failing check to a witness,
    ``times_commutes``, set when ``times_op(x, y) == times_op(y, x)`` on all
    natives, and ``plus_semigroup``, True when ``plus_op`` is commutative and
    associative on all natives and False when it is not to be relied on, it
    describes ``plus_op`` and ``times_op``: a ``dataclasses.replace`` that
    changes either operation must restate all four, and must keep ``lower``
    and ``lift`` the encoding its operations take.  Tables leave
    ``times_commutes`` False and ``plus_semigroup`` None, unstated, so the
    product may scan their plus.
    """

    name: str
    zero: Value
    one: Value
    plus_op: Callable[[object, object], object]
    times_op: Callable[[object, object], object]
    contains_op: Callable[[Value], bool]
    decode_op: Callable[[str], Value]
    carrier: tuple[Value, ...] | None = None
    sample_op: Callable[[random.Random], Value] | None = None
    known_failures: Mapping[str, tuple[Value, ...]] = field(default_factory=dict)
    proved: frozenset[str] = frozenset()
    times_commutes: bool = False
    plus_semigroup: bool | None = None
    lower: Callable[[Value], object] = _same
    lift: Callable[[object], Value] = _same

    @property
    def is_finite(self) -> bool:
        return self.carrier is not None

    def contains(self, v: Value) -> bool:
        return self.contains_op(v)

    def _require_member(self, v: Value) -> None:
        if not self.contains_op(v):
            raise DomainError(f"{v!r} is not in the carrier of {self.name}")

    def plus(self, a: Value, b: Value) -> Value:
        self._require_member(a)
        self._require_member(b)
        return self.lift(self.plus_op(self.lower(a), self.lower(b)))

    def times(self, a: Value, b: Value) -> Value:
        self._require_member(a)
        self._require_member(b)
        return self.lift(self.times_op(self.lower(a), self.lower(b)))

    def decode(self, text: str) -> Value:
        return self.decode_op(text)

    def sample(self, rng: random.Random) -> Value:
        if self.carrier is not None:
            return rng.choice(self.carrier)
        if self.sample_op is None:
            raise ConfigurationError(f"algebra {self.name} has no sampler")
        return self.sample_op(rng)

    def sample_nonzero(self, rng: random.Random) -> Value:
        if self.carrier is not None:
            nonzero = [v for v in self.carrier if v != self.zero]
            if not nonzero:
                raise ConfigurationError(f"algebra {self.name} has no nonzero elements")
            return rng.choice(nonzero)
        for _ in range(1000):
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
    """Build a table-lookup algebra from a validated finite spec.

    Its natives are element indices, so each operation is one table cell.
    """
    spec.validate()
    elements = spec.elements
    index = {v: i for i, v in enumerate(elements)}
    by_encoding = {encode_value(v): v for v in elements}
    plus_table = spec.plus_table
    times_table = spec.times_table

    def contains_op(v: Value) -> bool:
        # True == 1 and 1.0 == 1 hash alike, so the matched element's type must be v's
        try:
            return type(elements[index[v]]) is type(v)
        except (KeyError, TypeError):
            return False

    def decode_op(text: str) -> Value:
        try:
            return by_encoding[text]
        except KeyError:
            raise ValueError(f"{text!r} does not name an element of {name}") from None

    return Algebra(
        name=name,
        zero=elements[spec.zero_index],
        one=elements[spec.one_index],
        plus_op=lambda i, j: plus_table[i][j],
        times_op=lambda i, j: times_table[i][j],
        contains_op=contains_op,
        decode_op=decode_op,
        carrier=elements,
        lower=index.__getitem__,
        lift=elements.__getitem__,
    )


# --- builtin families -------------------------------------------------------


# Max and min are written out: the builtins cost three times as much per call.
def _max(a, b):
    return a if a >= b else b


def _min(a, b):
    return a if a <= b else b


def _decoder(parse: Callable[[str], Value], member: _Member, reason: str) -> Callable[[str], Value]:
    """A ``decode_op`` that parses, then refuses a non-member as ``'text' reason``."""

    def decode_op(text: str) -> Value:
        v = parse(text)
        if not member(v):
            raise ValueError(f"{text!r} {reason}")
        return v

    return decode_op


def _numbers(
    name: str, member: _Member, one: int, ops: tuple[Callable, Callable], draw, **laws
) -> Algebra:
    """A number family: zero 0, number-literal text, ``draw`` lifted to a sampler,
    and ``ops`` on the numbers themselves."""
    return Algebra(
        name=name, zero=0, one=one,
        plus_op=ops[0], times_op=ops[1], contains_op=member,
        decode_op=_decoder(parse_number, member, f"is not in the carrier of {name}"),
        sample_op=lambda rng: Value.number(draw(rng)),
        times_commutes=True, plus_semigroup=True,  # times * or +, plus + or max
        **laws,
    )


def _natural() -> Algebra:
    return _numbers(
        "natural_arithmetic", lambda v: type(v) is int and v >= 0,
        one=1, ops=(operator.add, operator.mul), draw=lambda rng: rng.randint(0, 20),
        proved=frozenset({
            CHECK_IDENTITY,  # 0 + x = x and 1 * x = x
            CHECK_CRITERION1,  # a + b > 0 when a > 0 and b >= 0
            CHECK_CRITERION2,  # a product of positive integers is positive
            CHECK_CRITERION3,  # 0 * x = 0
        }),
    )


def _nonneg_rational() -> Algebra:
    return _numbers(
        "nonneg_rational_arithmetic",
        lambda v: (type(v) is int or type(v) is Fraction and v.denominator != 1) and v >= 0,
        one=1, ops=(operator.add, operator.mul),
        draw=lambda rng: Fraction(rng.randint(0, 10), rng.randint(1, 10)),
        lift=_lift_number,  # the other number families are closed on int
        proved=frozenset({
            CHECK_IDENTITY,  # 0 + x = x and 1 * x = x
            CHECK_CRITERION1,  # a + b > 0 when a > 0 and b >= 0
            CHECK_CRITERION2,  # a product of positive rationals is positive
            CHECK_CRITERION3,  # 0 * x = 0
        }),
    )


def _integer_ring() -> Algebra:
    return _numbers(
        "integer_ring", lambda v: type(v) is int,
        one=1, ops=(operator.add, operator.mul), draw=lambda rng: rng.randint(-10, 10),
        known_failures={CHECK_CRITERION1: (1, -1)},
        proved=frozenset({
            CHECK_IDENTITY,  # 0 + x = x and 1 * x = x
            CHECK_CRITERION2,  # the integers have no zero divisors
            CHECK_CRITERION3,  # 0 * x = 0
        }),
    )


def _max_plus_realzero() -> Algebra:
    """Max-plus over the integers with the plain number 0 as the null value.

    Combining is max, scaling is addition.  Designating 0 (rather than a
    bottom element) as the sparsity value breaks the identity law for
    combining, the zero-product property, and annihilation; the designated
    one is 0 as well, since adding 0 is the true scaling identity.
    """
    return _numbers(
        "max_plus_realzero", lambda v: type(v) is int,
        one=0, ops=(_max, operator.add), draw=lambda rng: rng.randint(-10, 10),
        known_failures={
            CHECK_IDENTITY: (-1,),
            CHECK_CRITERION2: (5, -5),
            CHECK_CRITERION3: (5,),
        },
        proved=frozenset({CHECK_CRITERION1}),  # max(a, b) is a or b, so 0 only when a or b is
    )


def _max_min_chain(levels: int, name: str | None = None) -> Algebra:
    if not isinstance(levels, int) or levels < 2:
        raise ConfigurationError("max_min_chain requires an integer level count >= 2")
    if levels > _MAX_CHAIN_LEVELS:
        raise ConfigurationError(
            f"max_min_chain level count {levels} exceeds the limit of {_MAX_CHAIN_LEVELS}"
        )
    carrier = tuple(range(levels))

    def member(v: Value) -> bool:
        return type(v) is int and 0 <= v < levels

    name = name or f"max_min_chain({levels})"
    return Algebra(
        name=name,
        zero=carrier[0],
        one=carrier[-1],
        plus_op=_max,
        times_op=_min,
        contains_op=member,
        decode_op=_decoder(parse_number, member, f"is not a level of {name}"),
        carrier=carrier,
        times_commutes=True, plus_semigroup=True,  # min and max
        proved=frozenset({
            CHECK_IDENTITY,  # max(bottom, x) = x and min(top, x) = x
            CHECK_CRITERION1,  # max(a, b) is a or b, so it is the bottom only when a or b is
            CHECK_CRITERION2,  # min(a, b) is a or b, so it is the bottom only when a or b is
            CHECK_CRITERION3,  # min(bottom, x) = bottom
        }),
    )


def _max_min_strings() -> Algebra:
    """Alphanumeric strings ordered lexicographically, combined by max/min.

    The empty string is the bottom (and the sparsity value); an explicit top
    sentinel is adjoined as the scaling identity because no alphanumeric
    string is maximal.  The sentinel encodes as ``<TOP>``.
    """
    def member(v: Value) -> bool:
        return type(v) is str and (v == TOP_PAYLOAD or bool(_ALNUM_RE.fullmatch(v)))

    def decode_op(text: str) -> Value:
        # digit-only names stay strings here, so no decode_any dispatch, and
        # a literal U+FFFF in the text is not <TOP>
        if text == TOP_ENCODING:
            return TOP_PAYLOAD
        if _ALNUM_RE.fullmatch(text):
            return text
        raise ValueError(f"{text!r} is not an alphanumeric string value")

    def sample_op(rng: random.Random) -> Value:
        r = rng.random()
        if r < 0.05:
            return ""
        if r < 0.10:
            return TOP_PAYLOAD
        length = rng.randint(1, 6)
        return "".join(rng.choice("abcdefghij0123456789") for _ in range(length))

    return Algebra(
        name="max_min_strings",
        zero="",
        one=TOP_PAYLOAD,
        plus_op=_max,
        times_op=_min,
        contains_op=member,
        decode_op=decode_op,
        sample_op=sample_op,
        times_commutes=True, plus_semigroup=True,  # min and max
        proved=frozenset({
            CHECK_IDENTITY,  # "" precedes and <TOP> follows every string
            CHECK_CRITERION1,  # max(a, b) is a or b, so it is "" only when a or b is
            CHECK_CRITERION2,  # min(a, b) is a or b, so it is "" only when a or b is
            CHECK_CRITERION3,  # min("", x) = ""
        }),
    )


def _powerset(universe: Sequence[str]) -> Algebra:
    if isinstance(universe, str) or not isinstance(universe, Sequence):
        raise ConfigurationError("powerset universe must be a sequence of token strings")
    try:
        toks = list(Value.tokens(universe))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"powerset universe: {exc}") from None
    universe_set = frozenset(toks)
    name = "powerset({" + ",".join(toks) + "})"

    def member(v: Value) -> bool:
        # distinct tokens in ascending order, as the canonical encoding has them
        try:
            return type(v) is tuple and universe_set.issuperset(v) and list(v) == sorted(set(v))
        except TypeError:  # an unhashable token
            return False

    carrier: tuple[Value, ...] | None = None
    sample_op = None
    if len(toks) <= _POWERSET_ENUMERATION_LIMIT:
        carrier = tuple(
            combo
            for size in range(len(toks) + 1)
            for combo in itertools.combinations(toks, size)
        )
    else:

        def sample_op(rng: random.Random) -> Value:
            return tuple(t for t in toks if rng.random() < 0.5)

    # A subset's native is its bitmask over the sorted universe.
    bit = {t: 1 << i for i, t in enumerate(toks)}

    def lower(v: Value) -> int:
        return sum(map(bit.__getitem__, v))

    def lift(m: int) -> Value:
        # walk the set bits lowest first, so the tokens come out sorted
        members = []
        while m:
            low = m & -m
            members.append(toks[low.bit_length() - 1])
            m ^= low
        return tuple(members)

    # {t0} and {t1} are disjoint: the pair the exhaustive search finds first,
    # and one a sampler over a large universe would almost never draw.
    known_failures = {}
    if len(toks) >= 2:
        known_failures[CHECK_CRITERION2] = ((toks[0],), (toks[1],))

    return Algebra(
        name=name,
        zero=(),
        one=tuple(toks),
        plus_op=operator.or_,
        times_op=operator.and_,
        contains_op=member,
        decode_op=_decoder(parse_token_set, member, f"has tokens outside the universe of {name}"),
        carrier=carrier,
        sample_op=sample_op,
        known_failures=known_failures,
        lower=lower,
        lift=lift,
        times_commutes=True, plus_semigroup=True,  # & and | on bitmasks
        proved=frozenset({
            CHECK_IDENTITY,  # {} | x = x and universe & x = x for every subset x
            CHECK_CRITERION1,  # a | b = {} only when a = b = {}
            CHECK_CRITERION2,  # over one token or none, a nonempty set meets every other
            CHECK_CRITERION3,  # {} & x = {}
        }).difference(known_failures),
    )


_FAMILIES: dict[str, Callable[..., Algebra]] = {
    "natural_arithmetic": _natural,
    "nonneg_rational_arithmetic": _nonneg_rational,
    "integer_ring": _integer_ring,
    "max_min_chain": _max_min_chain,
    "max_min_strings": _max_min_strings,
    "powerset": _powerset,
    # or/and on {0, 1} is max/min on the two-level chain.
    "boolean_or_and": lambda: _max_min_chain(2, "boolean_or_and"),
    "max_plus_realzero": _max_plus_realzero,
}

BUILTIN_FAMILY_NAMES = tuple(sorted(_FAMILIES))

# The parameters each family takes; a family not listed takes none.
_FAMILY_PARAMS = {"max_min_chain": {"levels"}, "powerset": {"universe"}}


def make_builtin(name: str, **params) -> Algebra:
    """Construct a builtin algebra family member.

    ``max_min_chain`` takes ``levels`` (int, 2 to 4096); ``powerset`` takes
    ``universe`` (a sequence of token strings).  The other families take no
    parameters.  Errors name a parameter as its command-line flag spells it.
    """
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown builtin algebra {name!r}; known families: {', '.join(BUILTIN_FAMILY_NAMES)}"
        ) from None
    takes = _FAMILY_PARAMS.get(name, set())
    if set(params) != takes:
        wanted = ", ".join(f"--{p}" for p in takes) or "no parameters"
        given = ", ".join(f"--{p}" for p in sorted(params)) or "none"
        raise ConfigurationError(f"{name} takes {wanted}, got {given}")
    return builder(**params)
