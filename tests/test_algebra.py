import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, load_algebra_file

from assocarray.algebra import (
    CHECK_CRITERION2,
    Algebra,
    FiniteAlgebraSpec,
    from_finite_spec,
    make_builtin,
)
from assocarray.array import from_triples, matmul
from assocarray.errors import ConfigurationError, DomainError, ValidationError
from assocarray.fileio import serialize_triples
from assocarray.graph import document_adjacency, shared_words_array
from assocarray.values import TOP_PAYLOAD, Value, encode_value

ALL_BUILTINS = [
    ("natural_arithmetic", {}),
    ("nonneg_rational_arithmetic", {}),
    ("integer_ring", {}),
    ("max_min_chain", {"levels": 4}),
    ("max_min_strings", {}),
    ("powerset", {"universe": ["x", "y"]}),
    ("boolean_or_and", {}),
    ("max_plus_realzero", {}),
]


@pytest.fixture(params=ALL_BUILTINS, ids=lambda p: p[0])
def builtin(request):
    name, params = request.param
    return make_builtin(name, **params)


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        make_builtin("tropical_deluxe")


def test_family_parameter_validation():
    with pytest.raises(ConfigurationError):
        make_builtin("max_min_chain")
    with pytest.raises(ConfigurationError):
        make_builtin("max_min_chain", levels=1)
    with pytest.raises(ConfigurationError):
        make_builtin("powerset")
    with pytest.raises(ConfigurationError):
        make_builtin("powerset", universe="xy")
    with pytest.raises(ConfigurationError):
        make_builtin("natural_arithmetic", levels=3)


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("max_min_chain", {}, "max_min_chain takes --levels, got none"),
        ("powerset", {}, "powerset takes --universe, got none"),
        ("natural_arithmetic", {"levels": 3}, "natural_arithmetic takes no parameters, got --levels"),
        ("powerset", {"universe": ["x"], "levels": 2}, "got --levels, --universe"),
    ],
)
def test_family_parameter_messages_name_the_flag(name, params, message):
    with pytest.raises(ConfigurationError, match=message):
        make_builtin(name, **params)


@pytest.mark.parametrize("universe", [["x y"], ["x", ""], ["{x}"], ["x", 1]])
def test_powerset_rejects_bad_tokens_as_configuration(universe):
    with pytest.raises(ConfigurationError, match="powerset universe"):
        make_builtin("powerset", universe=universe)


def test_identities_are_carrier_members(builtin):
    assert builtin.contains(builtin.zero)
    assert builtin.contains(builtin.one)


def test_public_ops_check_membership(builtin):
    foreign = Value.text("not a member\\anywhere")
    if builtin.contains(foreign):
        foreign = Value.number(Fraction(-1, 2))
        assert not builtin.contains(foreign)
    with pytest.raises(DomainError):
        builtin.plus(foreign, builtin.zero)
    with pytest.raises(DomainError):
        builtin.times(builtin.one, foreign)


def test_closure_exhaustive_for_finite_carriers(builtin):
    if not builtin.is_finite:
        pytest.skip("infinite carrier")
    for a in builtin.carrier:
        for b in builtin.carrier:
            assert builtin.contains(builtin.plus(a, b))
            assert builtin.contains(builtin.times(a, b))


def test_sampled_closure_for_infinite_carriers(builtin):
    if builtin.is_finite:
        pytest.skip("finite carrier")
    rng = random.Random(7)
    for _ in range(200):
        a, b = builtin.sample(rng), builtin.sample(rng)
        assert builtin.contains(a)
        assert builtin.contains(builtin.plus(a, b))
        assert builtin.contains(builtin.times(a, b))


def test_decode_encode_roundtrip(builtin):
    from assocarray.values import encode_value

    if builtin.is_finite:
        members = builtin.carrier
    else:
        rng = random.Random(3)
        members = [builtin.sample(rng) for _ in range(100)]
    for v in members:
        assert builtin.decode(encode_value(v)) == v


def test_decode_rejects_foreign_values(builtin):
    with pytest.raises(ValueError):
        builtin.decode("certainly not a member\t")


def test_natural_rejects_negative_text():
    nat = make_builtin("natural_arithmetic")
    with pytest.raises(ValueError):
        nat.decode("-1")
    assert nat.decode("7") == Value.number(7)


def test_rational_arithmetic_is_exact():
    rat = make_builtin("nonneg_rational_arithmetic")
    third = rat.decode("1/3")
    total = rat.plus(rat.plus(third, third), third)
    assert total == Value.number(1)


def test_whole_rational_results_lift_to_ints():
    # the native sum is Fraction(1, 1); its value must be the int 1, as
    # Value.number makes it: a number is an int or a Fraction that is not whole
    rat = make_builtin("nonneg_rational_arithmetic")
    half = rat.decode("1/2")
    whole = rat.plus(half, half)
    assert whole == 1 and type(whole) is int
    assert encode_value(whole) == "1"
    a = from_triples([("i", "k", half), ("i", "m", half)], rat)
    b = from_triples([("k", "j", rat.one), ("m", "j", rat.one)], rat)
    product = matmul(a, b, rat)
    assert type(product.rows["i"]["j"]) is int
    assert serialize_triples(product) == "i\tj\t1\n"


def test_only_the_rational_family_lifts_its_natives():
    # A whole rational lifts to its int.  The other number families are
    # closed on int, so their lift is the identity: even a whole Fraction,
    # which none of their operations makes, comes back as it went in.
    lifted = make_builtin("nonneg_rational_arithmetic").lift(Fraction(4, 2))
    assert lifted == 2 and type(lifted) is int
    for name in ("natural_arithmetic", "integer_ring", "max_plus_realzero"):
        alg = make_builtin(name)
        for native in (0, 7, -3, Fraction(4, 2)):
            assert alg.lift(native) is native


def test_chain_ops_are_max_and_min():
    chain = make_builtin("max_min_chain", levels=4)
    two, three = Value.number(2), Value.number(3)
    assert chain.plus(two, three) == three
    assert chain.times(two, three) == two
    assert chain.zero == Value.number(0)
    assert chain.one == Value.number(3)
    assert len(chain.carrier) == 4


def test_chain_level_count_is_bounded():
    assert len(make_builtin("max_min_chain", levels=4096).carrier) == 4096
    with pytest.raises(ConfigurationError, match="exceeds the limit of 4096"):
        make_builtin("max_min_chain", levels=4097)


def test_powerset_carrier_enumeration_and_ops():
    ps = make_builtin("powerset", universe=["y", "x"])
    assert len(ps.carrier) == 4
    assert ps.zero == Value.tokens([])
    assert ps.one == Value.tokens(["x", "y"])
    x, y = Value.tokens(["x"]), Value.tokens(["y"])
    assert ps.plus(x, y) == ps.one
    assert ps.times(x, y) == ps.zero


def test_large_powerset_switches_to_sampling():
    universe = [f"t{i}" for i in range(13)]
    ps = make_builtin("powerset", universe=universe)
    assert ps.carrier is None
    # {t0} and {t1} scale to the empty set
    assert CHECK_CRITERION2 in ps.known_failures and CHECK_CRITERION2 not in ps.proved
    rng = random.Random(0)
    v = ps.sample(rng)
    assert ps.contains(v)


@pytest.mark.parametrize("n", [3, 14], ids=["enumerated", "sampled"])
def test_powerset_public_ops_refuse_foreign_tokens(n):
    # membership is checked before the operations look up any token
    ps = make_builtin("powerset", universe=[f"t{i:02d}" for i in range(n)])
    foreign = Value.tokens(["zz"])
    with pytest.raises(DomainError):
        ps.plus(foreign, ps.zero)
    with pytest.raises(DomainError):
        ps.times(ps.one, Value.tokens(["t00", "zz"]))


@pytest.mark.parametrize("n", [2, 14], ids=["enumerated", "sampled"])
@pytest.mark.parametrize("tuple_", [("t00", "t00"), ("t01", "t00"), ("t00", "t01", "t00")])
def test_powerset_refuses_a_non_canonical_tuple(n, tuple_):
    # {t00,t00} and {t01,t00} would not read back, and a repeat would cancel
    # its own bit in the native: ("t00", "t00") is 0b10, the set {t01}
    ps = make_builtin("powerset", universe=[f"t{i:02d}" for i in range(n)])
    assert not ps.contains(tuple_)
    with pytest.raises(ValidationError, match="outside the carrier"):
        from_triples([("r", "c", tuple_)], ps)
    assert ps.contains(tuple(sorted(set(tuple_))))


def assert_equal_sets_are_equal_values(values):
    """Every two values in ``values`` over one token set are equal, hash
    alike and encode alike."""
    first = {}
    for v in values:
        seen = first.setdefault(frozenset(v), v)
        assert v == seen and hash(v) == hash(seen) and encode_value(v) == encode_value(seen)


@st.composite
def powerset_operands(draw):
    # 100 tokens puts set bits past the 20 an enumerated carrier reaches
    universe = [f"t{i:02d}" for i in range(draw(st.integers(0, 20) | st.just(100)))]
    subset = st.lists(st.sampled_from(universe), unique=True) if universe else st.just([])
    return universe, [Value.tokens(s) for s in draw(st.lists(subset, min_size=1, max_size=5))]


@settings(max_examples=200, deadline=None)
@given(powerset_operands())
def test_powerset_ops_are_union_and_intersection(drawn):
    universe, values = drawn
    ps = make_builtin("powerset", universe=universe)
    other = make_builtin("powerset", universe=universe)
    results = []
    for a, b in itertools.product(values + [ps.zero, ps.one], repeat=2):
        union, common = ps.plus(a, b), ps.times(a, b)
        assert union == Value.tokens(set(a) | set(b))
        assert common == Value.tokens(set(a) & set(b))
        # another algebra over the same universe gives equal results
        assert other.plus(a, b) == union
        assert other.times(a, b) == common
        results += [union, common]
    assert_equal_sets_are_equal_values(results)


def test_document_adjacency_values_are_equal_across_runs():
    rng = random.Random(10)
    words = [f"w{k:03d}" for k in range(60)]
    docs = {f"d{k:02d}": rng.sample(words, rng.randint(5, 12)) for k in range(30)}
    E = shared_words_array(docs)
    alg = make_builtin("powerset", universe=sorted(set().union(*docs.values())))
    first, again = document_adjacency(E, alg), document_adjacency(E, alg)
    assert first == again
    stored = [v for _, _, v in first]
    assert len(set(stored)) < len(stored)
    assert_equal_sets_are_equal_values(stored + [v for _, _, v in again])


def test_max_plus_identities_coincide():
    mp = make_builtin("max_plus_realzero")
    assert mp.zero == mp.one == Value.number(0)
    assert mp.plus(Value.number(3), Value.number(-5)) == Value.number(3)
    assert mp.times(Value.number(3), Value.number(-5)) == Value.number(-2)


def test_max_plus_plus_returns_an_operand():
    mp = make_builtin("max_plus_realzero")
    for a, b in [(3, -5), (-5, 3), (0, 0), (-2, -2), (7, 0)]:
        got = mp.plus_op(a, b)  # the natives are the values
        assert got is a or got is b
        assert mp.lift(got) == mp.plus(Value.number(a), Value.number(b)) == Value.number(max(a, b))


def test_strings_order_by_lexicographic_payload():
    s = make_builtin("max_min_strings")
    a, b = s.decode("apple"), s.decode("banana")
    assert s.plus(a, b) == b
    assert s.times(a, b) == a
    assert s.plus(s.one, b) == s.one
    assert s.times(s.one, b) == b
    assert s.decode("<TOP>") == s.one
    assert s.decode("") == s.zero


def test_strings_decode_top_as_the_one_sentinel():
    s = make_builtin("max_min_strings")
    assert s.decode("<TOP>") is s.one


@pytest.mark.parametrize("text", ["\uffff", "a b", "\u00e9"])
def test_strings_refuse_a_non_alphanumeric_text(text):
    # a literal U+FFFF is the top's payload, but only <TOP> decodes to it
    with pytest.raises(ValueError) as exc_info:
        make_builtin("max_min_strings").decode(text)
    assert str(exc_info.value) == f"{text!r} is not an alphanumeric string value"


def test_sample_nonzero_never_returns_zero(builtin):
    rng = random.Random(11)
    for _ in range(50):
        assert builtin.sample_nonzero(rng) != builtin.zero


def test_sample_nonzero_refuses_when_only_zero_can_be_drawn():
    with pytest.raises(ConfigurationError, match="has no nonzero elements"):
        make_builtin("powerset", universe=[]).sample_nonzero(random.Random(0))
    only_zero = Algebra(
        name="zeros",
        zero=Value.number(0),
        one=Value.number(1),
        plus_op=lambda a, b: a,
        times_op=lambda a, b: a,
        contains_op=lambda v: True,
        decode_op=Value.text,
        sample_op=lambda rng: Value.number(0),
    )
    with pytest.raises(ConfigurationError, match="sampler for zeros produced only zero values"):
        only_zero.sample_nonzero(random.Random(0))


def test_strings_refuse_a_value_of_another_kind():
    strings = make_builtin("max_min_strings")
    assert not strings.contains(Value.number(1))
    assert not strings.contains(Value.tokens(["a"]))


BOOL_SPEC = FiniteAlgebraSpec(
    elements=(Value.number(0), Value.number(1)),
    zero_index=0,
    one_index=1,
    plus_table=((0, 1), (1, 1)),
    times_table=((0, 0), (0, 1)),
)


# Every builtin family, plus a long chain, the one-element powerset and a
# powerset too large to enumerate, so that infinite carriers are sampled.
ENCODED_BUILTINS = ALL_BUILTINS + [
    ("max_min_chain", {"levels": 400}),
    ("powerset", {"universe": []}),
    ("powerset", {"universe": [f"t{i:02d}" for i in range(14)]}),
]
# Elements of every kind for random tables, whole and fractional numbers and
# the top sentinel among them.
TABLE_ELEMENTS = (
    Value.number(0), Value.number(1), Value.number(-3), Value.number(Fraction(1, 2)),
    Value.text("a"), Value.text(""), TOP_PAYLOAD,
    Value.tokens([]), Value.tokens(["a"]), Value.tokens(["a", "b"]),
)


@st.composite
def random_table_algebras(draw):
    elements = draw(st.lists(st.sampled_from(TABLE_ELEMENTS), min_size=1, max_size=5, unique=True))
    n = len(elements)
    table = st.tuples(*[st.tuples(*[st.integers(0, n - 1)] * n)] * n)
    return from_finite_spec(FiniteAlgebraSpec(
        elements=tuple(elements),
        zero_index=draw(st.integers(0, n - 1)),
        one_index=draw(st.integers(0, n - 1)),
        plus_table=draw(table),
        times_table=draw(table),
    ), name="random_table")


def members(alg):
    if alg.is_finite:
        return st.sampled_from(alg.carrier)
    drawn = st.integers(0, 2**32).map(lambda seed: alg.sample(random.Random(seed)))
    return st.sampled_from([alg.zero, alg.one]) | drawn


def assert_native_encoding_is_exact(alg, v, w):
    # The native zero filter and the product's fixed-point stop compare
    # natives, so the encoding must be injective and lift back exactly.
    lifted = alg.lift(alg.lower(v))
    assert lifted == v and type(lifted) is type(v)
    assert encode_value(lifted) == encode_value(v)
    assert (alg.lower(v) == alg.lower(w)) == (v == w)


@pytest.mark.parametrize(
    "name, params", ENCODED_BUILTINS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(ENCODED_BUILTINS)]
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_builtin_native_encoding_lifts_back_and_is_injective(name, params, data):
    alg = make_builtin(name, **params)
    assert_native_encoding_is_exact(alg, data.draw(members(alg)), data.draw(members(alg)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_native_encoding_lifts_back_and_is_injective(data):
    alg = data.draw(random_table_algebras())
    assert_native_encoding_is_exact(alg, data.draw(members(alg)), data.draw(members(alg)))


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.alg")), ids=lambda p: p.name)
def test_parsed_table_native_encoding_lifts_back_and_is_injective(path):
    alg = load_algebra_file(path.stem)
    for v, w in itertools.product(alg.carrier, repeat=2):
        assert_native_encoding_is_exact(alg, v, w)


def test_sample_draws_from_a_finite_carrier():
    alg = from_finite_spec(BOOL_SPEC, name="bool")
    rng = random.Random(5)
    assert {alg.sample(rng) for _ in range(50)} == set(alg.carrier)


def test_from_finite_spec_table_lookup():
    alg = from_finite_spec(BOOL_SPEC, name="bool")
    zero, one = alg.carrier
    assert alg.plus(one, zero) == one
    assert alg.times(one, zero) == zero
    assert alg.decode("1") == one
    with pytest.raises(ValueError):
        alg.decode("2")


def test_finite_spec_rejects_duplicates():
    spec = FiniteAlgebraSpec(
        elements=(Value.number(0), Value.number(0)),
        zero_index=0,
        one_index=1,
        plus_table=((0, 0), (0, 0)),
        times_table=((0, 0), (0, 0)),
    )
    with pytest.raises(ValidationError):
        spec.validate()


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(elements=()), "element list is empty"),
        (dict(elements=(Value.number(1), Value.text("1"))), "element encodings are not distinct"),
        (dict(times_table=((0, 0),)), "times table has 1 rows, expected 2"),
    ],
    ids=["empty", "same-encoding", "missing-row"],
)
def test_finite_spec_rejects_malformed_element_lists_and_tables(changes, message):
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(BOOL_SPEC, **changes).validate()


def test_finite_spec_rejects_ragged_rows():
    spec = FiniteAlgebraSpec(
        elements=(Value.number(0), Value.number(1)),
        zero_index=0,
        one_index=1,
        plus_table=((0, 1), (1,)),
        times_table=((0, 0), (0, 1)),
    )
    with pytest.raises(ValidationError, match="plus table row"):
        spec.validate()


def test_finite_spec_rejects_out_of_range_cells():
    spec = FiniteAlgebraSpec(
        elements=(Value.number(0), Value.number(1)),
        zero_index=0,
        one_index=1,
        plus_table=((0, 1), (1, 5)),
        times_table=((0, 0), (0, 1)),
    )
    with pytest.raises(ValidationError, match=r"\(1, 1\)"):
        spec.validate()


def test_finite_spec_rejects_bad_identity_indices():
    spec = FiniteAlgebraSpec(
        elements=(Value.number(0), Value.number(1)),
        zero_index=0,
        one_index=2,
        plus_table=((0, 1), (1, 1)),
        times_table=((0, 0), (0, 1)),
    )
    with pytest.raises(ValidationError, match="one index"):
        spec.validate()


def _table(*elements):
    n = len(elements)
    cells = ((0,) * n,) * n
    return from_finite_spec(FiniteAlgebraSpec(
        elements=elements, zero_index=0, one_index=n - 1, plus_table=cells, times_table=cells,
    ))


@pytest.mark.parametrize(
    "alg, v",
    [
        (_table(Value.number(0), Value.number(2), Value.number(Fraction(1, 2))), Fraction(2)),
        (_table(Value.tokens([]), Value.tokens(["a"])), (["a"],)),
        (make_builtin("powerset", universe=["a", "b"]), (["a"],)),
    ],
    ids=["table-whole-fraction", "table-list-token", "powerset-list-token"],
)
def test_membership_refuses_a_lookalike_or_unhashable_value(alg, v):
    # Fraction(2) == 2 and hashes alike, but is no table element; a list
    # token cannot be hashed to look up
    assert not alg.contains(v)
    with pytest.raises(ValidationError, match="outside the carrier"):
        from_triples([("r", "c", v)], alg)


def test_algebra_without_sampler_refuses_to_sample():
    alg = Algebra(
        name="opaque",
        zero=Value.number(0),
        one=Value.number(1),
        plus_op=lambda a, b: a,
        times_op=lambda a, b: a,
        contains_op=lambda v: True,
        decode_op=Value.text,
    )
    with pytest.raises(ConfigurationError):
        alg.sample(random.Random(0))
