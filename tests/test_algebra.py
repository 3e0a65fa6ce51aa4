import random
from fractions import Fraction

import pytest

from assocarray.algebra import (
    Algebra,
    FiniteAlgebraSpec,
    from_finite_spec,
    make_builtin,
)
from assocarray.errors import ConfigurationError, DomainError, ValidationError
from assocarray.values import Value

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


def test_chain_ops_are_max_and_min():
    chain = make_builtin("max_min_chain", levels=4)
    two, three = Value.number(2), Value.number(3)
    assert chain.plus(two, three) == three
    assert chain.times(two, three) == two
    assert chain.zero == Value.number(0)
    assert chain.one == Value.number(3)
    assert len(chain.carrier) == 4


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
    assert not ps.analytically_compliant  # {t0} and {t1} scale to the empty set
    rng = random.Random(0)
    v = ps.sample(rng)
    assert ps.contains(v)


def test_max_plus_identities_coincide():
    mp = make_builtin("max_plus_realzero")
    assert mp.zero == mp.one == Value.number(0)
    assert mp.plus(Value.number(3), Value.number(-5)) == Value.number(3)
    assert mp.times(Value.number(3), Value.number(-5)) == Value.number(-2)


def test_strings_order_by_lexicographic_payload():
    s = make_builtin("max_min_strings")
    a, b = s.decode("apple"), s.decode("banana")
    assert s.plus(a, b) == b
    assert s.times(a, b) == a
    assert s.plus(s.one, b) == s.one
    assert s.times(s.one, b) == b
    assert s.decode("<TOP>") == s.one
    assert s.decode("") == s.zero


def test_sample_nonzero_never_returns_zero(builtin):
    rng = random.Random(11)
    for _ in range(50):
        assert builtin.sample_nonzero(rng) != builtin.zero


BOOL_SPEC = FiniteAlgebraSpec(
    elements=(Value.number(0), Value.number(1)),
    zero_index=0,
    one_index=1,
    plus_table=((0, 1), (1, 1)),
    times_table=((0, 0), (0, 1)),
)


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
