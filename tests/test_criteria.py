import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocarray.algebra import (
    CHECK_CRITERION1,
    CHECK_CRITERION2,
    CHECK_CRITERION3,
    CHECK_IDENTITY,
    Algebra,
    FiniteAlgebraSpec,
    from_finite_spec,
    make_builtin,
)
from assocarray.array import support
from assocarray.cli import _WITNESSES
from assocarray.criteria import (
    WitnessCase,
    _violates,
    check,
    demonstrate,
    validate,
    witness_additive_inverse,
    witness_annihilator,
    witness_zero_product,
)
from assocarray.errors import (
    ConfigurationError,
    DomainError,
    InternalConsistencyError,
    PreconditionError,
)
from assocarray.graph import (
    Graph,
    adjacency,
    adjacency_oracle,
    build_graph,
    incidence_arrays,
    reverse_adjacency,
)
from assocarray.values import Value, encode_value
from conftest import DATA_DIR, GOLDEN_DIR, load_algebra_file, random_graph, reverse


def test_finite_verdicts_are_exhaustive(powerset_xy):
    report = validate(powerset_xy)
    assert report.verdicts[CHECK_IDENTITY].mode == "exhaustive"
    assert report.verdicts[CHECK_CRITERION1].mode == "exhaustive"
    assert not report.verdicts[CHECK_CRITERION2].passed
    assert report.verdicts[CHECK_CRITERION2].mode is None
    assert report.verdicts[CHECK_CRITERION2].witness == (Value.tokens(["x"]), Value.tokens(["y"]))


def test_infinite_verdicts_are_sampled(naturals):
    report = validate(naturals)
    for verdict in report.verdicts.values():
        assert verdict.passed
        assert verdict.mode == "sampled 1000"
    assert report.certified  # backed by the family's proofs


def test_sample_count_is_configurable(naturals):
    verdict = check(naturals, CHECK_IDENTITY, samples=50)
    assert verdict.mode == "sampled 50"


def test_integer_ring_fails_criterion_1(integers):
    verdict = check(integers, CHECK_CRITERION1)
    assert not verdict.passed
    assert verdict.witness == (Value.number(1), Value.number(-1))
    report = validate(integers)
    assert report.failures() == (CHECK_CRITERION1,)
    assert not report.certified


def test_max_plus_fails_identity_and_two_criteria(max_plus):
    report = validate(max_plus)
    assert not report.verdicts[CHECK_IDENTITY].passed
    assert report.verdicts[CHECK_IDENTITY].witness == (Value.number(-1),)
    assert report.verdicts[CHECK_CRITERION1].passed
    assert not report.verdicts[CHECK_CRITERION2].passed
    assert report.verdicts[CHECK_CRITERION2].witness == (Value.number(5), Value.number(-5))
    assert not report.verdicts[CHECK_CRITERION3].passed
    assert report.verdicts[CHECK_CRITERION3].witness == (Value.number(5),)


def test_annihilator_fixture_fails_only_criterion_3(annihilator_right):
    report = validate(annihilator_right)
    assert report.verdicts[CHECK_IDENTITY].passed
    assert report.verdicts[CHECK_CRITERION1].passed
    assert report.verdicts[CHECK_CRITERION2].passed
    assert not report.verdicts[CHECK_CRITERION3].passed
    assert report.verdicts[CHECK_CRITERION3].witness == (Value.text("v"),)
    assert not report.certified


def test_xor_fixture_fails_only_criterion_1(xor_and):
    report = validate(xor_and)
    assert report.failures() == (CHECK_CRITERION1,)
    assert report.verdicts[CHECK_CRITERION1].witness == (Value.number(1), Value.number(1))


def test_identity_violating_fixture(noncommutative):
    # times(q, p) = p although p is the designated one
    verdict = check(noncommutative, CHECK_IDENTITY)
    assert not verdict.passed
    assert verdict.witness == (Value.text("q"),)


def test_identity_fixture_from_file():
    from tests.conftest import load_algebra_file

    alg = load_algebra_file("identity_violating")
    verdict = check(alg, CHECK_IDENTITY)
    assert not verdict.passed
    assert verdict.witness == (Value.text("v"),)


def test_finite_all_pass_certifies():
    bool_alg = make_builtin("boolean_or_and")
    report = validate(bool_alg)
    assert report.certified
    assert report.failures() == ()


# Every builtin family; the powersets over 13 and 40 tokens are sampled like
# the infinite families, every other finite carrier is scanned whole.
FACT_FAMILIES = [
    ("natural_arithmetic", {}),
    ("nonneg_rational_arithmetic", {}),
    ("integer_ring", {}),
    ("max_plus_realzero", {}),
    ("max_min_strings", {}),
    ("boolean_or_and", {}),
    *(("max_min_chain", {"levels": n}) for n in (2, 5, 64)),
    *(("powerset", {"universe": [f"t{i}" for i in range(n)]}) for n in (0, 1, 2, 5, 13, 40)),
]
CHECKERS = {CHECK_IDENTITY, CHECK_CRITERION1, CHECK_CRITERION2, CHECK_CRITERION3}


def assert_facts_partition_the_checks(alg):
    assert not alg.proved & alg.known_failures.keys()
    assert alg.proved | alg.known_failures.keys() == CHECKERS


def family_id(family, params):
    if family == "powerset":
        return f"powerset-{len(params['universe'])}"
    return f"{family}-{params['levels']}" if params else family


@pytest.mark.parametrize(
    "family, params", FACT_FAMILIES, ids=[family_id(*case) for case in FACT_FAMILIES]
)
def test_builtin_facts_replay_against_the_checker(family, params):
    alg = make_builtin(family, **params)
    assert_facts_partition_the_checks(alg)
    for name in CHECKERS:
        verdict = check(alg, name, samples=10_000)
        if name in alg.proved:
            assert verdict.passed, f"{name} is proved but fails at {verdict.witness}"
            assert verdict.mode == ("exhaustive" if alg.is_finite else "sampled 10000")
        else:
            # The checker replays the known witness and raises unless it
            # violates the law.
            assert verdict.witness == alg.known_failures[name]


@pytest.mark.parametrize(
    "family, params", FACT_FAMILIES, ids=[family_id(*case) for case in FACT_FAMILIES]
)
def test_builtin_times_commutes_on_its_natives(family, params):
    # The symmetric product relies on this flag; validate reports no check for it.
    alg = make_builtin(family, **params)
    assert alg.times_commutes
    rng = random.Random(7)
    for _ in range(200):
        x, y = alg.lower(alg.sample(rng)), alg.lower(alg.sample(rng))
        assert alg.times_op(x, y) == alg.times_op(y, x)


@pytest.mark.parametrize(
    "family, params", FACT_FAMILIES, ids=[family_id(*case) for case in FACT_FAMILIES]
)
def test_builtin_plus_commutes_and_associates_on_its_natives(family, params):
    # The full fold takes partial sums on this flag; validate reports no check for it.
    alg = make_builtin(family, **params)
    assert alg.plus_semigroup
    rng = random.Random(11)
    for _ in range(200):
        x, y, w = (alg.lower(alg.sample(rng)) for _ in range(3))
        assert alg.plus_op(x, y) == alg.plus_op(y, x)
        assert alg.plus_op(alg.plus_op(x, y), w) == alg.plus_op(x, alg.plus_op(y, w))


def test_facts_of_the_largest_chain_partition_the_checks():
    # The sets alone: scanning 4096 levels pairwise is what the proofs spare.
    chain = make_builtin("max_min_chain", levels=4096)
    assert_facts_partition_the_checks(chain)
    assert chain.proved == CHECKERS


def test_sampled_pass_without_flag_never_certifies(naturals):
    unflagged = Algebra(
        name="naturals_unflagged",
        zero=naturals.zero,
        one=naturals.one,
        plus_op=naturals.plus,
        times_op=naturals.times,
        contains_op=naturals.contains_op,
        decode_op=naturals.decode_op,
        sample_op=naturals.sample_op,
    )
    report = validate(unflagged)
    assert all(v.passed for v in report.verdicts.values())
    assert not report.certified


def test_bogus_known_failure_is_rejected(naturals):
    lying = Algebra(
        name="liar",
        zero=naturals.zero,
        one=naturals.one,
        plus_op=naturals.plus,
        times_op=naturals.times,
        contains_op=naturals.contains_op,
        decode_op=naturals.decode_op,
        sample_op=naturals.sample_op,
        known_failures={CHECK_CRITERION1: (Value.number(1), Value.number(1))},
    )
    with pytest.raises(InternalConsistencyError):
        check(lying, CHECK_CRITERION1)


def test_violates_refuses_an_unknown_check(naturals):
    with pytest.raises(InternalConsistencyError, match="unknown check 'bogus'"):
        _violates(naturals, "bogus", ())


def test_annihilator_check_covers_both_sides(annihilator_left):
    verdict = check(annihilator_left, CHECK_CRITERION3)
    assert not verdict.passed
    assert verdict.witness == (Value.text("v"),)


def test_zero_product_check_on_chain():
    chain = make_builtin("max_min_chain", levels=4)
    assert check(chain, CHECK_CRITERION2).passed


def test_unknown_check_name_is_a_configuration_error(naturals):
    with pytest.raises(ConfigurationError, match="criterion4"):
        check(naturals, "criterion4")


def test_samples_below_one_are_a_configuration_error(naturals, integers):
    # A pass over no draws would state coverage that was never tested.
    with pytest.raises(ConfigurationError, match="samples must be at least 1"):
        check(naturals, CHECK_CRITERION1, samples=0)
    with pytest.raises(ConfigurationError, match="samples must be at least 1"):
        validate(integers, samples=-5)


def test_machine_lines_format(powerset_xy):
    lines = validate(powerset_xy).to_machine_lines()
    assert lines == [
        "identity\tpass\texhaustive",
        "criterion1\tpass\texhaustive",
        "criterion2\tfail\t{x}\t{y}",
        "criterion3\tpass\texhaustive",
        "certified\tfalse",
    ]


def test_report_text_mentions_every_check(integers):
    text = validate(integers).to_text()
    assert "algebra: integer_ring" in text
    assert "criterion1 (no additive inverses): FAIL, witness 1, -1" in text
    assert "certified: no" in text


# --- witness constructions ---------------------------------------------------


def test_witness_additive_inverse_shape(integers):
    wc = witness_additive_inverse(Value.number(2), Value.number(-2), integers)
    assert wc.criterion == 1
    assert wc.expected_oracle == {("a", "b")}
    assert wc.graph == Graph(
        {"k1": {"a": Value.number(2)}, "k2": {"a": Value.number(-2)}},
        {"k1": {"b": integers.one}, "k2": {"b": integers.one}},
    )


def test_witness_additive_inverse_rejects_non_inverses(naturals, integers):
    with pytest.raises(PreconditionError):
        witness_additive_inverse(Value.number(1), Value.number(1), naturals)
    with pytest.raises(PreconditionError):
        witness_additive_inverse(Value.number(0), Value.number(0), integers)


def test_witness_zero_product_rejects_nonzero_products(naturals):
    with pytest.raises(PreconditionError):
        witness_zero_product(Value.number(1), Value.number(1), naturals)


def test_witness_annihilator_rejects_compliant_values(naturals):
    with pytest.raises(PreconditionError):
        witness_annihilator(Value.number(1), naturals)


@pytest.mark.parametrize(
    "build, arity",
    [(witness_additive_inverse, 2), (witness_zero_product, 2), (witness_annihilator, 1)],
)
def test_witness_builders_reject_values_outside_the_carrier(naturals, build, arity):
    with pytest.raises(DomainError, match="not in the carrier"):
        build(*[Value.text("x")] * arity, naturals)


def test_demonstrate_cancelling_parallel_edges(integers):
    wc = witness_additive_inverse(Value.number(1), Value.number(-1), integers)
    rep = demonstrate(wc, integers)
    assert rep.missing == (("a", "b", Value.number(0)),)
    assert rep.spurious == ()
    assert rep.oracle == {("a", "b")}
    assert support(rep.adjacency) == frozenset()


def test_demonstrate_zero_product_self_loop(powerset_xy):
    wc = witness_zero_product(Value.tokens(["x"]), Value.tokens(["y"]), powerset_xy)
    rep = demonstrate(wc, powerset_xy)
    assert rep.missing == (("a", "a", powerset_xy.zero),)
    assert rep.spurious == ()


def test_demonstrate_non_annihilating_right_sided(annihilator_right):
    v = Value.text("v")
    wc = witness_annihilator(v, annihilator_right)
    assert wc.extra_target_vertices == ("b",)
    assert wc.extra_source_vertices == ()
    rep = demonstrate(wc, annihilator_right)
    assert rep.missing == ()
    assert rep.spurious == (("a", "b", v),)
    # the self-loop itself is still reported correctly
    assert ("a", "a") in support(rep.adjacency)


def test_demonstrate_non_annihilating_left_sided(annihilator_left):
    v = Value.text("v")
    wc = witness_annihilator(v, annihilator_left)
    assert wc.extra_source_vertices == ("b",)
    assert wc.extra_target_vertices == ()
    rep = demonstrate(wc, annihilator_left)
    assert rep.spurious == (("b", "a", v),)


def test_demonstrate_non_annihilating_both_sides(max_plus):
    wc = witness_annihilator(Value.number(5), max_plus)
    assert wc.extra_source_vertices == ("b",)
    assert wc.extra_target_vertices == ("b",)
    rep = demonstrate(wc, max_plus)
    assert rep.spurious == (
        ("a", "b", Value.number(5)),
        ("b", "a", Value.number(5)),
    )


def test_witness_annihilator_zero_witness_with_a_zero_one_on_an_infinite_carrier():
    # 0 times 0 is 1 and one is zero: the self-loop takes the nonzero sample
    # seeded 0, and every pair with b comes out spurious.
    ring = make_builtin("integer_ring")
    alg = dataclasses.replace(
        ring, one=ring.zero, times_op=lambda x, y: x * y + 1, proved=frozenset()
    )
    w = alg.sample_nonzero(random.Random(0))
    wc = witness_annihilator(alg.zero, alg)
    assert wc.graph.sources == wc.graph.targets == {"k": {"a": w}}
    assert wc.description.startswith(f"self-loop k at a with weights {encode_value(w)} ")
    one = Value.number(1)
    assert demonstrate(wc, alg).spurious == (("a", "b", one), ("b", "a", one), ("b", "b", one))


def test_demonstrate_rejects_wrong_expected_oracle(integers):
    wc = witness_additive_inverse(Value.number(1), Value.number(-1), integers)
    wrong = WitnessCase(
        criterion=wc.criterion,
        graph=wc.graph,
        expected_oracle=frozenset({("b", "a")}),
        description=wc.description,
    )
    with pytest.raises(InternalConsistencyError):
        demonstrate(wrong, integers)


def test_demonstrate_requires_an_actual_mismatch(naturals):
    graph = build_graph(
        [("k1", {"a": Value.number(1)}, {"b": Value.number(1)}),
         ("k2", {"a": Value.number(1)}, {"b": Value.number(1)})],
        naturals,
    )
    clean = WitnessCase(
        criterion=1,
        graph=graph,
        expected_oracle=frozenset({("a", "b")}),
        description="not actually a counterexample",
    )
    with pytest.raises(InternalConsistencyError, match="no mismatch"):
        demonstrate(clean, naturals)


def test_validate_is_deterministic(max_plus):
    assert validate(max_plus) == validate(max_plus)
    r1 = validate(max_plus, seed=123)
    r2 = validate(max_plus, seed=123)
    assert r1 == r2


def test_additive_inverse_demonstrable_inside_finite_carrier(xor_and):
    one = Value.number(1)
    wc = witness_additive_inverse(one, one, xor_and)
    rep = demonstrate(wc, xor_and)
    assert rep.missing == (("a", "b", xor_and.zero),)


def test_checks_use_sampler_not_carrier_for_infinite(naturals):
    # a sampler that hits a violating pair proves the sampled path works
    flaky = Algebra(
        name="flaky_plus",
        zero=Value.number(0),
        one=Value.number(1),
        plus_op=lambda a, b: 0 if (a, b) == (3, 4) else a + b,
        times_op=naturals.times,
        contains_op=naturals.contains_op,
        decode_op=naturals.decode_op,
        sample_op=lambda rng: Value.number(rng.randint(3, 4)),
    )
    verdict = check(flaky, CHECK_CRITERION1, samples=200)
    assert not verdict.passed
    assert verdict.witness == (Value.number(3), Value.number(4))


def _golden_algebras():
    """Every builtin, the 14-token powerset whose carrier is sampled, every
    table fixture, and three lawless builtins stripped of their known
    witnesses so that their failures come from the sampler."""
    algs = [
        make_builtin(name)
        for name in (
            "natural_arithmetic",
            "nonneg_rational_arithmetic",
            "integer_ring",
            "max_plus_realzero",
            "max_min_strings",
            "boolean_or_and",
        )
    ]
    algs += [make_builtin("max_min_chain", levels=n) for n in (2, 5)]
    large_powerset = make_builtin("powerset", universe=list("abcdefghijklmn"))
    algs += [make_builtin("powerset", universe=list("abcde")), large_powerset]
    algs += [load_algebra_file(path.stem) for path in sorted(DATA_DIR.glob("*.alg"))]
    for alg in (make_builtin("integer_ring"), make_builtin("max_plus_realzero"), large_powerset):
        algs.append(dataclasses.replace(alg, name=f"{alg.name} sampled", known_failures={}))
    return algs


def validate_golden_text():
    chunks = []
    for alg in _golden_algebras():
        for seed in range(4):
            report = validate(alg, samples=300, seed=seed)
            chunks.append(f"# {alg.name} seed={seed}\n")
            chunks.extend(line + "\n" for line in report.to_machine_lines())
    return "".join(chunks)


def test_validate_verdicts_and_sampled_witnesses_match_golden():
    # The golden predates the shared check driver; a diff here means the
    # candidate order or the sampler's draw order changed.
    assert validate_golden_text() == (GOLDEN_DIR / "validate_seeds.txt").read_text()


# --- the claim over every small table algebra --------------------------------


def table_algebra(n, one_index, plus_table, times_table):
    spec = FiniteAlgebraSpec(
        elements=tuple(Value.number(i) for i in range(n)),
        zero_index=0,
        one_index=one_index,
        plus_table=plus_table,
        times_table=times_table,
    )
    return from_finite_spec(spec, name="swept")


def assert_the_claim_holds(alg, graphs):
    """Every failing criterion ends in a mismatch or a refusal, never in an
    InternalConsistencyError, and a certified algebra's product support equals
    the oracle in both directions on seeded random graphs."""
    report = validate(alg)
    for criterion, build in _WITNESSES.items():
        verdict = report.verdicts[f"criterion{criterion}"]
        if verdict.passed:
            continue
        try:
            wc = build(*verdict.witness, alg)
        except PreconditionError:
            continue
        demonstrate(wc, alg)  # raises InternalConsistencyError on no mismatch
    if report.certified:
        rng = random.Random(0)
        for _ in range(graphs):
            g = random_graph(alg, rng)
            assert support(adjacency(g, alg)) == adjacency_oracle(incidence_arrays(g))
            reversed_pair = incidence_arrays(reverse(g))
            assert support(reverse_adjacency(g, alg)) == adjacency_oracle(reversed_pair)
    return report.certified


def two_element_algebras():
    """(one, plus, times) of every algebra on two elements where zero is 0:
    one is either element, 2 x 16 x 16 in all."""
    tables = list(itertools.product(itertools.product(range(2), repeat=2), repeat=2))
    return [(one, plus, times) for one in range(2) for plus in tables for times in tables]


def test_the_claim_holds_on_every_two_element_algebra():
    certified = [
        case
        for case in two_element_algebras()
        if assert_the_claim_holds(table_algebra(2, *case), graphs=200)
    ]
    # or/and with one = 1 is the only certified algebra on two elements
    assert certified == [(1, ((0, 1), (1, 1)), ((0, 0), (0, 1)))]


def test_an_identity_failure_shows_in_the_support_of_all_but_one_two_element_algebra():
    # A fact of the sweep, not a defect: witness has no identity case, and an
    # algebra failing only the identity laws need not give a wrong support.
    identity_only = [
        case
        for case in two_element_algebras()
        if validate(table_algebra(2, *case)).failures() == (CHECK_IDENTITY,)
    ]
    assert len(identity_only) == 15

    def support_differs(alg):
        for seed in range(300):
            g = random_graph(alg, random.Random(seed))
            if support(adjacency(g, alg)) != adjacency_oracle(incidence_arrays(g)):
                return True
        return False

    hidden = [case for case in identity_only if not support_differs(table_algebra(2, *case))]
    # or/and with one = 0: no product reads one
    assert hidden == [(0, ((0, 1), (1, 1)), ((0, 0), (0, 1)))]


def test_criterion_3_has_a_witness_on_every_two_element_algebra_that_fails_it():
    # 448 of the 512 fail criterion 3; the 128 whose witness is zero and whose
    # one is zero too weight the self-loop 1.  demonstrate raises on no mismatch.
    failing = 0
    for case in two_element_algebras():
        alg = table_algebra(2, *case)
        verdict = check(alg, CHECK_CRITERION3)
        if not verdict.passed:
            failing += 1
            demonstrate(witness_annihilator(*verdict.witness, alg), alg)
    assert failing == 448


def random_tables(count, seed):
    """Seeded tables of 3 to 8 elements, zero and one at any index.  Each
    draws its off-zero cells from all indices, or the zero index with
    chance 1/20 or 1/4, or never, so that passes, late and early failures
    all occur."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 8)
        zero = rng.randrange(n)
        nonzero = [i for i in range(n) if i != zero]
        chance = rng.choice((None, 0.05, 0.25, 0.0))

        def cell(x, y):
            if chance is None or x == zero or y == zero:
                return rng.randrange(n)
            return zero if rng.random() < chance else rng.choice(nonzero)

        def table():
            return tuple(tuple(cell(x, y) for y in range(n)) for x in range(n))

        yield from_finite_spec(FiniteAlgebraSpec(
            elements=tuple(Value.number(i) for i in range(n)),
            zero_index=zero,
            one_index=rng.randrange(n),
            plus_table=table(),
            times_table=table(),
        ), name="random_table")


# group -> (its algebras, the criteria among 1 and 2 that some of them fail)
ROW_SCAN_CASES = {
    "two_element": (
        lambda: (table_algebra(2, *case) for case in two_element_algebras()),
        {CHECK_CRITERION1, CHECK_CRITERION2},
    ),
    "random_3_to_8": (lambda: random_tables(400, seed=31), {CHECK_CRITERION1, CHECK_CRITERION2}),
    "data_files": (
        lambda: (load_algebra_file(p.stem) for p in sorted(DATA_DIR.glob("*.alg"))),
        {CHECK_CRITERION1},  # xor_and.alg; none fails criterion 2
    ),
}


@pytest.mark.parametrize("group", ROW_SCAN_CASES)
def test_table_row_scan_matches_the_pair_scan(group):
    # The generic scan is the reference: the same table without its tables.
    # Criteria 1 and 2 read the rows, so they call an operation at most
    # once, to replay a witness.
    algebras, failing = ROW_SCAN_CASES[group]
    failed = set()
    for alg in algebras():
        assert alg.tables is not None
        calls = []

        def counted(op):
            return lambda x, y: calls.append(1) or op(x, y)

        counting = dataclasses.replace(
            alg, plus_op=counted(alg.plus_op), times_op=counted(alg.times_op)
        )
        reference = dataclasses.replace(alg, tables=None)
        for name in (CHECK_IDENTITY, CHECK_CRITERION1, CHECK_CRITERION2, CHECK_CRITERION3):
            calls.clear()
            verdict = check(counting, name)
            assert verdict == check(reference, name), (alg.carrier, alg.tables, name)
            if name in (CHECK_CRITERION1, CHECK_CRITERION2):
                assert len(calls) <= 1
                if not verdict.passed:
                    failed.add(name)
    assert failed == failing  # so witnesses are compared, not passes alone


three_element_tables = st.tuples(*[st.tuples(*[st.integers(0, 2)] * 3)] * 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2), three_element_tables, three_element_tables)
def test_the_claim_holds_on_three_element_algebras(one, plus, times):
    assert_the_claim_holds(table_algebra(3, one, plus, times), graphs=20)
