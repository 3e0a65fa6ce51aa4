import contextlib
import dataclasses
import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    FIELD_BREAKS,
    check_invariants,
    dense_matmul,
    entries_of,
    load_algebra_file,
    stored_pairs_matmul,
    table_algebra,
)

from assocarray import array as array_module
from assocarray.algebra import FiniteAlgebraSpec, from_finite_spec, make_builtin
from assocarray.array import (
    AssociativeArray,
    _build,
    _product_t,
    check_key,
    empty,
    ewise_add,
    ewise_mult,
    from_triples,
    get,
    matmul,
    support,
    transpose,
)
from assocarray.errors import ValidationError
from assocarray.fileio import parse_finite_algebra
from assocarray.graph import build_graph, document_adjacency, incidence_arrays, shared_words_array
from assocarray.values import Value, decode_any


keys_st = st.sampled_from(["a", "b", "c", "d", "e"])
nat_triples_st = st.lists(
    st.tuples(keys_st, keys_st, st.integers(min_value=0, max_value=9)),
    max_size=12,
).map(lambda ts: [(r, c, Value.number(n)) for r, c, n in ts])
# Extra output keys: some also stored, some only implicit.
extra_keys_st = st.lists(st.sampled_from(["a", "c", "f", "g"]), max_size=3)

# The product must match the dense definition (``-full``) on every lawless
# fixture, every certified algebra and two powersets; on the certified ones
# and the powersets, where zero is inert, it must also match the stored-pairs
# fold (``-skip``).  ``powerset3`` is enumerated, ``powerset14`` is sampled.
# ``random_table`` draws 2-4 element tables with arbitrary cells, so
# times(0, 0) != 0 and runs of plus(acc, times(0, 0)) with transients and
# cycles of any period all occur; ``integer_ring_offset`` (times = a*b + 1)
# has runs that never repeat, and it proves nothing since 0 * x = 1.
LAWLESS = (
    *sorted(path.name for path in DATA_DIR.glob("*.alg")),
    "integer_ring",
    "max_plus_realzero",
    "random_table",
    "integer_ring_offset",
)
CERTIFIED = (
    "natural_arithmetic",
    "nonneg_rational_arithmetic",
    "boolean_or_and",
    "max_min_chain",
    "max_min_strings",
)
POWERSETS = ("powerset3", "powerset14")
DIFFERENTIAL_CASES = [(name, "full") for name in LAWLESS] + [
    (name, reference) for name in CERTIFIED + POWERSETS for reference in ("full", "skip")
]


@st.composite
def random_tables(draw, semigroup=False):
    """A 2-4 element table; with ``semigroup``, plus is the max under a drawn
    ranking, so it commutes and associates, with zero at any rank."""
    n = draw(st.integers(2, 4))
    row = st.tuples(*[st.integers(0, n - 1)] * n)
    table = st.tuples(*[row] * n)
    if semigroup:
        rank = draw(st.permutations(range(n)))
        plus_table = tuple(tuple(max(x, y, key=rank.__getitem__) for y in range(n)) for x in range(n))
    else:
        plus_table = draw(table)
    spec = FiniteAlgebraSpec(
        elements=tuple(Value.number(i) for i in range(n)),
        zero_index=0,
        one_index=draw(st.integers(0, n - 1)),
        plus_table=plus_table,
        times_table=draw(table),
    )
    return table_algebra(spec, "random_table")


@functools.cache
def differential_algebra(name):
    if name.endswith(".alg"):
        return load_algebra_file(name.removesuffix(".alg"))
    if name == "max_min_chain":
        return make_builtin(name, levels=3)
    if name in POWERSETS:
        n = int(name.removeprefix("powerset"))
        return make_builtin("powerset", universe=[f"t{i:02d}" for i in range(n)])
    if name == "integer_ring_offset":
        return dataclasses.replace(
            make_builtin("integer_ring"),
            name=name,
            times_op=lambda x, y: x * y + 1,  # on integer_ring's natives, the payloads
            proved=frozenset(),
        )
    return make_builtin(name)


def test_check_key_rules():
    assert check_key("a b") == "a b"
    assert check_key("a\x1fb") == "a\x1fb"  # not a line break
    assert check_key("a#") == "a#"
    assert check_key(" a") == " a"
    # a blank or #-led key would start a line that reads back as a comment
    for bad in ("", 7, "#a", " #a", " ", *(f"a{ch}b" for ch in FIELD_BREAKS), *FIELD_BREAKS):
        with pytest.raises(ValidationError):
            check_key(bad)


@pytest.mark.parametrize("ch", FIELD_BREAKS)
def test_keys_that_would_not_read_back_are_rejected(naturals, ch):
    one = Value.number(1)
    with pytest.raises(ValidationError, match="tab or line break"):
        from_triples([(f"a{ch}b", "c", one)], naturals)
    with pytest.raises(ValidationError, match="tab or line break"):
        build_graph([("k", {f"a{ch}b": one}, {"c": one})], naturals)


def test_from_triples_folds_duplicates_in_order(naturals):
    arr = from_triples(
        [("r1", "c1", Value.number(2)), ("r1", "c1", Value.number(3))], naturals
    )
    assert list(arr) == [("r1", "c1", Value.number(5))]


def test_from_triples_drops_cancelled_entries(integers):
    arr = from_triples(
        [("a", "b", Value.number(1)), ("a", "b", Value.number(-1))], integers
    )
    assert arr == empty()
    assert arr.row_keys == () and arr.col_keys == ()


# CPython shares 0, "" and (), so no builtin zero has an equal copy; a table's
# text or token set zero decoded twice gives two objects.
@pytest.mark.parametrize("zero_text", ["none", "{a}"], ids=["text", "tokens"])
def test_build_drops_zeros_equal_to_but_not_the_algebras_zero(zero_text):
    alg = from_finite_spec(parse_finite_algebra(
        f"elements: {zero_text},1\nzero: {zero_text}\none: 1\n"
        f"plus:\n{zero_text},1\n1,{zero_text}\ntimes:\n{zero_text},{zero_text}\n{zero_text},1\n"
    ))
    zero = decode_any(zero_text)
    assert zero == alg.zero and zero is not alg.zero
    one = alg.one
    lone = {"c": one}
    arr = _build(
        {"r3": {"c": zero}, "r2": {"c": one, "a": zero, "b": one}, "r1": lone}, alg
    )
    assert arr.rows == {"r1": {"c": one}, "r2": {"b": one, "c": one}}
    assert list(arr.rows["r2"]) == ["b", "c"]
    assert (arr.row_keys, arr.col_keys) == (("r1", "r2"), ("b", "c"))
    assert arr.rows["r1"] is not lone  # a one-column row is copied, not aliased


@pytest.mark.parametrize(
    "name, terms",
    [("natural_arithmetic", (0, 0)), ("xor_and", (1, 1))],
)
def test_from_triples_drops_a_coordinate_that_folds_to_zero(name, terms, naturals, xor_and):
    alg = {"natural_arithmetic": naturals, "xor_and": xor_and}[name]
    arr = from_triples(
        [("a", "b", Value.number(t)) for t in terms] + [("a", "c", alg.one)], alg
    )
    assert list(arr) == [("a", "c", alg.one)]


def test_from_triples_empty(naturals):
    assert from_triples([], naturals) == empty()


def test_from_triples_rejects_bad_keys_and_values(naturals):
    with pytest.raises(ValidationError):
        from_triples([("", "c", Value.number(1))], naturals)
    with pytest.raises(ValidationError):
        from_triples([("r", "c", Value.number(-1))], naturals)


def test_get_returns_zero_off_support(naturals):
    arr = from_triples([("a", "b", Value.number(4))], naturals)
    assert get(arr, "a", "b", naturals) == Value.number(4)
    assert get(arr, "a", "z", naturals) == naturals.zero
    assert get(arr, "nope", "b", naturals) == naturals.zero


def test_keysets_are_sorted_supports(naturals):
    arr = from_triples(
        [
            ("r2", "c9", Value.number(1)),
            ("r1", "c1", Value.number(2)),
            ("r2", "c1", Value.number(3)),
        ],
        naturals,
    )
    assert arr.row_keys == ("r1", "r2")
    assert arr.col_keys == ("c1", "c9")
    check_invariants(arr, naturals)


@given(nat_triples_st)
def test_transpose_involution(triples):
    from assocarray import make_builtin

    nat = make_builtin("natural_arithmetic")
    arr = from_triples(triples, nat)
    check_invariants(transpose(arr), nat)
    assert transpose(transpose(arr)) == arr
    assert entries_of(transpose(arr)) == {
        (c, r): v for (r, c), v in entries_of(arr).items()
    }


def test_ewise_add_cancels(integers):
    a = from_triples([("a", "b", Value.number(1))], integers)
    b = from_triples([("a", "b", Value.number(-1))], integers)
    assert ewise_add(a, b, integers) == empty()


def test_ewise_add_disjoint_union(naturals):
    a = from_triples([("a", "b", Value.number(2))], naturals)
    b = from_triples([("c", "d", Value.number(3))], naturals)
    out = ewise_add(a, b, naturals)
    assert entries_of(out) == {
        ("a", "b"): Value.number(2),
        ("c", "d"): Value.number(3),
    }


def test_ewise_mult_intersects_for_annihilating_algebras(naturals, powerset_xy):
    a = from_triples([("a", "b", Value.tokens(["x"]))], powerset_xy)
    b = from_triples([("a", "b", Value.tokens(["y"]))], powerset_xy)
    assert ewise_mult(a, b, powerset_xy) == empty()

    c = from_triples([("a", "b", Value.number(2))], naturals)
    d = from_triples([("c", "d", Value.number(3))], naturals)
    assert ewise_mult(c, d, naturals) == empty()


def test_ewise_mult_keeps_entries_when_zero_does_not_annihilate(annihilator_right):
    v = annihilator_right.decode("v")
    a = from_triples([("a", "b", v)], annihilator_right)
    out = ewise_mult(a, empty(), annihilator_right)
    assert entries_of(out) == {("a", "b"): v}


def draw_operands(name, data):
    """The algebra of a differential case, two independently drawn arrays over
    it, and extra row and column keys."""
    alg = data.draw(random_tables()) if name == "random_table" else differential_algebra(name)
    if alg.is_finite:
        values_st = st.sampled_from(alg.carrier)
    else:
        values_st = st.integers(0, 2**32).map(lambda seed: alg.sample(random.Random(seed)))
    triples_st = st.lists(st.tuples(keys_st, keys_st, values_st), max_size=12)
    a = from_triples(data.draw(triples_st), alg)
    b = from_triples(data.draw(triples_st), alg)
    return alg, a, b, data.draw(extra_keys_st), data.draw(extra_keys_st)


def reference_product(reference, a, b, alg, rows, cols):
    if reference == "full":
        return dense_matmul(entries_of(a), entries_of(b), alg, rows, cols)
    return stored_pairs_matmul(entries_of(a), entries_of(b), alg)


differential_cases = pytest.mark.parametrize(
    "name, reference",
    DIFFERENTIAL_CASES,
    ids=[f"{name}-{reference}" for name, reference in DIFFERENTIAL_CASES],
)


@differential_cases
@given(data=st.data())
def test_matmul_matches_dense_oracle(name, reference, data):
    alg, a, b, rows, cols = draw_operands(name, data)
    got = matmul(a, b, alg, extra_row_keys=rows, extra_col_keys=cols)
    assert entries_of(got) == reference_product(reference, a, b, alg, rows, cols)
    check_invariants(got, alg)


@differential_cases
@given(data=st.data())
def test_product_of_a_transpose_matches_dense_oracle(name, reference, data):
    # at is drawn, not built by transpose, so its rows (the inner keys) and
    # b's rows overlap only partly.
    alg, at, b, rows, cols = draw_operands(name, data)
    got = _product_t(at, b, alg, extra_row_keys=rows, extra_col_keys=cols)
    assert entries_of(got) == reference_product(reference, transpose(at), b, alg, rows, cols)
    check_invariants(got, alg)


@differential_cases
@given(data=st.data())
def test_product_of_a_transpose_with_itself_matches_dense_oracle(name, reference, data):
    # at is b: where zero is inert and times commutes, each unordered pair is
    # folded once and mirrored.  noncommutative.alg has an inert zero but a
    # times that does not commute, so it must keep the general loop.
    alg, x, _, rows, cols = draw_operands(name, data)
    got = _product_t(x, x, alg, extra_row_keys=rows, extra_col_keys=cols)
    assert entries_of(got) == reference_product(reference, transpose(x), x, alg, rows, cols)
    check_invariants(got, alg)


def budgeted(op, budget, label):
    """``op`` counting its calls in ``.calls`` and raising past ``budget``."""

    def counted(x, y):
        counted.calls += 1
        if counted.calls > budget:
            raise AssertionError(f"more than {budget} {label} calls")
        return op(x, y)

    counted.calls = 0
    return counted


def adjacency_operands(alg, weights, n_vertices, n_edges, seed):
    """transpose(E_out) and E_in of a seeded random graph whose edges each
    have one source and one target."""
    rng = random.Random(seed)
    vertices = [f"v{n:03d}" for n in range(n_vertices)]
    graph = build_graph(
        (
            (f"e{n:04d}", {rng.choice(vertices): rng.choice(weights)},
             {rng.choice(vertices): rng.choice(weights)})
            for n in range(n_edges)
        ),
        alg,
    )
    pair = incidence_arrays(graph)
    return transpose(pair.e_out), pair.e_in


def stored_pairs(a, b):
    """Output coordinate of every pair of stored entries meeting on an inner key."""
    return [(i, j) for i, k, _ in a for j in b.rows.get(k, ())]


def test_full_matmul_evaluates_only_terms_that_differ_from_zero_times_zero(integers):
    # 200 vertices, 1000 edges: 1000 inner keys, so the full definition has
    # about 40 million terms.  Over integer_ring a*0 = 0*b = 0*0 = 0, so the
    # only terms to evaluate are those with both entries stored.
    weights = [Value.number(n) for n in range(-5, 6) if n]
    a, b = adjacency_operands(integers, weights, 200, 1000, seed=20151018)
    both_stored = len(stored_pairs(a, b))
    # times: a(i,k)*0 once per stored a entry, 0*b(k,j) once per stored b
    # entry, each stored pair, and times(0, 0).  plus: each stored pair costs
    # at most one call for the run of zeros before it (acc + 0 = acc is a
    # fixed point) and one to fold it in, and each output entry one call for
    # its tail run.  The counters raise as soon as a budget is exceeded, so
    # the cubic fold fails fast instead of running for minutes.  Without its
    # proofs integer_ring takes this fold rather than the stored-pairs loop.
    counting = dataclasses.replace(
        integers,
        proved=frozenset(),
        times_op=budgeted(integers.times_op, a.nnz + b.nnz + both_stored + 1, "times"),
        plus_op=budgeted(
            integers.plus_op, len(a.row_keys) * len(b.col_keys) + 2 * both_stored, "plus"
        ),
    )
    got = matmul(a, b, counting)
    # zero is an identity and annihilates here, so the stored-pairs fold is
    # the same fold.
    assert entries_of(got) == stored_pairs_matmul(entries_of(a), entries_of(b), integers)
    check_invariants(got, integers)


# Inner keys k0..k5 are positions 0..5.  Output entries have their first
# event (a term other than t00) at position 0, at 2 and later, so both the
# empty leading run and a longer one occur.
COUNT_A = {("r0", "k2"): 1, ("r0", "k4"): 2, ("r1", "k0"): 3, ("r1", "k3"): 1, ("r2", "k5"): 2}
COUNT_B = {("k0", "c1"): 2, ("k1", "c2"): 1, ("k2", "c0"): 1, ("k3", "c1"): 1,
           ("k4", "c0"): 2, ("k5", "c2"): 3}


def event_positions(is_event):
    """last, and the event positions of each entry of COUNT_A x COUNT_B
    that has any; ``is_event`` takes each factor, None where unstored."""
    inner = sorted({k for _, k in COUNT_A} | {k for k, _ in COUNT_B})
    events = {}
    for i in sorted({i for i, _ in COUNT_A}):
        for j in sorted({j for _, j in COUNT_B}):
            ps = [p for p, k in enumerate(inner) if is_event(COUNT_A.get((i, k)), COUNT_B.get((k, j)))]
            if ps:
                events[i, j] = ps
    return len(inner) - 1, events


def counted_full_product(alg, expected_plus):
    a, b = (
        from_triples([(r, c, Value.number(n)) for (r, c), n in m.items()], alg)
        for m in (COUNT_A, COUNT_B)
    )
    counting = dataclasses.replace(alg, plus_op=budgeted(alg.plus_op, expected_plus, "plus"))
    got = matmul(a, b, counting)
    assert counting.plus_op.calls == expected_plus
    assert entries_of(got) == dense_matmul(entries_of(a), entries_of(b), alg)


def test_full_fold_steps_a_leading_run_that_never_settles_once():
    # times = a*b + 1 makes t00 = 1, and plus(acc, 1) = acc + 1 never repeats,
    # so every run takes all its steps.  Events are the stored pairs.  The
    # leading run takes last steps, once.  An entry's first event at p folds
    # onto it in one call (none at p = 0), each later event at p after one at
    # q takes p - q calls (its gap, then the term), and the tail last - pm.
    last, events = event_positions(lambda x, y: x is not None and y is not None)
    expected = last + sum((ps[0] > 0) + last - ps[0] for ps in events.values())
    assert expected == 15  # re-stepping the leading run per entry would take 20
    counted_full_product(differential_algebra("integer_ring_offset"), expected)


def test_full_fold_leading_run_at_a_fixed_point_costs_one_call():
    # t00 = times(0, 0) = 0 + 0 = 0 and every weight is positive, so every
    # accumulator is >= 0 and a fixed point of max(acc, 0): each run stops
    # after its first step, and the leading run costs one call per product.
    # a(i, k) + 0 and 0 + b(k, j) are events, so one stored factor makes one.
    # An entry's first event at p > 0 costs one call, each later one 1 plus
    # 1 if a gap precedes it, and the tail 1 if it is not empty.
    last, events = event_positions(lambda x, y: x is not None or y is not None)
    expected = 1 + sum(
        (ps[0] > 0)
        + sum(1 + (p - q > 1) for q, p in zip(ps, ps[1:]))
        + (ps[-1] < last)
        for ps in events.values()
    )
    assert expected == 39  # re-stepping the leading run per entry would take 41
    # max plus is a commutative semigroup, so it would take partial sums in
    # 21 calls (see below).  Without the flag it keeps the runs.
    alg = dataclasses.replace(make_builtin("max_plus_realzero"), plus_semigroup=False)
    counted_full_product(alg, expected)


def test_partial_sums_cost_at_most_two_plus_calls_per_entry_whose_keys_do_not_meet():
    # Over max plus, a(i, k) + 0 and 0 + b(k, j) differ from t00 = 0, so the
    # run-compressed loop would fold 28 events into 9 entries: partial sums.
    # A_r0 = B_c0 = {k2, k4}, A_r1 = B_c1 = {k0, k3}, A_r2 = {k5}, B_c2 =
    # {k1, k5}: only the three diagonal entries meet, each folding 2 terms
    # and a run (2 calls).  The run of t00 settles at once (1 call); R_r0,
    # R_r1, Q_c0, Q_c1 and Q_c2 fold 2 terms each (5 calls).  The 6 other
    # entries cost 9 calls: one per row to add R_i to its run of 6 - |A_i| -
    # 2 t00 terms, and one per entry to add Q_j.
    disjoint = 3 + 6
    assert disjoint <= 2 * 6
    counted_full_product(make_builtin("max_plus_realzero"), 1 + 5 + 3 * 2 + disjoint)


@pytest.mark.parametrize(
    "name, scan_calls",
    [("natural_arithmetic", 0), ("xor_and.alg", 4)],
    ids=["natural_arithmetic", "xor_and.alg"],
)
def test_matmul_folds_stored_pairs_alone_when_zero_is_inert(name, scan_calls):
    # natural_arithmetic proves identity and criterion 3, so no law is
    # checked at run time; xor_and is not certified (1 + 1 = 0) but its
    # zero is inert, which a scan of both elements proves with 2 plus and 2
    # times calls each.  Beyond the scan, one times call per stored pair and
    # one plus call per stored pair after the first into each output entry.
    alg = differential_algebra(name)
    weights = [v for v in alg.carrier or map(Value.number, range(1, 6)) if v != alg.zero]
    a, b = adjacency_operands(alg, weights, 30, 120, seed=5)
    pairs = stored_pairs(a, b)
    n_times, n_plus = scan_calls + len(pairs), scan_calls + len(pairs) - len(set(pairs))
    counting = dataclasses.replace(
        alg,
        times_op=budgeted(alg.times_op, n_times, "times"),
        plus_op=budgeted(alg.plus_op, n_plus, "plus"),
    )
    got = matmul(a, b, counting)
    assert (counting.times_op.calls, counting.plus_op.calls) == (n_times, n_plus)
    assert entries_of(got) == dense_matmul(entries_of(a), entries_of(b), alg)


def test_matmul_skips_a_law_scan_that_costs_more_than_it_saves():
    # A proved family makes no scan: powerset proves identity and criterion 3
    # at any size, where scanning this 4096-element carrier would take 8192
    # plus and 8192 times calls.  The 1x1x1 product itself takes one.
    ps = make_builtin("powerset", universe=[f"t{n}" for n in range(12)])
    x = Value.tokens(["t0"])
    a = from_triples([("i", "k", x)], ps)
    b = from_triples([("k", "j", x)], ps)
    counting = dataclasses.replace(
        ps, plus_op=budgeted(ps.plus_op, 10, "plus"), times_op=budgeted(ps.times_op, 10, "times")
    )
    assert entries_of(matmul(a, b, counting)) == {("i", "j"): x}


@contextlib.contextmanager
def plus_law_verdicts(force_full_fold):
    """The verdicts of the product's plus-law checks, in call order: partial
    sums run exactly when one is True.  ``force_full_fold`` makes an inert
    zero take the full fold too."""
    verdicts, check_law = [], array_module._plus_is_semigroup

    def spy(alg, budget):
        verdicts.append(check_law(alg, budget))
        return verdicts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(array_module, "_plus_is_semigroup", spy)
        if force_full_fold:
            patch.setattr(array_module, "_zero_is_inert", lambda alg: False)
        yield verdicts


# Rows a0..a3 store every inner key k0..k6, and so do columns b0..b3: 112
# stored pairs, each at least one event, against at most 10 x 10 entries.
# So the event count always calls for partial sums.  Rows r0..r3 and
# columns c0..c3, always output keys, hold a sparse draw over k0..k6 and
# m0..m2: entries whose inner keys do not meet, inner keys on one side
# only, and at least 8 x 8 = 64 entries, enough to scan a 4-element table.
DENSE_INNER = [f"k{n}" for n in range(7)]
SPARSE_INNER = DENSE_INNER + ["m0", "m1", "m2"]


def draw_partial_sums_operands(name, data):
    if name == "random_table":
        alg = data.draw(random_tables(semigroup=True))
    else:
        alg = differential_algebra(name)
    if alg.is_finite:
        values_st = st.sampled_from(alg.carrier)
        nonzero_st = st.sampled_from([v for v in alg.carrier if v != alg.zero])
    else:
        seeds = st.integers(0, 2**32)
        values_st = seeds.map(lambda seed: alg.sample(random.Random(seed)))
        nonzero_st = seeds.map(lambda seed: alg.sample_nonzero(random.Random(seed)))

    def array(dense, sparse_keys):
        dense_values = data.draw(st.tuples(*[nonzero_st] * len(dense)))
        sparse = data.draw(st.lists(st.tuples(*sparse_keys, values_st), max_size=25))
        return from_triples([(r, c, v) for (r, c), v in zip(dense, dense_values)] + sparse, alg)

    rows, cols = [f"r{n}" for n in range(4)], [f"c{n}" for n in range(4)]
    a = array([(f"a{n}", k) for n in range(4) for k in DENSE_INNER],
              (st.sampled_from(rows), st.sampled_from(SPARSE_INNER)))
    b = array([(k, f"b{n}") for k in DENSE_INNER for n in range(4)],
              (st.sampled_from(SPARSE_INNER), st.sampled_from(cols)))
    extra_rows = rows + data.draw(st.lists(st.sampled_from(["a1", "x0", "x1"]), max_size=2))
    extra_cols = cols + data.draw(st.lists(st.sampled_from(["b1", "y0", "y1"]), max_size=2))
    return alg, a, b, extra_rows, extra_cols


@differential_cases
@given(data=st.data())
def test_full_fold_by_partial_sums_matches_dense_oracle(name, reference, data):
    # Every builtin's plus is +, max or |, and the plus of every table here
    # but two commutes and associates, so each takes partial sums; an inert
    # zero is made to take the full fold.  The two fixtures whose plus does
    # not commute keep the runs.
    alg, a, b, rows, cols = draw_partial_sums_operands(name, data)
    with plus_law_verdicts(force_full_fold=True) as verdicts:
        got = matmul(a, b, alg, extra_row_keys=rows, extra_col_keys=cols)
    assert verdicts == [name not in ("noncommutative.alg", "identity_violating.alg")]
    assert entries_of(got) == reference_product(reference, a, b, alg, rows, cols)
    check_invariants(got, alg)


def test_full_fold_keeps_its_runs_when_plus_commutes_but_does_not_associate():
    # plus(x, y) = -(x + y) mod 3 commutes, but (1 + 1) + 2 = 1 + 2 = 0 and
    # 1 + (1 + 2) = 1 + 0 = 2.  times(x, 0) = x differs from t00 = 0, so
    # every stored a(i, k) makes an event per output column: the law is
    # asked, and the scan of the 3 elements must refuse it.
    spec = FiniteAlgebraSpec(
        elements=tuple(Value.number(n) for n in range(3)),
        zero_index=0,
        one_index=0,
        plus_table=tuple(tuple(-(x + y) % 3 for y in range(3)) for x in range(3)),
        times_table=tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3)),
    )
    alg = table_algebra(spec, "commutative_not_associative")
    rng = random.Random(3)
    a = from_triples([(f"i{rng.randrange(6)}", f"k{rng.randrange(6)}", rng.choice((1, 2)))
                      for _ in range(20)], alg)
    b = from_triples([(f"k{rng.randrange(6)}", f"j{rng.randrange(6)}", rng.choice((1, 2)))
                      for _ in range(20)], alg)
    with plus_law_verdicts(force_full_fold=False) as verdicts:
        got = matmul(a, b, alg)
    assert verdicts == [False]
    assert entries_of(got) == dense_matmul(entries_of(a), entries_of(b), alg)


def test_document_adjacency_folds_each_unordered_pair_once():
    # Row k of E, with n_k stored entries, holds n_k (n_k + 1) / 2 pairs
    # j >= i and n_k^2 ordered pairs.  Powerset proves zero inert, so no law
    # scan calls times; without times_commutes every ordered pair is folded.
    # matmul(transpose(E), E) is the same product and takes the same loop.
    docs = {"d1": "a b c", "d2": "b c d", "d3": "d e", "d4": "a e f", "d5": "g", "d6": "c f"}
    E = shared_words_array({doc: words.split() for doc, words in docs.items()})
    ps = make_builtin("powerset", universe=sorted("abcdefg"))
    ns = [len(cols) for cols in E.rows.values()]
    pairs, ordered = sum(n * (n + 1) // 2 for n in ns), sum(n * n for n in ns)
    products = []
    for commutes, n_times in ((True, pairs), (False, ordered)):
        for product in (document_adjacency, lambda x, alg: matmul(transpose(x), x, alg)):
            counting = dataclasses.replace(
                ps, times_commutes=commutes, times_op=budgeted(ps.times_op, n_times, "times")
            )
            products.append(list(product(E, counting)))
            assert counting.times_op.calls == n_times
    assert all(p == products[0] for p in products)  # entries, row order and column order


def test_matmul_cancelling_weights_erase_entry(integers):
    e_out_t = from_triples(
        [("a", "k1", Value.number(1)), ("a", "k2", Value.number(-1))], integers
    )
    e_in = from_triples(
        [("k1", "b", Value.number(1)), ("k2", "b", Value.number(1))], integers
    )
    assert matmul(e_out_t, e_in, integers) == empty()


def test_matmul_identity_pattern(naturals):
    a = from_triples(
        [("r1", "x", Value.number(5)), ("r2", "y", Value.number(7))], naturals
    )
    eye = from_triples(
        [("x", "x", Value.number(1)), ("y", "y", Value.number(1))], naturals
    )
    assert matmul(a, eye, naturals) == a


def test_matmul_empty_fold_gives_zero(naturals):
    # disjoint inner keysets: every product contributes a zero term only
    a = from_triples([("r", "k1", Value.number(2))], naturals)
    b = from_triples([("k2", "c", Value.number(3))], naturals)
    assert matmul(a, b, naturals) == empty()


def test_matmul_extra_keys_expose_zero_products(annihilator_right):
    v = annihilator_right.decode("v")
    a = from_triples([("a", "k", v)], annihilator_right)
    b = from_triples([("k", "a", v)], annihilator_right)
    plain = matmul(a, b, annihilator_right)
    assert set(entries_of(plain)) == {("a", "a")}
    widened = matmul(a, b, annihilator_right, extra_col_keys=["b"])
    assert entries_of(widened) == {("a", "a"): v, ("a", "b"): v}
    # a fold over stored pairs alone cannot see the implicit-zero column
    assert set(stored_pairs_matmul(entries_of(a), entries_of(b), annihilator_right)) == {
        ("a", "a")
    }


def test_fold_order_is_ascending_inner_keys(noncommutative):
    p, q = noncommutative.decode("p"), noncommutative.decode("q")
    a = from_triples([("a", "k1", p), ("a", "k2", q)], noncommutative)
    b = from_triples([("k1", "b", p), ("k2", "b", q)], noncommutative)
    # times keeps its second operand, plus keeps its first nonzero operand:
    # ascending inner keys fold p before q
    assert entries_of(matmul(a, b, noncommutative)) == {("a", "b"): p}

    # renaming the inner keys to reverse their order flips the result
    a2 = from_triples([("a", "k1", q), ("a", "k2", p)], noncommutative)
    b2 = from_triples([("k1", "b", q), ("k2", "b", p)], noncommutative)
    assert entries_of(matmul(a2, b2, noncommutative)) == {("a", "b"): q}


def test_support_and_equal_support(naturals):
    a = from_triples(
        [("a", "b", Value.number(5)), ("b", "a", Value.number(7))], naturals
    )
    assert support(a) == {("a", "b"), ("b", "a")}
    b = from_triples(
        [("a", "b", Value.number(1)), ("b", "a", Value.number(1))], naturals
    )
    assert support(a) == support(b)
    assert support(a) != support(from_triples([("a", "b", Value.number(1))], naturals))


def test_check_invariants_catches_corruption(naturals):
    stored_zero = AssociativeArray(
        rows={"a": {"b": Value.number(0)}}, row_keys=("a",), col_keys=("b",)
    )
    with pytest.raises(ValidationError, match="stored zero"):
        check_invariants(stored_zero, naturals)

    empty_row = AssociativeArray(rows={"a": {}}, row_keys=("a",), col_keys=())
    with pytest.raises(ValidationError, match="no stored entries"):
        check_invariants(empty_row)

    wrong_cols = AssociativeArray(
        rows={"a": {"b": Value.number(1)}}, row_keys=("a",), col_keys=("z",)
    )
    with pytest.raises(ValidationError, match="column key set"):
        check_invariants(wrong_cols)

    one = Value.number(1)
    for rows, row_keys, col_keys, message in [
        ({"a": {"c": one}, "b": {"c": one}}, ("b", "a"), ("c",), "row keys are not sorted"),
        ({"a": {"b": one, "c": one}}, ("a",), ("c", "b"), "column keys are not sorted"),
        ({"a": {"c": one}}, ("a", "b"), ("c",), "stored rows do not match"),
        ({"a": {"c": one, "b": one}}, ("a",), ("b", "c"), "'a' columns are not sorted"),
        ({"a": {"b": Value.number(-1)}}, ("a",), ("b",), r"-1 at \(a, b\) is outside"),
    ]:
        corrupt = AssociativeArray(rows=rows, row_keys=row_keys, col_keys=col_keys)
        with pytest.raises(ValidationError, match=message):
            check_invariants(corrupt, naturals)


@given(nat_triples_st)
def test_to_triples_roundtrip(triples):
    from assocarray import make_builtin

    nat = make_builtin("natural_arithmetic")
    arr = from_triples(triples, nat)
    assert from_triples(list(arr), nat) == arr
    assert list(arr) == sorted(arr)
