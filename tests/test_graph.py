import random
import time

import pytest
from conftest import (
    DATA_DIR,
    check_invariants,
    check_transpose_identity,
    entries_of,
    load_algebra_file,
    random_graph,
    reverse,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import assocarray.array
from assocarray.algebra import Algebra, make_builtin
from assocarray.array import _zero_is_inert, empty, from_triples, support
from assocarray.criteria import demonstrate, witness_annihilator
from assocarray.errors import DomainError, PreconditionError, ValidationError
from assocarray.graph import (
    EdgeRecord,
    IncidencePair,
    WordOverlapViolation,
    _incidence_pair,
    adjacency,
    adjacency_oracle,
    check_word_consistency,
    document_adjacency,
    incidence_arrays,
    reverse_adjacency,
    shared_words_array,
)
from assocarray.values import Value

ONE = Value.number(1)


def simple_graph(*edges):
    return tuple(
        EdgeRecord(key, {src: ONE}, {dst: ONE}) for key, src, dst in edges
    )


PATH = simple_graph(("e1", "a", "b"), ("e2", "b", "c"))


def test_incidence_single_edge(naturals):
    g = simple_graph(("k", "a", "b"))
    p = incidence_arrays(g, naturals)
    assert list(p.e_out) == [("k", "a", ONE)]
    assert list(p.e_in) == [("k", "b", ONE)]


def test_incidence_parallel_edges_share_rows(integers):
    g = (
        EdgeRecord("k1", {"a": Value.number(1)}, {"b": ONE}),
        EdgeRecord("k2", {"a": Value.number(-1)}, {"b": ONE}),
    )
    p = incidence_arrays(g, integers)
    assert list(p.e_out) == [
        ("k1", "a", Value.number(1)),
        ("k2", "a", Value.number(-1)),
    ]


def test_incidence_self_loop_is_one_by_one(powerset_xy):
    x, y = Value.tokens(["x"]), Value.tokens(["y"])
    g = (EdgeRecord("k", {"a": x}, {"a": y}),)
    p = incidence_arrays(g, powerset_xy)
    assert p.e_out.row_keys == ("k",) and p.e_out.col_keys == ("a",)
    assert p.e_in.row_keys == ("k",) and p.e_in.col_keys == ("a",)


def test_incidence_rejects_zero_weight(naturals):
    g = (EdgeRecord("k", {"a": Value.number(0)}, {"b": ONE}),)
    with pytest.raises(ValidationError, match="zero weight"):
        incidence_arrays(g, naturals)


@pytest.mark.parametrize(
    "graph, message",
    [
        ((EdgeRecord("k", {"a": Value.number(-1)}, {"b": ONE}),), "outside the carrier"),
        ((EdgeRecord("k", {"a": ONE}, {"b": Value.text("b")}),), "outside the carrier"),
        ((EdgeRecord("k", {"a\tb": ONE}, {"b": ONE}),), "tab or line break"),
        ((EdgeRecord("k", {"a": ONE}, {"b\tc": ONE}),), "tab or line break"),
        ((EdgeRecord("", {"a": ONE}, {"b": ONE}),), "non-empty string"),
        (simple_graph(("k", "a", "b"), ("k", "b", "c")), "duplicate edge key"),
        ((EdgeRecord("k", {}, {"b": ONE}),), "no sources"),
        ((EdgeRecord("k", {"a": ONE}, {}),), "no targets"),
    ],
    ids=[
        "source-weight", "target-weight", "source-tab", "target-tab", "empty-edge-key",
        "duplicate-edge-key", "no-sources", "no-targets",
    ],
)
def test_incidence_rejects_bad_graphs_built_in_code(naturals, graph, message):
    with pytest.raises(ValidationError, match=message):
        incidence_arrays(graph, naturals)


@pytest.mark.parametrize(
    "name",
    ["natural_arithmetic", "integer_ring", "max_plus_realzero"]
    + sorted(path.stem for path in DATA_DIR.glob("*.alg")),
)
def test_incidence_equals_the_triples_construction(name):
    alg = load_algebra_file(name) if (DATA_DIR / f"{name}.alg").exists() else make_builtin(name)
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(alg, rng)
        p = incidence_arrays(g, alg)
        for arr, side in ((p.e_out, "sources"), (p.e_in, "targets")):
            triples = [(e.key, v, w) for e in g for v, w in getattr(e, side).items()]
            assert arr == from_triples(triples, alg)
            check_invariants(arr, alg)


def test_incidence_sorts_unsorted_edges_and_sides(naturals):
    # edge keys out of order, and hyperedge sides listing vertices out of order
    g = (
        EdgeRecord("k3", {"c": ONE, "a": Value.number(2)}, {"b": ONE}),
        EdgeRecord("k1", {"b": ONE}, {"d": Value.number(3), "a": ONE, "c": ONE}),
        EdgeRecord("k2", {"d": ONE}, {"a": Value.number(4)}),
    )
    for build in (incidence_arrays, _incidence_pair):
        p = build(g, naturals)
        for arr, side in ((p.e_out, "sources"), (p.e_in, "targets")):
            expected = from_triples(
                [(e.key, v, w) for e in g for v, w in getattr(e, side).items()], naturals
            )
            assert arr == expected
            assert list(arr) == list(expected)
            check_invariants(arr, naturals)


def test_incidence_does_not_alias_the_graph(naturals):
    sources, targets = {"a": ONE}, {"b": ONE}
    p = incidence_arrays((EdgeRecord("k", sources, targets),), naturals)
    before = (list(p.e_out), list(p.e_in))
    sources["c"] = ONE
    targets["b"] = Value.number(5)
    assert (list(p.e_out), list(p.e_in)) == before


def test_incidence_reports_the_first_fault_in_reading_order(naturals):
    # Edges in order; in each, the key, then sources before targets, and per
    # side its emptiness before each vertex's key, carrier and zero checks.
    g = (
        EdgeRecord("k1", {"a": ONE}, {"b": ONE}),
        EdgeRecord("k2", {"a": Value.number(-1)}, {}),
        EdgeRecord("k1", {"a\tb": ONE}, {"b": ONE}),
    )
    with pytest.raises(ValidationError) as exc_info:
        incidence_arrays(g, naturals)
    assert str(exc_info.value) == (
        "edge 'k2' weight -1 at 'a' is outside the carrier of natural_arithmetic"
    )
    # a bad source vertex comes before the empty target side
    bad_source = (g[0], EdgeRecord("k2", {"a\tb": ONE}, {}), g[2])
    with pytest.raises(ValidationError, match=r"^key 'a\\tb' contains a tab"):
        incidence_arrays(bad_source, naturals)


def test_adjacency_of_path(naturals):
    p = incidence_arrays(PATH, naturals)
    adj = adjacency(p, naturals)
    assert support(adj) == {("a", "b"), ("b", "c")}
    assert support(adj) == adjacency_oracle(p)


def test_reverse_swaps_and_involutes():
    g = PATH
    r = reverse(g)
    assert r[0].sources == {"b": ONE} and r[0].targets == {"a": ONE}
    assert reverse(r) == g


def test_reverse_adjacency_of_path(naturals):
    p = incidence_arrays(PATH, naturals)
    assert support(reverse_adjacency(p, naturals)) == {("b", "a"), ("c", "b")}


def test_reverse_adjacency_symmetric_digraph(naturals):
    g = simple_graph(("e1", "a", "b"), ("e2", "b", "a"))
    p = incidence_arrays(g, naturals)
    assert support(reverse_adjacency(p, naturals)) == support(adjacency(p, naturals))


def test_parallel_edges_fold_in_string_order_of_their_keys(noncommutative):
    # A scan finds noncommutative's zero inert, so both products fold stored
    # pairs alone.  Its plus keeps the first nonzero operand and times keeps
    # the second, so the entry is the term of the edge key that sorts first
    # as a string: "k10" before "k2".
    assert _zero_is_inert(noncommutative)
    p, q = noncommutative.decode("p"), noncommutative.decode("q")
    g = (EdgeRecord("k2", {"x": q}, {"y": q}), EdgeRecord("k10", {"x": p}, {"y": p}))
    pair = incidence_arrays(g, noncommutative)
    assert entries_of(adjacency(pair, noncommutative)) == {("x", "y"): p}
    assert entries_of(reverse_adjacency(pair, noncommutative)) == {("y", "x"): p}


def test_empty_graph_everything_empty(naturals):
    p = incidence_arrays((), naturals)
    assert adjacency(p, naturals) == empty()
    assert reverse_adjacency(p, naturals) == empty()
    assert adjacency_oracle(p) == frozenset()


def test_oracle_on_hyperedge(naturals):
    g = (EdgeRecord("k", {"a": ONE, "b": ONE}, {"c": ONE}),)
    p = incidence_arrays(g, naturals)
    assert adjacency_oracle(p) == {("a", "c"), ("b", "c")}
    assert support(adjacency(p, naturals)) == {("a", "c"), ("b", "c")}


def test_oracle_skips_an_edge_the_in_incidence_lacks(naturals):
    # a hand-built pair: k2 leaves b but enters nothing
    p = IncidencePair(
        e_out=from_triples([("k1", "a", ONE), ("k2", "b", ONE)], naturals),
        e_in=from_triples([("k1", "c", ONE)], naturals),
    )
    assert adjacency_oracle(p) == {("a", "c")}


def test_oracle_never_calls_the_operations():
    def trap(a, b):
        raise AssertionError("oracle invoked an algebra operation")

    trap_alg = Algebra(
        name="trap",
        zero=Value.number(0),
        one=ONE,
        plus_op=trap,
        times_op=trap,
        contains_op=lambda v: True,
        decode_op=Value.text,
    )
    p = incidence_arrays(PATH, trap_alg)
    assert adjacency_oracle(p) == {("a", "b"), ("b", "c")}


def test_random_graph_is_deterministic_and_valid(naturals):
    g1 = random_graph(naturals, random.Random(42))
    g2 = random_graph(naturals, random.Random(42))
    assert g1 == g2
    incidence_arrays(g1, naturals)
    for edge in g1:
        for w in (*edge.sources.values(), *edge.targets.values()):
            assert w != naturals.zero


# --- set-valued document arrays ---------------------------------------------

DOCS = {"d1": ["apple", "pear"], "d2": ["pear", "plum"]}


def test_shared_words_array_worked_example():
    E = shared_words_array(DOCS)
    assert list(E) == [
        ("d1", "d1", Value.tokens(["apple", "pear"])),
        ("d1", "d2", Value.tokens(["pear"])),
        ("d2", "d1", Value.tokens(["pear"])),
        ("d2", "d2", Value.tokens(["pear", "plum"])),
    ]


def test_word_consistency_holds_by_construction():
    assert check_word_consistency(shared_words_array(DOCS)) is None


def test_word_consistency_empty_array():
    assert check_word_consistency(empty()) is None


def test_word_consistency_reports_first_violation(powerset_xy):
    w = Value.tokens(["x"])
    E = from_triples([("d1", "d2", w), ("d3", "d4", w)], powerset_xy)
    violation = check_word_consistency(E)
    assert violation == WordOverlapViolation("d1", "d2", "d3", "d4", "x")


def test_word_consistency_rejects_non_set_values(naturals):
    E = from_triples([("a", "b", Value.number(3))], naturals)
    with pytest.raises(DomainError):
        check_word_consistency(E)


def brute_force_word_consistency(E):
    """The rectangle property by definition: the least (i, j, m, n, word)
    over every pair of a word's coordinates, quadratic in its entries."""
    occurrences = {}
    for r, c, v in E:
        if type(v) is not tuple:
            raise DomainError(f"entry ({r}, {c}) holds {v!r}, not a token set")
        for word in v:
            occurrences.setdefault(word, set()).add((r, c))
    earliest = min(
        (
            (i, j, m, n, word)
            for word, coords in occurrences.items()
            if len(coords) != len({r for r, _ in coords}) * len({c for _, c in coords})
            for (i, j) in coords
            for (m, n) in coords
            if (i, n) not in coords
        ),
        default=None,
    )
    return None if earliest is None else WordOverlapViolation(*earliest)


# Holds token sets and numbers alike, so a non-set entry can sit in a corpus.
ANY_VALUE = Algebra(
    name="any",
    zero=Value.tokens([]),
    one=Value.tokens([]),
    plus_op=lambda a, b: a,
    times_op=lambda a, b: a,
    contains_op=lambda v: True,
    decode_op=Value.text,
)


def outcome(check, E):
    try:
        return check(E)
    except DomainError as exc:
        return f"DomainError: {exc}"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_word_consistency_matches_brute_force(data):
    words = st.sampled_from("wxyz")
    docs = data.draw(st.dictionaries(
        st.sampled_from(["d1", "d2", "d3", "d4", "d5"]), st.sets(words, max_size=3),
        min_size=1, max_size=5,
    ))
    entries = {(i, j): set(docs[i] & docs[j]) for i in docs for j in docs}
    # A hand perturbation toggles a word at a coordinate.
    for _ in range(data.draw(st.integers(0, 6))):
        entries[data.draw(st.sampled_from(sorted(entries)))] ^= {data.draw(words)}
    values = {coord: Value.tokens(ws) for coord, ws in entries.items()}
    if data.draw(st.integers(0, 4)) == 0:
        values[data.draw(st.sampled_from(sorted(values)))] = Value.number(7)
    E = from_triples([(i, j, v) for (i, j), v in values.items()], ANY_VALUE)
    assert outcome(check_word_consistency, E) == outcome(brute_force_word_consistency, E)


def test_word_consistency_is_fast_on_one_shared_word():
    # One word in all 200 x 200 entries but one: 39,999 coordinates, which the
    # pairwise definition would compare about 1.6 billion times.
    docs = [f"d{i:03d}" for i in range(200)]
    w = Value.tokens(["w"])
    E = from_triples(
        [(i, j, w) for i in docs for j in docs if (i, j) != ("d000", "d001")], ANY_VALUE
    )
    start = time.perf_counter()
    violation = check_word_consistency(E)
    assert time.perf_counter() - start < 10
    assert violation == WordOverlapViolation("d000", "d000", "d001", "d001", "w")


def test_document_adjacency_worked_example():
    alg = make_builtin("powerset", universe=["apple", "pear", "plum"])
    D = document_adjacency(shared_words_array(DOCS), alg)
    assert list(D) == [
        ("d1", "d1", Value.tokens(["apple", "pear"])),
        ("d1", "d2", Value.tokens(["pear"])),
        ("d2", "d1", Value.tokens(["pear"])),
        ("d2", "d2", Value.tokens(["pear", "plum"])),
    ]


def test_document_adjacency_single_document():
    E = shared_words_array({"d1": ["a"]})
    alg = make_builtin("powerset", universe=["a"])
    assert list(document_adjacency(E, alg)) == [("d1", "d1", Value.tokens(["a"]))]


def test_document_adjacency_disjoint_documents():
    E = shared_words_array({"d1": ["only1"], "d2": ["only2"]})
    D = document_adjacency(E, make_builtin("powerset", universe=["only1", "only2"]))
    assert support(D) == {("d1", "d1"), ("d2", "d2")}


def test_document_adjacency_rejects_inconsistent_input(powerset_xy):
    w = Value.tokens(["x"])
    E = from_triples([("d1", "d2", w), ("d3", "d4", w)], powerset_xy)
    with pytest.raises(PreconditionError) as exc_info:
        document_adjacency(E, powerset_xy)
    assert str(exc_info.value) == "word 'x' appears at (d1, d2) and (d3, d4) but not at (d1, d4)"


@pytest.mark.parametrize(
    "alg, weight",
    [
        (make_builtin("max_plus_realzero"), Value.number(5)),
        (load_algebra_file("annihilator_right"), Value.text("v")),
        (make_builtin("natural_arithmetic"), None),
        (make_builtin("powerset", universe=["x", "y"]), None),
    ],
    ids=["max_plus_realzero", "annihilator_right", "natural_arithmetic", "powerset"],
)
def test_no_graph_product_builds_a_transpose(alg, weight, monkeypatch):
    # every graph product is X^T Y, and both loops read the inner keys as the
    # rows of X and Y; weight is a criterion 3 witness where there is one
    def refuse(arr):
        raise AssertionError("a graph product built a transpose")

    monkeypatch.setattr(assocarray.array, "transpose", refuse)
    pair = incidence_arrays(random_graph(alg, random.Random(1)), alg)
    assert pair.e_out.nnz
    adjacency(pair, alg, extra_sources=["iso"], extra_targets=["iso"])
    reverse_adjacency(pair, alg)
    if weight is not None:
        demonstrate(witness_annihilator(weight, alg), alg)
    if alg.name.startswith("powerset"):
        document_adjacency(shared_words_array({"d1": ["x", "y"], "d2": ["y"]}), alg)


# --- transpose identity ------------------------------------------------------


def test_transpose_identity_over_commutative_times(naturals):
    rng = random.Random(5)
    for _ in range(25):
        ts_a = [
            (f"r{rng.randint(0, 3)}", f"k{rng.randint(0, 3)}", Value.number(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 10))
        ]
        ts_b = [
            (f"k{rng.randint(0, 3)}", f"c{rng.randint(0, 3)}", Value.number(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 10))
        ]
        a, b = from_triples(ts_a, naturals), from_triples(ts_b, naturals)
        assert check_transpose_identity(a, b, naturals)


def test_transpose_identity_fails_without_commutativity(noncommutative):
    p, q = noncommutative.decode("p"), noncommutative.decode("q")
    a = from_triples([("r", "k", p)], noncommutative)
    b = from_triples([("k", "c", q)], noncommutative)
    assert not check_transpose_identity(a, b, noncommutative)


def test_transpose_identity_with_empty_operand(naturals):
    a = from_triples([("r", "k", ONE)], naturals)
    assert check_transpose_identity(a, empty(), naturals)
    assert check_transpose_identity(empty(), a, naturals)
