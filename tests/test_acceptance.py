"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``acceptance: <label>: PASS|FAIL`` line on the real terminal, bypassing
capture, so a plain pytest run yields a nine-line scoreboard.  Expected
values here are either computed by independent brute force inside the
test or frozen as literals after hand derivation; none are produced by
the code under test.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from assocarray import (
    Value,
    adjacency,
    adjacency_oracle,
    check_word_consistency,
    demonstrate,
    document_adjacency,
    from_triples,
    incidence_arrays,
    make_builtin,
    matmul,
    parse_set_triples,
    parse_triples,
    reverse_adjacency,
    serialize_triples,
    shared_words_array,
    support,
    transpose,
    validate,
    witness_additive_inverse,
    witness_annihilator,
    witness_zero_product,
)
from assocarray.algebra import (
    CHECK_CRITERION1,
    CHECK_CRITERION2,
    CHECK_CRITERION3,
    CHECK_IDENTITY,
)
from assocarray.cli import main
from assocarray.values import TOP_PAYLOAD
from conftest import (
    CERTIFIED_SPECS,
    CORPUS_GRAPHS_PER_ALGEBRA,
    check_transpose_identity,
    dense_matmul,
    entries_of,
    load_algebra_file,
    reversed_oracle,
    stored_pairs_matmul,
)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(label):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"acceptance: {label}: {'PASS' if ok else 'FAIL'}", flush=True)

    return _announce


def test_corpus_adjacency_matches_oracle(announce, certified_corpus):
    with announce("adjacency support equals enumeration oracle on the certified corpus"):
        assert len(certified_corpus.entries) == len(CERTIFIED_SPECS)
        for alg, bucket in certified_corpus.entries.values():
            assert len(bucket) == CORPUS_GRAPHS_PER_ALGEBRA
            for entry in bucket:
                assert support(entry.adj) == entry.oracle, alg.name
        assert certified_corpus.forward_seconds < 30.0


def test_corpus_reverse_adjacency_matches_reversed_oracle(announce, certified_corpus):
    with announce("reverse adjacency equals the reversed graph's oracle on the corpus"):
        for alg, bucket in certified_corpus.entries.values():
            for entry in bucket:
                rev = support(reverse_adjacency(entry.graph, alg))
                flipped = frozenset((y, x) for x, y in entry.oracle)
                assert rev == flipped, alg.name
                assert reversed_oracle(entry) == flipped, alg.name


def test_witness_graphs_produce_predicted_mismatches(announce):
    with announce("witness graphs produce exactly the predicted adjacency mismatches"):
        integers = make_builtin("integer_ring")
        reports = [
            demonstrate(
                witness_additive_inverse(Value.number(1), Value.number(-1), integers),
                integers,
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert reports[0].missing == (("a", "b", Value.number(0)),)
        assert reports[0].spurious == ()
        assert reports[0].oracle == frozenset({("a", "b")})

        powerset = make_builtin("powerset", universe=["x", "y"])
        reports = [
            demonstrate(
                witness_zero_product(Value.tokens(["x"]), Value.tokens(["y"]), powerset),
                powerset,
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert reports[0].missing == (("a", "a", Value.tokens([])),)
        assert reports[0].spurious == ()
        assert reports[0].oracle == frozenset({("a", "a")})

        right = load_algebra_file("annihilator_right")
        v = right.decode("v")
        reports = [demonstrate(witness_annihilator(v, right), right) for _ in range(2)]
        assert reports[0] == reports[1]
        assert reports[0].missing == ()
        assert reports[0].spurious == (("a", "b", v),)
        assert reports[0].oracle == frozenset({("a", "a")})

        left = load_algebra_file("annihilator_left")
        report = demonstrate(witness_annihilator(left.decode("v"), left), left)
        assert report.missing == ()
        assert report.spurious == (("b", "a", left.decode("v")),)


def _brute_force_laws(alg, probes):
    """Raw loops straight over the operations on natives, no checker machinery."""
    zero, one = alg.lower(alg.zero), alg.lower(alg.one)
    probes = [alg.lower(v) for v in probes]
    identity = all(
        alg.plus_op(zero, v) == v
        and alg.plus_op(v, zero) == v
        and alg.times_op(one, v) == v
        and alg.times_op(v, one) == v
        for v in probes
    )
    no_inverses = not any(
        v != zero and w != zero and alg.plus_op(v, w) == zero
        for v in probes
        for w in probes
    )
    zero_product = not any(
        v != zero and w != zero and alg.times_op(v, w) == zero
        for v in probes
        for w in probes
    )
    annihilates = all(
        alg.times_op(zero, v) == zero and alg.times_op(v, zero) == zero for v in probes
    )
    return identity, no_inverses, zero_product, annihilates


def test_classification_matrix(announce):
    # (identity, criterion1, criterion2, criterion3, certified)
    expected = {
        "natural_arithmetic": (True, True, True, True, True),
        "nonneg_rational_arithmetic": (True, True, True, True, True),
        "max_min_chain(2)": (True, True, True, True, True),
        "max_min_chain(3)": (True, True, True, True, True),
        "max_min_chain(4)": (True, True, True, True, True),
        "max_min_chain(5)": (True, True, True, True, True),
        "boolean_or_and": (True, True, True, True, True),
        "max_min_strings": (True, True, True, True, True),
        "integer_ring": (True, False, True, True, False),
        "max_plus_realzero": (False, True, False, False, False),
        "powerset({x,y})": (True, True, False, True, False),
        "annihilator_right": (True, True, True, False, False),
    }
    probe_ranges = {
        "natural_arithmetic": [Value.number(i) for i in range(7)],
        "nonneg_rational_arithmetic": [
            Value.number(Fraction(p, q)) for p in range(5) for q in range(1, 5)
        ],
        "integer_ring": [Value.number(i) for i in range(-3, 4)],
        "max_plus_realzero": [Value.number(i) for i in range(-3, 4)],
        "max_min_strings": [
            Value.text(""),
            Value.text("a"),
            Value.text("b"),
            Value.text("a0"),
            Value.text("zz"),
            TOP_PAYLOAD,
        ],
    }
    instances = [
        make_builtin("natural_arithmetic"),
        make_builtin("nonneg_rational_arithmetic"),
        make_builtin("max_min_chain", levels=2),
        make_builtin("max_min_chain", levels=3),
        make_builtin("max_min_chain", levels=4),
        make_builtin("max_min_chain", levels=5),
        make_builtin("boolean_or_and"),
        make_builtin("max_min_strings"),
        make_builtin("integer_ring"),
        make_builtin("max_plus_realzero"),
        make_builtin("powerset", universe=["x", "y"]),
        load_algebra_file("annihilator_right"),
    ]
    with announce("criteria classification matches independent brute force on all builtins"):
        assert {alg.name for alg in instances} == set(expected)
        for alg in instances:
            probes = list(alg.carrier) if alg.is_finite else probe_ranges[alg.name]
            brute = _brute_force_laws(alg, probes)
            report = validate(alg)
            checked = tuple(verdict.passed for verdict in report.verdicts.values())
            assert brute == checked == expected[alg.name][:4], alg.name
            assert report.certified == expected[alg.name][4], alg.name
        # the failing checks carry the documented witnesses
        assert validate(make_builtin("integer_ring")).verdicts[CHECK_CRITERION1].witness == (
            Value.number(1),
            Value.number(-1),
        )
        mp = validate(make_builtin("max_plus_realzero"))
        assert mp.verdicts[CHECK_IDENTITY].witness == (Value.number(-1),)
        assert mp.verdicts[CHECK_CRITERION2].witness == (Value.number(5), Value.number(-5))
        assert mp.verdicts[CHECK_CRITERION3].witness == (Value.number(5),)
        ps = validate(make_builtin("powerset", universe=["x", "y"]))
        assert ps.verdicts[CHECK_CRITERION2].witness == (Value.tokens(["x"]), Value.tokens(["y"]))


def test_document_adjacency_over_random_corpora(announce):
    with announce("document adjacency reproduces pairwise shared-word sets on 200 corpora"):
        rng = random.Random(5)
        vocab = [f"w{i:02d}" for i in range(12)]
        # One powerset over the whole vocabulary serves every corpus: the
        # operations on a corpus's token sets do not depend on the universe.
        vocab_alg = make_builtin("powerset", universe=vocab)
        for _ in range(200):
            docs = {
                f"d{i}": frozenset(rng.sample(vocab, rng.randint(0, 6)))
                for i in range(rng.randint(1, 6))
            }
            shared = shared_words_array(docs)
            assert check_word_consistency(shared) is None
            adj = document_adjacency(shared, vocab_alg)
            expected_support = {
                (i, j) for i in docs for j in docs if docs[i] & docs[j]
            }
            assert support(adj) == expected_support
            for i, j, v in adj:
                assert v == Value.tokens(docs[i] & docs[j])
            assert adj == shared

        # worked example: two documents sharing one word
        docs = {"d1": {"apple", "pear"}, "d2": {"pear", "plum"}}
        alg = make_builtin("powerset", universe=["apple", "pear", "plum"])
        adj = document_adjacency(shared_words_array(docs), alg)
        assert list(adj) == [
            ("d1", "d1", Value.tokens(["apple", "pear"])),
            ("d1", "d2", Value.tokens(["pear"])),
            ("d2", "d1", Value.tokens(["pear"])),
            ("d2", "d2", Value.tokens(["pear", "plum"])),
        ]

        # overlap is not transitive: the d1/d3 fold hits an empty
        # intersection mid-product and correctly stores nothing
        docs = {"d1": {"a"}, "d2": {"a", "b"}, "d3": {"b"}}
        alg = make_builtin("powerset", universe=["a", "b"])
        adj = document_adjacency(shared_words_array(docs), alg)
        sup = support(adj)
        assert ("d1", "d2") in sup and ("d2", "d3") in sup
        assert ("d1", "d3") not in sup and ("d3", "d1") not in sup


def _random_natural_array(rng, row_pool, col_pool, alg):
    triples = [
        (r, c, Value.number(rng.randint(0, 5)))
        for r in row_pool
        for c in col_pool
        if rng.random() < 0.6
    ]
    return from_triples(triples, alg)


def test_transpose_product_identity(announce):
    naturals = make_builtin("natural_arithmetic")
    with announce("transpose-of-product identity holds for 100 random commutative instances"):
        rng = random.Random(6)
        rows = ["r1", "r2", "r3", "r4"]
        mids = ["k1", "k2", "k3"]
        cols = ["c1", "c2", "c3", "c4"]
        for _ in range(100):
            a = _random_natural_array(rng, rows, mids, naturals)
            b = _random_natural_array(rng, mids, cols, naturals)
            assert check_transpose_identity(a, b, naturals)

        nc = load_algebra_file("noncommutative")
        p, q = nc.decode("p"), nc.decode("q")
        a = from_triples([("a", "k", p)], nc)
        b = from_triples([("k", "b", q)], nc)
        assert not check_transpose_identity(a, b, nc)


def test_fold_order_is_deterministic_and_ascending(announce, golden_dir):
    nc = load_algebra_file("noncommutative")
    p, q = nc.decode("p"), nc.decode("q")
    with announce("fold order over a non-commutative combiner is fixed and ascending"):
        # first-nonzero-wins combining makes the term order observable
        assert nc.plus(p, q) == p
        assert nc.plus(q, p) == q
        left = [("a", "k1", p), ("a", "k2", q)]
        right = [("k1", "b", p), ("k2", "b", q)]
        results = []
        for _ in range(10):
            a = from_triples(left, nc)
            b = from_triples(right, nc)
            results.append(matmul(a, b, nc))
        assert all(r == results[0] for r in results)
        # construction order of the triples must not leak into the fold
        shuffled = matmul(
            from_triples(list(reversed(left)), nc),
            from_triples(list(reversed(right)), nc),
            nc,
        )
        assert shuffled == results[0]
        golden = (golden_dir / "fold_order.tsv").read_text()
        assert serialize_triples(results[0]) == golden


def test_zero_skipping_product_equivalence_and_divergence(announce, certified_corpus):
    with announce("zero-skipping product is exact on the corpus, diverges without annihilation"):
        for alg, bucket in certified_corpus.entries.values():
            for entry in bucket:
                # zero is inert in every certified algebra, so the product
                # runs over stored pairs alone wherever that is proved
                a, b = entries_of(transpose(entry.pair.e_out)), entries_of(entry.pair.e_in)
                assert entries_of(entry.adj) == dense_matmul(a, b, alg), alg.name

        mp = make_builtin("max_plus_realzero")
        wc = witness_annihilator(Value.number(5), mp)
        pair = incidence_arrays(wc.graph)
        full = adjacency(wc.graph, mp, extra_targets=wc.extra_target_vertices)
        stored = stored_pairs_matmul(
            entries_of(transpose(pair.e_out)), entries_of(pair.e_in), mp
        )
        oracle = adjacency_oracle(pair)
        assert support(full) == {("a", "a"), ("a", "b")}
        assert set(stored) == oracle == {("a", "a")}


def test_cli_golden_outputs_and_round_trips(announce, capsys, data_dir, golden_dir):
    naturals = make_builtin("natural_arithmetic")
    runs = [
        (
            ["adjacency", "--algebra", "natural",
             "--input", str(data_dir / "path.edges")],
            "adjacency_path_natural.tsv",
            0,
        ),
        (
            ["reverse-adjacency", "--algebra", "natural",
             "--input", str(data_dir / "path.edges")],
            "reverse_path_natural.tsv",
            0,
        ),
        (["validate", "--algebra", "natural"], "validate_natural.txt", 0),
        (
            ["validate", "--algebra", "powerset", "--universe", "x,y"],
            "validate_powerset.txt",
            1,
        ),
        (
            ["witness", "2", "--algebra", "powerset", "--universe", "x,y"],
            "witness2_powerset.txt",
            0,
        ),
        (
            ["witness", "3", "--algebra", str(data_dir / "annihilator_right.alg")],
            "witness3_annihilator.txt",
            0,
        ),
        (
            ["doc-adjacency", "--input", str(data_dir / "docs.triples")],
            "doc_adjacency.tsv",
            0,
        ),
    ]
    with announce("command line output is byte-identical to goldens and round-trips"):
        for argv, golden_name, expected_code in runs:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == expected_code, argv
            assert out.encode("utf-8") == (golden_dir / golden_name).read_bytes(), argv

        adjacency_bytes = (golden_dir / "adjacency_path_natural.tsv").read_bytes()
        parsed = parse_triples(adjacency_bytes.decode("utf-8"), naturals)
        arr = from_triples(parsed, naturals)
        assert serialize_triples(arr).encode("utf-8") == adjacency_bytes

        doc_bytes = (golden_dir / "doc_adjacency.tsv").read_bytes()
        doc_triples = parse_set_triples(doc_bytes.decode("utf-8"))
        universe = sorted({t for _, _, v in doc_triples for t in v})
        doc_arr = from_triples(doc_triples, make_builtin("powerset", universe=universe))
        assert serialize_triples(doc_arr).encode("utf-8") == doc_bytes
