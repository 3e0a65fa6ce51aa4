import contextlib
import io
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocarray import cli, graph
from assocarray.algebra import make_builtin
from assocarray.array import from_triples
from assocarray.cli import main
from assocarray.criteria import CHECK_LABELS, check, validate
from assocarray.errors import PreconditionError
from assocarray.fileio import (
    ParseError,
    parse_edge_list,
    parse_finite_algebra,
    parse_set_triples,
    serialize_triples,
)
from assocarray.graph import adjacency, document_adjacency, reverse_adjacency
from assocarray.values import Value
from conftest import check_invariants
from test_criteria import _golden_algebras

REPO_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_DIR / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_adjacency_path_over_naturals(capsys, data_dir, golden_dir):
    code, out, err = run(
        capsys, "adjacency", "--algebra", "natural", "--input", str(data_dir / "path.edges")
    )
    assert code == 0
    assert out == (golden_dir / "adjacency_path_natural.tsv").read_text()
    assert "vertices=3 edges=2 nonzeros=2" in err
    assert "warning" not in err


def test_adjacency_warns_for_uncertified_algebra(capsys, data_dir):
    code, out, err = run(
        capsys, "adjacency", "--algebra", "integer-ring",
        "--input", str(data_dir / "cancelling.edges"),
    )
    assert code == 0
    assert out == ""  # the parallel edges cancel
    assert "criterion 1 fail" in err
    assert "nonzeros=0" in err


# Every builtin family and every table in tests/data, each with a small edge
# file of legal weights: the selector flags, then two nonzero weights.
ADJACENCY_WARNING_CASES = [
    (["--algebra", "natural"], "2", "3"),
    (["--algebra", "rational"], "1/2", "3"),
    (["--algebra", "integer_ring"], "1", "-1"),
    (["--algebra", "max_plus_realzero"], "5", "-5"),
    (["--algebra", "strings"], "abc", "<TOP>"),
    (["--algebra", "boolean"], "1", "1"),
    (["--algebra", "max_min_chain", "--levels", "2"], "1", "1"),
    (["--algebra", "max_min_chain", "--levels", "5"], "2", "4"),
    (["--algebra", "powerset", "--universe", "a"], "{a}", "{a}"),
    (["--algebra", "powerset", "--universe", "x,y"], "{x}", "{y}"),
    (["--algebra", "powerset", "--universe", ",".join(f"t{n}" for n in range(13))],
     "{t0}", "{t1}"),
    (["--algebra", "annihilator_left.alg"], "v", "1"),
    (["--algebra", "annihilator_right.alg"], "v", "1"),
    (["--algebra", "bool_or_and.alg"], "1", "1"),
    (["--algebra", "identity_violating.alg"], "v", "v"),
    (["--algebra", "noncommutative.alg"], "p", "q"),
    (["--algebra", "xor_and.alg"], "1", "1"),
]


def adjacency_warnings(capsys, data_dir, tmp_path):
    """stderr and exit code of both adjacency subcommands over every case."""
    chunks = []
    edges = tmp_path / "weights.edges"
    for flags, v, w in ADJACENCY_WARNING_CASES:
        edges.write_text(f"e1\ta\tb\t{v}\t{w}\ne2\ta\tb\t{w}\t{v}\ne3\tb\tc\t{v}\t{v}\n")
        table = flags[1].endswith(".alg")
        argv = ["--algebra", str(data_dir / flags[1])] if table else flags
        for cmd in ("adjacency", "reverse-adjacency"):
            code, _, err = run(capsys, cmd, *argv, "--input", str(edges))
            chunks.append(f"$ {cmd} {' '.join(flags)}\nexit {code}\n{err}")
    return "".join(chunks)


def test_adjacency_warnings_match_golden(capsys, data_dir, golden_dir, tmp_path):
    assert adjacency_warnings(capsys, data_dir, tmp_path) == (
        golden_dir / "adjacency_warnings.txt"
    ).read_text()


def test_reverse_adjacency_path(capsys, data_dir, golden_dir):
    code, out, _ = run(
        capsys, "reverse-adjacency", "--algebra", "natural",
        "--input", str(data_dir / "path.edges"),
    )
    assert code == 0
    assert out == (golden_dir / "reverse_path_natural.tsv").read_text()


def test_reverse_adjacency_empty_input(capsys, tmp_path):
    empty_file = tmp_path / "empty.edges"
    empty_file.write_text("")
    code, out, _ = run(
        capsys, "reverse-adjacency", "--algebra", "natural", "--input", str(empty_file)
    )
    assert code == 0
    assert out == ""


@pytest.mark.parametrize(
    "command, expected", [("adjacency", "x\ty\tp\n"), ("reverse-adjacency", "y\tx\tp\n")]
)
def test_order_sensitive_plus_folds_by_ascending_edge_key(
    capsys, data_dir, tmp_path, command, expected
):
    # noncommutative's plus keeps its first nonzero operand and is no proved
    # semigroup: k10 sorts before k2, so its term p wins though k2 is listed first
    edges = tmp_path / "order.edges"
    edges.write_text("k2\tx\ty\tq\tq\nk10\tx\ty\tp\tp\n")
    code, out, _ = run(
        capsys, command, "--algebra", str(data_dir / "noncommutative.alg"), "--input", str(edges)
    )
    assert (code, out) == (0, expected)


def test_symmetric_digraph_support_matches_forward(capsys, tmp_path):
    edges = tmp_path / "sym.edges"
    edges.write_text("e1\ta\tb\ne2\tb\ta\n")
    _, forward, _ = run(capsys, "adjacency", "--algebra", "natural", "--input", str(edges))
    _, backward, _ = run(
        capsys, "reverse-adjacency", "--algebra", "natural", "--input", str(edges)
    )
    support = lambda text: {tuple(line.split("\t")[:2]) for line in text.splitlines()}
    assert support(forward) == support(backward)


def test_validate_certified_algebra(capsys, golden_dir):
    code, out, err = run(capsys, "validate", "--algebra", "natural")
    assert code == 0
    assert out == (golden_dir / "validate_natural.txt").read_text()
    assert "certified: yes" in err


def test_validate_powerset_fails_criterion_2(capsys, golden_dir):
    code, out, err = run(
        capsys, "validate", "--algebra", "powerset", "--universe", "x,y"
    )
    assert code == 1
    assert out == (golden_dir / "validate_powerset.txt").read_text()
    assert "zero-product property" in err


def test_validate_large_powerset_is_not_certified(capsys):
    # Enumerated up to 12 tokens, sampled beyond: 1000 draws over 60 tokens
    # miss every disjoint pair, so criterion 2 fails on the known pair.
    universe = ",".join(f"t{i}" for i in range(60))
    code, out, err = run(capsys, "validate", "--algebra", "powerset", "--universe", universe)
    assert code == 1
    assert "criterion2\tfail\t{t0}\t{t1}\n" in out
    assert out.endswith("certified\tfalse\n")
    assert "certified: no" in err


def test_witness_criterion_2_large_powerset(capsys):
    universe = ",".join(f"t{i}" for i in range(60))
    code, out, err = run(capsys, "witness", "2", "--algebra", "powerset", "--universe", universe)
    assert code == 0
    assert "k\ta\ta\t{t0}\t{t1}\n" in out
    assert out.endswith("# mismatch\nmissing\ta\ta\t{}\n")
    assert "self-loop" in err


def test_validate_finite_algebra_file(capsys, data_dir):
    code, out, _ = run(capsys, "validate", "--algebra", str(data_dir / "bool_or_and.alg"))
    assert code == 0
    assert "certified\ttrue" in out


def test_validate_ragged_table_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("elements: 0,1\nzero: 0\none: 1\nplus:\n0,1\n1\ntimes:\n0,0\n0,1\n")
    code, out, err = run(capsys, "validate", "--algebra", str(bad))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_witness_criterion_2_powerset(capsys, golden_dir):
    code, out, err = run(
        capsys, "witness", "2", "--algebra", "powerset", "--universe", "x,y"
    )
    assert code == 0
    assert out == (golden_dir / "witness2_powerset.txt").read_text()
    assert "self-loop" in err


def test_witness_criterion_1_integer_ring(capsys):
    code, out, _ = run(capsys, "witness", "1", "--algebra", "integer_ring")
    assert code == 0
    assert "missing\ta\tb\t0" in out
    assert "k1\ta\tb\t1\t1" in out
    assert "k2\ta\tb\t-1\t1" in out


def test_witness_criterion_3_from_table_file(capsys, data_dir, golden_dir):
    code, out, _ = run(
        capsys, "witness", "3", "--algebra", str(data_dir / "annihilator_right.alg")
    )
    assert code == 0
    assert out == (golden_dir / "witness3_annihilator.txt").read_text()


TABLE_COMMANDS = (["validate"], ["witness", "1"], ["witness", "2"], ["witness", "3"])


def validate_tables(capsys, data_dir):
    """validate and the three witnesses on every table in tests/data: per
    call a `=== <file> <command>: exit <code>` line, stdout, then stderr
    after a `--- stderr` line."""
    chunks = []
    for path in sorted(data_dir.glob("*.alg")):
        for command in TABLE_COMMANDS:
            code, out, err = run(capsys, *command, "--algebra", str(path))
            chunks.append(f"=== {path.name} {' '.join(command)}: exit {code}\n{out}--- stderr\n{err}")
    return "".join(chunks)


def test_table_verdicts_and_witnesses_match_golden(capsys, data_dir, golden_dir):
    assert validate_tables(capsys, data_dir) == (golden_dir / "validate_tables.txt").read_text()


def two_element_table(tmp_path, times, one="1", plus="0,1\n1,1"):
    """A table over {0, 1} with zero 0; plus defaults to or."""
    path = tmp_path / "two.alg"
    path.write_text(
        f"elements: 0,1\nzero: 0\none: {one}\nplus:\n{plus}\ntimes:\n{times}\n",
        encoding="utf-8",
    )
    return str(path)


# 0 times 0 is 1 in both; in the first, 0 times 1 is 1 as well.
@pytest.mark.parametrize("times", ["1,1\n0,1", "1,0\n0,1"])
def test_witness_criterion_3_from_a_zero_witness(capsys, tmp_path, times):
    alg = two_element_table(tmp_path, times)
    _, out, _ = run(capsys, "validate", "--algebra", alg)
    assert "criterion3\tfail\t0\n" in out
    code, out, err = run(capsys, "witness", "3", "--algebra", alg)
    assert code == 0
    assert out.startswith("# witness-edges\nk\ta\ta\t1\t1\n")
    assert "spurious\tb\tb\t1\n" in out
    assert err.startswith("self-loop k at a with weights 1 beside isolated vertex b; ")
    assert err.endswith("0 times 0 is nonzero, inventing (b, b)\n")


def test_witness_criterion_3_zero_witness_with_a_zero_one_takes_the_first_nonzero(
    capsys, tmp_path
):
    # one is zero too, so the self-loop is weighted 1, the first nonzero element
    alg = two_element_table(tmp_path, "1,0\n0,1", one="0")
    code, out, err = run(capsys, "witness", "3", "--algebra", alg)
    assert code == 0
    assert out == (
        "# witness-edges\nk\ta\ta\t1\t1\n# adjacency\na\ta\t1\nb\tb\t1\n"
        "# oracle\na\ta\n# mismatch\nspurious\tb\tb\t1\n"
    )
    assert err == (
        "self-loop k at a with weights 1 beside isolated vertex b; "
        "0 times 0 is nonzero, inventing (b, b)\n"
    )


def test_witness_criterion_1_needs_a_nonzero_one(capsys, tmp_path):
    # 1 plus 1 is 0, and one is zero: no nonzero in-weight exists.
    alg = two_element_table(tmp_path, "0,0\n0,1", one="0", plus="0,1\n1,0")
    code, out, err = run(capsys, "witness", "1", "--algebra", alg)
    assert (code, out) == (1, "")
    assert err == "construction needs a nonzero one for the in-weights\n"


def test_witness_criterion_1_needs_the_in_weights_to_keep_the_cancellation(capsys, tmp_path):
    # 1 plus 1 is 0, but times is constant 0, so one is no right identity:
    # the parallel edges' entry is 1*1 + 1*1 = 0 + 0 = 1, and nothing cancels.
    alg = two_element_table(tmp_path, "0,0\n0,0", plus="1,0\n0,0")
    code, out, err = run(capsys, "witness", "1", "--algebra", alg)
    assert (code, out) == (1, "")
    assert err == (
        "construction needs 1*1 + 1*1 to be zero for the in-weights, got 1 in two\n"
    )
    assert "Traceback" not in err and "InternalConsistencyError" not in err


def test_witness_refused_when_criterion_passes(capsys):
    code, out, err = run(capsys, "witness", "1", "--algebra", "natural")
    assert code == 1
    assert out == ""
    assert "no witness exists" in err


def test_doc_adjacency_worked_example(capsys, data_dir, golden_dir):
    code, out, _ = run(
        capsys, "doc-adjacency", "--input", str(data_dir / "docs.triples")
    )
    assert code == 0
    assert out == (golden_dir / "doc_adjacency.tsv").read_text()


def test_doc_adjacency_builds_one_powerset(capsys, data_dir, monkeypatch):
    built = []

    def counting_make_builtin(name, **params):
        built.append(name)
        return make_builtin(name, **params)

    monkeypatch.setattr("assocarray.cli.make_builtin", counting_make_builtin)
    monkeypatch.setattr("assocarray.graph.make_builtin", counting_make_builtin)
    code, _, _ = run(capsys, "doc-adjacency", "--input", str(data_dir / "docs.triples"))
    assert code == 0
    assert built == ["powerset"]


def test_doc_adjacency_inconsistent_input(capsys, data_dir):
    code, out, err = run(
        capsys, "doc-adjacency", "--input", str(data_dir / "docs_inconsistent.triples")
    )
    assert code == 1
    assert out == ""
    assert "'w'" in err and "(d1, d2)" in err and "(d3, d4)" in err


def test_doc_adjacency_empty_input(capsys, tmp_path):
    empty_file = tmp_path / "empty.triples"
    empty_file.write_text("")
    code, out, _ = run(capsys, "doc-adjacency", "--input", str(empty_file))
    assert code == 0
    assert out == ""


def token_set_text(words):
    return "{" + ",".join(sorted(words)) + "}"


@st.composite
def doc_triples_text_st(draw):
    """Shared-words lines of a few documents, some entries split over two
    lines that fold back by union, and the odd junk line or stray triple."""
    words = st.sets(st.sampled_from(["w1", "w2", "w3", "w4"]), max_size=3)
    docs = draw(st.dictionaries(st.sampled_from(["d1", "d2", "d10"]), words, max_size=3))
    lines = []
    for i in docs:
        for j in docs:
            shared = docs[i] & docs[j]
            part = draw(st.sets(st.sampled_from(sorted(shared)))) if shared else set()
            lines += [f"{i}\t{j}\t{token_set_text(part)}", f"{i}\t{j}\t{token_set_text(shared - part)}"]
    junk = st.sampled_from([
        "", "# a comment", "d1\td2", "d1\t#x\t{w1}", " \td1\t{w1}", "d1\td2\t{w2,w1}",
        "d1\td2\t{w1} ", "d2\td1\t{w4}", "d1\td2\t{w1}\t{w2}",
    ])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


@settings(max_examples=150, deadline=None)
@given(text=doc_triples_text_st())
def test_doc_adjacency_writes_what_the_checked_ingest_gives(text):
    # The CLI folds the parsed triples without re-checking them; the result,
    # or the refusal, must be the checked path's.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["doc-adjacency", "--input", path])
        try:
            triples = parse_set_triples(text, role=path)
        except ParseError as exc:
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue() == f"error: {exc}\n"
            assert f"line {exc.line_no}," in err.getvalue()
            return
    alg = make_builtin("powerset", universe=sorted({t for _, _, v in triples for t in v}))
    shared = from_triples(triples, alg)
    folded = {}  # duplicates fold by union
    for r, c, v in triples:
        folded[r, c] = folded.get((r, c), set()) | set(v)
    assert shared == from_triples([(r, c, Value.tokens(ws)) for (r, c), ws in folded.items()], alg)
    try:
        want = serialize_triples(document_adjacency(shared, alg))
    except PreconditionError:
        assert (code, out.getvalue()) == (1, "")
    else:
        assert (code, out.getvalue()) == (0, want)


@st.composite
def multigraph_text_st(draw, weights):
    """Edge lines of a multigraph over a few vertices, so that parallel edges
    are common: each edge states every source and target pair on its own
    line, in descending vertex order, so a hyperedge restates its endpoints;
    now and then a parallel copy of an edge, or a bad line."""
    vertices = st.sampled_from(["v9", "v10", "a", "b", "c"])
    side = st.dictionaries(vertices, st.sampled_from(weights), min_size=1, max_size=3)
    edges = [
        (key, draw(side), draw(side))
        for key in draw(st.lists(st.sampled_from(["e1", "e2", "e10", "k"]), unique=True))
    ]
    if edges and draw(st.booleans()):
        edges.append(("p", *edges[0][1:]))
    lines = [
        f"{key}\t{src}\t{dst}\t{sources[src]}\t{targets[dst]}"
        for key, sources, targets in edges
        for src in sorted(sources, reverse=True)
        for dst in sorted(targets, reverse=True)
    ]
    junk = st.sampled_from([
        "", "# a comment", "k1\t\tb", " #k\ta\tb", "k1\ta\tb\t0", "e1\tv9\tb\tx",
        f"e1\ta\tb\t{weights[0]}", f"e1\ta\tb\t{weights[-1]}\t{weights[-1]}",
    ])
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "".join(line + "\n" for line in lines)


ADJACENCY_CASES = [
    ("natural_arithmetic", ["1", "2", "3"]),
    ("max_min_strings", ["a", "b1", "<TOP>"]),
    ("integer_ring", ["1", "-1", "2"]),
    (str(REPO_DIR / "tests" / "data" / "annihilator_right.alg"), ["1", "v"]),  # the full fold
]


@pytest.mark.parametrize("command", ["adjacency", "reverse-adjacency"])
@pytest.mark.parametrize(
    "algebra, weights", ADJACENCY_CASES, ids=[Path(a).stem for a, _ in ADJACENCY_CASES]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adjacency_writes_what_the_checked_ingest_gives(command, algebra, weights, data):
    # The CLI's product reads the parsed graph's side maps: the triples, the
    # summary line, or the refusal must be the library path's, and no
    # incidence pair is built on the way.
    text = data.draw(multigraph_text_st(weights))
    argv = [command, "--algebra", algebra, "--input"]
    alg = cli.resolve_algebra(cli.build_parser().parse_args([*argv, "input"]))
    original, built = graph.IncidencePair, []

    def incidence_pair(*args):
        built.append(original(*args))
        return built[-1]

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "IncidencePair", incidence_pair)  # every incidence_arrays builds one
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, path])
    assert built == []
    try:
        g = parse_edge_list(text, alg, role=path)
    except ParseError as exc:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == f"error: {exc}\n"
        return
    adj = reverse_adjacency(g, alg) if command == "reverse-adjacency" else adjacency(g, alg)
    check_invariants(adj, alg)
    vertices = set().union(*g.sources.values(), *g.targets.values())
    assert (code, out.getvalue()) == (0, serialize_triples(adj))
    assert err.getvalue().splitlines()[-1] == (
        f"vertices={len(vertices)} edges={len(g.sources)} nonzeros={adj.nnz}"
    )


def test_missing_input_file_exits_2(capsys):
    code, _, err = run(
        capsys, "adjacency", "--algebra", "natural", "--input", "no_such_file.edges"
    )
    assert code == 2
    assert "error:" in err


def test_unknown_algebra_exits_2(capsys, data_dir):
    code, _, err = run(
        capsys, "adjacency", "--algebra", "unobtainium",
        "--input", str(data_dir / "path.edges"),
    )
    assert code == 2
    assert "neither a builtin algebra nor an existing file" in err


def test_chain_above_level_limit_exits_2(capsys):
    code, out, err = run(capsys, "validate", "--algebra", "max_min_chain", "--levels", "4097")
    assert code == 2
    assert out == ""
    assert "exceeds the limit of 4096" in err


def test_powerset_requires_universe(capsys, data_dir):
    code, _, err = run(
        capsys, "adjacency", "--algebra", "powerset",
        "--input", str(data_dir / "path.edges"),
    )
    assert code == 2
    assert "--universe" in err


def test_parse_failure_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("k1\ta\n")
    code, _, err = run(capsys, "adjacency", "--algebra", "natural", "--input", str(bad))
    assert code == 2
    assert "line 1" in err


def test_boolean_weight_outside_the_carrier_exits_2(capsys, tmp_path):
    # boolean_or_and is the two-level chain, so it decodes as one.
    bad = tmp_path / "bad.edges"
    bad.write_text("k1\ta\tb\t1\nk2\tb\tc\t2\n")
    code, out, err = run(capsys, "adjacency", "--algebra", "boolean", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}, line 2, out_value: '2' is not a level of boolean_or_and\n"


def test_non_utf8_input_exits_2_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"k1\ta\tb\n# note\nk2\tb\t\xffc\n")
    code, out, err = run(capsys, "adjacency", "--algebra", "natural", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert "line 3" in err and "UTF-8" in err
    assert "Traceback" not in err


def test_non_utf8_table_exits_2_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"elements: 0,1\nzero: 0\none: 1\nplus:\n0,1\n1,\xff\ntimes:\n0,0\n0,1\n")
    code, out, err = run(capsys, "validate", "--algebra", str(bad))
    assert code == 2
    assert out == ""
    assert "line 6" in err and "UTF-8" in err


def test_non_utf8_line_counts_every_line_break(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"k1\ta\tb\rk2\tb\tc\rk3\tc\t\xffd\r")
    code, out, err = run(capsys, "adjacency", "--algebra", "natural", "--input", str(bad))
    assert (code, out) == (2, "")
    assert "line 3" in err and "UTF-8" in err


def test_bad_universe_token_exits_2(capsys):
    code, out, err = run(capsys, "validate", "--algebra", "powerset", "--universe", "x,{y}")
    assert (code, out) == (2, "")
    assert err.startswith("error: powerset universe: ")


# Per command, whole files of its format (lawful and not) with at most one
# fragment spliced in anywhere; st.binary() adds arbitrary bytes.
CLI_CASES = {
    "adjacency": (
        ["adjacency", "--algebra", "natural", "--input"],
        [b"k1\ta\tb\nk2\tb\tc\t2\t3\n", b"k1\ta\tb\t2\nk1\tc\tb\n"],
    ),
    "doc-adjacency": (
        ["doc-adjacency", "--input"],
        [b"d1\td1\t{x,y}\nd1\td2\t{y}\nd2\td2\t{y}\n", b"d1\td2\t{w}\nd3\td4\t{w}\n"],
    ),
    "validate": (
        ["validate", "--algebra"],
        [
            b"elements: 0,1\nzero: 0\none: 1\nplus:\n0,1\n1,1\ntimes:\n0,0\n0,1\n",
            b"elements: 0,1\nzero: 0\none: 1\nplus:\n0,1\n1,0\ntimes:\n0,0\n0,1\n",
        ],
    ),
}
cli_fragment_st = st.one_of(
    st.sampled_from([b"\t", b"\n", b"\r", b"\x0b", b"\xe2\x80\xa8", b"\xff", b"\xc3", b"#", b",", b"0"]),
    st.binary(max_size=4),
)


@st.composite
def spliced_st(draw, files):
    data = draw(st.sampled_from(files))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(cli_fragment_st) + data[at + draw(st.integers(0, 2)):]
    return data


@pytest.mark.parametrize("command", CLI_CASES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_exits_0_1_or_2_on_arbitrary_bytes(command, data):
    argv, files = CLI_CASES[command]
    raw = data.draw(st.one_of(spliced_st(files), st.binary(max_size=60)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(raw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, path])
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue().startswith("error: ")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["adjacency", "--no-such-flag"])
    assert exc_info.value.code == 2


def test_output_flag_writes_file(capsys, data_dir, tmp_path, golden_dir):
    out_path = tmp_path / "adj.tsv"
    code, out, _ = run(
        capsys, "adjacency", "--algebra", "natural",
        "--input", str(data_dir / "path.edges"), "--output", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text() == (golden_dir / "adjacency_path_natural.tsv").read_text()


def test_adjacency_warns_from_a_builtin_familys_laws_alone(capsys, data_dir, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("validate ran for a builtin family")

    # a proved check is skipped, so only the known failure is replayed
    checked = []

    def recording_check(alg, name, **kwargs):
        checked.append(name)
        return check(alg, name, **kwargs)

    monkeypatch.setattr("assocarray.cli.validate", no_scan)
    monkeypatch.setattr("assocarray.cli.check", recording_check)
    code, _, err = run(
        capsys, "adjacency", "--algebra", "integer-ring",
        "--input", str(data_dir / "cancelling.edges"),
    )
    assert code == 0
    assert "criterion 1 fail" in err
    assert checked == ["criterion1"]


# Every builtin, every table, and three lawless builtins stripped of their
# known witnesses, so that their failures come from the sampler.
WARNING_ALGEBRAS = _golden_algebras() + [
    make_builtin("powerset", universe=list("ab")[:n]) for n in (0, 1, 2)
]


@pytest.mark.parametrize("alg", WARNING_ALGEBRAS, ids=[a.name for a in WARNING_ALGEBRAS])
def test_adjacency_warning_names_what_validate_fails(capsys, monkeypatch, tmp_path, alg):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    monkeypatch.setattr("assocarray.cli.resolve_algebra", lambda args: alg)
    code, out, err = run(capsys, "adjacency", "--algebra", "x", "--input", str(empty))
    assert (code, out) == (0, "")
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    failures = validate(alg).failures()
    if not failures:
        assert warnings == []
        return
    (warning,) = warnings
    assert warning.startswith(f"warning: {alg.name} is not certified: ")
    assert re.findall(r"(identity|criterion \d) fail \(([^)]*)\)", warning) == [
        (name.replace("criterion", "criterion "), CHECK_LABELS[name]) for name in failures
    ]


@pytest.mark.parametrize("flag", [["--levels", "3"], ["--universe", "a"]], ids=["levels", "universe"])
@pytest.mark.parametrize(
    "cmd",
    [["adjacency", "--input", "path.edges"], ["validate"], ["witness", "1"]],
    ids=["adjacency", "validate", "witness"],
)
def test_family_flags_with_a_table_path_exit_2(capsys, monkeypatch, data_dir, cmd, flag):
    monkeypatch.chdir(data_dir)
    code, out, err = run(capsys, *cmd, "--algebra", "xor_and.alg", *flag)
    assert (code, out) == (2, "")
    assert err == f"error: xor_and.alg takes no parameters, got {flag[0]}\n"


def test_a_key_that_would_read_back_as_a_comment_exits_2(capsys, tmp_path):
    edges = tmp_path / "h.edges"
    edges.write_text("k\t#a\tb\nk2\t \t#c\n")
    code, out, err = run(capsys, "adjacency", "--algebra", "natural", "--input", str(edges))
    assert (code, out) == (2, "")
    assert "line 1, source vertex" in err


@pytest.mark.parametrize("cmd", ["adjacency", "reverse-adjacency"])
def test_adjacency_rejects_seed(capsys, data_dir, cmd):
    with pytest.raises(SystemExit) as exc_info:
        main([cmd, "--algebra", "natural", "--input", str(data_dir / "path.edges"), "--seed", "1"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["validate", "--algebra", "natural"], ["witness", "1", "--algebra", "integer-ring"]],
    ids=["validate", "witness"],
)
def test_validate_and_witness_reject_seed(capsys, argv):
    # every check a builtin family samples is proved, and tables are
    # scanned, so no seed could change an output
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--seed", "1"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# Python's limit on the digits str() gives an int; 0 where there is none
# (before 3.10.7, or with PYTHONINTMAXSTRDIGITS=0).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no integer digit limit")
def test_adjacency_result_past_the_digit_limit_exits_2(capsys, tmp_path):
    # each weight is within the limit, but their product is past it
    weight = "1" + "0" * (DIGIT_LIMIT // 2 + 1)
    edges = tmp_path / "big.edges"
    edges.write_text(f"k1\ta\tb\t{weight}\t{weight}\n")
    out_path = tmp_path / "out.tsv"
    code, out, err = run(
        capsys, "adjacency", "--algebra", "natural", "--input", str(edges),
        "--output", str(out_path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: entry (a, b): Exceeds the limit ({DIGIT_LIMIT} digits)")
    assert not out_path.exists()


def module_env(**extra):
    pythonpath = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath)), **extra}


def run_module(module, *argv, **env):
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, env=module_env(**env),
        timeout=60,
    )


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor before exec")
def test_runs_without_a_stdout_when_writing_to_a_file(tmp_path):
    out = tmp_path / "report.tsv"
    proc = subprocess.run(
        [sys.executable, "-m", "assocarray", "validate", "--algebra", "natural",
         "--output", str(out)],
        stderr=subprocess.PIPE, env=module_env(), timeout=60,
        preexec_fn=lambda: os.close(1),  # the interpreter starts with sys.stdout None
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8").endswith("certified\ttrue\n")


HASH_SEEDS = ("0", "1", "2", "12345")


def random_table_text(rng, n):
    """An n-element table with honest identities and every other cell random."""
    zero, one = rng.sample(range(n), 2)

    def plus(a, b):
        return b if a == zero else a if b == zero else rng.randrange(n)

    def times(a, b):
        return b if a == one else a if b == one else rng.randrange(n)

    rows = [
        ",".join(str(op(a, b)) for b in range(n))
        for op in (plus, times) for a in range(n)
    ]
    return (
        f"elements: {','.join(map(str, range(n)))}\nzero: {zero}\none: {one}\n"
        f"plus:\n{chr(10).join(rows[:n])}\ntimes:\n{chr(10).join(rows[n:])}\n"
    )


def random_edges_text(rng, weights, edges=2000, vertices=40):
    """Edges over few vertices, so many are parallel; one in four is a
    hyperedge of up to four lines; keys and lines in shuffled order."""
    names = [f"v{n:02d}" for n in range(vertices)]
    lines = []
    for n in range(edges):
        hyper = rng.random() < 0.25
        sources = rng.sample(names, 2 if hyper else 1)
        targets = rng.sample(names, 2 if hyper else 1)
        out_w = {s: rng.choice(weights) for s in sources}
        in_w = {t: rng.choice(weights) for t in targets}
        lines += [f"k{n}\t{s}\t{t}\t{out_w[s]}\t{in_w[t]}\n" for s in sources for t in targets]
    rng.shuffle(lines)
    return "".join(lines)


def shared_words_text(rng, documents=30, vocabulary=40):
    """The shared-words triples of a random corpus: (i, j) holds the words
    documents i and j share."""
    words = [f"w{n:02d}" for n in range(vocabulary)]
    docs = {f"d{n:02d}": set(rng.sample(words, rng.randint(3, 10))) for n in range(documents)}
    lines = [
        f"{i}\t{j}\t{{{','.join(sorted(docs[i] & docs[j]))}}}\n"
        for i in docs for j in docs if docs[i] & docs[j]
    ]
    rng.shuffle(lines)
    return "".join(lines)


def determinism_cases(data_dir, tmp_path):
    """CLI argument lists: twelve cases over tests/data, then generated inputs."""
    rng = random.Random(10)
    generated = {
        "random60.alg": random_table_text(rng, 60),
        "natural.edges": random_edges_text(rng, list(range(1, 10))),
        "noncommutative.edges": random_edges_text(rng, ["p", "q"]),
        "corpus.triples": shared_words_text(rng),
    }
    for name, text in generated.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    data, tmp = str(data_dir), str(tmp_path)
    path = f"{data}/path.edges"
    return [
        ["adjacency", "--algebra", "natural", "--input", path],
        ["adjacency", "--algebra", "integer-ring", "--input", f"{data}/cancelling.edges"],
        ["adjacency", "--algebra", "strings", "--input", path],
        ["adjacency", "--algebra", f"{data}/annihilator_right.alg", "--input", path],
        ["adjacency", "--algebra", f"{data}/noncommutative.alg", "--input", path],
        ["reverse-adjacency", "--algebra", "natural", "--input", path],
        ["validate", "--algebra", "powerset", "--universe", "x,y"],
        ["validate", "--algebra", f"{data}/annihilator_right.alg"],
        ["witness", "1", "--algebra", "integer-ring"],
        ["witness", "3", "--algebra", f"{data}/annihilator_right.alg"],
        ["doc-adjacency", "--input", f"{data}/docs.triples"],
        ["doc-adjacency", "--input", f"{data}/docs_inconsistent.triples"],
        ["validate", "--algebra", f"{tmp}/random60.alg"],
        ["witness", "1", "--algebra", f"{tmp}/random60.alg"],
        # natural's plus is a proved semigroup and folds in parse order;
        # noncommutative's is not, and folds by ascending edge key
        ["adjacency", "--algebra", "natural", "--input", f"{tmp}/natural.edges"],
        ["adjacency", "--algebra", f"{data}/noncommutative.alg", "--input", f"{tmp}/noncommutative.edges"],
        ["doc-adjacency", "--input", f"{tmp}/corpus.triples"],
    ]


def test_cli_output_is_the_same_under_every_hash_seed(data_dir, tmp_path):
    for argv in determinism_cases(data_dir, tmp_path):
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "assocarray", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=module_env(PYTHONHASHSEED=seed),
            )
            for seed in HASH_SEEDS
        ]
        results = {(*proc.communicate(timeout=60), proc.returncode) for proc in procs}
        assert len(results) == 1, argv
        ((out, err, code),) = results
        assert code in (0, 1) and b"Traceback" not in err, (argv, err)


@pytest.mark.parametrize("module", ["assocarray", "assocarray.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = run_module(module, "validate", "--algebra", "nosuch")
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ")
    assert proc.stdout == b""


def test_main_reenters_with_one_parser(capsys, monkeypatch, data_dir, golden_dir, tmp_path):
    # One process calls main in turn: a subcommand with a family flag, one
    # without it, a usage error, an adjacency, and witness with and without
    # --output.  Each must give what a fresh process gives, so nothing one
    # call parsed leaks into the next.  COLUMNS fixes the usage width.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()

    def in_process(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(*argv):
        proc = run_module("assocarray", *argv, COLUMNS="80")
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")

    def same_as_fresh(*argv):
        got = in_process(*argv)
        assert got == fresh(*argv)
        return got

    assert same_as_fresh("validate", "--algebra", "max_min_chain", "--levels", "3")[0] == 0
    # a --levels left over from the call before would exit 2
    code, out, _ = same_as_fresh("validate", "--algebra", "natural")
    assert (code, out) == (0, (golden_dir / "validate_natural.txt").read_text())
    code, out, err = same_as_fresh("adjacency", "--algebra", "natural")
    assert (code, out) == (2, "")
    assert "the following arguments are required: --input" in err
    path = str(data_dir / "path.edges")
    code, out, _ = same_as_fresh("adjacency", "--algebra", "natural", "--input", path)
    assert (code, out) == (0, (golden_dir / "adjacency_path_natural.tsv").read_text())

    witness = ["witness", "3", "--algebra", str(data_dir / "annihilator_right.alg")]
    golden = (golden_dir / "witness3_annihilator.txt").read_text()
    out_path, fresh_path = tmp_path / "in_process.txt", tmp_path / "fresh.txt"
    code, out, err = in_process(*witness, "--output", str(out_path))
    assert (code, out, err) == fresh(*witness, "--output", str(fresh_path))
    assert (code, out) == (0, "")
    assert out_path.read_text() == fresh_path.read_text() == golden
    out_path.write_text("untouched\n")
    code, out, _ = same_as_fresh(*witness)
    assert (code, out) == (0, golden)
    assert out_path.read_text() == "untouched\n"


# --- the table algebra kept between calls ---------------------------------------


def test_table_calls_in_one_process_give_what_fresh_processes_give(capsys, data_dir, tmp_path):
    # validate, then witness 3 twice, on one table: the later calls reuse the
    # algebra the first built, and each call's exit code, stdout, stderr and
    # output file are those of a fresh process
    cli._table_algebra.cache_clear()
    table = str(data_dir / "annihilator_right.alg")
    calls = [["validate", "--algebra", table]] + [["witness", "3", "--algebra", table]] * 2
    for n, argv in enumerate(calls):
        mine, theirs = tmp_path / f"in_process{n}.txt", tmp_path / f"fresh{n}.txt"
        got = run(capsys, *argv, "--output", str(mine))
        proc = run_module("assocarray", *argv, "--output", str(theirs))
        assert got == (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"))
        assert mine.read_text(encoding="utf-8") == theirs.read_text(encoding="utf-8")
    assert got[0] == 0
    assert cli._table_algebra.cache_info().hits == 2


def test_a_rewritten_table_file_is_read_afresh(capsys, data_dir, tmp_path):
    cli._table_algebra.cache_clear()
    table = tmp_path / "table.alg"
    table.write_text((data_dir / "annihilator_right.alg").read_text())
    assert run(capsys, "witness", "3", "--algebra", str(table))[0] == 0
    table.write_text((data_dir / "bool_or_and.alg").read_text())
    code, out, err = run(capsys, "validate", "--algebra", str(table))
    assert code == 0
    assert "algebra: table\n" in err
    assert out.endswith("certified\ttrue\n")


def test_a_table_that_fails_to_parse_fails_alike_every_time(capsys, tmp_path):
    cli._table_algebra.cache_clear()
    table = tmp_path / "bad.alg"
    table.write_text("elements: 0,1\nzero: 0\none: 1\nplus:\n0,1\n1,2\ntimes:\n0,0\n0,1\n")
    first = run(capsys, "validate", "--algebra", str(table))
    assert first == (2, "", f"error: {table}, line 6, plus cell (2, 2): '2' is not a listed element\n")
    assert run(capsys, "validate", "--algebra", str(table)) == first
    table.write_text("elements: 0,1\nzero: 0\none: 1\nplus:\n0,1\n1,1\ntimes:\n0,0\n0,1\n")
    code, out, _ = run(capsys, "validate", "--algebra", str(table))
    assert code == 0
    assert out.endswith("certified\ttrue\n")


def test_one_text_under_two_file_names_keeps_each_name(capsys, data_dir, tmp_path):
    cli._table_algebra.cache_clear()
    text = (data_dir / "bool_or_and.alg").read_text()
    for stem in ("first", "second", "first"):
        path = tmp_path / f"{stem}.alg"
        path.write_text(text)
        code, _, err = run(capsys, "validate", "--algebra", str(path))
        assert code == 0
        assert err.startswith(f"algebra: {stem}\n")


def test_a_second_call_on_one_text_does_not_parse_it(capsys, monkeypatch, data_dir):
    cli._table_algebra.cache_clear()
    parses = []

    def counting_parse(text, *, role):
        parses.append(role)
        return parse_finite_algebra(text, role=role)

    monkeypatch.setattr(cli, "parse_finite_algebra", counting_parse)
    table = str(data_dir / "annihilator_right.alg")
    assert run(capsys, "validate", "--algebra", table)[0] == 1
    assert run(capsys, "witness", "3", "--algebra", table)[0] == 0
    assert parses == [table]


def test_stdout_is_utf8_whatever_the_locale_encoding(tmp_path):
    edges = tmp_path / "cjk.edges"
    edges.write_text("k1\t\u4e2d\tb\n", encoding="utf-8")
    proc = run_module(
        "assocarray", "adjacency", "--algebra", "natural", "--input", str(edges),
        PYTHONIOENCODING="ascii",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\u4e2d\tb\t1\n".encode("utf-8")


def test_stderr_is_utf8_whatever_the_locale_encoding(tmp_path):
    edges = tmp_path / "\u4e2d.edges"
    edges.write_text("k1\ta\n", encoding="utf-8")
    proc = run_module(
        "assocarray", "adjacency", "--algebra", "natural", "--input", str(edges),
        PYTHONIOENCODING="ascii",
    )
    assert proc.returncode == 2
    assert "\u4e2d.edges, line 1, line: expected 3 to 5".encode("utf-8") in proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="needs a file name that is not UTF-8")
def test_a_file_name_that_is_not_utf8_is_shown_escaped(tmp_path):
    edges = tmp_path / os.fsdecode(b"\xff.edges")
    edges.write_text("k1\ta\n", encoding="utf-8")
    proc = run_module("assocarray", "adjacency", "--algebra", "natural", "--input", str(edges))
    assert proc.returncode == 2
    assert b"\\udcff.edges, line 1" in proc.stderr
    assert b"Traceback" not in proc.stderr


# --- README examples ----------------------------------------------------------

README = (REPO_DIR / "README.md").read_text(encoding="utf-8")
README_COMMANDS = re.findall(r"```sh\n\$ assocarray ([^\n]*)\n(.*?)```", README, re.DOTALL)


def test_readme_quick_start_runs():
    quick_start = README.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_lists_four_commands():
    assert len(README_COMMANDS) == 4


@pytest.mark.parametrize("command, stdout", README_COMMANDS, ids=[c for c, _ in README_COMMANDS])
def test_readme_command_prints_what_readme_shows(capsys, monkeypatch, command, stdout):
    monkeypatch.chdir(REPO_DIR)
    main(shlex.split(command))
    assert capsys.readouterr().out == stdout
