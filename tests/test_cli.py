import os
import subprocess
import sys
from pathlib import Path

import pytest

from assocarray.cli import main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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
    # miss every disjoint pair, yet criterion 2 fails and nothing certifies it.
    universe = ",".join(f"t{i}" for i in range(60))
    code, out, err = run(capsys, "validate", "--algebra", "powerset", "--universe", universe)
    assert code == 1
    assert out.endswith("certified\tfalse\n")
    assert "certified: no" in err


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


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["adjacency", "--no-such-flag"])
    assert exc_info.value.code == 2


def test_force_full_matmul_identical_output(capsys, data_dir):
    base = ["adjacency", "--algebra", "natural", "--input", str(data_dir / "path.edges")]
    _, fast, _ = run(capsys, *base)
    _, full, _ = run(capsys, *base, "--force-full-matmul")
    assert fast == full


def test_output_flag_writes_file(capsys, data_dir, tmp_path, golden_dir):
    out_path = tmp_path / "adj.tsv"
    code, out, _ = run(
        capsys, "adjacency", "--algebra", "natural",
        "--input", str(data_dir / "path.edges"), "--output", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text() == (golden_dir / "adjacency_path_natural.tsv").read_text()


def test_seed_flag_accepted(capsys):
    code, _, _ = run(capsys, "validate", "--algebra", "natural", "--seed", "7")
    assert code == 0


@pytest.mark.parametrize("module", ["assocarray", "assocarray.cli"])
def test_python_dash_m_runs_the_cli(module):
    pythonpath = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run(
        [sys.executable, "-m", module, "validate", "--algebra", "nosuch"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""
