"""The benchmark's workloads: seeded input generators and expected outputs.

A workload turns a seed into a stream of jobs.  A job is one CLI call: its
arguments (minus ``--output``), the measured properties of its input, and a
function computing what the call must produce.  Inputs are generated and
written to files when a batch is made; expected outputs are computed only
when a call is checked, so that set-up time counts input generation alone.
Large inputs are generated again from the seed for the check rather than
kept, so that jobs waiting in the queue do not grow the heap the measured
calls run in.
"""

from __future__ import annotations

import random
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Sequence

import reference as ref

HYPEREDGE_SHARE = 0.10
PARALLEL_EDGE_SHARE = 0.05
NONZERO_INTS = tuple(i for i in range(-10, 11) if i)

# tests/data/annihilator_right.alg: identities and the first two criteria
# hold, but v times 0 is v, so zero fails to annihilate on the right.
ANNIHILATOR_RIGHT = dict(
    names=("0", "1", "v"), zero=0, one=1,
    plus_rows=((0, 1, 2), (1, 1, 2), (2, 2, 2)),
    times_rows=((0, 0, 0), (0, 1, 2), (2, 2, 2)),
)


@dataclass
class Expected:
    rc: int
    output: str | None  # exact text of the output file; None: no file may be written
    stderr_line: str | None = None  # a line standard error must contain
    extra: Callable[[str], list[str]] | None = None  # further checks on the output text


@dataclass
class Job:
    argv: list[str]
    props: dict[str, float]
    expect: Callable[[], Expected]
    kind: str  # calls of one kind do the same work on inputs of one size


class Workload:
    """Base: ``prefix`` jobs run once, then ``batch(0)``, ``batch(1)``, ...

    ``seed`` fixes every input; ``tiny`` selects sizes small enough for the
    smoke run, the warm-up and the cold-start calls.  The traced run takes
    the prefix and the first ``trace_batches`` batches.
    """

    name = ""
    trace_batches = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def rng(self, *index) -> random.Random:
        return random.Random("/".join(map(str, (self.name, self.seed, self.tiny, *index))))

    def path(self, *index, suffix: str) -> Path:
        size = "tiny" if self.tiny else "full"
        return self.workdir / ("_".join(map(str, (self.name, size, *index))) + suffix)

    def prefix(self) -> list[Job]:
        return []

    def batch(self, b: int) -> list[Job]:
        raise NotImplementedError


# --- graphs --------------------------------------------------------------------


def random_multigraph(rng: random.Random, n_vertices: int, n_edges: int,
                      weight: Callable[[random.Random], Hashable]) -> list[ref.Edge]:
    """Uniform endpoints, with a share of hyperedges (a second source or
    target) and of parallel edges (endpoints repeated, fresh weights)."""
    vertices = [f"v{i:05d}" for i in range(n_vertices)]
    edges: list[ref.Edge] = []
    ends: list[tuple[list[str], list[str]]] = []
    for k in range(n_edges):
        if ends and rng.random() < PARALLEL_EDGE_SHARE:
            srcs, dsts = rng.choice(ends)
        else:
            src, dst = {rng.choice(vertices)}, {rng.choice(vertices)}
            if rng.random() < HYPEREDGE_SHARE:
                (src if rng.random() < 0.5 else dst).add(rng.choice(vertices))
            srcs, dsts = sorted(src), sorted(dst)
            ends.append((srcs, dsts))
        edges.append((f"e{k:06d}", {v: weight(rng) for v in srcs}, {v: weight(rng) for v in dsts}))
    return edges


def edge_list_text(edges: Sequence[ref.Edge], enc: Callable[[Hashable], str], rng: random.Random) -> str:
    """Edge-list lines in shuffled order; a hyperedge spans several lines
    sharing its key, restating endpoints with their one weight."""
    lines = []
    for key, src, dst in edges:
        s, d = list(src), list(dst)
        for n in range(max(len(s), len(d))):
            a, b = s[min(n, len(s) - 1)], d[min(n, len(d) - 1)]
            lines.append(f"{key}\t{a}\t{b}\t{enc(src[a])}\t{enc(dst[b])}\n")
    rng.shuffle(lines)
    return "".join(lines)


def graph_props(edges: Sequence[ref.Edge]) -> dict[str, float]:
    # endpoint maps are built in sorted vertex order, so their key tuples compare
    ends = Counter((tuple(s), tuple(d)) for _, s, d in edges)
    return {
        "vertices": len({v for _, s, d in edges for v in (*s, *d)}),
        "edges": len(edges),
        "hyperedge_share": sum(len(s) + len(d) > 2 for _, s, d in edges) / len(edges),
        "parallel_edge_share": sum(ends[(tuple(s), tuple(d))] > 1 for _, s, d in edges) / len(edges),
        "nnz_in": sum(len(s) + len(d) for _, s, d in edges),
    }


def parse_triples(text: str) -> tuple[dict[ref.Coord, str], list[str]]:
    entries, problems = {}, []
    for n, line in enumerate(text.splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            problems.append(f"output line {n} has {len(fields)} fields")
            continue
        entries[(fields[0], fields[1])] = fields[2]
    return entries, problems


def certified_checks(alg: ref.RefAlgebra, edges: Sequence[ref.Edge], reverse: bool,
                     rng: random.Random, samples: int) -> Callable[[str], list[str]]:
    """Checks for the zero-skipping path beyond text equality.

    The output support must equal the package's ``adjacency_oracle``, and
    sampled coordinates, half of them absent from the output, must hold the
    full-definition fold over every edge key.
    """
    # Imported here so that everything else in this module stays
    # independent of the package under test.
    from assocarray import graph
    from assocarray.array import AssociativeArray

    def incidence(side) -> AssociativeArray:
        rows = {k: dict.fromkeys(sorted(side[k])) for k in sorted(side)}
        cols = sorted({v for s in side.values() for v in s})
        return AssociativeArray(rows=rows, row_keys=tuple(rows), col_keys=tuple(cols))

    def check(out: str) -> list[str]:
        got, problems = parse_triples(out)
        left, right = ref.sides(edges, reverse)
        pair = graph.IncidencePair(e_out=incidence(left), e_in=incidence(right))
        if frozenset(got) != graph.adjacency_oracle(pair):
            problems.append("output support differs from adjacency_oracle")
        vertices = sorted({v for _, s, d in edges for v in (*s, *d)})
        present = sorted(got)
        coords = rng.sample(present, min(samples // 2, len(present)))
        coords += [(rng.choice(vertices), rng.choice(vertices)) for _ in range(samples - len(coords))]
        for (i, j), want in ref.full_entries(alg, edges, coords, reverse=reverse).items():
            want_text = None if want == alg.zero else alg.enc(want)
            if got.get((i, j)) != want_text:
                problems.append(f"({i}, {j}) holds {got.get((i, j))!r}, full fold gives {want_text!r}")
        return problems

    return check


class _Adjacency(Workload):
    """Edge-list workloads: a batch runs ``cycle``, a tuple of (subcommand,
    algebra), ``repeats`` times."""

    cycle: tuple[tuple[str, str], ...] = ()
    repeats = 1
    certified = False
    sizes = (0, 0)  # (vertex ids, edges)
    tiny_sizes = (0, 0)

    def algebra(self, name: str) -> tuple[str, ref.RefAlgebra, Callable[[random.Random], Hashable]]:
        """CLI selector, reference algebra and nonzero weight sampler."""
        raise NotImplementedError

    def batch(self, b: int) -> list[Job]:
        return [self._job(b, i, cmd, alg) for i, (cmd, alg) in enumerate(self.cycle * self.repeats)]

    def _job(self, b: int, i: int, cmd: str, alg_name: str) -> Job:
        selector, alg, weight = self.algebra(alg_name)
        n_vertices, n_edges = self.tiny_sizes if self.tiny else self.sizes
        reverse = cmd == "reverse-adjacency"

        def make() -> tuple[list[ref.Edge], random.Random]:
            rng = self.rng(b, i)
            return random_multigraph(rng, n_vertices, n_edges, weight), rng

        edges, rng = make()
        path = self.path(b, i, suffix=".edges")
        path.write_text(edge_list_text(edges, alg.enc, rng), encoding="utf-8")
        props = graph_props(edges)

        def expect() -> Expected:
            edges, _ = make()
            if self.certified:
                entries = ref.product_sparse(alg, edges, reverse=reverse)
                extra = certified_checks(alg, edges, reverse, self.rng(b, i, "check"), samples=8)
            else:
                entries = ref.product_full(alg, edges, reverse=reverse)
                extra = None
            props["nnz_out"] = len(entries)
            return Expected(0, ref.triples_text(alg, entries), extra=extra)

        return Job([cmd, "--algebra", selector, "--input", str(path)], props, expect, f"{cmd} {alg_name}")


def _string_weight(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return ref.TOP
    return "".join(rng.choice("abcdefghij0123456789") for _ in range(rng.randint(1, 6)))


class AdjCertified(_Adjacency):
    """Sparse multigraphs over certified algebras: parse, incidence build and
    the zero-skipping product.  The full fold is never taken."""

    name = "adj_certified"
    cycle = (
        ("adjacency", "natural_arithmetic"),
        ("adjacency", "max_min_strings"),
        ("reverse-adjacency", "natural_arithmetic"),
        ("adjacency", "max_min_strings"),
    )
    certified = True
    trace_batches = 2
    sizes = (2000, 10000)
    tiny_sizes = (40, 120)

    def algebra(self, name):
        if name == "natural_arithmetic":
            return name, ref.natural(), lambda rng: rng.randint(1, 20)
        return name, ref.max_min_strings(), _string_weight


class AdjLawless(_Adjacency):
    """Small dense multigraphs over uncertified algebras, so the product is
    the full fold over every inner key; parse and serialize are negligible."""

    name = "adj_lawless"
    cycle = (
        ("adjacency", "integer_ring"),
        ("adjacency", "max_plus_realzero"),
        ("adjacency", "annihilator_right"),
    )
    repeats = 2  # small graphs: a longer batch keeps set-up time measurable
    trace_batches = 2
    sizes = (30, 110)
    tiny_sizes = (6, 14)

    def algebra(self, name):
        if name == "annihilator_right":
            path = self.workdir / "annihilator_right.alg"
            if not path.exists():
                path.write_text(table_text(**ANNIHILATOR_RIGHT), encoding="utf-8")
            return str(path), ref.table(**ANNIHILATOR_RIGHT), lambda rng: rng.choice((1, 2))
        alg = ref.integer_ring() if name == "integer_ring" else ref.max_plus_realzero()
        return name, alg, lambda rng: rng.choice(NONZERO_INTS)


# --- algebra tables --------------------------------------------------------------


def table_text(names, zero, one, plus_rows, times_rows) -> str:
    lines = ["elements: " + ",".join(names), f"zero: {names[zero]}", f"one: {names[one]}"]
    for which, rows in (("plus", plus_rows), ("times", times_rows)):
        lines.append(f"{which}:")
        lines += [",".join(names[c] for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def chain_table(rng: random.Random, n: int) -> dict:
    """A lawful chain lattice (max, min) listed in shuffled order."""
    rank = list(range(n))
    rng.shuffle(rank)
    return dict(
        names=tuple(f"x{r}" for r in rank),
        zero=rank.index(0),
        one=rank.index(n - 1),
        plus_rows=tuple(tuple(i if rank[i] >= rank[j] else j for j in range(n)) for i in range(n)),
        times_rows=tuple(tuple(i if rank[i] <= rank[j] else j for j in range(n)) for i in range(n)),
    )


def random_table(rng: random.Random, n: int) -> dict:
    """Honest identities and 0 times 0 = 0, every other cell random.

    The identity check passes, the three criteria fail within a few pairs,
    and each criterion's witness graph demonstrates its failure.
    """
    zero, one = rng.sample(range(n), 2)

    def plus(a, b):
        return b if a == zero else a if b == zero else rng.randrange(n)

    def times(a, b):
        if a == one or b == one:
            return b if a == one else a
        return zero if a == b == zero else rng.randrange(n)

    names = [str(i) for i in range(n)]
    rng.shuffle(names)
    return dict(
        names=tuple(names), zero=zero, one=one,
        plus_rows=tuple(tuple(plus(a, b) for b in range(n)) for a in range(n)),
        times_rows=tuple(tuple(times(a, b) for b in range(n)) for a in range(n)),
    )


class CriteriaTables(Workload):
    """``validate`` on generated tables, lawful chain lattices (checked
    exhaustively, O(n^2)) and random tables (fail early), with ``witness``
    for each failing criterion; each run starts with ``powerset`` over 9
    tokens and ``max_min_chain`` with 400 levels.  Stresses
    ``parse_finite_algebra`` and the law checks."""

    name = "criteria_tables"
    table_sizes = (50, 75, 100, 125, 150)
    tiny_table_sizes = (6, 8, 10)

    def _validate_jobs(self, kind: str, argv: list[str], alg: ref.RefAlgebra, props: dict,
                       witnesses: dict | None = None) -> list[Job]:
        """A validate call, then a witness call per criterion ``witnesses``
        shows failing.  Without ``witnesses``, for algebras lawful by
        construction, the validate check finds them itself."""

        def expect_validate() -> Expected:
            w = witnesses if witnesses is not None else ref.law_witnesses(alg)
            return Expected(0 if all(v is None for v in w.values()) else 1, ref.validate_lines(alg, w))

        jobs = [Job(["validate", *argv], props, expect_validate, f"validate {kind}")]
        for c in (1, 2, 3):
            wit = (witnesses or {}).get(f"criterion{c}")
            if wit is not None:
                jobs.append(Job(["witness", str(c), *argv], props,
                                lambda c=c, wit=wit: Expected(0, ref.witness_text(alg, c, wit)),
                                f"witness {c} {kind}"))
        return jobs

    def prefix(self) -> list[Job]:
        rng = self.rng("builtin")
        n_tokens, levels = (4, 12) if self.tiny else (9, 400)
        tokens: set[str] = set()
        while len(tokens) < n_tokens:
            tokens.add("".join(rng.choice(string.ascii_lowercase) for _ in range(3)))
        powerset = ref.powerset(tokens)
        jobs = self._validate_jobs(
            "powerset", ["--algebra", "powerset", "--universe", ",".join(sorted(tokens))],
            powerset, {"carrier": 2 ** n_tokens}, ref.law_witnesses(powerset))
        jobs += self._validate_jobs("max_min_chain", ["--algebra", "max_min_chain", "--levels", str(levels)],
                                    ref.chain(levels), {"carrier": levels})
        return jobs

    def batch(self, b: int) -> list[Job]:
        jobs = []
        for n in self.tiny_table_sizes if self.tiny else self.table_sizes:
            for kind, make in (("chain", chain_table), ("random", random_table)):
                spec = make(self.rng(b, n, kind), n)
                path = self.path(b, n, kind, suffix=".alg")
                path.write_text(table_text(**spec), encoding="utf-8")
                alg = ref.table(**spec)
                # Chain lattices are lawful by construction; their check
                # proves it.  Random tables fail early, which is cheap to find.
                witnesses = ref.law_witnesses(alg) if kind == "random" else None
                jobs += self._validate_jobs(f"{kind} {n}", ["--algebra", str(path)], alg, {"carrier": n}, witnesses)
        return jobs


# --- documents ---------------------------------------------------------------------


class DocPipeline(Workload):
    """Shared-words corpora, one in five made inconsistent by dropping a word
    from one entry (exit 1 expected): set-triple parse, the word-consistency
    check and the full fold over token sets."""

    name = "doc_pipeline"
    sizes = (50, 100, (10, 20))  # documents, vocabulary, words per document
    tiny_sizes = (8, 12, (5, 8))
    cycle = 5  # the last corpus of each batch is made inconsistent
    trace_batches = 2

    def batch(self, b: int) -> list[Job]:
        return [self._job(b, i, inconsistent=i == self.cycle - 1) for i in range(self.cycle)]

    def _job(self, b: int, i: int, inconsistent: bool) -> Job:
        n_docs, vocab, per_doc = self.tiny_sizes if self.tiny else self.sizes

        def make() -> tuple[dict[str, frozenset[str]], dict[ref.Coord, frozenset[str]], random.Random]:
            rng = self.rng(b, i)
            words = [f"w{k:03d}" for k in range(vocab)]
            docs = {f"d{k:03d}": frozenset(rng.sample(words, rng.randint(*per_doc))) for k in range(n_docs)}
            entries = ref.shared_words(docs)
            if inconsistent:
                coord = rng.choice(sorted(c for c, ws in entries.items() if c[0] != c[1] and len(ws) >= 2))
                entries[coord] -= {rng.choice(sorted(entries[coord]))}
            return docs, entries, rng

        docs, entries, rng = make()
        lines = [f"{r}\t{c}\t{ref.token_set_text(ws)}\n" for (r, c), ws in entries.items()]
        rng.shuffle(lines)
        path = self.path(b, i, suffix=".triples")
        path.write_text("".join(lines), encoding="utf-8")
        props = {
            "documents": n_docs,
            "vocabulary": len(set().union(*docs.values())),
            "nnz_in": len(entries),
            "inconsistent_share": float(inconsistent),
        }

        def expect() -> Expected:
            docs, entries, _ = make()
            if inconsistent:
                i_, j, m, n, word = ref.min_violation(entries)
                props["nnz_out"] = 0
                return Expected(1, None, stderr_line=(
                    f"inconsistent: word {word!r} appears at ({i_}, {j}) and ({m}, {n}) "
                    f"but not at ({i_}, {n})"))
            expected = ref.shared_words(docs)
            props["nnz_out"] = len(expected)
            return Expected(0, "".join(f"{r}\t{c}\t{ref.token_set_text(ws)}\n"
                                       for (r, c), ws in sorted(expected.items())))

        return Job(["doc-adjacency", "--input", str(path)], props, expect,
                   "doc-adjacency " + ("inconsistent" if inconsistent else "consistent"))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AdjCertified, AdjLawless, CriteriaTables, DocPipeline)
}
