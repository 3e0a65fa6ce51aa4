import functools
import random
import time
from pathlib import Path

import pytest

from assocarray import (
    Algebra,
    AssociativeArray,
    FiniteAlgebraSpec,
    Graph,
    ValidationError,
    adjacency,
    adjacency_oracle,
    build_graph,
    encode_value,
    from_finite_spec,
    incidence_arrays,
    make_builtin,
    matmul,
    parse_finite_algebra,
    reverse_adjacency,
    transpose,
)
from assocarray.array import check_key

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"

# One instance per certified builtin family the corpus tests cover.
CERTIFIED_SPECS = (
    ("natural_arithmetic", {}),
    ("nonneg_rational_arithmetic", {}),
    ("max_min_chain", {"levels": 2}),
    ("max_min_chain", {"levels": 3}),
    ("max_min_chain", {"levels": 4}),
    ("max_min_chain", {"levels": 5}),
    ("boolean_or_and", {}),
    ("max_min_strings", {}),
)

CORPUS_GRAPHS_PER_ALGEBRA = 1000

# A tab and every character str.splitlines breaks on: none may appear in a
# key or a text value, or the tab-separated formats could not read it back.
FIELD_BREAKS = "\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def entries_of(arr):
    return {(r, c): v for r, c, v in arr}


# --- value-level reference operations ---------------------------------------
#
# The differential references below fold with these operations, not with an
# algebra's own plus_op and times_op, which act on its native encoding.  Each
# family's operations are restated here on plain values; a table algebra
# looks its cells up through the spec it was built from.

TABLE_SPECS: dict[str, FiniteAlgebraSpec] = {}  # table algebra name -> spec


def table_algebra(spec: FiniteAlgebraSpec, name: str) -> Algebra:
    """``from_finite_spec(spec, name)``, with the spec kept for ``reference_ops``."""
    TABLE_SPECS[name] = spec
    return from_finite_spec(spec, name=name)


def _number(x):
    # a whole rational is the int it equals, as on every number carrier
    return int(x) if x == int(x) else x


def _sum(a, b):
    return _number(a + b)


def _product(a, b):
    return _number(a * b)


def _union(a, b):
    return tuple(sorted(set(a) | set(b)))


def _intersection(a, b):
    return tuple(sorted(set(a) & set(b)))


def _table_ops(spec):
    index = {v: i for i, v in enumerate(spec.elements)}

    def lookup(table):
        return lambda a, b: spec.elements[table[index[a]][index[b]]]

    return lookup(spec.plus_table), lookup(spec.times_table)


def reference_ops(alg: Algebra):
    """(plus, times) on plain values for ``alg``, known by its name."""
    name = alg.name.split("(")[0]
    if name in ("natural_arithmetic", "nonneg_rational_arithmetic", "integer_ring"):
        return _sum, _product
    if name == "integer_ring_offset":
        return _sum, lambda a, b: a * b + 1
    if name == "max_plus_realzero":
        return max, _sum
    if name in ("max_min_chain", "boolean_or_and", "max_min_strings"):
        return max, min
    if name == "powerset":
        return _union, _intersection
    return _table_ops(TABLE_SPECS[alg.name])


def dense_matmul(a_entries, b_entries, alg, extra_rows=(), extra_cols=()):
    """Reference product over plain dicts, written independently of the
    library: explicit loops, explicit inner-key union, left fold with no
    initial element, and the value-level reference operations."""
    plus, times = reference_ops(alg)
    rows = sorted({r for r, _ in a_entries} | set(extra_rows))
    cols = sorted({c for _, c in b_entries} | set(extra_cols))
    inner = sorted({c for _, c in a_entries} | {r for r, _ in b_entries})
    out = {}
    for i in rows:
        for j in cols:
            terms = [
                times(a_entries.get((i, k), alg.zero), b_entries.get((k, j), alg.zero))
                for k in inner
            ]
            value = functools.reduce(plus, terms) if terms else alg.zero
            if value != alg.zero:
                out[(i, j)] = value
    return out


def stored_pairs_matmul(a_entries, b_entries, alg):
    """Fold only the terms whose two factors are both stored, in ascending
    inner-key order: what the product reduces to when zero is inert, and a
    different array when it is not."""
    plus, times = reference_ops(alg)
    b_rows = {}
    for (k, j), b_kj in sorted(b_entries.items()):
        b_rows.setdefault(k, []).append((j, b_kj))
    terms = {}
    for (i, k), a_ik in sorted(a_entries.items()):
        for j, b_kj in b_rows.get(k, ()):
            terms.setdefault((i, j), []).append(times(a_ik, b_kj))
    folded = {ij: functools.reduce(plus, ts) for ij, ts in terms.items()}
    return {ij: v for ij, v in folded.items() if v != alg.zero}


def random_graph(alg: Algebra, rng: random.Random) -> Graph:
    """Draw a graph with nonzero weights, allowing self-loops, parallel edges,
    and the occasional hyperedge: 1 to 8 vertices, 0 to 20 edges."""
    n_vertices = rng.randint(1, 8)
    vertices = [f"v{i}" for i in range(n_vertices)]
    n_edges = rng.randint(0, 20)
    edges = []
    for i in range(n_edges):
        sources = {rng.choice(vertices): alg.sample_nonzero(rng)}
        if rng.random() < 0.1:
            sources.setdefault(rng.choice(vertices), alg.sample_nonzero(rng))
        targets = {rng.choice(vertices): alg.sample_nonzero(rng)}
        if rng.random() < 0.1:
            targets.setdefault(rng.choice(vertices), alg.sample_nonzero(rng))
        edges.append((f"e{i:02d}", sources, targets))
    return build_graph(edges, alg)


def reverse(g: Graph) -> Graph:
    """Swap every edge's sources and targets."""
    return Graph(sources=g.targets, targets=g.sources)


def check_transpose_identity(A: AssociativeArray, B: AssociativeArray, alg: Algebra) -> bool:
    """Whether transposing the product equals the reversed product of transposes.

    Holds for commutative times; a non-commutative table breaks it already on
    1x1 arrays.
    """
    lhs = transpose(matmul(A, B, alg))
    rhs = matmul(transpose(B), transpose(A), alg)
    return lhs == rhs


def check_invariants(arr: AssociativeArray, alg: Algebra | None = None) -> None:
    """Raise ValidationError if the array's structural invariants are broken.

    Checks sorted unique key sets, agreement between key sets and stored
    entries, well-formed keys, and (when an algebra is given) that no stored
    value equals its zero and every stored value is a carrier member.
    """
    if list(arr.row_keys) != sorted(set(arr.row_keys)):
        raise ValidationError("row keys are not sorted and unique")
    if list(arr.col_keys) != sorted(set(arr.col_keys)):
        raise ValidationError("column keys are not sorted and unique")
    if list(arr.rows) != list(arr.row_keys):
        raise ValidationError("stored rows do not match the row key set")
    cols_seen: set[str] = set()
    for r, cols in arr.rows.items():
        check_key(r)
        if not cols:
            raise ValidationError(f"row {r!r} has no stored entries")
        if list(cols) != sorted(cols):
            raise ValidationError(f"row {r!r} columns are not sorted")
        for c, v in cols.items():
            check_key(c)
            cols_seen.add(c)
            if alg is not None:
                if not alg.contains_op(v):
                    raise ValidationError(
                        f"stored value {encode_value(v)} at ({r}, {c}) is outside the carrier"
                    )
                if v == alg.zero:
                    raise ValidationError(f"stored zero at ({r}, {c})")
    if cols_seen != set(arr.col_keys):
        raise ValidationError("column key set does not match stored entries")


def load_algebra_file(name):
    path = DATA_DIR / f"{name}.alg"
    spec = parse_finite_algebra(path.read_text(encoding="utf-8"), role=str(path))
    return table_algebra(spec, name)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def naturals():
    return make_builtin("natural_arithmetic")


@pytest.fixture(scope="session")
def integers():
    return make_builtin("integer_ring")


@pytest.fixture(scope="session")
def powerset_xy():
    return make_builtin("powerset", universe=["x", "y"])


@pytest.fixture(scope="session")
def max_plus():
    return make_builtin("max_plus_realzero")


@pytest.fixture(scope="session")
def annihilator_right():
    return load_algebra_file("annihilator_right")


@pytest.fixture(scope="session")
def annihilator_left():
    return load_algebra_file("annihilator_left")


@pytest.fixture(scope="session")
def noncommutative():
    return load_algebra_file("noncommutative")


@pytest.fixture(scope="session")
def xor_and():
    return load_algebra_file("xor_and")


class CorpusEntry:
    """Everything the corpus-wide support tests need about one random graph."""

    __slots__ = ("graph", "pair", "oracle", "adj")

    def __init__(self, graph, pair, oracle, adj):
        self.graph = graph
        self.pair = pair
        self.oracle = oracle
        self.adj = adj


class Corpus:
    def __init__(self, entries, forward_seconds):
        self.entries = entries  # algebra name -> (algebra, list[CorpusEntry])
        self.forward_seconds = forward_seconds


@pytest.fixture(scope="session")
def certified_corpus():
    """1000 seeded graphs per certified builtin, with forward adjacency and
    oracle precomputed; shared across the corpus-wide support tests."""
    entries = {}
    started = time.perf_counter()
    for family, params in CERTIFIED_SPECS:
        alg = make_builtin(family, **params)
        rng = random.Random(0)
        bucket = []
        for _ in range(CORPUS_GRAPHS_PER_ALGEBRA):
            g = random_graph(alg, rng)
            pair = incidence_arrays(g)
            bucket.append(
                CorpusEntry(
                    graph=g,
                    pair=pair,
                    oracle=adjacency_oracle(pair),
                    adj=adjacency(g, alg),
                )
            )
        entries[alg.name] = (alg, bucket)
    return Corpus(entries, time.perf_counter() - started)


def reversed_oracle(entry):
    return adjacency_oracle(incidence_arrays(reverse(entry.graph)))


def reverse_adj(entry, alg):
    return reverse_adjacency(entry.graph, alg)
