"""Graphs as incidence arrays and their adjacency products.

A graph is a list of edge records, each carrying weighted source and target
vertex maps (hyperedges are allowed: several sources or targets per edge).
The incidence view stores two arrays with edge keys as rows and vertices as
columns; the adjacency array of the graph is the product of the transposed
out-incidence with the in-incidence, and reversing the product order yields
the adjacency of the reversed graph.

``adjacency_oracle`` answers the same question by direct enumeration and is
the ground truth the product is compared against: the two agree exactly when
the algebra passes the compliance checks, and the witness constructions in
the criteria module show each check is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .algebra import Algebra, make_builtin
from .array import (
    AssociativeArray,
    Triple,
    _from_sorted_rows,
    _product_t,
    check_key,
    from_triples,
    # unused here but kept: perfbench/tracing.py wraps these bindings of graph
    matmul,
    transpose,
)
from .errors import DomainError, PreconditionError, ValidationError
from .values import Value


@dataclass(frozen=True)
class EdgeRecord:
    """One edge: a key, weighted sources, and weighted targets."""

    key: str
    sources: Mapping[str, Value]
    targets: Mapping[str, Value]


Graph = tuple[EdgeRecord, ...]
SideMaps = dict[str, dict[str, Value]]  # one side's weighted vertices, by edge key


@dataclass(frozen=True)
class IncidencePair:
    """Out- and in-incidence arrays sharing one edge-key row set.

    ``e_out`` stores (edge, vertex) weights for edge sources, ``e_in`` for
    edge targets; an entry is stored iff the edge actually touches the vertex,
    so the sparsity pattern alone encodes the graph structure.
    """

    e_out: AssociativeArray
    e_in: AssociativeArray


def incidence_arrays(g: Graph, alg: Algebra) -> IncidencePair:
    """Build the incidence pair, rejecting zero or non-carrier weights.

    A zero weight is refused rather than silently dropped because a stored
    structural edge with an unstored weight would make the sparsity pattern
    lie about the graph.
    """
    keys: set[str] = set()  # edge keys seen so far
    vertices: set[str] = set()  # vertex keys that passed check_key
    for edge in g:
        check_key(edge.key)
        if edge.key in keys:
            raise ValidationError(f"duplicate edge key {edge.key!r}")
        keys.add(edge.key)
        for side, name in ((edge.sources, "sources"), (edge.targets, "targets")):
            if not side:
                raise ValidationError(f"edge {edge.key!r} has no {name}")
            for vertex, weight in side.items():
                if vertex not in vertices:
                    vertices.add(check_key(vertex))
                if not alg.contains_op(weight):
                    raise ValidationError(
                        f"edge {edge.key!r} weight {weight!r} at {vertex!r} "
                        f"is outside the carrier of {alg.name}"
                    )
                if weight == alg.zero:
                    raise ValidationError(
                        f"edge {edge.key!r} has zero weight at vertex {vertex!r}"
                    )
    return _incidence_pair({e.key: dict(e.sources) for e in g}, {e.key: dict(e.targets) for e in g})


def _incidence_pair(sources: SideMaps, targets: SideMaps) -> IncidencePair:
    """The incidence pair of a graph :func:`incidence_arrays` accepts, unchecked.

    The caller hands the side maps over, and the arrays keep them as rows.
    No weight is zero, so nothing is dropped.  The edge keys are sorted once;
    a one-vertex side is sorted already, and any other becomes a sorted copy.
    """
    keys = sorted(sources)
    arrays = []
    for sides in (sources, targets):
        rows = {k: sides[k] for k in keys}
        for k, side in rows.items():
            if len(side) > 1:
                rows[k] = dict(sorted(side.items()))
        arrays.append(_from_sorted_rows(rows))
    return IncidencePair(*arrays)


def adjacency(
    p: IncidencePair,
    alg: Algebra,
    *,
    extra_sources: Iterable[str] = (),
    extra_targets: Iterable[str] = (),
) -> AssociativeArray:
    """Adjacency array: row x, column y holds the fold of out(k,x) times in(k,y).

    The fold is always the definition's, and the loop is picked from the
    algebra's laws as in :func:`~assocarray.array.matmul`; neither loop
    builds a transpose.  The extra key arguments widen the evaluated
    coordinates to vertices with no stored incidences, which is how spurious
    adjacency entries against isolated vertices are made observable for
    non-annihilating algebras.
    """
    return _product_t(
        p.e_out,
        p.e_in,
        alg,
        extra_row_keys=extra_sources,
        extra_col_keys=extra_targets,
    )


def reverse_adjacency(p: IncidencePair, alg: Algebra) -> AssociativeArray:
    """Adjacency of the reversed graph, from the same incidence pair."""
    return _product_t(p.e_in, p.e_out, alg)


def adjacency_oracle(p: IncidencePair) -> frozenset[tuple[str, str]]:
    """Adjacent (x, y) pairs by direct enumeration of stored incidences.

    Some edge must leave x and enter y.  This reads sparsity patterns only
    and never invokes the algebra's operations, so it is a fixed reference
    point no matter how ill-behaved the value algebra is.
    """
    pairs: set[tuple[str, str]] = set()
    for k, out_cols in p.e_out.rows.items():
        in_cols = p.e_in.rows.get(k)
        if not in_cols:
            continue
        for x in out_cols:
            for y in in_cols:
                pairs.add((x, y))
    return frozenset(pairs)


# --- set-valued document arrays ---------------------------------------------


@dataclass(frozen=True)
class WordOverlapViolation:
    """A word present at (row_a, col_a) and (row_b, col_b) but not (row_a, col_b)."""

    row_a: str
    col_a: str
    row_b: str
    col_b: str
    word: str


def shared_words_array(documents: Mapping[str, Iterable[str]]) -> AssociativeArray:
    """Array of pairwise shared word sets: entry (i, j) holds words(i) & words(j).

    Built over all document pairs including the diagonal; pairs sharing no
    words are simply absent, since the empty set is the sparsity value.
    """
    word_sets = {doc: frozenset(words) for doc, words in documents.items()}
    universe = sorted(set().union(*word_sets.values())) if word_sets else []
    alg = make_builtin("powerset", universe=universe)
    triples: list[Triple] = [
        (i, j, Value.tokens(word_sets[i] & word_sets[j]))
        for i in word_sets
        for j in word_sets
    ]
    return from_triples(triples, alg)


def check_word_consistency(E: AssociativeArray) -> WordOverlapViolation | None:
    """Check the rectangle property of word occurrences.

    Whenever a word appears in entries (i, j) and (m, n) it must appear in
    the cross entries (i, n) and (m, j); arrays of pairwise intersections
    have this shape automatically, hand-written ones may not.  Returns None
    when consistent, else the violation earliest in coordinate order.
    """
    # The answer for one word is fixed by its row -> column sets: i is the
    # first row lacking one of the word's columns, j that row's first column,
    # and (m, n) the first coordinate whose column is absent from row i.
    rows_of: dict[str, dict[str, set[str]]] = {}
    for r, c, v in E:
        if type(v) is not tuple:
            raise DomainError(f"entry ({r}, {c}) holds {v!r}, not a token set")
        for word in v:
            rows_of.setdefault(word, {}).setdefault(r, set()).add(c)
    found = []
    for word, rows in rows_of.items():
        width = len(set().union(*rows.values()))
        short = [r for r, cols in rows.items() if len(cols) != width]
        if short:
            i = min(short)
            row_i = rows[i]
            m = min(r for r, cols in rows.items() if not cols <= row_i)
            found.append((i, min(row_i), m, min(rows[m] - row_i), word))
    earliest = min(found, default=None)
    return None if earliest is None else WordOverlapViolation(*earliest)


def document_adjacency(E: AssociativeArray, alg: Algebra) -> AssociativeArray:
    """Product of the transposed shared-words array with itself.

    Entry (i, j) is the union over documents k of E(k, i) & E(k, j): the words
    i and j share, as witnessed through some row.  Requires word consistency;
    an inconsistent array raises a precondition error naming the violation.
    Works although intersection can turn two nonempty sets into the empty set,
    which is exactly the structural loophole the consistency check closes.
    ``alg`` is the powerset algebra E was built over.  Its intersection
    commutes, so each unordered pair (i, j) is folded once and mirrored.
    """
    violation = check_word_consistency(E)
    if violation is not None:
        raise PreconditionError(
            f"word {violation.word!r} appears at ({violation.row_a}, {violation.col_a}) "
            f"and ({violation.row_b}, {violation.col_b}) but not at "
            f"({violation.row_a}, {violation.col_b})"
        )
    return _product_t(E, E, alg)
