"""Graphs as incidence arrays and their adjacency products.

A graph holds, per side, a map from each edge key to its weighted vertices:
the sources the edge leaves and the targets it enters (hyperedges are
allowed: several sources or targets per edge).  The incidence view stores
two arrays with edge keys as rows and vertices as columns; the adjacency
array of the graph is the product of the transposed out-incidence with the
in-incidence, and reversing the product order yields the adjacency of the
reversed graph.  Those arrays are a sorted view of the side maps, so
``adjacency`` folds the side maps themselves, in ascending edge-key order
only where the algebra's plus needs it.

``adjacency_oracle`` answers the same question by direct enumeration and is
the ground truth the product is compared against: the two agree exactly when
the algebra passes the compliance checks, and the witness constructions in
the criteria module show each check is needed.

``document_adjacency`` is the product EᵀE of a set-valued shared-words array
over the powerset algebra; once the rectangle property of word occurrences is
checked, it is read off the column unions of E without folding the product.
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

SideMaps = dict[str, dict[str, Value]]  # one side's weighted vertices, by edge key


@dataclass(frozen=True)
class Graph:
    """Per side, edge key -> vertex -> weight, checked for one algebra.

    Build it with :func:`~assocarray.fileio.parse_edge_list` or
    :func:`build_graph`, which refuse a bad key, a repeated edge key, an
    empty side and a zero or non-carrier weight.  :func:`incidence_arrays`
    shares the maps with its arrays, so neither may be mutated.
    """

    sources: SideMaps
    targets: SideMaps


def build_graph(edges: Iterable[tuple[str, Mapping, Mapping]], alg: Algebra) -> Graph:
    """Check ``(key, sources, targets)`` edges in order; each side is copied.

    Per edge: its key, no earlier edge with that key, then per side its
    emptiness before each vertex's key, carrier membership and nonzero
    weight.  A zero weight is refused rather than dropped, since a stored
    edge with an unstored weight would make the sparsity pattern lie.
    """
    sources: SideMaps = {}
    targets: SideMaps = {}
    vertices: set[str] = set()  # vertex keys that passed check_key
    for key, out_side, in_side in edges:
        check_key(key)
        if key in sources:
            raise ValidationError(f"duplicate edge key {key!r}")
        for side, name, maps in ((out_side, "sources", sources), (in_side, "targets", targets)):
            if not side:
                raise ValidationError(f"edge {key!r} has no {name}")
            for vertex, weight in side.items():
                if vertex not in vertices:
                    vertices.add(check_key(vertex))
                if not alg.contains_op(weight):
                    raise ValidationError(
                        f"edge {key!r} weight {weight!r} at {vertex!r} "
                        f"is outside the carrier of {alg.name}"
                    )
                if weight == alg.zero:
                    raise ValidationError(f"edge {key!r} has zero weight at vertex {vertex!r}")
            maps[key] = dict(side)
    return Graph(sources, targets)


@dataclass(frozen=True)
class IncidencePair:
    """Out- and in-incidence arrays sharing one edge-key row set.

    ``e_out`` stores (edge, vertex) weights for edge sources, ``e_in`` for
    edge targets; an entry is stored iff the edge actually touches the vertex,
    so the sparsity pattern alone encodes the graph structure.
    """

    e_out: AssociativeArray
    e_in: AssociativeArray


def incidence_arrays(g: Graph) -> IncidencePair:
    """The incidence pair, taking the checked graph's maps over as rows.

    No weight is zero, so nothing is dropped.  The edge keys are sorted once;
    a one-vertex side is sorted already, and any other becomes a sorted copy.
    """
    keys = sorted(g.sources)
    arrays = []
    for sides in (g.sources, g.targets):
        rows = {k: sides[k] for k in keys}
        for k, side in rows.items():
            if len(side) > 1:
                rows[k] = dict(sorted(side.items()))
        arrays.append(_from_sorted_rows(rows))
    return IncidencePair(*arrays)


def adjacency(
    g: Graph,
    alg: Algebra,
    *,
    extra_sources: Iterable[str] = (),
    extra_targets: Iterable[str] = (),
) -> AssociativeArray:
    """Adjacency array: row x, column y holds the fold of out(k,x) times in(k,y).

    This is E_outᵀE_in, read from the graph's side maps as they are, with no
    incidence arrays built: the fold is always the definition's, and the
    loop is picked from the algebra's laws as in
    :func:`~assocarray.array.matmul`; no loop builds a transpose.  The extra
    key arguments widen the evaluated coordinates to vertices with no stored
    incidences, which is how spurious adjacency entries against isolated
    vertices are made observable for non-annihilating algebras.
    """
    return _product_t(
        g.sources, g.targets, alg, extra_row_keys=extra_sources, extra_col_keys=extra_targets
    )


def reverse_adjacency(g: Graph, alg: Algebra) -> AssociativeArray:
    """Adjacency of the reversed graph: E_inᵀE_out, from the same side maps."""
    return _product_t(g.targets, g.sources, alg)


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
    ``alg`` is the powerset algebra E was built over.

    Once the check passes, the product has a closed form: with C_i the union
    of column i, entry (i, j) is C_i & C_j.  Each word t occurs exactly on a
    rectangle R_t x C_t, so t in E(k, i) & E(m, j) puts t in E(k, j) too, and
    union and intersection distribute: (U_k E(k, i)) & (U_m E(m, j)) =
    U_k,m E(k, i) & E(m, j) = U_k E(k, i) & E(k, j), the definition's fold.
    """
    violation = check_word_consistency(E)
    if violation is not None:
        raise PreconditionError(
            f"word {violation.word!r} appears at ({violation.row_a}, {violation.col_a}) "
            f"and ({violation.row_b}, {violation.col_b}) but not at "
            f"({violation.row_a}, {violation.col_b})"
        )
    plus, times, lower, lift = alg.plus_op, alg.times_op, alg.lower, alg.lift
    unions: dict[str, object] = {}  # C_i, lowered: column i folded by ascending k
    for row in E.rows.values():
        for i, v in row.items():
            unions[i] = plus(unions[i], lower(v)) if i in unions else lower(v)
    cs, z = sorted(unions.items()), lower(alg.zero)
    rows: dict[str, dict[str, Value]] = {i: {} for i, _ in cs}
    for n, (i, x) in enumerate(cs):  # row j gets every i < j before its own j >= i: sorted
        for j, y in cs[n:]:
            if (v := times(x, y)) != z:
                rows[i][j] = rows[j][i] = lift(v)
    return _from_sorted_rows({i: row for i, row in rows.items() if row})
