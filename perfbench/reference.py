"""Reference semantics the benchmark checks the CLI against.

Nothing here imports the package under test.  Every expected output is
computed from the generated inputs with plain Python values: ints, strings,
bitmasks and table indices stand in for carrier elements, and each algebra
is re-implemented from its documented definition.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

TOP = "￿"  # top of the string carrier; sorts above every alphanumeric
_EMPTY = object()

Coord = tuple[str, str]
# An edge: key, {source vertex: weight}, {target vertex: weight}.
Edge = tuple[str, Mapping[str, Hashable], Mapping[str, Hashable]]


@dataclass(frozen=True)
class RefAlgebra:
    """Two operations with designated identities over plain Python values.

    ``carrier`` is the listing order of a finite carrier, which is the order
    the compliance checks walk; None for infinite carriers.
    """

    zero: Hashable
    one: Hashable
    plus: Callable[[Hashable, Hashable], Hashable]
    times: Callable[[Hashable, Hashable], Hashable]
    enc: Callable[[Hashable], str]
    carrier: tuple | None = None


def natural() -> RefAlgebra:
    return RefAlgebra(0, 1, operator.add, operator.mul, str)


integer_ring = natural  # same operations; only the carrier (and laws) differ


def max_plus_realzero() -> RefAlgebra:
    return RefAlgebra(0, 0, max, operator.add, str)


def max_min_strings() -> RefAlgebra:
    return RefAlgebra("", TOP, max, min, lambda s: "<TOP>" if s == TOP else s)


def table(names: Sequence[str], zero: int, one: int,
          plus_rows: Sequence[Sequence[int]], times_rows: Sequence[Sequence[int]]) -> RefAlgebra:
    """Finite algebra over element indices, listed in ``names`` order."""
    return RefAlgebra(
        zero, one,
        lambda a, b: plus_rows[a][b],
        lambda a, b: times_rows[a][b],
        names.__getitem__,
        tuple(range(len(names))),
    )


def powerset(tokens: Iterable[str]) -> RefAlgebra:
    """Subsets of the tokens as bitmasks; bit i stands for the i-th sorted token.

    The carrier is listed by size, then in combination order, which is the
    enumeration order of the builtin family.
    """
    toks = sorted(set(tokens))
    carrier = tuple(
        sum(1 << i for i in combo)
        for size in range(len(toks) + 1)
        for combo in itertools.combinations(range(len(toks)), size)
    )

    def enc(mask: int) -> str:
        return "{" + ",".join(t for i, t in enumerate(toks) if mask >> i & 1) + "}"

    return RefAlgebra(0, (1 << len(toks)) - 1, operator.or_, operator.and_, enc, carrier)


def chain(levels: int) -> RefAlgebra:
    return RefAlgebra(0, levels - 1, max, min, str, tuple(range(levels)))


def fold(alg: RefAlgebra, terms: Iterable[Hashable]) -> Hashable:
    """Ascending left fold with no initial accumulator; no terms gives zero."""
    it = iter(terms)
    acc = next(it, _EMPTY)
    if acc is _EMPTY:
        return alg.zero
    for term in it:
        acc = alg.plus(acc, term)
    return acc


# --- graph products ------------------------------------------------------------


def sides(edges: Sequence[Edge], reverse: bool):
    """(left, right) incidence maps keyed by edge: the product folds left(k, i) times right(k, j)."""
    left = {k: (dst if reverse else src) for k, src, dst in edges}
    right = {k: (src if reverse else dst) for k, src, dst in edges}
    return left, right


def product_full(alg: RefAlgebra, edges: Sequence[Edge], *, reverse: bool = False,
                 extra_rows: Iterable[str] = (), extra_cols: Iterable[str] = ()) -> dict[Coord, Hashable]:
    """Adjacency by definition: every (row, column) folds over every edge key.

    Rows are the vertices on the left side of some edge (plus ``extra_rows``),
    columns those on the right side; unstored incidences read as zero, and
    entries that fold to zero are absent.
    """
    left, right = sides(edges, reverse)
    inner = sorted(left)
    rows = sorted({v for side in left.values() for v in side} | set(extra_rows))
    cols = sorted({v for side in right.values() for v in side} | set(extra_cols))
    z = alg.zero
    out: dict[Coord, Hashable] = {}
    for i in rows:
        a = [left[k].get(i, z) for k in inner]
        for j in cols:
            v = fold(alg, (alg.times(x, right[k].get(j, z)) for x, k in zip(a, inner)))
            if v != z:
                out[(i, j)] = v
    return out


def full_entries(alg: RefAlgebra, edges: Sequence[Edge], coords: Iterable[Coord], *,
                 reverse: bool = False) -> dict[Coord, Hashable]:
    """:func:`product_full` at the given coordinates only, zero where a
    coordinate is never evaluated."""
    left, right = sides(edges, reverse)
    inner = sorted(left)
    rows = {v for side in left.values() for v in side}
    cols = {v for side in right.values() for v in side}
    z = alg.zero
    return {
        (i, j): fold(alg, (alg.times(left[k].get(i, z), right[k].get(j, z)) for k in inner))
        if i in rows and j in cols else z
        for i, j in coords
    }


def product_sparse(alg: RefAlgebra, edges: Sequence[Edge], *, reverse: bool = False) -> dict[Coord, Hashable]:
    """The same fold restricted to edges stored on both sides.

    Equal to :func:`product_full` exactly when zero annihilates and nonzero
    terms never cancel, i.e. on certified algebras.
    """
    left, right = sides(edges, reverse)
    acc: dict[Coord, Hashable] = {}
    for k in sorted(left):
        for i, a in left[k].items():
            for j, b in right[k].items():
                term = alg.times(a, b)
                acc[(i, j)] = alg.plus(acc[(i, j)], term) if (i, j) in acc else term
    return {c: v for c, v in acc.items() if v != alg.zero}


def oracle(edges: Sequence[Edge], *, reverse: bool = False) -> frozenset[Coord]:
    """Adjacent pairs by enumeration: some edge leaves i and enters j."""
    left, right = sides(edges, reverse)
    return frozenset((i, j) for k in left for i in left[k] for j in right[k])


def triples_text(alg: RefAlgebra, entries: Mapping[Coord, Hashable]) -> str:
    return "".join(f"{r}\t{c}\t{alg.enc(v)}\n" for (r, c), v in sorted(entries.items()))


# --- compliance checks -----------------------------------------------------------


CHECKS = ("identity", "criterion1", "criterion2", "criterion3")


def law_witnesses(alg: RefAlgebra) -> dict[str, tuple | None]:
    """First violating witness of each law in carrier order, or None if it holds.

    Exhaustive over the finite carrier, walking elements (and ordered pairs
    of nonzero elements, row-major) in listing order.
    """
    z, o, P, T = alg.zero, alg.one, alg.plus, alg.times
    nonzero = [v for v in alg.carrier if v != z]
    return {
        "identity": next(((v,) for v in alg.carrier
                          if P(z, v) != v or P(v, z) != v or T(o, v) != v or T(v, o) != v), None),
        "criterion1": next(((v, w) for v in nonzero for w in nonzero if P(v, w) == z), None),
        "criterion2": next(((v, w) for v in nonzero for w in nonzero if T(v, w) == z), None),
        "criterion3": next(((v,) for v in alg.carrier if T(v, z) != z or T(z, v) != z), None),
    }


def validate_lines(alg: RefAlgebra, witnesses: Mapping[str, tuple | None]) -> str:
    """Machine-readable verdict lines, as ``validate --output`` writes them."""
    lines = []
    for name in CHECKS:
        w = witnesses[name]
        if w is None:
            lines.append(f"{name}\tpass\texhaustive")
        else:
            lines.append(f"{name}\tfail\t" + "\t".join(alg.enc(v) for v in w))
    certified = all(w is None for w in witnesses.values())
    lines.append(f"certified\t{'true' if certified else 'false'}")
    return "".join(line + "\n" for line in lines)


def witness_text(alg: RefAlgebra, criterion: int, witness: tuple) -> str:
    """Output of ``witness <criterion>``: the counterexample graph, its
    full-fold adjacency, the enumeration oracle and their mismatch."""
    z, o, enc = alg.zero, alg.one, alg.enc
    extra_rows: tuple[str, ...] = ()
    extra_cols: tuple[str, ...] = ()
    if criterion == 1:
        v, w = witness
        edges = [("k1", {"a": v}, {"b": o}), ("k2", {"a": w}, {"b": o})]
    elif criterion == 2:
        v, w = witness
        edges = [("k", {"a": v}, {"a": w})]
    else:
        (v,) = witness
        edges = [("k", {"a": v}, {"a": v})]
        extra_rows = ("b",) if alg.times(z, v) != z else ()
        extra_cols = ("b",) if alg.times(v, z) != z else ()
    adj = product_full(alg, edges, extra_rows=extra_rows, extra_cols=extra_cols)
    truth = oracle(edges)
    chunks = ["# witness-edges\n"]
    for key, src, dst in sorted(edges, key=lambda e: e[0]):
        chunks += [f"{key}\t{s}\t{d}\t{enc(src[s])}\t{enc(dst[d])}\n"
                   for s in sorted(src) for d in sorted(dst)]
    chunks += ["# adjacency\n", triples_text(alg, adj), "# oracle\n"]
    chunks += [f"{x}\t{y}\n" for x, y in sorted(truth)]
    chunks.append("# mismatch\n")
    chunks += [f"missing\t{r}\t{c}\t{enc(z)}\n" for r, c in sorted(truth - adj.keys())]
    chunks += [f"spurious\t{r}\t{c}\t{enc(adj[(r, c)])}\n" for r, c in sorted(adj.keys() - truth)]
    return "".join(chunks)


# --- shared-words documents ------------------------------------------------------


def token_set_text(words: Iterable[str]) -> str:
    return "{" + ",".join(sorted(words)) + "}"


def shared_words(docs: Mapping[str, frozenset[str]]) -> dict[Coord, frozenset[str]]:
    """Pairwise word-set intersections, diagonal included, empty ones absent."""
    return {(i, j): docs[i] & docs[j] for i in docs for j in docs if docs[i] & docs[j]}


def min_violation(entries: Mapping[Coord, frozenset[str]]) -> tuple[str, str, str, str, str] | None:
    """Smallest (i, j, m, n, word) with the word at (i, j) and (m, n) but not (i, n).

    For each word the smallest row i missing one of the word's columns fixes
    the answer, so no quadruple list is ever built.
    """
    occurrences: dict[str, set[Coord]] = {}
    for coord, words in entries.items():
        for word in words:
            occurrences.setdefault(word, set()).add(coord)
    best = None
    for word, coords in occurrences.items():
        cols = {c for _, c in coords}
        for i in sorted({r for r, _ in coords}):
            present = {c for r, c in coords if r == i}
            missing = cols - present
            if missing:
                m, n = min((m, n) for m, n in coords if n in missing)
                candidate = (i, min(present), m, n, word)
                best = candidate if best is None else min(best, candidate)
                break
    return best
