"""Sparse associative arrays.

An array maps pairs of string keys to algebra values.  Only values different
from the algebra's zero are stored, and the key sets are exactly the rows and
columns that carry at least one stored entry, kept in ascending order.  Keys
are strings without tabs or line breaks that are neither blank nor start with
``#`` after leading whitespace, so every array serializes losslessly to
tab-separated triples.

All reductions here are bare left folds in ascending key order: a single term
is returned as-is, an empty sequence of terms yields the algebra's zero, and
nothing is ever combined with an implicit leading zero.  That discipline is
what lets deliberately lawless algebras behave reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Mapping

from .algebra import CHECK_CRITERION3, CHECK_IDENTITY, Algebra
from .errors import ValidationError
from .values import Value, _has_field_break

Triple = tuple[str, str, Value]

def check_key(key: str) -> str:
    if not isinstance(key, str):
        raise ValidationError(f"key must be a non-empty string, got {key!r}")
    if _has_field_break(key):
        raise ValidationError(f"key {key!r} contains a tab or line break")
    return _check_field_key(key)


def _check_field_key(key: str) -> str:
    # check_key for a tab-split field of a str.splitlines line, which holds no field break
    if not key:
        raise ValidationError(f"key must be a non-empty string, got {key!r}")
    if key.lstrip()[:1] in ("", "#"):
        # its line would read back as a blank line or a comment and be skipped
        raise ValidationError(f"key {key!r} is blank or, after leading whitespace, starts with '#'")
    return key


@dataclass(frozen=True)
class AssociativeArray:
    """Immutable sparse two-key map.

    ``rows`` maps each row key to its stored columns; both levels are built
    in ascending key order.  Construct through :func:`from_triples` or the
    other module functions rather than directly.
    """

    rows: dict[str, dict[str, Value]]
    row_keys: tuple[str, ...]
    col_keys: tuple[str, ...]

    def __iter__(self) -> Iterator[Triple]:
        for r, cols in self.rows.items():
            for c, v in cols.items():
                yield (r, c, v)

    @property
    def nnz(self) -> int:
        return sum(len(cols) for cols in self.rows.values())


def _build(rows: Mapping[str, Mapping[str, Value]], alg: Algebra) -> AssociativeArray:
    # Sorts both levels and drops zeros, for from_triples (a fold may end at
    # zero) and _ewise.  Both levels are copied, so no caller's map is aliased.
    zero = alg.zero
    built: dict[str, dict[str, Value]] = {}
    for r in sorted(rows):
        cols = dict(sorted(rows[r].items()))
        if zero in cols.values():
            cols = {c: v for c, v in cols.items() if v != zero}
        if cols:
            built[r] = cols
    return _from_sorted_rows(built)


def _from_sorted_rows(rows: dict[str, dict[str, Value]]) -> AssociativeArray:
    # rows and each row's columns are already in ascending order, with no
    # zero and no empty row; the array takes ``rows`` itself, uncopied.
    return AssociativeArray(
        rows=rows,
        row_keys=tuple(rows),
        col_keys=tuple(sorted(set().union(*rows.values()))),
    )


def empty() -> AssociativeArray:
    return AssociativeArray(rows={}, row_keys=(), col_keys=())


def from_triples(triples: Iterable[Triple], alg: Algebra) -> AssociativeArray:
    """Build an array, combining duplicate coordinates with the algebra's plus.

    Values are folded in input order, so duplicates are meaningful even when
    plus is not commutative.  Explicit zero inputs participate in the fold as
    ordinary terms; coordinates whose folded value equals zero are dropped.
    """
    triples = list(triples)
    for r, c, v in triples:
        check_key(r)
        check_key(c)
        if not alg.contains_op(v):
            raise ValidationError(
                f"value {v!r} at ({r}, {c}) is outside the carrier of {alg.name}"
            )
    return _fold_triples(triples, alg)


def _fold_triples(triples: Iterable[Triple], alg: Algebra) -> AssociativeArray:
    # from_triples without its checks: every key must pass check_key and
    # every value lie in alg's carrier.
    rows: dict[str, dict[str, Value]] = {}
    for r, c, v in triples:
        row = rows.setdefault(r, {})
        row[c] = alg.lift(alg.plus_op(alg.lower(row[c]), alg.lower(v))) if c in row else v
    return _build(rows, alg)


def get(arr: AssociativeArray, row: str, col: str, alg: Algebra) -> Value:
    """Return the stored value at (row, col), or the algebra's zero."""
    cols = arr.rows.get(row)
    if cols is None:
        return alg.zero
    return cols.get(col, alg.zero)


def support(arr: AssociativeArray) -> frozenset[tuple[str, str]]:
    return frozenset((r, c) for r, c, _ in arr)


def transpose(arr: AssociativeArray) -> AssociativeArray:
    rows = _by_column(arr.rows, arr.col_keys)
    return AssociativeArray(rows=rows, row_keys=arr.col_keys, col_keys=arr.row_keys)


def _by_column(rows: Mapping[str, Mapping], cols: Iterable[str]) -> dict[str, dict]:
    # {c: {r: v}} over every c in cols, which must hold each stored column.  With
    # cols sorted and rows in ascending order, both levels come out sorted.
    by_col: dict[str, dict] = {c: {} for c in cols}
    for r, row in rows.items():
        for c, v in row.items():
            by_col[c][r] = v
    return by_col


def _ewise(
    a: AssociativeArray, b: AssociativeArray, alg: Algebra, op: Callable
) -> AssociativeArray:
    lower, z = alg.lower, alg.lower(alg.zero)
    rows: dict[str, dict[str, Value]] = {}
    for r, c in support(a) | support(b):
        v = op(lower(get(a, r, c, alg)), lower(get(b, r, c, alg)))
        if v != z:
            rows.setdefault(r, {})[c] = alg.lift(v)
    return _build(rows, alg)


def ewise_add(a: AssociativeArray, b: AssociativeArray, alg: Algebra) -> AssociativeArray:
    """Entrywise plus over the union of the two supports.

    Coordinates stored on one side only still combine with the other side's
    implicit zero, so algebras with dishonest identities show their behavior
    here instead of being papered over.
    """
    return _ewise(a, b, alg, alg.plus_op)


def ewise_mult(a: AssociativeArray, b: AssociativeArray, alg: Algebra) -> AssociativeArray:
    """Entrywise times over the union of the two supports.

    The union (not intersection) matters: multiplying a stored value by an
    implicit zero need not vanish when zero fails to annihilate.
    """
    return _ewise(a, b, alg, alg.times_op)


def _run(plus: Callable, acc, t00, r: int):
    """Apply ``acc <- plus(acc, t00)`` r times on natives, stopping early at a
    fixed point: an entry's gap and tail runs (the leading run is shared)."""
    for _ in range(r):
        nxt = plus(acc, t00)
        if nxt == acc:
            break
        acc = nxt
    return acc


def _zero_is_inert(alg: Algebra) -> bool:
    """Whether zero is proved a two-sided plus identity and times annihilator.

    The algebra's ``proved`` checks decide it when they include both laws.
    Otherwise only a finite carrier, which means a parsed table, is scanned,
    stopping at the first failure; its 4 op calls per element cost less than
    the table's 2n^2 cells did to parse.
    """
    if {CHECK_IDENTITY, CHECK_CRITERION3} <= alg.proved:
        return True
    if not alg.is_finite:
        return False
    plus, times, z = alg.plus_op, alg.times_op, alg.lower(alg.zero)
    return all(
        plus(z, x) == x == plus(x, z) and times(z, x) == z == times(x, z)
        for x in map(alg.lower, alg.carrier)
    )


def _plus_is_semigroup(alg: Algebra, budget: int) -> bool:
    """``alg.plus_semigroup`` where stated, or else whether plus commutes and associates on
    a finite carrier of n elements with n^3 <= ``budget``: n^2 plus calls, n^2 + n^3 lookups."""
    if alg.plus_semigroup is not None or not alg.is_finite or len(alg.carrier) ** 3 > budget:
        return bool(alg.plus_semigroup)
    xs = list(map(alg.lower, alg.carrier))
    s = {(x, y): alg.plus_op(x, y) for x in xs for y in xs}
    return all(s[x, y] == s[y, x] for x, y in s) and all(
        s[s[x, y], z] == s[x, s[y, z]] for x, y in s for z in xs
    )


def matmul(
    a: AssociativeArray,
    b: AssociativeArray,
    alg: Algebra,
    *,
    extra_row_keys: Iterable[str] = (),
    extra_col_keys: Iterable[str] = (),
) -> AssociativeArray:
    """Array product: C(i, j) folds a(i, k) times b(k, j) over inner keys.

    The inner key set is the union of a's columns and b's rows, walked in
    ascending order; every inner key contributes a term, with missing entries
    read as zero.  The result is always exactly that fold; the loop that
    computes it is chosen from the algebra's laws.

    Both loops run on the algebra's natives: each stored value is lowered
    where it is read, zeros are dropped by comparing natives, and only the
    results that are stored are lifted back to values.  ``a`` is transposed
    once, and both loops walk the inner keys k in ascending order as the rows
    of both operands, folding in the terms of a's column k and b's row k.

    When zero is proved inert (a two-sided plus identity and a two-sided
    times annihilator), every term with an unstored factor is zero and folds
    away, so the loop folds the outer product of the stored pairs alone; a
    stored pair whose product is zero folds away too.  For XᵀX with times
    commuting, (j, i) folds the terms of (i, j): only j >= i is folded.

    Otherwise only the terms that differ from ``t00 = times(zero, zero)``
    are evaluated: a stored a(i, k) times a stored b(k, j), a(i, k) times
    zero for the columns b's row k lacks, and zero times b(k, j) for the rows
    a's column k lacks.  The ``t00`` terms between them are folded as runs
    of ``plus(acc, t00)`` that stop early at a fixed point, with the same
    result as the definition; the leading run, before an entry's first
    such term, is folded once per product and shared by every entry.

    If those terms outnumber the output entries and plus is commutative and
    associative (``alg.plus_semigroup``, or a scan of a table of n elements
    with n^3 at most the output entries), partial sums replace the runs: an
    entry whose row of a and column of b share no stored inner key adds its
    row's fold of a(i, k) times zero, its column's fold of zero times b(k, j)
    and one ``t00`` run.  Only an entry over a stored pair folds its terms.

    ``extra_row_keys`` / ``extra_col_keys`` widen the candidate output
    coordinates beyond the stored key sets, so products against rows or
    columns that exist only implicitly (all zero) can still be observed.
    """
    at = transpose(a)
    return _product_t(  # b itself when it equals transpose(a), so XᵀX takes the walk
        b if at == b else at, b, alg, extra_row_keys=extra_row_keys, extra_col_keys=extra_col_keys
    )


def _product_t(
    at: AssociativeArray,
    b: AssociativeArray,
    alg: Algebra,
    *,
    extra_row_keys: Iterable[str] = (),
    extra_col_keys: Iterable[str] = (),
) -> AssociativeArray:
    """:func:`matmul` of ``transpose(at)`` and ``b``: the inner keys are the rows of both.
    The full fold steps its leading ``t00`` run once, shared by every entry, or takes
    partial sums when its count of terms other than ``t00`` exceeds the output entries.
    With ``at is b`` and ``alg.times_commutes``, the inert loop folds j >= i and mirrors."""
    extra_rows = {check_key(k) for k in extra_row_keys}
    extra_cols = {check_key(k) for k in extra_col_keys}
    plus, times, lower, lift = alg.plus_op, alg.times_op, alg.lower, alg.lift
    z = lower(alg.zero)
    at_rows, b_rows = at.rows, b.rows
    rows: dict[str, dict[str, Value]] = {}
    if _zero_is_inert(alg):
        # Each stored value is lowered once.
        accs: dict[str, dict[str, object]] = {}
        if at is b and alg.times_commutes:
            for row in at_rows.values():
                xs = list(zip(row, map(lower, row.values())))
                for n, (i, x) in enumerate(xs):
                    acc = accs.setdefault(i, {})
                    for j, y in xs[n:]:  # (j, i) folds these terms too
                        term = times(x, y)
                        if term != z:
                            acc[j] = plus(acc[j], term) if j in acc else term
            rows = {i: {} for i in sorted(accs)}  # filled by ascending i, columns stay sorted
            for i, row in rows.items():
                for j, v in sorted(accs[i].items()):
                    if v != z:
                        row[j] = rows[j][i] = lift(v)
            return _from_sorted_rows({i: row for i, row in rows.items() if row})
        for k, at_row in at_rows.items():
            b_row = b_rows.get(k)
            if not b_row:
                continue
            ys = list(zip(b_row, map(lower, b_row.values())))
            for i, a_ik in at_row.items():
                x = lower(a_ik)
                acc = accs.setdefault(i, {})
                for j, y in ys:
                    term = times(x, y)
                    if term != z:  # a zero term folds away, zero being a plus identity
                        acc[j] = plus(acc[j], term) if j in acc else term
        for i in sorted(accs):
            row = {j: lift(v) for j, v in sorted(accs[i].items()) if v != z}
            if row:
                rows[i] = row
        return _from_sorted_rows(rows)

    inner = sorted(set(at.row_keys) | set(b.row_keys))
    if not inner:
        return empty()  # every fold is over no terms
    out_rows = sorted(set(at.col_keys) | extra_rows)
    out_cols = sorted(set(b.col_keys) | extra_cols)
    t00 = times(z, z)
    n, last = len(inner), len(inner) - 1
    # lead[r]: t00 folded with r more t00 terms, up to its fixed point, which
    # lead[cap] holds if reached; every entry shares this leading run.
    lead = [t00]
    while len(lead) <= last and (nxt := plus(lead[-1], t00)) != lead[-1]:
        lead.append(nxt)
    cap = len(lead) - 1
    # Row i of a as A_i = {k: (x, x times zero)} and column j of b as B_j =
    # {k: (y, zero times y)}: each value lowered, each term against zero evaluated, once.
    a_keys = {
        i: {k: (x, times(x, z)) for k, x in zip(r, map(lower, r.values()))}
        for i, r in _by_column(at_rows, out_rows).items()
    }
    b_keys = {
        j: {k: (y, times(z, y)) for k, y in zip(r, map(lower, r.values()))}
        for j, r in _by_column(b_rows, out_cols).items()
    }
    n_rows, n_cols = len(out_rows), len(out_cols)
    # the terms other than t00 that the run-compressed loop below folds
    events = sum(len(b_rows.get(k, ())) if u == t00 else n_cols
                 for a_i in a_keys.values() for k, (_, u) in a_i.items())
    events += sum(n_rows - len(at_rows.get(k, ()))
                  for b_j in b_keys.values() for k, (_, w) in b_j.items() if w != t00)
    if events > n_rows * n_cols and _plus_is_semigroup(alg, n_rows * n_cols):
        # Partial sums (see matmul): R_i folds the u over A_i, Q_j the w over B_j.
        cols = [  # (j, B_j, Q_j or None where B_j is empty, n - |B_j|)
            (j, b_j, reduce(plus, [w for _, w in b_j.values()]) if b_j else None, n - len(b_j))
            for j, b_j in b_keys.items()
        ]
        rests = {rest for *_, rest in cols}
        for i, a_i in a_keys.items():
            r = reduce(plus, [u for _, u in a_i.values()]) if a_i else None
            meet, row = set().union(*(b_rows[k] for k in a_i if k in b_rows)), {}
            bases = {}  # n - |B_j| -> R_i + the run of n - |A_i| - |B_j| t00 terms, or None
            for rest in rests:
                t = lead[min(m - 1, cap)] if (m := rest - len(a_i)) > 0 else None
                bases[rest] = r if t is None else t if r is None else plus(r, t)
            for j, b_j, q, rest in cols:
                if j in meet:  # fold the terms over A_i | B_j
                    terms = [times(x, b_j[k][0]) if k in b_j else u for k, (x, u) in a_i.items()]
                    terms += [w for k, (_, w) in b_j.items() if k not in a_i]
                    if len(terms) < n:
                        terms.append(lead[min(n - len(terms) - 1, cap)])
                    v = reduce(plus, terms)
                else:
                    v = q if (base := bases[rest]) is None else base if q is None else plus(base, q)
                if v != z:
                    row[j] = lift(v)
            rows[i] = row
        return _from_sorted_rows({i: row for i, row in rows.items() if row})
    xs, ys = _by_column(a_keys, inner), _by_column(b_keys, inner)
    # Per entry: [accumulator, position of its last folded term].  A term at
    # position p first folds the t00 run since that position; with no
    # accumulator yet, that is the leading run of p terms.
    folds: dict[str, dict[str, list]] = {i: {} for i in out_rows}
    for p, k in enumerate(inner):
        at_row, b_row = xs[k], ys[k]
        # zero times b(k, j), shared by every row that does not store a(i, k)
        zero_terms = [(j, w) for j, (_, w) in b_row.items() if w != t00]
        for i in out_rows if zero_terms else at_row:
            if i not in at_row:
                terms = zero_terms
            else:
                x, u = at_row[i]
                if u == t00:  # events only where b(k, j) is stored
                    terms = ((j, times(x, y)) for j, (y, _) in b_row.items())
                else:
                    terms = [(j, times(x, b_row[j][0]) if j in b_row else u) for j in out_cols]
            states = folds[i]
            for j, t in terms:
                s = states.get(j)
                if s is None:
                    states[j] = [plus(lead[min(p - 1, cap)], t) if p else t, p]
                else:
                    acc, gap = s[0], p - s[1] - 1
                    # the first step inline: the accumulator is mostly a fixed point
                    if gap and (nxt := plus(acc, t00)) != acc:
                        acc = _run(plus, nxt, t00, gap - 1)
                    s[0], s[1] = plus(acc, t), p
    for i, states in folds.items():
        row = rows[i] = {}
        for j in out_cols:
            s = states.get(j)
            v = lead[cap] if s is None else _run(plus, s[0], t00, last - s[1])
            if v != z:
                row[j] = lift(v)
    return _from_sorted_rows({i: row for i, row in rows.items() if row})
