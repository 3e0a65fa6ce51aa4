"""Algebra compliance checks and counterexample constructions.

Adjacency-by-multiplication agrees with the enumeration oracle exactly when
the algebra has no non-trivial additive inverses, no zero divisors, and an
annihilating zero (plus honest identity elements).  This module decides those
properties for a given algebra, exhaustively on finite carriers and by
sampling otherwise, and turns every failure into a small executable graph
whose computed adjacency visibly disagrees with the oracle.

Each witness graph is the minimal construction for its criterion: parallel
edges whose out-weights cancel, a self-loop whose endpoint weights multiply
to zero, and a self-loop next to an isolated vertex that a non-annihilating
zero falsely connects.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .algebra import (
    CHECK_CRITERION1,
    CHECK_CRITERION2,
    CHECK_CRITERION3,
    CHECK_IDENTITY,
    Algebra,
)
from .array import AssociativeArray, get, support
from .errors import ConfigurationError, InternalConsistencyError, PreconditionError
from .graph import (
    EdgeRecord,
    Graph,
    adjacency,
    adjacency_oracle,
    incidence_arrays,
)
from .values import Value, encode_value

DEFAULT_SAMPLES = 1000

CHECK_LABELS = {
    CHECK_IDENTITY: "identity laws",
    CHECK_CRITERION1: "no additive inverses",
    CHECK_CRITERION2: "zero-product property",
    CHECK_CRITERION3: "zero annihilates",
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check: pass with a coverage mode, or fail with witnesses."""

    passed: bool
    mode: str | None = None  # "exhaustive" or "sampled N"; None on fail
    witness: tuple[Value, ...] = ()

    def describe(self) -> str:
        if self.passed:
            return f"pass ({self.mode})"
        shown = ", ".join(encode_value(v) for v in self.witness)
        return f"FAIL, witness {shown}"


def _violates(alg: Algebra, name: str, witness: tuple[Value, ...]) -> bool:
    plus, times, lower = alg.plus_op, alg.times_op, alg.lower
    z = lower(alg.zero)
    if name == CHECK_IDENTITY:
        (v,) = map(lower, witness)
        o = lower(alg.one)
        return plus(z, v) != v or plus(v, z) != v or times(o, v) != v or times(v, o) != v
    if name == CHECK_CRITERION1:
        v, w = map(lower, witness)
        return v != z and w != z and plus(v, w) == z
    if name == CHECK_CRITERION2:
        v, w = map(lower, witness)
        return v != z and w != z and times(v, w) == z
    if name == CHECK_CRITERION3:
        (v,) = map(lower, witness)
        return times(v, z) != z or times(z, v) != z
    raise InternalConsistencyError(f"unknown check {name!r}")


def _fail(alg: Algebra, name: str, witness: tuple[Value, ...]) -> Verdict:
    # Every fail verdict must replay: a witness that does not reproduce its
    # violation means the checker itself is broken.
    if not _violates(alg, name, witness):
        shown = ", ".join(encode_value(v) for v in witness)
        raise InternalConsistencyError(
            f"claimed {name} witness ({shown}) does not violate the law in {alg.name}"
        )
    return Verdict(passed=False, witness=witness)


def check(alg: Algebra, name: str, *, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> Verdict:
    """Decide the check ``name``, one of ``CHECK_LABELS``.

    A known failure wins; else every candidate is tried: the carrier (or
    every pair of nonzero members) when it is finite, else ``samples``
    seeded draws, at least one.  The first violation is replayed.
    """
    if name not in CHECK_LABELS:
        raise ConfigurationError(f"unknown check {name!r}; known: {', '.join(CHECK_LABELS)}")
    if samples < 1:
        raise ConfigurationError(f"samples must be at least 1, got {samples}")
    known = alg.known_failures.get(name)
    if known is not None:
        return _fail(alg, name, tuple(known))
    rng = random.Random(seed)
    if name in (CHECK_IDENTITY, CHECK_CRITERION3):
        candidates = alg.carrier if alg.is_finite else (alg.sample(rng) for _ in range(samples))
        for v in candidates:
            if _violates(alg, name, (v,)):
                return _fail(alg, name, (v,))
    else:
        # Pairs are O(n^2), so the operation is bound once and tested inline
        # on natives; _violates only replays the witness found.
        op = alg.plus_op if name == CHECK_CRITERION1 else alg.times_op
        lower, z = alg.lower, alg.lower(alg.zero)
        if alg.is_finite:
            nonzero = [x for x in map(lower, alg.carrier) if x != z]
            pairs: Iterable[tuple] = itertools.product(nonzero, repeat=2)
        else:
            pairs = (
                (lower(alg.sample_nonzero(rng)), lower(alg.sample_nonzero(rng)))
                for _ in range(samples)
            )
        for x, y in pairs:
            if op(x, y) == z:
                return _fail(alg, name, (alg.lift(x), alg.lift(y)))
    mode = "exhaustive" if alg.is_finite else f"sampled {samples}"
    return Verdict(passed=True, mode=mode)


@dataclass(frozen=True)
class CriteriaReport:
    """Aggregate of the four checks for one algebra.

    ``verdicts`` maps each check name to its verdict, in ``CHECK_LABELS``
    order.  ``certified`` means every check passed with full confidence:
    exhaustively for finite carriers, or as one of the algebra's ``proved``
    checks.  A sampled pass alone never certifies, since sampling cannot
    prove a universal statement.
    """

    algebra_name: str
    verdicts: Mapping[str, Verdict]
    certified: bool

    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, verdict in self.verdicts.items() if not verdict.passed)

    def to_machine_lines(self) -> list[str]:
        lines = []
        for name, verdict in self.verdicts.items():
            if verdict.passed:
                lines.append(f"{name}\tpass\t{verdict.mode}")
            else:
                shown = "\t".join(encode_value(v) for v in verdict.witness)
                lines.append(f"{name}\tfail\t{shown}")
        lines.append(f"certified\t{'true' if self.certified else 'false'}")
        return lines

    def to_text(self) -> str:
        lines = [f"algebra: {self.algebra_name}"]
        for name, verdict in self.verdicts.items():
            lines.append(f"{name} ({CHECK_LABELS[name]}): {verdict.describe()}")
        lines.append(f"certified: {'yes' if self.certified else 'no'}")
        return "\n".join(lines)


def validate(alg: Algebra, *, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> CriteriaReport:
    """Run all four checks and decide certification."""
    verdicts = {name: check(alg, name, samples=samples, seed=seed) for name in CHECK_LABELS}
    all_passed = all(verdict.passed for verdict in verdicts.values())
    certified = all_passed and (alg.is_finite or alg.proved.issuperset(CHECK_LABELS))
    return CriteriaReport(alg.name, verdicts, certified)


# --- witness constructions ---------------------------------------------------


@dataclass(frozen=True)
class WitnessCase:
    """A graph that exposes one criterion failure through its adjacency.

    ``expected_oracle`` is what adjacency support should be; running the
    product over the failing algebra disagrees.  The extra vertex fields list
    vertices with no incident edges that the adjacency evaluation must still
    consider, which is how a non-annihilating zero's spurious entries against
    isolated vertices become visible.
    """

    criterion: int
    graph: Graph
    expected_oracle: frozenset[tuple[str, str]]
    description: str
    extra_source_vertices: tuple[str, ...] = ()
    extra_target_vertices: tuple[str, ...] = ()


def _require_violation(alg: Algebra, name: str, witness: tuple[Value, ...]) -> None:
    """A witness builder's precondition: carrier members that violate ``name``."""
    for v in witness:
        alg._require_member(v)
    if not _violates(alg, name, witness):
        shown = ", ".join(encode_value(v) for v in witness)
        raise PreconditionError(
            f"({shown}) does not violate {name} ({CHECK_LABELS[name]}) in {alg.name}"
        )


def witness_additive_inverse(v: Value, w: Value, alg: Algebra) -> WitnessCase:
    """Parallel edges a->b with out-weights v and w, where v plus w is zero.

    Both edges really connect a to b, but their contributions cancel and the
    computed adjacency loses the pair.  Both in-weights are one, so the entry
    that must cancel is v times one plus w times one; where one is not a right
    identity of times it need not be zero, and no witness can be built.
    """
    _require_violation(alg, CHECK_CRITERION1, (v, w))
    one = alg.one
    if one == alg.zero:
        raise PreconditionError(
            "construction needs a nonzero one for the in-weights"
        )
    lower, times = alg.lower, alg.times_op
    entry = alg.plus_op(times(lower(v), lower(one)), times(lower(w), lower(one)))
    if entry != lower(alg.zero):
        raise PreconditionError(
            f"construction needs {encode_value(v)}*{encode_value(one)} + "
            f"{encode_value(w)}*{encode_value(one)} to be zero for the in-weights, "
            f"got {encode_value(alg.lift(entry))} in {alg.name}"
        )
    graph = (
        EdgeRecord("k1", sources={"a": v}, targets={"b": one}),
        EdgeRecord("k2", sources={"a": w}, targets={"b": one}),
    )
    return WitnessCase(
        criterion=1,
        graph=graph,
        expected_oracle=frozenset({("a", "b")}),
        description=(
            f"parallel edges k1, k2 from a to b with out-weights {encode_value(v)} "
            f"and {encode_value(w)}; the weights cancel, erasing adjacency (a, b)"
        ),
    )


def witness_zero_product(v: Value, w: Value, alg: Algebra) -> WitnessCase:
    """Self-loop at a with out-weight v and in-weight w, where v times w is zero."""
    _require_violation(alg, CHECK_CRITERION2, (v, w))
    graph = (EdgeRecord("k", sources={"a": v}, targets={"a": w}),)
    return WitnessCase(
        criterion=2,
        graph=graph,
        expected_oracle=frozenset({("a", "a")}),
        description=(
            f"self-loop k at a with weights {encode_value(v)} out and {encode_value(w)} in; "
            f"their product vanishes, erasing adjacency (a, a)"
        ),
    )


def witness_annihilator(v: Value, alg: Algebra) -> WitnessCase:
    """Self-loop at a (both weights v) beside an isolated vertex b.

    With zero failing to annihilate, the product of v with the unstored zero
    against b is nonzero, inventing an adjacency between a and the isolated
    vertex: (a, b) when right multiplication by zero misbehaves, (b, a) when
    left multiplication does.  A zero v cannot weight an edge: the loop then
    carries one, and b is both an extra source and an extra target, so that
    (b, b) folds zero times zero.
    """
    _require_violation(alg, CHECK_CRITERION3, (v,))
    zero_v = v == alg.zero
    weights = ""
    if zero_v:
        if alg.one == alg.zero:
            raise PreconditionError("construction needs a nonzero one for the self-loop weights")
        v = alg.one
        weights = f" with weights {encode_value(v)}"
    x, z = alg.lower(v), alg.lower(alg.zero)
    right_fail = alg.times_op(x, z) != z
    left_fail = alg.times_op(z, x) != z
    sides = []
    if right_fail:
        sides.append(f"{encode_value(v)} times 0 is nonzero, inventing (a, b)")
    if left_fail:
        sides.append(f"0 times {encode_value(v)} is nonzero, inventing (b, a)")
    if zero_v:
        sides.append("0 times 0 is nonzero, inventing (b, b)")
    graph = (EdgeRecord("k", sources={"a": v}, targets={"a": v}),)
    return WitnessCase(
        criterion=3,
        graph=graph,
        expected_oracle=frozenset({("a", "a")}),
        description=f"self-loop k at a{weights} beside isolated vertex b; " + "; ".join(sides),
        extra_source_vertices=("b",) if left_fail or zero_v else (),
        extra_target_vertices=("b",) if right_fail or zero_v else (),
    )


@dataclass(frozen=True)
class MismatchReport:
    """How a witness graph's computed adjacency disagrees with the oracle.

    ``missing`` lists oracle pairs absent from the computed support (their
    computed value folded to zero); ``spurious`` lists computed entries the
    oracle rejects, with the nonzero value that appeared.
    """

    adjacency: AssociativeArray
    oracle: frozenset[tuple[str, str]]
    missing: tuple[tuple[str, str, Value], ...]
    spurious: tuple[tuple[str, str, Value], ...]


def demonstrate(wc: WitnessCase, alg: Algebra) -> MismatchReport:
    """Run the witness graph and report the adjacency/oracle disagreement.

    The oracle is recomputed and compared with the case's expectation, and a
    clean run (no disagreement) raises an internal consistency error: a
    witness that fails to demonstrate anything means the checker and the
    construction have drifted apart.
    """
    pair = incidence_arrays(wc.graph, alg)
    oracle = adjacency_oracle(pair)
    if oracle != wc.expected_oracle:
        raise InternalConsistencyError(
            f"oracle {sorted(oracle)} does not match expected {sorted(wc.expected_oracle)}"
        )
    adj = adjacency(
        pair,
        alg,
        extra_sources=wc.extra_source_vertices,
        extra_targets=wc.extra_target_vertices,
    )
    sup = support(adj)
    missing = tuple((r, c, alg.zero) for r, c in sorted(oracle - sup))
    spurious = tuple((r, c, get(adj, r, c, alg)) for r, c in sorted(sup - oracle))
    if not missing and not spurious:
        raise InternalConsistencyError(
            f"witness for criterion {wc.criterion} produced no mismatch over {alg.name}"
        )
    return MismatchReport(
        adjacency=adj,
        oracle=oracle,
        missing=missing,
        spurious=spurious,
    )
