"""Command-line interface.

Five subcommands: ``adjacency`` and ``reverse-adjacency`` turn an edge-list
file into adjacency triples, ``validate`` reports an algebra's compliance,
``witness`` emits a counterexample graph for a failing criterion, and
``doc-adjacency`` runs the set-valued document pipeline.

Data goes to standard output (or ``--output``); summaries, warnings, and
human-readable reports go to standard error, so pipelines can consume the
triples directly.  Exit codes: 0 success, 1 domain-level negative (criterion
failure, no witness available, inconsistent input), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import (
    BUILTIN_FAMILY_NAMES,
    Algebra,
    from_finite_spec,
    make_builtin,
)
from .array import from_triples
from .criteria import (
    CHECK_LABELS,
    MismatchReport,
    WitnessCase,
    demonstrate,
    validate,
    witness_additive_inverse,
    witness_annihilator,
    witness_zero_product,
)
from .errors import AssocArrayError, ConfigurationError, PreconditionError
from .fileio import (
    ParseError,
    parse_edge_list,
    parse_finite_algebra,
    parse_set_triples,
    serialize_edge_list,
    serialize_triples,
)
# check_word_consistency is unused here but stays: perfbench/tracing.py wraps it.
from .graph import (
    adjacency,
    check_word_consistency,
    document_adjacency,
    incidence_arrays,
    reverse_adjacency,
)
from .values import encode_value

_ALIASES = {
    "natural": "natural_arithmetic",
    "rational": "nonneg_rational_arithmetic",
    "nonneg_rational": "nonneg_rational_arithmetic",
    "boolean": "boolean_or_and",
    "strings": "max_min_strings",
}

def _read_text(path: str) -> str:
    """Read a UTF-8 file; undecodable bytes are a parse error on their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = 1 + data.count(b"\n", 0, exc.start)
        raise ParseError(path, line_no, "line", f"not valid UTF-8 ({exc.reason})") from None


def resolve_algebra(args: argparse.Namespace) -> Algebra:
    """Turn the ``--algebra`` selector into an Algebra.

    Builtin family names (with aliases, hyphens allowed) win; anything else
    must be a path to a finite-algebra table file.
    """
    name = args.algebra.replace("-", "_")
    name = _ALIASES.get(name, name)
    if name in BUILTIN_FAMILY_NAMES:
        params = {}
        if name == "max_min_chain":
            if args.levels is None:
                raise ConfigurationError("max_min_chain needs --levels")
            params["levels"] = args.levels
        elif args.levels is not None:
            raise ConfigurationError(f"{name} does not take --levels")
        if name == "powerset":
            if args.universe is None:
                raise ConfigurationError("powerset needs --universe (comma-separated tokens)")
            tokens = [t for t in args.universe.split(",") if t]
            params["universe"] = tokens
        elif args.universe is not None:
            raise ConfigurationError(f"{name} does not take --universe")
        return make_builtin(name, **params)
    if os.path.isfile(args.algebra):
        spec = parse_finite_algebra(_read_text(args.algebra), role=args.algebra)
        stem = os.path.splitext(os.path.basename(args.algebra))[0]
        return from_finite_spec(spec, name=stem)
    raise ConfigurationError(
        f"{args.algebra!r} is neither a builtin algebra nor an existing file"
    )


def _write_output(args: argparse.Namespace, data: str) -> None:
    if args.output is None:
        sys.stdout.write(data)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)


def _warn_uncertified(alg: Algebra, report) -> None:
    failed = report.failures()
    if failed:
        parts = ", ".join(
            f"{name.replace('criterion', 'criterion ')} fail ({CHECK_LABELS[name]})"
            for name in failed
        )
        print(f"warning: {alg.name} is not certified: {parts}", file=sys.stderr)
    else:
        print(
            f"warning: {alg.name} is not certified: sampled verdicts only",
            file=sys.stderr,
        )


def _adjacency_common(args: argparse.Namespace, reverse: bool) -> int:
    alg = resolve_algebra(args)
    graph = parse_edge_list(_read_text(args.input), alg, role=args.input)
    report = validate(alg, seed=args.seed)
    if not report.certified:
        _warn_uncertified(alg, report)
    fast = report.certified and not args.force_full_matmul
    pair = incidence_arrays(graph, alg)
    if reverse:
        adj = reverse_adjacency(pair, alg, skip_zeros=fast)
    else:
        adj = adjacency(pair, alg, skip_zeros=fast)
    _write_output(args, serialize_triples(adj))
    vertices = {v for e in graph for v in (*e.sources, *e.targets)}
    print(
        f"vertices={len(vertices)} edges={len(graph)} nonzeros={adj.nnz}",
        file=sys.stderr,
    )
    return 0


def cmd_adjacency(args: argparse.Namespace) -> int:
    return _adjacency_common(args, reverse=False)


def cmd_reverse_adjacency(args: argparse.Namespace) -> int:
    return _adjacency_common(args, reverse=True)


def cmd_validate(args: argparse.Namespace) -> int:
    alg = resolve_algebra(args)
    report = validate(alg, seed=args.seed)
    print(report.to_text(), file=sys.stderr)
    _write_output(args, "".join(line + "\n" for line in report.to_machine_lines()))
    return 0 if report.certified else 1


def _build_witness(args: argparse.Namespace, alg: Algebra) -> WitnessCase:
    report = validate(alg, seed=args.seed)
    by_criterion = {1: report.crit1, 2: report.crit2, 3: report.crit3}
    verdict = by_criterion[args.criterion]
    if verdict.passed:
        raise PreconditionError(
            f"no witness exists from checker output: "
            f"{alg.name} passes criterion {args.criterion} ({verdict.mode})"
        )
    if args.criterion == 1:
        return witness_additive_inverse(*verdict.witness, alg)
    if args.criterion == 2:
        return witness_zero_product(*verdict.witness, alg)
    return witness_annihilator(*verdict.witness, alg)


def _format_witness(rep: MismatchReport, wc: WitnessCase) -> str:
    chunks = ["# witness-edges\n", serialize_edge_list(wc.graph)]
    chunks += ["# adjacency\n", serialize_triples(rep.adjacency)]
    chunks.append("# oracle\n")
    chunks.extend(f"{x}\t{y}\n" for x, y in sorted(rep.oracle))
    chunks.append("# mismatch\n")
    for kind, entries in (("missing", rep.missing), ("spurious", rep.spurious)):
        chunks.extend(
            f"{kind}\t{r}\t{c}\t{encode_value(v)}\n" for r, c, v in entries
        )
    return "".join(chunks)


def cmd_witness(args: argparse.Namespace) -> int:
    alg = resolve_algebra(args)
    try:
        wc = _build_witness(args, alg)
        rep = demonstrate(wc, alg)
    except PreconditionError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(wc.description, file=sys.stderr)
    _write_output(args, _format_witness(rep, wc))
    return 0


def cmd_doc_adjacency(args: argparse.Namespace) -> int:
    triples = parse_set_triples(_read_text(args.input), role=args.input)
    tokens = sorted({t for _, _, v in triples for t in v.payload})
    alg = make_builtin("powerset", universe=tokens)
    shared = from_triples(triples, alg)
    try:
        adj = document_adjacency(shared)
    except PreconditionError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1
    _write_output(args, serialize_triples(adj))
    print(f"documents={len(shared.row_keys)} words={len(tokens)}", file=sys.stderr)
    return 0


_COMMANDS = {
    "adjacency": cmd_adjacency,
    "reverse-adjacency": cmd_reverse_adjacency,
    "validate": cmd_validate,
    "witness": cmd_witness,
    "doc-adjacency": cmd_doc_adjacency,
}


def _add_algebra_flags(sp: argparse.ArgumentParser, required: bool) -> None:
    sp.add_argument("--algebra", required=required,
                    help="builtin family name or path to a finite-algebra file")
    sp.add_argument("--universe", help="comma-separated tokens (powerset only)")
    sp.add_argument("--levels", type=int, help="chain height (max_min_chain only)")


def _add_io_flags(sp: argparse.ArgumentParser, with_input: bool) -> None:
    if with_input:
        sp.add_argument("--input", required=True, help="input file path")
    sp.add_argument("--output", help="output file path (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assocarray",
        description="Sparse associative arrays over pluggable value algebras.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in ("adjacency", "reverse-adjacency"):
        sp = sub.add_parser(name, help=f"compute {name.replace('-', ' ')} triples from an edge list")
        _add_algebra_flags(sp, required=True)
        _add_io_flags(sp, with_input=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--force-full-matmul", action="store_true",
                        help="evaluate every inner key even for certified algebras")

    sp = sub.add_parser("validate", help="check an algebra against the compliance criteria")
    _add_algebra_flags(sp, required=True)
    _add_io_flags(sp, with_input=False)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("witness", help="emit a counterexample graph for a failing criterion")
    sp.add_argument("criterion", type=int, choices=(1, 2, 3))
    _add_algebra_flags(sp, required=True)
    _add_io_flags(sp, with_input=False)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("doc-adjacency", help="shared-words document adjacency from set-valued triples")
    _add_io_flags(sp, with_input=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (AssocArrayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
