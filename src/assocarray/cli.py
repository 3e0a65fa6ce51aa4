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
    check,
    demonstrate,
    validate,
    witness_additive_inverse,
    witness_annihilator,
    witness_zero_product,
)
from .errors import AssocArrayError, ConfigurationError, PreconditionError
from .fileio import (
    parse_edge_list,
    parse_finite_algebra,
    parse_set_triples,
    read_text,
    serialize_edge_list,
    serialize_triples,
)
# check_word_consistency is unused here but stays: perfbench/tracing.py wraps it.
from .graph import (
    adjacency,
    check_word_consistency,
    document_adjacency,
    reverse_adjacency,
)
# parse_edge_list refuses all that incidence_arrays checks; perfbench wraps this name.
from .graph import _incidence_pair as incidence_arrays
from .values import encode_value

_ALIASES = {
    "natural": "natural_arithmetic",
    "rational": "nonneg_rational_arithmetic",
    "nonneg_rational": "nonneg_rational_arithmetic",
    "boolean": "boolean_or_and",
    "strings": "max_min_strings",
}


def resolve_algebra(args: argparse.Namespace) -> Algebra:
    """Turn the ``--algebra`` selector into an Algebra.

    Builtin family names (with aliases, hyphens allowed) win, and get the
    family flags they were given for ``make_builtin`` to judge; anything else
    must be a path to a finite-algebra table file, which takes no flags.
    """
    name = args.algebra.replace("-", "_")
    name = _ALIASES.get(name, name)
    params = {}
    if args.levels is not None:
        params["levels"] = args.levels
    if args.universe is not None:
        params["universe"] = [t for t in args.universe.split(",") if t]
    if name in BUILTIN_FAMILY_NAMES:
        return make_builtin(name, **params)
    if os.path.isfile(args.algebra):
        if params:
            given = ", ".join(f"--{p}" for p in params)
            raise ConfigurationError(f"{args.algebra} takes no parameters, got {given}")
        spec = parse_finite_algebra(read_text(args.algebra), role=args.algebra)
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


def cmd_adjacency(args: argparse.Namespace) -> int:
    alg = resolve_algebra(args)
    graph = parse_edge_list(read_text(args.input), alg, role=args.input)
    # A proved check holds; check replays a known failure or scans the rest.
    failed = [name for name in CHECK_LABELS if name not in alg.proved and not check(alg, name).passed]
    if failed:
        parts = ", ".join(
            f"{name.replace('criterion', 'criterion ')} fail ({CHECK_LABELS[name]})"
            for name in failed
        )
        print(f"warning: {alg.name} is not certified: {parts}", file=sys.stderr)
    pair = incidence_arrays(graph, alg)
    reverse = args.subcommand == "reverse-adjacency"
    adj = reverse_adjacency(pair, alg) if reverse else adjacency(pair, alg)
    _write_output(args, serialize_triples(adj))
    vertices = set(pair.e_out.col_keys).union(pair.e_in.col_keys)
    print(
        f"vertices={len(vertices)} edges={len(graph)} nonzeros={adj.nnz}",
        file=sys.stderr,
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    alg = resolve_algebra(args)
    report = validate(alg)
    print(report.to_text(), file=sys.stderr)
    _write_output(args, "".join(line + "\n" for line in report.to_machine_lines()))
    return 0 if report.certified else 1


# Per criterion: the graph built from the values its failing check reports.
_WITNESSES = {
    1: witness_additive_inverse,
    2: witness_zero_product,
    3: witness_annihilator,
}


def _build_witness(args: argparse.Namespace, alg: Algebra) -> WitnessCase:
    verdict = check(alg, f"criterion{args.criterion}")
    if verdict.passed:
        raise PreconditionError(
            f"no witness exists from checker output: "
            f"{alg.name} passes criterion {args.criterion} ({verdict.mode})"
        )
    return _WITNESSES[args.criterion](*verdict.witness, alg)


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
    triples = parse_set_triples(read_text(args.input), role=args.input)
    tokens = sorted({t for _, _, v in triples for t in v.payload})
    alg = make_builtin("powerset", universe=tokens)
    shared = from_triples(triples, alg)
    try:
        adj = document_adjacency(shared, alg)
    except PreconditionError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1
    _write_output(args, serialize_triples(adj))
    print(f"documents={len(shared.row_keys)} words={len(tokens)}", file=sys.stderr)
    return 0


_COMMANDS = {
    "adjacency": cmd_adjacency,
    "reverse-adjacency": cmd_adjacency,
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

    sp = sub.add_parser("validate", help="check an algebra against the compliance criteria")
    _add_algebra_flags(sp, required=True)
    _add_io_flags(sp, with_input=False)

    sp = sub.add_parser("witness", help="emit a counterexample graph for a failing criterion")
    sp.add_argument("criterion", type=int, choices=(1, 2, 3))
    _add_algebra_flags(sp, required=True)
    _add_io_flags(sp, with_input=False)

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
    # Data is UTF-8 on stdout as in --output files, whatever the locale says,
    # and so are messages.  A file name whose bytes are not UTF-8 reaches a
    # message as a lone surrogate, which backslashreplace shows escaped.
    # Either stream is None when started without it; --output still works then.
    if sys.stdout is not None:
        sys.stdout.reconfigure(encoding="utf-8")
    if sys.stderr is not None:
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    entry()
