"""Parsers and serializers for the on-disk formats.

Three formats, all UTF-8 text with tab-separated fields: value triples
(``row<TAB>col<TAB>value``), edge lists
(``edge_key<TAB>src<TAB>dst[<TAB>out_value[<TAB>in_value]]``), and finite
algebra operation tables.  Lines break wherever ``str.splitlines`` breaks
them, and every reported line number counts lines that way.  Blank lines and
lines starting with ``#`` are skipped everywhere.  Serialization emits
canonical value encodings in sorted order so that parse and serialize
round-trip byte-identically.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .algebra import Algebra, FiniteAlgebraSpec
from .array import AssociativeArray, Triple, _check_field_key
from .errors import AssocArrayError, ValidationError
from .graph import Graph, SideMaps
from .values import Value, decode_any, encode_value, parse_token_set


class ParseError(AssocArrayError):
    """A parse failure, pinned to the first offending line.

    ``role`` names the input (usually a file path or format name), ``line_no``
    is 1-based, ``field`` describes where in the line the problem sits.
    """

    def __init__(self, role: str, line_no: int, field: str, message: str):
        self.role = role
        self.line_no = line_no
        self.field = field
        self.message = message
        super().__init__(f"{role}, line {line_no}, {field}: {message}")


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        out.append((i, line))
    return out


def read_text(path: str) -> str:
    """Read a UTF-8 file; an undecodable byte is a parse error on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the "x" stands for the bad byte, so a break just before it counts
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(path, line_no, "line", f"not valid UTF-8 ({exc.reason})") from None


T = TypeVar("T")


def _field(role: str, line_no: int, field: str, read: Callable[[str], T], raw: str) -> T:
    """Apply one field rule, reporting its failure as a ParseError on the line."""
    try:
        return read(raw)
    except (ValueError, ValidationError) as exc:
        raise ParseError(role, line_no, field, str(exc)) from None


def _parse_triples(text: str, decode: Callable[[str], Value], role: str) -> list[Triple]:
    triples: list[Triple] = []
    # keys that passed and value texts decoded, so each distinct text is
    # checked or decoded once; a failing text is never stored and raises on
    # the first line holding it
    keys: set[str] = set()
    values: dict[str, Value] = {}
    for line_no, line in _logical_lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(
                role, line_no, "line", f"expected 3 tab-separated fields, got {len(fields)}"
            )
        row, col = fields[0], fields[1]
        if row not in keys:
            keys.add(_field(role, line_no, "row key", _check_field_key, row))
        if col not in keys:
            keys.add(_field(role, line_no, "column key", _check_field_key, col))
        if (value := values.get(raw := fields[2])) is None:
            value = values[raw] = _field(role, line_no, "value", decode, raw)
        triples.append((row, col, value))
    return triples


def parse_triples(text: str, alg: Algebra, *, role: str = "triples") -> list[Triple]:
    """Parse value triples; zero-valued triples are kept (dropped on ingestion)."""
    return _parse_triples(text, alg.decode_op, role)


def parse_set_triples(text: str, *, role: str = "triples") -> list[Triple]:
    """Parse triples whose values are token sets, with no universe fixed yet."""
    return _parse_triples(text, parse_token_set, role)


def serialize_triples(arr: AssociativeArray) -> str:
    """Emit entries as sorted triple lines; empty array gives an empty string.

    A value that cannot be written, such as a number past Python's digit
    limit for ``str``, is a ValidationError naming its entry.
    """
    try:
        return "".join(f"{r}\t{c}\t{encode_value(v)}\n" for r, c, v in arr)
    except ValueError as exc:
        # the error names no entry; the join stopped at the first that fails
        for r, c, v in arr:
            try:
                encode_value(v)
            except ValueError:
                break
        raise ValidationError(f"entry ({r}, {c}): {exc}") from None


def parse_edge_list(text: str, alg: Algebra, *, role: str = "edge-list") -> Graph:
    """Parse edges; omitted weights default to the algebra's one.

    Where one equals zero, as in ``max_plus_realzero``, an omitted weight is
    refused with its own message, since a zero weight is forbidden.

    Repeated edge keys accumulate sources and targets into one hyperedge.
    Re-stating an endpoint the edge already has is allowed only with the same
    weight: a conflict would mean silently discarding data.  The parse checks
    all that :func:`~assocarray.graph.build_graph` checks, naming the line.
    """
    sources: SideMaps = {}
    targets: SideMaps = {}
    # texts that passed, so each distinct text is checked or decoded once;
    # a failing text is never stored and raises on the first line holding it.
    # An omitted weight is the text None, which means one unless one is zero.
    keys: set[str] = set()
    weights_of: dict[str | None, Value] = {} if alg.one == alg.zero else {None: alg.one}

    def new_weight(line_no: int, label: str, raw: str | None) -> Value:
        if raw is None:
            raise ParseError(role, line_no, label, (
                f"weight omitted, and its default one equals zero in {alg.name}; "
                "write the weight"
            ))
        w = _field(role, line_no, label, alg.decode_op, raw)
        if w == alg.zero:
            raise ParseError(role, line_no, label, "zero weight is forbidden")
        weights_of[raw] = w
        return w

    def conflict(line_no: int, label: str, vertex: str, old: Value, w: Value) -> ParseError:
        return ParseError(
            role, line_no, f"{label} vertex {vertex!r}",
            f"conflicting weights {encode_value(old)} and {encode_value(w)}",
        )

    for line_no, line in _logical_lines(text):
        fields = line.split("\t")
        n = len(fields)
        if not 3 <= n <= 5:
            raise ParseError(
                role, line_no, "line", f"expected 3 to 5 tab-separated fields, got {n}",
            )
        key, src, dst = fields[0], fields[1], fields[2]
        if key not in keys:
            keys.add(_field(role, line_no, "edge key", _check_field_key, key))
        if src not in keys:
            keys.add(_field(role, line_no, "source vertex", _check_field_key, src))
        if dst not in keys:
            keys.add(_field(role, line_no, "target vertex", _check_field_key, dst))
        raw = fields[3] if n > 3 else None
        if (out_w := weights_of.get(raw)) is None:
            out_w = new_weight(line_no, "out_value", raw)
        raw = fields[4] if n > 4 else None
        if (in_w := weights_of.get(raw)) is None:
            in_w = new_weight(line_no, "in_value", raw)
        if key in sources:
            out_side, in_side = sources[key], targets[key]
        else:
            out_side = sources[key] = {}
            in_side = targets[key] = {}
        # a restated endpoint keeps its first weight, which must equal the new
        if (old := out_side.setdefault(src, out_w)) is not out_w and old != out_w:
            raise conflict(line_no, "source", src, old, out_w)
        if (old := in_side.setdefault(dst, in_w)) is not in_w and old != in_w:
            raise conflict(line_no, "target", dst, old, in_w)
    return Graph(sources, targets)


def serialize_edge_list(g: Graph) -> str:
    """Emit one line per (source, target) pair of each edge, weights explicit."""
    lines = []
    for key in sorted(g.sources):
        out_side, in_side = g.sources[key], g.targets[key]
        for src in sorted(out_side):
            for dst in sorted(in_side):
                lines.append(
                    f"{key}\t{src}\t{dst}"
                    f"\t{encode_value(out_side[src])}\t{encode_value(in_side[dst])}\n"
                )
    return "".join(lines)


def _split_top_level_commas(text: str) -> list[str]:
    # commas inside {...} belong to token-set encodings, not the list: a piece
    # joins the part before it while the brace depth of all text before it is
    # nonzero, unbalanced braces included
    if "{" not in text and "}" not in text:
        return text.split(",")
    parts: list[str] = []
    depth = 0
    for piece in text.split(","):
        if depth:
            parts[-1] += "," + piece
        else:
            parts.append(piece)
        depth += piece.count("{") - piece.count("}")
    return parts


def parse_finite_algebra(text: str, *, role: str = "algebra") -> FiniteAlgebraSpec:
    """Parse the finite-algebra table format.

    Layout: ``elements: e1,...,en``, then ``zero: ei`` and ``one: ej``, then
    ``plus:`` followed by n rows of n comma-separated element names, then
    ``times:`` likewise.  Every table cell must name a listed element.  These
    line checks imply every condition of ``FiniteAlgebraSpec.validate``.
    """
    lines = _logical_lines(text)
    pos = 0

    def take(expected: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise ParseError(role, last + 1, "line", f"missing {expected}")
        line_no, line = lines[pos]
        pos += 1
        return line_no, line

    def directive(name: str) -> tuple[int, str]:
        line_no, line = take(f"`{name}:` line")
        head, sep, rest = line.partition(":")
        if head.strip() != name or not sep:
            raise ParseError(role, line_no, "line", f"expected `{name}:`, got {line!r}")
        return line_no, rest.strip()

    line_no, raw_elements = directive("elements")
    names = [p.strip() for p in _split_top_level_commas(raw_elements)]
    if names == [""]:
        raise ParseError(role, line_no, "elements", "element list is empty")
    elements = [
        _field(role, line_no, f"element {i + 1}", decode_any, name)
        for i, name in enumerate(names)
    ]
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(elements):
        raise ParseError(role, line_no, "elements", "duplicate element names")

    identities = {}
    for which in ("zero", "one"):
        d_line, raw = directive(which)
        if raw not in index:
            raise ParseError(role, d_line, which, f"{raw!r} is not a listed element")
        identities[which] = index[raw]

    tables = {}
    n = len(elements)
    for which in ("plus", "times"):
        d_line, rest = directive(which)
        if rest:
            raise ParseError(role, d_line, which, "table rows must start on the next line")
        rows = []
        for i in range(n):
            r_line, line = take(f"{which} table row {i + 1}")
            cells = _split_top_level_commas(line)
            if len(cells) != n:
                raise ParseError(
                    role, r_line, f"{which} row {i + 1}",
                    f"expected {n} entries, got {len(cells)}",
                )
            try:
                row = tuple(map(index.__getitem__, cells))
            except KeyError:
                # names are stripped, so a padded cell misses and only then is stripped
                cells = [p.strip() for p in cells]
                row = tuple(map(index.get, cells))
                if None in row:
                    j = row.index(None)
                    raise ParseError(
                        role, r_line, f"{which} cell ({i + 1}, {j + 1})",
                        f"{cells[j]!r} is not a listed element",
                    ) from None
            rows.append(row)
        tables[which] = tuple(rows)

    if pos < len(lines):
        line_no, line = lines[pos]
        raise ParseError(role, line_no, "line", f"unexpected content after tables: {line!r}")

    return FiniteAlgebraSpec(
        elements=tuple(elements),
        zero_index=identities["zero"],
        one_index=identities["one"],
        plus_table=tables["plus"],
        times_table=tables["times"],
    )
