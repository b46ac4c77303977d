"""Name-based schema linking between utterance tokens and schema elements.

Builds a sparse relation matrix over the layout ``[question tokens;
context tokens; table elements; column elements]``.  Utterance-to-schema
cells carry name-match relations (exact n-gram or single-word partial);
schema-to-schema cells carry structural relations (ownership, shared
table, foreign keys, primary keys).  Utterance-internal cells are always
empty: in this architecture utterance-to-utterance relations travel in the
rewrite matrix instead.  Name matching is a lookup in indexes keyed on
every word form of every name, with the same tie rule as a scan of all
names: longest n-gram first, then earliest start, then earliest element.
The folded names, the indexes and the structure cells depend only on the
schema and the match policy, so each schema builds them once per policy,
on first use, and keeps them for every later call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .rewrite_diff import (
    DEFAULT_POLICY, MatchPolicy, Relation, RewriteEditMatrix, TokenSeq, token_seq
)

__all__ = [
    "SchemaError",
    "Column",
    "Schema",
    "LinkRelation",
    "SchemaLinkMatrix",
    "build_schema_link_matrix",
    "link_stats",
]

COLUMN_TYPES = frozenset({"text", "number", "time", "boolean", "others"})


class SchemaError(ValueError):
    """A schema violates its structural invariants."""


def _is_index(value: object, size: int) -> bool:
    # ``bool`` subclasses ``int``, but true is not index 1.
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < size


def _name(tokens: Iterable[str], where: str) -> TokenSeq:
    try:
        return token_seq(tokens)
    except (TypeError, ValueError) as exc:  # TypeError: not iterable
        raise SchemaError(f"{where}: {exc}") from None


def _column(col: object, idx: int) -> Column:
    if not isinstance(col, Column):
        raise SchemaError(f"column {idx}: expected a Column, got {col!r:.40}")
    return Column(_name(col.name, f"column {idx}"), col.table, col.type)


@dataclass(frozen=True)
class Column:
    name: TokenSeq
    table: int
    type: str = "text"


@dataclass(frozen=True)
class Schema:
    """Tables and columns of one database, with key structure."""

    tables: tuple[TokenSeq, ...]
    columns: tuple[Column, ...]
    primary_keys: frozenset[int] = frozenset()
    foreign_keys: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "tables", tuple(_name(t, f"table {idx}") for idx, t in enumerate(self.tables))
        )
        object.__setattr__(
            self,
            "columns",
            tuple(_column(col, idx) for idx, col in enumerate(self.columns)),
        )
        object.__setattr__(self, "primary_keys", frozenset(self.primary_keys))
        object.__setattr__(
            self, "foreign_keys", frozenset(tuple(fk) for fk in self.foreign_keys)
        )
        # Link plans per match policy, built on first use by
        # ``build_schema_link_matrix``.  Not a field: ``==``, ``hash`` and
        # ``repr`` ignore it, and ``dataclasses.replace`` starts a new one.
        object.__setattr__(self, "_link_plans", {})
        for name in self.tables:
            if not name:
                raise SchemaError("table names must be non-empty")
        for idx, col in enumerate(self.columns):
            if not col.name:
                raise SchemaError(f"column {idx} has an empty name")
            if not _is_index(col.table, len(self.tables)):
                raise SchemaError(
                    f"column {idx} references out-of-range table {col.table!r}"
                )
            if not isinstance(col.type, str) or col.type not in COLUMN_TYPES:
                raise SchemaError(f"column {idx} has unknown type {col.type!r}")
        for pk in self.primary_keys:
            if not _is_index(pk, len(self.columns)):
                raise SchemaError(f"primary key column {pk!r} out of range")
        for fk in self.foreign_keys:
            if not (len(fk) == 2 and all(_is_index(c, len(self.columns)) for c in fk)):
                raise SchemaError(f"dangling foreign key {fk!r}")


class LinkRelation(Relation):
    """Relation vocabulary of the schema-linking matrix, each member with
    its mirror.  The ``-Rev`` variants are the transposed direction of the
    corresponding utterance-to-schema match.
    """

    EXACT_TABLE = "Exact-Table-Match", "EXACT_TABLE_REV"
    EXACT_TABLE_REV = "Exact-Table-Match-Rev", "EXACT_TABLE"
    PARTIAL_TABLE = "Partial-Table-Match", "PARTIAL_TABLE_REV"
    PARTIAL_TABLE_REV = "Partial-Table-Match-Rev", "PARTIAL_TABLE"
    EXACT_COLUMN = "Exact-Column-Match", "EXACT_COLUMN_REV"
    EXACT_COLUMN_REV = "Exact-Column-Match-Rev", "EXACT_COLUMN"
    PARTIAL_COLUMN = "Partial-Column-Match", "PARTIAL_COLUMN_REV"
    PARTIAL_COLUMN_REV = "Partial-Column-Match-Rev", "PARTIAL_COLUMN"
    COLUMN_BELONGS_TO_TABLE = "Column-Belongs-To-Table", "TABLE_HAS_COLUMN"
    TABLE_HAS_COLUMN = "Table-Has-Column", "COLUMN_BELONGS_TO_TABLE"
    SAME_TABLE_COLUMNS = "Same-Table-Columns", "SAME_TABLE_COLUMNS"
    FOREIGN_KEY_FORWARD = "Foreign-Key-Forward", "FOREIGN_KEY_BACKWARD"
    FOREIGN_KEY_BACKWARD = "Foreign-Key-Backward", "FOREIGN_KEY_FORWARD"
    PRIMARY_KEY_OF = "Primary-Key-Of", "HAS_PRIMARY_KEY"
    HAS_PRIMARY_KEY = "Has-Primary-Key", "PRIMARY_KEY_OF"


LINK_RELATION_NAMES = tuple(rel.value for rel in LinkRelation)


@dataclass(frozen=True)
class SchemaLinkMatrix:
    """Sparse relation matrix over ``[question; context; tables; columns]``."""

    question_tokens: TokenSeq
    context_tokens: TokenSeq
    schema: Schema
    cells: dict[tuple[int, int], LinkRelation] = field(default_factory=dict)

    @property
    def n_question(self) -> int:
        return len(self.question_tokens)

    @property
    def n_context(self) -> int:
        return len(self.context_tokens)

    @property
    def n_tables(self) -> int:
        return len(self.schema.tables)

    @property
    def n_columns(self) -> int:
        return len(self.schema.columns)

    @property
    def table_offset(self) -> int:
        return self.n_question + self.n_context

    @property
    def column_offset(self) -> int:
        return self.table_offset + self.n_tables

    @property
    def size(self) -> int:
        return self.column_offset + self.n_columns

    def relation_at(self, i: int, j: int) -> LinkRelation | None:
        return self.cells.get((i, j))

    def sorted_cells(self) -> list[tuple[int, int, LinkRelation]]:
        return [(i, j, rel) for (i, j), rel in sorted(self.cells.items())]

    def table_position(self, table_index: int) -> int:
        return self.table_offset + table_index

    def column_position(self, column_index: int) -> int:
        return self.column_offset + column_index


def _index_by_form(words: Iterable[tuple[int, frozenset[str]]]) -> dict[str, list[int]]:
    """Map each form of each ``(element, word)`` pair to its elements, in
    listing order.  Every form is a key of its own: matching is not
    transitive, so one canonical form per word would miss matches."""
    index: dict[str, list[int]] = {}
    for elem, forms in words:
        for form in forms:
            index.setdefault(form, []).append(elem)
    return index


def _candidates(index: dict[str, list[int]], forms: frozenset[str]) -> Sequence[int]:
    """Elements indexed under any of ``forms``, in element order."""
    found: Sequence[int] = ()
    for form in forms:
        hit = index.get(form)
        if hit is not None:
            found = sorted({*found, *hit}) if found else hit
    return found


class _FamilyPlan(NamedTuple):
    """One element family (tables or columns) folded and indexed under one
    policy.  ``base`` is the family's first position counted from the
    first table."""

    names: tuple[tuple[frozenset[str], ...], ...]
    by_first: tuple[tuple[int, dict[str, list[int]]], ...]  # per width, widest first
    by_word: dict[str, list[int]]  # every word of every multi-word name
    base: int
    exact: LinkRelation
    partial: LinkRelation


class _LinkPlan(NamedTuple):
    """Everything linking needs that depends only on the schema and the
    policy.  ``structure`` holds the schema-to-schema cells in the order
    the matrix receives them, with the first table at position 0."""

    families: tuple[_FamilyPlan, _FamilyPlan]
    structure: tuple[tuple[tuple[int, int], LinkRelation], ...]


def _family_plan(
    names: Sequence[TokenSeq],
    base: int,
    exact: LinkRelation,
    partial: LinkRelation,
    policy: MatchPolicy,
) -> _FamilyPlan:
    folded = tuple(policy.fold(name) for name in names)
    widths = sorted({len(name) for name in folded}, reverse=True)
    by_first = tuple(
        (width, _index_by_form(
            (elem, name[0]) for elem, name in enumerate(folded) if len(name) == width
        ))
        for width in widths
    )
    by_word = _index_by_form(
        (elem, word) for elem, name in enumerate(folded) if len(name) > 1 for word in name
    )
    return _FamilyPlan(folded, by_first, by_word, base, exact, partial)


def _link_plan(schema: Schema, policy: MatchPolicy) -> _LinkPlan:
    """The schema's families folded under ``policy``, and its structure
    relations.  Foreign keys take precedence over the shared-table
    relation, primary-key ownership over plain ownership: one cell holds
    one relation.  ``put`` writes both directions, so the shared-table
    test need only look at one."""
    families = (
        _family_plan(schema.tables, 0,
                     LinkRelation.EXACT_TABLE, LinkRelation.PARTIAL_TABLE, policy),
        _family_plan([col.name for col in schema.columns], len(schema.tables),
                     LinkRelation.EXACT_COLUMN, LinkRelation.PARTIAL_COLUMN, policy),
    )
    cells: dict[tuple[int, int], LinkRelation] = {}

    def put(i: int, j: int, rel: LinkRelation) -> None:
        cells[(i, j)] = rel
        cells[(j, i)] = rel.mirror

    columns = len(schema.tables)
    for src, dst in sorted(schema.foreign_keys):
        put(columns + src, columns + dst, LinkRelation.FOREIGN_KEY_FORWARD)
    for idx, col in enumerate(schema.columns):
        owner = (LinkRelation.PRIMARY_KEY_OF if idx in schema.primary_keys
                 else LinkRelation.COLUMN_BELONGS_TO_TABLE)
        put(columns + idx, col.table, owner)
    by_table: dict[int, list[int]] = {}
    for idx, col in enumerate(schema.columns):
        by_table.setdefault(col.table, []).append(idx)
    same_table = sorted(pair for cols in by_table.values() for pair in combinations(cols, 2))
    for a, b in same_table:
        if (columns + a, columns + b) not in cells:
            put(columns + a, columns + b, LinkRelation.SAME_TABLE_COLUMNS)
    return _LinkPlan(families, tuple(cells.items()))


def _exact_match_pass(
    segments: Sequence[tuple[int, Sequence[frozenset[str]]]],
    family: _FamilyPlan,
) -> list[tuple[int, int]]:
    """Greedy longest-first exact matching of folded utterance n-grams to
    folded element names; returns one (token position, element) pair per
    token an n-gram covers.

    Longer n-grams win over shorter ones; within one length, earlier start
    positions and earlier elements in schema order win.  A token consumed by
    an exact match does not participate in further exact matches of the same
    element family.  Names are indexed by width and first-word form, so each
    n-gram is tested only against the names whose first word it matches.
    """
    names = family.names
    hits: list[tuple[int, int]] = []
    for base, tokens in segments:
        consumed: set[int] = set()
        for width, by_first in family.by_first:
            for start in range(len(tokens) - width + 1):
                candidates = _candidates(by_first, tokens[start])
                if not candidates or any(start + k in consumed for k in range(width)):
                    continue
                span = tokens[start : start + width]
                for elem in candidates:
                    name = names[elem]
                    if all(not span[k].isdisjoint(name[k]) for k in range(1, width)):
                        hits.extend((base + start + k, elem) for k in range(width))
                        consumed.update(range(start, start + width))
                        break
    return hits


def build_schema_link_matrix(
    question: Sequence[str],
    context: Sequence[str],
    schema: Schema,
    policy: MatchPolicy = DEFAULT_POLICY,
) -> SchemaLinkMatrix:
    """Link utterance tokens to schema elements and add structure relations.

    Exact matches are contiguous token n-grams equal to a full element name
    under ``policy`` (longest n-gram wins, ties broken toward earlier schema
    elements); partial matches are single tokens equal to one word of a
    multi-word element name, unless an exact match already covers that
    (token, element) pair.  N-grams never span the question/context boundary.
    Tables and columns are matched independently of each other.  Every
    cell (i, j) has its mirror cell (j, i) carrying the relation's ``mirror``.
    """
    question = token_seq(question)
    context = token_seq(context)
    matrix = SchemaLinkMatrix(question, context, schema, {})
    cells = matrix.cells
    segments = [(0, policy.fold(question)), (len(question), policy.fold(context))]
    tables = matrix.table_offset
    # The schema's plan under ``policy`` is built on first use and kept on
    # the schema, which is immutable.
    plan = schema._link_plans.get(policy)
    if plan is None:
        plan = schema._link_plans[policy] = _link_plan(schema, policy)
    # Match cells are written inline with their mirrors: on the wide
    # benchmark schema a ``put`` call per cell costs about a tenth of a call
    # on a reused schema.
    for family in plan.families:
        offset = tables + family.base
        exact, exact_rev = family.exact, family.exact.mirror
        partial, partial_rev = family.partial, family.partial.mirror
        covered = set(_exact_match_pass(segments, family))
        for pos, elem in covered:
            cells[(pos, offset + elem)] = exact
            cells[(offset + elem, pos)] = exact_rev
        # Partial matches: one token against any word of a multi-word name.
        for base, tokens in segments:
            for k, forms in enumerate(tokens):
                for elem in _candidates(family.by_word, forms):
                    if (base + k, elem) not in covered:
                        cells[(base + k, offset + elem)] = partial
                        cells[(offset + elem, base + k)] = partial_rev
    # Utterance cells and schema-to-schema cells never share a key, so the
    # structure cells, shifted to the first table's position, come last.
    for (i, j), rel in plan.structure:
        cells[(i + tables, j + tables)] = rel
    return matrix


def link_stats(matrix: SchemaLinkMatrix | RewriteEditMatrix) -> dict[str, int]:
    """Count non-empty cells per relation type, sorted by relation name."""
    counts: Counter[str] = Counter(rel.value for rel in matrix.cells.values())
    return dict(sorted(counts.items()))
