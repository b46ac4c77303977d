"""Name-based schema linking between utterance tokens and schema elements.

Builds a sparse relation matrix over the layout ``[question tokens;
context tokens; table elements; column elements]``.  Utterance-to-schema
cells carry name-match relations (exact n-gram or single-word partial);
schema-to-schema cells carry structural relations (ownership, shared
table, foreign keys, primary keys).  Utterance-internal cells are always
empty: in this architecture utterance-to-utterance relations travel in the
rewrite matrix instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Sequence

from .rewrite_diff import DEFAULT_POLICY, MatchPolicy, TokenSeq, token_seq

__all__ = [
    "SchemaError",
    "Column",
    "Schema",
    "LinkRelation",
    "LINK_RELATION_MIRROR",
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
        object.__setattr__(self, "tables", tuple(token_seq(t) for t in self.tables))
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "primary_keys", frozenset(self.primary_keys))
        object.__setattr__(
            self, "foreign_keys", frozenset(tuple(fk) for fk in self.foreign_keys)
        )
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
            if col.type not in COLUMN_TYPES:
                raise SchemaError(f"column {idx} has unknown type {col.type!r}")
        for pk in self.primary_keys:
            if not _is_index(pk, len(self.columns)):
                raise SchemaError(f"primary key column {pk!r} out of range")
        for fk in self.foreign_keys:
            if not (len(fk) == 2 and all(_is_index(c, len(self.columns)) for c in fk)):
                raise SchemaError(f"dangling foreign key {fk!r}")


class LinkRelation(Enum):
    """Relation vocabulary of the schema-linking matrix.

    The ``-Rev`` variants are the transposed direction of the corresponding
    utterance-to-schema match.
    """

    EXACT_TABLE = "Exact-Table-Match"
    EXACT_TABLE_REV = "Exact-Table-Match-Rev"
    PARTIAL_TABLE = "Partial-Table-Match"
    PARTIAL_TABLE_REV = "Partial-Table-Match-Rev"
    EXACT_COLUMN = "Exact-Column-Match"
    EXACT_COLUMN_REV = "Exact-Column-Match-Rev"
    PARTIAL_COLUMN = "Partial-Column-Match"
    PARTIAL_COLUMN_REV = "Partial-Column-Match-Rev"
    COLUMN_BELONGS_TO_TABLE = "Column-Belongs-To-Table"
    TABLE_HAS_COLUMN = "Table-Has-Column"
    SAME_TABLE_COLUMNS = "Same-Table-Columns"
    FOREIGN_KEY_FORWARD = "Foreign-Key-Forward"
    FOREIGN_KEY_BACKWARD = "Foreign-Key-Backward"
    PRIMARY_KEY_OF = "Primary-Key-Of"
    HAS_PRIMARY_KEY = "Has-Primary-Key"


LINK_RELATION_MIRROR: dict[LinkRelation, LinkRelation] = {
    LinkRelation.EXACT_TABLE: LinkRelation.EXACT_TABLE_REV,
    LinkRelation.EXACT_TABLE_REV: LinkRelation.EXACT_TABLE,
    LinkRelation.PARTIAL_TABLE: LinkRelation.PARTIAL_TABLE_REV,
    LinkRelation.PARTIAL_TABLE_REV: LinkRelation.PARTIAL_TABLE,
    LinkRelation.EXACT_COLUMN: LinkRelation.EXACT_COLUMN_REV,
    LinkRelation.EXACT_COLUMN_REV: LinkRelation.EXACT_COLUMN,
    LinkRelation.PARTIAL_COLUMN: LinkRelation.PARTIAL_COLUMN_REV,
    LinkRelation.PARTIAL_COLUMN_REV: LinkRelation.PARTIAL_COLUMN,
    LinkRelation.COLUMN_BELONGS_TO_TABLE: LinkRelation.TABLE_HAS_COLUMN,
    LinkRelation.TABLE_HAS_COLUMN: LinkRelation.COLUMN_BELONGS_TO_TABLE,
    LinkRelation.SAME_TABLE_COLUMNS: LinkRelation.SAME_TABLE_COLUMNS,
    LinkRelation.FOREIGN_KEY_FORWARD: LinkRelation.FOREIGN_KEY_BACKWARD,
    LinkRelation.FOREIGN_KEY_BACKWARD: LinkRelation.FOREIGN_KEY_FORWARD,
    LinkRelation.PRIMARY_KEY_OF: LinkRelation.HAS_PRIMARY_KEY,
    LinkRelation.HAS_PRIMARY_KEY: LinkRelation.PRIMARY_KEY_OF,
}

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


def _exact_match_pass(
    segments: Sequence[tuple[int, Sequence[frozenset[str]]]],
    names: Sequence[Sequence[frozenset[str]]],
) -> list[tuple[int, int]]:
    """Greedy longest-first exact matching of folded utterance n-grams to
    folded element names; returns one (token position, element) pair per
    token an n-gram covers.

    Longer n-grams win over shorter ones; within one length, earlier start
    positions and earlier elements in schema order win.  A token consumed by
    an exact match does not participate in further exact matches of the same
    element family.
    """
    hits: list[tuple[int, int]] = []
    max_len = max((len(name) for name in names), default=0)
    for base, tokens in segments:
        consumed: set[int] = set()
        for width in range(min(max_len, len(tokens)), 0, -1):
            for start in range(len(tokens) - width + 1):
                if any(start + k in consumed for k in range(width)):
                    continue
                span = tokens[start : start + width]
                for elem, name in enumerate(names):
                    if len(name) == width and all(
                        not span[k].isdisjoint(name[k]) for k in range(width)
                    ):
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
    cell (i, j) has its mirror cell (j, i) carrying ``LINK_RELATION_MIRROR``.
    """
    question = token_seq(question)
    context = token_seq(context)
    matrix = SchemaLinkMatrix(question, context, schema, {})
    cells = matrix.cells
    segments = [(0, policy.fold(question)), (len(question), policy.fold(context))]

    def put(i: int, j: int, rel: LinkRelation) -> None:
        cells[(i, j)] = rel
        cells[(j, i)] = LINK_RELATION_MIRROR[rel]

    families = (
        (schema.tables, matrix.table_offset,
         LinkRelation.EXACT_TABLE, LinkRelation.PARTIAL_TABLE),
        ([col.name for col in schema.columns], matrix.column_offset,
         LinkRelation.EXACT_COLUMN, LinkRelation.PARTIAL_COLUMN),
    )
    for names, offset, exact, partial in families:
        folded = [policy.fold(name) for name in names]
        covered = set(_exact_match_pass(segments, folded))
        for pos, elem in covered:
            put(pos, offset + elem, exact)
        # Partial matches: one token against any word of a multi-word name.
        word_forms = [
            (elem, frozenset().union(*name)) for elem, name in enumerate(folded) if len(name) > 1
        ]
        for base, tokens in segments:
            for k, forms in enumerate(tokens):
                for elem, words in word_forms:
                    if (base + k, elem) not in covered and not forms.isdisjoint(words):
                        put(base + k, offset + elem, partial)

    # Schema structure relations.  Foreign keys take precedence over the
    # shared-table relation, primary-key ownership over plain ownership:
    # one cell holds one relation.  ``put`` writes both directions, so the
    # shared-table test need only look at one.
    tables, columns = matrix.table_offset, matrix.column_offset
    for src, dst in sorted(schema.foreign_keys):
        put(columns + src, columns + dst, LinkRelation.FOREIGN_KEY_FORWARD)
    for idx, col in enumerate(schema.columns):
        owner = (LinkRelation.PRIMARY_KEY_OF if idx in schema.primary_keys
                 else LinkRelation.COLUMN_BELONGS_TO_TABLE)
        put(columns + idx, tables + col.table, owner)
    for a, b in combinations(range(len(schema.columns)), 2):
        same_table = schema.columns[a].table == schema.columns[b].table
        if same_table and (columns + a, columns + b) not in cells:
            put(columns + a, columns + b, LinkRelation.SAME_TABLE_COLUMNS)
    return matrix


def link_stats(matrix: SchemaLinkMatrix) -> dict[str, int]:
    """Count non-empty cells per relation type."""
    counts: Counter[str] = Counter(rel.value for rel in matrix.cells.values())
    return dict(sorted(counts.items()))
