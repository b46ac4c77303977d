"""Name-based schema linking between utterance tokens and schema elements.

Builds a sparse relation matrix over the layout ``[question tokens;
context tokens; table elements; column elements]``.  Utterance-to-schema
cells carry name-match relations (exact n-gram or single-word partial);
schema-to-schema cells carry structural relations (ownership, shared
table, foreign keys, primary keys).  Utterance-internal cells are always
empty: in this architecture utterance-to-utterance relations travel in the
rewrite matrix instead.  Name matching reads one index per element
family, keyed on every form of every word of every name, in one pass over
the utterance that looks each token's forms up once; exact matches keep
the tie rule of a scan of all names: longest n-gram first, then earliest
start, then earliest element.  The structure cells depend only on the
schema, so each schema builds them once, with the first table at position
0; every matrix on it holds that one dict, not a copy, and moves its keys
to its own first table's position as they are read.  The folded names
and their indexes depend on the schema and the match policy, so each
schema builds them once per policy.  Both are built on first use and kept
for every later call.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Any, Iterable, NamedTuple, Sequence

from .rewrite_diff import (
    DEFAULT_POLICY, MalformedMatrixError, MatchPolicy, Relation, RelationMatrix, TokenSeq,
    _is_index, _prevalidated, token_seq,
)

__all__ = [
    "MAX_STRUCTURE_CELLS",
    "SchemaError",
    "Column",
    "Schema",
    "LinkRelation",
    "SchemaLinkMatrix",
    "build_schema_link_matrix",
    "link_stats",
]

COLUMN_TYPES = frozenset({"text", "number", "time", "boolean", "others"})

# Most structure cells a ``Schema`` may give, about 200 MB once built: they
# grow with the square of one table's column count, and a process that asks
# for more than the machine holds can be killed with no error line.
MAX_STRUCTURE_CELLS = 2**20


class SchemaError(ValueError):
    """A schema violates its structural invariants."""


def _name(tokens: Iterable[str], where: str) -> TokenSeq:
    try:
        name = token_seq(tokens)
    except (TypeError, ValueError) as exc:  # TypeError: not iterable
        raise SchemaError(f"{where}: {exc}") from None
    if not name:
        raise SchemaError(f"{where} has an empty name")
    return name


def _listed(value: object, what: str) -> tuple:
    try:
        return tuple(value)  # type: ignore[call-overload]
    except TypeError:  # not iterable
        raise SchemaError(f"{what} must be a sequence, got {value!r:.40}") from None


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
        tables, columns = _listed(self.tables, "tables"), _listed(self.columns, "columns")
        object.__setattr__(
            self, "tables", tuple(_name(t, f"table {idx}") for idx, t in enumerate(tables))
        )
        object.__setattr__(
            self, "columns", tuple(_column(col, idx) for idx, col in enumerate(columns))
        )
        primary_keys = _listed(self.primary_keys, "primary_keys")
        foreign_keys = tuple(
            _listed(fk, "a foreign key")
            for fk in _listed(self.foreign_keys, "foreign_keys")
        )
        for idx, col in enumerate(self.columns):
            if not _is_index(col.table, len(self.tables)):
                raise SchemaError(
                    f"column {idx} references out-of-range table {col.table!r}"
                )
            if not isinstance(col.type, str) or col.type not in COLUMN_TYPES:
                raise SchemaError(f"column {idx} has unknown type {col.type!r}")
        for pk in primary_keys:
            if not _is_index(pk, len(self.columns)):
                raise SchemaError(f"primary key column {pk!r:.40} out of range")
        for fk in foreign_keys:
            if not (len(fk) == 2 and all(_is_index(c, len(self.columns)) for c in fk)):
                raise SchemaError(f"dangling foreign key {fk!r:.40}")
        object.__setattr__(self, "primary_keys", frozenset(primary_keys))
        object.__setattr__(self, "foreign_keys", frozenset(foreign_keys))
        cells = _structure_size(self)
        if cells > MAX_STRUCTURE_CELLS:
            raise SchemaError(f"schema needs {cells:,} structure cells, "
                              f"more than the bound of {MAX_STRUCTURE_CELLS:,}")

    @cached_property
    def _structure(self) -> dict[tuple[int, int], LinkRelation]:
        """The schema-to-schema cells with the first table at position 0,
        built on first use.  Every ``SchemaLinkMatrix`` on this schema holds
        this one dict, built or loaded, and never changes it.  Not a field:
        ``==``, ``hash`` and ``repr`` ignore it, and ``dataclasses.replace``
        starts anew."""
        return _structure_cells(self)

    @cached_property
    def _link_plans(self) -> dict[MatchPolicy, tuple[_FamilyPlan, ...]]:
        """The link plan per match policy, each built on first use by
        ``build_schema_link_matrix``; not a field, like ``_structure``."""
        return {}


class LinkRelation(Relation):
    """Relation vocabulary of the schema-linking matrix, each member with
    its mirror and its block among the ``utterance`` (question and
    context), ``table`` and ``column`` positions.  The ``-Rev`` variants
    are the transposed direction of the corresponding utterance-to-schema
    match.
    """

    EXACT_TABLE = "Exact-Table-Match", "EXACT_TABLE_REV", "utterance", "table"
    EXACT_TABLE_REV = "Exact-Table-Match-Rev", "EXACT_TABLE", "table", "utterance"
    PARTIAL_TABLE = "Partial-Table-Match", "PARTIAL_TABLE_REV", "utterance", "table"
    PARTIAL_TABLE_REV = "Partial-Table-Match-Rev", "PARTIAL_TABLE", "table", "utterance"
    EXACT_COLUMN = "Exact-Column-Match", "EXACT_COLUMN_REV", "utterance", "column"
    EXACT_COLUMN_REV = "Exact-Column-Match-Rev", "EXACT_COLUMN", "column", "utterance"
    PARTIAL_COLUMN = "Partial-Column-Match", "PARTIAL_COLUMN_REV", "utterance", "column"
    PARTIAL_COLUMN_REV = "Partial-Column-Match-Rev", "PARTIAL_COLUMN", "column", "utterance"
    COLUMN_BELONGS_TO_TABLE = "Column-Belongs-To-Table", "TABLE_HAS_COLUMN", "column", "table"
    TABLE_HAS_COLUMN = "Table-Has-Column", "COLUMN_BELONGS_TO_TABLE", "table", "column"
    SAME_TABLE_COLUMNS = "Same-Table-Columns", "SAME_TABLE_COLUMNS", "column", "column"
    FOREIGN_KEY_FORWARD = "Foreign-Key-Forward", "FOREIGN_KEY_BACKWARD", "column", "column"
    FOREIGN_KEY_BACKWARD = "Foreign-Key-Backward", "FOREIGN_KEY_FORWARD", "column", "column"
    PRIMARY_KEY_OF = "Primary-Key-Of", "HAS_PRIMARY_KEY", "column", "table"
    HAS_PRIMARY_KEY = "Has-Primary-Key", "PRIMARY_KEY_OF", "table", "column"


LINK_RELATION_NAMES = tuple(rel.value for rel in LinkRelation)


class _LinkCells(Mapping):
    """The read-only cells of one linking matrix: ``utterance``, the cells in
    a question or context row or column, in the order they were written,
    then the schema's structure cells, the dict ``Schema._structure`` that
    every matrix on the schema shares, moved by ``offset``, the first
    table's position.  It reads, compares, prints, pickles and copies as the
    dict of all its cells in that order.  ``items`` reads every cell and
    ``get`` one, and every other read goes through them; each full read
    moves every structure key, so a caller that reads every cell more than
    once should take ``dict(cells)`` once."""

    __slots__ = ("_utterance", "_structure", "_offset")

    def __init__(self, utterance: dict[tuple[int, int], LinkRelation],
                 structure: dict[tuple[int, int], LinkRelation], offset: int) -> None:
        self._utterance, self._structure, self._offset = utterance, structure, offset

    def get(self, key: Any, default: Any = None) -> Any:
        rel = self._utterance.get(key)
        if rel is None:
            try:
                i, j = key
                rel = self._structure.get((i - self._offset, j - self._offset))
            except (TypeError, ValueError):  # not a pair of numbers
                pass
        return default if rel is None else rel

    def __getitem__(self, key: Any) -> LinkRelation:
        rel = self.get(key)
        if rel is None:
            raise KeyError(key)
        return rel

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        return len(self._utterance) + len(self._structure)

    def items(self) -> _LinkItems:
        return _LinkItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    # Pickle protocols 0 and 1 refuse a class with ``__slots__`` and no
    # ``__getstate__``.
    def __reduce__(self) -> tuple:
        return _LinkCells, (self._utterance, self._structure, self._offset)


class _LinkItems(ItemsView):
    """A linking matrix's cells as (key, relation) pairs, read from the two
    dicts without a lookup per key."""

    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[tuple[int, int], LinkRelation]]:
        cells = self._mapping
        yield from cells._utterance.items()
        t = cells._offset
        for (i, j), rel in cells._structure.items():
            yield (i + t, j + t), rel


@dataclass(frozen=True)
class SchemaLinkMatrix(RelationMatrix):
    """Sparse relation matrix over ``[question; context; tables; columns]``.

    Besides the checks of :class:`RelationMatrix`, the constructor requires
    the cells among tables and columns to be exactly the structure cells
    that the schema gives (ownership, primary and foreign keys, shared
    tables), as :func:`build_schema_link_matrix` writes them.  It takes the
    cells as any mapping and keeps them as a ``_LinkCells`` over the
    schema's own structure dict.
    """

    question_tokens: TokenSeq
    context_tokens: TokenSeq
    schema: Schema
    cells: Mapping[tuple[int, int], LinkRelation] = field(default_factory=dict)

    _relations = LinkRelation

    def __post_init__(self) -> None:
        super().__post_init__()
        t, structure = self.table_offset, self.schema._structure
        # The utterance cells, and the cells among tables and columns moved
        # to the first table, as the schema's structure cells are.
        utterance: dict[tuple[int, int], LinkRelation] = {}
        found: dict[tuple[int, int], LinkRelation] = {}
        for key, rel in self.cells.items():
            i, j = key
            if i < t or j < t:
                utterance[key] = rel
            else:
                found[(i - t, j - t)] = rel
        if found != structure:
            i, j = min(key for key in structure.keys() | found.keys()
                       if found.get(key) is not structure.get(key))

            def named(rel: LinkRelation | None) -> str:
                return "no relation" if rel is None else rel.value

            raise MalformedMatrixError(
                f"cell ({i + t},{j + t}) carries {named(found.get((i, j)))} where "
                f"the schema gives {named(structure.get((i, j)))}"
            )
        object.__setattr__(self, "cells", _LinkCells(utterance, structure, t))

    def _regions(self) -> dict[str, range]:
        t, c = self.table_offset, self.column_offset
        return {"utterance": range(t), "table": range(t, c), "column": range(c, self.size)}

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

    def table_position(self, table_index: int) -> int:
        return self.table_offset + table_index

    def column_position(self, column_index: int) -> int:
        return self.column_offset + column_index


class _FamilyPlan(NamedTuple):
    """One element family (tables or columns) folded and indexed under one
    policy.  ``base`` is the family's first position counted from the
    first table."""

    names: tuple[tuple[frozenset[str], ...], ...]
    # Each form of each word of each name -> its (element, word position)
    # pairs, in listing order.  Every form is a key of its own: matching is
    # not transitive, so one canonical form per word would miss matches.
    by_word: dict[str, list[tuple[int, int]]]
    base: int
    exact: LinkRelation
    partial: LinkRelation


def _structure_cells(schema: Schema) -> dict[tuple[int, int], LinkRelation]:
    """The schema-to-schema cells, with the first table at position 0, in
    the order the matrix receives them.  Foreign keys take precedence over
    the shared-table relation, primary-key ownership over plain ownership:
    one cell holds one relation.  ``put`` writes both directions, so the
    shared-table test need only look at one."""
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
    return cells


def _structure_size(schema: Schema) -> int:
    """``len(_structure_cells(schema))``, counted without building them:
    two ownership cells per column, both directions of each pair of columns
    in one table, two more cells for a foreign key across tables and one for
    a column's key to itself."""
    columns = schema.columns
    per_table = Counter(col.table for col in columns)
    cells = 2 * len(columns) + sum(c * (c - 1) for c in per_table.values())
    for pair in {frozenset(fk) for fk in schema.foreign_keys}:
        if len(pair) == 1:
            cells += 1
        else:
            a, b = pair
            cells += 2 * (columns[a].table != columns[b].table)
    return cells


def _link_plan(schema: Schema, policy: MatchPolicy) -> tuple[_FamilyPlan, ...]:
    """The schema's tables and columns folded and indexed under ``policy``."""
    plans = []
    for names, base, exact, partial in (
        (schema.tables, 0, LinkRelation.EXACT_TABLE, LinkRelation.PARTIAL_TABLE),
        ([col.name for col in schema.columns], len(schema.tables),
         LinkRelation.EXACT_COLUMN, LinkRelation.PARTIAL_COLUMN),
    ):
        # Each name word's forms become a set once, for the ``isdisjoint``
        # tests of ``_match_pass``.
        folded = tuple(tuple(map(frozenset, policy.fold(name))) for name in names)
        by_word: dict[str, list[tuple[int, int]]] = {}
        for elem, name in enumerate(folded):
            for k, word in enumerate(name):
                for form in word:
                    by_word.setdefault(form, []).append((elem, k))
        plans.append(_FamilyPlan(folded, by_word, base, exact, partial))
    return tuple(plans)


def _match_pass(
    segments: Sequence[tuple[int, Sequence[tuple[str, ...]]]],
    family: _FamilyPlan,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """One pass over the utterance, as form tuples, that looks each token's
    forms up once in the family's word index; returns the exact pairs and
    the partial candidates, as (token position, element) pairs.

    Exact matching is greedy and longest-first: an n-gram matches when it
    equals a full folded name, and it yields one pair per token it covers.
    Longer n-grams win over shorter ones; within one length, earlier start
    positions and earlier elements in schema order win.  A token consumed by
    an exact match does not participate in further exact matches of the same
    element family.  A hit on a name's first word starts an n-gram that is
    tested against the name's later words; the n-grams that match a full
    name are then accepted in tie-rule order.  Every hit on any word of a
    multi-word name is a partial candidate; a pair reached through several
    forms, or through a repeated word, is listed once per hit.
    """
    names = family.names
    by_word = family.by_word
    matched: list[tuple[int, int]] = []
    candidates: list[tuple[int, int]] = []
    for base, tokens in segments:
        n = len(tokens)
        best: dict[tuple[int, int], int] = {}  # (-width, start) -> lowest matching element
        for start, forms in enumerate(tokens):
            for form in forms:
                for elem, k in by_word.get(form, ()):
                    name = names[elem]
                    width = len(name)
                    if width > 1:
                        candidates.append((base + start, elem))
                    if k or start + width > n:
                        continue
                    for j in range(1, width):
                        if name[j].isdisjoint(tokens[start + j]):
                            break
                    else:
                        key = (-width, start)
                        if best.get(key, elem) >= elem:
                            best[key] = elem
        consumed: set[int] = set()
        for (neg_width, start), elem in sorted(best.items()):
            span = range(start, start - neg_width)
            if consumed.isdisjoint(span):
                consumed.update(span)
                matched.extend((base + pos, elem) for pos in span)
    return matched, candidates


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
    question, context = token_seq(question), token_seq(context)
    cells: dict[tuple[int, int], LinkRelation] = {}
    segments = [(0, policy.fold(question)), (len(question), policy.fold(context))]
    tables = len(question) + len(context)
    # The schema's plan under ``policy`` is built on first use and kept on
    # the schema, which is immutable.
    families = schema._link_plans.get(policy)
    if families is None:
        families = schema._link_plans[policy] = _link_plan(schema, policy)
    # Match cells are written inline with their mirrors: on the wide
    # benchmark schema a ``put`` call per cell costs about a tenth of a call
    # on a reused schema.
    for family in families:
        offset = tables + family.base
        exact, exact_rev = family.exact, family.exact.mirror
        partial, partial_rev = family.partial, family.partial.mirror
        matched, candidates = _match_pass(segments, family)
        covered = set(matched)
        for pos, elem in covered:
            cells[(pos, offset + elem)] = exact
            cells[(offset + elem, pos)] = exact_rev
        # Partial matches: one token against any word of a multi-word name.
        for pos, elem in candidates:
            if (pos, elem) not in covered:
                cells[(pos, offset + elem)] = partial
                cells[(offset + elem, pos)] = partial_rev
    # Every cell above lies in its relation's block and has its mirror, and
    # so do the schema's structure cells, which follow them unshifted.
    return _prevalidated(SchemaLinkMatrix, question_tokens=question, context_tokens=context,
                         schema=schema, cells=_LinkCells(cells, schema._structure, tables))


def link_stats(matrix: RelationMatrix) -> dict[str, int]:
    """Count non-empty cells per relation type, sorted by relation name."""
    counts = Counter(rel for _, rel in matrix.cells.items())
    return dict(sorted((rel.value, n) for rel, n in counts.items()))
