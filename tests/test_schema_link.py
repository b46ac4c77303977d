from __future__ import annotations

import dataclasses
import random

import pytest

import generators
import oracles
from conftest import FLIGHTS_CONTEXT, FLIGHTS_QUESTION
from qurg import schema_link
from qurg.rewrite_diff import MalformedMatrixError, MatchPolicy, RewriteRelation
from qurg.schema_link import (
    Column,
    LinkRelation,
    Schema,
    SchemaError,
    SchemaLinkMatrix,
    build_schema_link_matrix,
    link_stats,
)


class TestSchemaValidation:
    def test_out_of_range_table(self):
        with pytest.raises(SchemaError):
            Schema((("t",),), (Column(("c",), 3),))

    def test_dangling_foreign_key(self):
        with pytest.raises(SchemaError):
            Schema((("t",),), (Column(("c",), 0),), foreign_keys=frozenset({(0, 9)}))

    def test_empty_table_name(self):
        with pytest.raises(SchemaError):
            Schema(((),), ())

    def test_unknown_column_type(self):
        with pytest.raises(SchemaError):
            Schema((("t",),), (Column(("c",), 0, "blob"),))

    def test_no_foreign_keys_is_valid(self):
        schema = Schema((("t",),), (Column(("c",), 0),))
        assert schema.foreign_keys == frozenset()

    def test_column_name_bare_string_rejected(self):
        # Read as a sequence, "name" would be four one-letter words, and the
        # question token "n" would partially match the column.
        with pytest.raises(SchemaError, match="column 0"):
            Schema((("t",),), (Column("name", 0),))

    def test_column_name_list_normalised(self):
        schema = Schema((("t",),), (Column(["zip", "code"], 0),))
        assert schema.columns[0].name == ("zip", "code")
        assert schema == Schema((("t",),), (Column(("zip", "code"), 0),))
        assert hash(schema) == hash(Schema((("t",),), (Column(("zip", "code"), 0),)))

    def test_column_name_token_with_whitespace_rejected(self):
        with pytest.raises(SchemaError, match="column 1"):
            Schema((("t",),), (Column(("c",), 0), Column(("a b",), 0)))

    def test_column_name_not_a_sequence_rejected(self):
        with pytest.raises(SchemaError, match="column 0"):
            Schema((("t",),), (Column(5, 0),))

    def test_plain_tuple_column_rejected(self):
        with pytest.raises(SchemaError, match="column 1: expected a Column"):
            Schema((("t",),), (Column(("c",), 0), (("c",), 0)))

    def test_unhashable_column_type_rejected(self):
        with pytest.raises(SchemaError, match="column 0 has unknown type"):
            Schema((("t",),), (Column(("c",), 0, ["text"]),))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"foreign_keys": [5]}, "^a foreign key must be a sequence, got 5$"),
            ({"foreign_keys": 5}, "^foreign_keys must be a sequence, got 5$"),
            ({"primary_keys": [[0]]}, r"^primary key column \[0\] out of range$"),
            ({"primary_keys": 5}, "^primary_keys must be a sequence, got 5$"),
            ({"tables": 5}, "^tables must be a sequence, got 5$"),
            ({"columns": 5}, "^columns must be a sequence, got 5$"),
        ],
    )
    def test_malformed_keys_rejected(self, fields, message):
        schema = {"tables": (("t",),), "columns": (Column(("c",), 0),), **fields}
        with pytest.raises(SchemaError, match=message):
            Schema(**schema)


class TestMatching:
    def test_single_word_exact_column_mirrored(self):
        schema = Schema((("people",),), (Column(("name",), 0),))
        matrix = build_schema_link_matrix(("the", "name"), (), schema)
        col = matrix.column_position(0)
        assert matrix.relation_at(1, col) is LinkRelation.EXACT_COLUMN
        assert matrix.relation_at(col, 1) is LinkRelation.EXACT_COLUMN_REV

    def test_bigram_exact_beats_partial(self):
        schema = Schema((("flights",),), (Column(("flight", "number"), 0),))
        matrix = build_schema_link_matrix(("flight", "number"), (), schema)
        col = matrix.column_position(0)
        assert matrix.relation_at(0, col) is LinkRelation.EXACT_COLUMN
        assert matrix.relation_at(1, col) is LinkRelation.EXACT_COLUMN
        partials = [
            rel for rel in matrix.cells.values() if rel is LinkRelation.PARTIAL_COLUMN
        ]
        assert partials == []

    def test_partial_on_multiword_name_only(self):
        schema = Schema(
            (("people",),),
            (Column(("person", "name"), 0), Column(("age",), 0)),
        )
        matrix = build_schema_link_matrix(("name", "of", "ages"), (), schema)
        assert matrix.relation_at(0, matrix.column_position(0)) is LinkRelation.PARTIAL_COLUMN
        # "ages" matches single-word column "age" exactly under the plural policy,
        # never partially.
        assert matrix.relation_at(2, matrix.column_position(1)) is LinkRelation.EXACT_COLUMN

    def test_longest_ngram_consumes_tokens(self):
        # Columns: ["flight number"] and ["number"]; the bigram wins and the
        # shorter exact match for "number" is suppressed by consumption.
        schema = Schema(
            (("t",),),
            (Column(("flight", "number"), 0), Column(("number",), 0)),
        )
        matrix = build_schema_link_matrix(("flight", "number"), (), schema)
        assert matrix.relation_at(1, matrix.column_position(1)) is None
        assert matrix.relation_at(1, matrix.column_position(0)) is LinkRelation.EXACT_COLUMN

    def test_earlier_element_wins_tie(self):
        schema = Schema(
            (("t",),),
            (Column(("name",), 0), Column(("name",), 0)),
        )
        matrix = build_schema_link_matrix(("name",), (), schema)
        assert matrix.relation_at(0, matrix.column_position(0)) is LinkRelation.EXACT_COLUMN
        assert matrix.relation_at(0, matrix.column_position(1)) is None

    def test_ngram_does_not_span_question_context_boundary(self):
        schema = Schema((("t",),), (Column(("flight", "number"), 0),))
        # "flight" ends the question, "number" starts the context.
        matrix = build_schema_link_matrix(("flight",), ("number",), schema)
        col = matrix.column_position(0)
        assert matrix.relation_at(0, col) is LinkRelation.PARTIAL_COLUMN
        assert matrix.relation_at(1, col) is LinkRelation.PARTIAL_COLUMN


class TestStructureRelations:
    def test_belongs_and_has(self):
        schema = Schema((("t",),), (Column(("c",), 0),))
        matrix = build_schema_link_matrix((), (), schema)
        t, c = matrix.table_position(0), matrix.column_position(0)
        assert matrix.relation_at(c, t) is LinkRelation.COLUMN_BELONGS_TO_TABLE
        assert matrix.relation_at(t, c) is LinkRelation.TABLE_HAS_COLUMN

    def test_primary_key_precedence(self):
        schema = Schema(
            (("t",),), (Column(("c",), 0),), primary_keys=frozenset({0})
        )
        matrix = build_schema_link_matrix((), (), schema)
        t, c = matrix.table_position(0), matrix.column_position(0)
        assert matrix.relation_at(c, t) is LinkRelation.PRIMARY_KEY_OF
        assert matrix.relation_at(t, c) is LinkRelation.HAS_PRIMARY_KEY

    def test_foreign_key_cells(self, toy_schema):
        matrix = build_schema_link_matrix((), (), toy_schema)
        src, dst = matrix.column_position(3), matrix.column_position(0)
        assert matrix.relation_at(src, dst) is LinkRelation.FOREIGN_KEY_FORWARD
        assert matrix.relation_at(dst, src) is LinkRelation.FOREIGN_KEY_BACKWARD
        counts = link_stats(matrix)
        assert counts["Foreign-Key-Forward"] == 1
        assert counts["Foreign-Key-Backward"] == 1

    def test_same_table_columns(self):
        schema = Schema(
            (("t",),), (Column(("a",), 0), Column(("b",), 0), Column(("c",), 0))
        )
        matrix = build_schema_link_matrix((), (), schema)
        counts = link_stats(matrix)
        assert counts["Same-Table-Columns"] == 6  # 3 ordered pairs x 2

    def test_foreign_key_wins_over_same_table(self):
        schema = Schema(
            (("t",),),
            (Column(("a",), 0), Column(("b",), 0)),
            foreign_keys=frozenset({(0, 1)}),
        )
        matrix = build_schema_link_matrix((), (), schema)
        a, b = matrix.column_position(0), matrix.column_position(1)
        assert matrix.relation_at(a, b) is LinkRelation.FOREIGN_KEY_FORWARD
        assert matrix.relation_at(b, a) is LinkRelation.FOREIGN_KEY_BACKWARD
        assert "Same-Table-Columns" not in link_stats(matrix)

    def test_structure_other_than_the_schema_gives_is_refused(self):
        # Column "b" made the primary key of table "t", although it belongs
        # to "u" and the schema declares no primary key.
        schema = Schema((("t",), ("u",)), (Column(("a",), 0), Column(("b",), 1)))
        cells = {(4, 1): LinkRelation.PRIMARY_KEY_OF, (1, 4): LinkRelation.HAS_PRIMARY_KEY}
        with pytest.raises(MalformedMatrixError, match=r"^cell \(1,3\) carries no relation "
                           r"where the schema gives Table-Has-Column$"):
            SchemaLinkMatrix(("q",), (), schema, cells)


class TestHandEnumeratedCounts:
    def test_counts(self, toy_schema):
        matrix = build_schema_link_matrix(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, toy_schema)
        # Hand enumeration over the utterance
        # "which one has the most ? / how many arriving flights are there in
        # each of the cities ?" against tables (city, flight) and columns
        # (city id | city name | flight id | origin city id | arriving flights):
        #   exact table:   "flights" -> flight, "cities" -> city
        #   exact column:  bigram "arriving flights" -> arriving flights
        #   partial column: "cities" -> city id, city name, origin city id;
        #                   "flights" -> flight id
        # plus structure: belongs (3 non-key columns), PK (2), same-table
        # (2 + 6 ordered pairs), FK (1 each way).
        assert link_stats(matrix) == {
            "Exact-Table-Match": 2,
            "Exact-Table-Match-Rev": 2,
            "Exact-Column-Match": 2,
            "Exact-Column-Match-Rev": 2,
            "Partial-Column-Match": 4,
            "Partial-Column-Match-Rev": 4,
            "Column-Belongs-To-Table": 3,
            "Table-Has-Column": 3,
            "Primary-Key-Of": 2,
            "Has-Primary-Key": 2,
            "Same-Table-Columns": 8,
            "Foreign-Key-Forward": 1,
            "Foreign-Key-Backward": 1,
        }

    def test_stats_sum_equals_cells(self, toy_schema):
        matrix = build_schema_link_matrix(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, toy_schema)
        assert sum(link_stats(matrix).values()) == len(matrix.cells)

    def test_all_none(self):
        schema = Schema((("zz",),), ())
        matrix = build_schema_link_matrix(("hello",), (), schema)
        assert link_stats(matrix) == {}


class TestInvariants:
    def _random_case(self, rng: random.Random):
        words = ["city", "name", "flight", "id", "age", "country"]
        tables = tuple(
            tuple(rng.sample(words, rng.randint(1, 2))) for _ in range(rng.randint(1, 3))
        )
        columns = tuple(
            Column(tuple(rng.sample(words, rng.randint(1, 3))), rng.randrange(len(tables)))
            for _ in range(rng.randint(1, 5))
        )
        pks = frozenset(
            idx for idx in range(len(columns)) if rng.random() < 0.3
        )
        fks = frozenset(
            (a, b)
            for a in range(len(columns))
            for b in range(len(columns))
            if a != b and rng.random() < 0.1
        )
        schema = Schema(tables, columns, pks, fks)
        question = tuple(rng.choice(words + ["the", "?"]) for _ in range(rng.randint(1, 6)))
        context = tuple(rng.choice(words + ["show", "all"]) for _ in range(rng.randint(0, 8)))
        return question, context, schema

    @pytest.mark.parametrize("family", [RewriteRelation, LinkRelation])
    def test_each_mirror_declares_the_transposed_block(self, family):
        for rel in family:
            assert rel.mirror.mirror is rel
            assert (rel.mirror.rows, rel.mirror.cols) == (rel.cols, rel.rows)

    def test_mirror_symmetry(self):
        rng = random.Random(41)
        for _ in range(60):
            question, context, schema = self._random_case(rng)
            matrix = build_schema_link_matrix(question, context, schema)
            for (i, j), rel in matrix.cells.items():
                assert matrix.cells.get((j, i)) is rel.mirror

    def test_exactness_dominance(self):
        rng = random.Random(43)
        exact_to_partial = {
            LinkRelation.EXACT_TABLE: LinkRelation.PARTIAL_TABLE,
            LinkRelation.EXACT_COLUMN: LinkRelation.PARTIAL_COLUMN,
        }
        for _ in range(60):
            question, context, schema = self._random_case(rng)
            matrix = build_schema_link_matrix(question, context, schema)
            for (i, j), rel in matrix.cells.items():
                if rel in exact_to_partial:
                    assert matrix.cells[(i, j)] is not exact_to_partial[rel]

    def test_layout_purity(self):
        rng = random.Random(47)
        for _ in range(60):
            question, context, schema = self._random_case(rng)
            matrix = build_schema_link_matrix(question, context, schema)
            utter = matrix.n_question + matrix.n_context
            match_relations = {
                LinkRelation.EXACT_TABLE, LinkRelation.PARTIAL_TABLE,
                LinkRelation.EXACT_COLUMN, LinkRelation.PARTIAL_COLUMN,
            }
            for (i, j), rel in matrix.cells.items():
                assert not (i < utter and j < utter), "utterance-internal cell"
                if i < utter:
                    assert rel in match_relations
                elif j < utter:
                    assert rel in {r.mirror for r in match_relations}
                else:
                    assert rel not in match_relations
                    assert rel not in {r.mirror for r in match_relations}

    def test_case_sensitive_policy(self):
        schema = Schema((("City",),), ())
        strict = MatchPolicy(lowercase=False)
        matrix = build_schema_link_matrix(("city",), (), schema, strict)
        assert matrix.cells == {}


class TestReferenceOracle:
    """The matrix equals a pairwise brute-force reference under every policy,
    on words with case and plural variants."""

    def _variant_case(self, rng: random.Random):
        words = generators.VARIANT_VOCAB

        def name() -> tuple[str, ...]:
            return tuple(rng.choice(words) for _ in range(rng.randint(1, 3)))

        tables = tuple(name() for _ in range(rng.randint(1, 4)))
        columns = tuple(
            Column(name(), rng.randrange(len(tables))) for _ in range(rng.randint(0, 6))
        )
        pks = frozenset(idx for idx in range(len(columns)) if rng.random() < 0.3)
        fks = frozenset(
            (a, b)
            for a in range(len(columns))
            for b in range(len(columns))
            if rng.random() < 0.15
        )
        question = tuple(rng.choice(words + ["the"]) for _ in range(rng.randint(1, 7)))
        context = tuple(rng.choice(words + ["all"]) for _ in range(rng.randint(0, 9)))
        return question, context, Schema(tables, columns, pks, fks)

    def _wide_case(self, rng: random.Random):
        """About 35 names over the variant vocabulary, so many share a
        first-word form and a width; columns of one table are interleaved
        with other tables' columns, and one foreign key stays inside a table."""
        words = generators.VARIANT_VOCAB

        def name() -> tuple[str, ...]:
            return tuple(rng.choice(words) for _ in range(rng.randint(1, 3)))

        tables = tuple(name() for _ in range(rng.randint(5, 8)))
        columns = tuple(
            Column(name(), rng.randrange(len(tables))) for _ in range(rng.randint(25, 32))
        )
        a = rng.randrange(len(columns))
        mates = [b for b, col in enumerate(columns) if col.table == columns[a].table and b != a]
        fks = {(a, rng.choice(mates) if mates else a)}
        fks |= {(rng.randrange(len(columns)), rng.randrange(len(columns))) for _ in range(4)}
        pks = frozenset(rng.sample(range(len(columns)), 4))
        question = tuple(rng.choice(words + ["the"]) for _ in range(rng.randint(20, 28)))
        context = tuple(rng.choice(words + ["all"]) for _ in range(rng.randint(20, 36)))
        return question, context, Schema(tables, columns, pks, frozenset(fks))

    @pytest.mark.parametrize(
        "policy", generators.POLICIES, ids=lambda p: f"lower{p.lowercase:d}-stem{p.plural_stem:d}"
    )
    def test_wide_schema_matches_bruteforce(self, policy):
        rng = random.Random(71)
        for _ in range(25):
            question, context, schema = self._wide_case(rng)
            matrix = build_schema_link_matrix(question, context, schema, policy)
            got = {key: rel.value for key, rel in matrix.cells.items()}
            assert got == oracles.reference_schema_link(question, context, schema, policy)
            assert SchemaLinkMatrix(question, context, schema, dict(matrix.cells)) == matrix

    @pytest.mark.parametrize(
        "policy", generators.POLICIES, ids=lambda p: f"lower{p.lowercase:d}-stem{p.plural_stem:d}"
    )
    def test_matches_bruteforce(self, policy):
        rng = random.Random(53)
        for _ in range(150):
            question, context, schema = self._variant_case(rng)
            matrix = build_schema_link_matrix(question, context, schema, policy)
            got = {key: rel.value for key, rel in matrix.cells.items()}
            assert got == oracles.reference_schema_link(question, context, schema, policy)
            assert SchemaLinkMatrix(question, context, schema, dict(matrix.cells)) == matrix


class TestReusedSchema:
    """One ``Schema`` serves many calls under changing policies; each call
    gives what a fresh, equal schema gives, and using a schema leaves its
    value unchanged."""

    @staticmethod
    def _schema(rng: random.Random) -> Schema:
        words = generators.VARIANT_VOCAB

        def name() -> tuple[str, ...]:
            return tuple(rng.choice(words) for _ in range(rng.randint(1, 3)))

        tables = tuple(name() for _ in range(5))
        columns = tuple(Column(name(), rng.randrange(len(tables))) for _ in range(14))
        fks = {(0, 0), (1, 2), (2, 1), (3, 7), (7, 3), (9, 4)}
        return Schema(tables, columns, frozenset({0, 5, 9}), frozenset(fks))

    def test_reused_schema_matches_fresh_schema_and_oracle(self):
        rng = random.Random(97)
        schema = self._schema(random.Random(5))
        before = (repr(schema), hash(schema))
        words = generators.VARIANT_VOCAB + ["the", "all"]
        for turn in range(24):
            policy = generators.POLICIES[turn % len(generators.POLICIES)]
            question = tuple(rng.choice(words) for _ in range(rng.randint(1, 8)))
            context = tuple(rng.choice(words) for _ in range(rng.randint(0, 12)))
            reused = build_schema_link_matrix(question, context, schema, policy)
            fresh = build_schema_link_matrix(
                question, context, self._schema(random.Random(5)), policy
            )
            assert list(reused.cells.items()) == list(fresh.cells.items())
            got = {key: rel.value for key, rel in reused.cells.items()}
            assert got == oracles.reference_schema_link(question, context, schema, policy)
        assert (repr(schema), hash(schema)) == before
        assert schema == self._schema(random.Random(5))

    def test_replaced_schema_gets_its_own_plan(self):
        schema = Schema((("city",),), (Column(("name",), 0),))
        question = ("city", "name", "age")
        first = build_schema_link_matrix(question, (), schema)
        replaced = dataclasses.replace(schema, columns=(Column(("age",), 0),))
        assert replaced._link_plans is not schema._link_plans
        matrix = build_schema_link_matrix(question, (), replaced)
        col = matrix.column_position(0)
        assert matrix.relation_at(2, col) is LinkRelation.EXACT_COLUMN
        assert matrix.relation_at(1, col) is None
        assert build_schema_link_matrix(question, (), schema).cells == first.cells

    def test_structure_cells_built_once_per_schema(self, monkeypatch):
        built = []

        def counted(schema):
            built.append(schema)
            return structure_cells(schema)

        structure_cells = schema_link._structure_cells
        monkeypatch.setattr(schema_link, "_structure_cells", counted)
        schema = self._schema(random.Random(5))
        question, context = ("city", "names"), ("the", "flights")
        for policy in generators.POLICIES:
            for _ in range(2):
                matrix = build_schema_link_matrix(question, context, schema, policy)
                SchemaLinkMatrix(question, context, schema, dict(matrix.cells))
        assert len(built) == 1 and built[0] is schema
        replaced = dataclasses.replace(schema, primary_keys=frozenset())
        assert replaced._structure != schema._structure
        assert len(built) == 2 and built[1] is replaced
        assert replaced._structure == structure_cells(replaced)

    def test_reused_schema_keeps_nothing_per_utterance(self):
        """Linking many distinct utterance lengths, and checking the
        matrices, leaves the schema holding its structure cells and one
        plan per policy, and nothing more."""
        schema = self._schema(random.Random(5))
        build_schema_link_matrix(("city",), (), schema)
        structure = schema._structure
        fields = {f.name for f in dataclasses.fields(schema)}
        for n in range(60):
            question, context = ("city",) * (n % 7 + 1), ("names",) * n
            policy = generators.POLICIES[n % len(generators.POLICIES)]
            matrix = build_schema_link_matrix(question, context, schema, policy)
            SchemaLinkMatrix(question, context, schema, dict(matrix.cells))
        assert set(vars(schema)) - fields == {"_structure", "_link_plans"}
        assert schema._structure is structure
        assert set(schema._link_plans) == set(generators.POLICIES)

    def test_reused_schema_across_lengths(self):
        """Lengths that grow, shrink and repeat, some with no context and
        some with no match: each matrix lists the cells a fresh schema
        lists, in the same order, and emptying a returned matrix leaves the
        schema's kept cells whole."""
        rng = random.Random(31)
        schema = self._schema(random.Random(5))
        filler = ["the", "all"]
        lengths = [(3, 4), (6, 9), (2, 0), (6, 9), (1, 3), (9, 12), (2, 0), (3, 4), (5, 0)]
        for turn, (n_question, n_context) in enumerate(lengths * 2):
            policy = generators.POLICIES[turn % len(generators.POLICIES)]
            words = filler if turn % 3 == 2 else generators.VARIANT_VOCAB + filler
            question = tuple(rng.choice(words) for _ in range(n_question))
            context = tuple(rng.choice(words) for _ in range(n_context))
            reused = build_schema_link_matrix(question, context, schema, policy)
            fresh = build_schema_link_matrix(
                question, context, self._schema(random.Random(5)), policy
            )
            assert list(reused.cells.items()) == list(fresh.cells.items())
            got = {key: rel.value for key, rel in reused.cells.items()}
            assert got == oracles.reference_schema_link(question, context, schema, policy)
            reused.cells.clear()
            again = build_schema_link_matrix(question, context, schema, policy)
            assert list(again.cells.items()) == list(fresh.cells.items())
