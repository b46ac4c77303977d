from __future__ import annotations

import ast
import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json_strategies
import oracles
from conftest import (
    FIXTURES,
    FLIGHTS_CONTEXT,
    FLIGHTS_QUESTION,
    LINK_SCHEMA,
    MALFORMED_LINK_MATRICES,
    MALFORMED_MATRICES,
    corpus_record,
    flights_link_matrix_payload,
    flights_matrix_payload,
    malformed_link_matrix_payload,
    malformed_matrix_payload,
)
from qurg import dataset_io
from qurg.dataset_io import (
    DatasetError,
    FormatVersionError,
    load_interactions,
    load_link_matrix,
    load_matrix,
    load_rewrite_corpus,
    load_rouge_report,
    load_schema,
    read_json,
    save_interactions,
    save_link_matrix,
    save_matrix,
    save_rewrite_corpus,
    save_rouge_report,
    save_schema,
    tokenize,
    write_json,
)
from qurg.rewrite_diff import (
    Interaction,
    MalformedMatrixError,
    RewriteEditMatrix,
    RewriteRelation,
    _Tokens,
    build_from_interaction,
    build_rewrite_matrix,
)
from qurg.rouge_eval import RougeScore, corpus_rouge
from qurg.schema_link import (
    Column, LinkRelation, Schema, SchemaError, SchemaLinkMatrix, build_schema_link_matrix
)


class TestTokenize:
    def test_punctuation_detached(self):
        assert tokenize("which one has the most?") == (
            "which", "one", "has", "the", "most", "?",
        )

    def test_multiple_trailing_marks(self):
        assert tokenize("really?!") == ("really", "?", "!")
        assert tokenize("flights?.") == ("flights", "?", ".")

    def test_leading_marks(self):
        assert tokenize("...wait") == (".", ".", ".", "wait")

    def test_case_preserved(self):
        assert tokenize("Which City") == ("Which", "City")

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop") == ("don't", "stop")

    def test_bare_punctuation(self):
        assert tokenize("?") == ("?",)
        assert tokenize("") == ()

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=".,?! \t\nab'", max_size=30) | st.text(max_size=20))
    def test_matches_character_loop(self, text):
        tokens = tokenize(text)
        assert tokens == oracles.reference_tokenize(text)
        # Its result counts as checked, so a plain copy must pass the check.
        assert type(tokens) is _Tokens
        assert oracles.reference_token_seq(tuple(tokens)) == tokens


class TestTokensValidatedOnce:
    """Each token sequence is validated where it enters, by ``tokenize``, a
    loader or a public constructor.  A checked sequence keeps its type, so
    the objects and builders it reaches later pass it through ``token_seq``
    without work; only the checks that do work are counted."""

    @staticmethod
    def _count_token_seq(monkeypatch) -> list:
        from qurg import rewrite_diff, schema_link

        calls, token_seq = [], rewrite_diff.token_seq

        def counting(tokens):
            if type(tokens) is not _Tokens:
                calls.append(tokens)
            return token_seq(tokens)

        for module in (rewrite_diff, schema_link):
            monkeypatch.setattr(module, "token_seq", counting)
        return calls

    def test_roundtrip_validates_each_sequence_once(self, monkeypatch):
        from qurg import rewrite_restore

        calls = self._count_token_seq(monkeypatch)
        examples = load_rewrite_corpus(FIXTURES / "corpus_small.jsonl")
        assert examples and calls == []  # ``tokenize`` made every sequence
        for ex in examples:
            matrix = build_from_interaction(ex)
            rewrite_restore.restore(ex.question, ex.flat_context(), matrix)
        assert calls == []

    def test_schema_file_validates_each_name_once(self, monkeypatch):
        calls = self._count_token_seq(monkeypatch)
        schema = load_schema(FIXTURES / "schema_flights.json")
        assert len(calls) == len(schema.tables) + len(schema.columns)

    def test_matrix_file_validates_each_sequence_once(self, monkeypatch, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(flights_matrix_payload()))
        calls = self._count_token_seq(monkeypatch)
        load_matrix(path)
        assert calls == [FLIGHTS_CONTEXT, FLIGHTS_QUESTION]

    def test_link_matrix_file_validates_each_sequence_once(
        self, monkeypatch, tmp_path, toy_schema
    ):
        path = tmp_path / "link.json"
        save_link_matrix(path, build_schema_link_matrix(
            FLIGHTS_QUESTION, FLIGHTS_CONTEXT, toy_schema
        ))
        calls = self._count_token_seq(monkeypatch)
        load_link_matrix(path)
        names = [*toy_schema.tables, *(col.name for col in toy_schema.columns)]
        assert calls == [*names, FLIGHTS_CONTEXT, FLIGHTS_QUESTION]

    def test_encoder_links_the_interaction_without_validating_again(self, monkeypatch):
        from qurg import rat_encoder

        interaction = load_interactions(FIXTURES / "interactions_flights.json")[0]
        schema = load_schema(FIXTURES / "schema_flights.json")
        matrix = build_from_interaction(interaction)
        params = rat_encoder.init_params(
            rat_encoder.EncoderConfig(d_x=8, heads=2, layers_link=1, layers_rw=1, d_ff=12)
        )
        calls = self._count_token_seq(monkeypatch)
        _, link = rat_encoder.encode_interaction(interaction, schema, matrix, params)
        assert calls == []
        context = rat_encoder.encoder_context_tokens(interaction)
        assert link == build_schema_link_matrix(interaction.question, context, schema)

    def test_hand_offs_reject_what_they_rejected(self):
        with pytest.raises(ValueError, match="^interaction question must be non-empty$"):
            Interaction((), ())
        with pytest.raises(ValueError, match="^expected a sequence of tokens, got the string 'ab'$"):
            build_rewrite_matrix([], ("a",), "ab")

    @pytest.mark.parametrize(
        "loader, payload, where",
        [
            (load_interactions, {"qurg_fmt": 1, "interactions": [{"utterances": ["a", " "]}]},
             ": interaction 0"),
            (load_interactions,
             [{"interaction": [{"utterance": "a"}, {"utterance": " "}]}],
             ": interaction 0: turn 2"),
            (load_rewrite_corpus, {"history": [], "question": " ", "rewrite": "a", "id": "x"},
             ":1"),
        ],
        ids=["native", "sparc", "corpus"],
    )
    def test_loaders_leave_the_empty_question_to_interaction(
        self, tmp_path, loader, payload, where
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        message = f"{path}{where}: interaction question must be non-empty"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            loader(path)

    def test_only_interaction_refuses_an_empty_gold_rewrite(self, tmp_path):
        with pytest.raises(ValueError, match="^interaction gold rewrite must be non-empty$"):
            Interaction((), ("a",), ())
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({**corpus_record(), "rewrite": " "}) + "\n")
        message = f"{corpus}:1: interaction gold rewrite must be non-empty"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_rewrite_corpus(corpus)
        # The native document reads a rewrite with no tokens as none, as it reads "".
        native = tmp_path / "native.json"
        native.write_text(
            json.dumps({"qurg_fmt": 1, "interactions": [{"utterances": ["a"], "rewrite": " "}]})
        )
        assert load_interactions(native)[0].gold_rewrite is None

    def test_hand_offs_build_what_the_constructors_build(self, tmp_path, flights_interaction):
        path = tmp_path / "corpus.jsonl"
        save_rewrite_corpus(path, [flights_interaction])
        assert load_rewrite_corpus(path) == [flights_interaction]
        matrix = build_from_interaction(flights_interaction)
        assert matrix == RewriteEditMatrix(
            matrix.context_tokens, matrix.question_tokens, dict(matrix.cells)
        )


class TestInteractions:
    def test_three_turn_interaction(self, tmp_path):
        path = tmp_path / "inter.json"
        path.write_text(json.dumps({
            "qurg_fmt": 1,
            "interactions": [
                {"id": "a", "utterances": ["show cities .", "sort them .", "top one ?"]},
            ],
        }))
        loaded = load_interactions(path)
        assert len(loaded) == 1
        assert len(loaded[0].context_turns) == 2
        assert loaded[0].turn_index == 3
        assert loaded[0].question == ("top", "one", "?")

    def test_fixture_with_rewrite(self, fixtures_dir):
        loaded = load_interactions(fixtures_dir / "interactions_flights.json")
        assert loaded[0].question == FLIGHTS_QUESTION
        assert loaded[0].flat_context() == FLIGHTS_CONTEXT
        assert loaded[0].gold_rewrite is not None

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_interactions(path) == []

    def test_empty_interaction_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"qurg_fmt": 1, "interactions": [{"utterances": []}]}))
        with pytest.raises(DatasetError):
            load_interactions(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"qurg_fmt": 1,\n  "interactions": [}')
        with pytest.raises(DatasetError, match="line 2"):
            load_interactions(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "nover.json"
        path.write_text(json.dumps({"interactions": []}))
        with pytest.raises(FormatVersionError):
            load_interactions(path)

    @staticmethod
    def _one_record(tmp_path, version=1, **fields):
        path = tmp_path / "one.json"
        record = {"utterances": ["show cities"], **fields}
        path.write_text(json.dumps({"qurg_fmt": version, "interactions": [record]}))
        return path

    def test_boolean_version_rejected(self, tmp_path):
        # ``True == 1`` in Python; JSON true is still not version 1.
        with pytest.raises(FormatVersionError, match="version True"):
            load_interactions(self._one_record(tmp_path, version=True))

    def test_non_string_id_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="id: expected a string"):
            load_interactions(self._one_record(tmp_path, id=["a"]))

    @pytest.mark.parametrize("rewrite", [0, [], False])
    def test_non_string_rewrite_rejected(self, tmp_path, rewrite):
        with pytest.raises(DatasetError, match="rewrite: expected a string"):
            load_interactions(self._one_record(tmp_path, rewrite=rewrite))

    @pytest.mark.parametrize("rewrite", ["", None])
    def test_empty_or_null_rewrite_means_none(self, tmp_path, rewrite):
        (loaded,) = load_interactions(self._one_record(tmp_path, rewrite=rewrite))
        assert loaded.gold_rewrite is None

    def test_roundtrip(self, tmp_path, flights_interaction):
        path = tmp_path / "round.json"
        save_interactions(path, [flights_interaction])
        loaded = load_interactions(path)
        assert loaded[0].question == flights_interaction.question
        assert loaded[0].context_turns == flights_interaction.context_turns
        assert loaded[0].gold_rewrite == flights_interaction.gold_rewrite


class TestSparcAdapter:
    def test_sample_token_counts(self, fixtures_dir):
        loaded = load_interactions(fixtures_dir / "sparc_sample.json")
        # Two turns expand into two interactions with cumulative context.
        assert len(loaded) == 2
        first, second = loaded
        assert first.context_turns == ()
        # "How many arriving flights are there in each of the cities?" = 12 tokens
        assert len(first.question) == 12
        assert second.turn_index == 2
        assert len(second.flat_context()) == 12
        # "Which one has the most?" = 6 tokens
        assert len(second.question) == 6

    def test_json_type_picks_the_format(self, tmp_path):
        assert "convert_sparc_interactions" not in dataset_io.__all__
        path = tmp_path / "input.json"
        path.write_text(json.dumps([{"database_id": "d", "interaction": [{"utterance": "a b"}]}]))
        assert load_interactions(path) == [Interaction((), ("a", "b"), None, "d#0.1")]
        # Any other value is read as the native document, which it is not.
        for payload in ("text", 5, None):
            path.write_text(json.dumps(payload))
            with pytest.raises(FormatVersionError, match="missing qurg_fmt version field$"):
                load_interactions(path)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"database_id": "d"}, "interaction 0: missing required field 'interaction'"),
            ({"database_id": "d", "interactions": [{"utterance": "a"}]},
             "interaction 0: missing required field 'interaction'"),
            ({"database_id": {"k": [1]}, "interaction": [{"utterance": "a"}]},
             "interaction 0: database_id: expected a string, got {'k': [1]}"),
            ({"database_id": 7, "interaction": [{"utterance": "a"}]},
             "interaction 0: database_id: expected a string, got 7"),
        ],
        ids=["no-interaction", "misspelt-interaction", "object-database-id", "number-database-id"],
    )
    def test_dialogue_fields_are_checked(self, tmp_path, entry, message):
        path = tmp_path / "sparc.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_interactions(path)

    def test_missing_database_id_falls_back_to_the_position(self, tmp_path):
        path = tmp_path / "sparc.json"
        path.write_text(json.dumps([{"database_id": "d", "interaction": []},
                                    {"interaction": [{"utterance": "a"}]}]))
        assert [inter.interaction_id for inter in load_interactions(path)] == ["1#1.1"]


class TestRewriteCorpus:
    def test_one_line_file(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(
            '{"history": [], "question": "a b", "rewrite": "a b", "id": "only"}\n'
        )
        examples = load_rewrite_corpus(path)
        assert examples == [Interaction((), ("a", "b"), ("a", "b"), "only")]

    def test_missing_rewrite_names_field(self, fixtures_dir):
        with pytest.raises(DatasetError, match="rewrite"):
            load_rewrite_corpus(fixtures_dir / "corpus_bad_missing_rewrite.jsonl")

    def test_fixture_ids_unique_order_preserved(self, fixtures_dir):
        examples = load_rewrite_corpus(fixtures_dir / "corpus_small.jsonl")
        ids = [ex.interaction_id for ex in examples]
        assert ids == ["e1", "e2", "e3", "e4", "e5"]
        assert len(set(ids)) == len(ids)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"history": [], "question": "a", "rewrite": "a", "id": "x"}\n'
        path.write_text(line + line)
        with pytest.raises(DatasetError, match="duplicate"):
            load_rewrite_corpus(path)

    @pytest.mark.parametrize("example_id", [1, {"k": [1]}, None, True])
    def test_non_string_id_rejected(self, tmp_path, example_id):
        path = tmp_path / "ids.jsonl"
        path.write_text(json.dumps({**corpus_record(), "id": example_id}) + "\n")
        with pytest.raises(DatasetError, match=":1: id: expected a string"):
            load_rewrite_corpus(path)

    def test_numeric_id_is_not_a_duplicate_of_its_string(self, tmp_path):
        # 1 and "1" once both became the id "1"; now the number is refused.
        path = tmp_path / "ids.jsonl"
        path.write_text("".join(
            json.dumps({**corpus_record(), "id": example_id}) + "\n" for example_id in ("1", 1)
        ))
        with pytest.raises(DatasetError, match=":2: id: expected a string, got 1"):
            load_rewrite_corpus(path)

    def test_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        line = json.dumps(corpus_record()) + "\n"
        path.write_bytes(line.encode() + b"\r\n" + "caf\u00e9".encode("latin-1") + b"\n")
        with pytest.raises(DatasetError, match=r":3: not UTF-8 text \(invalid continuation"):
            load_rewrite_corpus(path)

    def test_line_ends_read_as_open_reads_them(self, tmp_path):
        path = tmp_path / "ends.jsonl"
        line = json.dumps(corpus_record())
        path.write_bytes(f"{line}\r\n\r{line}\r".encode())
        with pytest.raises(DatasetError, match=":3: duplicate example id"):
            load_rewrite_corpus(path)

    def test_save_load_roundtrip(self, tmp_path):
        examples = [
            Interaction((("a", "b"),), ("q", "?"), ("q", "a", "?"), "r1"),
            Interaction((), ("x",), ("x",), "r2"),
        ]
        path = tmp_path / "corpus.jsonl"
        save_rewrite_corpus(path, examples)
        assert load_rewrite_corpus(path) == examples

    def test_save_requires_gold_rewrites(self, tmp_path):
        with pytest.raises(ValueError, match="^interaction 'r3' has no gold rewrite$"):
            save_rewrite_corpus(tmp_path / "corpus.jsonl", [Interaction((), ("x",), None, "r3")])

    def test_bad_version_on_line(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text(
            '{"qurg_fmt": 9, "history": [], "question": "a", "rewrite": "a", "id": "x"}\n'
        )
        with pytest.raises(FormatVersionError):
            load_rewrite_corpus(path)

    def test_boolean_version_on_line(self, tmp_path):
        path = tmp_path / "vtrue.jsonl"
        path.write_text(
            '{"qurg_fmt": true, "history": [], "question": "a", "rewrite": "a", "id": "x"}\n'
        )
        with pytest.raises(FormatVersionError, match=":1: unsupported format version True"):
            load_rewrite_corpus(path)

    def test_deeply_nested_line_is_a_dataset_error(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"history": [], "question": "a", "rewrite": "a", "id": "x"}\n'
                        + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(DatasetError, match=":2: JSON nested too deeply"):
            load_rewrite_corpus(path)


class TestMatrixSerialization:
    def test_flights_example_roundtrip(self, tmp_path, flights_interaction):
        matrix = build_from_interaction(flights_interaction)
        path = tmp_path / "m.json"
        save_matrix(path, matrix)
        assert load_matrix(path) == matrix

    def test_byte_identical_reserialization(self, tmp_path, flights_interaction):
        matrix = build_from_interaction(flights_interaction)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(first, matrix)
        save_matrix(second, load_matrix(first))
        assert first.read_bytes() == second.read_bytes()

    def test_all_none_serializes_empty_cells(self, tmp_path):
        path = tmp_path / "none.json"
        save_matrix(path, RewriteEditMatrix(("a",), ("q",), {}))
        assert json.loads(path.read_text())["cells"] == []

    def test_append_cells_roundtrip(self, tmp_path):
        inter = Interaction((("from", "boston"),), ("flights",))
        matrix = build_from_interaction(inter, ("boston", "flights", "from", "boston"))
        assert set(matrix.cells.values()) == {
            RewriteRelation.C_Q_APP, RewriteRelation.Q_C_APP,
            RewriteRelation.C_Q_INS_APP, RewriteRelation.Q_C_INS_APP,
        }
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(first, matrix)
        assert load_matrix(first) == matrix
        save_matrix(second, load_matrix(first))
        assert first.read_bytes() == second.read_bytes()

    def test_shorter_matrix_over_longer_leaves_exactly_its_bytes(
        self, tmp_path, flights_interaction
    ):
        short = RewriteEditMatrix(("a",), ("q",), {})
        path, fresh = tmp_path / "m.json", tmp_path / "fresh.json"
        save_matrix(path, build_from_interaction(flights_interaction))
        save_matrix(path, short)
        save_matrix(fresh, short)
        assert path.read_bytes() == fresh.read_bytes()
        assert load_matrix(path) == short

    def test_unencodable_matrix_leaves_previous_file(self, tmp_path, flights_interaction):
        path = tmp_path / "m.json"
        save_matrix(path, build_from_interaction(flights_interaction))
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError) as failed:
            save_matrix(path, RewriteEditMatrix(("a",), ("q", "\ud800"), {}))
        assert str(failed.value) == (
            "'utf-8' codec can't encode character '\\ud800' in position 61: "
            "surrogates not allowed"
        )
        assert path.read_bytes() == before

    def test_write_cut_at_any_byte_never_loads_as_another_matrix(
        self, tmp_path, monkeypatch
    ):
        old = RewriteEditMatrix(("a", "b"), ("q",), {})
        new = build_from_interaction(Interaction((("from", "boston"),), ("flights",)),
                                     ("flights", "from", "boston"))
        fresh = tmp_path / "fresh.json"
        save_matrix(fresh, new)
        text = fresh.read_bytes()
        real_write = dataset_io.os.write
        path = tmp_path / "m.json"
        for cut in range(len(text)):
            save_matrix(path, old)

            def write_then_fail(fd, data, cut=cut):
                real_write(fd, data[:cut])
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(dataset_io.os, "write", write_then_fail)
            with pytest.raises(OSError):
                save_matrix(path, new)
            monkeypatch.undo()
            # The old matrix's first byte stays until the new one covers it.
            assert path.read_bytes() == text[: max(cut, 1)]
            try:
                loaded = load_matrix(path)
            except DatasetError:
                continue
            # Only the text without its final newline still parses.
            assert (cut, loaded) == (len(text) - 1, new)

    def test_overwrite_keeps_permission_bits(self, tmp_path, flights_interaction):
        path = tmp_path / "m.json"
        path.write_text("old")
        path.chmod(0o640)
        save_matrix(path, build_from_interaction(flights_interaction))
        assert path.stat().st_mode & 0o777 == 0o640
        assert load_matrix(path) == build_from_interaction(flights_interaction)

    def test_device_target_is_written_without_truncating(self, flights_interaction):
        # A device cannot be truncated; /dev/null takes the text and keeps nothing.
        save_matrix("/dev/null", build_from_interaction(flights_interaction))

    @pytest.mark.parametrize(
        "name", ["C_Q_INS", "c-q-ins", "Exact-Table-Match", ["C-Q-Ins"], {"C-Q-Ins": 1}, 3, None]
    )
    def test_relation_outside_the_family_rejected(self, tmp_path, name):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({
            "qurg_fmt": 1, "context_tokens": ["a"], "question_tokens": ["q"],
            "cells": [{"i": 0, "j": 1, "rel": name}],
        }))
        with pytest.raises(DatasetError, match=r"\(0,1\) has unknown relation"):
            load_matrix(path)

    def test_corrupted_relation_names_cell(self, fixtures_dir):
        with pytest.raises(DatasetError, match=r"\(0,2\)"):
            load_matrix(fixtures_dir / "matrix_bad_relation.json")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "qurg_fmt": 99, "context_tokens": [], "question_tokens": ["q"], "cells": [],
        }))
        with pytest.raises(FormatVersionError):
            load_matrix(path)

    def test_out_of_bounds_cell(self, tmp_path):
        path = tmp_path / "oob.json"
        path.write_text(json.dumps({
            "qurg_fmt": 1,
            "context_tokens": ["a"],
            "question_tokens": ["q"],
            "cells": [{"i": 5, "j": 0, "rel": "C-Q-Ins"}],
        }))
        with pytest.raises(DatasetError, match="out of bounds"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "cells, message",
        [
            ([5], "expected an object"),
            (
                [
                    {"i": 0, "j": 1, "rel": "C-Q-Ins"},
                    {"i": 1, "j": 0, "rel": "Q-C-Ins"},
                    {"i": 0, "j": 1, "rel": "C-Q-Sub"},
                ],
                r"\(0,1\) appears more than once",
            ),
            ([{"i": "0", "j": 1, "rel": "C-Q-Ins"}], r"\(0,1\) has indices that are not integers"),
            ([{"i": 0, "j": 1.0, "rel": "C-Q-Ins"}], r"\(0,1.0\) has indices that are not"),
        ],
    )
    def test_malformed_cells_rejected(self, tmp_path, cells, message):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({
            "qurg_fmt": 1, "context_tokens": ["a"], "question_tokens": ["q"], "cells": cells,
        }))
        with pytest.raises(DatasetError, match=message):
            load_matrix(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
    def test_malformed_matrix_fails_to_load(self, tmp_path, case):
        # The loader reports what the constructor refused, after the file name.
        context, question, cells = MALFORMED_MATRICES[case]
        with pytest.raises(MalformedMatrixError) as made:
            RewriteEditMatrix(
                context, question, {(i, j): RewriteRelation(rel) for i, j, rel in cells}
            )
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(malformed_matrix_payload(case)))
        with pytest.raises(DatasetError) as loaded:
            load_matrix(path)
        assert str(loaded.value) == f"{path}: {made.value}"

    @pytest.mark.parametrize("case", sorted(MALFORMED_LINK_MATRICES))
    def test_malformed_link_matrix_fails_to_load(self, tmp_path, case):
        with pytest.raises(MalformedMatrixError) as made:
            SchemaLinkMatrix(("q",), ("c",), LINK_SCHEMA, {
                (i, j): LinkRelation(rel) for i, j, rel in MALFORMED_LINK_MATRICES[case]
            })
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(malformed_link_matrix_payload(case)))
        with pytest.raises(DatasetError) as loaded:
            load_link_matrix(path)
        assert str(loaded.value) == f"{path}: {made.value}"

    def test_bad_token_names_the_file(self, tmp_path):
        path = tmp_path / "token.json"
        path.write_text(json.dumps(
            {"qurg_fmt": 1, "context_tokens": ["a b"], "question_tokens": ["q"], "cells": []}
        ))
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}: token contains"):
            load_matrix(path)


class TestSchemaFiles:
    def test_fixture_counts(self, fixtures_dir):
        schema = load_schema(fixtures_dir / "schema_flights.json")
        assert len(schema.tables) == 2
        assert len(schema.columns) == 5
        assert schema.primary_keys == frozenset({0, 2})
        assert schema.foreign_keys == frozenset({(3, 0)})

    def test_out_of_range_table_rejected(self, fixtures_dir):
        with pytest.raises(SchemaError):
            load_schema(fixtures_dir / "schema_bad_table_index.json")

    def test_bad_name_token_names_the_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"qurg_fmt": 1, "tables": [[""]], "columns": []}))
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: table 0: empty"):
            load_schema(path)

    def test_no_foreign_keys_valid(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "qurg_fmt": 1,
            "tables": [["t"]],
            "columns": [{"name": ["c"], "table": 0, "type": "text"}],
            "primary_keys": [],
            "foreign_keys": [],
        }))
        assert load_schema(path).foreign_keys == frozenset()

    def test_schema_roundtrip(self, tmp_path, toy_schema):
        path = tmp_path / "schema.json"
        save_schema(path, toy_schema)
        assert load_schema(path) == toy_schema


class TestLinkMatrixSerialization:
    def test_roundtrip(self, tmp_path, toy_schema):
        matrix = build_schema_link_matrix(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, toy_schema)
        path = tmp_path / "link.json"
        save_link_matrix(path, matrix)
        loaded = load_link_matrix(path)
        assert loaded == matrix

    def test_foreign_key_to_itself_reloads(self, tmp_path):
        # The diagonal cell holds one relation of the mirrored pair.
        schema = Schema((("t",),), (Column(("c",), 0),), foreign_keys=frozenset({(0, 0)}))
        matrix = build_schema_link_matrix(("c",), (), schema)
        assert matrix.cells[(2, 2)] is LinkRelation.FOREIGN_KEY_BACKWARD
        path = tmp_path / "link.json"
        save_link_matrix(path, matrix)
        assert load_link_matrix(path) == matrix

    def test_vocabulary_header_present(self, tmp_path, toy_schema):
        matrix = build_schema_link_matrix((), (), toy_schema)
        path = tmp_path / "link.json"
        save_link_matrix(path, matrix)
        payload = json.loads(path.read_text())
        assert "Exact-Table-Match" in payload["relations"]

    def test_byte_identical_reserialization(self, tmp_path, toy_schema):
        matrix = build_schema_link_matrix(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, toy_schema)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_link_matrix(first, matrix)
        save_link_matrix(second, load_link_matrix(first))
        assert first.read_bytes() == second.read_bytes()


# Tokens whose text JSON escapes (quotes, backslashes, control characters)
# or keeps as it is (other non-ASCII), and one long token.  U+2028 and
# U+2029 are whitespace to ``str.split``, so no token holds them.
AWKWARD_TOKENS = (
    'say"hi"', "back\\slash", "nul\x00bell\x07esc\x1bdel\x7f", "zero\u200bwidth",
    "bom\ufeff", "Stra\u00dfe", "\u57ce\u5e02", "x" * 1000,
)
# Tables and columns whose structure cells hold every structural relation,
# and a question that matches a name of each family exactly and partially.
EVERY_LINK_SCHEMA = Schema(
    (("city",), ("flight", "route")),
    (Column(("name",), 0), Column(("city", "id"), 0, "number"),
     Column(("route", "id"), 1, "number"), Column(("origin", "city", "id"), 1, "number")),
    frozenset({1, 2}),
    frozenset({(3, 1)}),
)
EVERY_LINK_QUESTION = ("flight", "route", "name", "route", "id", "city")


def _every_rewrite_relation_matrix(context: tuple, question: tuple) -> RewriteEditMatrix:
    """A matrix with one mirrored pair of cells of each rewrite relation,
    the two ``-Ins-App`` ones included."""
    c, last = len(context), len(context) + len(question) - 1
    cells = {}
    for i, j, rel in [(0, c, RewriteRelation.C_Q_SUB), (1, c + 1, RewriteRelation.C_Q_INS),
                      (0, last, RewriteRelation.C_Q_APP), (2, last, RewriteRelation.C_Q_INS_APP)]:
        cells[(i, j)], cells[(j, i)] = rel, rel.mirror
    return RewriteEditMatrix(context, question, cells)


class TestMatrixText:
    """Both matrix savers format each cell directly; their bytes stay those
    of the payload with one dict per cell (``oracles.reference_matrix_text``)."""

    REWRITE = _every_rewrite_relation_matrix(AWKWARD_TOKENS, ("which", *AWKWARD_TOKENS[:3]))
    LINK = build_schema_link_matrix(EVERY_LINK_QUESTION, AWKWARD_TOKENS, EVERY_LINK_SCHEMA)

    def test_every_relation_is_covered(self):
        assert set(self.REWRITE.cells.values()) == set(RewriteRelation)
        assert set(self.LINK.cells.values()) == set(LinkRelation)

    def test_rewrite_matrix_bytes(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, self.REWRITE)
        assert path.read_bytes() == oracles.reference_matrix_text(self.REWRITE).encode("utf-8")
        assert load_matrix(path) == self.REWRITE

    def test_link_matrix_bytes(self, tmp_path):
        path = tmp_path / "link.json"
        save_link_matrix(path, self.LINK)
        assert path.read_bytes() == oracles.reference_matrix_text(self.LINK).encode("utf-8")
        assert load_link_matrix(path) == self.LINK

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)
                    .filter(lambda tok: tok.split() == [tok]), min_size=3, max_size=6))
    def test_any_tokens(self, tokens):
        saves = [
            (save_matrix, _every_rewrite_relation_matrix(tuple(tokens), tuple(tokens))),
            (save_link_matrix,
             build_schema_link_matrix(EVERY_LINK_QUESTION, tokens, EVERY_LINK_SCHEMA)),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            for save, matrix in saves:
                save(path, matrix)
                assert path.read_bytes() == oracles.reference_matrix_text(matrix).encode("utf-8")

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029"])
    def test_line_separators_are_no_token(self, separator):
        with pytest.raises(ValueError, match="whitespace"):
            RewriteEditMatrix((f"a{separator}b",), ("q",), {})

    @pytest.mark.parametrize("case", ["rewrite", "link"])
    def test_lone_surrogate_leaves_previous_file(self, tmp_path, case):
        save, good = (save_matrix, self.REWRITE) if case == "rewrite" else (
            save_link_matrix, self.LINK)
        bad = dataclasses.replace(good, question_tokens=(*good.question_tokens[:-1], "\ud800"))
        path = tmp_path / "saved.json"
        save(path, good)
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            save(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["saved.json"]


class TestLoaderTotality:
    def test_every_good_fixture_parses(self, fixtures_dir):
        load_interactions(fixtures_dir / "interactions_flights.json")
        load_interactions(fixtures_dir / "sparc_sample.json")
        load_rewrite_corpus(fixtures_dir / "corpus_small.jsonl")
        load_schema(fixtures_dir / "schema_flights.json")

    def test_every_bad_fixture_fails_with_documented_class(self, fixtures_dir):
        with pytest.raises(DatasetError):
            load_rewrite_corpus(fixtures_dir / "corpus_bad_missing_rewrite.jsonl")
        with pytest.raises(SchemaError):
            load_schema(fixtures_dir / "schema_bad_table_index.json")
        with pytest.raises(DatasetError):
            load_matrix(fixtures_dir / "matrix_bad_relation.json")

    def test_integer_too_long_is_a_dataset_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text("[" + "9" * 5000 + "]")
        with pytest.raises(DatasetError, match="big.json: unreadable JSON: Exceeds the limit"):
            read_json(path)

    def test_not_utf8_is_a_dataset_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_text('{"a": 1}', encoding="utf-16")
        with pytest.raises(DatasetError, match=r"utf16.json:1: not UTF-8 text"):
            read_json(path)
        with pytest.raises(DatasetError, match=r"utf16.json:1: not UTF-8 text"):
            load_interactions(path)

    def test_deeply_nested_json_is_a_dataset_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DatasetError, match="nested too deeply"):
            read_json(path)


def _rouge_report_payload() -> dict:
    return {
        "qurg_fmt": 1,
        "normalization": "lowercase, no stemming",
        **{key: {"precision": 0.5, "recall": 0.25, "f1": 1 / 3} for key in ("r1", "r2", "rl")},
        "pairs": 2,
    }


# Each loader with a valid payload for it to start from.  A rewrite corpus
# is JSON lines; the one-line text of a JSON value is such a file.
_FUZZED_LOADERS = {
    "schema": (load_schema, json.loads((FIXTURES / "schema_flights.json").read_text())),
    "link-matrix": (load_link_matrix, flights_link_matrix_payload()),
    "native": (
        load_interactions, json.loads((FIXTURES / "interactions_flights.json").read_text())
    ),
    "sparc": (
        load_interactions,
        json.loads((FIXTURES / "sparc_sample.json").read_text()),
    ),
    "matrix": (load_matrix, flights_matrix_payload()),
    "corpus": (load_rewrite_corpus, corpus_record()),
    "rouge-report": (load_rouge_report, _rouge_report_payload()),
}


class TestLoaderFuzz:
    """Any JSON value in an input file either loads or fails with
    ``DatasetError`` (``FormatVersionError`` among them), ``SchemaError`` or
    ``ValueError``, never with another exception."""

    def test_bases_load(self, tmp_path):
        for name, (loader, base) in _FUZZED_LOADERS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(base))
            loader(path)

    @pytest.mark.parametrize("name", sorted(_FUZZED_LOADERS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_json_loads_or_fails_cleanly(self, tmp_path_factory, name, data):
        loader, base = _FUZZED_LOADERS[name]
        path = tmp_path_factory.mktemp("fuzz") / "input.json"
        path.write_text(json.dumps(data.draw(json_strategies.json_files(base))))
        try:
            loader(path)
        except (DatasetError, SchemaError, ValueError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(payload=json_strategies.near_valid(_FUZZED_LOADERS["sparc"][1]))
    def test_sparc_file_that_loads_has_every_dialogue_field(self, tmp_path_factory, payload):
        # A dialogue is never skipped for a missing key, and its id is its
        # string database_id or, when that key is absent, its position.
        path = tmp_path_factory.mktemp("fuzz") / "input.json"
        path.write_text(json.dumps(payload))
        try:
            loaded = load_interactions(path)
        except (DatasetError, ValueError):
            return
        expected = [
            f"{entry.get('database_id', pos)}#{pos}.{t}"
            for pos, entry in enumerate(payload)
            for t in range(1, len(entry["interaction"]) + 1)
        ]
        assert all(isinstance(entry.get("database_id", ""), str) for entry in payload)
        assert [inter.interaction_id for inter in loaded] == expected


class TestAtomicWrite:
    def test_failed_write_leaves_previous_file_and_no_temp(self, tmp_path):
        path = tmp_path / "report.json"
        save_rouge_report(path, corpus_rouge([]))
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            write_json(path, {"text": "x" * 10_000 + "\ud800"})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        write_json(link, {"a": 1})
        assert link.is_symlink()
        assert read_json(target) == {"a": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_replacement_keeps_permission_bits(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text("old")
        path.chmod(0o640)
        write_json(path, {"a": 1})
        assert read_json(path) == {"a": 1}
        assert path.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["matrix.json"]


def _with_rewrite(inter: Interaction, rewrite) -> Interaction:
    return Interaction(inter.context_turns, inter.question, rewrite, "other")


# (saver, a value it writes, a value whose write fails, the error).  A lone
# surrogate is a valid token that UTF-8 cannot encode, so its write fails
# after part of the text could have been written.  The failing interactions
# come second, after one that a save in place would already have written.
FAILING_SAVES = {
    "interactions": (
        save_interactions,
        lambda fx: [fx, _with_rewrite(fx, ("which", "city"))],
        lambda fx: [fx, _with_rewrite(fx, ("which", "\ud800"))],
        UnicodeEncodeError,
    ),
    "schema": (
        save_schema,
        lambda fx: LINK_SCHEMA,
        lambda fx: Schema(LINK_SCHEMA.tables + (("\ud800",),), LINK_SCHEMA.columns),
        UnicodeEncodeError,
    ),
    "corpus-surrogate": (
        save_rewrite_corpus,
        lambda fx: [fx, _with_rewrite(fx, ("which", "city"))],
        lambda fx: [fx, _with_rewrite(fx, ("which", "\ud800"))],
        UnicodeEncodeError,
    ),
    "corpus-no-rewrite": (
        save_rewrite_corpus,
        lambda fx: [fx, _with_rewrite(fx, ("which", "city"))],
        lambda fx: [fx, _with_rewrite(fx, None)],
        ValueError,
    ),
    # Tokens that the loader would read back as others: "city?" as "city", "?".
    "interactions-lossy": (
        save_interactions,
        lambda fx: [fx, _with_rewrite(fx, ("which", "city"))],
        lambda fx: [fx, _with_rewrite(fx, ("which", "city?"))],
        ValueError,
    ),
    "corpus-lossy": (
        save_rewrite_corpus,
        lambda fx: [fx, _with_rewrite(fx, ("which", "city"))],
        lambda fx: [fx, Interaction((("how", "many?"),), fx.question, fx.gold_rewrite, "x")],
        ValueError,
    ),
}


class TestFailedSaveKeepsPreviousFile:
    """Every library saver replaces its file whole: a save that fails leaves
    the previous bytes and no temporary file."""

    @pytest.mark.parametrize("case", sorted(FAILING_SAVES))
    def test_failed_save(self, tmp_path, flights_interaction, case):
        save, good, bad, error = FAILING_SAVES[case]
        path = tmp_path / "saved.json"
        save(path, good(flights_interaction))
        before = path.read_bytes()
        with pytest.raises(error):
            save(path, bad(flights_interaction))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["saved.json"]

    @pytest.mark.parametrize("case", sorted(FAILING_SAVES))
    def test_failed_save_through_a_link_keeps_its_target(self, tmp_path, flights_interaction,
                                                         case):
        save, good, bad, error = FAILING_SAVES[case]
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target)
        save(link, good(flights_interaction))
        before = target.read_bytes()
        with pytest.raises(error):
            save(link, bad(flights_interaction))
        assert target.read_bytes() == before
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_empty_save_through_a_link_empties_its_target(self, tmp_path, flights_interaction):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        save_rewrite_corpus(target, [flights_interaction])
        link.symlink_to(target)
        save_rewrite_corpus(link, [])
        assert target.read_bytes() == b""
        assert load_rewrite_corpus(link) == []

    @pytest.mark.parametrize("save", [save_interactions, save_rewrite_corpus])
    def test_lossy_save_names_the_interaction(self, tmp_path, save):
        inter = Interaction((("how", "many?"),), ("city?",), ("city?",), "x")
        with pytest.raises(ValueError, match="^interaction 'x': "):
            save(tmp_path / "saved.json", [inter])


class TestChunkedReplace:
    """``_replace`` writes a text given in chunks through a temporary file
    beside the target, or beside a symbolic link's target."""

    def test_longest_name_the_file_system_takes(self, tmp_path):
        path = tmp_path / ("a" * 250 + ".json")
        assert len(path.name.encode()) == 255
        write_json(path, {"a": 1})
        write_json(path, {"a": 2})
        assert read_json(path) == {"a": 2}
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("through_link", [False, True], ids=["file", "link"])
    def test_source_failing_after_its_first_chunk_keeps_the_old_bytes(
        self, tmp_path, through_link
    ):
        # The link and its target are in different directories, so the
        # temporary file must be beside the target to be seen there.
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "target.json"
        target.write_text('{"old":1}\n')
        path = target
        if through_link:
            path = tmp_path / "link.json"
            path.symlink_to(target)
        seen = []

        def chunks():
            yield "[" + "1," * 50_000  # more than the file's buffer holds
            seen.append(sorted(p.name for p in target.parent.iterdir()))
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            dataset_io._replace(path, chunks())
        assert len(seen[0]) == 2 and seen[0][1] == "target.json"
        assert target.read_text() == '{"old":1}\n'
        assert [p.name for p in target.parent.iterdir()] == ["target.json"]
        assert path.is_symlink() == through_link
        dataset_io._replace(path, ["[", "1", "]\n"])
        assert read_json(target) == [1] and path.is_symlink() == through_link
        assert [p.name for p in target.parent.iterdir()] == ["target.json"]


def _file_writers(module: Path) -> set[str]:
    """The functions of ``module`` that open a file for writing: ``open``
    (built-in, ``os`` or a path's) with a mode other than reading, or a
    path's ``write_text``/``write_bytes``."""
    writers = set()
    tree = ast.parse(module.read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name in ("write_text", "write_bytes"):
                writers.add(func.name)
            elif name == "open":
                # ``open(path, mode)``, ``path.open(mode)``; any ``os.open`` counts.
                owner = getattr(call.func, "value", None)
                if isinstance(owner, ast.Name) and owner.id == "os":
                    writers.add(func.name)
                    continue
                position = 1 if isinstance(call.func, ast.Name) else 0
                modes = call.args[position:position + 1]
                modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
                mode = modes[0] if modes else ast.Constant("r")
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                    writers.add(func.name)
    return writers


def test_only_the_replacing_and_the_in_place_writer_write_files():
    package = Path(dataset_io.__file__).parent
    writers = {(path.stem, name) for path in sorted(package.glob("*.py"))
               for name in _file_writers(path)}
    assert writers == {("dataset_io", "_replace"), ("dataset_io", "_write_in_place")}


class TestReportSerialization:
    def test_roundtrip(self, tmp_path):
        report = corpus_rouge([(("a", "b"), ("a", "c")), (("x",), ("x",))])
        path = tmp_path / "report.json"
        save_rouge_report(path, report)
        assert load_rouge_report(path) == report

    @pytest.mark.parametrize(
        "change",
        [
            {"r1": [1]},
            {"r2": "x"},
            {"rl": {"precision": 1.0, "recall": 1.0}},
            {"r1": {"precision": True, "recall": 1.0, "f1": 1.0}},
            {"r2": {"precision": "1", "recall": 1.0, "f1": 1.0}},
            {"rl": {"precision": 1.0, "recall": None, "f1": 1.0}},
            {"pairs": -1},
            {"pairs": 1.5},
            {"pairs": True},
            {"pairs": "3"},
        ],
        ids=repr,
    )
    def test_malformed_report_rejected(self, tmp_path, change):
        path = tmp_path / "report.json"
        save_rouge_report(path, corpus_rouge([(("a", "b"), ("a", "c"))]))
        payload = json.loads(path.read_text())
        payload.update(change)
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError):
            load_rouge_report(path)

    @pytest.mark.parametrize(
        "value",
        [-0.5, 1.5, float("nan"), float("inf"), 10**400],
        ids=["negative", "above-one", "nan", "inf", "too-large-for-a-float"],
    )
    def test_score_out_of_range_rejected(self, tmp_path, value):
        path = tmp_path / "report.json"
        save_rouge_report(path, corpus_rouge([(("a", "b"), ("a", "c"))]))
        payload = json.loads(path.read_text())
        payload["r2"]["recall"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match=r"r2: recall must be in \[0, 1\]"):
            load_rouge_report(path)

    def test_score_bounds_accepted(self, tmp_path):
        path = tmp_path / "report.json"
        save_rouge_report(path, corpus_rouge([(("a",), ("a",)), (("b",), ("c",))]))
        payload = json.loads(path.read_text())
        payload["r1"] = {"precision": 0, "recall": 1, "f1": 0.0}
        path.write_text(json.dumps(payload))
        assert load_rouge_report(path).r1 == RougeScore(0.0, 1.0, 0.0)

    def test_missing_report_field_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        save_rouge_report(path, corpus_rouge([]))
        for key in ("r1", "pairs"):
            payload = json.loads(path.read_text())
            del payload[key]
            path.write_text(json.dumps(payload))
            with pytest.raises(DatasetError, match=key):
                load_rouge_report(path)

    def test_integer_scores_load(self, tmp_path):
        path = tmp_path / "report.json"
        save_rouge_report(path, corpus_rouge([(("a",), ("a",))]))
        payload = json.loads(path.read_text())
        payload["r1"] = {"precision": 1, "recall": 1, "f1": 1}
        path.write_text(json.dumps(payload))
        assert load_rouge_report(path).r1.f1 == 1.0

    def test_header_documents_normalization(self, tmp_path):
        path = tmp_path / "report.json"
        save_rouge_report(path, corpus_rouge([]))
        payload = json.loads(path.read_text())
        assert payload["normalization"] == "lowercase, no stemming"
        assert payload["pairs"] == 0
