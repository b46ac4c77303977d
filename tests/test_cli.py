from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import json_strategies
from conftest import (
    FIXTURES,
    MALFORMED_LINK_MATRICES,
    MALFORMED_MATRICES,
    corpus_record,
    flights_link_matrix_payload,
    flights_matrix_payload,
    malformed_link_matrix_payload,
    malformed_matrix_payload,
)
from qurg import schema_link
from qurg.cli import main
from qurg.dataset_io import (
    load_link_matrix,
    load_matrix,
    load_rewrite_corpus,
    load_rouge_report,
    save_rewrite_corpus,
)
from qurg.schema_link import link_stats


def run(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


FLIGHTS_ARGS = [
    "build-matrix",
    "which one has the most ?",
    "--context", "how many arriving flights are there in each of the cities ?",
    "--rewrite", "which city has the most arriving flights ?",
]


class TestBuildMatrix:
    def test_flights_example_single(self, tmp_path, capsys):
        out = tmp_path / "flights.json"
        assert run(FLIGHTS_ARGS + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 6

    def test_unencodable_matrix_leaves_previous_file(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(FLIGHTS_ARGS + ["--out", str(out)]) == 0
        before = out.read_bytes()
        capsys.readouterr()
        assert run(["build-matrix", "a \ud800", "--rewrite", "a \ud800", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't encode character '\\ud800' in position 58: "
            "surrogates not allowed\n"
        )
        assert out.read_bytes() == before

    def test_unencodable_corpus_example_leaves_previous_file(self, tmp_path, capsys):
        corpus, out_dir = tmp_path / "corpus.jsonl", tmp_path / "out"
        argv = ["build-matrix", "--corpus", str(corpus), "--out-dir", str(out_dir)]

        def write_corpus(token: str) -> None:
            corpus.write_text(json.dumps(
                {"history": [], "question": f"a {token}", "rewrite": f"a {token}", "id": "e1"}
            ) + "\n")

        write_corpus("b")
        assert run(argv) == 0
        before = (out_dir / "e1.matrix.json").read_bytes()
        capsys.readouterr()
        write_corpus("\ud800")
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: example e1: 'utf-8' codec can't encode character '\\ud800' in position 58: "
            "surrogates not allowed\n"
        )
        assert (out_dir / "e1.matrix.json").read_bytes() == before

    def test_out_to_standard_output(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "flights.json"
        assert run(FLIGHTS_ARGS + ["--out", str(out)]) == 0
        # Standard output is a pipe here, which cannot be truncated.
        proc = subprocess.run(
            [sys.executable, "-m", "qurg.cli", *FLIGHTS_ARGS, "--out", "/dev/stdout"],
            capture_output=True,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.read_bytes() + b"wrote matrix with 6 cells -> /dev/stdout\n"

    def test_identity_rewrite_empty_cells(self, tmp_path):
        out = tmp_path / "id.json"
        code = run([
            "build-matrix", "show all flights .",
            "--rewrite", "show all flights .",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["cells"] == []

    def test_missing_rewrite_is_usage_error(self, tmp_path, capsys):
        code = run(["build-matrix", "a question", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_missing_question_and_corpus(self, tmp_path):
        assert run(["build-matrix", "--out", str(tmp_path / "x.json")]) == 2

    def test_corpus_mode(self, tmp_path, fixtures_dir):
        out_dir = tmp_path / "matrices"
        code = run([
            "build-matrix",
            "--corpus", str(fixtures_dir / "corpus_small.jsonl"),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        index = json.loads((out_dir / "index.json").read_text())
        assert [entry["id"] for entry in index["examples"]] == [
            "e1", "e2", "e3", "e4", "e5",
        ]
        e1 = load_matrix(out_dir / "e1.matrix.json")
        assert len(e1.cells) == 6

    def test_corpus_id_must_be_plain_file_name(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"history": [], "question": "a b", "rewrite": "a b", "id": i}) + "\n"
            for i in ("../../escape", "ok")
        ))
        out_dir = tmp_path / "d1" / "d2" / "out"
        code = run(["build-matrix", "--corpus", str(corpus), "--out-dir", str(out_dir)])
        assert code == 1
        assert "error: example ../../escape:" in capsys.readouterr().err
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json"))
        assert written == ["d1/d2/out/index.json", "d1/d2/out/ok.matrix.json"]

    def test_failing_id_that_does_not_print_stays_on_one_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"history": [], "question": "a b", "rewrite": "a b", "id": "x/\ny"}) + "\n"
        )
        code = run(["build-matrix", "--corpus", str(corpus), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: example 'x/\\ny': id 'x/\\ny' is not a plain file name\n"
        )

    def test_corpus_parallel_identical(self, tmp_path, fixtures_dir):
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        corpus = str(fixtures_dir / "corpus_small.jsonl")
        assert run(["build-matrix", "--corpus", corpus, "--out-dir", str(seq_dir)]) == 0
        assert run(["build-matrix", "--corpus", corpus, "--out-dir", str(par_dir),
                    "--jobs", "4"]) == 0
        for path in sorted(seq_dir.iterdir()):
            assert path.read_bytes() == (par_dir / path.name).read_bytes()


class TestRestore:
    def test_flights_example_text(self, tmp_path, capsys):
        matrix_path = tmp_path / "flights.json"
        run(FLIGHTS_ARGS + ["--out", str(matrix_path)])
        capsys.readouterr()
        assert run(["restore", "--matrix", str(matrix_path)]) == 0
        out = capsys.readouterr().out
        assert "which cities has the most arriving flights ?" in out

    def test_all_none_restores_question(self, tmp_path, capsys):
        matrix_path = tmp_path / "id.json"
        run([
            "build-matrix", "show all flights .",
            "--rewrite", "show all flights .",
            "--out", str(matrix_path),
        ])
        capsys.readouterr()
        out_path = tmp_path / "restored.json"
        assert run(["restore", "--matrix", str(matrix_path), "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["tokens"] == ["show", "all", "flights", "."]

    def test_appended_phrase_comes_back_last(self, tmp_path, capsys):
        matrix_path = tmp_path / "append.json"
        assert run([
            "build-matrix", "show the flights",
            "--context", "from boston",
            "--rewrite", "show the flights from boston",
            "--out", str(matrix_path),
        ]) == 0
        assert {cell["rel"] for cell in json.loads(matrix_path.read_text())["cells"]} == {
            "C-Q-App", "Q-C-App",
        }
        capsys.readouterr()
        assert run(["restore", "--matrix", str(matrix_path)]) == 0
        assert capsys.readouterr().out == "show the flights from boston\n"

    def test_malformed_matrix_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "qurg_fmt": 1,
            "context_tokens": ["a"],
            "question_tokens": ["q"],
            "cells": [{"i": 0, "j": 1, "rel": "C-Q-Sub"}],  # mirror missing
        }))
        assert run(["restore", "--matrix", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestOutToRedirectedStandardOutput:
    """``--out /dev/stdout`` with standard output redirected to a regular
    file: the file holds the JSON text, then the summary line."""

    @staticmethod
    def _run_redirected(tmp_path: Path, argv: list[str]) -> bytes:
        import subprocess
        import sys

        target = tmp_path / "stdout.txt"
        with target.open("wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "qurg.cli", *argv, "--out", "/dev/stdout"],
                stdout=stdout, stderr=subprocess.PIPE,
            )
        assert (proc.returncode, proc.stderr) == (0, b"")
        return target.read_bytes()

    def test_build_matrix(self, tmp_path):
        out = tmp_path / "flights.json"
        assert run(FLIGHTS_ARGS + ["--out", str(out)]) == 0
        text = self._run_redirected(tmp_path, FLIGHTS_ARGS)
        assert text == out.read_bytes() + b"wrote matrix with 6 cells -> /dev/stdout\n"
        json_part = tmp_path / "json_part.json"
        json_part.write_bytes(text.split(b"\n")[0])
        assert load_matrix(json_part) == load_matrix(out)

    def test_restore(self, tmp_path, capsys):
        matrix_path = tmp_path / "flights.json"
        assert run(FLIGHTS_ARGS + ["--out", str(matrix_path)]) == 0
        capsys.readouterr()
        text = self._run_redirected(tmp_path, ["restore", "--matrix", str(matrix_path)])
        json_part, summary, end = text.decode("utf-8").split("\n")
        restored = "which cities has the most arriving flights ?"
        assert json.loads(json_part) == {"qurg_fmt": 1, "tokens": restored.split()}
        assert (summary, end) == (restored, "")

    def test_encode_with_traces_and_parameters(self, tmp_path, capsys):
        # The dump is written in chunks; /dev/stdout resolves to the
        # redirected file, which must still be written at its offset.
        matrix_path, out = tmp_path / "flights.matrix.json", tmp_path / "states.json"
        assert run(FLIGHTS_ARGS + ["--out", str(matrix_path)]) == 0
        capsys.readouterr()
        argv = ["encode", "--interactions", str(FIXTURES / "interactions_flights.json"),
                "--schema", str(FIXTURES / "schema_flights.json"), "--matrix", str(matrix_path),
                "--traces", "--save-params"]
        assert run(argv + [str(tmp_path / "p1.json"), "--out", str(out)]) == 0
        summary = capsys.readouterr().out.replace(str(out), "/dev/stdout").encode()
        text = self._run_redirected(tmp_path, argv + [str(tmp_path / "p2.json")])
        assert text == out.read_bytes() + summary
        assert (tmp_path / "p1.json").read_bytes() == (tmp_path / "p2.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "flights.matrix.json", "p1.json", "p2.json", "states.json", "stdout.txt",
        ]


class TestRoundtrip:
    def test_splice_corpus_scores_one(self, tmp_path):
        rng = random.Random(77)
        examples = [generators.make_splice_example(rng, idx).interaction() for idx in range(40)]
        corpus = tmp_path / "corpus.jsonl"
        save_rewrite_corpus(corpus, examples)
        report_path = tmp_path / "report.json"
        assert run(["roundtrip", "--corpus", str(corpus), "--report", str(report_path)]) == 0
        report = load_rouge_report(report_path)
        assert report.pair_count == 40
        for score in (report.r1, report.r2, report.rl):
            assert score.f1 == 1.0
            assert score.precision == 1.0
            assert score.recall == 1.0

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        report_path = tmp_path / "report.json"
        assert run(["roundtrip", "--corpus", str(corpus), "--report", str(report_path)]) == 0
        report = load_rouge_report(report_path)
        assert report.pair_count == 0 and report.r1.f1 == 0.0

    def test_jobs_do_not_change_report(self, tmp_path, fixtures_dir):
        corpus = str(fixtures_dir / "corpus_small.jsonl")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["roundtrip", "--corpus", corpus, "--report", str(a)]) == 0
        assert run(["roundtrip", "--corpus", corpus, "--report", str(b), "--jobs", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCorpusFailures:
    """Both corpus commands run every example, write only the successes and
    then list the failures on stderr in id order, whatever ``--jobs`` says."""

    # Listed in reverse id order: "z9" and "a0" fail in grounding (a stand-in
    # for an edit conflict), and "q/bad" cannot name a matrix file.
    LINES = [
        ("z9", "which CONFLICT one", "which city one"),
        ("q/bad", "which one", "which boston one"),
        ("m5", "and denver ?", "how many flights arrive in denver ?"),
        ("c1", "what about atlanta ?", "how many flights arrive in atlanta ?"),
        ("a0", "CONFLICT again", "flights again"),
    ]
    CONFLICT = "cell (0,1) assigned both C-Q-Sub and C-Q-Ins"

    @pytest.fixture
    def corpus(self, tmp_path, monkeypatch):
        import qurg.cli
        from qurg.rewrite_diff import EditConflictError

        real = qurg.cli.build_from_interaction

        def build(interaction, *args):
            if "CONFLICT" in interaction.question:
                raise EditConflictError(self.CONFLICT)
            return real(interaction, *args)

        monkeypatch.setattr(qurg.cli, "build_from_interaction", build)
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(
            json.dumps({"history": ["how many flights arrive in boston"],
                        "question": question, "rewrite": rewrite, "id": example_id}) + "\n"
            for example_id, question, rewrite in self.LINES
        ))
        return path

    def run_both(self, argv, out, capsys):
        """Exit code, stdout, stderr and every output file's bytes, for
        ``--jobs 1`` and ``--jobs 4`` into the same paths."""
        import shutil

        results = []
        for jobs in ("1", "4"):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            code = run(argv + ["--jobs", jobs])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            results.append((code, captured.out, captured.err, files))
        assert results[0] == results[1]
        return results[0]

    def test_build_matrix(self, tmp_path, corpus, capsys):
        out = tmp_path / "out"
        code, stdout, stderr, files = self.run_both(
            ["build-matrix", "--corpus", str(corpus), "--out-dir", str(out)], out, capsys
        )
        assert code == 1
        assert stderr.splitlines() == [
            f"error: example a0: {self.CONFLICT}",
            "error: example q/bad: id 'q/bad' is not a plain file name",
            f"error: example z9: {self.CONFLICT}",
        ]
        assert stdout == f"built 2/5 matrices -> {out}\n"
        index = json.loads(files["index.json"])
        assert [entry["id"] for entry in index["examples"]] == ["c1", "m5"]
        assert sorted(files) == ["c1.matrix.json", "index.json", "m5.matrix.json"]

    def test_roundtrip(self, tmp_path, corpus, capsys):
        out = tmp_path / "out"
        report = out / "report.json"
        code, stdout, stderr, _ = self.run_both(
            ["roundtrip", "--corpus", str(corpus), "--report", str(report)], out, capsys
        )
        assert code == 1
        assert stderr.splitlines() == [
            f"error: example a0: {self.CONFLICT}",
            f"error: example z9: {self.CONFLICT}",
        ]
        assert stdout.startswith("roundtrip over 3 examples: ")
        assert load_rouge_report(report).pair_count == 3


class TestSummaryFileCommit:
    """``index.json`` and the ``roundtrip`` report are written last and
    atomically: a write that fails midway leaves the previous file, or
    none, and no temporary file."""

    @pytest.fixture
    def failing_summary(self, monkeypatch):
        import qurg.dataset_io

        real = qurg.dataset_io.dump_canonical

        def dump(payload):
            text = real(payload)
            if "examples" in payload or "normalization" in payload:
                # Half the text encodes, then a lone surrogate fails the write.
                return text[: len(text) // 2] + "\ud800" + text[len(text) // 2 :]
            return text

        monkeypatch.setattr(qurg.dataset_io, "dump_canonical", dump)

    def test_build_matrix_index(self, tmp_path, fixtures_dir, capsys, failing_summary):
        out = tmp_path / "out"
        argv = ["build-matrix", "--corpus", str(fixtures_dir / "corpus_small.jsonl"),
                "--out-dir", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        names = sorted(p.name for p in out.iterdir())
        assert "index.json" not in names and names
        assert all(name.endswith(".matrix.json") for name in names)
        # The run rewrites every matrix, so an earlier index must not stay.
        (out / "index.json").write_text("previous")
        assert run(argv) == 1
        assert sorted(p.name for p in out.iterdir()) == names

    def test_interrupted_run_leaves_no_index(self, tmp_path, fixtures_dir, monkeypatch):
        import qurg.dataset_io

        out = tmp_path / "out"
        argv = ["build-matrix", "--corpus", str(fixtures_dir / "corpus_small.jsonl"),
                "--out-dir", str(out)]
        assert run(argv) == 0
        assert (out / "index.json").exists()
        real, saved = qurg.dataset_io.save_matrix, []

        def save_then_stop(path, matrix):
            if len(saved) == 2:
                raise KeyboardInterrupt
            real(path, matrix)
            saved.append(path)

        monkeypatch.setattr(qurg.dataset_io, "save_matrix", save_then_stop)
        with pytest.raises(KeyboardInterrupt):
            run([*argv, "--no-plural-stem"])
        assert len(saved) == 2
        assert not (out / "index.json").exists()

    def test_roundtrip_report(self, tmp_path, fixtures_dir, capsys, failing_summary):
        report = tmp_path / "report.json"
        argv = ["roundtrip", "--corpus", str(fixtures_dir / "corpus_small.jsonl"),
                "--report", str(report)]
        assert run(argv) == 1
        assert list(tmp_path.iterdir()) == []
        report.write_text("previous")
        assert run(argv) == 1
        assert report.read_text() == "previous"
        assert list(tmp_path.iterdir()) == [report]


class TestRouge:
    def test_fixture_pair(self, tmp_path, fixtures_dir, capsys):
        out = tmp_path / "rouge.json"
        code = run([
            "rouge",
            "--cand", str(fixtures_dir / "cand.txt"),
            "--ref", str(fixtures_dir / "ref.txt"),
            "--out", str(out),
        ])
        assert code == 0
        report = load_rouge_report(out)
        assert report.pair_count == 2
        # pair 1 covers 7/8 reference unigrams, pair 2 covers 4/6
        assert report.r1.recall == pytest.approx((7 / 8 + 4 / 6) / 2)

    @pytest.mark.parametrize("separator", ["\x85", "\x1c", "\u2028", "\u2029"])
    def test_lines_end_at_newlines_only(self, tmp_path, capsys, separator):
        cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
        cand.write_text(f"show the{separator}flights\nall cities", encoding="utf-8")
        ref.write_text("show the flights\r\nall cities\n")
        assert run(["rouge", "--cand", str(cand), "--ref", str(ref)]) == 0
        assert capsys.readouterr().out == "2 pairs: R1 100.0 / R2 100.0 / RL 100.0\n"

    def test_line_count_mismatch(self, tmp_path, fixtures_dir, capsys):
        short = tmp_path / "short.txt"
        short.write_text("only one line\n")
        code = run([
            "rouge", "--cand", str(short), "--ref", str(fixtures_dir / "ref.txt"),
        ])
        assert code == 1
        assert "lines" in capsys.readouterr().err


class TestSchemaLink:
    def test_flights_example(self, tmp_path, fixtures_dir):
        out = tmp_path / "link.json"
        code = run([
            "schema-link",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 36

    @pytest.mark.parametrize("flags", [[], ["--no-lowercase"], ["--no-plural-stem"]])
    @pytest.mark.parametrize("interactions", [
        ["--interactions", str(FIXTURES / "interactions_flights.json")],
        ["--interactions", str(FIXTURES / "sparc_sample.json")],
    ])
    def test_output_reloads(self, tmp_path, interactions, flags, capsys):
        out = tmp_path / "link.json"
        assert run(["schema-link", *interactions, "--schema",
                    str(FIXTURES / "schema_flights.json"), "--out", str(out), *flags]) == 0
        # The summary counts cells as the sum of the per-relation counts did.
        cells = sum(link_stats(load_link_matrix(out)).values())
        assert capsys.readouterr().out == f"wrote linking matrix with {cells} cells -> {out}\n"
        assert run(["stats", "--link-matrix", str(out)]) == 0

    def test_bad_index(self, tmp_path, fixtures_dir, capsys):
        code = run([
            "schema-link",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--index", "5",
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1


def _encode_argv(role: str) -> Callable[[str, Path], list[str]]:
    """The arguments of ``encode`` on the flights example under
    ``TINY_CONFIG``, with ``path`` as its ``role`` input file."""

    def argv(path: str, work: Path) -> list[str]:
        (work / "matrix.json").write_text(json.dumps(flights_matrix_payload()))
        (work / "config.json").write_text(json.dumps(TINY_CONFIG))
        inputs = {
            "--interactions": str(FIXTURES / "interactions_flights.json"),
            "--schema": str(FIXTURES / "schema_flights.json"),
            "--matrix": str(work / "matrix.json"),
            role: path,
        }
        return ["encode", *(arg for item in inputs.items() for arg in item),
                "--config", str(work / "config.json"), "--out", str(work / "states.json")]

    return argv


class TestMalformedInputs:
    """A malformed input file ends in one ``error:`` line and exit code 1."""

    def _assert_clean_failure(self, argv, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert "Traceback" not in captured.err + captured.out
        return lines[0]

    def test_truncated_matrix_file(self, tmp_path, capsys):
        matrix = tmp_path / "flights.json"
        assert run(FLIGHTS_ARGS + ["--out", str(matrix)]) == 0
        data = matrix.read_bytes()
        for cut in (1, len(data) // 3, len(data) // 2, len(data) - 2):
            matrix.write_bytes(data[:cut])
            capsys.readouterr()
            assert run(["restore", "--matrix", str(matrix)]) == 1, cut
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (cut, captured.err)
            assert "Traceback" not in captured.err + captured.out, cut

    @pytest.mark.parametrize(
        ("rel", "mirror"), [("C-Q-App", "Q-C-App"), ("C-Q-Ins-App", "Q-C-Ins-App")]
    )
    def test_append_outside_last_column(self, tmp_path, capsys, rel, mirror):
        matrix = tmp_path / "append.json"
        matrix.write_text(json.dumps({
            "qurg_fmt": 1,
            "context_tokens": ["a"],
            "question_tokens": ["q", "r"],
            "cells": [{"i": 0, "j": 1, "rel": rel}, {"i": 1, "j": 0, "rel": mirror}],
        }))
        self._assert_clean_failure(["restore", "--matrix", str(matrix)], capsys)

    def test_summary_standard_output_cannot_encode(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(
            '{"qurg_fmt":1,"context_tokens":[],"question_tokens":["a\\ud800"],"cells":[]}'
        )
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            self._assert_clean_failure(["restore", "--matrix", str(matrix)], capsys)

    def test_schema_table_index_not_integer(self, tmp_path, fixtures_dir, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({
            "qurg_fmt": 1,
            "tables": [["city"]],
            "columns": [{"name": ["city", "id"], "table": "0"}],
        }))
        self._assert_clean_failure([
            "schema-link",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(schema),
            "--out", str(tmp_path / "x.json"),
        ], capsys)

    def test_corpus_history_of_token_lists(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "history": [["show", "cities"]], "question": "a", "rewrite": "a", "id": "x",
        }) + "\n")
        self._assert_clean_failure(
            ["roundtrip", "--corpus", str(corpus), "--report", str(tmp_path / "r.json")],
            capsys,
        )

    def test_corpus_line_nested_too_deeply(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        self._assert_clean_failure(
            ["roundtrip", "--corpus", str(corpus), "--report", str(tmp_path / "r.json")],
            capsys,
        )

    # Each reader of an input file, with the arguments that make it read ``path``.
    READERS = {
        "matrix": lambda path, tmp: ["restore", "--matrix", path],
        "corpus": lambda path, tmp: [
            "roundtrip", "--corpus", path, "--report", str(tmp / "r.json")
        ],
        "interactions": lambda path, tmp: [
            "schema-link", "--interactions", path,
            "--schema", str(FIXTURES / "schema_flights.json"), "--out", str(tmp / "x.json"),
        ],
        "config": lambda path, tmp: [
            "encode", "--interactions", str(FIXTURES / "interactions_flights.json"),
            "--schema", str(FIXTURES / "schema_flights.json"), "--config", path,
        ],
        "utterances": lambda path, tmp: ["rouge", "--cand", path, "--ref", path],
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_file_not_utf8_names_the_file_and_line(self, tmp_path, capsys, reader):
        path = tmp_path / "input"
        path.write_bytes(b"{\n\xff\xfe}\n")
        line = self._assert_clean_failure(self.READERS[reader](str(path), tmp_path), capsys)
        assert line.startswith(f"error: {path}:2: not UTF-8 text"), line

    @pytest.mark.parametrize("reader", ["matrix", "corpus", "interactions", "config"])
    def test_json_integer_too_long_names_the_file(self, tmp_path, capsys, reader):
        path = tmp_path / "input"
        path.write_text('{"qurg_fmt": 1, "big": ' + "9" * 5000 + "}\n")
        line = self._assert_clean_failure(self.READERS[reader](str(path), tmp_path), capsys)
        assert line.startswith(f"error: {path}"), line

    def test_corpus_id_that_is_not_a_string(self, tmp_path, capsys):
        # An object id once named a matrix file "{'k': [1]}.matrix.json".
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({**corpus_record(), "id": {"k": [1]}}) + "\n")
        out_dir = tmp_path / "out"
        line = self._assert_clean_failure(
            ["build-matrix", "--corpus", str(corpus), "--out-dir", str(out_dir)], capsys
        )
        assert line.startswith(f"error: {corpus}:1: id: expected a string"), line
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, extra", [("schema-link", []), ("encode", ["--matrix", "absent.json"])]
    )
    def test_empty_interactions_file_names_the_file(self, tmp_path, capsys, command, extra):
        path = tmp_path / "empty.json"
        path.write_text("")
        line = self._assert_clean_failure([
            command, "--interactions", str(path),
            "--schema", str(FIXTURES / "schema_flights.json"), "--out", str(tmp_path / "x.json"),
            *extra,
        ], capsys)
        assert line == f"error: {path}: interaction index 0 out of range (file has 0)"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"database_id": "d", "interactions": [{"utterance": "a"}]},
             "interaction 0: missing required field 'interaction'"),
            ({"database_id": {"k": [1]}, "interaction": [{"utterance": "a"}]},
             "interaction 0: database_id: expected a string, got {'k': [1]}"),
        ],
        ids=["misspelt-interaction", "object-database-id"],
    )
    def test_sparc_dialogue_fields(self, tmp_path, fixtures_dir, capsys, entry, message):
        sparc = tmp_path / "sparc.json"
        sparc.write_text(json.dumps([entry]))
        line = self._assert_clean_failure([
            "schema-link",
            "--interactions", str(sparc),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--out", str(tmp_path / "x.json"),
        ], capsys)
        assert line == f"error: {sparc}: {message}"

    def test_sparc_turn_not_an_object(self, tmp_path, fixtures_dir, capsys):
        sparc = tmp_path / "sparc.json"
        sparc.write_text(json.dumps([{"database_id": "d", "interaction": [5]}]))
        self._assert_clean_failure([
            "schema-link",
            "--interactions", str(sparc),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--out", str(tmp_path / "x.json"),
        ], capsys)

    @pytest.mark.parametrize(
        "change",
        [
            {"tables": "ab"},
            {"tables": ["city", ["flight"]]},
            {
                "columns": [{"name": "city", "table": 0}],
                "primary_keys": [],
                "foreign_keys": [],
            },
            {"foreign_keys": [5]},
            {"primary_keys": 5},
            {"primary_keys": [[1]]},
            {"primary_keys": [True]},
            {
                "columns": [{"name": ["city"], "table": True}],
                "primary_keys": [],
                "foreign_keys": [],
            },
        ],
        ids=[
            "tables-string", "table-name-string", "column-name-string", "foreign-key-int",
            "primary-keys-int", "primary-key-list", "primary-key-true", "column-table-true",
        ],
    )
    def test_malformed_schema_fields(self, tmp_path, fixtures_dir, capsys, change):
        payload = json.loads((fixtures_dir / "schema_flights.json").read_text())
        payload.update(change)
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(payload))
        self._assert_clean_failure([
            "schema-link",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(schema),
            "--out", str(tmp_path / "x.json"),
        ], capsys)

    @pytest.mark.parametrize(
        "change",
        [
            {"context_tokens": "ab"},
            {"question_tokens": "q"},
            {"cells": [{"i": 0, "j": 1, "rel": "C-Q-Ins"}, {"i": True, "j": 0, "rel": "Q-C-Ins"}]},
        ],
        ids=["context-string", "question-string", "cell-index-true"],
    )
    def test_malformed_matrix_fields(self, tmp_path, capsys, change):
        payload = {"qurg_fmt": 1, "context_tokens": ["a"], "question_tokens": ["q"], "cells": []}
        payload.update(change)
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps(payload))
        self._assert_clean_failure(["restore", "--matrix", str(matrix)], capsys)

    @pytest.mark.parametrize("field", ["question_tokens", "context_tokens"])
    def test_link_matrix_token_string(self, tmp_path, capsys, field):
        payload = {
            "qurg_fmt": 1, "question_tokens": ["q"], "context_tokens": [],
            "tables": [["t"]], "columns": [], "cells": [],
        }
        payload[field] = "ab"
        link = tmp_path / "link.json"
        link.write_text(json.dumps(payload))
        self._assert_clean_failure(["stats", "--link-matrix", str(link)], capsys)

    # Each command that reads an edit matrix, with the arguments that make it read ``path``.
    MATRIX_READERS = {
        "restore": lambda path, tmp: ["restore", "--matrix", path],
        "stats": lambda path, tmp: ["stats", "--matrix", path],
        "encode": lambda path, tmp: [
            "encode", "--interactions", str(FIXTURES / "interactions_flights.json"),
            "--schema", str(FIXTURES / "schema_flights.json"), "--matrix", path,
            "--out", str(tmp / "states.json"),
        ],
    }

    @pytest.mark.parametrize("reader", sorted(MATRIX_READERS))
    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
    def test_malformed_matrix_names_the_file(self, tmp_path, capsys, case, reader):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps(malformed_matrix_payload(case)))
        argv = self.MATRIX_READERS[reader](str(matrix), tmp_path)
        line = self._assert_clean_failure(argv, capsys)
        assert line.startswith(f"error: {matrix}: cell ("), line

    @pytest.mark.parametrize("case", sorted(MALFORMED_LINK_MATRICES))
    def test_malformed_link_matrix_names_the_file(self, tmp_path, capsys, case):
        link = tmp_path / "link.json"
        link.write_text(json.dumps(malformed_link_matrix_payload(case)))
        line = self._assert_clean_failure(["stats", "--link-matrix", str(link)], capsys)
        assert line.startswith(f"error: {link}: cell ("), line

    @pytest.mark.parametrize("reader", sorted(MATRIX_READERS))
    def test_matrix_token_error_names_the_file(self, tmp_path, capsys, reader):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({**flights_matrix_payload(), "cells": [],
                                      "context_tokens": ["a b"]}))
        argv = self.MATRIX_READERS[reader](str(matrix), tmp_path)
        line = self._assert_clean_failure(argv, capsys)
        assert line == f"error: {matrix}: token contains whitespace: 'a b'", line

    def test_link_matrix_token_error_names_the_file(self, tmp_path, capsys):
        payload = {
            "qurg_fmt": 1, "question_tokens": ["q"], "context_tokens": ["a b"],
            "tables": [["t"]], "columns": [], "cells": [],
        }
        link = tmp_path / "link.json"
        link.write_text(json.dumps(payload))
        line = self._assert_clean_failure(["stats", "--link-matrix", str(link)], capsys)
        assert line == f"error: {link}: token contains whitespace: 'a b'", line

    def test_schema_token_error_names_the_file(self, tmp_path, fixtures_dir, capsys):
        payload = json.loads((fixtures_dir / "schema_flights.json").read_text())
        payload["tables"][0] = [""]
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(payload))
        line = self._assert_clean_failure([
            "schema-link",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(schema),
            "--out", str(tmp_path / "x.json"),
        ], capsys)
        assert line == f"error: {schema}: table 0: empty or non-string token: ''", line

    def test_schema_past_the_structure_bound_names_the_file(
        self, tmp_path, fixtures_dir, capsys, monkeypatch
    ):
        """A schema file whose one table of 1,100 columns gives more
        structure cells than the bound fails to load, in ``schema-link`` and
        in ``stats --link-matrix``, before any structure cell is built."""

        def refused(schema):
            raise AssertionError("structure cells built")

        monkeypatch.setattr(schema_link, "_structure_cells", refused)
        columns = [{"name": [f"c{idx}"], "table": 0} for idx in range(1100)]
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"qurg_fmt": 1, "tables": [["t"]], "columns": columns}))
        link = tmp_path / "link.json"
        link.write_text(json.dumps({"qurg_fmt": 1, "question_tokens": ["q"],
                                    "context_tokens": [], "tables": [["t"]],
                                    "columns": columns, "cells": []}))
        for path, argv in (
            (schema, ["schema-link", "--interactions",
                      str(fixtures_dir / "interactions_flights.json"), "--schema", str(schema),
                      "--out", str(tmp_path / "x.json")]),
            (link, ["stats", "--link-matrix", str(link)]),
        ):
            line = self._assert_clean_failure(argv, capsys)
            assert line == (f"error: {path}: schema needs 1,211,100 structure cells, "
                            f"more than the bound of 1,048,576"), line
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("role", ["--schema", "--interactions"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_schema_link_on_any_json(self, tmp_path_factory, role, data):
        """``schema-link`` on any JSON value as its schema or interactions
        file writes its output, or prints one ``error:`` line and exits 1."""
        inputs = {
            "--schema": FIXTURES / "schema_flights.json",
            "--interactions": FIXTURES / "interactions_flights.json",
        }
        base = json.loads(inputs[role].read_text())
        work = tmp_path_factory.mktemp("fuzz")
        inputs[role] = work / "input.json"
        inputs[role].write_text(json.dumps(data.draw(json_strategies.json_files(base))))
        out, err = io.StringIO(), io.StringIO()
        argv = ["schema-link", "--out", str(work / "link.json")]
        argv += [arg for flag, path in inputs.items() for arg in (flag, str(path))]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert (work / "link.json").exists()
        else:
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "Traceback" not in err.getvalue()

    # Each fuzzed input: the valid JSON value to start from, and the
    # arguments that make a command read it from ``path``.
    FUZZED_INPUTS = {
        "build-matrix": (corpus_record(), lambda path, work: [
            "build-matrix", "--corpus", path, "--out-dir", str(work / "out")]),
        "stats-corpus": (corpus_record(), lambda path, work: ["stats", "--corpus", path]),
        "stats-matrix": (flights_matrix_payload(), lambda path, work: ["stats", "--matrix", path]),
        "stats-link-matrix": (
            flights_link_matrix_payload(), lambda path, work: ["stats", "--link-matrix", path]
        ),
        "encode-interactions": (
            json.loads((FIXTURES / "interactions_flights.json").read_text()),
            _encode_argv("--interactions"),
        ),
        "encode-schema": (
            json.loads((FIXTURES / "schema_flights.json").read_text()), _encode_argv("--schema")
        ),
        "encode-matrix": (flights_matrix_payload(), _encode_argv("--matrix")),
    }

    @pytest.mark.parametrize("target", sorted(FUZZED_INPUTS))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_reading_commands_on_any_json(self, tmp_path_factory, target, data):
        """``build-matrix --corpus``, ``stats`` on each of its inputs, and
        ``encode`` on each of its input files under a fixed tiny config,
        with any JSON value in that file, succeed or print one ``error:``
        line and exit 1.  The config is never fuzzed: it sets sizes."""
        base, argv_of = self.FUZZED_INPUTS[target]
        work = tmp_path_factory.mktemp("fuzz")
        path = work / "input.json"
        path.write_text(json.dumps(data.draw(json_strategies.json_files(base))) + "\n")
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_of(str(path), work))
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("command", ["restore", "roundtrip", "rouge"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rewrite_commands_on_any_json(self, tmp_path_factory, command, data):
        """``restore`` and ``roundtrip`` on any JSON value as their input
        file, and ``rouge`` on the text of one, succeed or print one
        ``error:`` line and exit 1.  A file the loader rejects always fails
        with the loader's message; two one-line texts always make one pair."""
        work = tmp_path_factory.mktemp("fuzz")
        path = work / "input"
        rejection = None
        if command == "rouge":
            value = data.draw(json_strategies.json_values)
            path.write_text(json.dumps(value, ensure_ascii=False) + "\n", encoding="utf-8")
            (work / "ref").write_text(json.dumps(value) + "\n")
            argv = ["rouge", "--cand", str(path), "--ref", str(work / "ref")]
        else:
            if command == "restore":
                base, loader, flags = flights_matrix_payload(), load_matrix, ["--matrix", "--out"]
            else:
                base, loader, flags = corpus_record(), load_rewrite_corpus, ["--corpus", "--report"]
            path.write_text(json.dumps(data.draw(json_strategies.json_files(base))) + "\n")
            try:
                loader(path)
            except ValueError as exc:
                rejection = f"error: {exc}"
            argv = [command, flags[0], str(path), flags[1], str(work / "out.json")]
        # Standard output as on a UTF-8 terminal: text it cannot encode fails.
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [] and rejection is None
            assert (work / "out.json").exists() or command == "rouge"
        else:
            assert code == 1 and command != "rouge"
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert rejection in (None, lines[0])
        assert "Traceback" not in err.getvalue()


TINY_CONFIG = {
    "d_x": 8, "d_z": 8, "heads": 2, "layers_link": 2, "layers_rw": 1, "d_ff": 16,
    "seed": 11,
}


class TestEncode:
    def _setup(self, tmp_path, fixtures_dir):
        matrix_path = tmp_path / "flights.matrix.json"
        assert run(FLIGHTS_ARGS + ["--out", str(matrix_path)]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
        return matrix_path, config_path

    def test_deterministic_dumps(self, tmp_path, fixtures_dir):
        matrix_path, config_path = self._setup(tmp_path, fixtures_dir)
        dumps = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code = run([
                "encode",
                "--interactions", str(fixtures_dir / "interactions_flights.json"),
                "--schema", str(fixtures_dir / "schema_flights.json"),
                "--matrix", str(matrix_path),
                "--config", str(config_path),
                "--out", str(out),
            ])
            assert code == 0
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]
        payload = json.loads(dumps[0])
        assert payload["layout"] == {"question": 6, "context": 12, "schema": 7}

    def test_sparc_file_needs_no_format_flag(self, tmp_path, fixtures_dir):
        matrix_path = tmp_path / "sparc.matrix.json"
        assert run([
            "build-matrix", "Which one has the most?",
            "--context", "How many arriving flights are there in each of the cities?",
            "--rewrite", "Which city has the most arriving flights?", "--out", str(matrix_path),
        ]) == 0
        out = tmp_path / "states.json"
        assert run([
            "encode", "--interactions", str(fixtures_dir / "sparc_sample.json"), "--index", "1",
            "--schema", str(fixtures_dir / "schema_flights.json"), "--matrix", str(matrix_path),
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["layout"] == {"question": 6, "context": 12, "schema": 7}

    def test_check_gradients(self, tmp_path, fixtures_dir, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
        code = run(["encode", "--config", str(config_path), "--check-gradients"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    @pytest.mark.parametrize(
        "flag",
        [["--interactions", "x"], ["--schema", "x"], ["--matrix", "x"], ["--out", "x"],
         ["--save-params", "x"], ["--traces"], ["--no-lowercase"], ["--no-plural-stem"],
         ["--index", "7"]],
        ids=lambda flag: flag[0],
    )
    def test_check_gradients_runs_alone(self, tmp_path, capsys, flag):
        # The usage error comes first: the missing config file is never read.
        missing = str(tmp_path / "absent.json")
        assert run(["encode", "--config", missing, "--check-gradients", *flag]) == 2
        captured = capsys.readouterr()
        assert "max relative error" not in captured.out
        assert f"--check-gradients runs alone; drop {flag[0]}" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_matrix_exits_one(self, tmp_path, fixtures_dir, capsys):
        matrix_path = tmp_path / "other.matrix.json"
        assert run([
            "build-matrix", "another question ?", "--rewrite", "another question ?",
            "--out", str(matrix_path),
        ]) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
        code = run([
            "encode",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--config", str(config_path),
            "--out", str(tmp_path / "dump.json"),
        ])
        assert code == 1

    def test_mismatched_matrix_writes_nothing(self, tmp_path, fixtures_dir, capsys):
        matrix_path = tmp_path / "other.matrix.json"
        assert run([
            "build-matrix", "show me flights", "--rewrite", "show me flights",
            "--out", str(matrix_path),
        ]) == 0
        capsys.readouterr()
        out, params_path = tmp_path / "dump.json", tmp_path / "params.json"
        code = run([
            "encode",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--out", str(out),
            "--save-params", str(params_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: rewrite matrix question does not match the interaction\n"
        )
        assert not out.exists() and not params_path.exists()

    def test_traces_and_params_dump(self, tmp_path, fixtures_dir):
        matrix_path, config_path = self._setup(tmp_path, fixtures_dir)
        out = tmp_path / "dump.json"
        params_path = tmp_path / "params.json"
        code = run([
            "encode",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--config", str(config_path),
            "--out", str(out),
            "--traces",
            "--save-params", str(params_path),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["link_traces"]) == 2
        assert len(payload["rw_traces"]) == 1
        from qurg.rat_encoder import load_params

        assert load_params(params_path).config.seed == 11

    def test_policy_flags_change_states(self, tmp_path, fixtures_dir):
        matrix_path, config_path = self._setup(tmp_path, fixtures_dir)
        states = []
        for name, flags in (("default.json", []), ("no-stem.json", ["--no-plural-stem"])):
            out = tmp_path / name
            assert run([
                "encode",
                "--interactions", str(fixtures_dir / "interactions_flights.json"),
                "--schema", str(fixtures_dir / "schema_flights.json"),
                "--matrix", str(matrix_path),
                "--config", str(config_path),
                "--out", str(out),
                *flags,
            ]) == 0
            states.append(json.loads(out.read_text())["h_final"])
        assert states[0] != states[1]

    def test_encode_requires_inputs(self, tmp_path):
        assert run(["encode", "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize(
        "config",
        [
            {"seed": "x"},
            {"heads": True},
            {"d_ff": 2.5},
            {"d_x": "a", "d_z": "a"},
            {"precision": 1},
            {"single_fc_ff": 1},
            {"d_x": 0, "d_z": 0},
            [1],
        ],
        ids=repr,
    )
    def test_config_of_wrong_type_exits_one(self, tmp_path, capsys, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert run(["encode", "--config", str(config_path), "--check-gradients"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    def test_width_one_config_exits_one(self, tmp_path, fixtures_dir, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**TINY_CONFIG, "d_x": 1, "d_z": 1, "heads": 1}))
        matrix_path = tmp_path / "flights.matrix.json"
        assert run(FLIGHTS_ARGS + ["--out", str(matrix_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "states.json"
        assert run([
            "encode",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--config", str(config_path),
            "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: d_x must be at least 2: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_huge_config_exits_one(self, tmp_path, fixtures_dir, capsys):
        # The first weight alone would take 728 TiB; the config is refused
        # before anything is allocated.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"d_x": 10**7, "d_z": 10**7, "heads": 1}))
        matrix_path = tmp_path / "flights.matrix.json"
        assert run(FLIGHTS_ARGS + ["--out", str(matrix_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "states.json"
        assert run([
            "encode",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--config", str(config_path),
            "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: encoder config needs 105,600,032,320,000,000 bytes for its parameters, "
            "more than the bound of 1,073,741,824\n"
        )
        assert captured.out == "" and not out.exists()

    def test_huge_config_refused_before_gradient_check(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"d_x": 10**7, "heads": 1}))
        assert run(["encode", "--config", str(config_path), "--check-gradients"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: encoder config needs ")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_long_interaction_refused_before_allocating(self, tmp_path, fixtures_dir, capsys):
        # At the default config one layer's attention over 2,400 positions
        # needs about 1.1 GB; the question, matrix and schema files are small.
        question = [f"w{k}" for k in range(2400 - 7)]
        interactions = tmp_path / "long.json"
        interactions.write_text(json.dumps(
            {"qurg_fmt": 1, "interactions": [{"id": "long", "utterances": [" ".join(question)]}]}
        ))
        matrix_path = tmp_path / "long.matrix.json"
        matrix_path.write_text(json.dumps(
            {"qurg_fmt": 1, "context_tokens": [], "question_tokens": question, "cells": []}
        ))
        out = tmp_path / "states.json"
        assert run([
            "encode",
            "--interactions", str(interactions),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: encoder config needs 1,105,920,000 bytes for one layer's attention "
            "over 2,400 positions, more than the bound of 1,073,741,824\n"
        )
        assert captured.out == "" and not out.exists()

    def test_kept_traces_refused_before_allocating(
        self, tmp_path, fixtures_dir, capsys, monkeypatch
    ):
        # At the default config one layer's attention over 2,000 positions
        # fits the bound, but the traces of every layer of both streams do
        # not.  Should the check pass, the test fails before any parameter or
        # layer is allocated.
        from qurg import rat_encoder

        def unreachable(*args, **kwargs):
            raise AssertionError("the encoder ran")

        monkeypatch.setattr(rat_encoder, "init_params", unreachable)
        question = [f"w{k}" for k in range(2000 - 7)]
        interactions = tmp_path / "long.json"
        interactions.write_text(json.dumps(
            {"qurg_fmt": 1, "interactions": [{"id": "long", "utterances": [" ".join(question)]}]}
        ))
        matrix_path = tmp_path / "long.matrix.json"
        matrix_path.write_text(json.dumps(
            {"qurg_fmt": 1, "context_tokens": [], "question_tokens": question, "cells": []}
        ))
        out = tmp_path / "states.json"
        assert run([
            "encode",
            "--interactions", str(interactions),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--out", str(out),
            "--traces",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: encoder config needs 3,105,117,504 bytes for the traces over 2,000 and "
            "1,993 positions, more than the bound of 1,073,741,824\n"
        )
        assert captured.out == "" and not out.exists()

    def test_malformed_config_names_the_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"seed": ')
        assert run(["encode", "--config", str(config_path), "--check-gradients"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {config_path}: malformed JSON at line 1: Expecting value\n"

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"seed": "x"}, "encoder config: seed: expected an integer, got 'x'"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
            # Refused before anything is allocated or looped over.
            ({"layers_link": 10**9}, "each stream needs between 1 and 1024 layers"),
        ],
        ids=["seed-string", "seed-negative", "layers-past-bound"],
    )
    def test_config_error_names_the_file_and_field(self, tmp_path, capsys, config, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert run(["encode", "--config", str(config_path), "--check-gradients"]) == 1
        assert capsys.readouterr().err == f"error: {config_path}: {message}\n"

    def test_config_without_d_z_loads(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"d_x": 8, "heads": 2}))
        assert run(["encode", "--config", str(config_path), "--check-gradients"]) == 0
        assert "max relative error" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"link_relation_count": 3}, "link_relation_count must be 16, got 3"),
            ({"rw_relation_count": 9}, "rw_relation_count must be 5, got 9"),
            ({"d_x": 8, "d_z": 16, "heads": 2}, "d_z must be 8, got 16"),
        ],
        ids=["link-count", "rw-count", "d_z"],
    )
    def test_derived_field_refused_before_any_write(
        self, tmp_path, fixtures_dir, capsys, config, message
    ):
        matrix_path, config_path = self._setup(tmp_path, fixtures_dir)
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        params, out = tmp_path / "p.json", tmp_path / "states.json"
        assert run([
            "encode",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--config", str(config_path),
            "--save-params", str(params),
            "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == f"error: {config_path}: encoder config: {message}\n"
        assert not params.exists() and not out.exists()

    def test_negative_seed_flag_exits_one(self, capsys):
        assert run(["encode", "--seed", "-1", "--check-gradients"]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


class TestStats:
    def test_corpus_and_matrix(self, tmp_path, fixtures_dir, capsys):
        matrix_path = tmp_path / "flights.json"
        run(FLIGHTS_ARGS + ["--out", str(matrix_path)])
        capsys.readouterr()
        code = run([
            "stats",
            "--corpus", str(fixtures_dir / "corpus_small.jsonl"),
            "--matrix", str(matrix_path),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corpus"]["examples"] == 5
        assert payload["matrix"]["cells"] == 6
        assert payload["matrix"]["relations"]["C-Q-Ins"] == 2

    def test_requires_some_input(self):
        assert run(["stats"]) == 2


class TestExitCodes:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_missing_file_is_operation_error(self, tmp_path, capsys):
        assert run(["restore", "--matrix", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["stats", "--corpus", str(FIXTURES / "corpus_small.jsonl"), "--out"],
         ["roundtrip", "--corpus", str(FIXTURES / "corpus_small.jsonl"), "--report"],
         [*FLIGHTS_ARGS, "--out"]],
        ids=["stats", "roundtrip", "build-matrix"],
    )
    def test_missing_directory_names_the_target(self, tmp_path, capsys, monkeypatch, argv):
        # Not the temporary file beside the target, which the user never named.
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "nodir/x.json"]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'nodir/x.json'\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build-matrix", "--corpus", "c.jsonl"], "--corpus mode requires --out-dir"),
            (["build-matrix", "q", "--rewrite", "q"],
             "--out is required when building a single matrix"),
            (["encode", "--interactions", "i", "--schema", "s", "--matrix", "m"],
             "encode requires --out for the state dump"),
            (["schema-link", "--interactions", "i", "--schema", "s", "--out", "o",
              "--interactions-format", "sparc"],
             "unrecognized arguments: --interactions-format sparc"),
            (["encode", "--interactions-format", "native"],
             "unrecognized arguments: --interactions-format native"),
        ],
        ids=["corpus-without-out-dir", "single-without-out", "encode-without-out",
             "schema-link-format", "encode-format"],
    )
    def test_usage_error_reads_nothing(self, tmp_path, capsys, monkeypatch, argv, message):
        # The named files do not exist: each error comes before any is read.
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCrossProcessDeterminism:
    def test_matrix_bytes_identical_across_processes(self, tmp_path):
        import subprocess
        import sys

        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "qurg.cli"] + FLIGHTS_ARGS + ["--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
