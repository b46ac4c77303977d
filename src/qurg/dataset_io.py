"""File formats: interaction corpora, rewrite corpora, schemas, matrices,
and score reports.

All files are UTF-8 JSON carrying a ``"qurg_fmt": 1`` version field, except
SParC/CoSQL interaction files, which are JSON arrays.  The native
interaction format is a single JSON object; rewrite corpora are JSON lines
(one example per line, the version field optional per line but always
written).  Serialization is canonical: reloading and re-saving any file the
package wrote reproduces it byte for byte.

Tokenization rule: whitespace split with the punctuation marks ``. , ? !``
detached from word boundaries as separate tokens.  Case is preserved;
matching policies decide about case folding later.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .rewrite_diff import (
    Interaction,
    RewriteEditMatrix,
    RewriteRelation,
    TokenSeq,
    _Tokens,
)
from .rouge_eval import NORMALIZATION, CorpusRougeReport, RougeScore
from .schema_link import (
    Column,
    LinkRelation,
    LINK_RELATION_NAMES,
    Schema,
    SchemaError,
    SchemaLinkMatrix,
)

__all__ = [
    "DatasetError",
    "FormatVersionError",
    "FORMAT_VERSION",
    "tokenize",
    "load_interactions",
    "save_interactions",
    "load_rewrite_corpus",
    "save_rewrite_corpus",
    "load_matrix",
    "save_matrix",
    "load_link_matrix",
    "save_link_matrix",
    "load_schema",
    "save_schema",
    "save_rouge_report",
    "load_rouge_report",
    "dump_canonical",
    "write_json",
    "read_json",
    "read_text",
]

FORMAT_VERSION = 1

_T = TypeVar("_T")

_DETACHED_PUNCT = ".,?!"


class DatasetError(ValueError):
    """A file failed to parse or validate."""


class FormatVersionError(DatasetError):
    """The file's format version is missing or unsupported."""


def tokenize(text: str) -> TokenSeq:
    """Whitespace tokenization with ``. , ? !`` detached as own tokens."""
    tokens: list[str] = []
    for chunk in text.split():
        body = chunk.lstrip(_DETACHED_PUNCT)
        word = body.rstrip(_DETACHED_PUNCT)
        # A strip that removes nothing returns its string itself, so a chunk
        # with no mark at either end skips both slices.
        if body is not chunk:
            tokens += chunk[: len(chunk) - len(body)]
        if word:
            tokens.append(word)
        if word is not body:
            tokens += body[len(word):]
    # Each token is a non-empty piece of a ``str.split`` chunk, so it holds
    # no whitespace: the sequence counts as checked (see ``token_seq``).
    return _Tokens(tokens)


_CANONICAL = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def dump_canonical(payload: Any) -> str:
    """The canonical text of a JSON value: compact separators, non-ASCII
    kept as is, one trailing newline."""
    return _CANONICAL.encode(payload) + "\n"


# The end of a matrix cell's text per relation: each relation's name is
# ASCII that JSON does not escape, so a cell is formatted, not encoded.
_CELL_ENDS = {
    rel: f',"rel":{_CANONICAL.encode(rel.value)}}}'
    for family in (RewriteRelation, LinkRelation) for rel in family
}


def _matrix_text(head: dict[str, Any], matrix: RewriteEditMatrix | SchemaLinkMatrix) -> str:
    """``dump_canonical`` of ``head`` with one more key, ``cells``: the
    matrix's cells sorted by (i, j), each ``{"i":I,"j":J,"rel":"NAME"}``.
    The head goes through the encoder; the cells are formatted directly."""
    ends = _CELL_ENDS
    cells = ",".join([
        f'{{"i":{i},"j":{j}{ends[rel]}' for (i, j), rel in sorted(matrix.cells.items())
    ])
    return f'{_CANONICAL.encode(head)[:-1]},"cells":[{cells}]}}\n'


def _is_stdout(st: os.stat_result) -> bool:
    """Whether ``st`` is the file that standard output has open.  A write
    to it goes through descriptor 1 at its offset, after what was printed
    and before what will be: a descriptor of its own would write from
    offset 0, where the summary line would then overwrite the text."""
    try:
        return os.path.samestat(st, os.fstat(1))
    except OSError:  # standard output is closed
        return False


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _write_in_place(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the byte chunks over the file at ``path``, created if need be.
    A regular file (only ``save_matrix``'s, never empty) is cut to one byte
    and written from offset 0: on ext4 a cut to zero frees the file's block
    and makes ``close`` start writing the data back to disk, at several
    times the CPU of the rest of the write.  A device such as ``/dev/null``
    is not cut; the file that standard output has open is written at its
    offset (see ``_is_stdout``)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        out = 1 if _is_stdout(st) else fd
        if out == 1:
            sys.stdout.flush()
        elif stat.S_ISREG(st.st_mode):
            os.ftruncate(fd, 1)
        for chunk in chunks:
            _write_all(out, chunk)
    finally:
        os.close(fd)


def _replace(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to ``path`` through a temporary file beside it
    that then replaces it, keeping the old file's permission bits.  Each
    chunk is encoded as it is written, and a write that fails at any point
    inside the process (an exception, a full disk, an interrupt) keeps
    whatever was there before and removes the temporary file.  Nothing is
    synced to disk, so a power loss or a kernel crash can still lose the
    new text.  A symbolic link's target is replaced and the link kept.  A
    target that is not a regular file (``/dev/null``), or that standard
    output has open, is written in place, chunk by chunk."""
    try:
        # Followed: /dev/stdout can resolve to a regular file, which must
        # still be written at standard output's offset, not replaced.
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and (_is_stdout(st) or not stat.S_ISREG(st.st_mode)):
        _write_in_place(path, (chunk.encode("utf-8") for chunk in chunks))
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".qurg.{os.getpid()}.tmp")  # fits where the target's name does
    try:
        out = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:  # the user named the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with out:
            out.writelines(chunks)
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: Any) -> None:
    """Write ``payload`` to ``path`` as canonical UTF-8 JSON, replacing the
    file whole, or a symbolic link's target: a write that fails leaves the
    previous file and no temporary one (see ``_replace``).  Every file the
    package writes goes through ``_replace`` except the matrix files of
    ``save_matrix``."""
    _replace(path, (dump_canonical(payload),))


def _parse_json(text: str, path: str | Path) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer longer than Python converts
        raise DatasetError(f"{path}: unreadable JSON: {exc}") from None
    except RecursionError:
        raise DatasetError(f"{path}: JSON nested too deeply") from None


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; any other file is a ``DatasetError`` naming
    the file and the line of the first byte that is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # decoded whole, so ``start`` counts from byte 0
        line = Path(path).read_bytes().count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_json(path: str | Path) -> Any:
    """The JSON value in ``path``; malformed JSON is a ``DatasetError``
    naming the file."""
    return _parse_json(read_text(path), path)


def _check_version(payload: Any, path: str | Path, *, optional: bool = False) -> None:
    """Check the ``qurg_fmt`` field of a JSON object, which must be present
    unless ``optional`` (a rewrite corpus line)."""
    if not isinstance(payload, dict) or not (optional or "qurg_fmt" in payload):
        raise FormatVersionError(f"{path}: missing qurg_fmt version field")
    version = payload.get("qurg_fmt", FORMAT_VERSION)
    # ``True == 1`` in Python, but JSON true is not a version number.
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise FormatVersionError(f"{path}: unsupported format version {version!r}")


_NUMBER = (int, float)
_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", int: "an integer", _NUMBER: "a number",
    bool: "a boolean", int | None: "an integer or null",
}


def _expect(value: Any, kind: Any, where: str) -> Any:
    """``value``, checking that it has the JSON type ``kind``, a key of
    ``_JSON_KINDS``."""
    # JSON true/false are only booleans, although Python's bool subclasses int.
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise DatasetError(f"{where}: expected {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def _field(record: Any, key: str, where: str, kind: Any = None) -> Any:
    """``record[key]``, checking that ``record`` is an object holding ``key``
    and, when ``kind`` is given, that the value has that JSON type; a type
    error names the key."""
    if key not in _expect(record, dict, where):
        raise DatasetError(f"{where}: missing required field {key!r}")
    return record[key] if kind is None else _expect(record[key], kind, f"{where}: {key}")


def _strings(value: Any, where: str) -> tuple[str, ...]:
    """A JSON array of strings; a bare string is not read as characters."""
    return tuple(_expect(tok, str, where) for tok in _expect(value, list, where))


def _constructed(
    where: str | Path,
    make: Callable[..., _T],
    *args: Any,
    error: type[ValueError] = DatasetError,
) -> _T:
    """``make(*args)``; a ``ValueError`` it raises comes back as ``error``
    with ``where`` in front of its message.  The loaders leave the checks
    of a file's values to the constructor that ``make`` is, so each value
    is checked once and its error still names the file."""
    try:
        return make(*args)
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None


def load_interactions(path: str | Path) -> list[Interaction]:
    """Load interactions from a file whose JSON type names its format: an
    array is raw SParC/CoSQL JSON; anything else is the native document.

    An empty (zero-byte or whitespace-only) file yields an empty list.
    """
    text = read_text(path)
    if not text.strip():
        return []
    payload = _parse_json(text, path)
    if isinstance(payload, list):
        return _constructed(path, _sparc_interactions, payload)
    _check_version(payload, path)
    records = _field(payload, "interactions", str(path), list)
    out: list[Interaction] = []
    for pos, record in enumerate(records):
        where = f"{path}: interaction {pos}"
        utterances = _field(record, "utterances", where, list)
        if not utterances:
            raise DatasetError(f"{where}: empty interaction")
        turns = [tokenize(_expect(u, str, where)) for u in utterances]
        # A missing or null rewrite, or one with no tokens, means none; other types fail.
        rewrite = record.get("rewrite")
        if rewrite is not None:
            rewrite = tokenize(_expect(rewrite, str, f"{where}: rewrite")) or None
        example_id = _expect(record.get("id", str(pos)), str, f"{where}: id")
        out.append(_constructed(where, Interaction, tuple(turns[:-1]), turns[-1], rewrite,
                                example_id))
    return out


def _joined(tokens: TokenSeq, interaction_id: str) -> str:
    """``tokens`` joined by spaces; a ``ValueError`` unless ``tokenize``
    reads the text back as the same tokens, so a file loads as saved."""
    text = " ".join(tokens)
    if tokenize(text) != tokens:
        raise ValueError(f"interaction {interaction_id!r}: {tokens!r:.60} would not load as saved")
    return text


def save_interactions(path: str | Path, interactions: Sequence[Interaction]) -> None:
    records = []
    for inter in interactions:
        turns = (*inter.context_turns, inter.question)
        record: dict[str, Any] = {
            "id": inter.interaction_id,
            "utterances": [_joined(t, inter.interaction_id) for t in turns],
        }
        if inter.gold_rewrite is not None:
            record["rewrite"] = _joined(inter.gold_rewrite, inter.interaction_id)
        records.append(record)
    write_json(path, {"qurg_fmt": FORMAT_VERSION, "interactions": records})


def _sparc_interactions(raw: list[Any]) -> list[Interaction]:
    """Adapt raw SParC/CoSQL-style JSON: every turn of every interaction
    becomes one Interaction with the cumulative preceding turns as context."""
    out: list[Interaction] = []
    for pos, entry in enumerate(raw):
        where = f"interaction {pos}"
        items = _field(entry, "interaction", where, list)
        turns = [
            tokenize(_field(item, "utterance", f"{where}: turn {t + 1}", str))
            for t, item in enumerate(items)
        ]
        database_id = _expect(entry.get("database_id", str(pos)), str, f"{where}: database_id")
        for t in range(len(turns)):
            example_id = f"{database_id}#{pos}.{t + 1}"
            out.append(_constructed(f"{where}: turn {t + 1}", Interaction, tuple(turns[:t]),
                                    turns[t], None, example_id))
    return out


def load_rewrite_corpus(path: str | Path) -> list[Interaction]:
    """Load a JSON-lines rewrite corpus as interactions with gold rewrites.

    Each line is ``{"history": [...], "question": "...", "rewrite": "...",
    "id": "..."}``; ``id`` becomes the interaction id.  Ids must be unique;
    blank lines are skipped.
    """
    examples: list[Interaction] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        record = _expect(_parse_json(line, where), dict, where)
        _check_version(record, where, optional=True)
        history = [
            tokenize(_expect(turn, str, f"{where}: history"))
            for turn in _field(record, "history", where, list)
        ]
        question = tokenize(_field(record, "question", where, str))
        rewrite = tokenize(_field(record, "rewrite", where, str))
        example_id = _field(record, "id", where, str)
        if example_id in seen:
            raise DatasetError(f"{where}: duplicate example id {example_id!r}")
        seen.add(example_id)
        examples.append(_constructed(where, Interaction, tuple(history), question, rewrite,
                                     example_id))
    return examples


def save_rewrite_corpus(path: str | Path, examples: Iterable[Interaction]) -> None:
    """Write interactions as a rewrite corpus; each must carry a gold rewrite.
    The lines are built first, so an example without one, or one that would
    load back as other tokens, leaves the previous file as it was."""
    lines = []
    for ex in examples:
        if ex.gold_rewrite is None:
            raise ValueError(f"interaction {ex.interaction_id!r} has no gold rewrite")
        lines.append(dump_canonical({
            "qurg_fmt": FORMAT_VERSION,
            "history": [_joined(t, ex.interaction_id) for t in ex.context_turns],
            "question": _joined(ex.question, ex.interaction_id),
            "rewrite": _joined(ex.gold_rewrite, ex.interaction_id),
            "id": ex.interaction_id,
        }))
    _replace(path, lines)


def _parse_cells(
    payload: Mapping[str, Any], path: str | Path, relations: type[Enum]
) -> dict[tuple[int, int], Any]:
    """The ``cells`` array of a matrix file, each an integer ``(i, j)`` with
    a relation of the family ``relations``, by name; a repeated ``(i, j)``
    is an error.  The matrix's constructor checks the rest."""
    cells: dict[tuple[int, int], Any] = {}
    for pos, cell in enumerate(_field(payload, "cells", str(path), list)):
        _expect(cell, dict, f"{path}: cell {pos}")
        i, j, name = cell.get("i"), cell.get("j"), cell.get("rel")
        try:
            rel = relations(name)
        except ValueError:
            raise DatasetError(f"{path}: cell ({i},{j}) has unknown relation {name!r}") from None
        # JSON true and false pass as integers here; the constructor refuses them.
        if not (isinstance(i, int) and isinstance(j, int)):
            raise DatasetError(f"{path}: cell ({i},{j}) has indices that are not integers")
        if (i, j) in cells:
            raise DatasetError(f"{path}: cell ({i},{j}) appears more than once")
        cells[(i, j)] = rel
    return cells


def save_matrix(path: str | Path, matrix: RewriteEditMatrix) -> None:
    """Write a rewrite edit matrix; cells sorted by (i, j) for determinism.

    The one file written in place (``_write_in_place``) rather than
    replaced: ``build-matrix --corpus`` writes one per example, and
    ``index.json``, written last and replaced, names only the matrices a
    finished run wrote.  The text is encoded before the file is opened; a
    write stopped later leaves one byte and then a prefix of the text,
    which never loads as any other matrix.
    """
    _write_in_place(path, (_matrix_text({
        "qurg_fmt": FORMAT_VERSION,
        "context_tokens": list(matrix.context_tokens),
        "question_tokens": list(matrix.question_tokens),
    }, matrix).encode("utf-8"),))


def load_matrix(path: str | Path) -> RewriteEditMatrix:
    """Load an edit matrix file; a matrix its constructor rejects, such as
    one with a cell that lacks its mirror, fails to load."""
    payload = read_json(path)
    _check_version(payload, path)
    context = _strings(_field(payload, "context_tokens", str(path)), f"{path}: context_tokens")
    question = _strings(_field(payload, "question_tokens", str(path)), f"{path}: question_tokens")
    cells = _parse_cells(payload, path, RewriteRelation)
    return _constructed(path, RewriteEditMatrix, context, question, cells)


def _schema_payload(schema: Schema) -> dict[str, Any]:
    return {
        "tables": [list(name) for name in schema.tables],
        "columns": [
            {"name": list(col.name), "table": col.table, "type": col.type}
            for col in schema.columns
        ],
        "primary_keys": sorted(schema.primary_keys),
        "foreign_keys": [list(fk) for fk in sorted(schema.foreign_keys)],
    }


def save_link_matrix(path: str | Path, matrix: SchemaLinkMatrix) -> None:
    """Write a linking matrix with its schema and relation vocabulary."""
    _replace(path, (_matrix_text({
        "qurg_fmt": FORMAT_VERSION,
        "question_tokens": list(matrix.question_tokens),
        "context_tokens": list(matrix.context_tokens),
        **_schema_payload(matrix.schema),
        "relations": list(LINK_RELATION_NAMES),
    }, matrix),))


def load_link_matrix(path: str | Path) -> SchemaLinkMatrix:
    """Load a linking matrix file; a matrix its constructor rejects, such as
    one with a cell outside its relation's block or with structure cells
    other than its schema's, fails to load."""
    payload = read_json(path)
    _check_version(payload, path)
    schema = _schema_from_payload(payload, path)
    question = _strings(_field(payload, "question_tokens", str(path)), f"{path}: question_tokens")
    context = _strings(_field(payload, "context_tokens", str(path)), f"{path}: context_tokens")
    cells = _parse_cells(payload, path, LinkRelation)
    return _constructed(path, SchemaLinkMatrix, question, context, schema, cells)


def _schema_from_payload(payload: Mapping[str, Any], path: str | Path) -> Schema:
    def column(idx: int, record: Any) -> Column:
        where = f"{path}: column {idx}"
        return Column(
            _strings(_field(record, "name", where), where),
            _field(record, "table", where),
            _expect(record.get("type", "text"), str, where),
        )

    tables = _field(payload, "tables", str(path), list)
    columns = _field(payload, "columns", str(path), list)
    return _constructed(
        path,
        Schema,
        tuple(_strings(name, f"{path}: table {idx}") for idx, name in enumerate(tables)),
        tuple(column(idx, record) for idx, record in enumerate(columns)),
        payload.get("primary_keys", ()),
        payload.get("foreign_keys", ()),
        error=SchemaError,
    )


def load_schema(path: str | Path) -> Schema:
    """Load a simplified Spider-style schema file; invariants are enforced."""
    payload = read_json(path)
    _check_version(payload, path)
    return _schema_from_payload(payload, path)


def save_schema(path: str | Path, schema: Schema) -> None:
    write_json(path, {"qurg_fmt": FORMAT_VERSION, **_schema_payload(schema)})


def _score_payload(score: RougeScore) -> dict[str, float]:
    return {"precision": score.precision, "recall": score.recall, "f1": score.f1}


def save_rouge_report(path: str | Path, report: CorpusRougeReport) -> None:
    """Write a corpus score report."""
    write_json(
        path,
        {
            "qurg_fmt": FORMAT_VERSION,
            "normalization": NORMALIZATION,
            "r1": _score_payload(report.r1),
            "r2": _score_payload(report.r2),
            "rl": _score_payload(report.rl),
            "pairs": report.pair_count,
        },
    )


def load_rouge_report(path: str | Path) -> CorpusRougeReport:
    payload = read_json(path)
    _check_version(payload, path)
    where = str(path)

    def score(key: str) -> RougeScore:
        block = _field(payload, key, where, dict)
        values = []
        for name in ("precision", "recall", "f1"):
            value = _field(block, name, f"{where}: {key}", _NUMBER)
            # Also keeps NaN out, and integers too large for a float.
            if not 0 <= value <= 1:
                raise DatasetError(f"{where}: {key}: {name} must be in [0, 1], got {value!r:.40}")
            values.append(float(value))
        return RougeScore(*values)

    pairs = _field(payload, "pairs", where, int)
    if pairs < 0:
        raise DatasetError(f"{where}: pairs must be non-negative, got {pairs}")
    return CorpusRougeReport(score("r1"), score("r2"), score("rl"), pairs)
