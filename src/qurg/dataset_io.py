"""File formats: interaction corpora, rewrite corpora, schemas, matrices,
and score reports.

All files are UTF-8 JSON carrying a ``"qurg_fmt": 1`` version field.  The
native interaction format is a single JSON document; rewrite corpora are
JSON lines (one example per line, the version field optional per line but
always written).  Serialization is canonical: reloading and re-saving any
file reproduces it byte for byte.

Tokenization rule: whitespace split with the punctuation marks ``. , ? !``
detached from word boundaries as separate tokens.  Case is preserved;
matching policies decide about case folding later.
"""

from __future__ import annotations

import json
import os
import stat
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .rewrite_diff import (
    Interaction,
    RewriteEditMatrix,
    RewriteRelation,
    TokenSeq,
    token_seq,
)
from .rouge_eval import NORMALIZATION, CorpusRougeReport, RougeScore
from .schema_link import (
    Column,
    LinkRelation,
    LINK_RELATION_NAMES,
    Schema,
    SchemaError,
    SchemaLinkMatrix,
    _is_index,
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
    "convert_sparc_interactions",
    "dump_canonical",
    "write_json",
    "read_json",
    "read_text",
]

FORMAT_VERSION = 1

_T = TypeVar("_T")

_DETACHED_PUNCT = (".", ",", "?", "!")


class DatasetError(ValueError):
    """A file failed to parse or validate."""


class FormatVersionError(DatasetError):
    """The file's format version is missing or unsupported."""


def tokenize(text: str) -> TokenSeq:
    """Whitespace tokenization with ``. , ? !`` detached as own tokens."""
    tokens: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        trail: list[str] = []
        while chunk and chunk[0] in _DETACHED_PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in _DETACHED_PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tuple(tokens)


def dump_canonical(payload: Any) -> str:
    """The canonical text of a JSON value: compact separators, non-ASCII
    kept as is, one trailing newline."""
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"


def write_json(path: str | Path, payload: Any, *, atomic: bool = False) -> None:
    """Write ``payload`` to ``path`` as canonical UTF-8 JSON.

    With ``atomic``, the text goes to a temporary file beside ``path`` that
    then replaces it, keeping the old file's permission bits.  A write that
    fails inside the process (an exception, a full disk, an interrupt)
    keeps whatever was there before and removes the temporary file.
    Nothing is synced to disk, so a power loss or a kernel crash can still
    lose the new text.  A symbolic link, or a target that is not a regular
    file (``/dev/stdout``), is written in place: replacing it would replace
    the link or the device.  Replacing costs much more than overwriting in
    place: with every matrix file replaced, ``build-matrix --corpus`` took
    about 40% more CPU per example on a 2-vCPU virtual machine.  So the
    matrix files are written in place, and a command's single output
    files and the files that record a finished run are replaced.
    """
    path = Path(path)
    text = dump_canonical(payload)
    try:
        mode = os.lstat(path).st_mode if atomic else None
    except OSError:
        mode = None
    if not atomic or (mode is not None and not stat.S_ISREG(mode)):
        path.write_text(text, encoding="utf-8")
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def _check_version(payload: Any, path: str | Path) -> None:
    if not isinstance(payload, dict) or "qurg_fmt" not in payload:
        raise FormatVersionError(f"{path}: missing qurg_fmt version field")
    version = payload["qurg_fmt"]
    # ``True == 1`` in Python, but JSON true is not a version number.
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise FormatVersionError(f"{path}: unsupported format version {version!r}")


_NUMBER = (int, float)
_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", int: "an integer", _NUMBER: "a number",
}


def _expect(value: Any, kind: type | tuple[type, ...], where: str) -> Any:
    # JSON true/false are not numbers, although Python's bool subclasses int.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DatasetError(f"{where}: expected {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def _field(
    record: Any, key: str, where: str, kind: type | tuple[type, ...] | None = None
) -> Any:
    """``record[key]``, checking that ``record`` is an object holding ``key``
    and, when ``kind`` is given, that the value has that JSON type."""
    if key not in _expect(record, dict, where):
        raise DatasetError(f"{where}: missing required field {key!r}")
    return record[key] if kind is None else _expect(record[key], kind, where)


def _strings(value: Any, where: str) -> tuple[str, ...]:
    """A JSON array of strings; a bare string is not read as characters."""
    return tuple(_expect(tok, str, where) for tok in _expect(value, list, where))


def _tokens(value: Any, where: str) -> TokenSeq:
    """A JSON array of tokens, for values that no constructor checks."""
    return _constructed(where, token_seq, _strings(value, where))


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


def load_interactions(path: str | Path, format: str = "native") -> list[Interaction]:
    """Load interactions from the native JSON document (or SParC-style JSON).

    An empty (zero-byte or whitespace-only) file yields an empty list.
    """
    if format not in ("native", "sparc"):
        raise ValueError(f"unknown interactions format {format!r}")
    text = read_text(path)
    if not text.strip():
        return []
    payload = _parse_json(text, path)
    if format == "sparc":
        return convert_sparc_interactions(payload)
    _check_version(payload, path)
    records = _field(payload, "interactions", str(path), list)
    out: list[Interaction] = []
    for pos, record in enumerate(records):
        where = f"{path}: interaction {pos}"
        utterances = _field(record, "utterances", where, list)
        if not utterances:
            raise DatasetError(f"{where}: empty interaction")
        turns = [tokenize(_expect(u, str, where)) for u in utterances]
        if not turns[-1]:
            raise DatasetError(f"{where}: current question has no tokens")
        # A missing, null or empty rewrite means none; other non-strings are errors.
        rewrite = record.get("rewrite")
        if rewrite is not None and _expect(rewrite, str, f"{where}: rewrite"):
            rewrite = tokenize(rewrite)
        else:
            rewrite = None
        out.append(
            Interaction(
                tuple(turns[:-1]),
                turns[-1],
                rewrite,
                interaction_id=_expect(record.get("id", str(pos)), str, f"{where}: id"),
            )
        )
    return out


def save_interactions(path: str | Path, interactions: Sequence[Interaction]) -> None:
    records = []
    for inter in interactions:
        record: dict[str, Any] = {
            "id": inter.interaction_id,
            "utterances": [" ".join(t) for t in (*inter.context_turns, inter.question)],
        }
        if inter.gold_rewrite is not None:
            record["rewrite"] = " ".join(inter.gold_rewrite)
        records.append(record)
    write_json(path, {"qurg_fmt": FORMAT_VERSION, "interactions": records})


def convert_sparc_interactions(raw: Sequence[Mapping[str, Any]]) -> list[Interaction]:
    """Adapt raw SParC/CoSQL-style JSON: every turn of every interaction
    becomes one Interaction with the cumulative preceding turns as context."""
    out: list[Interaction] = []
    for pos, entry in enumerate(_expect(raw, list, "SParC file")):
        where = f"interaction {pos}"
        items = _expect(_expect(entry, dict, where).get("interaction", []), list, where)
        turns = [
            tokenize(_field(item, "utterance", f"{where}: turn {t + 1}", str))
            for t, item in enumerate(items)
        ]
        for t in range(len(turns)):
            if not turns[t]:
                raise DatasetError(f"interaction {pos}: turn {t + 1} has no tokens")
            out.append(
                Interaction(
                    tuple(turns[:t]),
                    turns[t],
                    None,
                    interaction_id=f"{entry.get('database_id', pos)}#{pos}.{t + 1}",
                )
            )
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
        if "qurg_fmt" in record:
            _check_version(record, where)
        history = [
            tokenize(_expect(turn, str, f"{where}: history"))
            for turn in _field(record, "history", where, list)
        ]
        question = tokenize(_field(record, "question", where, str))
        rewrite = tokenize(_field(record, "rewrite", where, str))
        example_id = _expect(_field(record, "id", where), str, f"{where}: id")
        if example_id in seen:
            raise DatasetError(f"{where}: duplicate example id {example_id!r}")
        seen.add(example_id)
        if not question:
            raise DatasetError(f"{where}: question has no tokens")
        if not rewrite:
            raise DatasetError(f"{where}: rewrite has no tokens")
        examples.append(Interaction(tuple(history), question, rewrite, example_id))
    return examples


def save_rewrite_corpus(path: str | Path, examples: Iterable[Interaction]) -> None:
    """Write interactions as a rewrite corpus; each must carry a gold rewrite."""
    with open(path, "w", encoding="utf-8") as handle:
        for ex in examples:
            if ex.gold_rewrite is None:
                raise ValueError(f"interaction {ex.interaction_id!r} has no gold rewrite")
            handle.write(
                dump_canonical(
                    {
                        "qurg_fmt": FORMAT_VERSION,
                        "history": [" ".join(t) for t in ex.context_turns],
                        "question": " ".join(ex.question),
                        "rewrite": " ".join(ex.gold_rewrite),
                        "id": ex.interaction_id,
                    }
                )
            )


def _cells_payload(matrix: RewriteEditMatrix | SchemaLinkMatrix) -> list[dict[str, Any]]:
    return [{"i": i, "j": j, "rel": rel.value} for i, j, rel in matrix.sorted_cells()]


def _parse_cells(
    payload: Mapping[str, Any], path: str | Path, size: int, relations: type[Enum]
) -> dict[tuple[int, int], Any]:
    """The ``cells`` array of a matrix file, each an in-bounds ``(i, j)``
    with a relation of the family ``relations``, by name; a repeated
    ``(i, j)`` is an error."""
    cells: dict[tuple[int, int], Any] = {}
    for pos, cell in enumerate(_field(payload, "cells", str(path), list)):
        _expect(cell, dict, f"{path}: cell {pos}")
        i, j, name = cell.get("i"), cell.get("j"), cell.get("rel")
        try:
            rel = relations(name)
        except ValueError:
            raise DatasetError(f"{path}: cell ({i},{j}) has unknown relation {name!r}") from None
        if not (_is_index(i, size) and _is_index(j, size)):
            raise DatasetError(f"{path}: cell ({i},{j}) out of bounds for size {size}")
        if (i, j) in cells:
            raise DatasetError(f"{path}: cell ({i},{j}) appears more than once")
        cells[(i, j)] = rel
    return cells


def save_matrix(path: str | Path, matrix: RewriteEditMatrix) -> None:
    """Write a rewrite edit matrix; cells sorted by (i, j) for determinism."""
    write_json(
        path,
        {
            "qurg_fmt": FORMAT_VERSION,
            "context_tokens": list(matrix.context_tokens),
            "question_tokens": list(matrix.question_tokens),
            "cells": _cells_payload(matrix),
        },
    )


def load_matrix(path: str | Path) -> RewriteEditMatrix:
    """Load an edit matrix file; a matrix its constructor rejects, such as
    one with a cell that lacks its mirror, fails to load."""
    payload = read_json(path)
    _check_version(payload, path)
    context = _strings(_field(payload, "context_tokens", str(path)), f"{path}: context_tokens")
    question = _strings(_field(payload, "question_tokens", str(path)), f"{path}: question_tokens")
    cells = _parse_cells(payload, path, len(context) + len(question), RewriteRelation)
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
    """Write a linking matrix atomically: it is a run's one output file."""
    write_json(
        path,
        {
            "qurg_fmt": FORMAT_VERSION,
            "question_tokens": list(matrix.question_tokens),
            "context_tokens": list(matrix.context_tokens),
            **_schema_payload(matrix.schema),
            "relations": list(LINK_RELATION_NAMES),
            "cells": _cells_payload(matrix),
        },
        atomic=True,
    )


def load_link_matrix(path: str | Path) -> SchemaLinkMatrix:
    payload = read_json(path)
    _check_version(payload, path)
    schema = _schema_from_payload(payload, path)
    question = _tokens(_field(payload, "question_tokens", str(path)), f"{path}: question_tokens")
    context = _tokens(_field(payload, "context_tokens", str(path)), f"{path}: context_tokens")
    matrix = SchemaLinkMatrix(question, context, schema)
    matrix.cells.update(_parse_cells(payload, path, matrix.size, LinkRelation))
    return matrix


def _schema_from_payload(payload: Mapping[str, Any], path: str | Path) -> Schema:
    def column(idx: int, record: Any) -> Column:
        where = f"{path}: column {idx}"
        return Column(
            _strings(_field(record, "name", where), where),
            _field(record, "table", where),
            _expect(record.get("type", "text"), str, where),
        )

    def indices(value: Any, where: str) -> tuple[int, ...]:
        return tuple(_expect(idx, int, where) for idx in _expect(value, list, where))

    tables = _field(payload, "tables", str(path), list)
    columns = _field(payload, "columns", str(path), list)
    foreign_keys = _expect(payload.get("foreign_keys", []), list, f"{path}: foreign_keys")
    return _constructed(
        path,
        Schema,
        tuple(_strings(name, f"{path}: table {idx}") for idx, name in enumerate(tables)),
        tuple(column(idx, record) for idx, record in enumerate(columns)),
        indices(payload.get("primary_keys", []), f"{path}: primary_keys"),
        tuple(indices(fk, f"{path}: foreign key {idx}") for idx, fk in enumerate(foreign_keys)),
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
    """Write a score report atomically: it records a finished run."""
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
        atomic=True,
    )


def load_rouge_report(path: str | Path) -> CorpusRougeReport:
    payload = read_json(path)
    _check_version(payload, path)
    where = str(path)

    def score(key: str) -> RougeScore:
        block = _expect(_field(payload, key, where), dict, f"{where}: {key}")
        values = []
        for name in ("precision", "recall", "f1"):
            value = _field(block, name, f"{where}: {key}", _NUMBER)
            # Also keeps NaN out, and integers too large for a float.
            if not 0 <= value <= 1:
                raise DatasetError(f"{where}: {key}: {name} must be in [0, 1], got {value!r:.40}")
            values.append(float(value))
        return RougeScore(*values)

    pairs = _expect(_field(payload, "pairs", where), int, f"{where}: pairs")
    if pairs < 0:
        raise DatasetError(f"{where}: pairs must be non-negative, got {pairs}")
    return CorpusRougeReport(score("r1"), score("r2"), score("rl"), pairs)
