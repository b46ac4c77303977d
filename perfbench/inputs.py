"""Seeded input generation for the four workloads.

The generator runs in the benchmark's parent process, so its memory is not
counted in the program's peak RSS.  It writes plain files that the program
reads through its own loaders: JSON-lines rewrite corpora, native
interaction files and schema files.  The same seed gives the same files.

Shapes that decide the program's cost (shard sizes, turn counts, turn
lengths, schema sizes) are constants; the seed varies token identities,
edit positions and spans.  That keeps per-op cost nearly the same on every
seed, so the spread between runs measures the machine, not the inputs.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_make_splice_example():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from generators import make_splice_example

    return make_splice_example


# Corpus workloads: (shards per round, examples per shard).
SHARDS = {
    "roundtrip-short": (16, 300),
    "build-matrix-longturn": (8, 80),
}
QUICK_SHARDS = {
    "roundtrip-short": (2, 40),
    "build-matrix-longturn": (2, 12),
}

# Per-turn workloads: dialogues per round, turns per dialogue, tokens per turn.
# An odd turn count puts the median op inside one turn's cluster of costs
# rather than in the gap between two.
DIALOGUES = {"encode-turns": 2, "schema-link-wide": 4}
QUICK_DIALOGUES = {"encode-turns": 1, "schema-link-wide": 1}
TURNS = 5
TURN_TOKENS = 15

TABLE_WORDS = (
    "city", "flight", "airport", "airline", "pilot", "crew", "passenger",
    "ticket", "route", "gate", "terminal", "country", "region", "carrier",
    "aircraft", "booking", "fare", "seat", "schedule", "delay", "runway",
    "baggage", "meal", "lounge", "hangar", "employee", "company", "museum",
    "student", "course", "teacher", "library", "journey", "party", "category",
)
COLUMN_WORDS = (
    "name", "id", "code", "date", "time", "price", "count", "capacity",
    "distance", "rank", "status", "type", "year", "number", "age", "length",
    "weight", "speed", "altitude", "origin", "destination", "departure",
    "arrival", "duration", "revenue", "score", "level", "size", "zone",
    "city", "country", "amount", "salary", "budget", "title", "phone",
    "address", "email", "rating", "total",
)
FILLER_WORDS = (
    "show", "me", "the", "all", "which", "of", "with", "for", "each", "and",
    "how", "many", "what", "list", "by", "in", "that", "has", "most", "only",
    "their", "those", "give", "find", "than", "more", "least", "order",
)


def _long_splice_example(rng: random.Random, idx: int) -> tuple[list, list, list, str]:
    """A long-turn triple built the way ``tests/generators.make_splice_example``
    builds short ones: unique question and context tokens, verbatim context
    spans substituted in or inserted, no two edits adjacent in the rewrite.
    Such a triple must restore exactly.  Longer questions (16-24 tokens),
    4-6 context turns of 8-16 tokens, several edits each.  The sizes cycle
    with ``idx``, so every shard holds the same mix of sizes."""
    qlen = 16 + idx % 9
    question = [f"q{idx}x{k}" for k in range(qlen)]
    turns = [
        [f"c{idx}t{t}x{k}" for k in range(8 + (idx + 3 * t) % 9)]
        for t in range(4 + idx % 3)
    ]
    flat = [tok for turn in turns for tok in turn]
    free = set(range(len(flat)))

    def take_span(max_width: int) -> tuple[int, int] | None:
        for _ in range(20):
            width = rng.randint(1, max_width)
            start = rng.randrange(len(flat) - width + 1)
            if all(k in free for k in range(start, start + width)):
                free.difference_update(range(start, start + width))
                return start, start + width
        return None

    subs: dict[int, tuple[int, tuple[int, int]]] = {}  # question pos -> (length, span)
    inserts: dict[int, tuple[int, int]] = {}  # question pos -> span
    pos = 1
    while pos <= qlen - 2:
        roll = rng.random()
        if roll < 0.35:
            length = rng.randint(1, min(2, qlen - 1 - pos))
            span = take_span(3)
            if span:
                subs[pos] = (length, span)
            pos += length + 2
        elif roll < 0.65:
            span = take_span(2)
            if span:
                inserts[pos] = span
            pos += 2
        else:
            pos += 1

    rewrite: list[str] = []
    skip_until = 0
    for qi, tok in enumerate(question):
        if qi in inserts:
            cs, ce = inserts[qi]
            rewrite.extend(flat[cs:ce])
        if qi in subs:
            length, (cs, ce) = subs[qi]
            rewrite.extend(flat[cs:ce])
            skip_until = qi + length
        if qi >= skip_until:
            rewrite.append(tok)
    return turns, question, rewrite, f"lt{idx:05d}"


def _corpus_line(history, question, rewrite, example_id) -> str:
    record = {
        "history": [" ".join(turn) for turn in history],
        "question": " ".join(question),
        "rewrite": " ".join(rewrite),
        "id": example_id,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def _write_corpus(workload: str, seed: int, out: Path, quick: bool) -> dict:
    shards, size = (QUICK_SHARDS if quick else SHARDS)[workload]
    if workload == "roundtrip-short":
        make_splice_example = _import_make_splice_example()
    manifest = []
    for shard in range(shards):
        rng = random.Random(f"{workload}/{seed}/{shard}")
        lines = []
        rewrites = {}
        for idx in range(size):
            if workload == "roundtrip-short":
                ex = make_splice_example(rng, idx)
                triple = (ex.history, ex.question, ex.rewrite, ex.example_id)
            else:
                triple = _long_splice_example(rng, idx)
            lines.append(_corpus_line(*triple))
            rewrites[triple[3]] = list(triple[2])
        path = out / f"shard{shard:02d}.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        manifest.append({"corpus": path.name, "examples": size, "rewrites": rewrites})
    return {"shards": manifest}


def _variant(rng: random.Random, word: str) -> str:
    """The word as a user might type it: sometimes plural, sometimes capitalized."""
    if rng.random() < 0.3 and not word.endswith("s"):
        word = word[:-1] + "ies" if word.endswith("y") and len(word) > 1 else word + "s"
    if rng.random() < 0.2:
        word = word.capitalize()
    return word


def _schema(
    rng: random.Random,
    tables: int,
    columns_per_table: int,
    column_widths: tuple[int, ...],
    two_word_tables: bool,
) -> dict:
    """A schema file payload.  Each table's first column is "<table> id",
    its primary key; every second table has a foreign key to the one before.
    Name widths cycle by position, so the seed changes words, not sizes."""
    table_names = [
        [word, rng.choice(COLUMN_WORDS)] if two_word_tables and t % 5 in (1, 3) else [word]
        for t, word in enumerate(rng.sample(TABLE_WORDS, tables))
    ]
    columns = []
    primary_keys = []
    for t, name in enumerate(table_names):
        primary_keys.append(len(columns))
        columns.append({"name": [name[0], "id"], "table": t, "type": "number"})
        for word in rng.sample(COLUMN_WORDS[2:], columns_per_table - 1):
            words = [rng.choice(name), word, rng.choice(COLUMN_WORDS)]
            width = column_widths[len(columns) % len(column_widths)]
            words = words[1:2] if width == 1 else words[:width]
            columns.append({"name": words, "table": t, "type": "text"})
    foreign_keys = [
        [primary_keys[t] + 1, primary_keys[t - 1]] for t in range(1, tables, 2)
    ]
    return {
        "qurg_fmt": 1,
        "tables": table_names,
        "columns": columns,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
    }


def _utterance(rng: random.Random, names: list[list[str]]) -> list[str]:
    tokens: list[str] = []
    while len(tokens) < TURN_TOKENS - 1:
        if rng.random() < 0.45:
            tokens.extend(_variant(rng, w) for w in rng.choice(names))
        else:
            tokens.append(rng.choice(FILLER_WORDS))
    return tokens[: TURN_TOKENS - 1] + ["?"]


def _rewrite(rng: random.Random, question: list[str], context: list[str]) -> list[str]:
    """The question with one context span substituted for a question token
    and one inserted further right.  Spans skip "?" and the final "?" stays,
    so the edits never touch the question's last token."""
    words = [k for k, tok in enumerate(context) if tok != "?"]

    def span(max_width: int) -> list[str]:
        start = rng.choice(words)
        width = rng.randint(1, max_width)
        out = []
        for tok in context[start : start + width]:
            if tok == "?":
                break
            out.append(tok)
        return out

    sub_at = rng.randint(1, 4)
    ins_at = rng.randint(sub_at + 3, len(question) - 2)
    return (
        question[:sub_at]
        + span(3)
        + question[sub_at + 1 : ins_at]
        + span(2)
        + question[ins_at:]
    )


def _write_dialogues(workload: str, seed: int, out: Path, quick: bool) -> dict:
    if workload == "encode-turns":
        # One fixed schema: 8 one-word tables, 5 two-word columns each.
        schema = _schema(random.Random("encode-turns/schema"), 8, 5, (2,), False)
    else:
        # A wide seeded schema: 25 tables, 6 columns each of 1-3 words.
        schema = _schema(
            random.Random(f"{workload}/{seed}/schema"), 25, 6, (1, 2, 3), True
        )
    names = schema["tables"] + [col["name"] for col in schema["columns"]]
    rng = random.Random(f"{workload}/{seed}/dialogues")
    records = []
    for d in range((QUICK_DIALOGUES if quick else DIALOGUES)[workload]):
        turns = [_utterance(rng, names) for _ in range(TURNS)]
        for t in range(TURNS):
            context = [tok for turn in turns[:t] for tok in turn]
            rewrite = _rewrite(rng, turns[t], context) if t else turns[t]
            records.append(
                {
                    "id": f"d{d}.t{t + 1}",
                    "utterances": [" ".join(turn) for turn in turns[: t + 1]],
                    "rewrite": " ".join(rewrite),
                }
            )
    (out / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (out / "interactions.json").write_text(
        json.dumps({"qurg_fmt": 1, "interactions": records}), encoding="utf-8"
    )
    return {"schema": "schema.json", "interactions": "interactions.json", "turns": len(records)}


def write_inputs(workload: str, seed: int, out: Path, quick: bool) -> dict:
    """Write the workload's input files under ``out``; return the manifest
    the worker reads to know its ops."""
    out.mkdir(parents=True, exist_ok=True)
    if workload in SHARDS:
        manifest = _write_corpus(workload, seed, out, quick)
    else:
        manifest = _write_dialogues(workload, seed, out, quick)
    manifest["workload"] = workload
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
