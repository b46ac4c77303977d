"""Seeded random input generators shared across test modules."""

from __future__ import annotations

import random
from typing import NamedTuple

from qurg.rewrite_diff import Interaction, MatchPolicy

VOCAB = [
    "city", "cities", "flight", "flights", "name", "names",
    "show", "me", "all", "of", "the", "most", "?",
]

# Case and plural variants: "cities" matches both "citie" and "city", which
# do not match each other; "buss" and "bus" match only under stemming.
VARIANT_VOCAB = ["City", "city", "cities", "citie", "bus", "buss", "Bus", "name", "id", "?"]

# Every MatchPolicy setting.
POLICIES = tuple(
    MatchPolicy(lowercase, plural_stem)
    for lowercase in (True, False)
    for plural_stem in (True, False)
)


def random_tokens(rng: random.Random, lo: int, hi: int, vocab=VOCAB) -> tuple[str, ...]:
    return tuple(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))


def random_triple(rng: random.Random) -> tuple[Interaction, tuple[str, ...]]:
    """A messy random (interaction, rewrite) pair: half the rewrites are
    unrelated, half are question mutations that splice context words in."""
    turns = tuple(random_tokens(rng, 2, 8) for _ in range(rng.randint(1, 3)))
    question = random_tokens(rng, 1, 8)
    if rng.random() < 0.5:
        rewrite = random_tokens(rng, 1, 8)
    else:
        flat = [tok for turn in turns for tok in turn]
        out = list(question)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(out) + 1)
            span_len = rng.randint(1, min(3, len(flat)))
            start = rng.randrange(len(flat) - span_len + 1)
            out[pos:pos] = flat[start : start + span_len]
        if rng.random() < 0.4 and len(out) > 1:
            del out[rng.randrange(len(out))]
        rewrite = tuple(out)
    return Interaction(turns, question), rewrite


class SpliceExample(NamedTuple):
    """A (history, question, rewrite) triple under its id; the benchmark's
    input generator reads these four fields."""

    history: tuple[tuple[str, ...], ...]
    question: tuple[str, ...]
    rewrite: tuple[str, ...]
    example_id: str

    def interaction(self) -> Interaction:
        return Interaction(self.history, self.question, self.rewrite, self.example_id)


def make_splice_example(rng: random.Random, idx: int) -> SpliceExample:
    """A triple whose rewrite is the question with verbatim context spans
    substituted in or inserted, spaced so that no two edits become adjacent
    in the rewrite.  Such triples round-trip exactly through the matrix.
    """
    qlen = rng.randint(4, 9)
    question = tuple(f"q{idx}x{k}" for k in range(qlen))
    turns = tuple(
        tuple(f"c{idx}t{t}x{k}" for k in range(rng.randint(3, 8)))
        for t in range(rng.randint(1, 2))
    )
    flat = [tok for turn in turns for tok in turn]

    used: set[int] = set()

    def pick_span(max_len: int) -> tuple[int, int] | None:
        for _ in range(20):
            width = rng.randint(1, max_len)
            if len(flat) < width:
                continue
            start = rng.randrange(len(flat) - width + 1)
            if all(start + k not in used for k in range(width)):
                used.update(range(start, start + width))
                return start, start + width
        return None

    ops: list[tuple[str, int, int, tuple[int, int]]] = []
    pos = 1
    while pos <= qlen - 2:
        roll = rng.random()
        if roll < 0.35:
            length = rng.randint(1, min(2, qlen - 1 - pos))
            span = pick_span(3)
            if span:
                ops.append(("sub", pos, length, span))
            pos += length + 2
        elif roll < 0.6:
            span = pick_span(2)
            if span:
                ops.append(("ins", pos, 0, span))
            pos += 2
        else:
            pos += 1

    out: list[str] = []
    for qi in range(qlen):
        for kind, at, _, (cs, ce) in ops:
            if kind == "ins" and at == qi:
                out.extend(flat[cs:ce])
        covered = any(kind == "sub" and at <= qi < at + length
                      for kind, at, length, _ in ops)
        for kind, at, _, (cs, ce) in ops:
            if kind == "sub" and at == qi:
                out.extend(flat[cs:ce])
        if not covered:
            out.append(question[qi])
    return SpliceExample(turns, question, tuple(out), f"ex{idx:04d}")
