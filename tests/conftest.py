from __future__ import annotations

import json
from pathlib import Path

import pytest

from qurg.rewrite_diff import Interaction, build_from_interaction
from qurg.schema_link import Column, Schema

FIXTURES = Path(__file__).parent / "fixtures"

FLIGHTS_CONTEXT = tuple("how many arriving flights are there in each of the cities ?".split())
FLIGHTS_QUESTION = tuple("which one has the most ?".split())
FLIGHTS_REWRITE = tuple("which city has the most arriving flights ?".split())


def flights_matrix_payload() -> dict:
    """The matrix file of the flights example, as a JSON value."""
    matrix = build_from_interaction(
        Interaction((FLIGHTS_CONTEXT,), FLIGHTS_QUESTION), FLIGHTS_REWRITE
    )
    return {
        "qurg_fmt": 1,
        "context_tokens": list(FLIGHTS_CONTEXT),
        "question_tokens": list(FLIGHTS_QUESTION),
        "cells": [{"i": i, "j": j, "rel": rel.value} for i, j, rel in matrix.sorted_cells()],
    }


# The edit matrices that ``RewriteEditMatrix`` refuses to make, by what is
# wrong with them: (context, question, cells as ``(i, j, relation name)``).
MALFORMED_MATRICES = {
    "mirror-missing": (["a", "b"], ["q"], [(0, 2, "C-Q-Sub")]),
    "mirror-mismatched": (["a", "b"], ["q"], [(0, 2, "C-Q-Sub"), (2, 0, "Q-C-Ins")]),
    "outside-block": (["a", "b"], ["q"], [(0, 1, "C-Q-Sub"), (1, 0, "Q-C-Sub")]),
    "append-outside-last-column": (
        ["a"], ["q", "r"], [(0, 1, "C-Q-App"), (1, 0, "Q-C-App")]
    ),
    "insert-append-outside-last-column": (
        ["a"], ["q", "r"], [(0, 1, "C-Q-Ins-App"), (1, 0, "Q-C-Ins-App")]
    ),
    "append-with-insert-mirror": (["a"], ["q", "r"], [(0, 2, "C-Q-App"), (2, 0, "Q-C-Ins")]),
    "insert-append-with-insert-mirror": (
        ["a"], ["q", "r"], [(0, 2, "C-Q-Ins-App"), (2, 0, "Q-C-Ins")]
    ),
}


def malformed_matrix_payload(case: str) -> dict:
    """The matrix file of one of ``MALFORMED_MATRICES``, as a JSON value."""
    context, question, cells = MALFORMED_MATRICES[case]
    return {
        "qurg_fmt": 1,
        "context_tokens": context,
        "question_tokens": question,
        "cells": [{"i": i, "j": j, "rel": rel} for i, j, rel in cells],
    }


def corpus_record() -> dict:
    """The first example of ``corpus_small.jsonl``, as a JSON value."""
    return json.loads((FIXTURES / "corpus_small.jsonl").read_text().splitlines()[0])


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def flights_interaction() -> Interaction:
    return Interaction(
        (FLIGHTS_CONTEXT,), FLIGHTS_QUESTION, FLIGHTS_REWRITE, interaction_id="flights-t2"
    )


@pytest.fixture
def toy_schema() -> Schema:
    return Schema(
        tables=(("city",), ("flight",)),
        columns=(
            Column(("city", "id"), 0, "number"),
            Column(("city", "name"), 0, "text"),
            Column(("flight", "id"), 1, "number"),
            Column(("origin", "city", "id"), 1, "number"),
            Column(("arriving", "flights"), 1, "number"),
        ),
        primary_keys=frozenset({0, 2}),
        foreign_keys=frozenset({(3, 0)}),
    )
