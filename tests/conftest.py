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
