from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

from qurg.dataset_io import load_schema
from qurg.rewrite_diff import Interaction, build_from_interaction
from qurg.schema_link import Column, Schema, build_schema_link_matrix

FIXTURES = Path(__file__).parent / "fixtures"

# CI selects "ci": a failing property test prints the blob that reproduces
# it with ``@reproduce_failure``, and no example database is read or kept.
settings.register_profile("ci", database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

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


def flights_link_matrix_payload() -> dict:
    """The linking matrix file of the flights example against
    ``schema_flights.json``, as a JSON value."""
    schema_payload = json.loads((FIXTURES / "schema_flights.json").read_text())
    schema = load_schema(FIXTURES / "schema_flights.json")
    matrix = build_schema_link_matrix(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, schema)
    return {
        "qurg_fmt": 1,
        "question_tokens": list(FLIGHTS_QUESTION),
        "context_tokens": list(FLIGHTS_CONTEXT),
        **schema_payload,
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
    "boolean-index": (["a"], ["q"], [(0, True, "C-Q-Sub"), (True, 0, "Q-C-Sub")]),
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


# The schema of ``MALFORMED_LINK_MATRICES``.  With the question "q" and the
# context "c", its table "t" sits at position 2 and its columns at 3 and 4;
# column "a" is the primary key, and "b" has a foreign key to it.
LINK_SCHEMA_PAYLOAD = {
    "tables": [["t"]],
    "columns": [{"name": ["a"], "table": 0, "type": "text"},
                {"name": ["b"], "table": 0, "type": "text"}],
    "primary_keys": [0],
    "foreign_keys": [[1, 0]],
}
LINK_SCHEMA = Schema(
    (("t",),), (Column(("a",), 0), Column(("b",), 0)), frozenset({0}), frozenset({(1, 0)})
)
# The structure cells that ``LINK_SCHEMA`` gives, as ``(i, j, relation name)``.
LINK_STRUCTURE = [
    (3, 2, "Primary-Key-Of"), (2, 3, "Has-Primary-Key"),
    (4, 2, "Column-Belongs-To-Table"), (2, 4, "Table-Has-Column"),
    (4, 3, "Foreign-Key-Forward"), (3, 4, "Foreign-Key-Backward"),
]


def _structure_with(drop: tuple = (), add: tuple = ()) -> list:
    """``LINK_STRUCTURE`` without the cells at ``drop``, plus ``add``."""
    return [cell for cell in LINK_STRUCTURE if cell[:2] not in drop] + list(add)


# The linking matrices that ``SchemaLinkMatrix`` refuses to make, by what is
# wrong with them: cells as ``(i, j, relation name)``.
MALFORMED_LINK_MATRICES = {
    "question-to-context": [(0, 1, "Exact-Table-Match")],
    "mirror-missing": [(0, 2, "Exact-Table-Match")],
    "mirror-mismatched": [(0, 2, "Exact-Table-Match"), (2, 0, "Partial-Table-Match-Rev")],
    "table-match-into-column": [(0, 3, "Exact-Table-Match"), (3, 0, "Exact-Table-Match-Rev")],
    "primary-key-between-columns": [(3, 4, "Primary-Key-Of"), (4, 3, "Has-Primary-Key")],
    "boolean-index": [(True, 2, "Exact-Table-Match"), (2, True, "Exact-Table-Match-Rev")],
    # Block and mirror are right, but the schema gives other structure cells.
    "undeclared-primary-key": _structure_with(
        drop=((4, 2), (2, 4)), add=((4, 2, "Primary-Key-Of"), (2, 4, "Has-Primary-Key"))
    ),
    "ownership-missing": _structure_with(drop=((4, 2), (2, 4))),
    "invented-same-table": _structure_with(add=((3, 3, "Same-Table-Columns"),)),
    "foreign-key-reversed": _structure_with(
        drop=((4, 3), (3, 4)),
        add=((3, 4, "Foreign-Key-Forward"), (4, 3, "Foreign-Key-Backward")),
    ),
}


def malformed_link_matrix_payload(case: str) -> dict:
    """The linking matrix file of one of ``MALFORMED_LINK_MATRICES``, as a
    JSON value."""
    return {
        "qurg_fmt": 1,
        "question_tokens": ["q"],
        "context_tokens": ["c"],
        **LINK_SCHEMA_PAYLOAD,
        "cells": [{"i": i, "j": j, "rel": rel} for i, j, rel in MALFORMED_LINK_MATRICES[case]],
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
