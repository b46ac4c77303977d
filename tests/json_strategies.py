"""Hypothesis strategies for arbitrary and nearly valid JSON input files.

``json_values`` draws any JSON value, biased toward the keys and scalars
the loaders look for.  ``near_valid(base)`` takes a valid payload and
replaces one value somewhere inside it with such a value, so the draws
reach the checks deep inside a loader, not only its first type test.
"""

from __future__ import annotations

import copy
from typing import Any

from hypothesis import strategies as st

KEYS = (
    "qurg_fmt", "tables", "columns", "name", "table", "type", "primary_keys",
    "foreign_keys", "question_tokens", "context_tokens", "cells", "i", "j",
    "rel", "interactions", "utterances", "rewrite", "id", "interaction",
    "utterance", "database_id",
)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.integers()
    | st.floats()
    | st.sampled_from(["", "a", "a b", " ", "text", "blob", "city", "Exact-Table-Match"])
    | st.text(max_size=4)
)

json_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=6)
    ),
    max_leaves=24,
)


@st.composite
def near_valid(draw: st.DrawFn, base: Any) -> Any:
    """``base`` with one value, at a drawn depth, replaced by a drawn JSON
    value (the whole payload when ``base`` is a scalar or empty)."""
    payload = copy.deepcopy(base)
    node = payload
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        node[key] = draw(json_values)
        return payload
    return draw(json_values)


def json_files(base: Any) -> st.SearchStrategy[Any]:
    """A JSON value for a file a loader reads: arbitrary, a versioned object
    of arbitrary fields, or ``base`` with one value replaced."""
    versioned = st.dictionaries(st.sampled_from(KEYS), json_values, max_size=6).map(
        lambda fields: {**fields, "qurg_fmt": 1}
    )
    return json_values | versioned | near_valid(base)
