"""Deterministic core of a rewrite-guided conversational text-to-SQL
preprocessor: edit-matrix construction, question restoration, ROUGE
scoring, schema linking, and a two-stream relation-aware encoder."""

from .rewrite_diff import (
    EditConflictError,
    EditOp,
    EditSpan,
    Interaction,
    MalformedMatrixError,
    MatchPolicy,
    OpKind,
    RewriteEditMatrix,
    RewriteRelation,
    SpanKind,
    TokenSeq,
    build_from_interaction,
    build_rewrite_matrix,
    extract_edit_ops,
    lcs,
    tag_edits,
    token_seq,
)
from .rewrite_restore import RestoredQuestion, restore
from .rouge_eval import CorpusRougeReport, RougeScore, corpus_rouge, rouge_l, rouge_n
from .schema_link import (
    Column,
    LinkRelation,
    Schema,
    SchemaError,
    SchemaLinkMatrix,
    build_schema_link_matrix,
    link_stats,
)
from .dataset_io import (
    DatasetError,
    FormatVersionError,
    load_interactions,
    load_matrix,
    load_rewrite_corpus,
    load_schema,
    save_matrix,
    tokenize,
)

# The encoder, and numpy with it, is imported on first use of one of these
# names (see ``__getattr__``), so a program that never encodes never loads it.
_ENCODER_NAMES = (
    "EncodedStates", "EncoderConfig", "EncoderParams", "RatLayerParams", "embed_inputs",
    "encode_interaction", "init_params", "layer_backward", "rat_layer_forward",
    "two_stream_encode", "vanilla_layer_forward",
)

__all__ = [
    "dataset_io", "rat_encoder", "rewrite_diff", "rewrite_restore", "rouge_eval", "schema_link",
    "EditConflictError", "EditOp", "EditSpan", "Interaction", "MatchPolicy", "OpKind",
    "RewriteEditMatrix", "RewriteRelation", "SpanKind", "TokenSeq", "build_from_interaction",
    "build_rewrite_matrix", "extract_edit_ops", "lcs", "tag_edits", "token_seq",
    "MalformedMatrixError", "RestoredQuestion", "restore",
    "CorpusRougeReport", "RougeScore", "corpus_rouge", "rouge_l", "rouge_n",
    "Column", "LinkRelation", "Schema", "SchemaError", "SchemaLinkMatrix",
    "build_schema_link_matrix", "link_stats",
    "DatasetError", "FormatVersionError", "load_interactions", "load_matrix",
    "load_rewrite_corpus", "load_schema", "save_matrix", "tokenize",
    *_ENCODER_NAMES,
]


def __getattr__(name: str) -> object:
    if name != "rat_encoder" and name not in _ENCODER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # Importing the submodule binds ``rat_encoder`` here; binding the names
    # too makes this run once.
    encoder = import_module(".rat_encoder", __name__)
    globals().update((key, getattr(encoder, key)) for key in _ENCODER_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
