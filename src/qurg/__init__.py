"""Deterministic core of a rewrite-guided conversational text-to-SQL
preprocessor: edit-matrix construction, question restoration, ROUGE
scoring, schema linking, and a two-stream relation-aware encoder."""

from .rewrite_diff import (
    EditConflictError,
    EditOp,
    EditSpan,
    Interaction,
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
from .rewrite_restore import MalformedMatrixError, RestoredQuestion, restore
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
    RewriteExample,
    load_interactions,
    load_matrix,
    load_rewrite_corpus,
    load_schema,
    save_matrix,
    tokenize,
)
from .rat_encoder import (
    EncodedStates,
    EncoderConfig,
    EncoderParams,
    RatLayerParams,
    embed_inputs,
    encode_interaction,
    init_params,
    layer_backward,
    rat_layer_forward,
    two_stream_encode,
    vanilla_layer_forward,
)

__version__ = "0.1.0"
