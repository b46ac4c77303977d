"""Spans and counts around the program's public functions, from outside.

Each target names a function by the module where its caller looks it up,
and the tracer replaces that module attribute with a wrapper for the
length of a traced round.  A wrapper opens a span (name, op id, parent
span, CPU and wall start and end) only while an op is running; outside an
op it calls straight through.  Counts are taken from the arguments and
results the wrappers saw, after the op's clocks have stopped, so counting
costs the op nothing.  A target that no longer exists is listed as missing
and skipped, so the trace keeps working after a rename.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter

# (module, attribute, span name).  The layer wrapper picks its span name
# per call, from the relation vocabulary of the layer it runs.
TARGETS = (
    ("qurg.dataset_io", "load_rewrite_corpus", "dataset_io.load_rewrite_corpus"),
    ("qurg.dataset_io", "save_matrix", "dataset_io.save_matrix"),
    ("qurg.rewrite_diff", "lcs", "rewrite_diff.lcs"),
    ("qurg.rewrite_diff", "extract_edit_ops", "rewrite_diff.ground"),
    ("qurg.rewrite_diff", "build_rewrite_matrix", "rewrite_diff.build_rewrite_matrix"),
    ("qurg.rewrite_restore", "restore", "rewrite_restore.restore"),
    ("qurg.rouge_eval", "corpus_rouge", "rouge_eval.corpus_rouge"),
    ("qurg.schema_link", "build_schema_link_matrix", "schema_link.build_schema_link_matrix"),
    ("qurg.rat_encoder", "build_schema_link_matrix", "schema_link.build_schema_link_matrix"),
    ("qurg.rat_encoder", "embed_inputs", "rat_encoder.embed_inputs"),
    ("qurg.rat_encoder", "rat_layer_forward", "rat_encoder.layer"),
)

SPAN_FIELDS = ("op", "name", "parent", "cpu_start_s", "cpu_end_s", "wall_start_s", "wall_end_s")


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.calls: Counter[str] = Counter()
        self.self_cpu: Counter[str] = Counter()  # seconds, within the current op
        self.self_wall: Counter[str] = Counter()
        self._installed: list[tuple] = []
        self._op: int | None = None
        self._stack: list[list] = []  # open spans: [index, child_cpu, child_wall]
        self._top_cpu = 0.0
        self._seen: list[tuple] = []  # (span name, original fn, args, kwargs, result)
        self._signatures: dict = {}
        self._link_vocab = None
        self._tag_edits = None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._installed.append((module, attr, original))
        try:
            from qurg.rat_encoder import LINK_RELATION_IDS

            self._link_vocab = len(LINK_RELATION_IDS)
        except ImportError:
            self.missing.append("qurg.rat_encoder.LINK_RELATION_IDS")
        try:
            from qurg.rewrite_diff import tag_edits

            self._tag_edits = tag_edits
        except ImportError:
            self.missing.append("qurg.rewrite_diff.tag_edits")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def _span_name(self, name: str, args, kwargs) -> str:
        if name != "rat_encoder.layer":
            return name
        layer = kwargs.get("layer", args[2] if len(args) > 2 else None)
        stream = "link" if getattr(layer, "relation_count", None) == self._link_vocab else "rw"
        return f"rat_encoder.{stream}_layer"

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            label = tracer._span_name(name, args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append([index, 0.0, 0.0])
            tracer.spans.append(None)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1, wall1 = time.process_time(), time.perf_counter()
                _, child_cpu, child_wall = tracer._stack.pop()
                tracer.spans[index] = (tracer._op, label, parent, cpu0, cpu1, wall0, wall1)
                tracer.self_cpu[label] += (cpu1 - cpu0) - child_cpu
                tracer.self_wall[label] += (wall1 - wall0) - child_wall
                tracer.calls[label] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += cpu1 - cpu0
                    tracer._stack[-1][2] += wall1 - wall0
                else:
                    tracer._top_cpu += cpu1 - cpu0
            tracer._seen.append((label, fn, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._top_cpu = 0.0
        self._seen = []
        self.self_cpu = Counter()
        self.self_wall = Counter()

    def end_op(self) -> tuple[float, Counter]:
        """Close the op; return the CPU seconds its outermost spans cover
        and the op's behaviour counts.  ``self_cpu`` and ``self_wall`` keep
        the op's self times per span name until the next op begins."""
        self._op = None
        counts: Counter[str] = Counter()
        positions: dict[str, set[int]] = {"link": set(), "rw": set()}
        for label, fn, args, kwargs, result in self._seen:
            try:
                if fn not in self._signatures:
                    self._signatures[fn] = inspect.signature(fn)
                bound = self._signatures[fn].bind(*args, **kwargs).arguments
                self._count(label, bound, result, counts, positions)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                note = f"{label} counts: {exc!r}"
                if note not in self.missing:
                    self.missing.append(note)
        for stream, sizes in positions.items():
            counts[f"rat_encoder.{stream}_positions"] += sum(sizes)
        self._seen = []
        return self._top_cpu, counts

    def _count(self, label, bound, result, counts, positions) -> None:
        if label == "rewrite_diff.lcs":
            counts["rewrite_diff.lcs.calls"] += 1
            counts["rewrite_diff.lcs.pairs_compared"] += len(bound["a"]) * len(bound["b"])
        elif label == "rewrite_diff.ground":
            kinds = Counter(op.kind.value for op in result)
            counts["rewrite_diff.ops_substitute"] += kinds["Substitute"]
            counts["rewrite_diff.ops_insert"] += kinds["Insert"]
            if self._tag_edits is not None:
                # ADD spans that did not become ops were dropped as ungrounded.
                policy = {"policy": bound["policy"]} if "policy" in bound else {}
                _, add_spans = self._tag_edits(bound["question"], bound["rewrite"], **policy)
                counts["rewrite_diff.add_spans_dropped"] += len(add_spans) - len(result)
        elif label == "rewrite_diff.build_rewrite_matrix":
            counts["rewrite_diff.cells"] += len(result.cells)
        elif label == "dataset_io.save_matrix":
            counts["dataset_io.bytes_written"] += os.path.getsize(bound["path"])
        elif label == "schema_link.build_schema_link_matrix":
            counts["schema_link.cells"] += len(result.cells)
        elif label.endswith("_layer"):
            layer = bound["layer"]
            n = len(bound["x"])
            # All layers of one stream in one op see the same length.
            positions[label[len("rat_encoder.") : -len("_layer")]].add(n)
            # Scores plus value sums: n*n*width multiply-adds each, per head.
            counts["rat_encoder.attention_madds"] += 2 * n * n * layer.heads * layer.head_width
