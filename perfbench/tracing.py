"""Outside-in tracing of deskst for the traced benchmark run.

``Tracer.install`` replaces the module attributes that callers look up at
call time with timing wrappers, so no code under ``src/`` changes:

* ``models`` imports its layer functions by name, so the wrappers go on the
  ``models`` bindings (``models.additive_attention`` and friends), on
  ``layers.lstm_sequence`` (which ``blstm`` looks up in ``layers``), and on
  ``ctc.ctc_loss`` (which ``models`` reaches through ``models.ctc_mod``).
* The backward time of a fused op is measured by wrapping the ``.backward``
  of the ``Tensor`` it returns; ``backward_graph`` calls it from there.
* ``Tensor.__init__`` is wrapped to count tensors created.

Spans stay in memory as ``[name, start, end, parent, phase]`` lists and are
written out once, at the end of the run. A span's self time is its duration
minus the durations of its direct children. ``uninstall`` restores every
original binding; the untraced run never installs anything.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from deskst import ctc, data, decode, layers, metrics, models, numerics, tensor, training

# Per-op time metrics: metric prefix -> span name. Values are ms per op (a
# train step, or one decoded utterance) over the timed loop.
OP_TIMES = {
    "tensor.backward_graph.ms": "tensor.backward_graph",
    "layers.lstm_sequence.fwd_ms": "layers.lstm_sequence.fwd",
    "layers.lstm_sequence.bwd_ms": "layers.lstm_sequence.bwd",
    "layers.additive_attention.ms": "layers.additive_attention",
    "layers.lstm_step.ms": "layers.lstm_step",
    "layers.output_layer.ms": "layers.output_layer",
    "layers.label_smoothed_ce.ms": "layers.label_smoothed_ce",
    "layers.max_pool_time.ms": "layers.max_pool_time",
    "ctc.ctc_loss.fwd_ms": "ctc.ctc_loss.fwd",
    "ctc.ctc_loss.bwd_ms": "ctc.ctc_loss.bwd",
    "models.run_speech_encoder.ms": "models.run_speech_encoder",
    "models.run_decoder_teacher_forced.ms": "models.run_decoder_teacher_forced",
    "models.run_decoder_greedy_rollout.ms": "models.run_decoder_greedy_rollout",
    "models.apply_adapter.ms": "models.apply_adapter",
    "numerics.adam_step.ms": "numerics.adam_step",
    "data.batch.ms": "data.batch",
    "decode.prepare_memories.ms": "decode.prepare_memories",
}
# Self times (span minus direct child spans), ms per op.
OP_SELF_TIMES = {
    "tensor.backward_graph.self_ms": "tensor.backward_graph",
    "decode.beam_decode.self_ms": "decode.beam_decode",
}
# Per-eval time metrics: ms per evaluation call (evaluate_model on the
# training workloads, one scored pass over the held-out split on decode).
EVAL_TIMES = {
    "training.decode_corpus.ms": "training.decode_corpus",
    "metrics.bleu.ms": "metrics.bleu",
    "metrics.ter.ms": "metrics.ter",
    "metrics.wer.ms": "metrics.wer",
}
# Counts per op, from Tracer.counts.
OP_COUNTS = {
    "tensor.tensors_created": "tensors_created",
    "layers.lstm_sequence.calls": "lstm_sequence_calls",
    "layers.additive_attention.calls": "additive_attention_calls",
    "ctc.ctc_loss.calls": "ctc_calls",
    "ctc.dp_cells": "ctc_dp_cells",
}


def share_name(metric: str) -> str:
    """``x.ms`` -> ``x.share``, ``x.fwd_ms`` -> ``x.fwd_share``."""
    return metric[: -len("ms")] + "share"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for table in (OP_TIMES, OP_SELF_TIMES, EVAL_TIMES):
        for metric in table:
            out += [(metric, "ms"), (share_name(metric), "frac")]
    out += [(m, "count") for m in OP_COUNTS]
    out += [
        ("tensor.graph_nodes", "count"),
        ("decode.candidates", "count"),
        ("decode.steps_per_utt", "count"),
        ("decode.unfinished_frac", "frac"),
        ("decode.len_ratio", "ratio"),
        ("trace.op_ms", "ms"),
        ("trace.eval_ms", "ms"),
        ("trace.overhead_frac", "frac"),
    ]
    return out


def graph_nodes(root: tensor.Tensor) -> int:
    """Distinct nodes reachable from ``root`` through ``.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (phase, key) -> count
        self.phase = "idle"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._beam_lanes = 0  # active lanes of the beam search in progress, 0 outside one

    # -- span recording -----------------------------------------------------

    def _timed(self, name, fn, after=None, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase])
            self._stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.phase, key)] += n

    def _patch(self, owner, attr: str, name: str, after=None, before=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._timed(name, original, after, before))

    def _time_backward(self, out: tensor.Tensor, name: str) -> None:
        if out.backward is not None:
            out.backward = self._timed(name, out.backward)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        def after_lstm(args, out):
            self.count("lstm_sequence_calls")
            self._time_backward(out, "layers.lstm_sequence.bwd")

        def after_ctc(args, out):
            frames, target = args[0], args[1]
            self.count("ctc_calls")
            self.count("ctc_dp_cells", frames.shape[0] * (2 * len(target) + 1))
            self._time_backward(out, "ctc.ctc_loss.bwd")

        def before_beam():
            self._beam_lanes = 1

        def after_beam(args, hyp):
            self._beam_lanes = 0
            self.count("beam_utts")
            self.count("beam_unfinished", int(not hyp.finished))

        self._patch(layers, "lstm_sequence", "layers.lstm_sequence.fwd", after_lstm)
        self._patch(ctc, "ctc_loss", "ctc.ctc_loss.fwd", after_ctc)
        self._patch(models, "additive_attention", "layers.additive_attention", lambda a, o: self.count("additive_attention_calls"))
        for fn in ("lstm_step", "output_layer", "label_smoothed_ce", "max_pool_time"):
            self._patch(models, fn, f"layers.{fn}")
        for fn in ("run_speech_encoder", "run_decoder_teacher_forced", "run_decoder_greedy_rollout", "apply_adapter"):
            self._patch(models, fn, f"models.{fn}")
        self._patch(decode, "apply_adapter", "models.apply_adapter")
        self._patch(numerics, "backward_graph", "tensor.backward_graph")
        self._patch(numerics, "adam_step", "numerics.adam_step")
        self._patch(data, "batch", "data.batch")
        self._patch(training, "make_batches", "data.batch")
        self._patch(decode, "prepare_memories", "decode.prepare_memories")
        self._patch(training, "beam_decode", "decode.beam_decode", after_beam, before_beam)
        self._patch(training, "decode_corpus", "training.decode_corpus")
        self._patch(metrics, "bleu_report", "metrics.bleu")
        self._patch(metrics, "ter", "metrics.ter")
        self._patch(metrics, "wer", "metrics.wer")

        # Beam bookkeeping: lanes scored at each step come from the step mask
        # the search hands to advance(); the first step scores one lane.
        core = models._DecoderCore
        step, advance, init = core.step, core.advance, tensor.Tensor.__init__
        tracer = self

        def counted_step(self_, prev_ids, layers_, feedback, training_, rngs):
            out = step(self_, prev_ids, layers_, feedback, training_, rngs)
            if tracer._beam_lanes:
                tracer.count("beam_steps")
                tracer.count("beam_candidates", tracer._beam_lanes * out[0].shape[-1])
            return out

        def counted_advance(self_, token_ids, ctx, layers_, step_mask):
            if tracer._beam_lanes:
                tracer._beam_lanes = max(1, int(step_mask.sum()))
            return advance(self_, token_ids, ctx, layers_, step_mask)

        def counted_init(self_, *args, **kwargs):
            tracer.count("tensors_created")
            init(self_, *args, **kwargs)

        self._patches += [(core, "step", step), (core, "advance", advance), (tensor.Tensor, "__init__", init)]
        core.step, core.advance, tensor.Tensor.__init__ = counted_step, counted_advance, counted_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def totals(self, phase: str) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, total self seconds) per span name within a phase."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, ph in self.spans:
            if ph == phase:
                total[name] += end - start
                if parent >= 0:
                    child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, ph) in enumerate(self.spans):
            if ph == phase:
                self_time[name] += end - start - child[idx]
        return total, self_time

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, phase]) + "\n")


def per_layer_metrics(
    tracer: Tracer,
    op_phase: str,
    n_ops: int,
    op_s: tuple[float, float],
    eval_phase: str,
    n_evals: int,
    eval_s: tuple[float, float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-op and per-eval figures from the recorded spans and counts.

    ``op_s`` and ``eval_s`` are the traced (wall, nominal) seconds of the ops
    and of the eval calls. A time metric's share is its span time over that
    wall time; its ms are at nominal speed, share times nominal ms per op.
    """
    out: dict[str, float] = {}

    def times(table, source, n, wall_s, nominal_s):
        for metric, span in table.items():
            share = source.get(span, 0.0) / wall_s
            out[metric] = 1000.0 * share * nominal_s / n
            out[share_name(metric)] = share

    total, self_time = tracer.totals(op_phase)
    times(OP_TIMES, total, n_ops, *op_s)
    times(OP_SELF_TIMES, self_time, n_ops, *op_s)
    times(EVAL_TIMES, tracer.totals(eval_phase)[0], n_evals, *eval_s)
    for metric, key in OP_COUNTS.items():
        out[metric] = tracer.counts[(op_phase, key)] / n_ops
    c = tracer.counts
    beam_steps = c[(op_phase, "beam_steps")]
    beam_utts = c[(op_phase, "beam_utts")]
    out["decode.candidates"] = c[(op_phase, "beam_candidates")] / beam_steps if beam_steps else 0.0
    out["decode.steps_per_utt"] = beam_steps / beam_utts if beam_utts else 0.0
    out["decode.unfinished_frac"] = c[(op_phase, "beam_unfinished")] / beam_utts if beam_utts else 0.0
    out["trace.op_ms"] = 1000.0 * op_s[1] / n_ops
    out["trace.eval_ms"] = 1000.0 * eval_s[1] / n_evals
    out.update(extra)
    return out
