"""Training loop: Adam with plateau LR decay, per-checkpoint dev evaluation,
layer-wise encoder growth, and best-checkpoint selection on dev BLEU.

A run is reproducible from (config, seed): batch order, dropout streams, and
initialization are all derived deterministically, and the emitted
metrics.jsonl contains no wall-clock data.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import models, transplant
from .data import Batch, Dataset, Vocabulary, batch as make_batches
from .decode import beam_decode  # noqa: F401  (a training binding that perfbench tracing wraps)
from .decode import beam_search, default_direction, default_max_len
from .models import ModelGraph
from .numerics import LrSchedule, OptimizerState, ParamStore, adam_step, backward, plateau_update, rng_for
from .tensor import NonFiniteError, no_grad

__all__ = [
    "TrainSchedule", "RunRecord", "DivergenceError", "train_model", "evaluate_model", "output_side", "decode_batches",
    "decode_corpus",
]

log = logging.getLogger("deskst")


class DivergenceError(Exception):
    """Training produced a non-finite loss or update."""


@dataclass(frozen=True)
class TrainSchedule:
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 8e-4
    lr_decay: float = 0.9
    lr_patience: int = 6
    eval_every: int = 1  # epochs between dev checkpoints
    max_len: int | None = 75  # token filter, as in the full-scale recipe
    growth: tuple[tuple[int, int], ...] = ()  # (epoch, encoder layers) pairs; an epoch-0 pair is the starting depth
    dev_beam: int = 1  # 1 -> greedy dev decoding (fast); >1 -> beam
    len_norm: float = 0.6


@dataclass
class RunRecord:
    rows: list[dict] = field(default_factory=list)

    @property
    def best_index(self) -> int:
        """Index of the max-dev-BLEU row; ties go to the earliest row."""
        best = 0
        for i, row in enumerate(self.rows):
            if row["dev"]["bleu"] > self.rows[best]["dev"]["bleu"]:
                best = i
        return best

    @property
    def best_row(self) -> dict:
        return self.rows[self.best_index]

    def epochs_to_accuracy(self, threshold: float) -> int | None:
        """First recorded epoch whose dev token accuracy reaches threshold."""
        for row in self.rows:
            if row["dev"]["token_accuracy"] >= threshold:
                return row["epoch"]
        return None


def output_side(ds: Dataset, task: str) -> tuple[Vocabulary, list[str]]:
    """A task's output vocabulary and references: asr decodes to transcripts
    in the source vocabulary, st and mt to translations in the target one."""
    if task == "asr":
        return ds.src_vocab, [ds.src_vocab.to_words(ex.f.ids) for ex in ds.examples]
    return ds.tgt_vocab, [ds.tgt_vocab.to_words(ex.e.ids) for ex in ds.examples]


def decode_batches(ds: Dataset) -> Sequence[Batch]:
    """Every example, unfiltered and in order, in batches of 32, each padded
    only when it is read (``data.Batches``); empty for an empty dataset."""
    return make_batches(ds, 32)[0] if ds.examples else []


def decode_corpus(
    graph: ModelGraph,
    store: ParamStore,
    ds: Dataset,
    direction: str,
    beam: int,
    max_len: int,
    len_norm: float = 0.6,
    encodings: list[models.Encoding] | None = None,
) -> list[str]:
    """Beam-search every example (beam=1 is greedy) to a whitespace-joined
    content-token sentence.

    ``encodings``, one ``models.encode`` per ``decode_batches(ds)`` batch in
    order, stand in for encoding the batches again; a list of another length,
    or an entry of another batch or source, raises
    ``models.EncodingMismatchError``."""
    vocab, _ = output_side(ds, direction)
    batches = decode_batches(ds)
    if encodings is None:
        encodings = [None] * len(batches)
    elif len(encodings) != len(batches):
        raise models.EncodingMismatchError(f"{len(encodings)} encodings for {len(batches)} decode batches")
    return [
        vocab.to_words(hyp.content(vocab))
        for b, encoding in zip(batches, encodings)
        for hyp in beam_search(graph, store, b, beam, max_len, len_norm, direction, encoding)
    ]


def evaluate_model(
    graph: ModelGraph,
    store: ParamStore,
    dev: Dataset,
    schedule: TrainSchedule,
) -> dict:
    """Teacher-forced accuracy/loss plus decode metrics on the dev set.

    Each filtered dev batch is encoded once, for the teacher-forced pass.
    When the filter keeps every example, those batches are exactly
    ``decode_batches(dev)``, and the task's decode and the asr decode for WER
    reuse the same encodings; when it drops any, ``decode_batches(dev)`` is
    encoded once more and both decodes share that.

    On the tied topologies each shared encoding also carries decoder_asr's
    greedy rollout (``models.with_rollout``), run once per batch at each
    row's largest of the three limits it serves: the loss's ``attn_dec``
    memory (ceil(1.5 J) steps), the decode's (the pooled frame count) and
    the transcript for WER (``max_len`` tokens, read from its tokens in
    place of a beam-1 asr decode). When the filter drops examples, the
    loss batches roll out for themselves and the decode batches' rollout
    serves the other two. Each pass sees the bits it saw when it rolled out
    at its own limits (see ``models.Encoding``), with the exception stated
    there: where two tokens tie after rounding although their probabilities
    differ, beam 1 took the lower id and the rollout takes the more
    probable one. Nothing outlives the call: the weights change between
    calls.
    """
    task = default_direction(graph.topology)
    cfg = graph.config
    dev_batches, report = make_batches(
        dev, 32, max_len=schedule.max_len, pool_product=cfg.pool_product, ctc_filter=cfg.ctc_enabled
    )
    route = models.route_for(graph.topology)
    tied = any("attn_dec" in head.memories for head in route.heads)
    filtered = report.kept < len(dev)
    max_len = default_max_len(max(ex.e.length for ex in dev.examples) if dev.examples else 8)

    def encode(b: Batch, rollout: bool) -> models.Encoding:
        encoding = models.encode(graph, store, b, route.source)
        return models.with_rollout(graph, store, b, encoding, max_len) if rollout else encoding

    encodings = []
    hits = steps = 0
    loss_sum = 0.0
    with no_grad():
        for b in dev_batches:
            encodings.append(encode(b, tied and not filtered))
            parts = models.forward(graph, store, b, encoding=encodings[-1])
            h, s = parts.token_hits[task]
            hits += h
            steps += s
            loss_sum += parts.combined.item()
        if filtered:
            encodings = [encode(b, tied) for b in decode_batches(dev)]
    hyps = decode_corpus(graph, store, dev, task, schedule.dev_beam, max_len, schedule.len_norm, encodings)
    _, refs = output_side(dev, task)
    out = {
        "token_accuracy": round(hits / steps, 6) if steps else 0.0,
        "loss_per_token": round(loss_sum / steps, 6) if steps else 0.0,
        "bleu": round(metrics_mod.bleu(hyps, refs), 4),
        "ter": round(metrics_mod.ter(hyps, refs), 4),
    }
    if "decoder_asr." in graph.component_prefixes():
        if task == "asr":
            asr_hyps = hyps
        elif tied:
            src = dev.src_vocab
            asr_hyps = [
                src.to_words([t for t in row[:max_len].tolist() if t < src.content_size])
                for encoding in encodings
                for row in encoding.rollout.tokens
            ]
        else:
            asr_hyps = decode_corpus(graph, store, dev, "asr", 1, max_len, encodings=encodings)
        out["wer"] = round(metrics_mod.wer(asr_hyps, output_side(dev, "asr")[1]), 4)
    return out


def train_model(
    graph: ModelGraph,
    store: ParamStore,
    train: Dataset,
    dev: Dataset,
    schedule: TrainSchedule,
    out_dir: str | Path | None = None,
    seed: int = 0,
) -> tuple[RunRecord, transplant.Checkpoint]:
    """Run the full training recipe and return (record, best checkpoint).

    Dev metrics are recorded at epoch 0 (initialization) and after every
    ``eval_every`` epochs; the best checkpoint maximizes dev BLEU.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "metrics.jsonl").write_text("")
    cfg = graph.config
    opt = OptimizerState(learning_rate=schedule.learning_rate)
    lr_sched = LrSchedule(lr=schedule.learning_rate, decay_factor=schedule.lr_decay, patience=schedule.lr_patience)
    rngs = models.dropout_streams(seed)
    order_rng = rng_for(seed, "batch-order")
    growth = dict(schedule.growth)
    record = RunRecord()
    best_snapshot: dict[str, np.ndarray] = {}  # set at epoch 0: a run's first row is its best so far
    best_graph = graph
    routes = models.WIRING[graph.topology].routes
    step = 0

    def snapshot_row(epoch: int, train_stats: dict | None) -> None:
        nonlocal best_snapshot, best_graph
        try:
            dev_stats = evaluate_model(graph, store, dev, schedule)
        except NonFiniteError as exc:
            raise DivergenceError(f"non-finite value at step {step} (epoch {epoch}) in dev evaluation: {exc}") from exc
        lr_now = plateau_update(lr_sched, dev_stats["bleu"]) if epoch > 0 else lr_sched.lr
        opt.learning_rate = lr_now
        row = {
            "step": step,
            "epoch": epoch,
            "lr": lr_now,
            "train": train_stats,
            "dev": dev_stats,
            "checkpoint": f"ckpt-{step}",
        }
        record.rows.append(row)
        best = record.best_row
        if best is row:
            best_snapshot, best_graph = store.state_dict(), graph
        if out_path is not None:
            with (out_path / "metrics.jsonl").open("a") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
            transplant.save(graph, store, out_path / row["checkpoint"], dev_history=record.rows)
            if best is row:
                marker = {"checkpoint": row["checkpoint"], "dev_bleu": dev_stats["bleu"]}
                (out_path / "best").write_text(json.dumps(marker) + "\n")
            for f in out_path.glob("ckpt-*"):  # keep only the best and the latest checkpoint
                if f.name not in (best["checkpoint"], row["checkpoint"]):
                    f.unlink()
        log.info("epoch %d step %d dev %s lr %.2e", epoch, step, dev_stats, lr_now)

    snapshot_row(0, None)
    filters = dict(max_len=schedule.max_len, pool_product=cfg.pool_product, ctc_filter=cfg.ctc_enabled)
    n_kept = make_batches(train, schedule.batch_size, **filters)[1].kept  # growth leaves every filter input as it is
    for epoch in range(1, schedule.epochs + 1):
        if epoch in growth:
            graph = models.grow_encoder(graph, store, growth[epoch])
            log.info("epoch %d: grew encoder to %d layers", epoch, growth[epoch])
        batches, _ = make_batches(train, schedule.batch_size, order=order_rng.permutation(n_kept), **filters)
        sums: dict[str, float] = {}
        tokens = 0
        for b in batches:
            mode = routes[step % len(routes)].source  # multi-route topologies alternate batch by batch
            try:
                parts = models.forward(graph, store, b, mode=mode, training=True, rngs=rngs)
                grads = backward(parts.combined, store)
                adam_step(store, grads, opt)
            except NonFiniteError as exc:
                raise DivergenceError(f"non-finite value at step {step} (epoch {epoch}): {exc}") from exc
            step += 1
            for key, value in parts.floats().items():
                sums[key] = sums.get(key, 0.0) + value
            tokens += sum(t for (_, t) in parts.token_hits.values())
        train_stats = {k: round(v / max(1, tokens), 6) for k, v in sums.items()}
        train_stats["n_batches"] = len(batches)
        if epoch % schedule.eval_every == 0 or epoch == schedule.epochs:
            snapshot_row(epoch, train_stats)

    best = transplant.Checkpoint(graph=best_graph, values=best_snapshot, dev_history=record.rows, seed=store.rng_seed)
    return record, best
