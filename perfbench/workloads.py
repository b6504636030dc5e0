"""The benchmark's three workloads: set-up, closed-loop timed passes, checks.

Every workload drives deskst through its public API from one caller: the
next batch starts when the previous one returns. Inputs come from the CLI's
default recipe (desk dims, vocab 12, batch 16) with ``data.seed`` set to the
workload seed; ``train.seed`` stays at the CLI default 0, so the seed changes
the data and nothing else.

A training pass replays ``training.train_model``'s first epoch from the same
initial parameters, optimizer state, dropout streams and batch order, so
every pass does the same work whatever the machine's speed, and each pass's
losses must equal the first one's bit for bit. A decode pass beam-decodes the
whole held-out split, 16 utterances per ``decode_corpus`` call, and scores it.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from deskst import cli, data, decode, metrics, models, numerics, tensor, training

import tracing
from reference import Meter

BATCH = 16
TRAIN_LOADS = {
    "train_one2many_ctc": {"model.topology": "one2many", "model.ctc": "on"},
    "train_tied_triangle_adapter": {"model.topology": "tied_triangle", "transplant.adapter": "on"},
}
DECODE_LOAD = "decode_direct_beam12"
WORKLOADS = (*TRAIN_LOADS, DECODE_LOAD)
BEAM = 12
DECODE_LR = 3e-3
TRAIN_SEED = int(cli.DEFAULTS["train.seed"])
END_TO_END = (
    ("setup_s", "s"),
    ("examples_per_s", "1/s"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_tail", "ms"),
    ("eval_s", "s"),
    ("loss_per_token", "nats"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Size:
    n_train: int  # training-workload train split; one pass is n_train / 16 steps
    n_dev: int
    setups: int  # set-ups per run; setup_s is their median
    min_passes: int  # timed passes run even when --seconds has already elapsed
    decode_n_train: int
    decode_n_test: int  # held-out utterances beam-decoded per pass
    decode_steps: int  # training steps of the decode model in set-up
    decode_setups: int
    bleu_floor: float  # held-out BLEU the trained decode model must reach


SIZES = {
    # The decode model trains 140 steps: at 100 some seeds' models still
    # score BLEU 0 on the held-out split (seed 20), at 140 seeds 1-39 score
    # at least 37. Two set-ups of 140 steps cost what three of 100 did.
    "full": Size(128, 50, 11, 2, 500, 64, 140, 2, 5.0),
    # Runs every code path of all three workloads in seconds. The decode
    # model trains for 4 steps only, so its BLEU floor is 0.
    "smoke": Size(32, 8, 2, 1, 48, 8, 4, 2, 0.0),
}


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.notes.append(f"check {name}: {'ok' if ok else 'FAILED'}{' (' + detail + ')' if detail else ''}")

    def report(self, name: str, value: float, unit: str, how: str, raw: float | None = None) -> None:
        """Record a bounded metric; timings give their raw wall value too."""
        self.metrics[name] = value
        wall = "" if raw is None else f"; raw wall {raw:.6g} {unit}"
        self.notes.append(f"metric {name} = {value:.6g} {unit} ({how}{wall})")


def recipe(overrides: dict[str, str], seed: int) -> dict[str, str]:
    cfg = dict(cli.DEFAULTS)
    cfg["data.seed"] = str(seed)
    cfg.update(overrides)
    return cfg


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Trainer:
    """``training.train_model``'s inner loop, without its dev checkpoints."""

    def __init__(self, graph, store, train: data.Dataset, schedule: training.TrainSchedule, seed: int):
        self.graph, self.store, self.train, self.schedule = graph, store, train, schedule
        self.opt = numerics.OptimizerState(learning_rate=schedule.learning_rate)
        self.rngs = models.dropout_streams(seed)
        self.order_rng = numerics.rng_for(seed, "batch-order")

    def epoch_batches(self) -> list[data.Batch]:
        cfg, s = self.graph.config, self.schedule
        kw = dict(max_len=s.max_len, pool_product=cfg.pool_product, ctc_filter=cfg.ctc_enabled)
        kept, _ = data.batch(self.train, s.batch_size, **kw)
        order = self.order_rng.permutation(sum(b.size for b in kept))
        batches, _ = data.batch(self.train, s.batch_size, order=order, **kw)
        return batches

    def step(self, b: data.Batch) -> models.LossBreakdown:
        parts = models.forward(self.graph, self.store, b, training=True, rngs=self.rngs)
        grads = numerics.backward(parts.combined, self.store)
        numerics.adam_step(self.store, grads, self.opt)
        return parts

    def run_steps(self, n: int, meter: Meter) -> float:
        """Train ``n`` steps; return the training loss per target token."""
        loss = tokens = 0.0
        done = 0
        while done < n:
            batches, _, _ = meter.time(self.epoch_batches)
            for b in batches[: n - done]:
                parts, _, _ = meter.time(self.step, b)
                loss += parts.combined.item()
                tokens += sum(t for (_, t) in parts.token_hits.values())
                done += 1
        return loss / tokens


@dataclass
class Pass:
    wall_s: float
    nominal_s: float
    steps: list[tuple[float, float]]  # (wall, nominal) seconds per step
    losses: list[float]
    tokens: int
    examples: int
    nodes: list[int]


def same_values(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def restore(store: numerics.ParamStore, values: dict[str, np.ndarray]) -> None:
    for name, v in values.items():
        store.set(name, v)


def mean_loss(graph, store, batches: list[data.Batch]) -> float:
    """Teacher-forced combined loss per target token, without dropout."""
    loss = tokens = 0.0
    with tensor.no_grad():
        for b in batches:
            parts = models.forward(graph, store, b)
            loss += parts.combined.item()
            tokens += sum(t for (_, t) in parts.token_hits.values())
    return loss / tokens


def timings(samples: list[tuple[float, float]]) -> tuple[float, float, float, float, str]:
    """(nominal median, raw median, nominal tail, raw tail, tail description)."""
    nominal_tail, pct = tail([n for _, n in samples])
    raw_tail, _ = tail([w for w, _ in samples])
    count = len(samples)
    how = f"p{pct:.1f}, n={count}" + (", 10 beyond" if count > 10 else "")
    return (statistics.median(n for _, n in samples), statistics.median(w for w, _ in samples),
            nominal_tail, raw_tail, how)


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


def _train_setup(name: str, seed: int, size: Size):
    cfg = recipe({**TRAIN_LOADS[name], "data.n_train": str(size.n_train), "data.n_dev": str(size.n_dev)}, seed)
    train, dev, _, graph, store, _ = cli.initialize_run(cfg)
    return cfg, train, dev, graph, store


def _train_pass(graph, store, train, schedule, init, count_nodes=False) -> Pass:
    restore(store, init)
    trainer = Trainer(graph, store, train, schedule, TRAIN_SEED)
    meter = Meter()
    batches, _, _ = meter.time(trainer.epoch_batches)
    steps, losses, nodes = [], [], []
    tokens = examples = 0
    for b in batches:
        parts, wall, nominal = meter.time(trainer.step, b)
        steps.append((wall, nominal))
        losses.append(parts.combined.item())
        tokens += sum(t for (_, t) in parts.token_hits.values())
        examples += b.size
        if count_nodes:
            nodes.append(tracing.graph_nodes(parts.combined))
    return Pass(meter.raw, meter.nominal, steps, losses, tokens, examples, nodes)


def _train_model_losses(graph, store, train, dev, schedule) -> tuple[list[float], dict[str, np.ndarray]]:
    """Per-step losses and final parameters of one epoch of train_model."""
    losses = []
    forward = models.forward

    def capture(*args, **kwargs):
        parts = forward(*args, **kwargs)
        if kwargs.get("training"):
            losses.append(parts.combined.item())
        return parts

    models.forward = capture
    try:
        training.train_model(graph, store, train, dev, dataclasses.replace(schedule, epochs=1), seed=TRAIN_SEED)
    finally:
        models.forward = forward
    return losses, store.state_dict()


def _phase(tracer: tracing.Tracer | None, name: str) -> None:
    if tracer is not None:
        tracer.phase = name


def run_training(name: str, seed: int, seconds: float, trace: bool, size: Size) -> tuple[Outcome, tracing.Tracer | None]:
    out = Outcome()
    setups = []
    for _ in range(size.setups):
        (cfg, train, dev, graph, store), wall, nominal = Meter().time(_train_setup, name, seed, size)
        setups.append((wall, nominal))
    schedule = cli.build_schedule(cfg)
    init = store.state_dict()
    first_batch = Trainer(graph, store, train, schedule, TRAIN_SEED).epoch_batches()[0]
    before = mean_loss(graph, store, [first_batch])

    # Checks, which also warm up: train_model's first epoch against one pass.
    dev_small = data.Dataset(dev.examples[:8], dev.src_vocab, dev.tgt_vocab, dev.cipher, dev.manifest)
    ref_losses, ref_values = _train_model_losses(graph, store, train, dev_small, schedule)
    ref = _train_pass(graph, store, train, schedule, init)
    out.check("matches_train_model", ref.losses == ref_losses and same_values(store.state_dict(), ref_values),
              f"{len(ref.losses)} steps")
    out.check("losses_finite", all(math.isfinite(x) for x in ref.losses))
    after = mean_loss(graph, store, [first_batch])
    out.check("loss_falls", after < before, f"{before:.4f} -> {after:.4f} nats/token on the first batch")

    tracer = None
    if trace:
        baseline = [_train_pass(graph, store, train, schedule, init) for _ in range(size.min_passes)]
        tracer = tracing.Tracer()
        tracer.install()
    passes: list[Pass] = []
    evals, eval_s = [], []
    start = perf_counter()
    try:
        # Each round evaluates, then trains a pass, as train_model alternates
        # checkpoints and epochs. The eval sees the initial model, as at
        # train_model's epoch-0 checkpoint: its decode work is the same for
        # every seed, where a model trained for one pass stops early on some
        # dev sets and not on others.
        while len(passes) < size.min_passes or perf_counter() - start < seconds:
            restore(store, init)
            _phase(tracer, "eval")
            result, wall, nominal = Meter().time(training.evaluate_model, graph, store, dev, schedule)
            evals.append(result)
            eval_s.append((wall, nominal))
            _phase(tracer, "loop")
            passes.append(_train_pass(graph, store, train, schedule, init, count_nodes=trace))
    finally:
        if tracer is not None:
            tracer.uninstall()
    label = "traced" if trace else "untraced"
    out.check(f"{label}_losses_bit_identical", all(p.losses == ref.losses for p in passes), f"{len(passes)} passes")
    out.check("eval_deterministic", all(e == evals[0] for e in evals))
    out.check("eval_finite", all(math.isfinite(v) for v in evals[0].values()), str(evals[0]))
    out.attempted += sum(len(p.losses) for p in passes) + len(evals)

    if trace:
        untraced = statistics.median(p.nominal_s for p in baseline)
        traced = statistics.median(p.nominal_s for p in passes)
        nodes = [n for p in passes for n in p.nodes]
        extra = {
            "tensor.graph_nodes": sum(nodes) / len(nodes),
            "decode.len_ratio": 0.0,
            "trace.overhead_frac": traced / untraced - 1.0,
        }
        out.metrics = tracing.per_layer_metrics(
            tracer, "loop", sum(len(p.steps) for p in passes),
            (sum(p.wall_s for p in passes), sum(p.nominal_s for p in passes)),
            "eval", len(eval_s), (sum(w for w, _ in eval_s), sum(n for _, n in eval_s)), extra,
        )
        out.notes.append(f"trace: pass {untraced:.3f} s untraced, {traced:.3f} s traced (nominal medians), "
                         f"overhead {100 * (traced / untraced - 1):.1f}%")
        return out, tracer

    steps = [s for p in passes for s in p.steps]
    p50, raw_p50, tail_ms, raw_tail, tail_how = timings(steps)
    n_ex = passes[0].examples
    out.report("setup_s", statistics.median(n for _, n in setups), "s", f"median of {len(setups)} set-ups",
               statistics.median(w for w, _ in setups))
    out.report("examples_per_s", statistics.median(n_ex / p.nominal_s for p in passes), "1/s",
               f"train_examples_per_s, median of {len(passes)} passes of {n_ex} examples",
               statistics.median(n_ex / p.wall_s for p in passes))
    out.report("batch_ms_p50", 1000 * p50, "ms", f"train_step_ms_p50, n={len(steps)}", 1000 * raw_p50)
    out.report("batch_ms_tail", 1000 * tail_ms, "ms", f"train_step_ms_tail: {tail_how}",
               1000 * raw_tail)
    out.report("eval_s", statistics.median(n for _, n in eval_s), "s",
               f"median of {len(eval_s)} evaluate_model calls on the initial model, one before each pass",
               statistics.median(w for w, _ in eval_s))
    out.report("loss_per_token", sum(ref.losses) / ref.tokens, "nats",
               "train_loss_per_token over one pass, train_model's epoch-1 'combined'")
    out.report("peak_rss_mb", peak_rss_mb(), "MB", "peak of this process")
    return out, None


# ---------------------------------------------------------------------------
# decode workload
# ---------------------------------------------------------------------------


def _decode_setup(seed: int, size: Size, meter: Meter):
    """Data, a direct model, and its training until hypotheses reach
    realistic lengths (an untrained model emits EOS early)."""
    cfg = recipe({"model.topology": "direct", "data.n_train": str(size.decode_n_train),
                  "data.n_test": str(size.decode_n_test)}, seed)
    (train, _, test, graph, store, _), _, _ = meter.time(cli.initialize_run, cfg)
    schedule = dataclasses.replace(cli.build_schedule(cfg), learning_rate=DECODE_LR)
    loss = Trainer(graph, store, train, schedule, TRAIN_SEED).run_steps(size.decode_steps, meter)
    max_len = cli._int(cfg, "eval.max_len") or 2 * cli._int(cfg, "data.len_max") + 2
    return test, graph, store, max_len, cli._float(cfg, "eval.len_norm"), loss


@dataclass
class DecodePass:
    calls: list[tuple[float, float]]  # (wall, nominal) seconds per decode_corpus call
    hyps: list[str]
    bleu: float
    wall_s: float  # decode and scoring
    nominal_s: float

    def decode_s(self, nominal: bool) -> float:
        return sum(n if nominal else w for w, n in self.calls)


def _decode_pass(graph, store, chunks, refs, max_len, len_norm) -> DecodePass:
    meter = Meter()
    calls, hyps = [], []
    for chunk in chunks:
        out, wall, nominal = meter.time(training.decode_corpus, graph, store, chunk, "st", BEAM, max_len, len_norm)
        hyps += out
        calls.append((wall, nominal))
    report, _, _ = meter.time(metrics.score_corpus, hyps, refs)
    return DecodePass(calls, hyps, report.bleu, meter.raw, meter.nominal)


def run_decode(seed: int, seconds: float, trace: bool, size: Size) -> tuple[Outcome, tracing.Tracer | None]:
    out = Outcome()
    setups, values = [], []
    for _ in range(size.decode_setups):
        meter = Meter()
        test, graph, store, max_len, len_norm, train_loss = _decode_setup(seed, size, meter)
        setups.append((meter.raw, meter.nominal))
        values.append(store.state_dict())
    out.check("setup_deterministic", all(same_values(v, values[0]) for v in values))
    vocab = test.tgt_vocab
    chunks = [
        data.Dataset(test.examples[i : i + BATCH], test.src_vocab, vocab, test.cipher, test.manifest)
        for i in range(0, len(test), BATCH)
    ]
    refs = [vocab.to_words(ex.e.ids) for ex in test.examples]

    # Checks, which also warm up.
    sample = data.batch(chunks[0], BATCH)[0][0]
    greedy = decode.greedy_decode_batch(graph, store, sample, max_len, "st")
    beam1 = [decode.beam_decode(graph, store, ex.x.frames, 1, max_len, len_norm, "st") for ex in chunks[0].examples]
    out.check("beam1_equals_greedy", [h.tokens for h in beam1] == [h.tokens for h in greedy], f"{len(beam1)} utterances")
    wide = [decode.beam_decode(graph, store, ex.x.frames, BEAM, max_len, len_norm, "st") for ex in chunks[0].examples]
    out.check("ids_in_vocab_and_max_len",
              all(all(0 <= t < vocab.size for t in h.tokens) and len(h.tokens) <= max_len for h in wide))
    ref = _decode_pass(graph, store, chunks, refs, max_len, len_norm)
    words = set(vocab.tokens[: vocab.content_size])
    out.check("hyps_in_vocab_and_max_len",
              all(set(h.split()) <= words and len(h.split()) <= max_len for h in ref.hyps))
    out.check("bleu_floor", ref.bleu >= size.bleu_floor, f"BLEU {ref.bleu:.2f} >= {size.bleu_floor}")

    tracer = None
    if trace:
        baseline = [_decode_pass(graph, store, chunks, refs, max_len, len_norm) for _ in range(size.min_passes)]
        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase = "loop"
    passes: list[DecodePass] = []
    start = perf_counter()
    try:
        while len(passes) < size.min_passes or perf_counter() - start < seconds:
            passes.append(_decode_pass(graph, store, chunks, refs, max_len, len_norm))
    finally:
        if tracer is not None:
            tracer.uninstall()
    label = "traced" if trace else "untraced"
    out.check(f"{label}_hyps_identical", all(p.hyps == ref.hyps for p in passes), f"{len(passes)} passes")
    out.attempted += len(passes) * len(test)

    if trace:
        untraced = statistics.median(p.decode_s(True) for p in baseline)
        traced = statistics.median(p.decode_s(True) for p in passes)
        hyp_len = sum(len(h.split()) for h in ref.hyps)
        extra = {
            "tensor.graph_nodes": 0.0,
            "decode.len_ratio": hyp_len / sum(len(r.split()) for r in refs),
            "trace.overhead_frac": traced / untraced - 1.0,
        }
        out.metrics = tracing.per_layer_metrics(
            tracer, "loop", len(passes) * len(test),
            (sum(p.decode_s(False) for p in passes), sum(p.decode_s(True) for p in passes)),
            "loop", len(passes), (sum(p.wall_s for p in passes), sum(p.nominal_s for p in passes)), extra,
        )
        out.notes.append(f"trace: pass decode {untraced:.3f} s untraced, {traced:.3f} s traced (nominal medians), "
                         f"overhead {100 * (traced / untraced - 1):.1f}%")
        return out, tracer

    calls = [c for p in passes for c in p.calls]
    p50, raw_p50, tail_s, raw_tail, tail_how = timings(calls)
    n = len(test)
    out.report("setup_s", statistics.median(n for _, n in setups), "s",
               f"median of {len(setups)} set-ups, each training the decode model {size.decode_steps} steps",
               statistics.median(w for w, _ in setups))
    out.report("examples_per_s", statistics.median(n / p.decode_s(True) for p in passes), "1/s",
               f"decode_utt_per_s, median of {len(passes)} passes of {n} utterances",
               statistics.median(n / p.decode_s(False) for p in passes))
    out.report("batch_ms_p50", 1000 * p50, "ms",
               f"decode_corpus call on {len(chunks[0])} utterances, n={len(calls)}", 1000 * raw_p50)
    out.report("batch_ms_tail", 1000 * tail_s, "ms", tail_how, 1000 * raw_tail)
    out.report("eval_s", statistics.median(p.nominal_s for p in passes), "s",
               f"beam-{BEAM} decode and BLEU/TER/WER of the held-out split, median of {len(passes)}",
               statistics.median(p.wall_s for p in passes))
    out.report("loss_per_token", train_loss, "nats", "training loss of the decode model over its set-up steps")
    out.report("peak_rss_mb", peak_rss_mb(), "MB", "peak of this process")
    return out, None


def run(name: str, seed: int, seconds: float, trace: bool, size: Size):
    if name == DECODE_LOAD:
        return run_decode(seed, seconds, trace, size)
    return run_training(name, seed, seconds, trace, size)
