"""Model graphs: seven topologies, each "encoders -> memories -> attention
decoders -> weighted losses", described as data in ``WIRING`` and read by
``build`` (the parameter manifest), ``forward`` (the combined training loss)
and ``encode``/``head_memories`` (the memories, shared with decoding). A
topology has one route per input mode, the first being the default; a route
names its source encoder and its heads in run order; a head is a decoder
prefix, a task, its loss weight and the memories it attends over. A caller
that runs several passes over one batch can ``encode`` it once and hand the
``Encoding`` to ``forward`` and ``decode.beam_search``, which check that it
is of the batch's input; ``with_rollout`` adds the tied topologies' greedy
ASR rollout to it, which those passes then cut to their own limits.

A ``ModelGraph`` is immutable wiring: a manifest of parameter names/shapes
grouped under canonical component prefixes (encoder., text_encoder.,
decoder_st., decoder_asr., ctc_head., adapter.) so that checkpoints
transplant across topologies. ``build``'s ``adapter`` flag adds one BLSTM at
the topology's ``WIRING`` adapter position. A tensor starts at zero exactly
when its leaf name is ``b`` (a bias) or ``u`` (an attention feedback
weight), and uniform in +-1/sqrt(fan-in) otherwise. ``forward`` is pure in
(graph, store, batch) and returns a ``LossBreakdown`` whose ``combined``
field is the differentiable training objective. Dropout runs exactly when
``forward`` passes its ``rngs`` streams on, which it does in ``training``
only: below it, a function takes the streams or None, and draws a mask
whenever it has them and ``config.dropout`` is non-zero.

Each teacher-forced decoder run is one fused graph node,
``layers.teacher_forced_decoder``, and so is the tied topologies' greedy
rollout, ``layers.greedy_rollout``; beam search runs the same numpy step,
``layers.DecoderKernel``. ``models`` passes each op its rows (target tokens
and lengths, or rollout limits) and the decoder's dropout stream; the op
lays out its steps, draws its dropout masks and returns its results in the
batch's row order. ``_DecoderCore``, the
per-step Tensor layers composed one position at a time, has no caller in the
package: the tests build the step-by-step oracles of both fused decoders and
of beam search from it, and perfbench's tracer patches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ctc as ctc_mod
from . import layers
from . import tensor as tz
from .data import Batch, Vocabulary
from .layers import (
    AttentionParams,
    EncoderStates,
    LstmParams,
    additive_attention,  # noqa: F401  (a models binding that perfbench tracing wraps; only _DecoderCore calls it)
    dropout,
    greedy_rollout,
    label_smoothed_ce,  # noqa: F401  (a models binding that perfbench tracing wraps)
    lstm_step,  # noqa: F401  (a models binding that perfbench tracing wraps; only _DecoderCore calls it)
    max_pool_time,
    output_layer,  # noqa: F401  (a models binding that perfbench tracing wraps; only _DecoderCore calls it)
    teacher_forced_decoder,
)
from .numerics import ParamStore, rng_for
from .tensor import NumericsError, Tensor, no_grad

__all__ = [
    "TOPOLOGIES",
    "WIRING",
    "Head",
    "Route",
    "Wiring",
    "ModelConfig",
    "ModelGraph",
    "LossBreakdown",
    "Encoding",
    "EncodingMismatchError",
    "Rollout",
    "encode",
    "with_rollout",
    "head_memories",
    "build",
    "init_store",
    "grow_encoder",
    "route_for",
    "forward",
    "dropout_streams",
]


@dataclass(frozen=True)
class Head:
    """One attention decoder of a route. The task fixes the target stream and
    vocabulary (asr: source, st/mt: target), the ``LossBreakdown`` field
    ``<task>_loss``, the ``token_hits`` key and the decode direction."""

    decoder: str  # parameter prefix: "decoder_st" | "decoder_asr"
    task: str  # "st" | "asr" | "mt"
    weight: str = "1"  # factor in the combined loss: "1" | "lam" | "1-lam"
    memories: tuple[str, ...] = ("attn",)  # see ``head_memories``


@dataclass(frozen=True)
class Route:
    """One input mode: its source encoder and its heads in run order."""

    source: str  # "speech" | "text"; also ``forward``'s mode
    heads: tuple[Head, ...]

    @property
    def loss_heads(self) -> tuple[Head, ...]:
        """Heads in loss order: the st/mt term first, the asr term last."""
        return tuple(sorted(self.heads, key=lambda h: h.task == "asr"))


@dataclass(frozen=True)
class Wiring:
    routes: tuple[Route, ...]  # the first is the default
    adapter: str | None = None  # None | "encoder_top" | "asr_decoder_top"


_ST, _ASR = "decoder_st", "decoder_asr"

WIRING: dict[str, Wiring] = {
    "direct": Wiring((Route("speech", (Head(_ST, "st"),)),), "encoder_top"),
    "asr": Wiring((Route("speech", (Head(_ASR, "asr"),)),)),
    "mt": Wiring((Route("text", (Head(_ST, "mt"),)),)),
    "one2many": Wiring((Route("speech", (Head(_ST, "st", "lam"), Head(_ASR, "asr", "1-lam"))),), "encoder_top"),
    # Training alternates the routes batch by batch; lambda weights each mode's contribution.
    "many2one": Wiring(
        (Route("speech", (Head(_ST, "st", "lam"),)), Route("text", (Head(_ST, "mt", "1-lam"),))), "encoder_top"
    ),
    "tied_cascade": Wiring(
        (Route("speech", (Head(_ASR, "asr", "1-lam"), Head(_ST, "st", "lam", ("attn_dec",)))),), "asr_decoder_top"
    ),
    "tied_triangle": Wiring(
        (Route("speech", (Head(_ASR, "asr", "1-lam"), Head(_ST, "st", "lam", ("attn", "attn_dec")))),),
        "asr_decoder_top",
    ),
}

TOPOLOGIES = tuple(WIRING)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss hyperparameters shared by all topologies."""

    src_vocab_size: int  # total ids including reserved tokens
    tgt_vocab_size: int
    feature_dim: int
    emb_size: int = 32
    enc_hidden: int = 64  # per direction
    enc_layers: int = 3
    dec_hidden: int = 64
    dec_layers: int = 1
    attn_dim: int = 64
    pool_schedule: tuple[int, ...] = (2, 1, 1)  # pool size applied after encoder layer i
    loss_weight: float = 0.5  # lambda of the multi-task combination
    ctc_enabled: bool = False
    dropout: float = 0.1
    label_smoothing: float = 0.1

    def __post_init__(self):
        """Each error message starts with the field's name."""
        if not 0.0 <= self.loss_weight <= 1.0:
            raise NumericsError(f"loss_weight must lie in [0, 1], got {self.loss_weight}")
        if len(self.pool_schedule) != self.enc_layers:
            raise NumericsError(
                f"pool_schedule has {len(self.pool_schedule)} entries for {self.enc_layers} encoder layers"
            )
        if not all(isinstance(p, (int, np.integer)) for p in self.pool_schedule):
            raise NumericsError(f"pool_schedule sizes must be integers, got {self.pool_schedule}")
        if any(p < 1 for p in self.pool_schedule):
            raise NumericsError(f"pool_schedule sizes must be >= 1, got {self.pool_schedule}")
        if not self.pool_schedule:
            raise NumericsError("pool_schedule must be non-empty")

    @property
    def pool_product(self) -> int:
        out = 1
        for p in self.pool_schedule:
            out *= p
        return out

    @classmethod
    def desk(cls, src_vocab: Vocabulary, tgt_vocab: Vocabulary, **overrides) -> "ModelConfig":
        """Small default dimensions that train in seconds on a laptop."""
        kw = dict(
            src_vocab_size=src_vocab.size,
            tgt_vocab_size=tgt_vocab.size,
            feature_dim=src_vocab.content_size,
        )
        kw.update(overrides)
        return cls(**kw)


@dataclass(frozen=True)
class ModelGraph:
    topology: str
    config: ModelConfig
    active_enc_layers: int
    adapter_position: str | None  # the topology's WIRING position if the graph has an adapter, else None
    shapes: dict[str, tuple[int, ...]]

    @property
    def zero_init(self) -> frozenset[str]:
        """The tensors that start at zero."""
        return frozenset(filter(_starts_at_zero, self.shapes))

    def names(self) -> list[str]:
        return list(self.shapes)

    def component_prefixes(self) -> dict[str, list[str]]:
        """Map each top-level component prefix to its parameter names."""
        out: dict[str, list[str]] = {}
        for name in self.shapes:
            prefix = name.split(".", 1)[0] + "."
            out.setdefault(prefix, []).append(name)
        return out

    def effective_pools(self) -> tuple[int, ...]:
        """Pool sizes for the active stack; a trimmed stack folds the pools of
        the missing top layers into its last layer so T' stays invariant
        across layer-wise growth."""
        cfg = self.config
        active = self.active_enc_layers
        if active == cfg.enc_layers:
            return cfg.pool_schedule
        head = list(cfg.pool_schedule[: active - 1])
        tail = 1
        for p in cfg.pool_schedule[active - 1 :]:
            tail *= p
        return tuple(head + [tail])


@dataclass
class LossBreakdown:
    """Loss terms in nats (sums over the batch) plus the combined objective."""

    combined: Tensor
    st_loss: Tensor | None = None
    asr_loss: Tensor | None = None
    mt_loss: Tensor | None = None
    ctc_loss: Tensor | None = None
    token_hits: dict[str, tuple[int, int]] = field(default_factory=dict)

    def floats(self) -> dict[str, float]:
        out = {}
        for key in ("combined", "st_loss", "asr_loss", "mt_loss", "ctc_loss"):
            t = getattr(self, key)
            if t is not None:
                out[key] = t.item()
        return out


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _starts_at_zero(name: str) -> bool:
    """Biases b and attention feedback weights u start at zero."""
    return name.rsplit(".", 1)[-1] in ("b", "u")


def _lstm_shapes(shapes, prefix, d_in, hidden):
    shapes[f"{prefix}.w_ih"] = (d_in, 4 * hidden)
    shapes[f"{prefix}.w_hh"] = (hidden, 4 * hidden)
    shapes[f"{prefix}.b"] = (4 * hidden,)


def _blstm_layer_shapes(shapes, prefix, d_in, hidden):
    _lstm_shapes(shapes, f"{prefix}.fwd", d_in, hidden)
    _lstm_shapes(shapes, f"{prefix}.bwd", d_in, hidden)


def _encoder_shapes(shapes, prefix, in_dim, cfg: ModelConfig, layers: int):
    for i in range(layers):
        d_in = in_dim if i == 0 else 2 * cfg.enc_hidden
        _blstm_layer_shapes(shapes, f"{prefix}.l{i}", d_in, cfg.enc_hidden)


def _attention_shapes(shapes, prefix, dec_hidden, mem_dim, attn_dim):
    shapes[f"{prefix}.w_query"] = (dec_hidden, attn_dim)
    shapes[f"{prefix}.w_keys"] = (mem_dim, attn_dim)
    shapes[f"{prefix}.v"] = (attn_dim,)
    shapes[f"{prefix}.b"] = (attn_dim,)
    shapes[f"{prefix}.u"] = (attn_dim,)


def _decoder_shapes(shapes, prefix, vocab_total, cfg: ModelConfig, mem_dims: dict[str, int]):
    shapes[f"{prefix}.emb"] = (vocab_total, cfg.emb_size)
    ctx = sum(mem_dims.values())
    for j in range(cfg.dec_layers):
        d_in = cfg.emb_size + ctx if j == 0 else cfg.dec_hidden
        _lstm_shapes(shapes, f"{prefix}.lstm.l{j}", d_in, cfg.dec_hidden)
    for att_name, mem_dim in mem_dims.items():
        _attention_shapes(shapes, f"{prefix}.{att_name}", cfg.dec_hidden, mem_dim, cfg.attn_dim)
    shapes[f"{prefix}.out.w"] = (cfg.emb_size + cfg.dec_hidden + ctx, vocab_total)
    shapes[f"{prefix}.out.b"] = (vocab_total,)


def build(
    config: ModelConfig,
    topology: str,
    active_enc_layers: int | None = None,
    adapter: bool = False,
) -> ModelGraph:
    """Wire a topology into a parameter manifest under canonical prefixes.

    ``adapter`` adds one width-preserving BLSTM under adapter. at the
    topology's ``WIRING`` position: encoder_top (attention then consumes
    adapter outputs; the CTC head stays on the raw encoder) or
    asr_decoder_top (the second decoder's decoder-side attention consumes
    adapter outputs).
    """
    if topology not in WIRING:
        raise NumericsError(f"unknown topology {topology!r}")
    routes = WIRING[topology].routes
    position = WIRING[topology].adapter if adapter else None
    if adapter and position is None:
        raise NumericsError(f"topology {topology!r} has no adapter position")
    sources = {route.source for route in routes}
    if config.ctc_enabled and "speech" not in sources:
        raise NumericsError(f"CTC requires a speech encoder; {topology!r} has none")
    active = config.enc_layers if active_enc_layers is None else active_enc_layers
    if not 1 <= active <= config.enc_layers:
        raise NumericsError(f"active encoder layers {active} outside [1, {config.enc_layers}]")

    shapes: dict[str, tuple[int, ...]] = {}
    mem_dims = {"attn": 2 * config.enc_hidden, "attn_dec": config.dec_hidden}

    if "speech" in sources:
        _encoder_shapes(shapes, "encoder", config.feature_dim, config, active)
    if "text" in sources:
        shapes["text_encoder.emb"] = (config.src_vocab_size, config.emb_size)
        _encoder_shapes(shapes, "text_encoder", config.emb_size, config, config.enc_layers)
    for head in (head for route in routes for head in route.heads):
        if f"{head.decoder}.emb" not in shapes:  # many2one's routes share decoder_st
            vocab_total = config.src_vocab_size if head.task == "asr" else config.tgt_vocab_size
            _decoder_shapes(shapes, head.decoder, vocab_total, config, {m: mem_dims[m] for m in head.memories})
    if config.ctc_enabled:
        shapes["ctc_head.w"] = (mem_dims["attn"], config.src_vocab_size)
        shapes["ctc_head.b"] = (config.src_vocab_size,)
    if adapter:  # over the memory it feeds: attn at encoder_top, attn_dec at asr_decoder_top
        width = mem_dims["attn" if position == "encoder_top" else "attn_dec"]
        if width % 2:
            raise NumericsError(f"adapter input width {width} must be even")
        _blstm_layer_shapes(shapes, "adapter.l0", width, width // 2)
    return ModelGraph(topology, config, active, position, shapes)


def _create_missing(graph: ModelGraph, store: ParamStore) -> None:
    """Create each manifest tensor the store lacks; values depend only on
    (store seed, name)."""
    for name, shape in graph.shapes.items():
        if name not in store:
            store.create(name, shape, "zeros" if _starts_at_zero(name) else "uniform-fanin")


def init_store(graph: ModelGraph, seed: int) -> ParamStore:
    """Fresh parameters for a graph."""
    store = ParamStore(seed)
    _create_missing(graph, store)
    return store


def grow_encoder(graph: ModelGraph, store: ParamStore, new_layer_count: int) -> ModelGraph:
    """Add freshly initialized encoder layers on top; existing entries are
    untouched bit-for-bit. Pooling re-balances via ``effective_pools``."""
    if new_layer_count <= graph.active_enc_layers:
        raise NumericsError(
            f"cannot shrink encoder from {graph.active_enc_layers} to {new_layer_count} layers"
        )
    if new_layer_count > graph.config.enc_layers:
        raise NumericsError(f"encoder is configured for at most {graph.config.enc_layers} layers")
    grown = build(graph.config, graph.topology, new_layer_count, graph.adapter_position is not None)
    _create_missing(grown, store)
    return grown


def dropout_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent dropout RNG streams per component.

    Separate streams keep shared components' draw sequences identical across
    topologies (a one2many run consumes exactly the encoder/decoder_st draws
    a direct run would).
    """
    return {
        prefix: rng_for(seed, f"dropout.{prefix}")
        for prefix in ("encoder", "text_encoder", "decoder_st", "decoder_asr", "adapter")
    }


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _lstm_params(store: ParamStore, prefix: str) -> LstmParams:
    return LstmParams(store[f"{prefix}.w_ih"], store[f"{prefix}.w_hh"], store[f"{prefix}.b"])


def _attn_params(store: ParamStore, prefix: str) -> AttentionParams:
    return AttentionParams(
        store[f"{prefix}.w_query"],
        store[f"{prefix}.w_keys"],
        store[f"{prefix}.v"],
        store[f"{prefix}.b"],
        store[f"{prefix}.u"],
    )


def _blstm(h: Tensor | np.ndarray, lengths: np.ndarray, store: ParamStore, prefix: str) -> Tensor:
    return layers.lstm_sequence(h, lengths, _lstm_params(store, f"{prefix}.fwd"), _lstm_params(store, f"{prefix}.bwd"))


def _dropout_rng(graph, rngs, component) -> np.random.Generator | None:
    """The component's dropout stream, or None when no dropout applies."""
    if rngs is None or graph.config.dropout == 0.0:
        return None
    return rngs[component]


def _maybe_dropout(x, graph, rngs, component):
    rng = _dropout_rng(graph, rngs, component)
    return x if rng is None else dropout(x, graph.config.dropout, rng)


def run_speech_encoder(graph: ModelGraph, store: ParamStore, batch: Batch, rngs=None) -> EncoderStates:
    """BLSTM stack with interleaved temporal max pooling over (B, T, F)."""
    h = batch.frames  # a constant: the first layer computes no input gradient
    lengths = batch.frame_lengths
    for i, pool in enumerate(graph.effective_pools()):
        h = _blstm(h, lengths, store, f"encoder.l{i}")
        if pool > 1:
            h, lengths = max_pool_time(h, lengths, pool)
        h = _maybe_dropout(h, graph, rngs, "encoder")
    return EncoderStates(states=h, lengths=lengths)


def run_text_encoder(
    graph: ModelGraph, store: ParamStore, ids: np.ndarray, lengths: np.ndarray, rngs=None
) -> EncoderStates:
    """Embed source tokens and run the (unpooled) BLSTM stack."""
    h = tz.embedding(store["text_encoder.emb"], ids)
    for i in range(graph.config.enc_layers):
        h = _blstm(h, lengths, store, f"text_encoder.l{i}")
        h = _maybe_dropout(h, graph, rngs, "text_encoder")
    return EncoderStates(states=h, lengths=lengths)


def apply_adapter(graph: ModelGraph, store: ParamStore, states: EncoderStates, rngs=None) -> EncoderStates:
    """One fresh BLSTM between transplanted components; width-preserving."""
    h = _blstm(states.states, states.lengths, store, "adapter.l0")
    h = _maybe_dropout(h, graph, rngs, "adapter")
    return EncoderStates(states=h, lengths=states.lengths)


class _DecoderCore:
    """One decoder position at a time, as per-step Tensor ops. Nothing in
    the package runs it: it is kept as the building block of the tests'
    step-by-step oracles and as the patch point of perfbench's tracer, which
    wraps ``step`` and ``advance`` by name."""

    def __init__(self, graph, store, prefix, memories: list[tuple[str, EncoderStates]], vocab_total: int):
        self.graph = graph
        self.store = store
        self.prefix = prefix
        self.memories = memories
        self.vocab_total = vocab_total
        self.emb_table = store[f"{prefix}.emb"]
        self.out_w = store[f"{prefix}.out.w"]
        self.out_b = store[f"{prefix}.out.b"]
        self.attn = [(name, _attn_params(store, f"{prefix}.{name}")) for name, _ in memories]
        self.keys = [mem.states @ p.w_keys for (name, p), (_, mem) in zip(self.attn, memories)]
        self.n_layers = graph.config.dec_layers

    def initial_state(self, B: int):
        D = self.graph.config.dec_hidden
        layers = [(Tensor(np.zeros((B, D))), Tensor(np.zeros((B, D)))) for _ in range(self.n_layers)]
        feedback = [Tensor(np.zeros((B, mem.states.shape[1]))) for _, mem in self.memories]
        return layers, feedback

    def step(self, prev_ids, layers, feedback, training, rngs):
        """One decode position: attend, predict, and return (probs, contexts)."""
        top = layers[-1][0]
        contexts = []
        new_feedback = []
        for (name, params), (_, mem), keys, fb in zip(self.attn, self.memories, self.keys, feedback):
            att = additive_attention(top, mem, fb, params, keys=keys)
            contexts.append(att.context)
            new_feedback.append(att.feedback)
        ctx = contexts[0] if len(contexts) == 1 else tz.concat(contexts, axis=-1)
        e_prev = tz.embedding(self.emb_table, prev_ids)
        top_for_out = _maybe_dropout(top, self.graph, rngs if training else None, self.prefix.split(".")[0])
        probs = output_layer(e_prev, top_for_out, ctx, self.out_w, self.out_b)
        return probs, ctx, new_feedback

    def advance(self, token_ids, ctx, layers, step_mask):
        """Consume a token: s_i = LSTM(e_i, s_{i-1}, c_i), masked rows frozen."""
        e_cur = tz.embedding(self.emb_table, token_ids)
        x = tz.concat([e_cur, ctx], axis=-1)
        new_layers = []
        for j, (h, c) in enumerate(layers):
            h2, c2 = lstm_step(x, (h, c), _lstm_params(self.store, f"{self.prefix}.lstm.l{j}"), step_mask)
            new_layers.append((h2, c2))
            x = h2
        return new_layers


def _decoder_params(graph, store, prefix, memories: list[tuple[str, EncoderStates]]):
    """(memories with their attention parameters, embedding, LSTM stack,
    output weight, output bias) of the decoder under ``prefix``."""
    return (
        [(mem, _attn_params(store, f"{prefix}.{name}")) for name, mem in memories],
        store[f"{prefix}.emb"],
        [_lstm_params(store, f"{prefix}.lstm.l{j}") for j in range(graph.config.dec_layers)],
        store[f"{prefix}.out.w"],
        store[f"{prefix}.out.b"],
    )


def run_decoder_teacher_forced(
    graph: ModelGraph,
    store: ParamStore,
    prefix: str,
    memories: list[tuple[str, EncoderStates]],
    targets: np.ndarray,
    lengths: np.ndarray,
    vocab: Vocabulary,
    rngs=None,
) -> tuple[Tensor, int]:
    """Sum of label-smoothed step losses under teacher forcing, as one
    ``layers.teacher_forced_decoder`` node, with dropout on the decoder's
    stream, and the number of steps whose argmax is the target. Step s
    predicts target token s (or EOS at each sequence's end); padded steps
    contribute nothing to the loss or the accuracy counts.
    """
    cfg = graph.config
    return teacher_forced_decoder(
        *_decoder_params(graph, store, prefix, memories),
        targets,
        lengths,
        vocab.bos_id,
        vocab.eos_id,
        cfg.label_smoothing,
        cfg.dropout,
        _dropout_rng(graph, rngs, prefix),
    )


def run_decoder_greedy_rollout(
    graph: ModelGraph,
    store: ParamStore,
    prefix: str,
    memories: list[tuple[str, EncoderStates]],
    limits: np.ndarray,
    vocab: Vocabulary,
    rngs=None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Greedy decode collecting the (B, K, D) top-state sequence as one
    ``layers.greedy_rollout`` node: gradients flow through the states, and
    the argmax token choices are constants. Returns (the states, the (B,)
    steps each row ran, the (B, K) tokens). Row b stops after [EOS] or
    ``limits[b]`` steps (``head_memories`` caps it at ceil(1.5 J) for the
    loss and at the pooled frame count when decoding). With ``rngs``, each
    step that runs draws one (B, D) dropout mask on the decoder's stream, so
    the stream moves by exactly the steps taken."""
    return greedy_rollout(
        *_decoder_params(graph, store, prefix, memories),
        limits,
        vocab.bos_id,
        vocab.eos_id,
        vocab.pad_id,
        graph.config.dropout,
        _dropout_rng(graph, rngs, prefix),
    )


def _ctc_term(graph: ModelGraph, store: ParamStore, enc: EncoderStates, batch: Batch) -> Tensor:
    """The batch's summed CTC loss on the encoder output: one batched DP
    node over the (B, T', V+1) log-probs, the pooled frame lengths and the
    transcripts."""
    logits = enc.states @ store["ctc_head.w"] + store["ctc_head.b"]
    logp = tz.log_softmax(logits, axis=-1)
    return ctc_mod.batched_ctc_loss(logp, enc.lengths, batch.src, batch.src_lengths)


def _task_vocab(graph: ModelGraph, task: str) -> Vocabulary:
    """asr decodes the source stream, st and mt the target stream."""
    if task == "asr":
        return Vocabulary.make("s", graph.config.src_vocab_size - 4)
    return Vocabulary.make("t", graph.config.tgt_vocab_size - 4)


def route_for(topology: str, mode: str | None = None) -> Route:
    """The topology's route whose source is ``mode``; None picks the default."""
    routes = WIRING[topology].routes
    for route in routes:
        if mode in (None, route.source):
            return route
    raise NumericsError(f"topology {topology!r} has no {mode!r} mode; its modes are {[r.source for r in routes]}")


class EncodingMismatchError(NumericsError):
    """An ``Encoding`` passed in is not of the input it is used for."""


def _source_input(batch: Batch, source: str) -> tuple[np.ndarray, np.ndarray]:
    """The batch stream a source encoder reads, and its lengths."""
    return (batch.src, batch.src_lengths) if source == "text" else (batch.frames, batch.frame_lengths)


@dataclass(frozen=True)
class Rollout:
    """decoder_asr's greedy rollout over an ``Encoding``'s ``attn`` memory,
    run once under ``no_grad`` and without dropout at per-row ``limits``:
    its (B, K, D) top states, the (B,) steps each row ran and its (B, K)
    tokens (see ``run_decoder_greedy_rollout``)."""

    limits: np.ndarray
    states: Tensor
    steps: np.ndarray
    tokens: np.ndarray

    def cut(self, limits: np.ndarray) -> EncoderStates:
        """The states and steps of the rollout run at ``limits``, each at
        most this one's (``EncodingMismatchError`` otherwise): steps
        min(steps run, limits), states cut at the longest. A row's states
        past its own steps are not the frozen ones a run at ``limits`` would
        return; every reader of the memory masks them."""
        if limits.shape != self.limits.shape or (limits > self.limits).any():
            raise EncodingMismatchError(f"a rollout at limits {self.limits} cannot be cut to limits {limits}")
        steps = np.minimum(self.steps, limits)
        K = int(steps.max())
        states = self.states if K == self.states.shape[1] else Tensor(np.ascontiguousarray(self.states.data[:, :K]))
        return EncoderStates(states, steps)


@dataclass(frozen=True)
class Encoding:
    """``encode``'s output for one batch: the source encoder's states
    ``enc`` and the ``attn`` memory, with the source and the input they were
    computed from, so that a caller that encodes once can hand them on.

    ``with_rollout`` adds decoder_asr's greedy rollout over ``attn``, so
    that one rollout serves every pass over the batch that reads the tied
    topologies' ``attn_dec`` memory: ``head_memories`` cuts it to the
    loss's limits (``forward``) or to the decode's (``decode.beam_search``),
    and a caller that reads its tokens up to a length has the greedy
    transcript of that length. Each cut is bit for bit what a rollout run at
    its own limits gives, for three reasons:

    - until a greedy row stops, its trajectory does not depend on its
      limit, so a larger limit only appends steps after the cut;
    - a rollout row is bit-identical across the batch's row order and row
      count under the row rule of the ``layers`` docstring (pinned under row
      permutations in ``tests/test_models.py``), and rollouts at different
      limits pack their rows differently;
    - the states past a row's steps, which differ between the two, are
      masked in attention, where they enter the context product with
      weight 0, and the adapter BLSTM never reads them.

    The tokens match a beam-1 ``decode.beam_search`` with one exception:
    beam 1 ranks by cumulative score + log p, so where two tokens tie after
    rounding although their probabilities differ, it takes the lower id and
    the rollout the more probable one.
    """

    source: str  # "speech" | "text"
    inputs: tuple[np.ndarray, np.ndarray]  # ``_source_input`` of the encoded batch
    enc: EncoderStates
    attn: EncoderStates
    rollout: Rollout | None = None

    def check(self, batch: Batch, source: str) -> None:
        """Raise ``EncodingMismatchError`` unless this encodes ``batch``'s
        ``source`` input."""
        if self.source != source or not all(map(np.array_equal, self.inputs, _source_input(batch, source))):
            raise EncodingMismatchError(f"a {self.source} encoding of another input was passed for a {source} batch")


def encode(graph, store, batch: Batch, source: str, rngs=None) -> Encoding:
    """The source encoder's states and the ``attn`` memory: the same states,
    through the adapter when it sits at encoder_top (on the speech encoder)."""
    inputs = _source_input(batch, source)
    if source == "text":
        enc = run_text_encoder(graph, store, *inputs, rngs)
        return Encoding(source, inputs, enc, enc)
    enc = run_speech_encoder(graph, store, batch, rngs)
    attn = apply_adapter(graph, store, enc, rngs) if graph.adapter_position == "encoder_top" else enc
    return Encoding(source, inputs, enc, attn)


def _rollout_limits(batch: Batch, enc: EncoderStates, decoding: bool) -> np.ndarray:
    """decoder_asr's per-row rollout cap: ceil(1.5 J) transcript tokens for
    the loss and, when decoding (no transcripts), the pooled frame count;
    at least one step."""
    return np.maximum(1, enc.lengths if decoding else np.ceil(1.5 * batch.src_lengths).astype(np.int64))


def with_rollout(graph, store, batch: Batch, encoding: Encoding, max_len: int) -> Encoding:
    """``encoding`` carrying decoder_asr's greedy rollout over its ``attn``
    memory (an ``Encoding.rollout``), run under ``no_grad`` at each row's
    largest of the loss's cap, the decode's cap and ``max_len``, the
    transcript length a caller reads."""
    limits = np.maximum(_rollout_limits(batch, encoding.enc, False), _rollout_limits(batch, encoding.enc, True))
    limits = np.maximum(limits, max_len)
    with no_grad():
        states, steps, tokens = run_decoder_greedy_rollout(
            graph, store, "decoder_asr", [("attn", encoding.attn)], limits, _task_vocab(graph, "asr")
        )
    return replace(encoding, rollout=Rollout(limits, states, steps, tokens))


def head_memories(
    graph, store, batch: Batch, head: Head, encoding: Encoding, rngs=None, decoding=False
) -> list[tuple[str, EncoderStates]]:
    """A head's (name, memory) list. ``attn_dec`` is decoder_asr's greedy
    rollout over ``attn``, through the adapter when it sits at
    asr_decoder_top. The rollout is capped per row at ceil(1.5 J) transcript
    tokens for the loss and, when ``decoding`` (no transcripts), at the
    pooled frame count. An ``encoding`` with a rollout gives it cut to those
    caps (``Rollout.cut``), bit for bit the rollout run at them (see
    ``Encoding``). It was run under ``no_grad`` without dropout and is
    taken as it is, as ``forward`` takes the encoder states; without one,
    the rollout runs here, drawing on ``rngs``."""
    memories = {"attn": encoding.attn}
    if "attn_dec" in head.memories:
        limits = _rollout_limits(batch, encoding.enc, decoding)
        if encoding.rollout is None:
            states, lengths, _ = run_decoder_greedy_rollout(
                graph, store, "decoder_asr", [("attn", encoding.attn)], limits, _task_vocab(graph, "asr"), rngs
            )
            dec = EncoderStates(states, lengths)
        else:
            dec = encoding.rollout.cut(limits)
        if graph.adapter_position == "asr_decoder_top":
            dec = apply_adapter(graph, store, dec, rngs)
        memories["attn_dec"] = dec
    return [(name, memories[name]) for name in head.memories]


def forward(
    graph, store, batch: Batch, mode: str | None = None, training=False, rngs=None, encoding: Encoding | None = None
) -> LossBreakdown:
    """The combined training loss of the route ``mode`` (default: the first).

    Heads run in table order. The loss sums weight * (head loss, plus CTC on
    the CTC head) over heads, st/mt term first and a weight of 1 left out:
    e.g. lam * st + (1 - lam) * (asr + ctc). Dropout runs only in
    ``training``, drawing on ``rngs``. ``encoding``, the route's ``encode``
    of this batch, stands in for running the encoder (it carries whatever
    dropout and gradient recording it was computed under); one of another
    input raises ``EncodingMismatchError``.
    """
    route = route_for(graph.topology, mode)
    rngs = rngs if training else None
    if encoding is None:
        encoding = encode(graph, store, batch, route.source, rngs)
    else:
        encoding.check(batch, route.source)
    runs = {}  # head -> (loss, hits, steps)
    for head in route.heads:
        memories = head_memories(graph, store, batch, head, encoding, rngs)
        targets, lengths = (batch.src, batch.src_lengths) if head.task == "asr" else (batch.tgt, batch.tgt_lengths)
        loss, hits = run_decoder_teacher_forced(
            graph, store, head.decoder, memories, targets, lengths, _task_vocab(graph, head.task), rngs
        )
        runs[head] = loss, hits, int(lengths.sum()) + len(lengths)  # L + 1 steps per row
    parts = LossBreakdown(combined=None)
    ctc_head = None
    if graph.config.ctc_enabled and route.source == "speech":
        parts.ctc_loss = _ctc_term(graph, store, encoding.enc, batch)
        # CTC folds into the asr head's term, or the only head's if none is asr.
        ctc_head = next((h for h in route.heads if h.task == "asr"), route.heads[0])
    lam = graph.config.loss_weight
    for head in route.loss_heads:
        loss, hits, steps = runs[head]
        setattr(parts, f"{head.task}_loss", loss)
        parts.token_hits[head.task] = (hits, steps)
        term = loss + parts.ctc_loss if head == ctc_head else loss
        if head.weight != "1":
            term = (lam if head.weight == "lam" else 1.0 - lam) * term
        parts.combined = term if parts.combined is None else parts.combined + term
    return parts
