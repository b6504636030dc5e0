"""Model graphs: seven topologies, each "encoders -> memories -> attention
decoders -> weighted losses", described as data in ``WIRING`` and read by
``build`` (the parameter manifest), ``forward`` (the combined training loss)
and ``encode``/``head_memories`` (the memories, shared with decoding). A
topology has one route per input mode, the first being the default; a route
names its source encoder and its heads in run order; a head is a decoder
prefix, a task, its loss weight and the memories it attends over.

A ``ModelGraph`` is immutable wiring: a manifest of parameter names/shapes
grouped under canonical component prefixes (encoder., text_encoder.,
decoder_st., decoder_asr., ctc_head., adapter.) so that checkpoints
transplant across topologies. ``forward`` is pure in (graph, store, batch)
and returns a ``LossBreakdown`` whose ``combined`` field is the
differentiable training objective.

Each teacher-forced decoder run is one fused graph node,
``layers.teacher_forced_decoder``; ``run_decoder_teacher_forced`` lays out
its step targets, masks and dropout multipliers. The tied topologies' greedy
rollout is one fused node too, ``layers.greedy_rollout``, and beam search
runs the same numpy step, ``layers.DecoderKernel``. ``_DecoderCore``, the
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
    dropout_keep,
    embed,
    greedy_rollout,
    label_smoothed_ce,  # noqa: F401  (a models binding that perfbench tracing wraps)
    lstm_step,  # noqa: F401  (a models binding that perfbench tracing wraps; only _DecoderCore calls it)
    max_pool_time,
    output_layer,  # noqa: F401  (a models binding that perfbench tracing wraps; only _DecoderCore calls it)
    precompute_attention_keys,  # noqa: F401  (only _DecoderCore, the tracer's patch point, calls it)
    teacher_forced_decoder,
)
from .numerics import ParamStore, rng_for
from .tensor import NumericsError, Tensor

__all__ = [
    "TOPOLOGIES",
    "WIRING",
    "Head",
    "Route",
    "Wiring",
    "ModelConfig",
    "ModelGraph",
    "LossBreakdown",
    "encode",
    "head_memories",
    "build",
    "with_adapter",
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

ADAPTER_POSITIONS = {topology: w.adapter for topology, w in WIRING.items() if w.adapter is not None}


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
        if not 0.0 <= self.loss_weight <= 1.0:
            raise NumericsError(f"loss_weight must lie in [0, 1], got {self.loss_weight}")
        if len(self.pool_schedule) != self.enc_layers:
            raise NumericsError(
                f"pool_schedule has {len(self.pool_schedule)} entries for {self.enc_layers} encoder layers"
            )
        if any(p < 1 for p in self.pool_schedule):
            raise NumericsError("pool sizes must be >= 1")
        if not self.pool_schedule:
            raise NumericsError("pool schedule must be non-empty")

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
    adapter_position: str | None  # None | "encoder_top" | "asr_decoder_top"
    shapes: dict[str, tuple[int, ...]]
    zero_init: frozenset[str]

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

    def accuracy(self, task: str) -> float:
        hits, total = self.token_hits.get(task, (0, 0))
        return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _lstm_shapes(shapes, zero, prefix, d_in, hidden):
    shapes[f"{prefix}.w_ih"] = (d_in, 4 * hidden)
    shapes[f"{prefix}.w_hh"] = (hidden, 4 * hidden)
    shapes[f"{prefix}.b"] = (4 * hidden,)
    zero.add(f"{prefix}.b")


def _blstm_layer_shapes(shapes, zero, prefix, d_in, hidden):
    _lstm_shapes(shapes, zero, f"{prefix}.fwd", d_in, hidden)
    _lstm_shapes(shapes, zero, f"{prefix}.bwd", d_in, hidden)


def _encoder_shapes(shapes, zero, prefix, in_dim, cfg: ModelConfig, layers: int):
    for i in range(layers):
        d_in = in_dim if i == 0 else 2 * cfg.enc_hidden
        _blstm_layer_shapes(shapes, zero, f"{prefix}.l{i}", d_in, cfg.enc_hidden)


def _attention_shapes(shapes, zero, prefix, dec_hidden, mem_dim, attn_dim):
    shapes[f"{prefix}.w_query"] = (dec_hidden, attn_dim)
    shapes[f"{prefix}.w_keys"] = (mem_dim, attn_dim)
    shapes[f"{prefix}.v"] = (attn_dim,)
    shapes[f"{prefix}.b"] = (attn_dim,)
    shapes[f"{prefix}.u"] = (attn_dim,)
    zero.add(f"{prefix}.b")
    zero.add(f"{prefix}.u")


def _decoder_shapes(shapes, zero, prefix, vocab_total, cfg: ModelConfig, mem_dims: dict[str, int]):
    shapes[f"{prefix}.emb"] = (vocab_total, cfg.emb_size)
    ctx = sum(mem_dims.values())
    for j in range(cfg.dec_layers):
        d_in = cfg.emb_size + ctx if j == 0 else cfg.dec_hidden
        _lstm_shapes(shapes, zero, f"{prefix}.lstm.l{j}", d_in, cfg.dec_hidden)
    for att_name, mem_dim in mem_dims.items():
        _attention_shapes(shapes, zero, f"{prefix}.{att_name}", cfg.dec_hidden, mem_dim, cfg.attn_dim)
    shapes[f"{prefix}.out.w"] = (cfg.emb_size + cfg.dec_hidden + ctx, vocab_total)
    shapes[f"{prefix}.out.b"] = (vocab_total,)
    zero.add(f"{prefix}.out.b")


def build(
    config: ModelConfig,
    topology: str,
    active_enc_layers: int | None = None,
    adapter_position: str | None = None,
) -> ModelGraph:
    """Wire a topology into a parameter manifest under canonical prefixes."""
    if topology not in WIRING:
        raise NumericsError(f"unknown topology {topology!r}")
    routes = WIRING[topology].routes
    sources = {route.source for route in routes}
    if config.ctc_enabled and "speech" not in sources:
        raise NumericsError(f"CTC requires a speech encoder; {topology!r} has none")
    active = config.enc_layers if active_enc_layers is None else active_enc_layers
    if not 1 <= active <= config.enc_layers:
        raise NumericsError(f"active encoder layers {active} outside [1, {config.enc_layers}]")

    shapes: dict[str, tuple[int, ...]] = {}
    zero: set[str] = set()
    mem_dims = {"attn": 2 * config.enc_hidden, "attn_dec": config.dec_hidden}

    if "speech" in sources:
        _encoder_shapes(shapes, zero, "encoder", config.feature_dim, config, active)
    if "text" in sources:
        shapes["text_encoder.emb"] = (config.src_vocab_size, config.emb_size)
        _encoder_shapes(shapes, zero, "text_encoder", config.emb_size, config, config.enc_layers)
    for head in (head for route in routes for head in route.heads):
        if f"{head.decoder}.emb" not in shapes:  # many2one's routes share decoder_st
            vocab_total = config.src_vocab_size if head.task == "asr" else config.tgt_vocab_size
            _decoder_shapes(shapes, zero, head.decoder, vocab_total, config, {m: mem_dims[m] for m in head.memories})
    if config.ctc_enabled:
        shapes["ctc_head.w"] = (mem_dims["attn"], config.src_vocab_size)
        shapes["ctc_head.b"] = (config.src_vocab_size,)
        zero.add("ctc_head.b")

    graph = ModelGraph(
        topology=topology,
        config=config,
        active_enc_layers=active,
        adapter_position=None,
        shapes=shapes,
        zero_init=frozenset(zero),
    )
    if adapter_position is not None:
        graph = with_adapter(graph, adapter_position)
    return graph


def with_adapter(graph: ModelGraph, position: str) -> ModelGraph:
    """Add one width-preserving BLSTM under the adapter. prefix.

    The only valid position is the topology's ``WIRING`` entry: encoder_top
    (attention then consumes adapter outputs; the CTC head stays on the raw
    encoder) or asr_decoder_top (the second decoder's decoder-side attention
    consumes adapter outputs).
    """
    if graph.adapter_position is not None:
        raise NumericsError("graph already has an adapter")
    if position is None or position != WIRING[graph.topology].adapter:
        raise NumericsError(f"adapter position {position!r} is invalid for topology {graph.topology!r}")
    add_shapes, add_zero = adapter_shapes(graph, position)
    shapes = dict(graph.shapes)
    shapes.update(add_shapes)
    return replace(
        graph,
        adapter_position=position,
        shapes=shapes,
        zero_init=frozenset(set(graph.zero_init) | add_zero),
    )


def adapter_shapes(graph: ModelGraph, position: str) -> tuple[dict[str, tuple[int, ...]], set[str]]:
    """Parameter manifest of one adapter BLSTM for the given position."""
    shapes: dict[str, tuple[int, ...]] = {}
    zero: set[str] = set()
    widths = {"encoder_top": 2 * graph.config.enc_hidden, "asr_decoder_top": graph.config.dec_hidden}
    if position not in widths:
        raise NumericsError(f"unknown adapter position {position!r}")
    width = widths[position]
    if width % 2:
        raise NumericsError(f"adapter input width {width} must be even")
    _blstm_layer_shapes(shapes, zero, "adapter.l0", width, width // 2)
    return shapes, zero


def init_store(graph: ModelGraph, seed: int) -> ParamStore:
    """Fresh parameters for a graph; values depend only on (seed, name)."""
    store = ParamStore(seed)
    for name, shape in graph.shapes.items():
        store.create(name, shape, "zeros" if name in graph.zero_init else "uniform-fanin")
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
    grown = build(
        graph.config,
        graph.topology,
        active_enc_layers=new_layer_count,
        adapter_position=graph.adapter_position,
    )
    for name, shape in grown.shapes.items():
        if name not in store:
            store.create(name, shape, "zeros" if name in grown.zero_init else "uniform-fanin")
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


def _blstm(h: Tensor, mask: np.ndarray, store: ParamStore, prefix: str) -> Tensor:
    return layers.lstm_sequence(h, mask, _lstm_params(store, f"{prefix}.fwd"), _lstm_params(store, f"{prefix}.bwd"))


def _dropout_rng(graph, training, rngs, component) -> np.random.Generator | None:
    """The component's dropout stream, or None when no dropout applies."""
    if rngs is None or not training or graph.config.dropout == 0.0:
        return None
    return rngs[component]


def _maybe_dropout(x, graph, training, rngs, component):
    rng = _dropout_rng(graph, training, rngs, component)
    return x if rng is None else dropout(x, graph.config.dropout, training, rng)


def run_speech_encoder(
    graph: ModelGraph, store: ParamStore, batch: Batch, training: bool = False, rngs=None
) -> EncoderStates:
    """BLSTM stack with interleaved temporal max pooling over (B, T, F)."""
    h = Tensor(batch.frames)
    mask = batch.frame_mask
    for i, pool in enumerate(graph.effective_pools()):
        h = _blstm(h, mask, store, f"encoder.l{i}")
        if pool > 1:
            h, mask = max_pool_time(h, mask, pool)
        h = _maybe_dropout(h, graph, training, rngs, "encoder")
    return EncoderStates(states=h, mask=mask)


def run_text_encoder(
    graph: ModelGraph, store: ParamStore, ids: np.ndarray, mask: np.ndarray, training: bool = False, rngs=None
) -> EncoderStates:
    """Embed source tokens and run the (unpooled) BLSTM stack."""
    h = embed(ids, store["text_encoder.emb"])
    for i in range(graph.config.enc_layers):
        h = _blstm(h, mask, store, f"text_encoder.l{i}")
        h = _maybe_dropout(h, graph, training, rngs, "text_encoder")
    return EncoderStates(states=h, mask=mask)


def apply_adapter(
    graph: ModelGraph, store: ParamStore, states: EncoderStates, training: bool = False, rngs=None
) -> EncoderStates:
    """One fresh BLSTM between transplanted components; width-preserving."""
    h = _blstm(states.states, states.mask, store, "adapter.l0")
    h = _maybe_dropout(h, graph, training, rngs, "adapter")
    return EncoderStates(states=h, mask=states.mask)


@dataclass
class DecoderRun:
    loss: Tensor  # masked sum of per-step smoothed cross entropies
    hits: int
    steps: int
    states: Tensor | None = None  # (B, K, D) collected top hidden states
    state_mask: np.ndarray | None = None
    tokens: np.ndarray | None = None  # (B, K) greedy emissions


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
        self.keys = [precompute_attention_keys(mem.states, p) for (name, p), (_, mem) in zip(self.attn, memories)]
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
        e_prev = embed(prev_ids, self.emb_table)
        top_for_out = _maybe_dropout(top, self.graph, training, rngs, self.prefix.split(".")[0])
        probs = output_layer(e_prev, top_for_out, ctx, self.out_w, self.out_b)
        return probs, ctx, new_feedback

    def advance(self, token_ids, ctx, layers, step_mask):
        """Consume a token: s_i = LSTM(e_i, s_{i-1}, c_i), masked rows frozen."""
        e_cur = embed(token_ids, self.emb_table)
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
    target_mask: np.ndarray,
    vocab: Vocabulary,
    training: bool = False,
    rngs=None,
) -> DecoderRun:
    """Sum of label-smoothed step losses under teacher forcing.

    Step s predicts target token s (or EOS at each sequence's end); padded
    steps contribute nothing to the loss or the accuracy counts. The whole
    run is one ``teacher_forced_decoder`` node. Its dropout masks for all S
    steps come from one draw on the decoder's stream, which yields the same
    values and leaves the stream where S per-step draws would.
    """
    B = targets.shape[0]
    lengths = target_mask.sum(axis=1).astype(np.int64)
    S = int(lengths.max()) + 1  # steps 0..L predict L tokens plus EOS
    steps = np.arange(S)[:, None]
    step_mask = (steps <= lengths).astype(np.float64)  # (S, B)
    cols = np.concatenate([targets, np.full((B, 1), vocab.eos_id, dtype=np.int64)], axis=1)[:, :S].T
    target_ids = np.where(steps < lengths, cols, vocab.eos_id).astype(np.int64)
    cfg = graph.config
    rng = _dropout_rng(graph, training, rngs, prefix)
    keep = None if rng is None else dropout_keep((S, B, cfg.dec_hidden), cfg.dropout, rng)
    loss, pred = teacher_forced_decoder(
        *_decoder_params(graph, store, prefix, memories),
        target_ids,
        step_mask,
        vocab.bos_id,
        cfg.label_smoothing,
        keep,
    )
    hits = int(((pred == target_ids) & (step_mask > 0)).sum())
    return DecoderRun(loss=loss, hits=hits, steps=int(step_mask.sum()))


def run_decoder_greedy_rollout(
    graph: ModelGraph,
    store: ParamStore,
    prefix: str,
    memories: list[tuple[str, EncoderStates]],
    limits: np.ndarray,
    vocab: Vocabulary,
    training: bool = False,
    rngs=None,
) -> DecoderRun:
    """Greedy decode collecting the (B, K, D) top-state sequence as one
    ``layers.greedy_rollout`` node: gradients flow through the states, and
    the argmax token choices are constants. Row b stops after [EOS] or
    ``limits[b]`` steps (``head_memories`` caps it at ceil(1.5 J) for the
    loss and at the pooled frame count when decoding). In training, each
    step that runs draws one (B, D) dropout mask on the decoder's stream,
    so the stream moves by exactly the steps taken."""
    states, state_mask, tokens = greedy_rollout(
        *_decoder_params(graph, store, prefix, memories),
        limits,
        vocab.bos_id,
        vocab.eos_id,
        vocab.pad_id,
        graph.config.dropout,
        _dropout_rng(graph, training, rngs, prefix),
    )
    return DecoderRun(loss=None, hits=0, steps=0, states=states, state_mask=state_mask, tokens=tokens)


def _ctc_term(graph: ModelGraph, store: ParamStore, enc: EncoderStates, batch: Batch) -> Tensor:
    """Sum of per-example CTC losses on the encoder output."""
    logits = enc.states @ store["ctc_head.w"] + store["ctc_head.b"]
    logp = tz.log_softmax(logits, axis=-1)
    lengths = enc.lengths
    src_lengths = batch.src_lengths()
    total = None
    for b in range(batch.size):
        term = ctc_mod.ctc_loss(logp[b, : int(lengths[b]), :], batch.src[b, : int(src_lengths[b])])
        total = term if total is None else total + term
    return total


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


def encode(graph, store, batch: Batch, source: str, training=False, rngs=None) -> tuple[EncoderStates, EncoderStates]:
    """The source encoder's states and the ``attn`` memory: the same states,
    through the adapter when it sits at encoder_top (on the speech encoder)."""
    if source == "text":
        enc = run_text_encoder(graph, store, batch.src, batch.src_mask, training, rngs)
        return enc, enc
    enc = run_speech_encoder(graph, store, batch, training, rngs)
    return enc, apply_adapter(graph, store, enc, training, rngs) if graph.adapter_position == "encoder_top" else enc


def head_memories(
    graph, store, batch: Batch, head: Head, enc, attn, training=False, rngs=None, decoding=False
) -> list[tuple[str, EncoderStates]]:
    """A head's (name, memory) list. ``attn_dec`` is decoder_asr's greedy
    rollout over ``attn``, through the adapter when it sits at
    asr_decoder_top. The rollout is capped per row at ceil(1.5 J) transcript
    tokens for the loss and, when ``decoding`` (no transcripts), at the
    pooled frame count."""
    memories = {"attn": attn}
    if "attn_dec" in head.memories:
        limits = np.maximum(1, enc.lengths if decoding else np.ceil(1.5 * batch.src_lengths()).astype(np.int64))
        rollout = run_decoder_greedy_rollout(
            graph, store, "decoder_asr", [("attn", attn)], limits, _task_vocab(graph, "asr"), training, rngs
        )
        memories["attn_dec"] = EncoderStates(rollout.states, rollout.state_mask)
        if graph.adapter_position == "asr_decoder_top":
            memories["attn_dec"] = apply_adapter(graph, store, memories["attn_dec"], training, rngs)
    return [(name, memories[name]) for name in head.memories]


def forward(graph, store, batch: Batch, mode: str | None = None, training=False, rngs=None) -> LossBreakdown:
    """The combined training loss of the route ``mode`` (default: the first).

    Heads run in table order. The loss sums weight * (head loss, plus CTC on
    the CTC head) over heads, st/mt term first and a weight of 1 left out:
    e.g. lam * st + (1 - lam) * (asr + ctc).
    """
    route = route_for(graph.topology, mode)
    enc, attn = encode(graph, store, batch, route.source, training, rngs)
    runs = {}
    for head in route.heads:
        memories = head_memories(graph, store, batch, head, enc, attn, training, rngs)
        targets, target_mask = (batch.src, batch.src_mask) if head.task == "asr" else (batch.tgt, batch.tgt_mask)
        runs[head] = run_decoder_teacher_forced(
            graph, store, head.decoder, memories, targets, target_mask, _task_vocab(graph, head.task), training, rngs
        )
    parts = LossBreakdown(combined=None)
    ctc_head = None
    if graph.config.ctc_enabled and route.source == "speech":
        parts.ctc_loss = _ctc_term(graph, store, enc, batch)
        # CTC folds into the asr head's term, or the only head's if none is asr.
        ctc_head = next((h for h in route.heads if h.task == "asr"), route.heads[0])
    lam = graph.config.loss_weight
    for head in route.loss_heads:
        run = runs[head]
        setattr(parts, f"{head.task}_loss", run.loss)
        parts.token_hits[head.task] = (run.hits, run.steps)
        term = run.loss + parts.ctc_loss if head == ctc_head else run.loss
        if head.weight != "1":
            term = (lam if head.weight == "lam" else 1.0 - lam) * term
        parts.combined = term if parts.combined is None else parts.combined + term
    return parts
