"""Model graphs: the five speech-translation topologies plus standalone
ASR and MT models, with their combined training losses.

A ``ModelGraph`` is immutable wiring: a manifest of parameter names/shapes
grouped under canonical component prefixes (encoder., text_encoder.,
decoder_st., decoder_asr., ctc_head., adapter.) so that checkpoints
transplant across topologies. Forward functions are pure in (graph, store,
batch) and return a ``LossBreakdown`` whose ``combined`` field is the
differentiable training objective.

Each teacher-forced decoder run is one fused graph node,
``layers.teacher_forced_decoder``; ``run_decoder_teacher_forced`` lays out
its step targets, masks and dropout multipliers. ``_DecoderCore`` composes
the per-step layers for the greedy rollout and for decoding, and the tests
build the step-by-step teacher-forced oracle from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from . import ctc as ctc_mod
from . import tensor as tz
from .data import Batch, Vocabulary
from .layers import (
    AttentionParams,
    EncoderStates,
    LstmParams,
    additive_attention,
    blstm,
    dropout,
    dropout_keep,
    embed,
    label_smoothed_ce,  # noqa: F401  (a models binding that perfbench tracing wraps)
    lstm_step,
    max_pool_time,
    output_layer,
    precompute_attention_keys,
    teacher_forced_decoder,
)
from .numerics import ParamStore, rng_for
from .tensor import NumericsError, Tensor

__all__ = [
    "TOPOLOGIES",
    "ModelConfig",
    "ModelGraph",
    "LossBreakdown",
    "build",
    "init_store",
    "grow_encoder",
    "forward",
    "forward_direct",
    "forward_one2many",
    "forward_many2one",
    "forward_tied_cascade",
    "forward_tied_triangle",
    "forward_asr",
    "forward_mt",
    "dropout_streams",
]

TOPOLOGIES = ("direct", "asr", "mt", "one2many", "many2one", "tied_cascade", "tied_triangle")

SPEECH_TOPOLOGIES = ("direct", "asr", "one2many", "many2one", "tied_cascade", "tied_triangle")


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

    @classmethod
    def paper_preset(cls, src_vocab: Vocabulary, tgt_vocab: Vocabulary, **overrides) -> "ModelConfig":
        """Full-scale dimensions (620 embeddings, 6x1024 BLSTM, pool 2x2x2)."""
        kw = dict(
            src_vocab_size=src_vocab.size,
            tgt_vocab_size=tgt_vocab.size,
            feature_dim=src_vocab.content_size,
            emb_size=620,
            enc_hidden=1024,
            enc_layers=6,
            dec_hidden=1024,
            dec_layers=1,
            attn_dim=1024,
            pool_schedule=(2, 2, 2, 1, 1, 1),
            dropout=0.3,
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
    n_sequences: int = 0

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
    if topology not in TOPOLOGIES:
        raise NumericsError(f"unknown topology {topology!r}")
    if config.ctc_enabled and topology == "mt":
        raise NumericsError("CTC requires a speech encoder; 'mt' has none")
    active = config.enc_layers if active_enc_layers is None else active_enc_layers
    if not 1 <= active <= config.enc_layers:
        raise NumericsError(f"active encoder layers {active} outside [1, {config.enc_layers}]")

    shapes: dict[str, tuple[int, ...]] = {}
    zero: set[str] = set()
    mem = 2 * config.enc_hidden

    if topology in SPEECH_TOPOLOGIES:
        _encoder_shapes(shapes, zero, "encoder", config.feature_dim, config, active)
    if topology in ("mt", "many2one"):
        shapes["text_encoder.emb"] = (config.src_vocab_size, config.emb_size)
        _encoder_shapes(shapes, zero, "text_encoder", config.emb_size, config, config.enc_layers)

    if topology in ("direct", "mt", "one2many", "many2one"):
        _decoder_shapes(shapes, zero, "decoder_st", config.tgt_vocab_size, config, {"attn": mem})
    if topology in ("asr", "one2many", "tied_cascade", "tied_triangle"):
        _decoder_shapes(shapes, zero, "decoder_asr", config.src_vocab_size, config, {"attn": mem})
    if topology == "tied_cascade":
        _decoder_shapes(shapes, zero, "decoder_st", config.tgt_vocab_size, config, {"attn_dec": config.dec_hidden})
    if topology == "tied_triangle":
        _decoder_shapes(
            shapes, zero, "decoder_st", config.tgt_vocab_size, config, {"attn": mem, "attn_dec": config.dec_hidden}
        )

    if config.ctc_enabled and topology in SPEECH_TOPOLOGIES:
        shapes["ctc_head.w"] = (mem, config.src_vocab_size)
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


ADAPTER_POSITIONS = {
    "direct": "encoder_top",
    "one2many": "encoder_top",
    "many2one": "encoder_top",
    "tied_cascade": "asr_decoder_top",
    "tied_triangle": "asr_decoder_top",
}


def with_adapter(graph: ModelGraph, position: str) -> ModelGraph:
    """Add one width-preserving BLSTM under the adapter. prefix.

    Valid positions: encoder_top for direct/one2many/many2one (attention then
    consumes adapter outputs; the CTC head stays on the raw encoder), and
    asr_decoder_top for the tied models (the second decoder's decoder-side
    attention consumes adapter outputs).
    """
    if graph.adapter_position is not None:
        raise NumericsError("graph already has an adapter")
    expected = ADAPTER_POSITIONS.get(graph.topology)
    if expected is None or position != expected:
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
    cfg = graph.config
    shapes: dict[str, tuple[int, ...]] = {}
    zero: set[str] = set()
    if position == "encoder_top":
        width = 2 * cfg.enc_hidden
    elif position == "asr_decoder_top":
        width = cfg.dec_hidden
    else:
        raise NumericsError(f"unknown adapter position {position!r}")
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


def _maybe_dropout(x, graph, training, rngs, component):
    if rngs is None or not training or graph.config.dropout == 0.0:
        return x
    return dropout(x, graph.config.dropout, training, rngs[component])


def run_speech_encoder(
    graph: ModelGraph, store: ParamStore, batch: Batch, training: bool = False, rngs=None
) -> EncoderStates:
    """BLSTM stack with interleaved temporal max pooling over (B, T, F)."""
    h = Tensor(batch.frames)
    mask = batch.frame_mask
    lengths = mask.sum(axis=1).astype(np.int64)
    for i, pool in enumerate(graph.effective_pools()):
        h = blstm(h, mask, _lstm_params(store, f"encoder.l{i}.fwd"), _lstm_params(store, f"encoder.l{i}.bwd"))
        if pool > 1:
            h, mask = max_pool_time(h, mask, pool)
        h = _maybe_dropout(h, graph, training, rngs, "encoder")
    return EncoderStates(states=h, mask=mask, input_lengths=lengths)


def run_text_encoder(
    graph: ModelGraph, store: ParamStore, ids: np.ndarray, mask: np.ndarray, training: bool = False, rngs=None
) -> EncoderStates:
    """Embed source tokens and run the (unpooled) BLSTM stack."""
    h = embed(ids, store["text_encoder.emb"])
    lengths = mask.sum(axis=1).astype(np.int64)
    for i in range(graph.config.enc_layers):
        h = blstm(h, mask, _lstm_params(store, f"text_encoder.l{i}.fwd"), _lstm_params(store, f"text_encoder.l{i}.bwd"))
        h = _maybe_dropout(h, graph, training, rngs, "text_encoder")
    return EncoderStates(states=h, mask=mask, input_lengths=lengths)


def apply_adapter(
    graph: ModelGraph, store: ParamStore, states: EncoderStates, training: bool = False, rngs=None
) -> EncoderStates:
    """One fresh BLSTM between transplanted components; width-preserving."""
    h = blstm(states.states, states.mask, _lstm_params(store, "adapter.l0.fwd"), _lstm_params(store, "adapter.l0.bwd"))
    h = _maybe_dropout(h, graph, training, rngs, "adapter")
    return EncoderStates(states=h, mask=states.mask, input_lengths=states.input_lengths)


@dataclass
class DecoderRun:
    loss: Tensor  # masked sum of per-step smoothed cross entropies
    hits: int
    steps: int
    states: Tensor | None = None  # (B, K, D) collected top hidden states
    state_mask: np.ndarray | None = None
    tokens: np.ndarray | None = None  # (B, K) greedy emissions


class _DecoderCore:
    """Step logic of the greedy rollout and of decoding, one position at a time."""

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
    keep = None
    if rngs is not None and training and cfg.dropout != 0.0:
        keep = dropout_keep((S, B, cfg.dec_hidden), cfg.dropout, rngs[prefix])
    loss, pred = teacher_forced_decoder(
        [(mem, _attn_params(store, f"{prefix}.{name}")) for name, mem in memories],
        store[f"{prefix}.emb"],
        [_lstm_params(store, f"{prefix}.lstm.l{j}") for j in range(cfg.dec_layers)],
        store[f"{prefix}.out.w"],
        store[f"{prefix}.out.b"],
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
    """Greedy decode collecting the state sequence (gradients flow through
    states; the argmax token choices are treated as constants)."""
    B = limits.shape[0]
    core = _DecoderCore(graph, store, prefix, memories, vocab.size)
    layers, feedback = core.initial_state(B)
    prev_ids = np.full(B, vocab.bos_id, dtype=np.int64)
    alive = np.ones(B, dtype=bool)
    states = []
    state_masks = []
    tokens = []
    k = 0
    max_steps = int(limits.max())
    while alive.any() and k < max_steps:
        step_mask = (alive & (k < limits)).astype(np.float64)
        probs, ctx, feedback = core.step(prev_ids, layers, feedback, training, rngs)
        chosen = probs.data.argmax(axis=-1)
        chosen = np.where(step_mask > 0, chosen, vocab.pad_id)
        layers = core.advance(chosen, ctx, layers, step_mask)
        states.append(layers[-1][0])
        state_masks.append(step_mask)
        tokens.append(chosen)
        alive = alive & (chosen != vocab.eos_id) & (k + 1 < limits)
        prev_ids = chosen
        k += 1
    run_states = tz.stack(states, axis=1)  # (B, K, D)
    return DecoderRun(
        loss=None,
        hits=0,
        steps=0,
        states=run_states,
        state_mask=np.stack(state_masks, axis=1),
        tokens=np.stack(tokens, axis=1),
    )


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


def _vocabs(graph: ModelGraph) -> tuple[Vocabulary, Vocabulary]:
    src = Vocabulary.make("s", graph.config.src_vocab_size - 4)
    tgt = Vocabulary.make("t", graph.config.tgt_vocab_size - 4)
    return src, tgt


def forward_direct(graph, store, batch: Batch, training=False, rngs=None) -> LossBreakdown:
    src_vocab, tgt_vocab = _vocabs(graph)
    enc = run_speech_encoder(graph, store, batch, training, rngs)
    mem = enc
    if graph.adapter_position == "encoder_top":
        mem = apply_adapter(graph, store, enc, training, rngs)
    st = run_decoder_teacher_forced(
        graph, store, "decoder_st", [("attn", mem)], batch.tgt, batch.tgt_mask, tgt_vocab, training, rngs
    )
    parts = LossBreakdown(combined=st.loss, st_loss=st.loss, n_sequences=batch.size)
    parts.token_hits["st"] = (st.hits, st.steps)
    if graph.config.ctc_enabled:
        parts.ctc_loss = _ctc_term(graph, store, enc, batch)
        parts.combined = st.loss + parts.ctc_loss
    return parts


def forward_asr(graph, store, batch: Batch, training=False, rngs=None) -> LossBreakdown:
    src_vocab, _ = _vocabs(graph)
    enc = run_speech_encoder(graph, store, batch, training, rngs)
    mem = enc
    if graph.adapter_position == "encoder_top":
        mem = apply_adapter(graph, store, enc, training, rngs)
    asr = run_decoder_teacher_forced(
        graph, store, "decoder_asr", [("attn", mem)], batch.src, batch.src_mask, src_vocab, training, rngs
    )
    parts = LossBreakdown(combined=asr.loss, asr_loss=asr.loss, n_sequences=batch.size)
    parts.token_hits["asr"] = (asr.hits, asr.steps)
    if graph.config.ctc_enabled:
        parts.ctc_loss = _ctc_term(graph, store, enc, batch)
        parts.combined = asr.loss + parts.ctc_loss
    return parts


def forward_mt(graph, store, batch: Batch, training=False, rngs=None) -> LossBreakdown:
    _, tgt_vocab = _vocabs(graph)
    enc = run_text_encoder(graph, store, batch.src, batch.src_mask, training, rngs)
    mt = run_decoder_teacher_forced(
        graph, store, "decoder_st", [("attn", enc)], batch.tgt, batch.tgt_mask, tgt_vocab, training, rngs
    )
    parts = LossBreakdown(combined=mt.loss, mt_loss=mt.loss, n_sequences=batch.size)
    parts.token_hits["mt"] = (mt.hits, mt.steps)
    return parts


def forward_one2many(graph, store, batch: Batch, training=False, rngs=None) -> LossBreakdown:
    """L = lambda * st + (1 - lambda) * asr, with CTC folded into the ASR
    term when enabled."""
    src_vocab, tgt_vocab = _vocabs(graph)
    lam = graph.config.loss_weight
    enc = run_speech_encoder(graph, store, batch, training, rngs)
    mem = enc
    if graph.adapter_position == "encoder_top":
        mem = apply_adapter(graph, store, enc, training, rngs)
    st = run_decoder_teacher_forced(
        graph, store, "decoder_st", [("attn", mem)], batch.tgt, batch.tgt_mask, tgt_vocab, training, rngs
    )
    asr = run_decoder_teacher_forced(
        graph, store, "decoder_asr", [("attn", mem)], batch.src, batch.src_mask, src_vocab, training, rngs
    )
    parts = LossBreakdown(combined=None, st_loss=st.loss, asr_loss=asr.loss, n_sequences=batch.size)
    parts.token_hits["st"] = (st.hits, st.steps)
    parts.token_hits["asr"] = (asr.hits, asr.steps)
    aux = asr.loss
    if graph.config.ctc_enabled:
        parts.ctc_loss = _ctc_term(graph, store, enc, batch)
        aux = asr.loss + parts.ctc_loss
    parts.combined = lam * st.loss + (1.0 - lam) * aux
    return parts


def forward_many2one(graph, store, batch: Batch, mode: str = "speech", training=False, rngs=None) -> LossBreakdown:
    """Shared text decoder attending on either encoder; training alternates
    batch modes round-robin, so lambda weights each mode's contribution."""
    src_vocab, tgt_vocab = _vocabs(graph)
    lam = graph.config.loss_weight
    if mode == "speech":
        enc = run_speech_encoder(graph, store, batch, training, rngs)
        mem = enc
        if graph.adapter_position == "encoder_top":
            mem = apply_adapter(graph, store, enc, training, rngs)
        st = run_decoder_teacher_forced(
            graph, store, "decoder_st", [("attn", mem)], batch.tgt, batch.tgt_mask, tgt_vocab, training, rngs
        )
        parts = LossBreakdown(combined=None, st_loss=st.loss, n_sequences=batch.size)
        parts.token_hits["st"] = (st.hits, st.steps)
        task = st.loss
        if graph.config.ctc_enabled:
            parts.ctc_loss = _ctc_term(graph, store, enc, batch)
            task = st.loss + parts.ctc_loss
        parts.combined = lam * task
        return parts
    if mode == "text":
        enc = run_text_encoder(graph, store, batch.src, batch.src_mask, training, rngs)
        mt = run_decoder_teacher_forced(
            graph, store, "decoder_st", [("attn", enc)], batch.tgt, batch.tgt_mask, tgt_vocab, training, rngs
        )
        parts = LossBreakdown(combined=(1.0 - lam) * mt.loss, mt_loss=mt.loss, n_sequences=batch.size)
        parts.token_hits["mt"] = (mt.hits, mt.steps)
        return parts
    raise NumericsError(f"many2one mode must be 'speech' or 'text', got {mode!r}")


def _forward_tied(graph, store, batch: Batch, triangle: bool, training=False, rngs=None) -> LossBreakdown:
    src_vocab, tgt_vocab = _vocabs(graph)
    lam = graph.config.loss_weight
    enc = run_speech_encoder(graph, store, batch, training, rngs)
    asr = run_decoder_teacher_forced(
        graph, store, "decoder_asr", [("attn", enc)], batch.src, batch.src_mask, src_vocab, training, rngs
    )
    # First decoder's output states come from a greedy pass (no teacher
    # forcing), truncated at 1.5x the transcript length.
    limits = np.maximum(1, np.ceil(1.5 * batch.src_lengths()).astype(np.int64))
    rollout = run_decoder_greedy_rollout(graph, store, "decoder_asr", [("attn", enc)], limits, src_vocab, training, rngs)
    dec_mem = EncoderStates(states=rollout.states, mask=rollout.state_mask, input_lengths=rollout.state_mask.sum(1))
    if graph.adapter_position == "asr_decoder_top":
        dec_mem = apply_adapter(graph, store, dec_mem, training, rngs)
    memories = [("attn", enc), ("attn_dec", dec_mem)] if triangle else [("attn_dec", dec_mem)]
    st = run_decoder_teacher_forced(
        graph, store, "decoder_st", memories, batch.tgt, batch.tgt_mask, tgt_vocab, training, rngs
    )
    parts = LossBreakdown(combined=None, st_loss=st.loss, asr_loss=asr.loss, n_sequences=batch.size)
    parts.token_hits["st"] = (st.hits, st.steps)
    parts.token_hits["asr"] = (asr.hits, asr.steps)
    aux = asr.loss
    if graph.config.ctc_enabled:
        parts.ctc_loss = _ctc_term(graph, store, enc, batch)
        aux = asr.loss + parts.ctc_loss
    parts.combined = lam * st.loss + (1.0 - lam) * aux
    return parts


def forward_tied_cascade(graph, store, batch: Batch, training=False, rngs=None) -> LossBreakdown:
    return _forward_tied(graph, store, batch, triangle=False, training=training, rngs=rngs)


def forward_tied_triangle(graph, store, batch: Batch, training=False, rngs=None) -> LossBreakdown:
    return _forward_tied(graph, store, batch, triangle=True, training=training, rngs=rngs)


def forward(graph, store, batch: Batch, mode: str | None = None, training=False, rngs=None) -> LossBreakdown:
    """Dispatch to the topology's forward pass."""
    if graph.topology == "direct":
        return forward_direct(graph, store, batch, training, rngs)
    if graph.topology == "asr":
        return forward_asr(graph, store, batch, training, rngs)
    if graph.topology == "mt":
        return forward_mt(graph, store, batch, training, rngs)
    if graph.topology == "one2many":
        return forward_one2many(graph, store, batch, training, rngs)
    if graph.topology == "many2one":
        return forward_many2one(graph, store, batch, mode or "speech", training, rngs)
    if graph.topology == "tied_cascade":
        return forward_tied_cascade(graph, store, batch, training, rngs)
    if graph.topology == "tied_triangle":
        return forward_tied_triangle(graph, store, batch, training, rngs)
    raise NumericsError(f"unknown topology {graph.topology!r}")
