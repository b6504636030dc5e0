"""Beam search over trained graphs, plus the ASR->MT cascade.

``beam_search`` decodes a padded batch of B utterances with K lanes each;
greedy is K=1. Memories are encoded once, and each step runs the numpy
decoder step ``layers.DecoderKernel`` over the live lanes only: one state
row per lane, tagged with its utterance and slot, so no memory is copied
per lane and lane slots beyond an utterance's active count are never
computed. Each step keeps an utterance's top K (lane, token) candidates under
the key (-score, the lane's lexicographic rank among its utterance's lanes,
token id), i.e. equal scores are ordered by token sequence: the lowest id
wins ties, so beam=1 reproduces greedy and zero-parameter models decode
deterministically. Finished hypotheses leave the beam, and so does every live
lane that can no longer reach its utterance's best finished one (the stopping
rule of Huang, Zhao & Ma 2017, applied to each lane): a step's
log-probabilities are at most 0, so no extension of a lane scores above the
lane, and no hypothesis outgrows max_len, so for len_norm >= 0 no live lane
ends above its score / max_len**len_norm. A lane leaves only when the best
finished normalized score is strictly above that bound, since an exact tie
can still win on token order, and an utterance stops when no lane is left.
A candidate that takes a dropped lane's place in a later top K ranks below
that lane's extensions, so it is out of reach too: dropping lanes removes
steps and lane rows without changing any output. Decoder weights and
memories are checked on entry, and each step's probabilities and the states
the next step reads (``NonFiniteError``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers, models
from .data import Batch, Vocabulary, pad_sequences
from .layers import EncoderStates
from .models import ModelGraph
from .models import apply_adapter  # noqa: F401  (a decode binding that perfbench tracing wraps)
from .numerics import ParamStore
from .tensor import NumericsError, check_finite, no_grad

__all__ = [
    "Hypothesis",
    "CascadeResult",
    "DirectionError",
    "beam_search",
    "greedy_decode_batch",
    "beam_decode",
    "cascade_batch",
    "default_direction",
    "default_max_len",
]

_LOGP_FLOOR = 1e-300


class DirectionError(NumericsError):
    """The graph's topology cannot decode the requested direction."""


@dataclass
class Hypothesis:
    tokens: list[int]  # emitted ids; ends with EOS when finished
    score: float  # cumulative model log-probability (nats)
    finished: bool
    flag: str | None = None

    def normalized(self, alpha: float) -> float:
        return self.score / max(1, len(self.tokens)) ** alpha

    def content(self, vocab: Vocabulary) -> list[int]:
        """Token ids with EOS and any other reserved ids stripped."""
        return [t for t in self.tokens if t < vocab.content_size]


@dataclass
class CascadeResult:
    translation: Hypothesis
    transcript: Hypothesis


def default_direction(topology: str) -> str:
    """The task of the default route's first head in loss order."""
    return models.route_for(topology).loss_heads[0].task


def default_max_len(longest: int) -> int:
    """The decode length when none is configured: twice the longest
    reference of the data (in tokens), plus two."""
    return 2 * longest + 2


def _input_batch(graph: ModelGraph, xs: list, direction: str) -> Batch:
    """Unpadded inputs, frame arrays or (for 'mt') source id sequences, as
    one padded batch."""
    text = direction == "mt"
    xs = [np.asarray(x, dtype=np.int64 if text else np.float64) for x in xs]
    if text and any(x.ndim != 1 or x.size == 0 for x in xs):
        raise NumericsError("text input must be non-empty 1-D id sequences")
    B = len(xs)
    padded, lengths = pad_sequences(xs, models._task_vocab(graph, "asr").pad_id if text else 0)
    no_ids, empty = np.zeros((B, 1), dtype=np.int64), np.zeros(B, dtype=np.int64)
    if text:
        return Batch(list(range(B)), np.zeros((B, 1, graph.config.feature_dim)), empty, padded, lengths, no_ids, empty)
    return Batch(list(range(B)), padded, lengths, no_ids, empty, no_ids, empty)


def prepare_memories(
    graph: ModelGraph, store: ParamStore, batch: Batch, direction: str, encoding: models.Encoding | None = None
) -> tuple[list[tuple[str, EncoderStates]], str, Vocabulary]:
    """Encode inputs for a decode direction: the memories of the head whose
    task is ``direction``.

    Returns (memories, decoder prefix, output-side vocabulary). For the tied
    topologies the first decoder is rolled out greedily (capped at the pooled
    frame count) to build the second decoder's memory. ``encoding``, the
    head's route's ``models.encode`` of this batch, stands in for running the
    encoder; one of another source or input raises
    ``models.EncodingMismatchError``.
    """
    if direction not in ("st", "asr", "mt"):
        raise DirectionError(f"unknown decode direction {direction!r}")
    for route in models.WIRING[graph.topology].routes:
        for head in route.heads:
            if head.task == direction:
                if encoding is None:
                    encoding = models.encode(graph, store, batch, route.source)
                else:
                    encoding.check(batch, route.source)
                memories = models.head_memories(graph, store, batch, head, encoding, decoding=True)
                return memories, head.decoder, models._task_vocab(graph, direction)
    raise DirectionError(f"topology {graph.topology!r} does not decode direction {direction!r}")


def beam_search(
    graph: ModelGraph,
    store: ParamStore,
    batch: Batch,
    beam: int,
    max_len: int,
    len_norm: float = 0.6,
    direction: str | None = None,
    encoding: models.Encoding | None = None,
) -> list[Hypothesis]:
    """Each utterance's best finished hypothesis under the length-normalized
    score score / len(tokens)^len_norm.

    Finished hypotheses leave the beam, and so does each live lane that can
    no longer reach its utterance's best finished one: a lane whose score /
    max_len**len_norm, which bounds every extension because scores only fall,
    is strictly below that hypothesis's normalized score. An utterance stops
    when no lane is left. If none of an utterance's hypotheses finishes
    within max_len, its best unfinished one is returned with finished=False.
    A len_norm for which max_len**len_norm is no finite float raises
    ``NumericsError``. ``encoding`` is passed on to ``prepare_memories``: the
    batch's encoder states, computed once by a caller that also uses them
    elsewhere.
    """
    if beam < 1:
        raise NumericsError("beam must be >= 1")
    if max_len < 1:
        raise NumericsError(f"max_len must be >= 1, got {max_len}")
    if not (np.isfinite(len_norm) and len_norm >= 0):
        raise NumericsError(f"len_norm must be finite and >= 0, got {len_norm}")
    try:
        horizon = float(max_len) ** float(len_norm)  # the largest length normalizer
    except OverflowError:
        raise NumericsError(f"max_len**len_norm overflows a float: max_len {max_len}, len_norm {len_norm}") from None
    direction = direction or default_direction(graph.topology)
    B, K = batch.size, beam
    with no_grad():  # the kernel then records no steps
        memories, prefix, vocab = prepare_memories(graph, store, batch, direction, encoding)
        kernel = layers.DecoderKernel(*models._decoder_params(graph, store, prefix, memories))
    V = vocab.size
    rows = np.arange(B)[:, None]
    slots = np.arange(K)
    scores = np.zeros((B, K))
    history = np.zeros((B, K, 0), dtype=np.int64)  # each lane's tokens
    order = np.broadcast_to(slots, (B, K))  # lanes by lexicographic rank, dummies last
    n_active = np.ones(B, dtype=np.int64)
    lanes = (np.arange(B), np.zeros(B, dtype=np.int64))  # per state row: utterance and slot
    prev = np.full(B, vocab.bos_id, dtype=np.int64)
    best: list[tuple | None] = [None] * B  # per utterance, its best finished: (-normalized, tokens, score)
    for _ in range(max_len):
        probs = kernel.predict(prev, lanes)
        check_finite("output probabilities in beam search", probs)
        logp = np.zeros((B, K, V))
        logp[lanes] = np.log(np.maximum(probs, _LOGP_FLOOR))
        cand = (scores[:, :, None] + logp)[rows, order]
        # Flat index rank*V + token id: its order is the lexicographic
        # order of the candidates' token sequences.
        ranked = np.where(slots[:, None] < n_active[:, None, None], cand, -np.inf).reshape(B, K * V)
        top = np.argsort(-ranked, axis=1, kind="stable")[:, :K]
        top_scores = ranked[rows, top]
        tokens = top % V
        parents = order[rows, top // V]
        valid = top_scores > -np.inf
        ends = valid & (tokens == vocab.eos_id)
        length = history.shape[2] + 1
        for b, k in zip(*np.nonzero(ends)):
            score = float(top_scores[b, k])
            neg = -(score / max(1, length) ** len_norm)  # -Hypothesis.normalized, without building one
            if best[b] is not None and neg > best[b][0]:
                continue
            toks = history[b, parents[b, k]].tolist() + [vocab.eos_id]
            if best[b] is None or (neg, toks) < best[b][:2]:
                best[b] = (neg, toks, score)
        # A lane whose bound is strictly below its utterance's best finished
        # normalized score can no longer win: it leaves the beam.
        bar = np.array([-np.inf if kept is None else -kept[0] for kept in best])
        live = valid & ~ends & (top_scores / horizon >= bar[:, None])
        keep = np.argsort(~live, axis=1, kind="stable")  # survivors first, best first
        scores = top_scores[rows, keep]
        n_active = live.sum(axis=1)
        alive = slots < n_active[:, None]
        parents = np.where(alive, parents[rows, keep], 0)
        step_tokens = np.where(alive, tokens[rows, keep], vocab.pad_id)
        history = np.concatenate([history[rows, parents], step_tokens[:, :, None]], axis=2)
        order = np.argsort(np.where(alive, top[rows, keep], K * V), axis=1, kind="stable")
        if length == max_len or not n_active.any():
            break  # no step follows
        # Only surviving lanes advance, each from its parent's state row.
        row_of = np.zeros((B, K), dtype=np.int64)
        row_of[lanes] = np.arange(len(prev))
        lanes = np.nonzero(alive)
        src = row_of[lanes[0], parents[lanes]]
        prev = step_tokens[lanes]
        kernel.advance(prev, rows=src)
        check_finite("decoder states in beam search", *kernel.h, *kernel.c)
    out = []
    for b, kept in enumerate(best):
        if kept is None:  # nothing finished: the best of the lanes alive after max_len steps
            lanes_left = [Hypothesis(history[b, k].tolist(), float(scores[b, k]), False) for k in range(n_active[b])]
            out.append(min(lanes_left, key=lambda h: (-h.normalized(len_norm), h.tokens)))
        else:
            out.append(Hypothesis(tokens=kept[1], score=kept[2], finished=True))
    return out


def greedy_decode_batch(
    graph: ModelGraph,
    store: ParamStore,
    batch: Batch,
    max_len: int,
    direction: str | None = None,
) -> list[Hypothesis]:
    """Argmax decoding over a whole padded batch: a one-lane beam search."""
    return beam_search(graph, store, batch, 1, max_len, direction=direction)


def beam_decode(
    graph: ModelGraph,
    store: ParamStore,
    x: np.ndarray,
    beam: int,
    max_len: int,
    len_norm: float = 0.6,
    direction: str | None = None,
) -> Hypothesis:
    """Beam search of one utterance; see ``beam_search``."""
    direction = direction or default_direction(graph.topology)
    return beam_search(graph, store, _input_batch(graph, [x], direction), beam, max_len, len_norm, direction)[0]


def cascade_batch(
    asr_graph: ModelGraph,
    asr_store: ParamStore,
    mt_graph: ModelGraph,
    mt_store: ParamStore,
    batch: Batch,
    beam: int = 12,
    max_len: int = 64,
    len_norm: float = 0.6,
) -> list[CascadeResult]:
    """ASR beam search over the batch, then MT beam search over the batch of
    non-empty transcripts. An empty transcript gives an empty translation
    flagged ``empty_transcript``."""
    if asr_graph.config.src_vocab_size != mt_graph.config.src_vocab_size:
        raise NumericsError(
            f"vocabulary mismatch: ASR source size {asr_graph.config.src_vocab_size} "
            f"!= MT source size {mt_graph.config.src_vocab_size}"
        )
    transcripts = beam_search(asr_graph, asr_store, batch, beam, max_len, len_norm, "asr")
    src_vocab = models._task_vocab(asr_graph, "asr")
    contents = [t.content(src_vocab) for t in transcripts]
    spoken = [i for i, c in enumerate(contents) if c]
    translations = {}
    if spoken:
        text = _input_batch(mt_graph, [contents[i] for i in spoken], "mt")
        translations = dict(zip(spoken, beam_search(mt_graph, mt_store, text, beam, max_len, len_norm, "mt")))
    return [
        CascadeResult(
            translation=translations.get(i) or Hypothesis(tokens=[], score=0.0, finished=False, flag="empty_transcript"),
            transcript=t,
        )
        for i, t in enumerate(transcripts)
    ]

