"""Neural building blocks: LSTM/BLSTM, temporal max pooling, additive
attention with alignment feedback, output projection, dropout, and
label-smoothed cross entropy.

All layers are pure functions over (inputs, parameters). Sequence inputs are
batched as (B, T, D) with a float 0/1 ``mask`` of shape (B, T). Batches are
right-padded: each mask row is 1s followed by 0s. ``data.batch`` pads on the
right, ``max_pool_time`` keeps that shape, and a greedy rollout's state mask
only drops the steps after [EOS] or the length cap; ``lstm_sequence`` rejects
any other mask with ``ShapeError``. Padded steps are no-ops, so a padded
batch reproduces per-example results exactly.

Three recurrences are fused ops with hand-derived backwards, one graph node
per run: ``lstm_sequence`` (a BLSTM layer), ``teacher_forced_decoder`` (an
attention decoder's whole teacher-forced loss) and ``greedy_rollout`` (an
attention decoder's greedy decode, returning its top states). The decoder
step is written once, in numpy, as ``DecoderKernel``: both fused decoders and
beam search run it, and its ``backward`` carries gradients back through the
recorded steps for both fused decoders. The per-step Tensor layers
(``additive_attention``, ``lstm_step``, ``output_layer``,
``label_smoothed_ce``) have no caller in the package: the tests compose the
step-by-step oracles of the fused decoders and of beam search from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as tz
from .tensor import NonFiniteError, NumericsError, ShapeError, Tensor, as_tensor

__all__ = [
    "LstmParams",
    "AttentionParams",
    "EncoderStates",
    "AttentionState",
    "SmoothingClampWarning",
    "lstm_step",
    "lstm_sequence",
    "max_pool_time",
    "pooled_length",
    "additive_attention",
    "precompute_attention_keys",
    "output_layer",
    "label_smoothed_ce",
    "DecoderKernel",
    "teacher_forced_decoder",
    "greedy_rollout",
    "dropout",
    "dropout_keep",
    "embed",
]


class SmoothingClampWarning(UserWarning):
    """A smoothed cross-entropy support point had (near-)zero probability."""


@dataclass(frozen=True)
class LstmParams:
    """Fused-gate LSTM weights; gate order along columns is [i | f | g | o]."""

    w_ih: Tensor  # (D_in, 4H)
    w_hh: Tensor  # (H, 4H)
    b: Tensor  # (4H,)

    @property
    def hidden(self) -> int:
        return self.w_hh.shape[0]


@dataclass(frozen=True)
class AttentionParams:
    w_query: Tensor  # (D_dec, A)
    w_keys: Tensor  # (D_mem, A)
    v: Tensor  # (A,)
    b: Tensor  # (A,)
    u: Tensor  # (A,) weight of the accumulated-attention feedback


@dataclass
class EncoderStates:
    """Pooled encoder representation h_1..h_T' with its validity mask."""

    states: Tensor  # (B, T', D_mem)
    mask: np.ndarray  # (B, T') float 0/1

    @property
    def lengths(self) -> np.ndarray:
        return self.mask.sum(axis=1).astype(np.int64)


@dataclass
class AttentionState:
    weights: Tensor  # (B, T') rows sum to 1 over valid positions
    context: Tensor  # (B, D_mem)
    feedback: Tensor  # (B, T') accumulated weights including this step


def lstm_step(
    x: Tensor,
    state: tuple[Tensor, Tensor],
    params: LstmParams,
    step_mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """One LSTM cell update on a (B, D_in) input.

    With ``step_mask`` (B,), masked-out rows carry (h, c) through unchanged.
    """
    h, c = state
    if x.shape[-1] != params.w_ih.shape[0]:
        raise ShapeError(f"lstm_step: input dim {x.shape[-1]} != {params.w_ih.shape[0]}")
    z = x @ params.w_ih + h @ params.w_hh + params.b
    hdim = params.hidden
    i = tz.sigmoid(z[..., 0 * hdim : 1 * hdim])
    f = tz.sigmoid(z[..., 1 * hdim : 2 * hdim])
    g = tz.tanh(z[..., 2 * hdim : 3 * hdim])
    o = tz.sigmoid(z[..., 3 * hdim : 4 * hdim])
    c_new = f * c + i * g
    h_new = o * tz.tanh(c_new)
    if step_mask is not None:
        m = np.asarray(step_mask, dtype=np.float64)[:, None]
        h_new = m * h_new + (1.0 - m) * h
        c_new = m * c_new + (1.0 - m) * c
    return h_new, c_new


def lstm_sequence(xs: Tensor, mask: np.ndarray, fwd: LstmParams, bwd: LstmParams) -> Tensor:
    """One BLSTM layer over right-padded (B, T, D_in), returning (B, T, 2H).

    Columns [:H] are the forward direction. Columns [H:] are the backward
    one, which reads each row from its last valid step back to its first.
    Outputs at padded steps are zero and padded inputs are never read. Each
    ``mask`` row must be 1s followed by 0s (``ShapeError`` otherwise).
    Inputs and weights must be finite (``NonFiniteError``); this is checked
    on entry, since a NaN in a skipped padded frame would go unseen.

    Fused op with a hand-derived BPTT backward: one graph node per layer.
    Rows are sorted by length once and the backward direction reverses each
    row within its own length, so at step k both directions advance the
    same n_k longest rows. Step k's rows are a contiguous block of flat
    (2, N, .) packed arrays, N being the number of valid steps: each step is
    one (2, n_k, H) @ (2, H, 4H) matmul with no mask arithmetic, and padded
    steps cost nothing. The input projection is one GEMM before the loop;
    after the backward loop the weight, bias and input gradients are each
    one GEMM or sum over the N packed rows. One (2, N, 4H) buffer holds in
    turn the input projection, the gate activations and the gate gradients,
    so the backward can run only once. ``h_prev`` is a view of the output
    at the previous step (gathered back from the output for the backward),
    and under ``no_grad`` nothing is kept.
    """
    xs = as_tensor(xs)
    B, T, D = xs.shape
    if T == 0:
        raise ShapeError("lstm_sequence: empty sequence")
    H = fwd.hidden
    params = (fwd.w_ih, fwd.w_hh, fwd.b, bwd.w_ih, bwd.w_hh, bwd.b)
    if [p.shape for p in params] != [(D, 4 * H), (H, 4 * H), (4 * H,)] * 2:
        raise ShapeError(f"lstm_sequence: weights {[p.shape for p in params]} do not fit input dim {D}, hidden {H}")
    m = np.asarray(mask, dtype=np.float64)
    lengths = np.count_nonzero(m, axis=-1)
    if m.shape != (B, T) or not np.array_equal(m, np.arange(T) < lengths[:, None]):
        raise ShapeError("lstm_sequence: mask rows must be 1s followed by 0s")
    for t in (xs, *params):
        if not np.isfinite(t.data).all():
            raise NonFiniteError(f"non-finite input to lstm_sequence (shape={t.shape})")

    # Packed layout: rows sorted by length (longest first, stably); step k
    # holds the n_k rows still running, at rows off[k] .. off[k] + n_k of a
    # flat (2, N, .) array, N the number of valid steps. Direction 1 reads
    # row j at step k from source step L_j - 1 - k. idx maps packed rows to
    # rows of the flat (B*T, .) input; inv maps each (b, t, direction) back
    # to a row of the flat (2 * (N + 1), .) packed array, in which padded
    # steps map to row N, a zero row.
    perm = np.argsort(-lengths, kind="stable")
    L = lengths[perm]
    counts = np.count_nonzero(L[:, None] > np.arange(T), axis=0)  # n_k, non-increasing
    steps = counts[counts > 0].tolist()
    off = np.cumsum([0, *steps]).tolist()
    N = off[-1]
    kk, jj = np.nonzero(np.arange(T)[:, None] < L)
    idx = perm[jj] * T + np.stack([kk, L[jj] - 1 - kk])
    inv = np.full((B * T, 2), N)
    inv[idx[0], 0] = np.arange(N)
    inv[idx[1], 1] = np.arange(N + 1, 2 * N + 1)
    inv = inv.reshape(B, T, 2)
    gidx = 2 * idx + np.arange(2)[:, None]  # packed row -> row of the flat (B*T*2, H) output

    # Gates [i | f | g | o]: sigmoid(z) = 0.5 + 0.5 tanh(z / 2), so one tanh
    # of z * scale, times scale plus shift, gives all four; unlike exp(-z),
    # tanh cannot overflow.
    scale = np.full(4 * H, 0.5)
    scale[2 * H : 3 * H] = 1.0
    shift = 1.0 - scale
    w_ih = np.stack([fwd.w_ih.data, bwd.w_ih.data])
    w_hh = np.stack([fwd.w_hh.data, bwd.w_hh.data])
    xd = xs.data.reshape(B * T, D)
    z = np.matmul(xd[idx], w_ih * scale)
    z += (np.stack([fwd.b.data, bwd.b.data]) * scale)[:, None]
    w_hh_scaled = w_hh * scale
    hs = np.zeros((2, N + 1, H))
    cs = np.empty((2, N, H))
    for k, n in enumerate(steps):
        a = z[:, off[k] : off[k] + n]
        if k:
            a += hs[:, off[k - 1] : off[k - 1] + n] @ w_hh_scaled
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c = cs[:, off[k] : off[k] + n]
        np.multiply(a[..., :H], a[..., 2 * H : 3 * H], out=c)
        if k:
            c += a[..., H : 2 * H] * cs[:, off[k - 1] : off[k - 1] + n]
        np.multiply(a[..., 3 * H :], np.tanh(c), out=hs[:, off[k] : off[k] + n])
    out = hs.reshape(2 * (N + 1), H)[inv].reshape(B, T, 2 * H)
    ran = []

    def backward(gout):
        if ran:
            raise NumericsError("lstm_sequence: backward already ran; its buffers now hold gradients")
        ran.append(True)
        dh_all = gout.reshape(B * T * 2, H)[gidx]  # packed output gradient, accumulates dh
        w_hh_t = w_hh.transpose(0, 2, 1)
        dc = np.zeros((2, B, H))
        dy = np.empty((2, B, 4 * H))
        deriv = np.empty((2, B, 4 * H))
        for k in range(len(steps) - 1, -1, -1):
            n = steps[k]
            y = z[:, off[k] : off[k] + n]
            i, f, g, o = y[..., :H], y[..., H : 2 * H], y[..., 2 * H : 3 * H], y[..., 3 * H :]
            dh = dh_all[:, off[k] : off[k] + n]
            nxt = steps[k + 1] if k + 1 < len(steps) else 0
            if nxt:
                dh[:, :nxt] += z[:, off[k + 1] : off[k + 1] + nxt] @ w_hh_t
            tc = np.tanh(cs[:, off[k] : off[k] + n])
            dyk = dy[:, :n]
            np.multiply(dh, tc, out=dyk[..., 3 * H :])
            dct = tc  # d c_k = dh o (1 - tanh^2 c_k) + carry
            np.multiply(tc, tc, out=dct)
            np.subtract(1.0, dct, out=dct)
            dct *= o
            dct *= dh
            if nxt:
                dct[:, :nxt] += dc[:, :nxt]
            np.multiply(dct, g, out=dyk[..., :H])
            if k:
                np.multiply(dct, cs[:, off[k - 1] : off[k - 1] + n], out=dyk[..., H : 2 * H])
            else:
                dyk[..., H : 2 * H] = 0.0
            np.multiply(dct, i, out=dyk[..., 2 * H : 3 * H])
            np.multiply(dct, f, out=dc[:, :n])
            dk = deriv[:, :n]  # sigmoid' = y (1 - y) on i, f, o; tanh' = 1 - g^2
            np.subtract(1.0, y, out=dk)
            dk *= y
            dg = dk[..., 2 * H : 3 * H]
            np.multiply(g, g, out=dg)
            np.subtract(1.0, dg, out=dg)
            np.multiply(dyk, dk, out=y)  # gate gradients replace the gates

        # Packed row r at step k >= 1 (r >= n_0) follows row r - n_{k-1}.
        first = counts[0]
        prev = np.arange(first, N) - counts[kk[first:] - 1]
        h_prev = out.reshape(B * T * 2, H)[gidx[:, prev]]
        dw_ih = np.matmul(xd[idx].transpose(0, 2, 1), z)
        dw_hh = np.matmul(h_prev.transpose(0, 2, 1), z[:, first:])
        db = z.sum(axis=1)
        dxp = np.zeros((2, N + 1, D))
        np.matmul(z, w_ih.transpose(0, 2, 1), out=dxp[:, :N])
        dx = dxp.reshape(2 * (N + 1), D)[inv].sum(axis=2)
        return dx, dw_ih[0], dw_hh[0], db[0], dw_ih[1], dw_hh[1], db[1]

    return tz._node(out, (xs, *params), backward)


def pooled_length(length: int, pool: int) -> int:
    return -(-length // pool)  # ceil division


def max_pool_time(xs: Tensor, mask: np.ndarray, pool: int) -> tuple[Tensor, np.ndarray]:
    """Elementwise max over non-overlapping windows of ``pool`` time steps.

    A trailing partial window is kept (ceil semantics). Padded positions never
    win the max; fully-padded windows produce zeros and a 0 mask entry.
    Returns (pooled (B, T2, D), pooled_mask (B, T2)).
    """
    xs = as_tensor(xs)
    B, T, D = xs.shape
    if pool <= 1:
        return xs, np.asarray(mask, dtype=np.float64)
    T2 = pooled_length(T, pool)
    pad = T2 * pool - T
    m = np.asarray(mask, dtype=np.float64)
    mp = np.pad(m, ((0, 0), (0, pad)))
    xp = np.pad(xs.data, ((0, 0), (0, pad), (0, 0)))
    shifted = xp + (mp[:, :, None] - 1.0) * 1e300  # pads lose every comparison
    windows = shifted.reshape(B, T2, pool, D)
    arg = windows.argmax(axis=2)  # (B, T2, D) index within window
    vals = np.take_along_axis(xp.reshape(B, T2, pool, D), arg[:, :, None, :], axis=2)[:, :, 0, :]
    pooled_mask = (mp.reshape(B, T2, pool).max(axis=2) > 0).astype(np.float64)
    out = vals * pooled_mask[:, :, None]

    def backward(g):
        gm = g * pooled_mask[:, :, None]
        gw = np.zeros((B, T2, pool, D))
        np.put_along_axis(gw, arg[:, :, None, :], gm[:, :, None, :], axis=2)
        gx = gw.reshape(B, T2 * pool, D)[:, :T, :]
        return (gx,)

    return tz._node(out, (xs,), backward), pooled_mask


def precompute_attention_keys(memory: Tensor, params: AttentionParams) -> Tensor:
    """Project memory states once per sequence: (B, T, D_mem) -> (B, T, A)."""
    return memory @ params.w_keys


def additive_attention(
    s_prev: Tensor,
    enc: EncoderStates,
    feedback: Tensor,
    params: AttentionParams,
    keys: Tensor | None = None,
) -> AttentionState:
    """Single-head additive attention with accumulated-weight feedback.

    Energy per position t: v . tanh(W s_prev + V h_t + u * feedback_t + b).
    Weights are a masked softmax over valid positions; the context is their
    weighted sum of memory states; the returned feedback adds these weights.
    """
    if keys is None:
        keys = precompute_attention_keys(enc.states, params)
    query = s_prev @ params.w_query  # (B, A)
    fb = tz.reshape(feedback, (*feedback.shape, 1))  # (B, T, 1)
    pre = tz.tanh(keys + tz.reshape(query, (query.shape[0], 1, query.shape[1])) + fb * params.u + params.b)
    energies = pre @ params.v  # (B, T)
    weights = tz.masked_softmax(energies, enc.mask, axis=-1)
    context = tz.reshape(
        tz.matmul(tz.reshape(weights, (weights.shape[0], 1, weights.shape[1])), enc.states),
        (weights.shape[0], enc.states.shape[-1]),
    )
    return AttentionState(weights=weights, context=context, feedback=feedback + weights)


def output_layer(e_prev: Tensor, s_prev: Tensor, context: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """softmax(linear(e_prev, s_prev, context)) -> (B, V) probabilities."""
    joint = tz.concat([e_prev, s_prev, context], axis=-1)
    return tz.softmax(joint @ w + b, axis=-1)


def label_smoothed_ce(
    pred: Tensor,
    target_id: np.ndarray | int,
    eps: float,
    step_mask: np.ndarray | None = None,
) -> Tensor:
    """-sum_v q_v log pred_v with q = (1-eps) one-hot + eps/V, summed over rows.

    ``pred`` rows must be probability distributions. Zero probabilities at
    support points are clamped to a large finite loss and flagged with a
    SmoothingClampWarning.
    """
    pred = as_tensor(pred)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"label smoothing ratio must be in [0, 1), got {eps}")
    ids = np.atleast_1d(np.asarray(target_id, dtype=np.int64))
    rows = pred if pred.ndim == 2 else tz.reshape(pred, (1, pred.shape[-1]))
    V = rows.shape[-1]
    tiny = rows.data < 1e-300
    if tiny.any() and (eps > 0.0 or np.take_along_axis(tiny, ids[:, None], axis=-1).any()):
        warnings.warn("clamped zero probability in smoothed cross entropy", SmoothingClampWarning)
    logp = tz.safe_log(rows)
    picked = tz.gather_last(logp, ids)  # (B,)
    per_row = -((1.0 - eps) * picked + (eps / V) * tz.tsum(logp, axis=-1))
    if step_mask is not None:
        per_row = per_row * np.asarray(step_mask, dtype=np.float64)
    return tz.tsum(per_row)


class DecoderKernel:
    """One attention-decoder step in numpy, over the rows of a state batch.

    ``predict`` attends from the top LSTM state over every memory with its
    accumulated weights, then applies the output softmax; ``advance`` runs
    the LSTM stack on (token embedding, contexts). The attention keys
    ``memory @ w_keys`` are projected once per memory over the (B, T, D)
    states. A row is either utterance r itself (``lanes`` None) or one lane
    of an utterance: ``lanes`` = (utterance, slot) per row, so no memory is
    copied per lane and each memory's contexts are one (B, K, T) @ (B, T, D)
    contraction. ``teacher_forced_decoder``, ``greedy_rollout`` and beam
    search run it forward; ``backward`` carries gradients back through the
    steps a ``_StepTape`` recorded, for both fused decoders.
    """

    def __init__(
        self,
        memories: Sequence[tuple[EncoderStates, AttentionParams]],
        emb: Tensor,
        lstm: Sequence[LstmParams],
        out_w: Tensor,
        out_b: Tensor,
    ):
        """Inputs must be finite (``NonFiniteError``): tanh saturation and
        masking could hide a poisoned weight or memory state."""
        self.inputs = (
            emb,
            *(t for p in lstm for t in (p.w_ih, p.w_hh, p.b)),
            *(t for _, a in memories for t in (a.w_query, a.w_keys, a.v, a.b, a.u)),
            out_w,
            out_b,
            *(enc.states for enc, _ in memories),
        )  # the order of the fused decoders' gradients
        for t in self.inputs:
            if not np.isfinite(t.data).all():
                raise NonFiniteError(f"non-finite input to the decoder step (shape={t.shape})")
        self.table, self.out_w, self.out_b = emb.data, out_w.data, out_b.data
        self.cells = [(p.w_ih.data, p.w_hh.data, p.b.data) for p in lstm]
        self.hidden = lstm[-1].hidden
        if self.table.shape[1] + sum(enc.states.shape[-1] for enc, _ in memories) != self.cells[0][0].shape[0]:
            raise ShapeError(f"decoder step: LSTM input dim {self.cells[0][0].shape[0]} != embedding + contexts")
        self.mems = []  # per memory: states, validity, keys, w_query, v, b, u
        for enc, a in memories:
            valid = np.asarray(enc.mask, dtype=np.float64) > 0
            if not valid.any(axis=-1).all():
                raise ShapeError("masked_softmax: some row has no valid positions")
            M = enc.states.data
            self.mems.append((M, valid, M @ a.w_keys.data, a.w_query.data, a.v.data, a.b.data, a.u.data))
        self.w_keys = [a.w_keys.data for _, a in memories]

    def initial_state(self, n: int) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
        """Zero (h, c) per LSTM layer and zero feedback per memory for n rows."""
        h = [np.zeros((n, self.hidden)) for _ in self.cells]
        c = [np.zeros((n, self.hidden)) for _ in self.cells]
        return h, c, [np.zeros((n, M.shape[1])) for M, *_ in self.mems]

    def predict(self, prev_ids, top, feedback, lanes=None, keep=None):
        """Attend and predict: returns (probs (n, V), contexts (n, sum D),
        the feedback after this step, the output layer's input, and per
        memory the (tanh pre-activations, weights)). ``keep`` multiplies the
        top state fed to the output layer."""
        n = top.shape[0]
        ctxs, new_feedback, attn = [], [], []
        for (M, valid, keys, wq, v, ab, u), fb in zip(self.mems, feedback):
            B, T, D = M.shape
            utt = slice(None) if lanes is None else lanes[0]
            pre = keys[utt] + (top @ wq).reshape(n, 1, -1)  # a new array, so keys stay intact
            pre += fb.reshape(n, T, 1) * u
            pre += ab
            np.tanh(pre, out=pre)
            valid = valid[utt]
            neg = np.where(valid, pre @ v, -np.inf)
            ex = np.where(valid, np.exp(neg - neg.max(axis=-1, keepdims=True)), 0.0)
            w = ex / ex.sum(axis=-1, keepdims=True)
            if lanes is None:
                ctxs.append((w.reshape(n, 1, T) @ M).reshape(n, D))
            else:
                lane_w = np.zeros((B, int(lanes[1].max(initial=0)) + 1, T))
                lane_w[lanes] = w
                ctxs.append((lane_w @ M)[lanes])
            new_feedback.append(fb + w)
            attn.append((pre, w))
        ctx = ctxs[0] if len(ctxs) == 1 else np.concatenate(ctxs, axis=-1)
        joint = np.concatenate([self.table[prev_ids], top if keep is None else top * keep, ctx], axis=-1)
        logits = joint @ self.out_w + self.out_b
        ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return ex / ex.sum(axis=-1, keepdims=True), ctx, new_feedback, joint, attn

    def advance(self, tokens, ctx, h, c, mask=None):
        """Run the LSTM stack on (embedding of ``tokens``, contexts). Rows
        whose ``mask`` is 0 keep their state. Returns the new (h, c) lists and
        per layer (input, h, c, i, f, g, o, tanh c_new)."""
        H = self.hidden
        m = None if mask is None else mask[:, None]
        x = np.concatenate([self.table[tokens], ctx], axis=-1)
        h, c, cache = list(h), list(c), []
        for j, (w_ih, w_hh, b) in enumerate(self.cells):
            z = x @ w_ih + h[j] @ w_hh + b
            i = 1.0 / (1.0 + np.exp(-z[:, 0 * H : 1 * H]))
            f = 1.0 / (1.0 + np.exp(-z[:, 1 * H : 2 * H]))
            g = np.tanh(z[:, 2 * H : 3 * H])
            o = 1.0 / (1.0 + np.exp(-z[:, 3 * H : 4 * H]))
            c_new = f * c[j] + i * g
            tc = np.tanh(c_new)
            cache.append((x, h[j], c[j], i, f, g, o, tc))
            if m is None:
                h[j], c[j] = o * tc, c_new
            else:
                h[j] = m * (o * tc) + (1.0 - m) * h[j]
                c[j] = m * c_new + (1.0 - m) * c[j]
            x = h[j]
        return h, c, cache

    def backward(self, tape: "_StepTape", tokens, mask, d_emb, dctxs, dtops, dh_after=None):
        """Carry gradients back through the steps on ``tape``: each step's
        attention and, for the first n steps that advanced, the LSTM stack
        on ``tokens`` under ``mask`` (both (n, B)); masked rows pass their
        state's gradient on unchanged. From outside the recurrence come
        ``dctxs`` (S, B, sum D) on each step's contexts and ``dtops``
        (S, B, H) on the top state its prediction read (the output layer's
        share), and ``dh_after`` (n, B, H) on the top state after each
        advance. ``d_emb`` gains the embedding gradient at ``tokens`` and
        ``dctxs`` the LSTM inputs' share, in place. Returns the gradients of
        the LSTM stack and the attention parameters, in ``inputs`` order,
        and of each memory's states."""
        S, n = len(tape.tops), len(tape.advance)
        B, H, L = tape.tops[0].shape[0], self.hidden, len(self.cells)
        E = self.table.shape[1]
        dh = [np.zeros((B, H)) for _ in range(L)]
        dc = [np.zeros((B, H)) for _ in range(L)]
        dz_steps = [[] for _ in range(L)]  # per layer, steps n-1 .. 0
        d_cur = np.zeros((n, B, E))
        dfb = [np.zeros(valid.shape) for _, valid, *_ in self.mems]
        dkeys = [np.zeros_like(keys) for _, _, keys, *_ in self.mems]
        dq_steps = [[] for _ in self.mems]
        dv = [np.zeros(keys.shape[-1]) for _, _, keys, *_ in self.mems]
        du = [np.zeros(keys.shape[-1]) for _, _, keys, *_ in self.mems]
        for s in range(S - 1, -1, -1):
            if s < n:  # LSTM stack advance, top layer first
                if dh_after is not None:
                    dh[-1] = dh[-1] + dh_after[s]
                m = mask[s][:, None]
                dx = None
                for j in range(L - 1, -1, -1):
                    x, h_prev, c_prev, i, f, g, o, tc = tape.advance[s][j]
                    dh_out = dh[j] if dx is None else dh[j] + dx
                    dh_new = m * dh_out
                    dc_total = m * dc[j] + dh_new * o * (1.0 - tc * tc)
                    dz = np.concatenate(
                        [
                            dc_total * g * i * (1.0 - i),
                            dc_total * c_prev * f * (1.0 - f),
                            dc_total * i * (1.0 - g * g),
                            dh_new * tc * o * (1.0 - o),
                        ],
                        axis=1,
                    )
                    dz_steps[j].append(dz)
                    dc[j] = dc_total * f + (1.0 - m) * dc[j]
                    dx = dz @ self.cells[j][0].T
                    dh[j] = dz @ self.cells[j][1].T + (1.0 - m) * dh_out
                d_cur[s] = dx[:, :E]
                dctxs[s] += dx[:, E:]
            dtop = dtops[s]
            off = 0
            for k, (M, valid, keys, wq, v, ab, u) in enumerate(self.mems):
                pre, w, fb = tape.attn[k][s]
                A, D = keys.shape[-1], M.shape[-1]
                dw = (M @ dctxs[s, :, off : off + D, None])[..., 0] + dfb[k]
                off += D
                de = w * (dw - (w * dw).sum(axis=-1, keepdims=True))
                dv[k] += de.reshape(-1) @ pre.reshape(-1, A)
                da = pre * pre  # de (1 - tanh^2) v, in place: fresh (B, T, A) temporaries are slow
                np.subtract(1.0, da, out=da)
                da *= de[..., None]
                da *= v
                dkeys[k] += da
                dq = da.sum(axis=1)
                dq_steps[k].append(dq)
                dtop = dtop + dq @ wq.T
                du[k] += fb.reshape(-1) @ da.reshape(-1, A)
                dfb[k] = dfb[k] + da @ u
            dh[-1] = dh[-1] + dtop

        np.add.at(d_emb, tokens, d_cur)
        grads = []
        for j in range(L):
            if n == 0:  # no advance ran
                grads += [np.zeros_like(t) for t in self.cells[j]]
                continue
            dz = np.stack(dz_steps[j][::-1]).reshape(n * B, 4 * H)
            xs = np.stack([step[j][0] for step in tape.advance]).reshape(n * B, -1)
            hs = np.stack([step[j][1] for step in tape.advance]).reshape(n * B, H)
            grads += [xs.T @ dz, hs.T @ dz, dz.sum(axis=0)]
        tops_all = np.stack(tape.tops).reshape(S * B, H)
        d_states = []
        off = 0
        for k, (M, valid, keys, wq, v, ab, u) in enumerate(self.mems):
            _, T, D = M.shape
            A = keys.shape[-1]
            dq = np.stack(dq_steps[k][::-1]).reshape(S * B, A)
            d_wk = M.reshape(B * T, D).T @ dkeys[k].reshape(B * T, A)
            grads += [tops_all.T @ dq, d_wk, dv[k], dkeys[k].sum(axis=(0, 1)), du[k]]
            # context = weights @ memory, summed over steps: (B, T, S) @ (B, S, D)
            ws = np.stack([w for _, w, _ in tape.attn[k]], axis=2)
            d_ctx = np.swapaxes(dctxs[..., off : off + D], 0, 1)
            off += D
            d_states.append(ws @ d_ctx + dkeys[k] @ self.w_keys[k].T)
        return grads, d_states


class _StepTape:
    """What ``DecoderKernel.backward`` reads of a fused decoder's forward:
    per step, the top state its prediction read and per memory the (tanh
    pre-activations, weights, feedback before the step); per advance, the
    per-layer cache ``DecoderKernel.advance`` returns."""

    def __init__(self, n_memories: int):
        self.tops: list[np.ndarray] = []
        self.attn: list[list[tuple]] = [[] for _ in range(n_memories)]
        self.advance: list[list[tuple]] = []

    def predict(self, top, feedback, attn) -> None:
        self.tops.append(top)
        for steps, fb, (pre, w) in zip(self.attn, feedback, attn):
            steps.append((pre, w, fb))


def teacher_forced_decoder(
    memories: Sequence[tuple[EncoderStates, AttentionParams]],
    emb: Tensor,
    lstm: Sequence[LstmParams],
    out_w: Tensor,
    out_b: Tensor,
    targets: np.ndarray,
    step_mask: np.ndarray,
    bos_id: int,
    eps: float,
    keep: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Summed label-smoothed CE of an attention decoder under teacher forcing.

    ``targets`` and ``step_mask`` are (S, B). Step s embeds the previous
    target (``bos_id`` at s = 0), attends from the top LSTM state over every
    memory with its accumulated weights, predicts ``targets[s]`` through
    the output softmax, then advances the LSTM stack on (target embedding,
    contexts): one ``DecoderKernel`` step over the B rows. Rows whose step
    mask is 0 keep their state and add nothing to the loss. ``keep``
    (S, B, H) multiplies the top state fed to the output layer (inverted
    dropout). Returns (loss, (S, B) argmax predictions).

    Fused op with a hand-derived backward: one graph node per decoder run,
    whose parents are the parameters and each memory's states. The step
    repeats the numpy op order of ``additive_attention``, ``output_layer``,
    ``label_smoothed_ce`` and ``lstm_step`` (the oracle in
    ``tests/test_models.py``), so loss and predictions are bit-identical to
    that composition. Clamped zero probabilities warn and get zero gradient,
    as in ``label_smoothed_ce``. The backward differentiates the output
    softmax and the loss over all steps at once, then hands the gradients
    on the contexts and top states to ``DecoderKernel.backward``.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"label smoothing ratio must be in [0, 1), got {eps}")
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(step_mask, dtype=np.float64)
    S, B = targets.shape
    kernel = DecoderKernel(memories, emb, lstm, out_w, out_b)
    table, wo = kernel.table, kernel.out_w
    E, V, H = table.shape[1], wo.shape[1], kernel.hidden
    if targets.size and (targets.min() < 0 or targets.max() >= table.shape[0]):
        raise ShapeError(f"token id out of range for table of {table.shape[0]} rows")
    prev_ids = np.concatenate([np.full((1, B), bos_id, dtype=np.int64), targets[:-1]])

    tape = _StepTape(len(kernel.mems)) if tz.grad_enabled() else None
    h, c, fb = kernel.initial_state(B)
    probs = np.empty((S, B, V))
    total = 0.0
    joints = []  # per step
    for s in range(S):
        top = h[-1]
        p, ctx, new_fb, joint, attn = kernel.predict(prev_ids[s], top, fb, keep=None if keep is None else keep[s])
        if tape is not None:
            tape.predict(top, fb, attn)
            joints.append(joint)
        fb = new_fb
        probs[s] = p
        logp = np.log(np.maximum(p, tz._LOG_FLOOR))
        picked = np.take_along_axis(logp, targets[s][:, None], axis=-1)[:, 0]
        total += (((picked * (1.0 - eps) + logp.sum(axis=-1) * (eps / V)) * -1.0) * mask[s]).sum()
        if s == S - 1:
            break  # the state after the last prediction feeds nothing
        h, c, step_cache = kernel.advance(targets[s], ctx, h, c, mask[s])
        if tape is not None:
            tape.advance.append(step_cache)

    tiny = probs < tz._LOG_FLOOR
    if tiny.any() and (eps > 0.0 or np.take_along_axis(tiny, targets[..., None], axis=-1).any()):
        warnings.warn("clamped zero probability in smoothed cross entropy", SmoothingClampWarning)
    pred = probs.argmax(axis=-1)

    def backward(gout):
        # Output softmax and smoothed CE, all steps at once: d loss / d logp
        # is -g * mask * q with q the smoothed target; clamped entries pass
        # nothing back, so p * d loss / d p is that term where p is active.
        q = np.full((S, B, V), eps / V)
        np.put_along_axis(q, targets[..., None], 1.0 - eps + eps / V, axis=-1)
        pdp = np.where(tiny, 0.0, q * (-float(gout) * mask)[..., None])
        dlogits = pdp - probs * pdp.sum(axis=-1, keepdims=True)
        J = np.stack(joints)
        d_out_w = J.reshape(S * B, -1).T @ dlogits.reshape(S * B, V)
        d_out_b = dlogits.sum(axis=(0, 1))
        djoint = dlogits @ wo.T
        d_emb = np.zeros_like(table)
        np.add.at(d_emb, prev_ids, djoint[..., :E])
        dtops = djoint[..., E : E + H] if keep is None else djoint[..., E : E + H] * keep
        dctxs = djoint[..., E + H :].copy()  # gains the LSTM input's share
        grads, d_states = kernel.backward(tape, targets[: S - 1], mask, d_emb, dctxs, dtops)
        return (d_emb, *grads, d_out_w, d_out_b, *d_states)

    return tz._node(total, kernel.inputs, backward), pred


def greedy_rollout(
    memories: Sequence[tuple[EncoderStates, AttentionParams]],
    emb: Tensor,
    lstm: Sequence[LstmParams],
    out_w: Tensor,
    out_b: Tensor,
    limits: np.ndarray,
    bos_id: int,
    eos_id: int,
    pad_id: int,
    rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Greedy decode of an attention decoder, keeping its top LSTM states.

    Step k embeds the previous token (``bos_id`` at k = 0), predicts through
    one ``DecoderKernel`` step over the B rows, takes the argmax as the
    step's token and advances the LSTM stack on it. Row b runs until it
    emits ``eos_id`` or has run ``limits[b]`` steps; after that its step
    mask is 0, its token ``pad_id`` and its state frozen. The loop stops
    when no row runs, after K <= max(limits) steps. With ``rng``, each step
    that runs draws one (B, H) inverted-dropout mask at ``rate`` for the
    top state fed to the output layer, so the stream moves by exactly the
    steps taken. Returns ((B, K, H) top states after each step, (B, K) step
    mask, (B, K) tokens).

    Fused op with a hand-derived backward: one graph node whose parents are
    the parameters and each memory's states. The argmax is a constant, so
    the output layer and the previous-token embeddings get no gradient; the
    gradient on the returned states goes back through the masked LSTM stack
    and the attention with its feedback by ``DecoderKernel.backward``. The
    step repeats the numpy op order of the per-step Tensor layers, so states
    and tokens are bit-identical to that composition (the oracle in
    ``tests/test_models.py``). Under ``no_grad`` nothing is kept.
    """
    limits = np.asarray(limits, dtype=np.int64)
    B, max_steps = limits.shape[0], int(limits.max(initial=0))
    if max_steps < 1:
        raise ShapeError("greedy rollout: no row may run a step")
    kernel = DecoderKernel(memories, emb, lstm, out_w, out_b)
    tape = _StepTape(len(kernel.mems)) if tz.grad_enabled() else None
    h, c, fb = kernel.initial_state(B)
    prev = np.full(B, bos_id, dtype=np.int64)
    alive = np.ones(B, dtype=bool)
    states, masks, tokens = [], [], []
    k = 0
    while alive.any() and k < max_steps:
        mask = (alive & (k < limits)).astype(np.float64)
        keep = None if rng is None else dropout_keep((B, kernel.hidden), rate, rng)
        top = h[-1]
        p, ctx, new_fb, _, attn = kernel.predict(prev, top, fb, keep=keep)
        if not np.isfinite(p).all():
            raise NonFiniteError("non-finite output probabilities in the greedy rollout")
        chosen = np.where(mask > 0, p.argmax(axis=-1), pad_id)
        h, c, step_cache = kernel.advance(chosen, ctx, h, c, mask)
        if tape is not None:
            tape.predict(top, fb, attn)
            tape.advance.append(step_cache)
        fb = new_fb
        states.append(h[-1])
        masks.append(mask)
        tokens.append(chosen)
        alive &= (chosen != eos_id) & (k + 1 < limits)
        prev = chosen
        k += 1
    step_mask, step_tokens = np.stack(masks), np.stack(tokens)  # (K, B)

    def backward(gout):
        # Nothing outside the recurrence reads the contexts or the top states
        # the predictions read: the argmax passes no gradient.
        K, C = len(states), sum(M.shape[-1] for M, *_ in kernel.mems)
        d_emb = np.zeros_like(kernel.table)
        no_ctx, no_top = np.zeros((K, B, C)), np.zeros((K, B, kernel.hidden))
        grads, d_states = kernel.backward(tape, step_tokens, step_mask, d_emb, no_ctx, no_top, np.swapaxes(gout, 0, 1))
        return (d_emb, *grads, None, None, *d_states)

    out = tz._node(np.stack(states, axis=1), kernel.inputs, backward)
    return out, step_mask.T, step_tokens.T


def dropout_keep(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability ``rate``, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(shape) >= rate).astype(np.float64) / (1.0 - rate)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout during training; identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return as_tensor(x)
    return x * dropout_keep(x.shape, rate, rng)


def embed(token_id: np.ndarray | int, table: Tensor) -> Tensor:
    """Look up embedding rows for integer ids (scalar or any id array)."""
    return tz.embedding(table, np.asarray(token_id, dtype=np.int64))
