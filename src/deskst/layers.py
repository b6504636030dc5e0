"""Neural building blocks: LSTM/BLSTM, temporal max pooling, additive
attention with alignment feedback, output projection, dropout, and
label-smoothed cross entropy.

All layers are pure functions over (inputs, parameters). Sequence inputs are
right-padded (B, T, D) arrays with (B,) int64 ``lengths``: row b is valid at
steps 0 .. lengths[b] - 1. ``max_pool_time`` returns the pooled lengths (a
ceil, ``pooled_length``) and a greedy rollout the steps each row ran. Padded
steps are no-ops: each row's result depends on that row alone, to rounding.
Bit for bit, a row's result is the same in any batch only where every
product it takes part in has at least two rows (see Row packing). A batch of
one sends every product to numpy's matrix-vector path, so each row of a
(4, 20, 12), H = 64 ``lstm_sequence`` batch differs from the same row run
alone by a few 1e-16. Within the packed ops the exception is the BLSTM's
recurrent product on a step with one row left, which is a one-row product.

Three recurrences are fused ops with hand-derived backwards, one graph node
per run: ``lstm_sequence`` (a BLSTM layer), ``teacher_forced_decoder`` (an
attention decoder's whole teacher-forced loss) and ``greedy_rollout`` (an
attention decoder's greedy decode, returning its top states). The decoder
step is written once, in numpy, as ``DecoderKernel``: both fused decoders and
beam search run it, and it holds the decoder's state between steps. A
kernel built while gradients are recorded keeps its own record of the steps
it ran, and its ``backward`` carries gradients back through them for both
fused decoders. Each fused op's backward runs once: it writes gradients over
its record's buffers and frees the record, so a node whose backward has run
holds none of its forward buffers while the rest of the graph is
differentiated. The decoders' backward frees each step's record once its
loop has passed the step, and copies no whole record; the BLSTM's frees its
cell states when its loop ends and its gates when it returns. A second
backward raises ``NumericsError``.

Row packing. The fused decoders pack their rows as ``lstm_sequence`` does:
rows are sorted once by step bound (a target length + 1, a rollout limit),
longest first, stably, and step k computes only the leading rows still
running, but at least two when B >= 2 (``_step_rows``): numpy sends a
one-row 2-D product to gemv, whose bits differ from the GEMM's. A row inside
that prefix that has stopped runs masked; rows beyond it are not computed.
What the ops return is in the caller's row order. The forward is then
bit-identical to the all-rows loop wherever the BLAS computes a GEMM row
independently of the call's row count. OpenBLAS 0.3.31 (Haswell kernel)
does not when that count is not a multiple of 4 and the column count N has
N mod 8 in {1, 2, 3}: no such dependence was found at the desk sizes
(V = 16, 4H = 256, A = 64), but the tests' V = 9 output layer can move a
loss by one ulp.

The per-step Tensor layers (``additive_attention``, ``lstm_step``,
``output_layer``, ``label_smoothed_ce``) have no caller in the package: the
tests compose the step-by-step oracles of the fused decoders and of beam
search from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as tz
from .tensor import NumericsError, ShapeError, Tensor, as_tensor

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
    "output_layer",
    "label_smoothed_ce",
    "DecoderKernel",
    "teacher_forced_decoder",
    "greedy_rollout",
    "dropout",
    "dropout_keep",
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
    """Pooled encoder representation h_1..h_T' with each row's valid length."""

    states: Tensor  # (B, T', D_mem)
    lengths: np.ndarray  # (B,) int64


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


def lstm_sequence(xs: Tensor | np.ndarray, lengths: np.ndarray, fwd: LstmParams, bwd: LstmParams) -> Tensor:
    """One BLSTM layer over right-padded (B, T, D_in), returning (B, T, 2H).

    Columns [:H] are the forward direction. Columns [H:] are the backward
    one, which reads each row from its last valid step back to its first.
    Outputs at padded steps are zero and padded inputs are never read.
    ``lengths`` must be B integers in [0, T] (``ShapeError`` otherwise).
    Inputs and weights must be finite (``NonFiniteError``); this is checked
    on entry, since a NaN in a skipped padded frame would go unseen. A plain
    array input is a constant: the backward returns None for it.

    Fused op with a hand-derived BPTT backward: one graph node per layer.
    Rows are sorted by length once and the backward direction reverses each
    row within its own length, so at step k both directions advance the
    same n_k longest rows. The packed arrays are step-major, (N, 2, .) with
    N the number of valid steps: step k's rows of both directions are one
    contiguous (n_k, 2, .) block, so each elementwise call on a step runs
    over one block. Each step is one (2, n_k, H) @ (2, H, 4H) matmul on the
    block's (2, n_k, .) view, with no mask arithmetic, and padded steps cost
    nothing. h lives in a two-step ring, and each step writes its h into
    the output. Recording, the input projection is one GEMM before the loop;
    after the backward loop the weight, bias and input gradients are each
    one GEMM or sum over the N packed rows, and the backward reads each
    step's ``h_prev`` back from the output. One (N, 2, 4H) buffer holds in
    turn the input projection, the gate activations and the gate gradients,
    so the backward runs only once (``NumericsError`` the second time).

    What is kept. While recording, the node keeps the (N, 2, 4H) gates, the
    (N, 2, H) cell states, the output and references to the weight arrays
    (not stacked copies; the backward stacks them again) until its backward
    runs, which drops the cell states when its loop ends and the gates,
    then holding the gate gradients, when it returns. Under ``no_grad``
    nothing outlives the call, and the call itself holds one step of gates
    and two steps of cell state beside the output: the input projection
    runs one step at a time, and the steps with one row left all at once,
    so that no product has one row. The two modes differ only there and in
    whether the cell states of every step are kept. The output is the same
    bit for bit in both, since a GEMM row's bits do not depend on the
    call's row count from two rows up at 4H columns (4H mod 8 is 0 or 4;
    see Row packing).
    """
    constant_input = not isinstance(xs, Tensor)
    xs = as_tensor(xs)
    B, T, D = xs.shape
    if T == 0:
        raise ShapeError("lstm_sequence: empty sequence")
    H = fwd.hidden
    params = (fwd.w_ih, fwd.w_hh, fwd.b, bwd.w_ih, bwd.w_hh, bwd.b)
    if [p.shape for p in params] != [(D, 4 * H), (H, 4 * H), (4 * H,)] * 2:
        raise ShapeError(f"lstm_sequence: weights {[p.shape for p in params]} do not fit input dim {D}, hidden {H}")
    lengths = np.asarray(lengths)
    if lengths.shape != (B,) or lengths.dtype.kind not in "iu" or not ((0 <= lengths) & (lengths <= T)).all():
        raise ShapeError(f"lstm_sequence: lengths must be {B} integers in [0, {T}]")
    tz.check_finite("input to lstm_sequence", xs, *params)

    # Packed layout: rows sorted by length (longest first, stably); step k
    # holds the n_k rows still running, at rows off[k] .. off[k] + n_k of a
    # step-major (N, 2, .) array, N the number of valid steps, so a step's
    # rows of both directions are one contiguous block. Direction 1 reads row
    # j at step k from source step L_j - 1 - k. idx maps (direction, packed
    # row) to a row of the flat (B*T, .) input, and gidx (packed row,
    # direction) to a row of the flat (B*T*2, H) output. A GEMM reads and
    # writes a block through its (2, n, .) view, ``dirs``.
    perm = np.argsort(-lengths, kind="stable")
    L = lengths[perm]
    counts = np.count_nonzero(L[:, None] > np.arange(T), axis=0)  # n_k, non-increasing
    steps = counts[counts > 0].tolist()
    off = np.cumsum([0, *steps]).tolist()
    N = off[-1]
    kk, jj = np.nonzero(np.arange(T)[:, None] < L)
    idx = perm[jj] * T + np.stack([kk, L[jj] - 1 - kk])
    gidx = 2 * idx.T + np.arange(2)

    def dirs(block):
        return block.transpose(1, 0, 2)

    # Gates [i | f | g | o]: sigmoid(z) = 0.5 + 0.5 tanh(z / 2), so one tanh
    # of z * scale, times scale plus shift, gives all four; unlike exp(-z),
    # tanh cannot overflow.
    scale = np.full(4 * H, 0.5)
    scale[2 * H : 3 * H] = 1.0
    shift = 1.0 - scale
    w_ihs, w_hhs = (fwd.w_ih.data, bwd.w_ih.data), (fwd.w_hh.data, bwd.w_hh.data)
    xd = xs.data.reshape(B * T, D)
    w_ih_scaled = np.stack(w_ihs) * scale
    b_scaled = np.stack([fwd.b.data, bwd.b.data]) * scale
    w_hh_scaled = np.stack(w_hhs) * scale
    # The input projection runs per block of steps, starting at the steps in
    # ``starts``. Recording, it is one block: z keeps every step's gates and
    # cs every step's cell state for the backward. Under no_grad each step
    # with two rows or more is a block and the one-row steps, a suffix, are
    # one more (a lone one joins the step before it), and cs is a ring like
    # hs. A ring holds steps k - 1 and k, at offsets ring[k].
    recording = tz.grad_enabled()
    starts = [0]
    if not recording:
        multi = sum(n > 1 for n in steps)
        starts = [*range(multi + (len(steps) - multi > 1))] or [0]
    blocks = dict(zip(starts, [*starts[1:], len(steps)]))  # first step -> end step
    z = np.empty((max((off[end] - off[k] for k, end in blocks.items()), default=0), 2, 4 * H))
    ring = [(k % 2) * counts[0] for k in range(len(steps))]
    coff = off if recording else ring
    hs = np.empty((min(N, 2 * counts[0]), 2, H))
    cs = np.empty((N, 2, H)) if recording else np.empty_like(hs)
    out = np.zeros((B * T * 2, H))
    for k, n in enumerate(steps):
        if k in blocks:
            base, rows = off[k], off[blocks[k]] - off[k]
            np.matmul(xd[idx[:, base : base + rows]], w_ih_scaled, out=dirs(z[:rows]))
            z[:rows] += b_scaled
        a = z[off[k] - base : off[k] - base + n]
        if k:
            a += dirs(dirs(hs[ring[k - 1] : ring[k - 1] + n]) @ w_hh_scaled)
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c = cs[coff[k] : coff[k] + n]
        np.multiply(a[..., :H], a[..., 2 * H : 3 * H], out=c)
        if k:
            c += a[..., H : 2 * H] * cs[coff[k - 1] : coff[k - 1] + n]
        h = hs[ring[k] : ring[k] + n]
        np.multiply(a[..., 3 * H :], np.tanh(c), out=h)
        out[gidx[off[k] : off[k] + n]] = h
    out = out.reshape(B, T, 2 * H)

    def backward(gout):
        nonlocal z, cs
        if z is None:
            raise NumericsError("lstm_sequence: backward already ran and freed its buffers")
        dh_all = gout.reshape(B * T * 2, H)[gidx]  # packed output gradient, accumulates dh
        w_hh_t = np.stack(w_hhs).transpose(0, 2, 1)
        dc = np.zeros((B, 2, H))
        dy = np.empty((B, 2, 4 * H))
        deriv = np.empty((B, 2, 4 * H))
        for k in range(len(steps) - 1, -1, -1):
            n = steps[k]
            y = z[off[k] : off[k] + n]
            i, f, g, o = y[..., :H], y[..., H : 2 * H], y[..., 2 * H : 3 * H], y[..., 3 * H :]
            dh = dh_all[off[k] : off[k] + n]
            nxt = steps[k + 1] if k + 1 < len(steps) else 0
            if nxt:
                dh[:nxt] += dirs(dirs(z[off[k + 1] : off[k + 1] + nxt]) @ w_hh_t)
            # Recomputed: keeping the forward's tanh(c) in a (N, 2, H)
            # buffer made one2many+CTC training about 4% slower (the fresh
            # buffer's pages cost more than these tanh calls).
            tc = np.tanh(cs[off[k] : off[k] + n])
            dyk = dy[:n]
            np.multiply(dh, tc, out=dyk[..., 3 * H :])
            dct = tc  # d c_k = dh o (1 - tanh^2 c_k) + carry
            np.multiply(tc, tc, out=dct)
            np.subtract(1.0, dct, out=dct)
            dct *= o
            dct *= dh
            if nxt:
                dct[:nxt] += dc[:nxt]
            np.multiply(dct, g, out=dyk[..., :H])
            if k:
                np.multiply(dct, cs[off[k - 1] : off[k - 1] + n], out=dyk[..., H : 2 * H])
            else:
                dyk[..., H : 2 * H] = 0.0
            np.multiply(dct, i, out=dyk[..., 2 * H : 3 * H])
            np.multiply(dct, f, out=dc[:n])
            dk = deriv[:n]  # sigmoid' = y (1 - y) on i, f, o; tanh' = 1 - g^2
            np.subtract(1.0, y, out=dk)
            dk *= y
            dg = dk[..., 2 * H : 3 * H]
            np.multiply(g, g, out=dg)
            np.subtract(1.0, dg, out=dg)
            np.multiply(dyk, dk, out=y)  # gate gradients replace the gates
        dz, z, cs = dirs(z), None, None  # the node keeps neither once this returns

        # Packed row r at step k >= 1 (r >= n_0) follows row r - n_{k-1}.
        first = counts[0]
        prev = np.arange(first, N) - counts[kk[first:] - 1]
        h_prev = out.reshape(B * T * 2, H)[gidx[prev].T]
        dw_ih = np.matmul(xd[idx].transpose(0, 2, 1), dz)
        dw_hh = np.matmul(h_prev.transpose(0, 2, 1), dz[:, first:])
        db = dz.sum(axis=1)
        dx = None
        if not constant_input:
            dxp = np.matmul(dz, np.stack(w_ihs).transpose(0, 2, 1))
            dx = np.zeros((B * T, D))
            dx[idx[0]] = dxp[0]  # the forward direction's rows, then the backward one's added
            dx[idx[1]] += dxp[1]
            dx = dx.reshape(B, T, D)
        return dx, dw_ih[0], dw_hh[0], db[0], dw_ih[1], dw_hh[1], db[1]

    return tz._node(out, (xs, *params), backward)


def pooled_length(length, pool: int):
    return -(-length // pool)  # ceil division, of an int or an array


def max_pool_time(xs: Tensor, lengths: np.ndarray, pool: int) -> tuple[Tensor, np.ndarray]:
    """Elementwise max over non-overlapping windows of ``pool`` time steps.

    A trailing partial window is kept (ceil semantics). Padded positions never
    win the max, and among equal maxima the first wins; fully-padded windows
    produce zeros. The windows are scanned one position at a time, as
    strided views of the input, and the backward writes each position's
    winners in one masked copy. Returns (pooled (B, T2, D), pooled lengths).
    """
    xs = as_tensor(xs)
    B, T, D = xs.shape
    if pool <= 1:
        return xs, lengths
    T2 = pooled_length(T, pool)
    valid = (np.arange(T) < lengths[:, None])[:, :, None]
    vals = xs.data[:, ::pool].copy()  # becomes the output
    seen = valid[:, ::pool]  # the window holds a valid position: its first, as padding is a suffix
    arg = np.zeros((B, T2, D), dtype=np.int16)  # the winning position
    for p in range(1, pool):
        cand, ok = xs.data[:, p::pool], valid[:, p::pool]
        n = cand.shape[1]  # the trailing partial window may lack position p
        wins = (cand > vals[:, :n]) & ok
        np.copyto(vals[:, :n], cand, where=wins)
        arg[:, :n] += wins * (p - arg[:, :n])  # integer select, no branch per element
    vals *= seen

    def backward(g):
        gm = g * seen
        gx = np.zeros((B, T, D))
        for p in range(pool):
            n = gx[:, p::pool].shape[1]
            np.copyto(gx[:, p::pool], gm[:, :n], where=arg[:, :n] == p)
        return (gx,)

    return tz._node(vals, (xs,), backward), pooled_length(lengths, pool)


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
        keys = enc.states @ params.w_keys
    query = s_prev @ params.w_query  # (B, A)
    fb = tz.reshape(feedback, (*feedback.shape, 1))  # (B, T, 1)
    pre = tz.tanh(keys + tz.reshape(query, (query.shape[0], 1, query.shape[1])) + fb * params.u + params.b)
    energies = pre @ params.v  # (B, T)
    weights = tz.masked_softmax(energies, np.arange(energies.shape[-1]) < enc.lengths[:, None], axis=-1)
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
    """One attention-decoder step in numpy, holding the decoder's state:
    (h, c) per LSTM layer, the accumulated attention weights (feedback) per
    memory and the last prediction's contexts, all zero-initialized over the
    memories' B rows.

    ``predict`` attends from the top LSTM state over every memory with its
    feedback, then applies the output softmax; ``advance`` runs the LSTM
    stack on (token embedding, contexts). The attention keys
    ``memory @ w_keys`` are projected once per memory over the (B, T, D)
    states. A row is one lane of an utterance when ``lanes`` = (utterance,
    slot) per row is given, as in beam search: no memory is copied per lane
    and each memory's contexts are one (B, K, T) @ (B, T, D) contraction.
    Otherwise a step runs the leading state rows, and kernel row i is memory
    row ``order[i]`` (the fused decoders' packed order, see the module
    docstring): the keys and validity are held in that order, so a step
    reads a prefix of them, and its contexts are one (B, 1, T) @ (B, T, D)
    contraction over the uncopied memory states.

    ``predict`` writes a step's pre-activations into its own gathered copy
    of the keys, then adds the query, the feedback term and the bias, which
    is tiled over the T positions once per memory at construction, so the
    bias is one contiguous (T * A,) row per kernel row.

    A kernel built while ``tensor.grad_enabled()`` records each step: per
    ``predict``, the top state, the output layer's input and per memory the
    (tanh pre-activations, weights, feedback before the step); per
    ``advance``, its tokens, its mask and its per-layer cache. A step's
    arrays hold the rows it ran, a prefix of the kernel's rows. ``backward``
    carries gradients back through the recorded steps, for both fused
    decoders, once, using the record up as it goes: it drops each step once
    it has passed it, and the keys become their own gradient. A kernel built
    under ``no_grad``, as in beam search, records nothing.
    """

    def __init__(
        self,
        memories: Sequence[tuple[EncoderStates, AttentionParams]],
        emb: Tensor,
        lstm: Sequence[LstmParams],
        out_w: Tensor,
        out_b: Tensor,
        order: np.ndarray | None = None,
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
        tz.check_finite("input to the decoder step", *self.inputs)
        self.table, self.out_w, self.out_b = emb.data, out_w.data, out_b.data
        self.cells = [(p.w_ih.data, p.w_hh.data, p.b.data) for p in lstm]
        self.hidden = lstm[-1].hidden
        if self.table.shape[1] + sum(enc.states.shape[-1] for enc, _ in memories) != self.cells[0][0].shape[0]:
            raise ShapeError(f"decoder step: LSTM input dim {self.cells[0][0].shape[0]} != embedding + contexts")
        B = memories[0][0].states.shape[0]
        self.order = np.arange(B) if order is None else order
        self.inverse = np.argsort(self.order)
        self.mems = []  # per memory: states, validity and keys in row order, w_query, v, b tiled T times, u
        for enc, a in memories:
            M = enc.states.data
            valid = np.arange(M.shape[1]) < enc.lengths[:, None]
            if not valid.any(axis=-1).all():
                raise ShapeError("masked_softmax: some row has no valid positions")
            keys = M @ a.w_keys.data
            if order is not None:
                valid, keys = valid[order], keys[order]
            self.mems.append((M, valid, keys, a.w_query.data, a.v.data, np.tile(a.b.data, M.shape[1]), a.u.data))
        self.w_keys = [a.w_keys.data for _, a in memories]
        self.h = [np.zeros((B, self.hidden)) for _ in self.cells]  # per LSTM layer
        self.c = [np.zeros((B, self.hidden)) for _ in self.cells]
        self.feedback = [np.zeros(valid.shape) for _, valid, *_ in self.mems]  # per memory
        self.ctx = None  # the last prediction's contexts
        self.recording = tz.grad_enabled()
        self.predictions: list[tuple] = []  # per predict: (top, joint, [(pre, w, feedback) per memory])
        self.advances: list[tuple] = []  # per advance: (tokens, mask, [cache per layer])

    def predict(self, prev_ids, lanes=None, keep=None):
        """Attend from the leading n = len(prev_ids) state rows and predict:
        returns their probabilities (n, V), and keeps their contexts and the
        feedback after this step. ``keep`` multiplies the top state fed to
        the output layer.

        The feedback term is the outer product ``einsum("nt,a->nta", fb,
        u)``, whose every element is the single product fb * u, as in
        ``additive_attention``, without broadcasting the (n, T, 1) feedback
        over A. One exception: einsum adds the product to a zeroed output,
        so it writes +0.0 where fb * u is -0.0, and ``pre`` can differ from
        the oracle's only where keys + query is exactly -0.0."""
        n = len(prev_ids)
        top = self.h[-1][:n]
        utt = slice(0, n) if lanes is None else lanes[0]  # kernel rows
        at = (self.order[:n], np.zeros(n, dtype=np.int64)) if lanes is None else lanes  # memory rows, slots
        ctxs, new_feedback, attn = [], [], []
        for (M, valid, keys, wq, v, ab, u), fb in zip(self.mems, self.feedback):
            B, T, D = M.shape
            fb = fb[:n]
            pre = keys[:n].copy() if lanes is None else keys[utt]  # its own copy: the keys stay intact
            pre += (top @ wq).reshape(n, 1, -1)
            pre += np.einsum("nt,a->nta", fb, u)
            flat = pre.reshape(n, -1)
            flat += ab  # one contiguous (T * A,) row per lane
            np.tanh(pre, out=pre)
            valid = valid[utt]
            neg = np.where(valid, pre @ v, -np.inf)
            ex = np.where(valid, np.exp(neg - neg.max(axis=-1, keepdims=True)), 0.0)
            w = ex / ex.sum(axis=-1, keepdims=True)
            lane_w = np.zeros((B, int(at[1].max(initial=0)) + 1, T))
            lane_w[at] = w
            ctxs.append((lane_w @ M)[at])
            new_feedback.append(fb + w)
            attn.append((pre, w, fb))
        ctx = ctxs[0] if len(ctxs) == 1 else np.concatenate(ctxs, axis=-1)
        joint = np.concatenate([self.table[prev_ids], top if keep is None else top * keep, ctx], axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):  # diverged weights; callers check the probabilities
            logits = joint @ self.out_w + self.out_b
            ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
        if self.recording:
            self.predictions.append((top, joint, attn))
        self.ctx, self.feedback = ctx, new_feedback
        return ex / ex.sum(axis=-1, keepdims=True)

    def advance(self, tokens, mask=None, rows=None):
        """Run the LSTM stack on (embedding of ``tokens``, the last
        prediction's contexts) over its leading len(tokens) rows, or over the
        rows ``rows`` names (beam search's parents, unrecorded). Rows whose
        ``mask`` is 0 keep their state. The advanced rows become the state;
        the record keeps per layer (input, h, c, i, f, g, o, tanh c_new)."""
        H = self.hidden
        m = None if mask is None else mask[:, None]
        pick = slice(0, len(tokens)) if rows is None else rows
        x = np.concatenate([self.table[tokens], self.ctx[pick]], axis=-1)
        h, c, cache = [t[pick] for t in self.h], [t[pick] for t in self.c], []
        self.feedback = [fb[pick] for fb in self.feedback]
        for j, (w_ih, w_hh, b) in enumerate(self.cells):
            # Diverged weights overflow here: the sigmoids saturate, and
            # callers check the kernel's (h, c) for NaN.
            with np.errstate(over="ignore", invalid="ignore"):
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
        if self.recording:
            self.advances.append((tokens, mask, cache))
        self.h, self.c = h, c

    def backward(self, d_emb, dctxs, dtops, dlogits=None, dh_after=None):
        """Carry gradients back through the recorded steps, in the
        kernel's row order: each step's attention over its p_s leading rows
        and, for the steps that advanced, the LSTM stack over the advance's
        leading rows under its mask; masked rows, and rows beyond the
        advance, pass their state's gradient on unchanged. From outside the
        recurrence come ``dctxs`` (N, sum D) on each step's contexts and
        ``dtops`` (N, H) on the top state its prediction read (the output
        layer's share), packed step after step (N = sum p_s), and
        ``dh_after`` (n, B, H) on the top state after each advance. ``d_emb``
        gains the embedding gradient at the advances' tokens and ``dctxs``
        the LSTM inputs' share, in place. ``dlogits`` (N, V) on the output
        layer's logits gives the output weight and bias their gradients;
        without it (the rollout's argmax) they get None. Returns the gradient
        of every ``inputs`` entry, in order, each memory's states in the
        caller's row order.

        It runs once and uses the record up as it walks back over the steps.
        It takes the record from the kernel on entry (a second call raises
        ``NumericsError``). The loop does not read the joints, so the output
        layer's GEMM runs on them first and they are dropped before the
        loop allocates anything. The loop drops each step's pre-activations
        (overwritten with their gradients), feedback, top state and advance
        cache once it has passed that step. The keys are not read again, so
        they are zeroed and accumulate their own gradient. The weight GEMMs
        after the loop read packed (rows, .) buffers that the loop fills
        step by step in the forward's row order (the LSTM inputs and
        previous states, ``dz``, the top states, ``dq``, the embedding rows
        and tokens), and each step's attention weights go straight into the
        (B, T, S) array of the context GEMM. So only the joints are ever
        held twice, and only before the loop; every GEMM reads the operands
        the concatenated record gave, and the gradients are the same bit for
        bit. After the call the node keeps none of it.

        Both fused decoders only ever clear a row's mask: once a row stops
        (at its target's end, or at [EOS] or its limit in the rollout), its
        mask is 0 at every later advance that computes it. A masked advance
        keeps the row's state, so nothing after the row's last unmasked
        advance depends on its cell state: going backward, the row's ``dc``
        is still 0 at its masked steps, and it needs neither the mask nor a
        pass-through term. ``dh`` needs both, since the rollout returns a
        stopped row's kept top state at every later step."""
        if self.predictions is None:
            raise NumericsError("decoder step: backward already ran and freed its record")
        record, advances, self.predictions, self.advances = self.predictions, self.advances, None, None
        rows = [top.shape[0] for top, _, _ in record]
        adv = [mask.shape[0] for _, mask, _ in advances]
        off, aoff = np.cumsum([0, *rows]), np.cumsum([0, *adv])
        S, n = len(rows), len(advances)
        B, H, L = self.mems[0][0].shape[0], self.hidden, len(self.cells)
        E = self.table.shape[1]
        d_out = (None, None)
        if dlogits is not None:  # the joints are read here only, so they go first
            J = np.concatenate([joint for _, joint, _ in record])
            d_out = (J.T @ dlogits, dlogits.sum(axis=0))
            record = [(top, None, attn) for top, _, attn in record]
            del J
        dh = [np.zeros((B, H)) for _ in range(L)]
        dc = [np.zeros((B, H)) for _ in range(L)]
        # Packed (rows, .) operands of the GEMMs after the loop, in step
        # order, filled as the loop passes each step.
        tokens_all, d_cur = np.empty(aoff[-1], dtype=np.int64), np.empty((aoff[-1], E))
        dz_all = [np.empty((aoff[-1], 4 * H)) for _ in range(L)]
        xs_all = [np.empty((aoff[-1], w_ih.shape[0])) for w_ih, _, _ in self.cells]
        hs_all = [np.empty((aoff[-1], H)) for _ in range(L)]
        tops_all = np.empty((off[-1], H))
        dfb = [np.zeros(valid.shape) for _, valid, *_ in self.mems]
        dkeys = [keys for _, _, keys, *_ in self.mems]  # no step reads the keys again: they become their gradient
        for d in dkeys:
            d.fill(0.0)
        dq_all = [np.empty((off[-1], keys.shape[-1])) for _, _, keys, *_ in self.mems]
        ws = [np.zeros((B, M.shape[1], S)) for M, *_ in self.mems]  # (memory row, position, step)
        dv = [np.zeros(keys.shape[-1]) for _, _, keys, *_ in self.mems]
        du = [np.zeros(keys.shape[-1]) for _, _, keys, *_ in self.mems]
        # Contiguous transposes: a GEMM reads them faster than a transposed view.
        cells_t = [(np.ascontiguousarray(w_ih.T), np.ascontiguousarray(w_hh.T)) for w_ih, w_hh, _ in self.cells]
        wq_t = [np.ascontiguousarray(wq.T) for _, _, _, wq, *_ in self.mems]
        for s in range(S - 1, -1, -1):
            p, o0 = rows[s], off[s]
            if s < n:  # LSTM stack advance, top layer first
                tokens, mask, cache = advances[s]
                advances[s] = None
                a, a0 = mask.shape[0], aoff[s]
                tokens_all[a0 : a0 + a] = tokens
                if dh_after is not None:
                    dh[-1] += dh_after[s]
                m = mask[:, None]
                dx = None
                for j in range(L - 1, -1, -1):
                    x, h_prev, c_prev, i, f, g, o, tc = cache[j]
                    xs_all[j][a0 : a0 + a], hs_all[j][a0 : a0 + a] = x, h_prev
                    dh_out = dh[j][:a] if dx is None else dh[j][:a] + dx
                    dh_new = m * dh_out
                    dc_total = dc[j][:a] + dh_new * o * (1.0 - tc * tc)
                    dz = dz_all[j][a0 : a0 + a]
                    dz[:, :H] = dc_total * g * i * (1.0 - i)
                    dz[:, H : 2 * H] = dc_total * c_prev * f * (1.0 - f)
                    dz[:, 2 * H : 3 * H] = dc_total * i * (1.0 - g * g)
                    dz[:, 3 * H :] = dh_new * tc * o * (1.0 - o)
                    dc[j][:a] = dc_total * f
                    dx = dz @ cells_t[j][0]
                    dh[j][:a] = dz @ cells_t[j][1] + (1.0 - m) * dh_out
                d_cur[a0 : a0 + a] = dx[:, :E]
                dctxs[o0 : o0 + a] += dx[:, E:]
            top, _, attn = record[s]
            record[s] = None
            tops_all[o0 : o0 + p] = top
            dtop = dtops[o0 : o0 + p]
            c0 = 0
            for k, (M, valid, keys, wq, v, ab, u) in enumerate(self.mems):
                pre, w, fb = attn[k]
                A, D = keys.shape[-1], M.shape[-1]
                ws[k][self.order[:p], :, s] = w
                d_ctx = np.zeros((B, D))  # on the memory rows, as the contexts were read
                d_ctx[self.order[:p]] = dctxs[o0 : o0 + p, c0 : c0 + D]
                dw = (M @ d_ctx[..., None])[self.order[:p], :, 0] + dfb[k][:p]
                c0 += D
                de = w * (dw - (w * dw).sum(axis=-1, keepdims=True))
                dv[k] += de.reshape(-1) @ pre.reshape(-1, A)
                # d pre-activation = de (1 - tanh^2) v. v scales every sum
                # of it, so da leaves it out and the sums take it once.
                da = np.multiply(pre, pre, out=pre)  # over the record: fresh (p, T, A) temporaries are slow
                np.subtract(1.0, da, out=da)
                da *= de[..., None]
                dkeys[k][:p] += da
                dq = np.multiply(np.ones(da.shape[1]) @ da, v, out=dq_all[k][o0 : o0 + p])
                dtop = dtop + dq @ wq_t[k]
                du[k] += fb.reshape(-1) @ da.reshape(-1, A)
                dfb[k][:p] += da @ (v * u)
            del attn, pre, da
            dh[-1][:p] += dtop

        grads = []
        if n:
            np.add.at(d_emb, tokens_all, d_cur)
        for j in range(L):
            if n == 0:  # no advance ran
                grads += [np.zeros_like(t) for t in self.cells[j]]
                continue
            dz, xs, hs = dz_all[j], xs_all[j], hs_all[j]
            grads += [xs.T @ dz, hs.T @ dz, dz.sum(axis=0)]
        ss = np.repeat(np.arange(S), rows)  # packed row -> (step, memory row)
        rr = self.order[np.arange(off[-1]) - off[ss]]
        d_states = []
        c0 = 0
        for k, (M, valid, keys, wq, v, ab, u) in enumerate(self.mems):
            _, T, D = M.shape
            A = keys.shape[-1]
            d_keys = dkeys[k][self.inverse]  # on the memory rows
            d_keys *= v
            d_wk = M.reshape(B * T, D).T @ d_keys.reshape(B * T, A)
            grads += [tops_all.T @ dq_all[k], d_wk, dv[k], d_keys.sum(axis=(0, 1)), du[k] * v]
            # context = weights @ memory, summed over steps: (B, T, S) @ (B, S, D)
            d_ctx = np.zeros((B, S, D))
            d_ctx[rr, ss] = dctxs[:, c0 : c0 + D]
            c0 += D
            d_states.append(ws[k] @ d_ctx + d_keys @ self.w_keys[k].T)
        self.mems = None
        return (d_emb, *grads, *d_out, *d_states)


def _step_rows(n: int, B: int) -> int:
    """The rows a packed decoder step computes when its n leading rows run
    (see the module docstring)."""
    return max(n, min(2, B))


def teacher_forced_decoder(
    memories: Sequence[tuple[EncoderStates, AttentionParams]],
    emb: Tensor,
    lstm: Sequence[LstmParams],
    out_w: Tensor,
    out_b: Tensor,
    targets: np.ndarray,
    lengths: np.ndarray,
    bos_id: int,
    eos_id: int,
    eps: float,
    rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, int]:
    """Summed label-smoothed CE of an attention decoder under teacher forcing.

    Row b of the (B, J) ``targets`` has ``lengths[b]`` tokens. Step s embeds
    the previous target (``bos_id`` at s = 0), predicts target token s, or
    ``eos_id`` at s = ``lengths[b]``, and advances the LSTM stack on it: one
    ``DecoderKernel`` step. Row b runs steps 0 .. ``lengths[b]``; later steps
    add nothing to the loss. With ``rng``, one (S, B, H) inverted-dropout
    mask at ``rate`` is drawn for the top state fed to the output layer, S
    being the longest row's step count: the same values as S per-step (B, H)
    draws, leaving the stream where they would. Returns (loss, the number of
    run steps whose argmax is the target).

    Rows are packed by step bound, as the module docstring describes, and
    each step's loss terms are summed in the caller's row order. Fused op
    with a hand-derived backward: one graph node per decoder run, whose
    parents are ``DecoderKernel.inputs``. The step repeats the numpy op
    order of ``additive_attention``, ``output_layer``, ``label_smoothed_ce``
    and ``lstm_step`` (the oracle in ``tests/test_models.py``), so loss and
    hits are bit-identical to that composition under the module docstring's
    BLAS condition. Clamped zero probabilities of the rows a step runs warn
    and get zero gradient, as in ``label_smoothed_ce``. The backward
    differentiates the output softmax and the loss over all packed rows at
    once, then hands the gradients on the contexts and top states to
    ``DecoderKernel.backward``.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"label smoothing ratio must be in [0, 1), got {eps}")
    lengths = np.asarray(lengths, dtype=np.int64)
    B = lengths.shape[0]
    S = int(lengths.max()) + 1  # steps 0..L predict L tokens plus [EOS]
    steps = np.arange(S)[:, None]
    order = np.argsort(-lengths, kind="stable")
    mask = (steps <= lengths[order]).astype(np.float64)  # (S, B), rows in order
    rows = [_step_rows(int(n), B) for n in np.count_nonzero(mask, axis=1)]
    off = np.cumsum([0, *rows])
    ss = np.repeat(np.arange(S), rows)  # packed row -> (step, sorted row)
    rr = np.arange(off[-1]) - off[ss]
    kernel = DecoderKernel(memories, emb, lstm, out_w, out_b, order)
    table, wo = kernel.table, kernel.out_w
    E, V, H = table.shape[1], wo.shape[1], kernel.hidden
    cols = np.concatenate([np.asarray(targets, dtype=np.int64)[order], np.full((B, 1), eos_id)], axis=1)[:, :S].T
    targets = np.where(steps < lengths[order], cols, eos_id)
    if targets.min() < 0 or targets.max() >= table.shape[0]:
        raise ShapeError(f"token id out of range for table of {table.shape[0]} rows")
    prev_ids = np.concatenate([np.full((1, B), bos_id, dtype=np.int64), targets[:-1]])
    keep = None if rng is None else dropout_keep((S, B, H), rate, rng)[:, order]

    probs = np.empty((off[-1], V))
    for s in range(S):
        n = rows[s]
        probs[off[s] : off[s + 1]] = kernel.predict(prev_ids[s, :n], keep=None if keep is None else keep[s, :n])
        if s < S - 1:  # the state after the last prediction feeds nothing
            a = rows[s + 1]
            kernel.advance(targets[s, :a], mask[s, :a])

    # Per-row loss terms of all steps at once (row-wise, so the bits of a
    # per-step computation), in the caller's row order, then summed step by
    # step. Rows a step did not run add zero.
    tgt, live = targets[ss, rr], mask[ss, rr]
    logp = np.log(np.maximum(probs, tz._LOG_FLOOR))
    picked = np.take_along_axis(logp, tgt[:, None], axis=-1)[:, 0]
    terms = np.zeros((S, B))
    terms[ss, order[rr]] = ((picked * (1.0 - eps) + logp.sum(axis=-1) * (eps / V)) * -1.0) * live
    total = 0.0
    for step_sum in terms.sum(axis=1):
        total += step_sum
    tiny = probs < tz._LOG_FLOOR
    if tiny.any() and (eps > 0.0 or np.take_along_axis(tiny, tgt[:, None], axis=-1).any()):
        warnings.warn("clamped zero probability in smoothed cross entropy", SmoothingClampWarning)
    hits = int(((probs.argmax(axis=-1) == tgt) & (live > 0)).sum())

    def backward(gout):
        # Output softmax and smoothed CE, all packed rows at once: d loss /
        # d logp is -g * mask * q with q the smoothed target; clamped entries
        # pass nothing back, so p * d loss / d p is that term where p is active.
        q = np.full((off[-1], V), eps / V)
        np.put_along_axis(q, tgt[:, None], 1.0 - eps + eps / V, axis=-1)
        pdp = np.where(tiny, 0.0, q * (-float(gout) * live)[:, None])
        dlogits = pdp - probs * pdp.sum(axis=-1, keepdims=True)
        djoint = dlogits @ wo.T
        d_emb = np.zeros_like(table)
        np.add.at(d_emb, prev_ids[ss, rr], djoint[:, :E])
        dtops = djoint[:, E : E + H] if keep is None else djoint[:, E : E + H] * keep[ss, rr]
        dctxs = djoint[:, E + H :].copy()  # gains the LSTM input's share
        return kernel.backward(d_emb, dctxs, dtops, dlogits)

    return tz._node(total, kernel.inputs, backward), hits


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
    one ``DecoderKernel`` step, takes the argmax as the step's token and
    advances the LSTM stack on it. Row b runs until it emits ``eos_id`` or
    has run ``limits[b]`` steps; after that its step mask is 0, its token
    ``pad_id`` and its state frozen. The loop stops when no row runs, after
    K <= max(limits) steps. With ``rng``, each step that runs draws one
    (B, H) inverted-dropout mask at ``rate`` for the top state fed to the
    output layer, so the stream moves by exactly the steps taken. Returns
    ((B, K, H) top states after each step, (B,) steps run, (B, K) tokens).

    Rows are packed by limit (see the module docstring). A row a step does
    not compute returns the state after its last computed step, so the
    gradient on those padded steps reaches that step.

    Fused op with a hand-derived backward: one graph node whose parents are
    the parameters and each memory's states. The argmax is a constant, so
    the output layer and the previous-token embeddings get no gradient; the
    gradient on the returned states goes back through the masked LSTM stack
    and the attention with its feedback by ``DecoderKernel.backward``. The
    step repeats the numpy op order of the per-step Tensor layers, so states
    and tokens are bit-identical to that composition (the oracle in
    ``tests/test_models.py``) under the BLAS condition of the module
    docstring. Under ``no_grad`` nothing is kept.
    """
    limits = np.asarray(limits, dtype=np.int64)
    B = limits.shape[0]
    if limits.max(initial=0) < 1:
        raise ShapeError("greedy rollout: no row may run a step")
    order = np.argsort(-limits, kind="stable")
    limits = limits[order]
    kernel = DecoderKernel(memories, emb, lstm, out_w, out_b, order)
    H = kernel.hidden
    alive = limits > 0
    prev = np.full(B, bos_id, dtype=np.int64)
    states, tokens = [], []
    ran = np.zeros(B, dtype=np.int64)
    while alive.any():
        k = len(states)
        r = _step_rows(B - int(alive[::-1].argmax()), B)
        keep = None if rng is None else dropout_keep((B, H), rate, rng)[order[:r]]
        p = kernel.predict(prev[:r], keep=keep)
        tz.check_finite("output probabilities in the greedy rollout", p)
        chosen = np.full(B, pad_id, dtype=np.int64)
        chosen[:r] = np.where(alive[:r], p.argmax(axis=-1), pad_id)
        kernel.advance(chosen[:r], alive[:r].astype(np.float64))
        states.append(kernel.h[-1])
        tokens.append(chosen)
        ran += alive
        alive &= (chosen != eos_id) & (k + 1 < limits)
        prev = chosen
    K = len(states)
    out = np.zeros((B, K, H))  # rows beyond a step's prefix repeat their last state
    for k, top in enumerate(states):
        r = top.shape[0]
        out[:r, k] = top
        if k:
            out[r:, k] = out[r:, k - 1]
    steps_run, step_tokens = ran[kernel.inverse], np.stack(tokens, axis=1)[kernel.inverse]

    N, C = sum(top.shape[0] for top in states), sum(enc.states.shape[-1] for enc, _ in memories)

    def backward(gout):
        # Nothing outside the recurrence reads the contexts or the top states
        # the predictions read: the argmax passes no gradient.
        d_emb = np.zeros_like(kernel.table)
        dh_after = np.swapaxes(gout[order], 0, 1)
        return kernel.backward(d_emb, np.zeros((N, C)), np.zeros((N, H)), dh_after=dh_after)

    return tz._node(out[kernel.inverse], kernel.inputs, backward), steps_run, step_tokens


def _dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """The kept positions: False with probability ``rate``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return rng.random(shape) >= rate


def dropout_keep(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability ``rate``, else 1/(1-rate)."""
    return _dropout_mask(shape, rate, rng) / (1.0 - rate)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout at ``rate``: the identity at rate 0, drawing nothing.

    Otherwise one graph node, equal bit for bit to ``x * dropout_keep(x.shape,
    rate, rng)`` with the same draw on ``rng``. Its backward keeps the boolean
    mask, a byte per element, and rebuilds the same multipliers from it.
    """
    x = as_tensor(x)
    if rate == 0.0:
        return x
    mask = _dropout_mask(x.shape, rate, rng)

    def backward(g):
        return (g * (mask / (1.0 - rate)),)

    return tz._node(x.data * (mask / (1.0 - rate)), (x,), backward)
