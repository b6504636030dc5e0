"""CTC loss over frame-wise log-distributions, with exact gradients.

One dynamic program serves every caller: ``batched_ctc_loss`` runs it over
a right-padded batch of (B, T, V+1) log-probs and their transcripts as a
single graph node, and the per-example ``ctc_loss`` and ``ctc_lattice`` are
batches of one. The DP runs entirely in log space over the
blank-interleaved label sequences, all rows at once: each row's backward
pass starts at its own last frame, and states past a row's 2J+1 and frames
past its length carry no path mass, so their gradient is 0. The blank
symbol is always the last column of the frame distribution. The tests
check the DP against a brute-force sum over every alignment path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import NumericsError, Tensor, as_tensor

__all__ = [
    "CtcInfeasibleError",
    "CtcLattice",
    "batched_ctc_loss",
    "ctc_loss",
    "ctc_lattice",
    "extend_with_blanks",
    "min_frames_required",
]

NEG_INF = -np.inf


class CtcInfeasibleError(NumericsError):
    """No valid alignment exists (target too long for the frame count)."""


def extend_with_blanks(target: np.ndarray, blank: int) -> np.ndarray:
    """Interleave blanks along the last axis: [a, b] -> [_, a, _, b, _], length 2J+1."""
    target = np.asarray(target)
    ext = np.full((*target.shape[:-1], 2 * target.shape[-1] + 1), blank, dtype=np.int64)
    ext[..., 1::2] = target
    return ext


def min_frames_required(target: np.ndarray) -> int:
    """J plus one separating blank per adjacent repeated label."""
    target = np.asarray(target)
    repeats = int((target[1:] == target[:-1]).sum()) if len(target) > 1 else 0
    return len(target) + repeats


@dataclass
class CtcLattice:
    """Forward/backward log-probability tables over the extended labels."""

    alpha: np.ndarray  # (T, 2J+1), emission at t included
    beta: np.ndarray  # (T, 2J+1), emissions strictly after t
    extended: np.ndarray  # (2J+1,) blank-interleaved label ids
    log_prob: float


@dataclass
class _Batch:
    """Validated DP inputs and, after ``_forward_backward``, its tables."""

    lp: np.ndarray  # (B, T, V+1) frame log-probs
    frames: np.ndarray  # (B,) frame count per row
    labels: np.ndarray  # (B,) label count J per row
    extended: np.ndarray  # (B, 2 Jmax + 1) blank-interleaved ids, blank-padded
    order: np.ndarray | None = None  # (B,) rows by frame count, longest first
    alpha: np.ndarray | None = None  # (T, B, S), rows in ``order``
    beta: np.ndarray | None = None  # (T, B, S), rows in ``order``
    log_prob: np.ndarray | None = None  # (B,)


def _validate(frame_logprobs: np.ndarray, frame_lengths, targets, target_lengths) -> _Batch:
    """Check the batch once, on valid frames and labels only. The first bad
    row is named, with the error the per-row checks would raise first."""
    lp = np.asarray(frame_logprobs, dtype=np.float64)
    if lp.ndim != 3:
        raise NumericsError(f"frame log-probs must be (B, T, V+1), got shape {lp.shape}")
    B, T, width = lp.shape
    blank = width - 1
    frames = np.asarray(frame_lengths, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    labels = np.asarray(target_lengths, dtype=np.int64)
    if frames.shape != (B,) or (frames < 0).any() or (frames > T).any():
        raise NumericsError(f"frame lengths must be (B,) in [0, {T}], got {frames.tolist()}")
    if targets.ndim != 2 or targets.shape[0] != B or labels.shape != (B,) or (labels > targets.shape[1]).any():
        raise NumericsError("CTC targets must be (B, J) ids with (B,) lengths of at most J")
    frame_valid = np.arange(T) < frames[:, None]
    label_valid = np.arange(targets.shape[1]) < labels[:, None]
    bad_ids = ((targets < 0) | (targets >= blank)).any(axis=1, where=label_valid)
    row_mass = np.ones((B, T))
    row_mass[frame_valid] = np.exp(lp[frame_valid]).sum(axis=-1)
    bad_mass = (np.abs(row_mass - 1.0) > 1e-6).any(axis=1)
    repeats = ((targets[:, 1:] == targets[:, :-1]) & label_valid[:, 1:]).sum(axis=1)
    needed = labels + repeats
    short = frames < needed
    failed = (labels < 1) | bad_ids | bad_mass | short
    if failed.any():
        b = int(np.argmax(failed))
        if labels[b] < 1:
            raise NumericsError(f"CTC row {b}: target must be a non-empty id sequence")
        if bad_ids[b]:
            raise NumericsError(f"CTC row {b}: target ids must lie in [0, blank)")
        if bad_mass[b]:
            raise NumericsError(f"CTC row {b}: frame rows must be log-distributions over vocabulary plus blank")
        raise CtcInfeasibleError(f"CTC row {b}: target needs at least {needed[b]} frames, got {frames[b]}")
    return _Batch(lp, frames, labels, extend_with_blanks(np.where(label_valid, targets, blank), blank))


# Finite but extreme log-probs can sum past -1e308 in the DP and in the
# gradient's path mass: the mass is 0 and -inf is its log, not an overflow,
# and a row left with no path raises CtcInfeasibleError.
@np.errstate(over="ignore")
def _forward_backward(batch: _Batch) -> _Batch:
    """Fill alpha, beta and the per-row log p_ctc.

    Per row these are the same elementwise operations in the same order as
    a DP over that row alone, so every value is bit-identical to it. Rows
    are sorted by frame count, so at frame t the rows still running are a
    prefix, and only that prefix and the states of its widest row are
    computed; the rest of each table stays -inf. A row's beta is -inf on
    the states past its 2J+1, which only lead to each other, so whatever
    alpha holds there carries no path mass.
    """
    lp, frames = batch.lp, batch.frames
    B, T, width = lp.shape
    order = np.argsort(-frames, kind="stable")
    lengths, states, ext = frames[order], 2 * batch.labels[order] + 1, batch.extended[order]
    S = ext.shape[1]
    rows = np.arange(B)
    running = np.count_nonzero(lengths[:, None] > np.arange(T), axis=0).tolist()  # rows with frame t
    span = np.maximum.accumulate(states)[np.maximum(running, 1) - 1].tolist()  # their widest row
    emit = lp[order[:, None], np.arange(T)[:, None, None], ext]  # (T, B, S)

    # skip transition s-2 -> s allowed into non-blank states with a new label
    skip_ok = np.zeros((B, S), dtype=bool)
    skip_ok[:, 2:] = (ext[:, 2:] != width - 1) & (ext[:, 2:] != ext[:, :-2])
    jump_ok = np.zeros((B, S), dtype=bool)  # the same skip, seen from s - 2
    jump_ok[:, : S - 2] = skip_ok[:, 2:]

    # Alpha and beta live in (T, B, S + 2) buffers whose two extra -inf
    # columns stand for the states before the first (alpha) or after the
    # last (beta), so the shifted operands are views. logaddexp(x, -inf)
    # is x, so the skip term is added only where it is allowed.
    a_buf = np.full((T, B, S + 2), NEG_INF)
    alpha = a_buf[:, :, 2:]
    alpha[0, :, :2] = emit[0, :, :2]
    b_buf = np.full((T, B, S + 2), NEG_INF)
    beta = b_buf[:, :, :S]
    beta[lengths - 1, rows, states - 1] = 0.0  # each row's beta starts at its own last frame
    beta[lengths - 1, rows, states - 2] = 0.0
    nxt = np.full((B, S + 2), NEG_INF)
    for t in range(1, T):
        n, s = running[t], span[t]
        a = a_buf[t - 1, :n, : s + 2]
        prev = np.logaddexp(a[:, 2:], a[:, 1:-1])
        np.logaddexp(prev, a[:, :-2], out=prev, where=skip_ok[:n, :s])
        np.add(prev, emit[t, :n, :s], out=alpha[t, :n, :s])
    for t in range(T - 2, -1, -1):
        n, s = running[t + 1], span[t + 1]  # rows whose frame t is not their last
        nx = nxt[:n, : s + 2]  # only ever written left of s
        np.add(beta[t + 1, :n, :s], emit[t + 1, :n, :s], out=nx[:, :s])
        out = beta[t, :n, :s]
        np.logaddexp(nx[:, :s], nx[:, 1 : s + 1], out=out)
        np.logaddexp(out, nx[:, 2:], out=out, where=jump_ok[:n, :s])

    final = alpha[lengths - 1, rows]
    log_prob = np.empty(B)
    log_prob[order] = np.logaddexp(final[rows, states - 1], final[rows, states - 2])
    if not np.isfinite(log_prob).all():
        b = int(np.argmax(~np.isfinite(log_prob)))
        raise CtcInfeasibleError(f"CTC row {b}: no alignment path has non-zero probability")
    batch.order, batch.alpha, batch.beta, batch.log_prob = order, alpha, beta, log_prob
    return batch


@np.errstate(over="ignore")  # as in _forward_backward
def _grad(batch: _Batch) -> np.ndarray:
    """d(-sum log p_ctc) / d log-probs, (B, T, V+1); 0 past each row's frames.

    Each cell's state occupancies are added in state order, as for a single
    row, so the gradient is bit-identical to it.
    """
    B, T, width = batch.lp.shape
    order = batch.order
    gamma = batch.alpha + batch.beta  # (T, B, S) path mass through each state
    occupancy = np.exp(gamma - batch.log_prob[order][:, None])  # 0 where gamma is -inf
    grad = np.zeros((B, T, width))
    index = (order[:, None, None], np.arange(T), batch.extended[order][:, :, None])
    np.add.at(grad, index, occupancy.transpose(1, 2, 0))  # (B, S, T): state order per cell
    return -grad


def _loss_node(t_in: Tensor, batch: _Batch) -> Tensor:
    """-sum_b log p_ctc as a graph node whose only parent is ``t_in``."""
    _forward_backward(batch)
    total = -batch.log_prob[0]
    for nll in -batch.log_prob[1:]:  # row order, as a chain of scalar adds
        total = total + nll

    def backward(g):
        return ((g * _grad(batch)).reshape(t_in.shape),)

    return tz._node(np.asarray(total), (t_in,), backward)


def batched_ctc_loss(
    frame_logprobs: Tensor | np.ndarray, frame_lengths, targets, target_lengths
) -> Tensor:
    """Sum over rows of -log p_ctc, as one differentiable scalar.

    ``frame_logprobs`` (B, T, V+1) are right-padded log-distributions (they
    compose with log_softmax); row b uses its first ``frame_lengths[b]``
    frames and the first ``target_lengths[b]`` ids of ``targets`` (B, J).
    Padded frames and labels are never read, and their gradient is 0.
    """
    t_in = as_tensor(frame_logprobs)
    return _loss_node(t_in, _validate(t_in.data, frame_lengths, targets, target_lengths))


def _single(frame_logprobs: np.ndarray, target) -> _Batch:
    lp = np.asarray(frame_logprobs, dtype=np.float64)
    target = np.asarray(target, dtype=np.int64)
    if lp.ndim != 2 or target.ndim != 1:
        raise NumericsError(f"CTC needs (T, V+1) frame log-probs and a 1-D target, got {lp.shape} and {target.shape}")
    return _validate(lp[None], [lp.shape[0]], target[None], [len(target)])


def ctc_loss(frame_logprobs: Tensor | np.ndarray, target: np.ndarray) -> Tensor:
    """-log p_ctc of one (T, V+1) example as a differentiable scalar."""
    t_in = as_tensor(frame_logprobs)
    return _loss_node(t_in, _single(t_in.data, target))


def ctc_lattice(frame_logprobs: np.ndarray, target: np.ndarray) -> CtcLattice:
    """Run the forward-backward DP on one example and return the full lattice."""
    batch = _forward_backward(_single(frame_logprobs, target))
    return CtcLattice(batch.alpha[:, 0], batch.beta[:, 0], batch.extended[0], float(batch.log_prob[0]))

