"""CTC loss over frame-wise log-distributions, with exact gradients.

The dynamic program runs entirely in log space over the blank-interleaved
label sequence. The blank symbol is always the last column of the frame
distribution. ``ctc_brute_force`` enumerates every alignment path and is the
independent oracle for the DP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import NumericsError, Tensor, as_tensor

__all__ = [
    "CtcInfeasibleError",
    "CtcLattice",
    "ctc_loss",
    "ctc_lattice",
    "ctc_brute_force",
    "extend_with_blanks",
    "min_frames_required",
]

NEG_INF = -np.inf


class CtcInfeasibleError(NumericsError):
    """No valid alignment exists (target too long for the frame count)."""


def extend_with_blanks(target: np.ndarray, blank: int) -> np.ndarray:
    """Interleave blanks: [a, b] -> [_, a, _, b, _], length 2J+1."""
    ext = np.full(2 * len(target) + 1, blank, dtype=np.int64)
    ext[1::2] = target
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

    def log_prob_from_alpha(self) -> float:
        return float(np.logaddexp(self.alpha[-1, -1], self.alpha[-1, -2]))

    def log_prob_from_beta(self) -> float:
        # Combine initial-state alphas (first emission) with their betas.
        return float(np.logaddexp(self.alpha[0, 0] + self.beta[0, 0], self.alpha[0, 1] + self.beta[0, 1]))


def _validate(frame_logprobs: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    lp = np.asarray(frame_logprobs, dtype=np.float64)
    target = np.asarray(target, dtype=np.int64)
    if lp.ndim != 2:
        raise NumericsError(f"frame log-probs must be (T, V+1), got shape {lp.shape}")
    T, width = lp.shape
    blank = width - 1
    if target.ndim != 1 or len(target) < 1:
        raise NumericsError("CTC target must be a non-empty 1-D id sequence")
    if (target < 0).any() or (target >= blank).any():
        raise NumericsError("CTC target ids must lie in [0, blank)")
    row_mass = np.exp(lp).sum(axis=1)
    if np.abs(row_mass - 1.0).max() > 1e-6:
        raise NumericsError("frame rows must be log-distributions over vocabulary plus blank")
    if T < min_frames_required(target):
        raise CtcInfeasibleError(
            f"target needs at least {min_frames_required(target)} frames, got {T}"
        )
    return lp, target, blank


def _forward_backward(lp: np.ndarray, target: np.ndarray, blank: int):
    T = lp.shape[0]
    ext = extend_with_blanks(target, blank)
    S = len(ext)
    emit = lp[:, ext]  # (T, S)

    # skip transition s-2 -> s allowed into non-blank states with a new label
    skip_ok = np.zeros(S, dtype=bool)
    if S > 2:
        skip_ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])

    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = emit[0, 0]
    if S > 1:
        alpha[0, 1] = emit[0, 1]
    with np.errstate(invalid="ignore"):
        for t in range(1, T):
            a = alpha[t - 1]
            prev = np.logaddexp(a, np.concatenate(([NEG_INF], a[:-1])))
            skipped = np.concatenate(([NEG_INF, NEG_INF], a[:-2]))
            prev = np.where(skip_ok, np.logaddexp(prev, skipped), prev)
            alpha[t] = prev + emit[t]

        beta = np.full((T, S), NEG_INF)
        beta[T - 1, S - 1] = 0.0
        if S > 1:
            beta[T - 1, S - 2] = 0.0
        for t in range(T - 2, -1, -1):
            nxt = beta[t + 1] + emit[t + 1]
            stay_or_advance = np.logaddexp(nxt, np.concatenate((nxt[1:], [NEG_INF])))
            jumped = np.concatenate((np.where(skip_ok, nxt, NEG_INF)[2:], [NEG_INF, NEG_INF]))
            beta[t] = np.logaddexp(stay_or_advance, jumped)

    log_prob = float(np.logaddexp(alpha[-1, -1], alpha[-1, -2] if S > 1 else NEG_INF))
    if not np.isfinite(log_prob):
        raise CtcInfeasibleError("no alignment path has non-zero probability")
    return CtcLattice(alpha=alpha, beta=beta, extended=ext, log_prob=log_prob)


def ctc_lattice(frame_logprobs: np.ndarray, target: np.ndarray) -> CtcLattice:
    """Run the forward-backward DP and return the full lattice."""
    lp, target, blank = _validate(frame_logprobs, target)
    return _forward_backward(lp, target, blank)


def _grad_from_lattice(width: int, lattice: CtcLattice) -> np.ndarray:
    T = lattice.alpha.shape[0]
    gamma = lattice.alpha + lattice.beta  # (T, S) path mass through each state
    grad = np.zeros((T, width))
    with np.errstate(invalid="ignore"):
        occupancy = np.exp(gamma - lattice.log_prob)
    occupancy[~np.isfinite(gamma)] = 0.0
    np.add.at(grad.T, lattice.extended, occupancy.T)
    return -grad


def ctc_loss(frame_logprobs: Tensor | np.ndarray, target: np.ndarray) -> Tensor:
    """-log p_ctc as a differentiable scalar (composes with log_softmax)."""
    t_in = as_tensor(frame_logprobs)
    lp, target_arr, blank = _validate(t_in.data, target)
    lattice = _forward_backward(lp, target_arr, blank)
    width = lp.shape[1]

    def backward(g):
        return (g * _grad_from_lattice(width, lattice),)

    return tz._node(np.asarray(-lattice.log_prob), (t_in,), backward)


def ctc_brute_force(frame_probs: np.ndarray, target: np.ndarray) -> float:
    """p_ctc by enumerating all (V+1)^T paths; the test oracle for the DP.

    ``frame_probs`` are plain probabilities (T, V+1) with blank last.
    Collapse rule: merge consecutive repeats, then delete blanks.
    """
    probs = np.asarray(frame_probs, dtype=np.float64)
    T, width = probs.shape
    blank = width - 1
    if width**T > 10**6:
        raise NumericsError(f"brute force instance too large: {width}^{T} paths")
    wanted = tuple(int(t) for t in np.asarray(target))
    total = 0.0
    for path in itertools.product(range(width), repeat=T):
        collapsed = [k for k, _ in itertools.groupby(path) if k != blank]
        if tuple(collapsed) == wanted:
            p = 1.0
            for t, k in enumerate(path):
                p *= probs[t, k]
            total += p
    return total
