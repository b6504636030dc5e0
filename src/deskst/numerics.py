"""Parameter storage, gradient plumbing, Adam, and plateau LR decay."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .tensor import (
    NonFiniteError,
    NumericsError,
    ShapeError,
    Tensor,
    backward_graph,
    release_graph,
)

__all__ = [
    "ParamStore",
    "OptimizerState",
    "LrSchedule",
    "seeded_init",
    "rng_for",
    "backward",
    "adam_step",
    "plateau_update",
]


def rng_for(seed: int, name: str) -> np.random.Generator:
    """An RNG stream keyed by (seed, name).

    Streams depend only on the key, not on creation order, so the same
    parameter name initializes identically across model topologies.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *words])))


def seeded_init(shape: tuple[int, ...], scheme: str, rng: np.random.Generator) -> Tensor:
    """Draw an initial tensor: 'zeros' or 'uniform-fanin' (±1/sqrt(fan_in))."""
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeError(f"zero-extent shape {shape}")
    if scheme == "zeros":
        return Tensor(np.zeros(shape))
    if scheme == "uniform-fanin":
        bound = 1.0 / np.sqrt(shape[0])
        return Tensor(rng.uniform(-bound, bound, size=shape))
    raise ValueError(f"unknown init scheme {scheme!r}")


class ParamStore:
    """Named trainable tensors with deterministic, name-keyed initialization."""

    def __init__(self, rng_seed: int = 0):
        self.rng_seed = rng_seed
        self._entries: dict[str, Tensor] = {}

    def create(self, name: str, shape: tuple[int, ...], scheme: str = "uniform-fanin") -> Tensor:
        if name in self._entries:
            raise KeyError(f"parameter {name!r} already exists")
        t = seeded_init(shape, scheme, rng_for(self.rng_seed, name))
        t.name = name
        self._entries[name] = t
        return t

    def set(self, name: str, values: np.ndarray) -> None:
        """Replace a parameter's values in place (shape must match)."""
        t = self._entries[name]
        values = np.asarray(values, dtype=np.float64)
        if values.shape != t.data.shape:
            raise ShapeError(f"{name}: cannot assign shape {values.shape} to {t.data.shape}")
        if not np.isfinite(values).all():
            raise NonFiniteError(f"non-finite assignment to {name}")
        t.data = values.copy()

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._entries.items()}


def backward(loss: Tensor, store: ParamStore) -> dict[str, np.ndarray]:
    """Gradient of a recorded scalar loss for every parameter in the store.

    Parameters that did not participate in the forward computation map to
    zero gradients. ``backward_graph`` returns the leaves' gradients only
    (each interior one is dropped once consumed), and the parameters are
    leaves. The graph is differentiated once and then released: the loss
    and every interior node keep their values but lose their recorded
    parents and backward closures, so the forward buffers are freed when
    this returns. A second call on the same loss raises ``NumericsError``.
    """
    grads = backward_graph(loss)
    release_graph(loss)
    out: dict[str, np.ndarray] = {}
    for name, param in store.items():
        g = grads.get(id(param))
        out[name] = g if g is not None else np.zeros_like(param.data)
    return out


@dataclass
class OptimizerState:
    """Adam moments keyed by parameter name, plus the step counter and LR."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def ensure(self, store: ParamStore) -> None:
        """Allocate zero moments for any store parameter not yet tracked."""
        for name, param in store.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(param.data)
                self.v[name] = np.zeros_like(param.data)


def adam_step(store: ParamStore, grads: dict[str, np.ndarray], opt: OptimizerState) -> None:
    """One Adam update with bias correction; mutates store and opt in place."""
    if set(grads) != set(store.names()):
        missing = set(store.names()) ^ set(grads)
        raise NumericsError(f"gradient names do not match store parameters: {sorted(missing)[:4]}")
    opt.ensure(store)
    opt.step += 1
    t = opt.step
    b1, b2 = opt.beta1, opt.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, param in store.items():
        g = grads[name]
        if g.shape != param.data.shape:
            raise ShapeError(f"{name}: gradient shape {g.shape} != parameter shape {param.data.shape}")
        m = opt.m[name]
        v = opt.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = opt.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + opt.eps)
        if not np.isfinite(update).all():
            raise NonFiniteError(f"non-finite Adam update for {name}")
        param.data = param.data - update


@dataclass
class LrSchedule:
    """Plateau decay: shrink the LR after `patience` non-improving checkpoints."""

    lr: float
    decay_factor: float = 0.9
    patience: int = 6
    best_score: float = -np.inf
    stale_count: int = 0


def plateau_update(sched: LrSchedule, dev_score: float) -> float:
    """Record a dev score (higher is better) and return the possibly-decayed LR."""
    if dev_score > sched.best_score:
        sched.best_score = dev_score
        sched.stale_count = 0
    else:
        sched.stale_count += 1
        if sched.stale_count >= sched.patience:
            sched.lr *= sched.decay_factor
            sched.stale_count = 0
    return sched.lr
