"""Dense float64 tensors with recorded reverse-mode differentiation.

A ``Tensor`` wraps a numpy array and, while gradient recording is enabled,
remembers the operation that produced it. ``backward_graph`` replays the
recording in reverse topological order and returns gradients for the leaves
only; it drops each interior gradient once the node's backward has consumed
it, and it leaves the recording intact, so a shared subgraph of this
module's operations can be differentiated again. The three fused ops of
``layers`` (``lstm_sequence``, ``teacher_forced_decoder`` and
``greedy_rollout``) are the exception: each one's backward runs once and
frees its forward record as it returns, and a second backward through one
raises ``NumericsError``. The training path (``numerics.backward``)
differentiates each graph once and then calls ``release_graph``, which drops
every recorded parent and backward closure so the forward buffers they own
are freed while the caller keeps the values. Every operation validates that
its result is finite; a NaN/Inf is raised immediately instead of
propagating. ``check_finite`` is the same check for the arrays that the fused
ops and beam search take in or produce outside a ``Tensor``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np


class NumericsError(Exception):
    """Base error for tensor/numerics failures."""


class NonFiniteError(NumericsError):
    """An operation produced NaN or Inf."""


class ShapeError(NumericsError):
    """Operands have incompatible shapes."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


def check_finite(what: str, *arrays) -> None:
    """Raise ``NonFiniteError`` naming ``what`` unless every array or
    ``Tensor`` given holds finite values only."""
    for a in arrays:
        data = a.data if isinstance(a, Tensor) else a
        if not np.isfinite(data).all():
            raise NonFiniteError(f"non-finite {what} (shape={np.shape(data)})")


class Tensor:
    """A float64 array plus optional provenance for reverse-mode grads.

    ``parents`` and ``backward`` are populated only while recording is
    enabled. ``backward(grad_out)`` must return one gradient array (or None)
    per parent and must not mutate ``grad_out``.
    """

    __slots__ = ("data", "parents", "backward", "name")

    # Make ndarray <op> Tensor defer to the reflected Tensor operators
    # instead of numpy treating a Tensor as a 0-d object.
    __array_ufunc__ = None

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
        name: str | None = None,
    ):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values in tensor (name={name!r}, shape={arr.shape})")
        self.data = arr
        self.parents = parents
        self.backward = backward
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    # Arithmetic sugar; all defined in terms of the module-level ops.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take_slice(self, key)


def as_tensor(x) -> Tensor:
    """Wrap a value as a constant leaf (no-op for existing tensors)."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward) -> Tensor:
    if _grad_enabled:
        return Tensor(data, parents=parents, backward=backward)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / broadcasting ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), backward)


_LOG_FLOOR = 1e-300


def safe_log(a) -> Tensor:
    """log with inputs clamped to 1e-300; clamped entries get zero gradient."""
    a = as_tensor(a)
    clipped = np.maximum(a.data, _LOG_FLOOR)
    out = np.log(clipped)
    active = a.data >= _LOG_FLOOR

    def backward(g):
        return (np.where(active, g / clipped, 0.0),)

    return _node(out, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """numpy matmul semantics, including batched and vector operands."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def backward(g):
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 1:  # dot product, g scalar
            return g * bd, g * ad
        if bd.ndim == 1:  # (..., n) @ (n,) -> (...,)
            gb = (ad * g[..., None]).sum(axis=tuple(range(ad.ndim - 1)))
            return g[..., None] * bd, gb
        if ad.ndim == 1:  # (n,) @ (n, m) -> (m,); 2-D rhs only
            if bd.ndim != 2:
                raise ShapeError("matmul backward: 1-D lhs requires 2-D rhs")
            return g @ bd.T, np.outer(ad, g)
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), backward)


# ---------------------------------------------------------------------------
# reductions and shaping
# ---------------------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        ga = np.asarray(g)
        if axis is not None and not keepdims:
            ga = np.expand_dims(ga, axis)
        return (np.broadcast_to(ga, a.shape).copy(),)

    return _node(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _node(out, (a,), backward)


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, parts, backward)


def stack(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    out = np.stack([p.data for p in parts], axis=axis)

    def backward(g):
        pieces = np.split(g, len(parts), axis=axis)
        return tuple(p.reshape(parts[0].shape) for p in pieces)

    return _node(out, parts, backward)


def take_slice(a, key) -> Tensor:
    """Basic (non-fancy) indexing with gradient scatter into the source."""
    a = as_tensor(a)
    out = a.data[key]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _node(out, (a,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; gradient accumulates only into the looked-up rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"token id out of range for table of {table.shape[0]} rows")
    out = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _node(out, (table,), backward)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (out * g).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def backward(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return _node(out, (a,), backward)


def masked_softmax(a, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over positions where ``mask`` is 1; masked entries get 0.

    Every row must contain at least one valid position.
    """
    a = as_tensor(a)
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != a.shape:
        m = np.broadcast_to(m, a.shape)
    if not (m.sum(axis=axis) > 0).all():
        raise ShapeError("masked_softmax: some row has no valid positions")
    neg = np.where(m > 0, a.data, -np.inf)
    shifted = neg - neg.max(axis=axis, keepdims=True)
    e = np.where(m > 0, np.exp(shifted), 0.0)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (out * g).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (a,), backward)


def gather_last(a, ids: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading index (e.g. CE targets)."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    idx = np.expand_dims(ids, -1)
    out = np.take_along_axis(a.data, idx, axis=-1).squeeze(-1)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, idx, np.expand_dims(g, -1), axis=-1)
        return (ga,)

    return _node(out, (a,), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward_graph(loss: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar ``loss`` w.r.t. the leaves of its graph.

    Returns a map from ``id(leaf)`` to gradient array; a leaf is a ``Tensor``
    with no recorded backward, such as a parameter or a wrapped constant. An
    interior node's gradient is dropped once its backward has consumed it, so
    it has no entry. The graph is left intact, except that a fused op of
    ``layers`` frees its forward record when its backward returns, so a graph
    that holds one can be differentiated only once (``NumericsError`` from the
    op the second time). Raises if the loss is not scalar or has no recorded
    graph.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.backward is None and not loss.parents:
        raise NumericsError("loss has no recorded forward graph")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(_topo_order(loss)):
        if node.backward is None:
            continue
        g = grads.pop(id(node), None)  # complete: every consumer came earlier
        if g is None:
            continue
        parent_grads = node.backward(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            if not np.isfinite(pg).all():
                raise NonFiniteError(f"non-finite gradient flowing into {parent!r}")
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def release_graph(root: Tensor) -> None:
    """Forget the recording behind ``root``: every node it reaches keeps its
    ``data`` but loses its ``parents`` and ``backward``, and with them the
    buffers the backward closures own. Leaves are left as they are."""
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.parents)
        node.parents, node.backward = (), None
