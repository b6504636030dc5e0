"""Shared test helpers."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from deskst.numerics import ParamStore, backward
from deskst.tensor import NumericsError, no_grad
from deskst.transplant import MAGIC


class NonDeterministicLossError(NumericsError):
    """check_grads saw two unequal evaluations of the same loss."""


def store_with(seed: int = 0, **arrays: np.ndarray) -> ParamStore:
    """Build a ParamStore holding the given named arrays."""
    store = ParamStore(seed)
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        store.create(name, arr.shape, "zeros")
        store.set(name, arr)
    return store


def check_grads(loss_fn, store: ParamStore, tol: float = 1e-4, eps: float = 1e-5) -> float:
    """Compare recorded gradients against central finite differences and
    assert the largest relative error is within ``tol``; returns that error.

    ``loss_fn`` must be deterministic (dropout disabled); this is verified by
    evaluating the baseline twice. The relative error of a parameter entry is
    |g_an - g_fd| / max(1, |g_an|, |g_fd|).
    """
    base = loss_fn()
    with no_grad():
        repeat = loss_fn()
    if not np.array_equal(base.data, repeat.data):
        raise NonDeterministicLossError("loss_fn returned different values on two evaluations")
    analytic = backward(base, store)

    per_param: dict[str, float] = {}
    for name, param in store.items():
        g_an = analytic[name].reshape(-1)
        worst = 0.0
        flat = param.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                hi = loss_fn().item()
            flat[i] = orig - eps
            with no_grad():
                lo = loss_fn().item()
            flat[i] = orig
            g_fd = (hi - lo) / (2.0 * eps)
            err = abs(g_an[i] - g_fd) / max(1.0, abs(g_an[i]), abs(g_fd))
            if err > worst:
                worst = err
        per_param[name] = worst
    err = max(per_param.values(), default=0.0)
    assert err <= tol, f"gradient mismatch: {max(per_param.items(), key=lambda kv: kv[1])}"
    return err


def rewrite_header(path: Path, edit) -> None:
    """Pass a checkpoint's JSON header through ``edit`` (which changes it in
    place) and write it back in front of the unchanged payload."""
    blob = path.read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(blob[len(MAGIC) : start], "little")
    header = json.loads(blob[start:end])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + len(text).to_bytes(8, "little") + text + blob[end:])
