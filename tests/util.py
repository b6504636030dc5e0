"""Shared test helpers."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from deskst.numerics import ParamStore, grad_check
from deskst.transplant import MAGIC


def store_with(seed: int = 0, **arrays: np.ndarray) -> ParamStore:
    """Build a ParamStore holding the given named arrays."""
    store = ParamStore(seed)
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        store.create(name, arr.shape, "zeros")
        store.set(name, arr)
    return store


def check_grads(loss_fn, store: ParamStore, tol: float = 1e-4, eps: float = 1e-5) -> float:
    """Run grad_check and assert the max relative error is within tol."""
    report = grad_check(loss_fn, store, eps=eps)
    err = report.max_rel_error
    assert err <= tol, f"gradient mismatch: {report.worst()}"
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
