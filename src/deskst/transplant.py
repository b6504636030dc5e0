"""Checkpoint persistence and pre-trained-component transplant.

A checkpoint is a self-describing binary file: a magic line, a JSON header
(format version, topology, config snapshot, dev-score history, tensor index)
and the raw little-endian float64 tensor payload in header order. Writes are
atomic (temp file + rename) and round-trip bit-exactly.

A transplant scheme copies named parameter groups from donor checkpoints
into a freshly initialized target store. Grafted tensors must match shapes
exactly; embedding and output-layer tensors are the one exception (they stay
freshly initialized when vocabulary sizes differ). A failed scheme leaves
the target store untouched.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import models
from .models import ModelConfig, ModelGraph
from .numerics import ParamStore
from .tensor import NumericsError

__all__ = [
    "CheckpointError",
    "CorruptCheckpointError",
    "VersionMismatchError",
    "TransplantError",
    "Checkpoint",
    "Graft",
    "TransplantScheme",
    "TransplantReport",
    "SCHEME_NAMES",
    "save",
    "load",
    "restore",
    "resolve_scheme",
    "apply_transplant",
]

MAGIC = b"DESKST-CKPT\n"
FORMAT_VERSION = 1

# Tensor payload is little-endian float64, row-major, in header order.
_DTYPE = np.dtype("<f8")


class CheckpointError(Exception):
    pass


class CorruptCheckpointError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TransplantError(Exception):
    pass


@dataclass
class Checkpoint:
    graph: ModelGraph
    values: dict[str, np.ndarray]
    dev_history: list[dict]
    seed: int

    def to_store(self) -> ParamStore:
        store = models.init_store(self.graph, self.seed)
        for name, value in self.values.items():
            store.set(name, value)
        return store


def _header_dict(graph: ModelGraph, store: ParamStore, dev_history: list[dict] | None) -> dict:
    return {
        "version": FORMAT_VERSION,
        "topology": graph.topology,
        "config": dataclasses.asdict(graph.config),
        "active_enc_layers": graph.active_enc_layers,
        "adapter_position": graph.adapter_position,
        "seed": store.rng_seed,
        "dev_history": dev_history or [],
        "optimizer": None,
        "params": [{"name": n, "shape": list(store[n].shape)} for n in sorted(store.names())],
    }


def save(graph: ModelGraph, store: ParamStore, path: str | Path, dev_history: list[dict] | None = None) -> None:
    """Write a checkpoint atomically (write temp, then rename)."""
    if set(store.names()) != set(graph.shapes):
        missing = set(graph.shapes) ^ set(store.names())
        raise CheckpointError(f"store does not match graph manifest: {sorted(missing)[:4]}")
    path = Path(path)
    header = json.dumps(_header_dict(graph, store, dev_history), sort_keys=True, separators=(",", ":")).encode()
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for name in sorted(store.names()):
            fh.write(np.ascontiguousarray(store[name].data, dtype=_DTYPE).tobytes())
    os.replace(tmp, path)


def _graph_from_header(header: dict) -> ModelGraph:
    """The graph a header describes; KeyError, TypeError or NumericsError
    when it describes none. The stored adapter position must be the
    topology's own."""
    config = ModelConfig(**{**header["config"], "pool_schedule": tuple(header["config"]["pool_schedule"])})
    position = header["adapter_position"]
    graph = models.build(config, header["topology"], header["active_enc_layers"], adapter=position is not None)
    if graph.adapter_position != position:
        raise NumericsError(f"adapter position {position!r} is not topology {graph.topology!r}'s")
    return graph


def load(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint; bit-exact inverse of save."""
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        raise CorruptCheckpointError(f"{path}: bad magic")
    offset = len(MAGIC)
    header_len = int.from_bytes(blob[offset : offset + 8], "little")
    offset += 8
    try:
        header = json.loads(blob[offset : offset + header_len])
    except ValueError as exc:  # JSONDecodeError, or bytes in no encoding JSON allows
        raise CorruptCheckpointError(f"{path}: unreadable header ({exc})") from exc
    offset += header_len
    if not isinstance(header, dict):
        raise CorruptCheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format version {header.get('version')} != {FORMAT_VERSION}")
    try:
        graph = _graph_from_header(header)
        index = [(p["name"], tuple(p["shape"])) for p in header["params"]]
        if not all(isinstance(name, str) and all(type(n) is int and n >= 0 for n in shape) for name, shape in index):
            raise NumericsError("a tensor index entry is not a name with a shape of non-negative integers")
        dev_history, seed = header["dev_history"], header["seed"]
        if type(seed) is not int or seed < 0:  # a JSON true is a bool, not a seed
            raise NumericsError(f"seed must be a non-negative integer, got {seed!r}")
        expected = sum(int(np.prod(shape)) for _, shape in index) * _DTYPE.itemsize
    except KeyError as exc:
        raise CorruptCheckpointError(f"{path}: header lacks key {exc}") from exc
    except (TypeError, NumericsError) as exc:
        raise CorruptCheckpointError(f"{path}: header describes no valid model ({exc})") from exc
    if len(blob) - offset != expected:
        raise CorruptCheckpointError(
            f"{path}: payload is {len(blob) - offset} bytes but header describes {expected}"
        )
    values: dict[str, np.ndarray] = {}
    for name, shape in index:
        n = int(np.prod(shape))
        values[name] = np.frombuffer(blob, dtype=_DTYPE, count=n, offset=offset).reshape(shape).copy()
        offset += n * _DTYPE.itemsize
        if not np.isfinite(values[name]).all():
            raise CorruptCheckpointError(f"{path}: parameter {name} holds a non-finite value")
    if set(values) != set(graph.shapes) or any(values[n].shape != graph.shapes[n] for n in values):
        raise CorruptCheckpointError(f"{path}: tensor index does not match the rebuilt graph")
    return Checkpoint(graph=graph, values=values, dev_history=dev_history, seed=seed)


def restore(path: str | Path) -> tuple[ModelGraph, ParamStore]:
    ckpt = load(path)
    return ckpt.graph, ckpt.to_store()


# ---------------------------------------------------------------------------
# transplant schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graft:
    checkpoint: Checkpoint
    source_prefix: str
    target_prefix: str


@dataclass
class TransplantScheme:
    grafts: list[Graft]

    def __post_init__(self):
        targets = [g.target_prefix for g in self.grafts]
        if len(set(targets)) != len(targets):
            raise TransplantError(f"target prefixes must be disjoint, got {targets}")


@dataclass
class TransplantReport:
    grafted: list[str] = field(default_factory=list)
    fresh: list[str] = field(default_factory=list)
    reinitialized: list[str] = field(default_factory=list)  # vocab-flexible tensors left fresh
    unused_source: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"grafted {len(self.grafted)}, fresh {len(self.fresh)}, "
            f"reinitialized {len(self.reinitialized)}, unused source {len(self.unused_source)}"
        )


SCHEME_NAMES = (
    "none",
    "asr_enc",
    "mt_dec",
    "asr_enc+asr_dec",
    "asr_enc+mt_dec",
    "asr_enc+asr_dec+mt_dec",
    "asr_enc+mt_enc+mt_dec",
)


# Each scheme component's donor tensors and where they land: (source prefix,
# target prefix). None: the ASR decoder wherever the topology has one, else
# the ST decoder.
_COMPONENTS = {
    "asr_enc": ("encoder.", "encoder."),
    "asr_dec": ("decoder_asr.", None),
    "mt_enc": ("text_encoder.", "text_encoder."),
    "mt_dec": ("decoder_st.", "decoder_st."),
}


def resolve_scheme(
    name: str,
    topology: str,
    asr_checkpoint: Checkpoint | None = None,
    mt_checkpoint: Checkpoint | None = None,
) -> TransplantScheme:
    """Turn a named pre-training scheme into concrete grafts for a topology.

    asr_dec lands on the ASR decoder wherever the topology's ``WIRING`` has
    one, and on the ST decoder otherwise (cross-language decoder
    pre-training: direct, mt, many2one).
    """
    if name not in SCHEME_NAMES:
        raise TransplantError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")
    grafts: list[Graft] = []
    for part in [] if name == "none" else name.split("+"):
        task = part.split("_")[0]
        donor = asr_checkpoint if task == "asr" else mt_checkpoint
        if donor is None:
            raise TransplantError(f"scheme {name!r} needs an {task.upper()} checkpoint")
        source, target = _COMPONENTS[part]
        if target is None:
            decoders = {head.decoder for route in models.WIRING[topology].routes for head in route.heads}
            target = "decoder_asr." if "decoder_asr" in decoders else "decoder_st."
        grafts.append(Graft(donor, source, target))
    return TransplantScheme(grafts=grafts)


_FLEX_LEAVES = ("emb", "out.w", "out.b")  # vocabulary-sized tensors may differ


def _is_flex(name: str) -> bool:
    return any(name.endswith("." + leaf) for leaf in _FLEX_LEAVES)


def apply_transplant(
    target_graph: ModelGraph, target_store: ParamStore, scheme: TransplantScheme
) -> TransplantReport:
    """Copy grafted tensors bit-exactly into the target store.

    All copies are staged first; any non-flexible shape mismatch rejects the
    whole scheme atomically, leaving the store unchanged.
    """
    staged: dict[str, np.ndarray] = {}
    report = TransplantReport()
    for graft in scheme.grafts:
        tgt_names = [n for n in target_store.names() if n.startswith(graft.target_prefix)]
        if not tgt_names:
            raise TransplantError(
                f"target prefix {graft.target_prefix!r} resolves to no parameters in a "
                f"{target_graph.topology!r} graph"
            )
        if graft.target_prefix == "adapter.":
            raise TransplantError("the adapter is always freshly initialized, never grafted")
        src_names = {n for n in graft.checkpoint.values if n.startswith(graft.source_prefix)}
        if not src_names:
            raise TransplantError(
                f"source prefix {graft.source_prefix!r} not found in donor "
                f"({graft.checkpoint.graph.topology} checkpoint)"
            )
        matched_sources = set()
        for tgt in tgt_names:
            src = graft.source_prefix + tgt[len(graft.target_prefix) :]
            if src not in graft.checkpoint.values:
                report.fresh.append(tgt)
                continue
            matched_sources.add(src)
            value = graft.checkpoint.values[src]
            if value.shape == target_store[tgt].shape:
                staged[tgt] = value
                report.grafted.append(tgt)
            elif _is_flex(tgt):
                report.reinitialized.append(tgt)
            else:
                raise TransplantError(
                    f"shape mismatch grafting {src} {value.shape} -> {tgt} "
                    f"{target_store[tgt].shape}; scheme rejected"
                )
        report.unused_source.extend(sorted(src_names - matched_sources))
    for name in target_store.names():
        if not any(name.startswith(g.target_prefix) for g in scheme.grafts):
            report.fresh.append(name)
    for name, value in staged.items():
        target_store.set(name, value)
    return report

