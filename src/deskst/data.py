"""Synthetic speech-translation task: generation, persistence, and batching.

Each example pairs a frame sequence with a source transcript and a target
translation. Frames are noisy one-hot encodings of the transcript tokens
(several frames per token, so frame-to-transcript alignment is monotonic);
the translation is a fixed substitution cipher applied to the *reversed*
transcript, which makes the transcript-to-translation alignment globally
non-monotonic.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ctc import min_frames_required
from .layers import pooled_length

__all__ = [
    "Vocabulary",
    "FeatureSequence",
    "TokenSequence",
    "ExamplePair",
    "Dataset",
    "Batch",
    "Batches",
    "DataError",
    "task_vocabularies",
    "generate",
    "split",
    "DataConfig",
    "batch",
    "pad_sequences",
    "save_dataset",
    "load_dataset",
]


class DataError(Exception):
    pass


@dataclass(frozen=True)
class Vocabulary:
    """Content tokens followed by the reserved <pad>, <bos>, <eos>, <blank>.

    The blank always takes the highest id.
    """

    tokens: tuple[str, ...]

    RESERVED = ("<pad>", "<bos>", "<eos>", "<blank>")

    @classmethod
    def make(cls, prefix: str, content_size: int) -> "Vocabulary":
        if content_size < 1:
            raise DataError("vocabulary needs at least one content token")
        return cls(tuple(f"{prefix}{i}" for i in range(content_size)) + cls.RESERVED)

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def content_size(self) -> int:
        return len(self.tokens) - len(self.RESERVED)

    @property
    def pad_id(self) -> int:
        return self.size - 4

    @property
    def bos_id(self) -> int:
        return self.size - 3

    @property
    def eos_id(self) -> int:
        return self.size - 2

    @property
    def blank_id(self) -> int:
        return self.size - 1

    def to_words(self, ids) -> str:
        """Render content ids as a whitespace-joined sentence."""
        return " ".join(self.tokens[i] for i in ids)


@dataclass
class FeatureSequence:
    frames: np.ndarray  # (T, F)

    @property
    def length(self) -> int:
        return self.frames.shape[0]


@dataclass
class TokenSequence:
    ids: np.ndarray

    @property
    def length(self) -> int:
        return len(self.ids)


@dataclass
class ExamplePair:
    id: int
    x: FeatureSequence
    f: TokenSequence  # transcript, source content ids
    e: TokenSequence  # translation, target content ids


@dataclass
class Dataset:
    examples: list[ExamplePair]
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    cipher: np.ndarray  # content-id permutation: e-token = cipher[f-token]
    manifest: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.examples)


def task_vocabularies(
    vocab_size: int, len_range: tuple[int, int], frames_per_token_range: tuple[int, int]
) -> tuple[Vocabulary, Vocabulary]:
    """Check generate's task arguments and return its source and target
    vocabularies. Each error message starts with the argument's name."""
    if vocab_size < 4:
        raise DataError(f"vocab_size must be at least 4, got {vocab_size}")
    if not 1 <= len_range[0] <= len_range[1]:
        raise DataError(f"len_range must satisfy 1 <= min <= max, got {len_range}")
    if not 2 <= frames_per_token_range[0] <= frames_per_token_range[1]:
        raise DataError(f"frames_per_token_range must satisfy 2 <= min <= max, got {frames_per_token_range}")
    return Vocabulary.make("s", vocab_size), Vocabulary.make("t", vocab_size)


@dataclass(frozen=True)
class DataConfig:
    """A generated corpus split into train, dev and test: generate's
    arguments and the split sizes. One seed draws and splits the corpus."""

    vocab_size: int = 12
    n_train: int = 500
    n_dev: int = 50
    n_test: int = 50
    len_min: int = 3
    len_max: int = 8
    frames_min: int = 5
    frames_max: int = 7
    noise_sigma: float = 0.3
    seed: int = 0
    task_seed: int = 0

    def vocabularies(self) -> tuple[Vocabulary, Vocabulary]:
        return task_vocabularies(self.vocab_size, (self.len_min, self.len_max), (self.frames_min, self.frames_max))

    def splits(self) -> tuple[Dataset, Dataset, Dataset]:
        total = self.n_train + self.n_dev + self.n_test
        full = generate(
            seed=self.seed,
            n_examples=total,
            vocab_size=self.vocab_size,
            len_range=(self.len_min, self.len_max),
            frames_per_token_range=(self.frames_min, self.frames_max),
            noise_sigma=self.noise_sigma,
            task_seed=self.task_seed,
        )
        train, dev, test = split(full, (self.n_train / total, self.n_dev / total, self.n_test / total), seed=self.seed)
        return train, dev, test


def generate(
    seed: int,
    n_examples: int,
    vocab_size: int,
    len_range: tuple[int, int] = (DataConfig.len_min, DataConfig.len_max),
    frames_per_token_range: tuple[int, int] = (DataConfig.frames_min, DataConfig.frames_max),
    noise_sigma: float = DataConfig.noise_sigma,
    task_seed: int = DataConfig.task_seed,
) -> Dataset:
    """Build a deterministic synthetic dataset.

    The cipher permutation depends only on (task_seed, vocab_size), so
    datasets generated with different seeds but the same task share one
    translation mapping and can serve as ASR / MT / ST corpora for the same
    task.
    """
    src_vocab, tgt_vocab = task_vocabularies(vocab_size, len_range, frames_per_token_range)
    lo, hi = len_range
    rlo, rhi = frames_per_token_range
    cipher = np.random.default_rng(task_seed).permutation(vocab_size)
    rng = np.random.default_rng(seed)
    examples = []
    for idx in range(n_examples):
        J = int(rng.integers(lo, hi + 1))
        f = rng.integers(0, vocab_size, size=J)
        reps = rng.integers(rlo, rhi + 1, size=J)
        frames = np.repeat(np.eye(vocab_size)[f], reps, axis=0)
        frames = frames + rng.normal(0.0, noise_sigma, size=frames.shape)
        e = cipher[f[::-1]]
        examples.append(
            ExamplePair(
                id=idx,
                x=FeatureSequence(frames),
                f=TokenSequence(f.astype(np.int64)),
                e=TokenSequence(e.astype(np.int64)),
            )
        )
    manifest = {
        "seed": seed,
        "task_seed": task_seed,
        "n_examples": n_examples,
        "vocab_size": vocab_size,
        "len_range": list(len_range),
        "frames_per_token_range": list(frames_per_token_range),
        "noise_sigma": noise_sigma,
        "cipher": cipher.tolist(),
    }
    return Dataset(examples, src_vocab, tgt_vocab, cipher, manifest)


def split(dataset: Dataset, fractions: tuple[float, ...], seed: int) -> list[Dataset]:
    """Disjoint, deterministic partition by shuffled assignment."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must sum to 1, got {fractions}")
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    bounds = np.floor(np.cumsum(fractions) * n + 0.5).astype(int)
    bounds[-1] = n
    parts = []
    start = 0
    for frac, end in zip(fractions, bounds):
        chosen = sorted(order[start:end])
        if frac > 0 and not chosen:
            raise DataError("split produced an empty part")
        parts.append(
            Dataset([dataset.examples[i] for i in chosen], dataset.src_vocab, dataset.tgt_vocab, dataset.cipher, dataset.manifest)
        )
        start = end
    return parts


@dataclass
class Batch:
    """Right-padded example group with each stream's (B,) lengths; padding is zero frames or pad ids."""

    ids: list[int]
    frames: np.ndarray  # (B, Tmax, F)
    frame_lengths: np.ndarray  # (B,) int64
    src: np.ndarray  # (B, Jmax) transcript ids, pad_id beyond length
    src_lengths: np.ndarray  # (B,) int64
    tgt: np.ndarray  # (B, Imax)
    tgt_lengths: np.ndarray  # (B,) int64

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass
class FilterReport:
    kept: int
    dropped_too_long: int
    dropped_ctc_infeasible: int


def pad_sequences(seqs: list[np.ndarray], fill) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad sequences along their first axis into one (B, Lmax, ...)
    array of the first sequence's dtype, plus their (B,) int64 lengths."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    padded = np.full((len(seqs), lengths.max(), *seqs[0].shape[1:]), fill, dtype=seqs[0].dtype)
    for i, s in enumerate(seqs):
        padded[i, : len(s)] = s
    return padded, lengths


def _pad_batch(examples: list[ExamplePair], pad_src: int, pad_tgt: int) -> Batch:
    frames, frame_lengths = pad_sequences([ex.x.frames for ex in examples], 0.0)
    src, src_lengths = pad_sequences([ex.f.ids for ex in examples], pad_src)
    tgt, tgt_lengths = pad_sequences([ex.e.ids for ex in examples], pad_tgt)
    return Batch([ex.id for ex in examples], frames, frame_lengths, src, src_lengths, tgt, tgt_lengths)


class Batches(Sequence):
    """Example groups that are padded into a ``Batch`` only when one is read.

    Each index or iteration step pads its group anew and keeps nothing, so a
    reader holds only the batches it keeps itself; a slice is another
    ``Batches`` over the sliced groups. Read-only, like a tuple."""

    def __init__(self, groups: list[list[ExamplePair]], pad_src: int, pad_tgt: int):
        self._groups, self._pad_src, self._pad_tgt = groups, pad_src, pad_tgt

    def __len__(self) -> int:
        return len(self._groups)

    def __getitem__(self, index: int | slice) -> Batch | Batches:
        if isinstance(index, slice):
            return Batches(self._groups[index], self._pad_src, self._pad_tgt)
        return _pad_batch(self._groups[index], self._pad_src, self._pad_tgt)


def batch(
    dataset: Dataset,
    batch_size: int,
    max_len: int | None = None,
    pool_product: int = 1,
    ctc_filter: bool = False,
    order: np.ndarray | None = None,
) -> tuple[Batches, FilterReport]:
    """Group examples into batches, filtering unusable ones.

    Examples whose transcript or translation exceeds ``max_len`` tokens are
    dropped, as are CTC-infeasible ones when ``ctc_filter`` is set: those
    whose transcript needs more frames than the pooled frame count (J plus
    one blank between adjacent repeated labels, ``ctc.min_frames_required``,
    the bound the CTC loss enforces). ``order``, a permutation of the kept
    examples' indices (else ``DataError``), optionally reorders them before
    grouping. The filter and its ``FilterReport`` run at once; the batches
    are padded lazily: each index or iteration step pads its batch anew,
    nothing is cached, and a slice stays lazy (``Batches``).
    """
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    kept: list[ExamplePair] = []
    too_long = infeasible = 0
    for ex in dataset.examples:
        if max_len is not None and (ex.f.length > max_len or ex.e.length > max_len):
            too_long += 1
            continue
        if ctc_filter:
            # A chain of ceil pools equals one ceil pool by the product.
            if min_frames_required(ex.f.ids) > pooled_length(ex.x.length, pool_product):
                infeasible += 1
                continue
        kept.append(ex)
    if not kept:
        raise DataError("no examples remain after filtering")
    if order is not None:
        order = np.asarray(order)
        n = len(kept)
        if order.shape != (n,) or order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(n)):
            raise DataError(f"order must be a permutation of the {n} kept examples' indices")
        kept = [kept[i] for i in order]
    groups = [kept[i : i + batch_size] for i in range(0, len(kept), batch_size)]
    batches = Batches(groups, dataset.src_vocab.pad_id, dataset.tgt_vocab.pad_id)
    return batches, FilterReport(len(kept), too_long, infeasible)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write one JSON record per line plus a sibling manifest file."""
    path = Path(path)
    with path.open("w") as fh:
        for ex in dataset.examples:
            fh.write(
                json.dumps(
                    {
                        "id": ex.id,
                        "frames": ex.x.frames.tolist(),
                        "transcript": ex.f.ids.tolist(),
                        "translation": ex.e.ids.tolist(),
                    }
                )
                + "\n"
            )
    path.with_suffix(".manifest.json").write_text(json.dumps(dataset.manifest, indent=2) + "\n")


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    manifest = json.loads(path.with_suffix(".manifest.json").read_text())
    src_vocab = Vocabulary.make("s", manifest["vocab_size"])
    tgt_vocab = Vocabulary.make("t", manifest["vocab_size"])
    examples = []
    with path.open() as fh:
        for line in fh:
            rec = json.loads(line)
            examples.append(
                ExamplePair(
                    id=rec["id"],
                    x=FeatureSequence(np.asarray(rec["frames"], dtype=np.float64)),
                    f=TokenSequence(np.asarray(rec["transcript"], dtype=np.int64)),
                    e=TokenSequence(np.asarray(rec["translation"], dtype=np.int64)),
                )
            )
    return Dataset(examples, src_vocab, tgt_vocab, np.asarray(manifest["cipher"]), manifest)
