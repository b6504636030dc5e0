import tracemalloc

import numpy as np
import pytest

from deskst import data
from deskst.ctc import min_frames_required
from deskst.data import DataError, Vocabulary, batch, generate, load_dataset, save_dataset, split


def test_vocabulary_reserved_layout():
    v = Vocabulary.make("s", 5)
    assert v.size == 9
    assert v.content_size == 5
    assert v.blank_id == v.size - 1  # blank is the highest id
    assert v.tokens[v.pad_id] == "<pad>"
    assert v.tokens[v.bos_id] == "<bos>"
    assert v.tokens[v.eos_id] == "<eos>"
    assert v.tokens[v.blank_id] == "<blank>"
    assert v.tokens.index("s3") == 3
    assert v.tokens[2] == "s2"
    assert v.to_words([0, 4]) == "s0 s4"


def test_generate_structure_and_cipher():
    ds = generate(seed=3, n_examples=50, vocab_size=8)
    assert len(ds) == 50
    for ex in ds.examples:
        J, I = ex.f.length, ex.e.length
        assert J == I
        assert 3 <= J <= 8
        assert ex.x.length >= 2 * J  # at least two frames per token
        assert ex.x.length > J and ex.x.length > I
        # e = cipher(reverse(f)) exactly
        assert np.array_equal(ds.cipher[ex.f.ids[::-1]], ex.e.ids)
        assert np.array_equal(np.argsort(ds.cipher)[ex.e.ids][::-1], ex.f.ids)  # the inverse cipher
        assert ex.f.ids.max() < ds.src_vocab.content_size  # no reserved ids inside


def test_generate_deterministic_and_shared_cipher():
    a = generate(seed=5, n_examples=10, vocab_size=6)
    b = generate(seed=5, n_examples=10, vocab_size=6)
    for ea, eb in zip(a.examples, b.examples):
        assert np.array_equal(ea.x.frames, eb.x.frames)
        assert np.array_equal(ea.f.ids, eb.f.ids)
    c = generate(seed=99, n_examples=10, vocab_size=6)
    assert np.array_equal(a.cipher, c.cipher)  # same task_seed -> same cipher
    d = generate(seed=5, n_examples=10, vocab_size=6, task_seed=1)
    assert not np.array_equal(a.cipher, d.cipher)


def test_generate_noiseless_frames_recover_transcript():
    ds = generate(seed=1, n_examples=5, vocab_size=6, frames_per_token_range=(2, 2), noise_sigma=0.0)
    for ex in ds.examples:
        assert ex.x.length == 2 * ex.f.length
        per_frame = ex.x.frames.argmax(axis=1)
        assert np.array_equal(per_frame[::2], ex.f.ids)
        assert np.array_equal(per_frame[1::2], ex.f.ids)


def test_generate_validation():
    with pytest.raises(DataError):
        generate(seed=0, n_examples=5, vocab_size=3)
    with pytest.raises(DataError):
        generate(seed=0, n_examples=5, vocab_size=6, frames_per_token_range=(1, 3))
    with pytest.raises(DataError):
        generate(seed=0, n_examples=5, vocab_size=6, len_range=(5, 2))


def test_an_empty_vocabulary_and_an_empty_batch_size_are_rejected():
    with pytest.raises(DataError, match="^vocabulary needs at least one content token"):
        Vocabulary.make("s", 0)
    with pytest.raises(DataError, match="^batch_size must be >= 1"):
        batch(generate(seed=0, n_examples=4, vocab_size=5), 0)


def test_split_disjoint_exhaustive_deterministic():
    ds = generate(seed=2, n_examples=40, vocab_size=6)
    train, dev, test = split(ds, (0.8, 0.1, 0.1), seed=7)
    ids = [ex.id for part in (train, dev, test) for ex in part.examples]
    assert sorted(ids) == list(range(40))
    assert len(train) == 32 and len(dev) == 4 and len(test) == 4
    train2, dev2, test2 = split(ds, (0.8, 0.1, 0.1), seed=7)
    assert [e.id for e in train.examples] == [e.id for e in train2.examples]
    all_train = split(ds, (1.0, 0.0, 0.0), seed=7)
    assert len(all_train[0]) == 40 and len(all_train[1]) == 0
    with pytest.raises(DataError):
        split(ds, (0.5, 0.2), seed=0)


def test_batch_shapes_and_masks():
    ds = generate(seed=4, n_examples=7, vocab_size=6)
    batches, report = batch(ds, 3)
    assert report.kept == 7 and report.dropped_too_long == 0
    assert [b.size for b in batches] == [3, 3, 1]
    b = batches[0]
    for i in range(b.size):
        T = int(b.frame_lengths[i])
        assert np.all(b.frames[i, T:] == 0.0)
        J = int(b.src_lengths[i])
        assert np.all(b.src[i, J:] == ds.src_vocab.pad_id)


def test_batch_filters_long_and_ctc_infeasible():
    ds = generate(seed=5, n_examples=30, vocab_size=6, len_range=(3, 8))
    _, report = batch(ds, 4, max_len=5)
    assert report.dropped_too_long > 0
    assert report.kept + report.dropped_too_long == 30
    # 2-4 frames per token with pool 3 puts examples on both sides of the
    # feasibility line min_frames_required(transcript) <= T', some only
    # through the blank that a repeated label needs; a 2J+1 <= T' rule
    # would drop every one of them
    mixed = generate(seed=5, n_examples=40, vocab_size=6, frames_per_token_range=(2, 4))
    kept_batches, report2 = batch(mixed, 4, pool_product=3, ctc_filter=True)
    assert report2.dropped_ctc_infeasible > 0 and report2.kept > 0
    kept_ids = {i for b in kept_batches for i in b.ids}
    pooled = {ex.id: -(-ex.x.length // 3) for ex in mixed.examples}
    for ex in mixed.examples:
        infeasible = min_frames_required(ex.f.ids) > pooled[ex.id]
        assert infeasible == (ex.id not in kept_ids)
    assert any(ex.f.length <= pooled[ex.id] < min_frames_required(ex.f.ids) for ex in mixed.examples)
    assert all(2 * ex.f.length + 1 > pooled[ex.id] for ex in mixed.examples)
    with pytest.raises(DataError):
        batch(ds, 4, max_len=1)


def test_dataset_roundtrip(tmp_path):
    ds = generate(seed=6, n_examples=5, vocab_size=6)
    path = tmp_path / "toy.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == len(ds)
    for a, b in zip(ds.examples, back.examples):
        assert np.array_equal(a.x.frames, b.x.frames)
        assert np.array_equal(a.f.ids, b.f.ids)
        assert np.array_equal(a.e.ids, b.e.ids)
    assert np.array_equal(back.cipher, ds.cipher)
    assert back.manifest["vocab_size"] == 6


def _arrays(b):
    return (b.frames, b.frame_lengths, b.src, b.src_lengths, b.tgt, b.tgt_lengths)


def _assert_same_batch(got, expect):
    assert got.ids == expect.ids
    for a, e in zip(_arrays(got), _arrays(expect)):
        assert a.dtype == e.dtype and np.array_equal(a, e)


def test_batches_pad_on_every_access_as_eager_padding_would():
    ds = generate(seed=7, n_examples=23, vocab_size=6)
    order = np.random.default_rng(0).permutation(23)
    batches, _ = batch(ds, 4, order=order)
    pads = (ds.src_vocab.pad_id, ds.tgt_vocab.pad_id)
    ordered = [ds.examples[i] for i in order]
    eager = [data._pad_batch(ordered[i : i + 4], *pads) for i in range(0, 23, 4)]
    assert len(batches) == len(eager) == 6
    for i in range(-len(eager), len(eager)):
        _assert_same_batch(batches[i], eager[i])
    for got, expect in zip(batches, eager, strict=True):
        _assert_same_batch(got, expect)
    for cut in (slice(1, 5), slice(None, None, 2), slice(-2, None), slice(5, 1, -2), slice(3, 3), slice(9, None)):
        part = batches[cut]
        assert isinstance(part, data.Batches) and len(part) == len(eager[cut])
        for got, expect in zip(part, eager[cut], strict=True):
            _assert_same_batch(got, expect)
    assert batches[1:][0].ids == eager[1].ids and batches[::2][1:][-1].ids == eager[4].ids
    assert batches[0] is not batches[0]  # nothing is cached
    for i in (6, -7, 100):
        with pytest.raises(IndexError):
            batches[i]
    with pytest.raises(IndexError):
        batches[2:][4]


def test_iterating_an_epoch_holds_at_most_two_padded_batches():
    ds = generate(seed=8, n_examples=512, vocab_size=12)
    largest = max(sum(a.nbytes for a in _arrays(b)) for b in batch(ds, 16)[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        batches, _ = batch(ds, 16, order=np.arange(512)[::-1])
        for b in batches:
            assert b.size == 16
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # The groups' lists and the transient padding inputs take a few KB.
    assert peak < 2 * largest + 16 * 1024, (peak, largest, len(batches))


@pytest.mark.parametrize(
    "order",
    [[0, 1, 1, 3, 4], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5], [-1, 0, 1, 2, 3], [1, 2, 3, 4, 5], [0.0, 1.0, 2.0, 3.0, 4.0],
     [[0, 1, 2, 3, 4]]],
    ids=["duplicate", "omission", "extra", "negative", "out_of_range", "float", "2d"],
)
def test_batch_order_must_permute_the_kept_examples(order):
    ds = generate(seed=9, n_examples=5, vocab_size=6)
    with pytest.raises(DataError, match="permutation"):
        batch(ds, 2, order=np.array(order))
    kept, _ = batch(ds, 2, order=[4, 0, 3, 1, 2])
    assert [b.ids for b in kept] == [[4, 0], [3, 1], [2]]
