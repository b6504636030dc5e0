import json

import numpy as np
import pytest

from deskst import data, decode, metrics, models, training
from deskst.models import ModelConfig, build, init_store
from deskst.tensor import no_grad
from deskst.training import DivergenceError, RunRecord, TrainSchedule, train_model


def small_task(seed=0, n=40, vocab=5):
    full = data.generate(seed=seed, n_examples=n, vocab_size=vocab, len_range=(2, 3), frames_per_token_range=(5, 6), noise_sigma=0.2)
    return data.split(full, (0.8, 0.2, 0.0), seed=seed)[:2]


def small_model(train_ds, seed=0, topology="direct", **over):
    kw = dict(emb_size=6, enc_hidden=5, enc_layers=2, dec_hidden=6, attn_dim=5, pool_schedule=(2, 1))
    kw.update(over)
    cfg = ModelConfig.desk(train_ds.src_vocab, train_ds.tgt_vocab, **kw)
    graph = build(cfg, topology)
    return graph, init_store(graph, seed)


def test_zero_epochs_returns_initialization_row():
    train, dev = small_task()
    graph, store = small_model(train)
    before = store.state_dict()
    record, best = train_model(graph, store, train, dev, TrainSchedule(epochs=0, batch_size=8), seed=0)
    assert len(record.rows) == 1
    assert record.rows[0]["epoch"] == 0
    assert record.rows[0]["train"] is None
    for name, value in before.items():
        assert np.array_equal(best.values[name], value)


def test_training_is_deterministic(tmp_path):
    train, dev = small_task()
    sched = TrainSchedule(epochs=2, batch_size=8)

    def run(out):
        graph, store = small_model(train, seed=3, over_dropout=None) if False else small_model(train, seed=3)
        return train_model(graph, store, train, dev, sched, out_dir=out, seed=3)

    run(tmp_path / "a")
    run(tmp_path / "b")
    a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert a == b and len(a) > 0


def test_run_record_best_is_max_dev_bleu_ties_earliest():
    rows = [
        {"epoch": 0, "dev": {"bleu": 0.0}},
        {"epoch": 1, "dev": {"bleu": 5.0}},
        {"epoch": 2, "dev": {"bleu": 5.0}},
        {"epoch": 3, "dev": {"bleu": 2.0}},
    ]
    record = RunRecord(rows=rows)
    assert record.best_index == 1


def test_epochs_to_accuracy():
    rows = [
        {"epoch": 0, "dev": {"token_accuracy": 0.1, "bleu": 0}},
        {"epoch": 1, "dev": {"token_accuracy": 0.95, "bleu": 0}},
    ]
    assert RunRecord(rows=rows).epochs_to_accuracy(0.9) == 1
    assert RunRecord(rows=rows).epochs_to_accuracy(0.99) is None


def test_divergence_aborts_with_diagnostics(monkeypatch):
    # bounded activations and the CE clamp make organic NaNs nearly
    # impossible, so inject a non-finite failure into the forward pass
    from deskst.tensor import NonFiniteError

    train, dev = small_task()
    graph, store = small_model(train)
    calls = {"n": 0}
    real_forward = models.forward

    def failing(*args, **kwargs):
        if kwargs.get("training"):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NonFiniteError("boom")
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(models, "forward", failing)
    monkeypatch.setattr(training.models, "forward", failing)
    with pytest.raises(DivergenceError, match="step"):
        train_model(graph, store, train, dev, TrainSchedule(epochs=3, batch_size=8), seed=0)


def test_non_finite_dev_decode_aborts_as_divergence(monkeypatch):
    from deskst.tensor import NonFiniteError

    train, dev = small_task()
    graph, store = small_model(train)

    def poisoned(*args, **kwargs):
        raise NonFiniteError("non-finite output probabilities in beam search")

    monkeypatch.setattr(training, "beam_search", poisoned)
    with pytest.raises(DivergenceError, match=r"at step 0 \(epoch 0\) in dev evaluation"):
        train_model(graph, store, train, dev, TrainSchedule(epochs=1, batch_size=8), seed=0)


def test_growth_schedule_runs_and_preserves(tmp_path):
    train, dev = small_task()
    cfg = ModelConfig.desk(
        train.src_vocab, train.tgt_vocab, emb_size=6, enc_hidden=5, enc_layers=3, dec_hidden=6, attn_dim=5, pool_schedule=(2, 1, 1)
    )
    graph = build(cfg, "direct", active_enc_layers=2)
    store = init_store(graph, 0)
    sched = TrainSchedule(epochs=2, batch_size=8, growth=((2, 3),))
    record, best = train_model(graph, store, train, dev, sched, out_dir=tmp_path, seed=0)
    # the final checkpoint carries the grown stack (the best-dev snapshot may
    # legitimately predate the growth)
    from deskst import transplant

    final = transplant.load(tmp_path / record.rows[-1]["checkpoint"])
    assert final.graph.active_enc_layers == 3
    assert any(n.startswith("encoder.l2.") for n in final.values)
    # layers that existed before the growth kept training normally
    assert any(n.startswith("encoder.l0.") for n in final.values)


def test_checkpoint_files_and_best_marker(tmp_path):
    train, dev = small_task()
    graph, store = small_model(train, seed=5)
    record, best = train_model(graph, store, train, dev, TrainSchedule(epochs=2, batch_size=8), out_dir=tmp_path, seed=5)
    marker = json.loads((tmp_path / "best").read_text())
    assert (tmp_path / marker["checkpoint"]).exists()
    rows = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert len(rows) == 3  # init + 2 epochs
    assert [r["epoch"] for r in rows] == [0, 1, 2]
    assert all(r["step"] <= rows[i + 1]["step"] for i, r in enumerate(rows[:-1]))
    best_row = max(rows, key=lambda r: r["dev"]["bleu"])
    assert marker["dev_bleu"] == best_row["dev"]["bleu"]
    # best checkpoint's stored tensors match the returned best snapshot
    from deskst import transplant

    on_disk = transplant.load(tmp_path / marker["checkpoint"])
    for name, value in best.values.items():
        assert np.array_equal(on_disk.values[name], value)


def test_many2one_round_robin_trains_both_paths():
    train, dev = small_task()
    graph, store = small_model(train, topology="many2one")
    before = store.state_dict()
    record, best = train_model(graph, store, train, dev, TrainSchedule(epochs=1, batch_size=8), seed=0)
    changed_text = any(
        not np.array_equal(before[n], store[n].data) for n in store.names() if n.startswith("text_encoder.")
    )
    changed_speech = any(
        not np.array_equal(before[n], store[n].data) for n in store.names() if n.startswith("encoder.")
    )
    assert changed_text and changed_speech


def test_train_model_pads_each_kept_batch_once_per_epoch(monkeypatch):
    """Batches are padded as they are read: each epoch pads every kept train
    batch once, and counting the kept examples pads none."""
    train, dev = small_task()
    graph, store = small_model(train)
    padded, pad = [], data._pad_batch

    def counted(examples, *args):
        padded.append([ex.id for ex in examples])
        return pad(examples, *args)

    monkeypatch.setattr(data, "_pad_batch", counted)
    record, _ = train_model(graph, store, train, dev, TrainSchedule(epochs=2, batch_size=8), seed=0)
    train_ids = sorted(ex.id for ex in train.examples)
    train_pads = [ids for ids in padded if set(ids) <= set(train_ids)]
    n_batches = record.rows[-1]["train"]["n_batches"]
    assert n_batches == 4 and len(train_pads) == 2 * n_batches
    for epoch in (train_pads[:n_batches], train_pads[n_batches:]):
        assert sorted(i for ids in epoch for i in ids) == train_ids


@pytest.mark.parametrize("beam", [1, 3])
def test_decode_corpus_of_an_empty_dataset_is_empty(beam):
    train, _ = small_task()
    graph, store = small_model(train)
    empty = data.Dataset([], train.src_vocab, train.tgt_vocab, train.cipher, train.manifest)
    assert training.decode_corpus(graph, store, empty, "st", beam, 5) == []


def test_decode_corpus_batches_every_beam_like_single_utterance_search():
    train, dev = small_task()
    graph, store = small_model(train)
    got = training.decode_corpus(graph, store, dev, "st", 3, 6)
    vocab = dev.tgt_vocab
    alone = [decode.beam_decode(graph, store, ex.x.frames, 3, 6) for ex in dev.examples]
    assert got == [vocab.to_words(h.content(vocab)) for h in alone]


def _evaluate_encoding_per_pass(graph, store, dev, schedule):
    """evaluate_model as it was before its passes shared encodings: forward on
    the filtered batches, then decodes that encode their own batches."""
    task = decode.default_direction(graph.topology)
    cfg = graph.config
    batches, _ = data.batch(dev, 32, max_len=schedule.max_len, pool_product=cfg.pool_product, ctc_filter=cfg.ctc_enabled)
    hits = steps = 0
    loss_sum = 0.0
    with no_grad():
        for b in batches:
            parts = models.forward(graph, store, b)
            h, s = parts.token_hits[task]
            hits, steps, loss_sum = hits + h, steps + s, loss_sum + parts.combined.item()
    max_len = 2 * max(ex.e.length for ex in dev.examples) + 2
    hyps = training.decode_corpus(graph, store, dev, task, schedule.dev_beam, max_len, schedule.len_norm)
    refs = training.output_side(dev, task)[1]
    out = {
        "token_accuracy": round(hits / steps, 6),
        "loss_per_token": round(loss_sum / steps, 6),
        "bleu": round(metrics.bleu(hyps, refs), 4),
        "ter": round(metrics.ter(hyps, refs), 4),
    }
    if "decoder_asr." in graph.component_prefixes():
        asr_hyps = hyps if task == "asr" else training.decode_corpus(graph, store, dev, "asr", 1, max_len)
        out["wer"] = round(metrics.wer(asr_hyps, training.output_side(dev, "asr")[1]), 4)
    return out


@pytest.mark.parametrize(
    "topology, ctc, adapter, schedule",
    [
        ("direct", True, True, TrainSchedule()),
        ("asr", True, False, TrainSchedule(dev_beam=3)),
        ("mt", False, False, TrainSchedule()),
        ("one2many", True, False, TrainSchedule()),
        ("many2one", True, False, TrainSchedule()),
        ("tied_cascade", True, False, TrainSchedule()),
        ("tied_triangle", False, True, TrainSchedule()),
        ("one2many", True, False, TrainSchedule(max_len=2)),  # the filter drops the 3-token examples
        ("tied_triangle", True, False, TrainSchedule(max_len=2)),
        ("tied_cascade", False, True, TrainSchedule()),
    ],
    ids=[
        "direct", "asr", "mt", "one2many", "many2one", "tied_cascade", "tied_triangle", "one2many_filtered",
        "tied_triangle_filtered", "tied_cascade_adapter",
    ],
)
def test_evaluate_model_scores_as_passes_that_encode_for_themselves(topology, ctc, adapter, schedule):
    train, dev = small_task()
    graph = build(small_model(train, topology=topology, ctc_enabled=ctc)[0].config, topology, adapter=adapter)
    store = init_store(graph, 2)
    kept = data.batch(dev, 32, max_len=schedule.max_len, pool_product=2, ctc_filter=ctc)[1].kept
    assert (kept < len(dev)) == (schedule.max_len == 2)
    assert training.evaluate_model(graph, store, dev, schedule) == _evaluate_encoding_per_pass(graph, store, dev, schedule)


@pytest.mark.parametrize("max_len", [None, 2])
def test_evaluate_model_encodes_each_dev_batch_once(monkeypatch, max_len):
    """One encoding per dev batch; when the filter drops examples (max_len
    2), the st and asr decodes share one encoding of the unfiltered batches."""
    train, dev = small_task(n=200)
    graph, store = small_model(train, topology="one2many", ctc_enabled=True)
    decoded = len(training.decode_batches(dev))
    filtered = len(data.batch(dev, 32, max_len=max_len, pool_product=2, ctc_filter=True)[0])
    assert decoded == 2 and filtered == (1 if max_len else 2)
    calls = []
    encode = models.encode

    def counted(*args, **kwargs):
        calls.append(args[2])
        return encode(*args, **kwargs)

    monkeypatch.setattr(models, "encode", counted)
    for _ in range(2):
        calls.clear()
        training.evaluate_model(graph, store, dev, TrainSchedule(max_len=max_len))
        assert len(calls) == (filtered + decoded if max_len else decoded)


@pytest.mark.parametrize("max_len", [None, 2])
@pytest.mark.parametrize("topology", ["tied_cascade", "tied_triangle", "one2many"])
def test_evaluate_model_rolls_out_decoder_asr_once_per_dev_batch(monkeypatch, topology, max_len):
    """On the tied topologies, one rollout per decode batch serves the dev
    loss, the st decode and WER, with no asr decode; when the filter drops
    examples (max_len 2), each loss batch rolls out for itself as well.
    one2many has no rollout and decodes asr for WER."""
    train, dev = small_task(n=200)
    graph, store = small_model(train, topology=topology, ctc_enabled=True)
    decoded = len(training.decode_batches(dev))
    filtered = len(data.batch(dev, 32, max_len=max_len, pool_product=2, ctc_filter=True)[0])
    assert decoded == 2 and filtered == (1 if max_len else 2)
    rollouts, directions = [], []
    rollout, decode_corpus = models.run_decoder_greedy_rollout, training.decode_corpus

    def counted_rollout(*args, **kwargs):
        rollouts.append(args[4])
        return rollout(*args, **kwargs)

    def counted_decode(*args, **kwargs):
        directions.append(args[3])
        return decode_corpus(*args, **kwargs)

    monkeypatch.setattr(models, "run_decoder_greedy_rollout", counted_rollout)
    monkeypatch.setattr(training, "decode_corpus", counted_decode)
    training.evaluate_model(graph, store, dev, TrainSchedule(max_len=max_len))
    if topology == "one2many":
        assert rollouts == [] and directions == ["st", "asr"]
    else:
        assert len(rollouts) == decoded + (filtered if max_len else 0)
        assert directions == ["st"]


def test_decode_corpus_rejects_encodings_of_other_batches():
    train, dev = small_task(n=200)
    graph, store = small_model(train)
    batches = training.decode_batches(dev)
    with no_grad():
        encodings = [models.encode(graph, store, b, "speech") for b in batches]
    with pytest.raises(models.EncodingMismatchError, match="1 encodings for 2 decode batches"):
        training.decode_corpus(graph, store, dev, "st", 1, 6, encodings=encodings[:1])
    with pytest.raises(models.EncodingMismatchError):
        training.decode_corpus(graph, store, dev, "st", 1, 6, encodings=encodings[::-1])
    shared = training.decode_corpus(graph, store, dev, "st", 1, 6, encodings=encodings)
    assert shared == training.decode_corpus(graph, store, dev, "st", 1, 6)
