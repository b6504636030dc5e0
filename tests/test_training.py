import json

import numpy as np
import pytest

from deskst import data, decode, models, training
from deskst.models import ModelConfig, build, init_store
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
