import json

import numpy as np
import pytest

from deskst import cli, data, decode, transplant

TINY_DATA = ["--data.n_train", "4", "--data.n_dev", "2", "--data.n_test", "3", "--data.len_max", "3"]
TINY_MODEL = {
    "model.emb_size": "4",
    "model.enc_hidden": "4",
    "model.enc_layers": "1",
    "model.dec_hidden": "4",
    "model.attn_dim": "4",
    "model.pool_schedule": "2",
}


def tiny_config(**over):
    cfg = dict(cli.DEFAULTS, **TINY_MODEL)
    cfg.update(zip((k[2:] for k in TINY_DATA[::2]), TINY_DATA[1::2]))
    cfg.update(over)
    return cfg


def checkpoint(tmp_path, topology):
    """A freshly initialized checkpoint of the CLI's tiny-data vocabulary."""
    cfg = tiny_config(**{"model.topology": topology})
    _, _, _, graph, store, _ = cli.initialize_run(cfg)
    path = tmp_path / f"{topology}.ckpt"
    transplant.save(graph, store, path)
    return path


def run_eval(tmp_path, ckpt, *flags):
    return cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval"), *TINY_DATA, *flags])


def test_eval_runs_and_writes_its_report(tmp_path, capsys):
    assert run_eval(tmp_path, checkpoint(tmp_path, "direct"), "--beam", "3", "--eval.max_len", "4") == cli.EXIT_OK
    report = json.loads((tmp_path / "eval" / "eval_test.json").read_text())
    assert report["beam"] == 3 and report["task"] == "st"
    assert len((tmp_path / "eval" / "hyps_test.txt").read_text().splitlines()) == 3


@pytest.mark.parametrize("beam", ["0", "-2"])
def test_eval_rejects_a_beam_below_one(tmp_path, capsys, beam):
    assert run_eval(tmp_path, checkpoint(tmp_path, "direct"), "--beam", beam) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: eval.beam must be >= 1")


def test_eval_rejects_a_negative_max_len_before_decoding(tmp_path, capsys, monkeypatch):
    def no_decoding(*args, **kwargs):
        raise AssertionError("decoded before the configuration was checked")

    monkeypatch.setattr(decode, "beam_search", no_decoding)
    assert run_eval(tmp_path, checkpoint(tmp_path, "direct"), "--eval.max_len", "-3") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: eval.max_len must be >= 0") and err.endswith("got -3\n") and err.count("\n") == 1
    assert not (tmp_path / "eval").exists()


def test_eval_rejects_a_direction_the_topology_cannot_decode(tmp_path, capsys):
    assert run_eval(tmp_path, checkpoint(tmp_path, "direct"), "--eval.direction", "mt") == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: topology 'direct' does not decode direction 'mt'")


def test_eval_rejects_an_empty_split(tmp_path, capsys):
    assert run_eval(tmp_path, checkpoint(tmp_path, "direct"), "--data.n_test", "0") == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: eval.split 'test' has no examples to score")
    assert not (tmp_path / "eval").exists()


def test_cascade_eval_uses_the_configured_len_norm_and_batches(tmp_path, monkeypatch):
    calls = []
    search = decode.beam_search

    def recording_search(graph, store, batch, beam, max_len, len_norm=0.6, direction=None):
        calls.append((direction, batch.size, len_norm))
        return search(graph, store, batch, beam, max_len, len_norm, direction)

    monkeypatch.setattr(decode, "beam_search", recording_search)
    asr, mt = checkpoint(tmp_path, "asr"), checkpoint(tmp_path, "mt")
    code = run_eval(tmp_path, asr, "--mt-checkpoint", str(mt), "--beam", "2", "--eval.len_norm", "1.5", "--eval.max_len", "4")
    assert code == cli.EXIT_OK
    assert calls[0] == ("asr", 3, 1.5)  # the whole split in one ASR search
    assert all(d == "mt" and n <= 3 and a == 1.5 for d, n, a in calls[1:])
    assert len((tmp_path / "eval" / "hyps_test.txt").read_text().splitlines()) == 3


@pytest.mark.parametrize("topology", ["asr", "mt"])
def test_train_rejects_an_adapter_the_topology_has_no_position_for(tmp_path, capsys, topology):
    model = [arg for key, value in TINY_MODEL.items() for arg in (f"--{key}", value)]
    flags = ["--model.topology", topology, "--transplant.adapter", "on", "--train.epochs", "1"]
    assert cli.main(["train", "--out", str(tmp_path / "run"), *TINY_DATA, *model, *flags]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: topology '{topology}' has no adapter position")
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("train.eval_every", "0", "train.eval_every must be >= 1"),
        ("model.pool_schedule", "2,x,1", "model.pool_schedule must be comma-separated integers"),
        ("train.growth", "2", "train.growth must be epoch:layers steps"),
        ("train.growth", "2:3", "train.growth must start with 0:N"),
        ("train.growth", "0:2,2:2", "train.growth epochs and layer counts must strictly increase"),
        ("train.growth", "0:1,3:2,3:3", "train.growth epochs and layer counts must strictly increase"),
        ("train.growth", "0:0,2:1", "train.growth layer counts must lie in [1, model.enc_layers]"),
        ("train.growth", "0:2,2:4", "train.growth layer counts must lie in [1, model.enc_layers]"),
    ],
)
def test_train_rejects_a_malformed_value_before_generating_data(tmp_path, capsys, monkeypatch, key, value, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the configuration was checked")

    monkeypatch.setattr(cli.data_mod, "generate", no_data)
    assert cli.main(["train", "--out", str(tmp_path / "run"), f"--{key}", value]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.endswith(f"got {value!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["ON", "True", "YES", "1"])
def test_compare_labels_a_flag_as_training_reads_it(value):
    cfg = {"model.topology": "direct", "model.ctc": value, "transplant.adapter": value}
    assert cli._run_label(cfg) == "direct +CTC +adapter"


def test_cli_end_to_end(tmp_path, capsys, monkeypatch):
    model = [arg for key, value in TINY_MODEL.items() for arg in (f"--{key}", value)]
    common = [*TINY_DATA, *model, "--train.epochs", "2"]
    ctc_run, grown_run = tmp_path / "ctc", tmp_path / "grown"
    assert cli.main(["train", "--out", str(ctc_run), *common, "--model.ctc", "ON"]) == cli.EXIT_OK
    deeper = ["--model.enc_layers", "2", "--model.pool_schedule", "2,1", "--train.growth", "0:1,2:2"]
    assert cli.main(["train", "--out", str(grown_run), *common, *deeper]) == cli.EXIT_OK
    last = json.loads((grown_run / "metrics.jsonl").read_text().splitlines()[-1])["checkpoint"]
    assert transplant.load(grown_run / last).graph.active_enc_layers == 2
    assert transplant.load(ctc_run / "ckpt-0").graph.config.ctc_enabled

    restored = []
    restore = transplant.restore
    monkeypatch.setattr(transplant, "restore", lambda path: restored.append(path) or restore(path))
    assert cli.main(["eval", "--run", str(ctc_run), "--beam", "2"]) == cli.EXIT_OK
    assert restored == [ctc_run / json.loads((ctc_run / "best").read_text())["checkpoint"]]
    assert json.loads((ctc_run / "eval_test.json").read_text())["task"] == "st"

    assert cli.main(["compare", str(ctc_run), str(grown_run), "--out", str(tmp_path / "cmp")]) == cli.EXIT_OK
    table = json.loads((tmp_path / "cmp" / "compare.json").read_text())
    assert [(row["method"], row["n_seeds"]) for row in table] == [("direct +CTC", 1), ("direct", 1)]
    assert table[0]["test_bleu"] is not None and table[1]["test_bleu"] is None

    donor = ctc_run / json.loads((ctc_run / "best").read_text())["checkpoint"]
    out = tmp_path / "init.ckpt"
    flags = ["--scheme", "asr_enc", "--transplant.asr_checkpoint", str(donor), "--out", str(out)]
    assert cli.main(["transplant", *TINY_DATA, *model, *flags]) == cli.EXIT_OK
    report = json.loads((tmp_path / "init.ckpt.report.json").read_text())
    assert report["grafted"] and all(name.startswith("encoder.") for name in report["grafted"])


def test_generate_data_writes_the_splits_load_dataset_reads_back(tmp_path, capsys):
    assert cli.main(["generate-data", "--out", str(tmp_path), *TINY_DATA]) == cli.EXIT_OK
    for name, split in zip(("train", "dev", "test"), cli.build_dataset(tiny_config())):
        back = data.load_dataset(tmp_path / f"{name}.jsonl")
        assert (back.src_vocab, back.tgt_vocab) == (split.src_vocab, split.tgt_vocab)
        assert np.array_equal(back.cipher, split.cipher)
        assert [ex.id for ex in back.examples] == [ex.id for ex in split.examples]
        for a, b in zip(back.examples, split.examples):
            assert np.array_equal(a.x.frames, b.x.frames)
            assert np.array_equal(a.f.ids, b.f.ids) and np.array_equal(a.e.ids, b.e.ids)


def test_unknown_key_exits_2(tmp_path, capsys):
    assert cli.main(["train", "--out", str(tmp_path / "run"), *TINY_DATA, "--model.bogus", "1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: unknown config key 'model.bogus'")


@pytest.mark.filterwarnings("ignore::deskst.layers.SmoothingClampWarning")
def test_divergence_exits_3(tmp_path, capsys):
    model = [arg for key, value in TINY_MODEL.items() for arg in (f"--{key}", value)]
    flags = ["--train.lr", "1e300", "--train.epochs", "1"]
    with np.errstate(all="ignore"):  # the overflow is the point
        assert cli.main(["train", "--out", str(tmp_path / "run"), *TINY_DATA, *model, *flags]) == cli.EXIT_DIVERGENCE
    assert capsys.readouterr().err.startswith("error: non-finite value at step")


def test_truncated_checkpoint_exits_4(tmp_path, capsys):
    ckpt = checkpoint(tmp_path, "direct")
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2])
    assert run_eval(tmp_path, ckpt) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: payload is ") and "bytes but header describes" in err


def test_non_finite_checkpoint_exits_4(tmp_path, capsys):
    ckpt = checkpoint(tmp_path, "direct")
    ckpt.write_bytes(ckpt.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    assert run_eval(tmp_path, ckpt) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: parameter ")
    assert not (tmp_path / "eval").exists()
