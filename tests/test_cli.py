import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deskst import cli, data, decode, training, transplant

from util import rewrite_header

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


def checkpoint(tmp_path, topology, **over):
    """A freshly initialized checkpoint of the CLI's tiny-data vocabulary,
    or of the configuration that the keys in ``over`` change."""
    cfg = tiny_config(**{"model.topology": topology, **over})
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
    assert err.startswith("error: eval.max_len must be >= 0") and err.endswith("got '-3'\n") and err.count("\n") == 1
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


def test_cascade_eval_rejects_an_mt_checkpoint_of_another_vocabulary_before_decoding(tmp_path, capsys, monkeypatch):
    def no_decoding(*args, **kwargs):
        raise AssertionError("decoded before the MT checkpoint was checked")

    monkeypatch.setattr(decode, "beam_search", no_decoding)
    asr, mt = checkpoint(tmp_path, "asr"), checkpoint(tmp_path, "mt", **{"data.vocab_size": "10"})
    assert run_eval(tmp_path, asr, "--mt-checkpoint", str(mt)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: vocabulary mismatch: MT checkpoint (14/14) vs dataset") and err.count("\n") == 1
    assert not (tmp_path / "eval").exists()


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
        ("model.dropout", "1.5", "model.dropout must be in [0, 1)"),
        ("model.label_smoothing", "1.5", "model.label_smoothing must be in [0, 1)"),
        ("model.enc_hidden", "0", "model.enc_hidden must be >= 1"),
        ("model.attn_dim", "-1", "model.attn_dim must be >= 1"),
        ("model.dec_layers", "0", "model.dec_layers must be >= 1"),
        ("data.noise_sigma", "-1", "data.noise_sigma must be finite and >= 0"),
        ("train.lr", "nan", "train.lr must be finite and > 0"),
        ("model.topology", "transformer", "model.topology must be one of direct, "),
        ("model.ctc", "maybe", "model.ctc must be on or off"),
        ("data.seed", "-1", "data.seed must be >= 0"),
        ("train.lr_decay", "0", "train.lr_decay must be in (0, 1]"),
        ("transplant.scheme", "asr", "transplant.scheme must be one of none, asr_enc, "),
        ("eval.direction", "ts", "eval.direction must be st, asr, mt or empty"),
    ],
)
def test_train_rejects_a_malformed_value_before_generating_data(tmp_path, capsys, monkeypatch, key, value, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the configuration was checked")

    monkeypatch.setattr(cli.data_mod, "generate", no_data)
    assert cli.main(["train", "--out", str(tmp_path / "run"), f"--{key}", value]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.endswith(f"got {value!r}\n") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("model.loss_weight", "1.5", "model.loss_weight"),
        ("model.pool_schedule", "0,1,1", "model.pool_schedule"),
        ("model.pool_schedule", "2,1", "model.pool_schedule"),
        ("data.vocab_size", "3", "data.vocab_size"),
        ("data.len_min", "0", "data.len_min/data.len_max"),
        ("data.frames_max", "4", "data.frames_min/data.frames_max"),
    ],
)
def test_a_value_the_library_rejects_is_reported_under_its_key(tmp_path, capsys, monkeypatch, key, value, named):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the configuration was checked")

    monkeypatch.setattr(cli.data_mod, "generate", no_data)
    assert cli.main(["train", "--out", str(tmp_path / "run"), f"--{key}", value]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_a_bad_value_exits_2_with_one_line_through_the_entry_point(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "deskst.cli", "train", "--model.dropout", "1.5"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr == "error: model.dropout must be in [0, 1), got '1.5'\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "key, value",
    [("eval.beam", "0"), ("eval.case_sensitive", "maybe"), ("eval.split", "valid"), ("eval.direction", "ts"), ("eval.len_norm", "nan")],
)
def test_eval_checks_its_values_before_reading_the_checkpoint(tmp_path, capsys, monkeypatch, key, value):
    def no_restore(path):
        raise AssertionError("checkpoint read before the configuration was checked")

    monkeypatch.setattr(transplant, "restore", no_restore)
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"), f"--{key}", value]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.endswith(f"got {value!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--data.n_test", "9"], "data.n_test"),
        (["--model.enc_hidden", "8"], "model.enc_hidden"),
        (["--seed", "3"], "train.seed"),
        (["--topology", "mt"], "model.topology"),
        (["--ctc", "on"], "model.ctc"),
        (["--scheme", "asr_enc"], "transplant.scheme"),
        (["--adapter", "on"], "transplant.adapter"),
    ],
)
def test_eval_of_a_run_rejects_an_override_its_config_fixes(tmp_path, capsys, flags, key):
    assert cli.main(["eval", "--run", str(tmp_path / "run"), "--beam", "2", *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} is fixed by the run's config.json") and err.count("\n") == 1


def test_eval_of_a_run_reads_its_eval_values_from_its_config(tmp_path, monkeypatch):
    model = [arg for key, value in TINY_MODEL.items() for arg in (f"--{key}", value)]
    run = tmp_path / "run"
    flags = ["--train.epochs", "0", "--eval.beam", "4", "--eval.len_norm", "1.0"]
    assert cli.main(["train", "--out", str(run), *TINY_DATA, *model, *flags]) == cli.EXIT_OK
    calls = []
    decode_corpus = training.decode_corpus

    def recording_decode_corpus(graph, store, ds, direction, beam, max_len, len_norm=0.6):
        calls.append((beam, len_norm))
        return decode_corpus(graph, store, ds, direction, beam, max_len, len_norm)

    monkeypatch.setattr(training, "decode_corpus", recording_decode_corpus)
    for flags, beam in (([], 4), (["--beam", "2"], 2)):
        assert cli.main(["eval", "--run", str(run), "--eval.max_len", "4", *flags]) == cli.EXIT_OK
        assert json.loads((run / "eval_test.json").read_text())["beam"] == beam
        assert calls.pop() == (beam, 1.0)


@pytest.mark.parametrize(
    "edit",
    [
        lambda header: header.update(topology="nope"),
        lambda header: header["config"].update(loss_weight=7.0),
        lambda header: header.update(adapter_position="asr_decoder_top"),
        lambda header: header.update(seed="x"),
        lambda header: header.update(seed=-1),
        lambda header: header["config"].update(pool_schedule=[2.0]),
    ],
    ids=["topology", "loss_weight", "adapter_position", "seed", "negative_seed", "pool_schedule"],
)
def test_a_checkpoint_header_that_describes_no_model_exits_4(tmp_path, capsys, edit):
    ckpt = checkpoint(tmp_path, "direct")
    rewrite_header(ckpt, edit)
    assert run_eval(tmp_path, ckpt) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: header ") and err.count("\n") == 1
    assert not (tmp_path / "eval").exists()


def trained_run(path):
    """A run directory of the tiny model trained for no epochs."""
    model = [arg for key, value in TINY_MODEL.items() for arg in (f"--{key}", value)]
    assert cli.main(["train", "--out", str(path), *TINY_DATA, *model, "--train.epochs", "0"]) == cli.EXIT_OK
    return path


def test_a_config_file_is_read_under_the_flags_that_override_it(tmp_path):
    config = tmp_path / "run.conf"
    lines = [f"{key} = {value}" for key, value in TINY_MODEL.items()]
    lines += [f"{key[2:]} = {value}" for key, value in zip(TINY_DATA[::2], TINY_DATA[1::2])]
    config.write_text(
        "# a tiny run\n\n" + "\n".join(lines) + "\nmodel.topology = mt  # overridden by --topology\n"
        "   \ntrain.epochs = 5\ntrain.batch_size = 3 # kept\n"
    )
    run = tmp_path / "run"
    flags = ["--config", str(config), "--topology", "direct", "--train.epochs", "0"]
    assert cli.main(["train", "--out", str(run), *flags]) == cli.EXIT_OK
    written = json.loads((run / "config.json").read_text())
    assert (written["model.topology"], written["train.epochs"], written["train.batch_size"]) == ("direct", "0", "3")
    assert all(written[key] == value for key, value in TINY_MODEL.items())


def test_a_config_line_without_equals_exits_2_naming_its_line(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("# comment\nmodel.topology = direct\ntrain.epochs 0\n")
    assert cli.main(["train", "--out", str(tmp_path / "run"), "--config", str(config)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {config}:3: expected key = value, got 'train.epochs 0'\n"
    assert not (tmp_path / "run").exists()


def test_train_from_a_scheme_reports_its_transplant(tmp_path, capsys):
    donor = checkpoint(tmp_path, "asr")
    run = tmp_path / "run"
    model = [arg for key, value in TINY_MODEL.items() for arg in (f"--{key}", value)]
    flags = ["--scheme", "asr_enc", "--transplant.asr_checkpoint", str(donor), "--train.epochs", "0"]
    assert cli.main(["train", "--out", str(run), *TINY_DATA, *model, *flags]) == cli.EXIT_OK
    report = json.loads((run / "transplant.json").read_text())
    summary = f"transplant: grafted {len(report['grafted'])}, fresh {len(report['fresh'])}, reinitialized 0, unused source 0"
    assert capsys.readouterr().out.startswith(summary + "\n")
    assert report["grafted"] and all(name.startswith("encoder.") for name in report["grafted"])
    assert report["fresh"] and all(name.startswith("decoder_st.") for name in report["fresh"])
    assert cli._run_label(cli.parse_config(json.loads((run / "config.json").read_text()))) == "direct [asr_enc]"


@pytest.mark.parametrize("name", ["config.json", "best"])
def test_eval_of_a_run_file_that_is_not_json_exits_4(tmp_path, capsys, name):
    run = trained_run(tmp_path / "run")
    (run / name).write_text('{"checkpoint": ')
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(run)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / name} is not valid JSON") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["config.json", "metrics.jsonl"])
def test_compare_of_a_run_file_that_is_not_json_exits_4(tmp_path, capsys, name):
    run = trained_run(tmp_path / "run")
    other = shutil.copytree(run, tmp_path / "other")
    text = (other / name).read_text()
    (other / name).write_text(text[: len(text) - 5])  # truncated
    capsys.readouterr()
    assert cli.main(["compare", str(run), str(other), "--out", str(tmp_path / "cmp")]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {other / name} is not valid JSON") and err.count("\n") == 1
    assert not (tmp_path / "cmp").exists()


def test_eval_of_a_best_marker_that_names_no_checkpoint_exits_4(tmp_path, capsys):
    run = trained_run(tmp_path / "run")
    (run / "best").write_text("{}")
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(run)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / 'best'} names no checkpoint") and err.count("\n") == 1


def test_compare_of_a_metrics_line_that_is_no_row_exits_4(tmp_path, capsys):
    run = trained_run(tmp_path / "run")
    other = shutil.copytree(run, tmp_path / "other")
    (other / "metrics.jsonl").write_text("[1]\n")
    capsys.readouterr()
    assert cli.main(["compare", str(run), str(other), "--out", str(tmp_path / "cmp")]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {other / 'metrics.jsonl'} has a line without") and err.count("\n") == 1
    assert not (tmp_path / "cmp").exists()


def test_eval_of_a_config_that_is_no_object_of_strings_exits_4(tmp_path, capsys):
    run = trained_run(tmp_path / "run")
    (run / "config.json").write_text("[1]")
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(run)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err == f"error: {run / 'config.json'} holds no object of string values\n"
    assert not (run / "eval_test.json").exists()


def test_eval_of_a_config_with_an_unknown_key_exits_4(tmp_path, capsys):
    run = trained_run(tmp_path / "run")
    cfg = json.loads((run / "config.json").read_text())
    cfg["model.enc_hiddn"] = cfg.pop("model.enc_hidden")
    (run / "config.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(run)]) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {run / 'config.json'} has unknown key 'model.enc_hiddn'\n"
    assert not (run / "eval_test.json").exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("config.json", "[1]", "holds no object of string values"),
        ("config.json", '{"model.topology": "direct", "model.enc_hiddn": "8"}', "has unknown key 'model.enc_hiddn'"),
        ("eval_test.json", "{}", "has no numeric bleu and ter"),
    ],
)
def test_compare_of_a_run_file_of_the_wrong_shape_exits_4(tmp_path, capsys, name, text, message):
    run = trained_run(tmp_path / "run")
    other = shutil.copytree(run, tmp_path / "other")
    (other / name).write_text(text)
    capsys.readouterr()
    assert cli.main(["compare", str(run), str(other), "--out", str(tmp_path / "cmp")]) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {other / name} {message}\n"
    assert not (tmp_path / "cmp").exists()


def test_train_rejects_a_len_norm_that_overflows_the_longest_decode_before_writing(tmp_path, capsys):
    model = [arg for key, value in TINY_MODEL.items() for arg in (f"--{key}", value)]
    argv = ["train", "--out", str(tmp_path / "run"), *TINY_DATA, *model, "--eval.len_norm", "400"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: eval.len_norm must keep 8**len_norm a finite float, got '400'\n"
    assert not (tmp_path / "run").exists()


def test_eval_of_a_run_rejects_a_len_norm_that_overflows_its_decode(tmp_path, capsys):
    run = trained_run(tmp_path / "run")
    capsys.readouterr()
    for flags, longest in ((["--eval.len_norm", "400"], 8), (["--eval.len_norm", "300", "--eval.max_len", "12"], 12)):
        assert cli.main(["eval", "--run", str(run), *flags]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: eval.len_norm must keep {longest}**len_norm a finite float, got {flags[1]!r}\n"
    assert not (run / "eval_test.json").exists()
    assert cli.main(["eval", "--run", str(run), "--eval.len_norm", "300"]) == cli.EXIT_OK  # 8**300 is a finite float


@pytest.mark.parametrize("value", ["ON", "True", "YES", "1"])
def test_compare_labels_a_flag_as_training_reads_it(value):
    cfg = {"model.topology": "direct", "model.ctc": value, "transplant.adapter": value}
    assert cli._run_label(cli.parse_config(cfg)) == "direct +CTC +adapter"


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
    for run in (ctc_run, grown_run):  # config.json and the checkpoint header describe one model
        parsed = cli.parse_config(json.loads((run / "config.json").read_text()))
        assert parsed.model == transplant.load(run / "ckpt-0").graph.config

    restored = []
    restore = transplant.restore
    monkeypatch.setattr(transplant, "restore", lambda path: restored.append(path) or restore(path))
    assert cli.main(["eval", "--run", str(ctc_run), "--beam", "2", "--eval.max_len", "4"]) == cli.EXIT_OK
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
    for name, split in zip(("train", "dev", "test"), cli.parse_config(tiny_config()).data.splits()):
        back = data.load_dataset(tmp_path / f"{name}.jsonl")
        assert (back.src_vocab, back.tgt_vocab) == (split.src_vocab, split.tgt_vocab)
        assert np.array_equal(back.cipher, split.cipher)
        assert [ex.id for ex in back.examples] == [ex.id for ex in split.examples]
        for a, b in zip(back.examples, split.examples):
            assert np.array_equal(a.x.frames, b.x.frames)
            assert np.array_equal(a.f.ids, b.f.ids) and np.array_equal(a.e.ids, b.e.ids)


def test_defaults_are_pinned():
    """config.json's bytes depend on these values."""
    assert cli.DEFAULTS == {
        "model.topology": "direct",
        "model.emb_size": "32",
        "model.enc_hidden": "64",
        "model.enc_layers": "3",
        "model.dec_hidden": "64",
        "model.dec_layers": "1",
        "model.attn_dim": "64",
        "model.pool_schedule": "2,1,1",
        "model.loss_weight": "0.5",
        "model.ctc": "off",
        "model.dropout": "0.1",
        "model.label_smoothing": "0.1",
        "data.vocab_size": "12",
        "data.n_train": "500",
        "data.n_dev": "50",
        "data.n_test": "50",
        "data.len_min": "3",
        "data.len_max": "8",
        "data.frames_min": "5",
        "data.frames_max": "7",
        "data.noise_sigma": "0.3",
        "data.seed": "0",
        "data.task_seed": "0",
        "train.seed": "0",
        "train.epochs": "30",
        "train.batch_size": "16",
        "train.lr": "0.0008",
        "train.lr_decay": "0.9",
        "train.lr_patience": "6",
        "train.eval_every": "1",
        "train.max_len": "75",
        "train.growth": "",
        "train.dev_beam": "1",
        "transplant.scheme": "none",
        "transplant.adapter": "off",
        "transplant.asr_checkpoint": "",
        "transplant.mt_checkpoint": "",
        "eval.split": "test",
        "eval.beam": "12",
        "eval.direction": "",
        "eval.len_norm": "0.6",
        "eval.case_sensitive": "on",
        "eval.max_len": "0",
    }


def test_unknown_key_exits_2(tmp_path, capsys):
    assert cli.main(["train", "--out", str(tmp_path / "run"), *TINY_DATA, "--model.bogus", "1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: unknown config key 'model.bogus'")


@pytest.mark.filterwarnings("ignore::deskst.layers.SmoothingClampWarning")
def test_divergence_exits_3(tmp_path, capsys):
    model = [arg for key, value in TINY_MODEL.items() for arg in (f"--{key}", value)]
    flags = ["--train.lr", "1e300", "--train.epochs", "1"]
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


def one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {start}") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--model.emb_size"], "dangling override '--model.emb_size'; expected --key value pairs"),
        (["train", "model.emb_size", "4"], "unexpected argument 'model.emb_size'"),
        (["train", "--train.epochs", "two"], "train.epochs must be an integer, got 'two'"),
        (["train", "--train.lr", "fast"], "train.lr must be a number, got 'fast'"),
        (["eval"], "eval needs --run DIR or --checkpoint FILE"),
        (["compare", "only_run"], "compare needs at least two run directories"),
        (["transplant"], "transplant needs --scheme NAME (one of "),
    ],
)
def test_a_command_line_the_cli_cannot_run_exits_2_before_writing(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_CONFIG
    one_error_line(capsys, message)
    assert not list(tmp_path.iterdir())


def test_eval_of_a_run_without_a_best_marker_exits_2(tmp_path, capsys):
    run = trained_run(tmp_path / "run")
    (run / "best").unlink()
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(run)]) == cli.EXIT_CONFIG
    one_error_line(capsys, f"{run} has no best-checkpoint marker")


def test_compare_of_an_incomplete_run_exits_2(tmp_path, capsys):
    run = trained_run(tmp_path / "run")
    other = shutil.copytree(run, tmp_path / "other")
    (other / "metrics.jsonl").unlink()
    capsys.readouterr()
    assert cli.main(["compare", str(run), str(other), "--out", str(tmp_path / "cmp")]) == cli.EXIT_CONFIG
    one_error_line(capsys, f"{other} is not a completed run directory")
    assert not (tmp_path / "cmp").exists()
