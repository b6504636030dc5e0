import json

import pytest

from deskst import cli, decode, transplant

TINY_DATA = ["--data.n_train", "4", "--data.n_dev", "2", "--data.n_test", "3", "--data.len_max", "3"]
TINY_MODEL = {
    "model.emb_size": "4",
    "model.enc_hidden": "4",
    "model.enc_layers": "1",
    "model.dec_hidden": "4",
    "model.attn_dim": "4",
    "model.pool_schedule": "2",
}


def checkpoint(tmp_path, topology):
    """A freshly initialized checkpoint of the CLI's tiny-data vocabulary."""
    cfg = dict(cli.DEFAULTS, **TINY_MODEL)
    cfg.update(zip((k[2:] for k in TINY_DATA[::2]), TINY_DATA[1::2]))
    cfg["model.topology"] = topology
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
