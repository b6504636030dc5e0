import importlib.util
import json
from pathlib import Path

import numpy as np

from deskst import models, transplant

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_one_tiny_run_is_byte_identical_under_two_hash_seeds(tmp_path):
    """The smoke configuration (train, then eval --run) of this tree against
    itself in fresh processes, under PYTHONHASHSEED 0 and 112."""
    src = ROOT / "src"
    report = same_outputs.compare_trees(
        src, src, same_outputs.SMOKE, tmp_path, {"PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "112"}
    )
    assert report.diffs == [] and report.failed == []
    assert report.n_files == 7  # config.json, metrics.jsonl, best, two checkpoints, eval_test.json, hyps_test.txt


def test_a_command_that_fails_on_both_sides_does_not_pass(tmp_path):
    """Equal consoles and no files, but nothing was compared."""
    src = ROOT / "src"
    step = same_outputs.Step("eval of no run", ["eval", "--run", "runs/none"])
    report = same_outputs.compare_trees(src, src, [step], tmp_path)
    assert report.diffs == [] and report.failed == ["eval of no run"]
    assert not report.passed


def test_differences_are_named_by_key_and_tensor(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side, bleu in ((a, 1.0), (b, 1.5)):
        side.mkdir()
        rows = [{"dev": {"bleu": 0.0, "ter": 9.0}}, {"dev": {"bleu": bleu, "ter": 9.0}}]
        (side / "metrics.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert same_outputs.describe(a / "metrics.jsonl", b / "metrics.jsonl") == "first differing key [1].dev.bleu: 1.0 != 1.5"

    cfg = models.ModelConfig(6, 6, 3, emb_size=2, enc_hidden=2, enc_layers=1, dec_hidden=2, attn_dim=2, pool_schedule=(1,))
    graph = models.build(cfg, "direct")
    store = models.init_store(graph, 0)
    transplant.save(graph, store, a / "ckpt-1")
    store.set("decoder_st.out.b", store["decoder_st.out.b"].data + np.array([0, 0, 0, 0, 0, 1e-3]))
    transplant.save(graph, store, b / "ckpt-1")
    found = same_outputs.describe(a / "ckpt-1", b / "ckpt-1")
    assert found == "first differing tensor decoder_st.out.b, largest relative difference 1"
