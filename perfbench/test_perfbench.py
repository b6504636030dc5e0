"""Smoke test of the benchmark, so that the harness cannot rot.

Runs every workload untraced and traced at the smoke size and checks that
each run passes its own correctness checks, reports exactly the metrics
BENCHMARK.json declares, leaves no wrapper installed, and shows the bypass
predictions of the traced run. It sets no timing bound.

    PYTHONPATH=src python -m pytest perfbench
"""

import json

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Per-layer metric prefixes that must read zero on a workload: the
# mechanism they measure is bypassed there.
BYPASSED = {
    "train_one2many_ctc": ("decode.",),
    "train_tied_triangle_adapter": ("ctc.", "decode."),
    "decode_direct_beam12": ("ctc.", "tensor.backward_graph.", "numerics.adam_step."),
}


def smoke(workload: str, trace: int, capsys) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "smoke"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks_and_reports_declared_metrics(workload, trace, capsys):
    code, result = smoke(workload, trace, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

    from deskst import ctc, layers, models, tensor

    assert models.additive_attention is layers.additive_attention
    assert layers.lstm_sequence.__module__ == "deskst.layers"
    assert ctc.ctc_loss.__module__ == "deskst.ctc"
    assert tensor.Tensor.__init__.__qualname__ == "Tensor.__init__"

    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    for prefix in BYPASSED[workload]:
        assert all(v == 0 for k, v in values.items() if k.startswith(prefix)), prefix
    assert values["layers.lstm_sequence.fwd_ms"] > 0 and values["tensor.tensors_created"] > 0


def test_exits_nonzero_without_the_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
