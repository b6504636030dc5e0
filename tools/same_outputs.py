"""Check that two trees of deskst produce byte-identical outputs.

Usage, from the repository root:

    python3 tools/same_outputs.py --base HEAD~

The base tree is ``src/`` at REV, extracted with ``git archive`` into a
temporary directory; the other tree is this checkout's ``src/``. Each tree
runs the same matrix of ``deskst`` commands (train, eval --run, the ASR->MT
cascade eval, an eval of a 40-example split, transplant, a many2one training
run from an asr_enc+mt_enc+mt_dec transplant and its eval, compare, two
training runs at the default model dims and a beam-12 eval of one of them) in
fresh subprocesses at one BLAS thread, each in its own working directory.
Every output file and every command's console output and exit code are then
compared byte for byte. For a checkpoint that differs the report names the
first differing tensor and its largest relative difference; for
metrics.jsonl, the first differing key. The exit code is 0 when every
command exited 0 under both trees and everything is identical, and 1
otherwise: the matrix is built so that every command succeeds, so a command
that fails the same way on both sides has compared nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

TINY = [
    "--data.n_train", "24", "--data.n_dev", "8", "--data.n_test", "6", "--data.len_max", "4",
    "--model.emb_size", "6", "--model.enc_hidden", "6", "--model.enc_layers", "2", "--model.pool_schedule", "2,1",
    "--model.dec_hidden", "6", "--model.attn_dim", "6",
    "--train.epochs", "2", "--train.batch_size", "8", "--train.lr", "0.005",
]


class Step(NamedTuple):
    """One command: its label and its arguments after ``deskst``. An argument
    ``@best:DIR`` becomes the checkpoint that DIR's ``best`` marker names."""

    label: str
    args: list[str]


def _train(name: str, *flags: str) -> Step:
    return Step(f"train {name}", ["train", "--out", f"runs/{name}", *TINY, *flags])


def _desk(name: str, *flags: str) -> Step:
    # The default model dims, which perfbench runs (H = A = 64, V = 16), on a few dozen examples.
    few = ["--data.n_train", "40", "--data.n_dev", "8", "--data.n_test", "6", "--train.epochs", "1"]
    return Step(f"train {name}", ["train", "--out", f"runs/{name}", *flags, *few])


def _eval(name: str) -> Step:
    return Step(f"eval {name}", ["eval", "--run", f"runs/{name}", "--beam", "3"])


TRAINED = {
    "direct_ctc_adapter": ["--topology", "direct", "--ctc", "on", "--adapter", "on"],
    "one2many_ctc": ["--topology", "one2many", "--ctc", "on"],
    "tied_triangle_adapter": ["--topology", "tied_triangle", "--adapter", "on"],
    "tied_cascade_ctc": ["--topology", "tied_cascade", "--ctc", "on"],
    "many2one": ["--topology", "many2one"],
    "mt": ["--topology", "mt"],
    "asr_ctc": ["--topology", "asr", "--ctc", "on", "--train.dev_beam", "3"],
    # The dev filter drops examples: too long for train.max_len, or too short for CTC after pooling.
    "direct_max_len": ["--topology", "direct", "--train.max_len", "3"],
    "tied_triangle_max_len": ["--topology", "tied_triangle", "--adapter", "on", "--train.max_len", "3"],
    "one2many_ctc_pools": [
        "--topology", "one2many", "--ctc", "on", "--model.enc_layers", "3", "--model.pool_schedule", "2,2,1",
        "--data.frames_min", "2", "--data.frames_max", "4",
    ],
    "direct_growth": ["--topology", "direct", "--train.growth", "0:1,1:2"],
}

MATRIX = [
    *(_train(name, *flags) for name, flags in TRAINED.items()),
    *(_eval(name) for name in TRAINED),
    Step(
        "eval cascade",
        ["eval", "--checkpoint", "@best:runs/asr_ctc", "--mt-checkpoint", "@best:runs/mt", "--out", "cascade", *TINY[:8]],
    ),
    # 40 test examples: the first decode batch is a full 32 ragged rows.
    Step(
        "eval test40",
        [
            "eval", "--checkpoint", "@best:runs/direct_ctc_adapter", "--out", "test40", "--beam", "3",
            *TINY[:4], "--data.n_test", "40", *TINY[6:8],
        ],
    ),
    Step(
        "transplant",
        [
            "transplant", "--topology", "one2many", "--scheme", "asr_enc+mt_dec", "--out", "grafted.ckpt", *TINY,
            "--transplant.asr_checkpoint", "@best:runs/asr_ctc", "--transplant.mt_checkpoint", "@best:runs/mt",
        ],
    ),
    # Train from a transplant: the scheme table, the mt_enc graft and train's transplant report.
    _train(
        "many2one_grafted", "--topology", "many2one", "--scheme", "asr_enc+mt_enc+mt_dec",
        "--transplant.asr_checkpoint", "@best:runs/asr_ctc", "--transplant.mt_checkpoint", "@best:runs/mt",
    ),
    _eval("many2one_grafted"),
    Step("compare", ["compare", *(f"runs/{name}" for name in TRAINED), "--out", "compare"]),
    # Two-memory and single-memory decoders, with the adapter and CTC.
    _desk("desk", "--topology", "tied_triangle", "--adapter", "on", "--ctc", "on"),
    _desk("desk_one2many", "--topology", "one2many", "--ctc", "on"),
    # The benchmark's beam width at the default model dims.
    Step("eval desk beam 12", ["eval", "--run", "runs/desk", "--beam", "12"]),
]

# One tiny configuration: a fast check of one tree against itself.
SMOKE = [_train("direct_ctc_adapter", *TRAINED["direct_ctc_adapter"], "--train.epochs", "1"), _eval("direct_ctc_adapter")]


def _argument(arg: str, cwd: Path) -> str:
    if not arg.startswith("@best:"):
        return arg
    run = arg.removeprefix("@best:")
    try:
        return f"{run}/{json.loads((cwd / run / 'best').read_text())['checkpoint']}"
    except (OSError, ValueError, KeyError, TypeError):
        return f"{run}/best"  # no checkpoint to name: the command reports the failure


def run_tree(src: Path, work: Path, steps: list[Step], env: dict[str, str] | None = None) -> list[str]:
    """Run ``steps`` in order with ``src`` on the path and ``work`` as the
    working directory; return each step's console record."""
    work.mkdir(parents=True, exist_ok=True)
    environ = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(src), **(env or {})}
    records = []
    for step in steps:
        argv = [sys.executable, "-m", "deskst.cli", *(_argument(arg, work) for arg in step.args)]
        done = subprocess.run(argv, cwd=work, env=environ, capture_output=True, text=True, timeout=600)
        records.append(f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}")
    return records


def first_difference(a: Any, b: Any, path: str = "") -> str | None:
    """The path of the first value in which two JSON values differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return f"{path}{key} (on one side only)"
            found = first_difference(a[key], b[key], f"{path}{key}.")
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}].")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{path}length ({len(a)} != {len(b)})"
    if type(a) is type(b) and a == b:
        return None
    return f"{path.rstrip('.') or 'value'}: {a!r} != {b!r}"


def _checkpoint_difference(a: Path, b: Path) -> str:
    from deskst import transplant

    try:
        ca, cb = transplant.load(a), transplant.load(b)
    except (transplant.CheckpointError, OSError) as exc:
        return f"a checkpoint does not load ({exc})"
    for name in sorted(ca.values.keys() | cb.values.keys()):
        x, y = ca.values.get(name), cb.values.get(name)
        if x is None or y is None or x.shape != y.shape:
            return f"tensor {name} is absent or shaped differently on one side"
        if x.tobytes() != y.tobytes():
            scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.finfo(np.float64).tiny)
            return f"first differing tensor {name}, largest relative difference {np.max(np.abs(x - y) / scale):.3g}"
    ha, hb = ({"dev_history": c.dev_history, "seed": c.seed, "graph": repr(c.graph)} for c in (ca, cb))
    return f"header {first_difference(ha, hb) or 'bytes'} differs"


def describe(a: Path, b: Path) -> str:
    """How two differing files differ."""
    if a.name.startswith("ckpt-") or a.suffix == ".ckpt":
        return _checkpoint_difference(a, b)
    try:
        if a.suffix == ".jsonl":
            va, vb = ([json.loads(line) for line in p.read_text().splitlines()] for p in (a, b))
        elif a.suffix == ".json" or a.name == "best":
            va, vb = json.loads(a.read_text()), json.loads(b.read_text())
        else:
            return "bytes differ"
    except ValueError:
        return "bytes differ; a side is not valid JSON"
    return f"first differing key {first_difference(va, vb) or '(none: values equal, bytes differ)'}"


def compare_outputs(work_a: Path, work_b: Path, records_a: list[str], records_b: list[str], steps: list[Step]) -> list[str]:
    """Every difference between two runs of the same steps."""
    diffs = [
        f"console of {step.label!r} differs:\n{ra}=== vs\n{rb}"
        for step, ra, rb in zip(steps, records_a, records_b)
        if ra != rb
    ]
    files_a, files_b = ({p.relative_to(w) for p in w.rglob("*") if p.is_file()} for w in (work_a, work_b))
    for rel in sorted(files_a ^ files_b):
        diffs.append(f"{rel} exists on one side only")
    for rel in sorted(files_a & files_b):
        if (work_a / rel).read_bytes() != (work_b / rel).read_bytes():
            diffs.append(f"{rel}: {describe(work_a / rel, work_b / rel)}")
    return diffs


class Report(NamedTuple):
    diffs: list[str]
    n_files: int  # output files on the first side
    failed: list[str]  # labels of the steps that exited non-zero on either side

    @property
    def passed(self) -> bool:
        return not self.diffs and not self.failed


def compare_trees(
    src_a: Path,
    src_b: Path,
    steps: list[Step],
    scratch: Path,
    env_a: dict[str, str] | None = None,
    env_b: dict[str, str] | None = None,
) -> Report:
    """Run ``steps`` under each tree, in ``scratch``/a and ``scratch``/b,
    and compare what they left."""
    work_a, work_b = scratch / "a", scratch / "b"
    records_a = run_tree(src_a, work_a, steps, env_a)
    records_b = run_tree(src_b, work_b, steps, env_b)
    failed = [
        step.label for step, *records in zip(steps, records_a, records_b) if not all(r.startswith("exit 0\n") for r in records)
    ]
    n_files = sum(1 for p in work_a.rglob("*") if p.is_file())
    return Report(compare_outputs(work_a, work_b, records_a, records_b, steps), n_files, failed)


def extract_src(rev: str, dest: Path) -> Path:
    """``src/`` at ``rev``, extracted with git archive under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # Python before 3.10.12/3.11.4; src/ holds only regular files
            tar.extractall(dest)
    return dest / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision whose src/ is the base tree")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))  # this tree's checkpoint reader
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        base = extract_src(args.base, Path(tmp) / "base")
        report = compare_trees(base, ROOT / "src", MATRIX, Path(tmp) / "runs")
    for diff in report.diffs:
        print(diff)
    if report.failed:
        print(f"exited non-zero on a side: {', '.join(report.failed)}")
    verdict = "identical" if report.passed else f"{len(report.diffs)} differences"
    print(f"{args.base} vs this tree: {len(MATRIX)} commands ({len(report.failed)} failing), {report.n_files} files: {verdict}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
