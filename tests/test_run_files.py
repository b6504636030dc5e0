"""No run file makes the CLI fail with a traceback.

One tiny run is trained per test session. Each example mutates one of its
files: truncates it, swaps a JSON value for a value of another type, drops a
key, inserts a byte that is not UTF-8, or edits a field of the checkpoint's
header. ``eval --run``, ``eval --checkpoint`` and ``compare`` must then exit
0, 2 or 4, never with an uncaught exception, and print no traceback.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deskst import cli

from util import rewrite_header

TINY = [
    "--data.n_train", "4", "--data.n_dev", "2", "--data.n_test", "2", "--data.len_max", "3",
    "--model.emb_size", "4", "--model.enc_hidden", "4", "--model.enc_layers", "1", "--model.pool_schedule", "2",
    "--model.dec_hidden", "4", "--model.attn_dim", "4",
]
DATA = TINY[:8]
JSON_FILES = ["config.json", "metrics.jsonl", "best", "eval_test.json"]
OTHER_TYPES = [None, True, 7, 2.5, "x", [], {}]


def quiet_main(argv):
    """``cli.main(argv)`` with its console captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="session")
def pristine_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("run_files") / "run"
    assert quiet_main(["train", "--out", run, *TINY, "--train.epochs", "1", "--beam", "2"])[0] == cli.EXIT_OK
    assert quiet_main(["eval", "--run", run])[0] == cli.EXIT_OK  # writes eval_test.json
    return run


def checkpoint_name(run: Path) -> str:
    return json.loads((run / "best").read_text())["checkpoint"]


def json_slots(value, path=()):
    """Every (path, value) in a JSON value, the root included."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from json_slots(child, (*path, key))


def swap_type(value, draw, root=True):
    """Replace one value inside ``value`` (or, with ``root``, the whole of
    it) with one of another type."""
    path, old = draw(st.sampled_from(list(json_slots(value))[0 if root else 1 :]))
    new = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]))
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


def drop_key(value, draw):
    """Remove one key of one object inside the value (no change if it has none)."""
    objects = [v for _, v in json_slots(value) if isinstance(v, dict) and v]
    if objects:
        obj = draw(st.sampled_from(objects))
        del obj[draw(st.sampled_from(sorted(obj)))]
    return value


def edit_json(path: Path, edit, draw):
    if path.name == "metrics.jsonl":
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = edit(rows[i], draw)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    else:
        path.write_text(json.dumps(edit(json.loads(path.read_text()), draw)))


def mutate(run: Path, name: str, kind: str, draw) -> None:
    path = run / name
    blob = path.read_bytes()
    if kind == "truncate":
        path.write_bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    elif kind == "non_utf8":
        at = draw(st.integers(0, len(blob)))
        path.write_bytes(blob[:at] + b"\xff" + blob[at:])
    elif name in JSON_FILES:
        edit_json(path, swap_type if kind == "swap_type" else drop_key, draw)
    else:  # the checkpoint: edit its header
        rewrite_header(path, lambda header: swap_type(header, draw, root=False) if kind == "swap_type" else drop_key(header, draw))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    name=st.sampled_from([*JSON_FILES, "checkpoint"]),
    kind=st.sampled_from(["truncate", "swap_type", "drop_key", "non_utf8"]),
    data=st.data(),
)
def test_no_mutated_run_file_ends_in_a_traceback(pristine_run, tmp_path_factory, name, kind, data):
    work = tmp_path_factory.mktemp("mutated")
    run = shutil.copytree(pristine_run, work / "run")
    other = shutil.copytree(pristine_run, work / "other")
    ckpt = checkpoint_name(pristine_run)
    mutate(run, ckpt if name == "checkpoint" else name, kind, data.draw)
    commands = [
        ["compare", run, other, "--out", work / "cmp"],
        ["eval", "--checkpoint", run / ckpt, *DATA, "--beam", "2", "--out", work / "eval_ckpt"],
        ["eval", "--run", run, "--beam", "2", "--out", work / "eval_run"],
    ]
    for argv in commands:
        code, err = quiet_main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO), (argv[0], code, err)
        assert "Traceback" not in err
        if code != cli.EXIT_OK:
            assert err.startswith("error: ") and err.count("\n") == 1, err
