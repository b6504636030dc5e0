"""Experiment driver: train any topology, evaluate checkpoints, apply
pre-training transplants, and emit comparison tables.

Configuration is a flat key=value file with sectioned keys (model.*, data.*,
train.*, transplant.*, eval.*); every key can be overridden on the command
line with a flag of the same name (e.g. --model.enc_layers 4). A run
directory is reproducible from its config.json alone.

Exit codes: 0 success, 2 configuration error, 3 training divergence,
4 I/O or checkpoint error, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import models, training, transplant
from .decode import DirectionError, cascade_batch, default_direction
from .tensor import NumericsError
from .training import DivergenceError, RunRecord, TrainSchedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


DEFAULTS: dict[str, str] = {
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


def parse_config_file(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def resolve_config(args: argparse.Namespace, overrides: list[str]) -> dict[str, str]:
    """defaults <- config file <- free --section.key flags <- named flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    if len(overrides) % 2:
        raise ConfigError(f"dangling override {overrides[-1]!r}; expected --key value pairs")
    for flag, value in zip(overrides[::2], overrides[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"unexpected argument {flag!r}")
        key = flag[2:]
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    if getattr(args, "seed", None) is not None:
        cfg["train.seed"] = str(args.seed)
    if getattr(args, "beam", None) is not None:
        cfg["eval.beam"] = str(args.beam)
    if getattr(args, "ctc", None):
        cfg["model.ctc"] = args.ctc
    if getattr(args, "topology", None):
        cfg["model.topology"] = args.topology
    if getattr(args, "scheme", None):
        cfg["transplant.scheme"] = args.scheme
    if getattr(args, "adapter", None):
        cfg["transplant.adapter"] = args.adapter
    return cfg


def _flag(cfg: dict[str, str], key: str) -> bool:
    value = cfg[key].lower()
    if value in ("on", "true", "1", "yes"):
        return True
    if value in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be on or off, got {cfg[key]!r}")


def _int(cfg, key):
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from exc


def _float(cfg, key):
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from exc


def _ints(cfg, key) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in cfg[key].split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"{key} must be comma-separated integers, got {cfg[key]!r}") from exc


def _growth(cfg) -> tuple[tuple[int, int], ...]:
    """train.growth as (epoch, encoder layers) steps. The first step is
    epoch 0, the starting depth; epochs and depths strictly increase, up to
    model.enc_layers."""
    text = cfg["train.growth"]
    if not text:
        return ()
    try:
        steps = tuple((int(epoch), int(layers)) for epoch, layers in (part.split(":") for part in text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"train.growth must be epoch:layers steps such as 0:2,5:3, got {text!r}") from exc
    epochs, depths = zip(*steps)
    if epochs[0] != 0:
        raise ConfigError(f"train.growth must start with 0:N, the starting encoder layers, got {text!r}")
    if any(a >= b for seq in (epochs, depths) for a, b in zip(seq, seq[1:])):
        raise ConfigError(f"train.growth epochs and layer counts must strictly increase, got {text!r}")
    if depths[0] < 1 or depths[-1] > _int(cfg, "model.enc_layers"):
        raise ConfigError(f"train.growth layer counts must lie in [1, model.enc_layers], got {text!r}")
    return steps


def build_dataset(cfg: dict[str, str]) -> tuple[data_mod.Dataset, data_mod.Dataset, data_mod.Dataset]:
    n_train, n_dev, n_test = (_int(cfg, f"data.n_{p}") for p in ("train", "dev", "test"))
    total = n_train + n_dev + n_test
    full = data_mod.generate(
        seed=_int(cfg, "data.seed"),
        n_examples=total,
        vocab_size=_int(cfg, "data.vocab_size"),
        len_range=(_int(cfg, "data.len_min"), _int(cfg, "data.len_max")),
        frames_per_token_range=(_int(cfg, "data.frames_min"), _int(cfg, "data.frames_max")),
        noise_sigma=_float(cfg, "data.noise_sigma"),
        task_seed=_int(cfg, "data.task_seed"),
    )
    fractions = (n_train / total, n_dev / total, n_test / total)
    train, dev, test = data_mod.split(full, fractions, seed=_int(cfg, "data.seed"))
    return train, dev, test


def build_model_config(cfg: dict[str, str], ds: data_mod.Dataset, pools: tuple[int, ...]) -> models.ModelConfig:
    try:
        return models.ModelConfig.desk(
            ds.src_vocab,
            ds.tgt_vocab,
            emb_size=_int(cfg, "model.emb_size"),
            enc_hidden=_int(cfg, "model.enc_hidden"),
            enc_layers=_int(cfg, "model.enc_layers"),
            dec_hidden=_int(cfg, "model.dec_hidden"),
            dec_layers=_int(cfg, "model.dec_layers"),
            attn_dim=_int(cfg, "model.attn_dim"),
            pool_schedule=pools,
            loss_weight=_float(cfg, "model.loss_weight"),
            ctc_enabled=_flag(cfg, "model.ctc"),
            dropout=_float(cfg, "model.dropout"),
            label_smoothing=_float(cfg, "model.label_smoothing"),
        )
    except NumericsError as exc:
        raise ConfigError(str(exc)) from exc


def build_schedule(cfg: dict[str, str]) -> TrainSchedule:
    for key in ("train.dev_beam", "train.eval_every"):
        if _int(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]!r}")
    return TrainSchedule(
        epochs=_int(cfg, "train.epochs"),
        batch_size=_int(cfg, "train.batch_size"),
        learning_rate=_float(cfg, "train.lr"),
        lr_decay=_float(cfg, "train.lr_decay"),
        lr_patience=_int(cfg, "train.lr_patience"),
        eval_every=_int(cfg, "train.eval_every"),
        max_len=_int(cfg, "train.max_len"),
        growth=_growth(cfg),
        dev_beam=_int(cfg, "train.dev_beam"),
        len_norm=_float(cfg, "eval.len_norm"),
    )


def _load_donors(cfg: dict[str, str]) -> tuple[transplant.Checkpoint | None, transplant.Checkpoint | None]:
    asr = mt = None
    if cfg["transplant.asr_checkpoint"]:
        asr = transplant.load(cfg["transplant.asr_checkpoint"])
    if cfg["transplant.mt_checkpoint"]:
        mt = transplant.load(cfg["transplant.mt_checkpoint"])
    return asr, mt


def initialize_run(cfg: dict[str, str]):
    """Dataset, graph (with scheme/adapter applied, at train.growth's starting
    depth), and fresh/grafted store."""
    pools, growth = _ints(cfg, "model.pool_schedule"), _growth(cfg)  # checked before any data is generated
    train, dev, test = build_dataset(cfg)
    mc = build_model_config(cfg, train, pools)
    topology = cfg["model.topology"]
    try:
        graph = models.build(mc, topology, active_enc_layers=growth[0][1] if growth else None)
        if _flag(cfg, "transplant.adapter"):
            if models.WIRING[topology].adapter is None:
                raise ConfigError(f"topology {topology!r} has no adapter position; set transplant.adapter off")
            graph = models.with_adapter(graph, models.WIRING[topology].adapter)
    except NumericsError as exc:
        raise ConfigError(str(exc)) from exc
    store = models.init_store(graph, _int(cfg, "train.seed"))
    report = None
    scheme_name = cfg["transplant.scheme"]
    if scheme_name != "none":
        asr, mt = _load_donors(cfg)
        scheme = transplant.resolve_scheme(scheme_name, topology, asr_checkpoint=asr, mt_checkpoint=mt)
        report = transplant.apply_transplant(graph, store, scheme)
    return train, dev, test, graph, store, report


def cmd_generate_data(args, overrides) -> int:
    cfg = resolve_config(args, overrides)
    out = Path(args.out or "data")
    out.mkdir(parents=True, exist_ok=True)
    train, dev, test = build_dataset(cfg)
    for name, ds in (("train", train), ("dev", dev), ("test", test)):
        data_mod.save_dataset(ds, out / f"{name}.jsonl")
        print(f"wrote {out / (name + '.jsonl')} ({len(ds)} examples)")
    return EXIT_OK


def cmd_train(args, overrides) -> int:
    cfg = resolve_config(args, overrides)
    out = Path(args.out or "runs/run")
    schedule = build_schedule(cfg)
    out.mkdir(parents=True, exist_ok=True)
    train, dev, test, graph, store, report = initialize_run(cfg)
    if report is not None:
        print(f"transplant: {report.summary()}")
        (out / "transplant.json").write_text(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    record, best = training.train_model(graph, store, train, dev, schedule, out_dir=out, seed=_int(cfg, "train.seed"))
    row = record.best_row
    print(
        f"best checkpoint: {row['checkpoint']} (epoch {row['epoch']}) "
        f"dev BLEU {row['dev']['bleu']:.2f} TER {row['dev']['ter']:.2f} "
        f"accuracy {row['dev']['token_accuracy']:.3f}"
    )
    return EXIT_OK


def _best_checkpoint_path(run_dir: Path) -> Path:
    marker = run_dir / "best"
    if not marker.exists():
        raise ConfigError(f"{run_dir} has no best-checkpoint marker")
    name = json.loads(marker.read_text())["checkpoint"]
    return run_dir / name


def cmd_eval(args, overrides) -> int:
    cfg = resolve_config(args, overrides)
    run_dir = None
    if args.run:
        run_dir = Path(args.run)
        run_cfg = json.loads((run_dir / "config.json").read_text())
        run_cfg.update({k: cfg[k] for k in cfg if k.startswith("eval.")})
        cfg = run_cfg
        ckpt_path = _best_checkpoint_path(run_dir)
    elif args.checkpoint:
        ckpt_path = Path(args.checkpoint)
    else:
        raise ConfigError("eval needs --run DIR or --checkpoint FILE")
    graph, store = transplant.restore(ckpt_path)
    train, dev, test = build_dataset(cfg)
    split = {"train": train, "dev": dev, "test": test}.get(cfg["eval.split"])
    if split is None:
        raise ConfigError(f"eval.split must be train/dev/test, got {cfg['eval.split']!r}")
    if not split.examples:
        raise ConfigError(f"eval.split {cfg['eval.split']!r} has no examples to score")
    if graph.config.src_vocab_size != split.src_vocab.size or graph.config.tgt_vocab_size != split.tgt_vocab.size:
        raise ConfigError(
            f"vocabulary mismatch: checkpoint ({graph.config.src_vocab_size}/{graph.config.tgt_vocab_size}) "
            f"vs dataset ({split.src_vocab.size}/{split.tgt_vocab.size})"
        )
    beam = _int(cfg, "eval.beam")
    if beam < 1:
        raise ConfigError(f"eval.beam must be >= 1, got {beam}")
    len_norm = _float(cfg, "eval.len_norm")
    max_len = _int(cfg, "eval.max_len")
    if max_len < 0:
        raise ConfigError(f"eval.max_len must be >= 0 (0 picks 2 * data.len_max + 2), got {max_len}")
    max_len = max_len or 2 * _int(cfg, "data.len_max") + 2
    case = _flag(cfg, "eval.case_sensitive")

    if args.mt_checkpoint:  # cascade: this checkpoint is ASR, the flag is MT
        mt_graph, mt_store = transplant.restore(args.mt_checkpoint)
        vocab, refs = training.output_side(split, "st")
        hyps = [
            vocab.to_words(res.translation.content(vocab))
            for b in training.decode_batches(split)
            for res in cascade_batch(graph, store, mt_graph, mt_store, b, beam, max_len, len_norm)
        ]
        task = "cascade"
    else:
        task = cfg["eval.direction"] or default_direction(graph.topology)
        hyps = training.decode_corpus(graph, store, split, task, beam, max_len, len_norm)
        _, refs = training.output_side(split, task)
    report = metrics_mod.score_corpus(hyps, refs, case_sensitive=case)
    result = {"task": task, "split": cfg["eval.split"], "beam": beam, **report.to_dict()}
    out_dir = Path(args.out) if args.out else (run_dir or ckpt_path.parent)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"hyps_{cfg['eval.split']}.txt").write_text("".join(h + "\n" for h in hyps))
    (out_dir / f"eval_{cfg['eval.split']}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _run_label(cfg: dict[str, str]) -> str:
    cfg = {**DEFAULTS, **cfg}
    label = cfg["model.topology"]
    if _flag(cfg, "model.ctc"):
        label += " +CTC"
    if cfg["transplant.scheme"] != "none":
        label += f" [{cfg['transplant.scheme']}]"
    if _flag(cfg, "transplant.adapter"):
        label += " +adapter"
    return label


def cmd_compare(args, overrides) -> int:
    run_dirs = [Path(p) for p in args.runs]
    if len(run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    groups: dict[str, dict] = {}
    for run in run_dirs:
        try:
            cfg = json.loads((run / "config.json").read_text())
            rows = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
        except FileNotFoundError as exc:
            raise ConfigError(f"{run} is not a completed run directory ({exc})") from exc
        if not rows:
            raise ConfigError(f"{run} has an empty metrics.jsonl")
        best = RunRecord(rows).best_row
        entry = {"dev_bleu": best["dev"]["bleu"], "dev_ter": best["dev"]["ter"]}
        test_file = run / "eval_test.json"
        if test_file.exists():
            test = json.loads(test_file.read_text())
            entry["test_bleu"] = test["bleu"]
            entry["test_ter"] = test["ter"]
        label = _run_label(cfg)
        groups.setdefault(label, {"runs": [], "seeds": []})
        groups[label]["runs"].append(entry)
        groups[label]["seeds"].append(cfg.get("train.seed"))
    table = []
    for label, group in groups.items():
        row = {"method": label, "n_seeds": len(group["runs"])}
        for col in ("dev_bleu", "dev_ter", "test_bleu", "test_ter"):
            values = [r[col] for r in group["runs"] if col in r]
            row[col] = round(float(np.median(values)), 2) if values else None
        table.append(row)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "compare.json").write_text(json.dumps(table, indent=2) + "\n")
    lines = [f"{'method':40s} {'seeds':>5s} {'dev BLEU':>9s} {'dev TER':>8s} {'test BLEU':>10s} {'test TER':>9s}"]
    for row in table:
        lines.append(
            f"{row['method']:40s} {row['n_seeds']:5d} "
            f"{_cell(row['dev_bleu']):>9s} {_cell(row['dev_ter']):>8s} "
            f"{_cell(row['test_bleu']):>10s} {_cell(row['test_ter']):>9s}"
        )
    text = "\n".join(lines) + "\n"
    (out_dir / "compare.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


def _cell(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def cmd_transplant(args, overrides) -> int:
    cfg = resolve_config(args, overrides)
    if cfg["transplant.scheme"] == "none":
        raise ConfigError("transplant needs --scheme NAME (one of %s)" % (transplant.SCHEME_NAMES,))
    train, dev, test, graph, store, report = initialize_run(cfg)
    out = Path(args.out or "transplanted.ckpt")
    out.parent.mkdir(parents=True, exist_ok=True)
    transplant.save(graph, store, out)
    print(f"transplant: {report.summary()}")
    print(f"wrote initialized checkpoint to {out}")
    report_path = out.with_suffix(out.suffix + ".report.json") if out.suffix else out.with_name(out.name + ".report.json")
    report_path.write_text(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="run seed (train.seed)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--beam", type=int, help="beam size (eval.beam)")
    p.add_argument("--ctc", choices=["on", "off"], help="auxiliary CTC loss")
    p.add_argument("--topology", choices=models.TOPOLOGIES, help="model topology")
    p.add_argument("--scheme", help="transplant scheme name")
    p.add_argument("--adapter", choices=["on", "off"], help="insert the adapter layer")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="deskst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "generate-data", "transplant"):
        p = sub.add_parser(name)
        _add_common(p)
    p = sub.add_parser("eval")
    _add_common(p)
    p.add_argument("--run", help="run directory (uses its config and best checkpoint)")
    p.add_argument("--checkpoint", help="explicit checkpoint file")
    p.add_argument("--mt-checkpoint", help="MT checkpoint: evaluate the ASR->MT cascade")
    p = sub.add_parser("compare")
    p.add_argument("runs", nargs="*", help="completed run directories")
    p.add_argument("--out", help="output directory")

    args, overrides = parser.parse_known_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args, overrides)
        if args.command == "generate-data":
            return cmd_generate_data(args, overrides)
        if args.command == "eval":
            return cmd_eval(args, overrides)
        if args.command == "compare":
            return cmd_compare(args, overrides)
        if args.command == "transplant":
            return cmd_transplant(args, overrides)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, transplant.TransplantError, data_mod.DataError, DirectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (OSError, transplant.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
