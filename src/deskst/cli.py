"""Experiment driver: train any topology, evaluate checkpoints, apply
pre-training transplants, and emit comparison tables.

Configuration is a flat key=value file with sectioned keys (model.*, data.*,
train.*, transplant.*, eval.*); every key can be overridden on the command
line with a flag of the same name (e.g. --model.enc_layers 4). Every key is
parsed and checked once, into a RunConfig, before a command does anything
else. A run directory is reproducible from its config.json alone at a fixed
BLAS thread count (e.g. OPENBLAS_NUM_THREADS=1): across thread counts
metrics.jsonl has matched, but checkpoints differed in their last bits.

Exit codes: 0 success, 2 configuration error, 3 training divergence,
4 I/O or checkpoint error, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import models, training, transplant
from .decode import DirectionError, cascade_batch, default_direction, default_max_len
from .tensor import NumericsError
from .training import DivergenceError, RunRecord, TrainSchedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


class CorruptRunFileError(Exception):
    """A run-directory file that is not valid JSON, or lacks a value a command
    reads (exit 4, as a corrupt checkpoint)."""


def _read_json(path: Path, lines: bool = False) -> Any:
    """The JSON value in ``path``, or with ``lines`` the list of its lines'
    values (metrics.jsonl). A missing file raises FileNotFoundError."""
    try:
        text = path.read_text()
        return [json.loads(line) for line in text.splitlines()] if lines else json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise CorruptRunFileError(f"{path} is not valid JSON ({exc})") from exc


def _read_config(run_dir: Path) -> dict[str, str]:
    """A run's config.json: an object of string values under known keys, as
    ``train`` writes it."""
    path = run_dir / "config.json"
    cfg = _read_json(path)
    if not (isinstance(cfg, dict) and all(isinstance(value, str) for value in cfg.values())):
        raise CorruptRunFileError(f"{path} holds no object of string values")
    unknown = [key for key in cfg if key not in KEYS]
    if unknown:
        raise CorruptRunFileError(f"{path} has unknown key {unknown[0]!r}")
    return cfg


def _holds(value: Any, key: str, kind: type | tuple[type, ...]) -> bool:
    """Whether a JSON value is an object whose ``key`` is of type ``kind``
    (a bool counts as no number)."""
    return isinstance(value, dict) and isinstance(value.get(key), kind) and not isinstance(value[key], bool)


@dataclass(frozen=True)
class TransplantConfig:
    scheme: str = "none"
    adapter: bool = False
    asr_checkpoint: str = ""
    mt_checkpoint: str = ""


@dataclass(frozen=True)
class EvalConfig:
    split: str = "test"
    beam: int = 12
    direction: str = ""  # empty: the topology's default direction
    case_sensitive: bool = True
    max_len: int = 0  # 0 picks 2 * data.len_max + 2


@dataclass(frozen=True)
class RunConfig:
    """A parsed and checked config. eval.len_norm is train.len_norm."""

    model: models.ModelConfig
    data: data_mod.DataConfig = data_mod.DataConfig()
    train: TrainSchedule = TrainSchedule()
    transplant: TransplantConfig = TransplantConfig()
    eval: EvalConfig = EvalConfig()
    topology: str = "direct"
    seed: int = 0  # train.seed


def _flag(cfg, key) -> bool:
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


def _growth(cfg, key) -> tuple[tuple[int, int], ...]:
    """train.growth as (epoch, encoder layers) steps. The first step is
    epoch 0, the starting depth; epochs and depths strictly increase, up to
    model.enc_layers."""
    text = cfg[key]
    if not text:
        return ()
    try:
        steps = tuple((int(epoch), int(layers)) for epoch, layers in (part.split(":") for part in text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"{key} must be epoch:layers steps such as 0:2,5:3, got {text!r}") from exc
    epochs, depths = zip(*steps)
    if epochs[0] != 0:
        raise ConfigError(f"{key} must start with 0:N, the starting encoder layers, got {text!r}")
    if any(a >= b for seq in (epochs, depths) for a, b in zip(seq, seq[1:])):
        raise ConfigError(f"{key} epochs and layer counts must strictly increase, got {text!r}")
    if depths[0] < 1 or depths[-1] > _int(cfg, "model.enc_layers"):
        raise ConfigError(f"{key} layer counts must lie in [1, model.enc_layers], got {text!r}")
    return steps


class Key(NamedTuple):
    """A key's parser; its range check as (test, what it demands) or the library argument that checks it;
    and the field it sets ("run.x" is RunConfig.x) when that is not the key."""

    parse: Callable[[dict[str, str], str], Any] = lambda cfg, key: cfg[key]
    check: tuple[Callable[[Any], bool], str] | None = None
    field: str = ""
    library: str = ""


def _one_of(*options: str) -> tuple[Callable[[Any], bool], str]:
    return lambda value: value in options, "one of " + ", ".join(options)


_POSITIVE = (lambda value: value >= 1, ">= 1")
_NON_NEGATIVE = (lambda value: value >= 0, ">= 0")
_FRACTION = (lambda value: 0 <= value < 1, "in [0, 1)")
_FINITE_NON_NEGATIVE = (lambda value: 0 <= value < math.inf, "finite and >= 0")

KEYS: dict[str, Key] = {
    "model.topology": Key(check=_one_of(*models.TOPOLOGIES), field="run.topology"),
    "model.emb_size": Key(_int, _POSITIVE),
    "model.enc_hidden": Key(_int, _POSITIVE),
    "model.enc_layers": Key(_int, _POSITIVE),
    "model.dec_hidden": Key(_int, _POSITIVE),
    "model.dec_layers": Key(_int, _POSITIVE),
    "model.attn_dim": Key(_int, _POSITIVE),
    "model.pool_schedule": Key(_ints, library="pool_schedule"),
    "model.loss_weight": Key(_float, library="loss_weight"),
    "model.ctc": Key(_flag, field="model.ctc_enabled"),
    "model.dropout": Key(_float, _FRACTION),
    "model.label_smoothing": Key(_float, _FRACTION),
    "data.vocab_size": Key(_int, library="vocab_size"),
    "data.n_train": Key(_int, _POSITIVE),
    "data.n_dev": Key(_int, _POSITIVE),
    "data.n_test": Key(_int, _NON_NEGATIVE),
    "data.len_min": Key(_int, library="len_range"),
    "data.len_max": Key(_int, library="len_range"),
    "data.frames_min": Key(_int, library="frames_per_token_range"),
    "data.frames_max": Key(_int, library="frames_per_token_range"),
    "data.noise_sigma": Key(_float, _FINITE_NON_NEGATIVE),
    "data.seed": Key(_int, _NON_NEGATIVE),
    "data.task_seed": Key(_int, _NON_NEGATIVE),
    "train.seed": Key(_int, _NON_NEGATIVE, "run.seed"),
    "train.epochs": Key(_int, _NON_NEGATIVE),  # 0 scores the initialization only
    "train.batch_size": Key(_int, _POSITIVE),
    "train.lr": Key(_float, (lambda value: 0 < value < math.inf, "finite and > 0"), "train.learning_rate"),
    "train.lr_decay": Key(_float, (lambda value: 0 < value <= 1, "in (0, 1]")),
    "train.lr_patience": Key(_int, _POSITIVE),
    "train.eval_every": Key(_int, _POSITIVE),
    "train.max_len": Key(_int, _POSITIVE),
    "train.growth": Key(_growth),
    "train.dev_beam": Key(_int, _POSITIVE),
    "transplant.scheme": Key(check=_one_of(*transplant.SCHEME_NAMES)),
    "transplant.adapter": Key(_flag),
    "transplant.asr_checkpoint": Key(),
    "transplant.mt_checkpoint": Key(),
    "eval.split": Key(check=_one_of("train", "dev", "test")),
    "eval.beam": Key(_int, _POSITIVE),
    "eval.direction": Key(check=(lambda value: value in ("", "st", "asr", "mt"), "st, asr, mt or empty")),
    "eval.len_norm": Key(_float, _FINITE_NON_NEGATIVE, "train.len_norm"),
    "eval.case_sensitive": Key(_flag),
    "eval.max_len": Key(_int, (lambda value: value >= 0, ">= 0 (0 picks 2 * data.len_max + 2)")),
}


def _default(key: str) -> str:
    """The default of the field a key sets, as config text."""
    section, name = (KEYS[key].field or key).split(".")
    run = RunConfig(models.ModelConfig(0, 0, 0))  # vocabulary sizes have no default
    value = getattr(run if section == "run" else getattr(run, section), name)
    if isinstance(value, bool):
        return "on" if value else "off"
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


DEFAULTS: dict[str, str] = {key: _default(key) for key in KEYS}


def parse_config(cfg: dict[str, str]) -> RunConfig:
    """Parse and check every key of cfg, over DEFAULTS for the keys it
    lacks; a ConfigError names the first bad key."""
    cfg = {**DEFAULTS, **cfg}
    fields: dict[str, dict[str, Any]] = {"run": {}, "model": {}, "data": {}, "train": {}, "transplant": {}, "eval": {}}
    for key, (parse, check, field, _) in KEYS.items():
        value = parse(cfg, key)
        if check is not None and not check[0](value):
            raise ConfigError(f"{key} must be {check[1]}, got {cfg[key]!r}")
        section, name = (field or key).split(".")
        fields[section][name] = value
    data = data_mod.DataConfig(**fields["data"])
    try:  # the library's messages start with the argument they reject
        model = models.ModelConfig.desk(*data.vocabularies(), **fields["model"])
    except (data_mod.DataError, NumericsError) as exc:
        argument, _, rest = str(exc).partition(" ")
        raise ConfigError("/".join(key for key, row in KEYS.items() if row.library == argument) + " " + rest) from exc
    sections = TrainSchedule(**fields["train"]), TransplantConfig(**fields["transplant"]), EvalConfig(**fields["eval"])
    # The longest decode: eval's, or train's dev decode at its default length.
    longest = max(fields["eval"]["max_len"], default_max_len(data.len_max))
    try:
        float(longest) ** fields["train"]["len_norm"]
    except OverflowError:
        message = f"eval.len_norm must keep {longest}**len_norm a finite float, got {cfg['eval.len_norm']!r}"
        raise ConfigError(message) from None
    return RunConfig(model, data, *sections, **fields["run"])


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


def given_config(args: argparse.Namespace, overrides: list[str]) -> dict[str, str]:
    """The keys a command line sets: config file <- free --section.key flags <- named flags."""
    given = parse_config_file(args.config) if args.config else {}
    if len(overrides) % 2:
        raise ConfigError(f"dangling override {overrides[-1]!r}; expected --key value pairs")
    for flag, value in zip(overrides[::2], overrides[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"unexpected argument {flag!r}")
        given[flag[2:]] = value
    unknown = [key for key in given if key not in KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    given.update((key, value) for key, value in vars(args).items() if key in KEYS and value is not None)
    return given


def build_schedule(cfg: dict[str, str]) -> TrainSchedule:
    return parse_config(cfg).train


def build_model(run: RunConfig) -> tuple[models.ModelGraph, models.ParamStore, transplant.TransplantReport | None]:
    """Graph (with scheme/adapter applied, at train.growth's starting depth)
    and its fresh or grafted store."""
    growth = run.train.growth
    try:
        graph = models.build(run.model, run.topology, growth[0][1] if growth else None, run.transplant.adapter)
    except NumericsError as exc:
        raise ConfigError(str(exc)) from exc
    store = models.init_store(graph, run.seed)
    report = None
    donors = run.transplant
    if donors.scheme != "none":
        asr = transplant.load(donors.asr_checkpoint) if donors.asr_checkpoint else None
        mt = transplant.load(donors.mt_checkpoint) if donors.mt_checkpoint else None
        scheme = transplant.resolve_scheme(donors.scheme, run.topology, asr_checkpoint=asr, mt_checkpoint=mt)
        report = transplant.apply_transplant(graph, store, scheme)
    return graph, store, report


def initialize_run(cfg: dict[str, str]):
    """(train, dev, test, graph, store, transplant report) of a string config, as perfbench sets up."""
    run = parse_config(cfg)
    graph, store, report = build_model(run)
    return (*run.data.splits(), graph, store, report)


def cmd_generate_data(args, overrides) -> int:
    run = parse_config(given_config(args, overrides))
    out = Path(args.out or "data")
    out.mkdir(parents=True, exist_ok=True)
    train, dev, test = run.data.splits()
    for name, ds in (("train", train), ("dev", dev), ("test", test)):
        data_mod.save_dataset(ds, out / f"{name}.jsonl")
        print(f"wrote {out / (name + '.jsonl')} ({len(ds)} examples)")
    return EXIT_OK


def cmd_train(args, overrides) -> int:
    cfg = {**DEFAULTS, **given_config(args, overrides)}
    run = parse_config(cfg)
    graph, store, report = build_model(run)
    train, dev, _ = run.data.splits()
    out = Path(args.out or "runs/run")
    out.mkdir(parents=True, exist_ok=True)
    if report is not None:
        print(f"transplant: {report.summary()}")
        (out / "transplant.json").write_text(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    record, best = training.train_model(graph, store, train, dev, run.train, out_dir=out, seed=run.seed)
    row = record.best_row
    print(
        f"best checkpoint: {row['checkpoint']} (epoch {row['epoch']}) "
        f"dev BLEU {row['dev']['bleu']:.2f} TER {row['dev']['ter']:.2f} "
        f"accuracy {row['dev']['token_accuracy']:.3f}"
    )
    return EXIT_OK


def _check_vocabularies(graph: models.ModelGraph, split: data_mod.Dataset, what: str) -> None:
    """ConfigError unless ``graph`` was built for the split's vocabularies."""
    if graph.config.src_vocab_size != split.src_vocab.size or graph.config.tgt_vocab_size != split.tgt_vocab.size:
        raise ConfigError(
            f"vocabulary mismatch: {what} ({graph.config.src_vocab_size}/{graph.config.tgt_vocab_size}) "
            f"vs dataset ({split.src_vocab.size}/{split.tgt_vocab.size})"
        )


def cmd_eval(args, overrides) -> int:
    given = given_config(args, overrides)
    run_dir = None
    if args.run:
        run_dir = Path(args.run)
        fixed = [key for key in given if not key.startswith("eval.")]
        if fixed:
            raise ConfigError(f"{fixed[0]} is fixed by the run's config.json; eval --run takes --beam and eval.* only")
        run = parse_config({**_read_config(run_dir), **given})
        marker = run_dir / "best"
        if not marker.exists():
            raise ConfigError(f"{run_dir} has no best-checkpoint marker")
        best = _read_json(marker)
        if not _holds(best, "checkpoint", str):
            raise CorruptRunFileError(f"{marker} names no checkpoint (no string 'checkpoint' key)")
        ckpt_path = run_dir / best["checkpoint"]
    elif args.checkpoint:
        run = parse_config(given)
        ckpt_path = Path(args.checkpoint)
    else:
        raise ConfigError("eval needs --run DIR or --checkpoint FILE")
    graph, store = transplant.restore(ckpt_path)
    train, dev, test = run.data.splits()
    split = {"train": train, "dev": dev, "test": test}[run.eval.split]
    if not split.examples:
        raise ConfigError(f"eval.split {run.eval.split!r} has no examples to score")
    _check_vocabularies(graph, split, "checkpoint")
    beam, len_norm = run.eval.beam, run.train.len_norm
    max_len = run.eval.max_len or default_max_len(run.data.len_max)

    if args.mt_checkpoint:  # cascade: this checkpoint is ASR, the flag is MT
        mt_graph, mt_store = transplant.restore(args.mt_checkpoint)
        _check_vocabularies(mt_graph, split, "MT checkpoint")
        vocab, refs = training.output_side(split, "st")
        hyps = [
            vocab.to_words(res.translation.content(vocab))
            for b in training.decode_batches(split)
            for res in cascade_batch(graph, store, mt_graph, mt_store, b, beam, max_len, len_norm)
        ]
        task = "cascade"
    else:
        task = run.eval.direction or default_direction(graph.topology)
        hyps = training.decode_corpus(graph, store, split, task, beam, max_len, len_norm)
        _, refs = training.output_side(split, task)
    report = metrics_mod.score_corpus(hyps, refs, case_sensitive=run.eval.case_sensitive)
    result = {"task": task, "split": run.eval.split, "beam": beam, **report.to_dict()}
    out_dir = Path(args.out) if args.out else (run_dir or ckpt_path.parent)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"hyps_{run.eval.split}.txt").write_text("".join(h + "\n" for h in hyps))
    (out_dir / f"eval_{run.eval.split}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _run_label(run: RunConfig) -> str:
    label = run.topology
    if run.model.ctc_enabled:
        label += " +CTC"
    if run.transplant.scheme != "none":
        label += f" [{run.transplant.scheme}]"
    if run.transplant.adapter:
        label += " +adapter"
    return label


def cmd_compare(args, overrides) -> int:
    run_dirs = [Path(p) for p in args.runs]
    if len(run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    groups: dict[str, list[dict]] = {}
    for run in run_dirs:
        try:
            cfg = _read_config(run)
            rows = _read_json(run / "metrics.jsonl", lines=True)
        except FileNotFoundError as exc:
            raise ConfigError(f"{run} is not a completed run directory ({exc})") from exc
        if not rows:
            raise ConfigError(f"{run} has an empty metrics.jsonl")
        if not all(
            _holds(row, "dev", dict) and all(_holds(row["dev"], key, (int, float)) for key in ("bleu", "ter")) for row in rows
        ):
            raise CorruptRunFileError(f"{run / 'metrics.jsonl'} has a line without numeric dev.bleu and dev.ter")
        best = RunRecord(rows).best_row
        entry = {"dev_bleu": best["dev"]["bleu"], "dev_ter": best["dev"]["ter"]}
        test_file = run / "eval_test.json"
        if test_file.exists():
            test = _read_json(test_file)
            if not all(_holds(test, key, (int, float)) for key in ("bleu", "ter")):
                raise CorruptRunFileError(f"{test_file} has no numeric bleu and ter")
            entry["test_bleu"] = test["bleu"]
            entry["test_ter"] = test["ter"]
        groups.setdefault(_run_label(parse_config(cfg)), []).append(entry)
    table = []
    for label, entries in groups.items():
        row = {"method": label, "n_seeds": len(entries)}
        for col in ("dev_bleu", "dev_ter", "test_bleu", "test_ter"):
            values = [r[col] for r in entries if col in r]
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
    run = parse_config(given_config(args, overrides))
    if run.transplant.scheme == "none":
        raise ConfigError("transplant needs --scheme NAME (one of %s)" % (transplant.SCHEME_NAMES,))
    graph, store, report = build_model(run)
    out = Path(args.out or "transplanted.ckpt")
    out.parent.mkdir(parents=True, exist_ok=True)
    transplant.save(graph, store, out)
    print(f"transplant: {report.summary()}")
    print(f"wrote initialized checkpoint to {out}")
    report_path = out.with_suffix(out.suffix + ".report.json") if out.suffix else out.with_name(out.name + ".report.json")
    report_path.write_text(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    """The named flags are aliases of config keys, which parse_config checks."""
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", dest="train.seed", help="run seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--beam", dest="eval.beam", help="beam size")
    p.add_argument("--ctc", dest="model.ctc", help="auxiliary CTC loss: on or off")
    p.add_argument("--topology", dest="model.topology", help="one of " + ", ".join(models.TOPOLOGIES))
    p.add_argument("--scheme", dest="transplant.scheme", help="transplant scheme name")
    p.add_argument("--adapter", dest="transplant.adapter", help="insert the adapter layer: on or off")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="deskst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "generate-data", "transplant"):
        _add_common(sub.add_parser(name))
    p = sub.add_parser("eval")
    _add_common(p)
    p.add_argument("--run", help="run directory (uses its config and best checkpoint)")
    p.add_argument("--checkpoint", help="explicit checkpoint file")
    p.add_argument("--mt-checkpoint", help="MT checkpoint: evaluate the ASR->MT cascade")
    p = sub.add_parser("compare")
    p.add_argument("runs", nargs="*", help="completed run directories")
    p.add_argument("--out", help="output directory")

    args, overrides = parser.parse_known_args(argv)
    commands = {
        "train": cmd_train,
        "generate-data": cmd_generate_data,
        "transplant": cmd_transplant,
        "eval": cmd_eval,
        "compare": cmd_compare,
    }
    try:
        return commands[args.command](args, overrides)
    except (ConfigError, transplant.TransplantError, data_mod.DataError, DirectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (OSError, transplant.CheckpointError, CorruptRunFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
