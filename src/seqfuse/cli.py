"""Command-line pipeline: generate, cohort, featurize, train, calibrate,
evaluate, report, importance, or the whole chain at once.

Every stage reads one JSON config, writes into its own subdirectory of the
run directory, and records a manifest with SHA-256 hashes of everything it
read and wrote. `require_inputs` is the one staleness rule: each input must
match its producer's manifest, and each manifest upstream must record the
hashes its inputs' producers declare now, or the stage exits 3 naming the
earliest stale stage. `run_stage` runs a stage body under that protocol
over `_artifacts`, the one list of each stage's inputs and outputs.

Every array a stage hands on goes out through `claims.write_npz` and back
in through `claims.read_npz`. `generate` draws the claims straight into
columns, checks them as cohort will, and writes them as
`generate/claims.npz`, with the planted events' ground truth. `cohort`
checks them again as it reads them (`ingest_claims`) and writes only the
stays and index events it built to `cohort/population.npz`; `featurize`
computes its features from the claim columns of `generate/claims.npz` and
those of `cohort/population.npz` together, without checking the claims or
building the cohort again.
`featurize` hands its events on in one form, the columnar
`featurize/events.npz` (an `EventTable`). Every later stage reads the run
once, through `_load_sequences`: the task's events, featurize's metadata,
the 0/1 labels and the flat table (`RunData.flat`). Every stage places
each event in its patient's fold (`RunData.fold_of`): train from its own
split, later stages from `train/split.json`'s patient lists, which must be
for the config's task. Train writes its trial rows, curves, summary and
best models straight from the grid's trial records. The deep
cells train and predict on rows of the table. `train` builds the frozen
matrix of the `pretrained` embedding mode itself, for each trial at its
`embed_dim` (`model.random_embedding`), so no stage writes it. It saves
each cell's best model, LR or deep, as `model.json` (its config and the z
moments) and `weights.npz` (its arrays). `calibrate` keeps each cell's
uncalibrated scores in `calibrate/raw_scores.npz`; evaluate, report and
importance map them through the cell's calibrator (`_cell_scores`) without
predicting again. No stage writes what only people read: `show` prints the
index events or a cell's per-event scores on demand, from current inputs,
naming each event by `claims.event_id`.

The config is one JSON object shaped like `default_config()`, which is
also its schema. `load_config` merges the file over the defaults (into a
grid, the axes of `_DEFAULT_AXES` it leaves out), and `validate_config`
walks the result against that shape before any stage runs: unknown keys,
types, then each value's range (`_RANGES`). A stage body reads `cfg[...]`
directly and keeps no defaults of its own, and neither do the grid
runners; the library functions they call take the checked values as given.

Exit codes: 0 success, 1 standard output closed by its reader (as by
`seqfuse show ... | head`), 2 invalid input or config, 3 missing/stale
prerequisite artifacts, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import _sigmoid
from .baseline import FlatTable, flatten, make_lr_runner
from .calibration import Calibrator, ece, fit_platt, fit_temperature, nll
from .claims import TRUTH_COLUMNS, SyntheticConfig, generate_population, ingest_claims, read_npz, write_npz
from .cohort import POPULATION_MEMBERS, build_cohort, cohort_summary, index_event_lines
from .errors import MetricUndefinedError, NumericsError, ParseError, PrerequisiteError, SeqfuseError, ValidationError
from .features import EventTable, SequenceOptions, featurize_events
from .knowledge import load_bundle
from .metrics import (
    auc,
    recall_at_top_k,
    recall_precision_at_threshold,
    subgroup_report,
    surrogate_importance,
)
from .model import EMBEDDINGS as EMBEDDING_MODES, load_model
from .rng import derive_seed
from .training import (
    FOLD_NAMES,
    apply_standardizer,
    config_hash,
    grid_search,
    make_deep_runner,
    split_patients,
    top_trials,
)

STAGES = ("generate", "cohort", "featurize", "train", "calibrate", "evaluate", "report", "importance")
TASKS = ("readmission", "mortality")
ALGORITHMS = ("lr", "rnn", "early_fusion", "late_fusion")
ALGORITHM_LABELS = {"lr": "LR", "rnn": "RNN", "early_fusion": "Early Fusion", "late_fusion": "Late Fusion"}
FUSION_OF = {"rnn": "none", "early_fusion": "early", "late_fusion": "late"}


def default_config(outdir: str = "runs/demo", n_patients: int = 2000, seed: int = 20110901) -> dict:
    return {
        "outdir": outdir,
        "seed": seed,
        "task": "readmission",
        "generate": {
            "n_patients": n_patients,
            "mean_claims_per_patient": 6.0,
        },
        "features": {
            "include_outpatient": True,
            "exclude_index_step": False,
            "lookback_days": 365,
        },
        "train": {
            "algorithms": ["lr", "early_fusion", "late_fusion"],
            "embedding_modes": ["linear"],
            "fractions": [0.70, 0.15, 0.05, 0.10],
            "epochs": 15,
            "patience": 3,
            "grid": {
                "embed_dim": [16],
                "hidden_dim": [24],
                "n_gru_layers": [1],
                "mlp_hidden_dims": [[16]],
                "lr": [0.02],
                "batch_size": [32],
                "w_pos": [2.0],
            },
            "lr_grid": {"l2": [0.1, 0.01], "smote": [True]},
        },
        "evaluate": {"threshold": 0.5, "top_k": [50], "n_min": 50},
    }


# The grid axes a config may leave out: `load_config` fills each one from
# `default_config`.
_DEFAULT_AXES = {"grid": ("n_gru_layers", "mlp_hidden_dims", "batch_size", "w_pos"), "lr_grid": ("smote",)}

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}

# A list of choices (the cells' algorithms and embedding modes, each grid
# axis, the top-k cutoffs) lists each value once, by Python equality, so 2
# and 2.0 are one value. `train.fractions` and the widths of one
# `mlp_hidden_dims` entry are positional and may repeat one.
_ONCE = (lambda v: all(x not in v[:i] for i, x in enumerate(v)), "must list each value once")


def _choices(check, message: str) -> tuple:
    """The rules of a list of choices: `check` over the list, then `_ONCE`."""
    return (check, message), _ONCE


_POSITIVE = ((lambda v: v > 0, "must be positive"),)
_POSITIVE_VALUES = _choices(lambda v: v and min(v) > 0, "must be a non-empty list of positive values")

# {path: rules}: the range of each value, checked only once the value has
# its schema type. A rule is (check, message), and the first that fails is
# the value's one problem. Library functions take checked values as given.
_RANGES = {
    "outdir": ((bool, "must be a non-empty string"),),
    "task": ((lambda v: v in TASKS, f"must be one of {TASKS}"),),
    "generate.n_patients": _POSITIVE,
    "generate.mean_claims_per_patient": _POSITIVE,
    "features.lookback_days": _POSITIVE,
    "train.algorithms": _choices(
        lambda v: v and set(v) <= set(ALGORITHMS), f"must be a non-empty subset of {ALGORITHMS}"
    ),
    "train.embedding_modes": _choices(
        lambda v: v and set(v) <= set(EMBEDDING_MODES), f"must be a non-empty subset of {EMBEDDING_MODES}"
    ),
    "train.fractions": (
        (
            lambda v: len(v) == 4 and min(v) > 0 and abs(sum(v) - 1.0) <= 1e-9,
            "must be four positive numbers summing to 1",
        ),
    ),
    "train.epochs": _POSITIVE,
    "train.patience": ((lambda v: v >= 0, "must be non-negative"),),
    **{f"train.grid.{axis}": _POSITIVE_VALUES for axis in ("embed_dim", "hidden_dim", "lr", "batch_size", "w_pos")},
    "train.grid.n_gru_layers": _choices(
        lambda v: v and min(v) >= 1, "must be a non-empty list of values of at least 1"
    ),
    "train.grid.mlp_hidden_dims": _choices(
        lambda v: v and all(width > 0 for dims in v for width in dims),
        "must be a non-empty list of lists of positive widths",
    ),
    "train.lr_grid.l2": _POSITIVE_VALUES,
    "train.lr_grid.smote": _choices(bool, "must be a non-empty list"),
    "evaluate.threshold": ((lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),),
    "evaluate.top_k": _choices(lambda v: all(k >= 1 for k in v), "must hold integers of at least 1"),
    "evaluate.n_min": ((lambda v: v >= 1, "must be at least 1"),),
}


_ANY = object()

# {path: value} of the keys that configs from older versions may carry. A
# key holding its value here (of the schema's type, so `true` is not 1.0),
# or any value where that is `_ANY`, is dropped rather than hashed; any
# other value stays, an unknown key.
_REMOVED_KEYS = {
    # Results never depended on the worker count.
    "train.jobs": _ANY,
    # It had to equal every `train.grid.embed_dim`; the frozen matrix now
    # takes each trial's own.
    "features.pretrained_embed_dim": _ANY,
    # From when a config could name its own rule tables.
    "knowledge": {},
    # The only vocabulary the generator ever drew: 90 dx and 36 proc codes.
    "generate.dx_vocab": 90,
    "generate.proc_vocab": 36,
    # The one calibration protocol.
    "calibrate": {"method_deep": "temperature", "method_lr": "platt"},
    # Under Adam, (w_pos, w_neg) trains like (w_pos / w_neg, 1), which the
    # grid's `w_pos` axis already spans.
    "train.w_neg": 1.0,
    # The one optimizer training uses.
    "train.optimizer": "adam",
}


def _has_type(value, like) -> bool:
    # An int passes where the schema has a float. JSON true/false load as
    # bools, which Python counts as ints, so they pass only as booleans.
    if isinstance(like, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(like)


def _walk(value, schema, path: str, problems: list[str]) -> None:
    """Appends to `problems` each way `value` departs from `schema`, the
    value at `path` in `default_config`'s shape, and then its range
    problem if the value and everything in it had the schema's type."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            problems.append(f"{path or 'config'} must be a JSON object")
            return
        unknown = sorted(set(value) - set(schema))
        if unknown:
            problems.append(f"unknown {path or 'config'} keys: {unknown}")
        for key, like in schema.items():
            key_path = f"{path}.{key}" if path else key
            if key in value:
                _walk(value[key], like, key_path, problems)
            else:
                problems.append(f"{key_path} is missing")
        return
    start = len(problems)
    if isinstance(schema, list):
        if not isinstance(value, list):
            problems.append(f"{path} must be a list")
        else:
            for i, item in enumerate(value):
                _walk(item, schema[0], f"{path}[{i}]", problems)
    elif not _has_type(value, schema):
        problems.append(f"{path} must be {_TYPE_NAMES[type(schema)]}")
    if len(problems) == start:
        failed = next((message for check, message in _RANGES.get(path, ()) if not check(value)), None)
        if failed:
            problems.append(f"{path} {failed}")


def validate_config(cfg: dict) -> list[str]:
    """Every problem with a complete config, all reported together and
    each naming its key's path. `default_config` is the schema: an object
    holds exactly the schema's keys; a list holds values shaped like the
    schema's first element; a scalar has the schema's type. A value with
    its type is then checked against `_RANGES`, so a wrong type is one
    problem rather than a crash."""
    problems: list[str] = []
    _walk(cfg, default_config(), "", problems)
    return problems


def load_config(path: str, outdir: str | None = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"config is not valid JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    merged = default_config()
    for key, value in cfg.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    if outdir is not None:
        merged["outdir"] = outdir
    train = merged["train"]
    for grid, axes in _DEFAULT_AXES.items():
        if isinstance(train, dict) and isinstance(train.get(grid), dict):
            defaults = default_config()["train"][grid]
            train[grid] = {**{axis: defaults[axis] for axis in axes}, **train[grid]}
    for path, dropped in _REMOVED_KEYS.items():
        section, _, key = path.rpartition(".")
        holder = merged[section] if section else merged
        if isinstance(holder, dict) and key in holder:
            value = holder[key]
            if dropped is _ANY or (_has_type(value, dropped) and value == dropped):
                del holder[key]
    return _valid(merged)


def _valid(cfg: dict) -> dict:
    """`cfg`, once `validate_config` finds no problem with it."""
    problems = validate_config(cfg)
    if problems:
        raise ValidationError("invalid config:\n  " + "\n  ".join(problems))
    return cfg


# --- manifests -------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(outdir: Path, stage: str, cfg: dict, inputs: dict[str, str], outputs: list[str]) -> None:
    manifest = {
        "stage": stage,
        "version": __version__,
        "seed": cfg["seed"],
        # Hash everything but the run location, so moving a run does not
        # change what experiment the manifests claim it was.
        "config_hash": config_hash({k: v for k, v in cfg.items() if k != "outdir"}),
        "inputs": inputs,
        "outputs": {rel: _sha256(outdir / rel) for rel in sorted(outputs)},
    }
    _write_json(outdir / stage / "manifest.json", manifest)


def require_inputs(outdir: Path, relpaths: list[str]) -> dict[str, str]:
    """The one staleness rule: each input must match the hash its producer's
    manifest declares, and each manifest upstream must record the hashes its
    inputs' producers declare now, compared manifest to manifest, so only the
    inputs are hashed. Returns {relpath: hash} for the consumer's manifest."""
    manifests: dict[str, dict] = {}

    def declared(rel: str) -> str | None:
        stage = rel.split("/", 1)[0]
        if stage not in manifests:
            path = outdir / stage / "manifest.json"
            if not path.is_file():
                raise PrerequisiteError(f"missing {path}; run `seqfuse {stage}` first")
            try:
                manifests[stage] = json.loads(path.read_text(encoding="utf-8"))
                shaped = all(isinstance(manifests[stage][key], dict) for key in ("inputs", "outputs"))
            except (ValueError, TypeError, KeyError):  # not UTF-8 or JSON, or not a manifest's shape
                shaped = False
            if not shaped:
                raise PrerequisiteError(f"{path} is not a stage manifest; rerun `seqfuse {stage}`")
        return manifests[stage]["outputs"].get(rel)

    verified: dict[str, str] = {}
    for rel in sorted(relpaths):
        producer = rel.split("/", 1)[0]
        if declared(rel) is None:
            raise PrerequisiteError(f"stage {producer!r} does not declare output {rel!r}; rerun it")
        if not (outdir / rel).is_file():
            raise PrerequisiteError(f"missing artifact {rel!r}; rerun `seqfuse {producer}`")
        verified[rel] = _sha256(outdir / rel)
        if verified[rel] != declared(rel):
            raise PrerequisiteError(
                f"artifact {rel!r} does not match the hash recorded by stage {producer!r}; rerun it"
            )
    # Walked backwards, STAGES reaches each upstream manifest after `declared`
    # loads it. The earliest stale stage is named, with its first stale input.
    stale = [
        (stage, rel)
        for stage in reversed(STAGES) if stage in manifests
        for rel, recorded in sorted(manifests[stage]["inputs"].items()) if declared(rel) != recorded
    ]
    if stale:
        stage, rel = min(stale, key=lambda pair: (STAGES.index(pair[0]), pair[1]))
        raise PrerequisiteError(
            f"stage {stage!r} read a {rel} that {rel.split('/', 1)[0]!r} has rewritten since; rerun `seqfuse {stage}`"
        )
    return verified


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _write_csv(path: Path, rows) -> None:
    """Writes `rows`, the header row first, as CSV lines ending in a bare newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# --- stage helpers ----------------------------------------------------------


def _cells(cfg: dict) -> list[tuple[str, str]]:
    """(algorithm, embedding mode) pairs; the flat baseline has no
    embedding, so it runs once under the linear column."""
    cells: list[tuple[str, str]] = []
    for algorithm in ALGORITHMS:
        if algorithm not in cfg["train"]["algorithms"]:
            continue
        if algorithm == "lr":
            cells.append((algorithm, "linear"))
        else:
            cells.extend((algorithm, mode) for mode in cfg["train"]["embedding_modes"])
    return cells


def _cell_name(algorithm: str, mode: str) -> str:
    return f"{algorithm}__{mode}"


def _artifacts(cfg: dict) -> dict[str, tuple[list[str], list[str]]]:
    """{stage: (inputs, outputs)}, relative to the run directory: the only
    list of what each stage reads from earlier stages and what it writes.
    `run_stage` verifies the inputs before a stage runs and hashes the
    outputs into its manifest after."""
    cells = _cells(cfg)
    models = [
        f"train/models/{_cell_name(algorithm, mode)}/best/{name}"
        for algorithm, mode in cells
        for name in ("model.json", "weights.npz")
    ]
    population = ["generate/claims.npz"]
    events = ["featurize/events.npz", "featurize/features.json"]
    calibrated = ["calibrate/calibrators.json", "calibrate/raw_scores.npz"]
    # Report and importance read the scores of the cell metrics.json names.
    best_cell = events + calibrated + ["evaluate/metrics.json", "train/split.json"]
    return {
        "generate": ([], population + ["generate/truth.npz", "generate/generator_info.json"]),
        "cohort": (population, ["cohort/population.npz", "cohort/summary.csv", "cohort/audit.json"]),
        "featurize": (["cohort/population.npz"] + population, events),
        "train": (
            events,
            ["train/split.json", "train/trials.csv", "train/curves.jsonl", "train/summary.json"] + models,
        ),
        "calibrate": (events + ["train/split.json"] + models, calibrated),
        "evaluate": (events + ["train/split.json", "train/summary.json"] + calibrated, ["evaluate/metrics.json"]),
        "report": (best_cell, ["report/table3.csv", "report/subgroups.csv", "report/report_info.json"]),
        "importance": (best_cell, ["importance/importance.csv", "importance/importance.json"]),
    }


def _save_best(model_dir: Path, spec: dict, arrays: dict[str, np.ndarray]) -> None:
    """A cell's best model: `spec` as `model.json`, its arrays as `weights.npz`."""
    model_dir.mkdir(parents=True, exist_ok=True)
    _write_json(model_dir / "model.json", spec)
    write_npz(model_dir / "weights.npz", arrays)


def _load_best(model_dir: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The spec and arrays `_save_best` wrote."""
    return _read_json(model_dir / "model.json"), read_npz(model_dir / "weights.npz")


@dataclass(eq=False)
class RunData:
    """A run as the stages after featurize read it: the task's events,
    featurize's metadata, each event's 0/1 label and each fold's patients,
    through which `fold_of` and `folds` place the events when first read."""

    table: EventTable
    meta: dict
    labels: np.ndarray
    patients: dict[str, list[str]] | None = None

    @cached_property
    def fold_of(self) -> np.ndarray:
        fold_of_patient = {pid: name for name, pids in self.patients.items() for pid in pids}
        return np.array([fold_of_patient[pid] for pid in self.table.beneficiary_id.tolist()])

    @cached_property
    def folds(self) -> dict[str, list[int]]:
        return {name: np.flatnonzero(self.fold_of == name).tolist() for name in FOLD_NAMES}

    def flat(self) -> FlatTable:
        return flatten(self.table, self.meta["n_dx_columns"], self.meta["n_proc_columns"], self.meta["z_names"])


def _load_sequences(outdir: Path, task: str, split: bool) -> RunData:
    """The one reader of a run for the stages after featurize: `task`'s
    events from featurize's columnar store (the mortality task drops its
    excluded events), featurize's metadata and the labels. With `split`, the
    folds' patients come from `train/split.json`, which `require_inputs`
    has checked; the split must be for `task`, the one check of the task."""
    meta = _read_json(outdir / "featurize" / "features.json")
    table = EventTable.load(outdir / "featurize" / "events.npz")
    if task == "mortality":
        table = table.select(~table.mortality_excluded)
    run = RunData(table, meta, table.label_for(task).astype(np.int64))
    if split:
        split_json = _read_json(outdir / "train" / "split.json")
        if split_json["task"] != task:
            raise PrerequisiteError(
                f"train/split.json is for task {split_json['task']!r}, not the config's {task!r}; rerun `seqfuse train`"
            )
        run.patients = split_json["patients"]
    return run


# --- stages ------------------------------------------------------------------


def stage_generate(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "generate"
    synth = SyntheticConfig(seed=cfg["seed"], **cfg["generate"])
    population = generate_population(synth)
    cols = population.columns
    write_npz(stage_dir / "claims.npz", cols)
    write_npz(stage_dir / "truth.npz", {name: population.truth[name] for name in TRUTH_COLUMNS})
    _write_json(stage_dir / "generator_info.json", population.info)
    print(
        f"generate: {len(cols['beneficiary.beneficiary_id'])} patients, {len(cols['claim.claim_id'])} claims, "
        f"{len(population.truth['patient'])} ground-truth events"
    )


def _cohort_columns(outdir: Path) -> tuple[dict[str, np.ndarray], dict]:
    """The cohort and its audit, built from `generate/claims.npz`: what
    `cohort` writes and `show events` prints."""
    cols = ingest_claims(outdir / "generate" / "claims.npz")
    bundle = load_bundle()
    return build_cohort(cols, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)


def stage_cohort(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "cohort"
    cols, audit = _cohort_columns(outdir)
    write_npz(stage_dir / "population.npz", {name: cols[name] for name in POPULATION_MEMBERS})
    (stage_dir / "summary.csv").write_text(cohort_summary(cols), encoding="utf-8")
    _write_json(stage_dir / "audit.json", audit)
    print(
        f"cohort: {audit['n_events']} events, {audit['n_eligible']} eligible, "
        f"{audit['readmit_positive']} readmissions, {audit['mortality_positive']} deaths"
    )


def stage_featurize(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "featurize"
    bundle = load_bundle()
    opts = SequenceOptions(**cfg["features"])
    # Generate checked the claims and cohort read them through the same
    # checks; both files are hash-verified, so they are read as they are.
    cohort = read_npz(outdir / "cohort" / "population.npz")
    if not set(POPULATION_MEMBERS) <= set(cohort):
        raise PrerequisiteError("cohort/population.npz holds no stays or events; rerun `seqfuse cohort`")
    cols = {**read_npz(outdir / "generate" / "claims.npz"), **cohort}
    table, z_names = featurize_events(cols, bundle, opts)
    n_dropped = int(cols["event.eligible"].sum()) - len(table)
    if not len(table):
        raise ValidationError(f"no eligible events to featurize ({n_dropped} had no visit steps)")
    table.save(stage_dir / "events.npz")
    meta = {
        "z_names": z_names,
        "n_dx_columns": bundle.ccs.n_dx_columns,
        "n_proc_columns": bundle.ccs.n_proc_columns,
        "input_dim": bundle.ccs.input_dim,
        "options": asdict(opts),
        "n_events": len(table),
    }
    # Only an excluded index step can leave an event without steps.
    if opts.exclude_index_step:
        meta["n_dropped_no_steps"] = n_dropped
    _write_json(stage_dir / "features.json", meta)
    dropped = f", {n_dropped} dropped with no visit steps" if n_dropped else ""
    print(f"featurize: {len(table)} sequences, |z| = {len(z_names)}{dropped}")


def stage_train(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "train"
    task = cfg["task"]
    train_cfg = cfg["train"]
    cells = _cells(cfg)
    run = _load_sequences(outdir, task, split=False)
    table, labels = run.table, run.labels

    positives: dict[str, int] = {}
    for pid, label in zip(table.beneficiary_id.tolist(), labels.tolist()):
        positives[pid] = positives.get(pid, 0) + label
    run.patients, warnings = split_patients(positives, cfg["seed"], tuple(train_cfg["fractions"]))
    fold_idx = run.folds
    for name, idx in fold_idx.items():
        if not idx:
            raise ValidationError(f"fold {name!r} received no events; increase the population or its fraction")
    class_counts = {name: {"events": len(idx), "positives": int(labels[idx].sum())} for name, idx in fold_idx.items()}
    # Every trial scores the valid and test folds by AUC, which needs both classes.
    for name in ("valid", "test"):
        n, positives = class_counts[name]["events"], class_counts[name]["positives"]
        if positives in (0, n):
            raise ValidationError(
                f"fold {name!r} has {n} events, {positives} positive; its AUC needs both classes, "
                "so increase the population or its fraction"
            )
    _write_json(
        stage_dir / "split.json",
        {
            "task": task,
            "seed": cfg["seed"],
            "fractions": train_cfg["fractions"],
            "warnings": warnings,
            "data_health": {"class_counts": class_counts},
            "patients": run.patients,
        },
    )

    summary: dict[str, dict] = {}
    trial_rows = [["cell", "config_hash", "status", "valid_auc", "test_auc", "seed", "config"]]
    curve_rows: list[dict] = []
    for algorithm, mode in cells:
        cell = _cell_name(algorithm, mode)
        cell_seed_label = f"{task}/{cell}"
        if algorithm == "lr":
            runner = make_lr_runner(run.flat().matrix, labels, fold_idx)
            axes = {k: list(v) for k, v in train_cfg["lr_grid"].items()}
        else:
            runner = make_deep_runner(
                table,
                labels,
                fold_idx,
                input_dim=run.meta["input_dim"],
                fusion=FUSION_OF[algorithm],
                embedding=mode,
                embedding_seed=cfg["seed"],
                epochs=train_cfg["epochs"],
                patience=train_cfg["patience"],
            )
            axes = {k: list(v) for k, v in train_cfg["grid"].items()}
        trials = grid_search(axes, runner, derive_seed(cfg["seed"], cell_seed_label))
        for trial in trials:
            h, seed = trial["config_hash"], trial["seed"]
            config = json.dumps(trial["config"], sort_keys=True)
            trial_rows.append([cell, h, trial["status"], trial.get("valid_auc"), trial.get("test_auc"), seed, config])
            curve_rows += [{"cell": cell, "config_hash": h, "seed": seed, **point} for point in trial.get("curve", [])]
        top = top_trials(trials)
        if top is None:
            reasons = "; ".join(dict.fromkeys(trial["failure"] for trial in trials))
            raise NumericsError(f"every trial failed for {cell}: {reasons}")
        ranked, top_mean, top_std = top
        best = ranked[0]
        model = best["model"]
        spec = {
            "task": task,
            "cell": cell,
            "z_mean": best["z_mean"].tolist(),
            "z_std": best["z_std"].tolist(),
            "trial": {key: best[key] for key in ("config", "config_hash", "seed")},
        }
        if algorithm == "lr":
            arrays = {"weights": model.weights, "intercept": np.float64(model.intercept)}
        else:
            spec["model_config"] = model.config.to_json_obj()
            arrays = {name: tensor.data for name, tensor in model.params.items()}
        _save_best(stage_dir / "models" / cell / "best", spec, arrays)
        summary[cell] = {
            "algorithm": algorithm,
            "embedding_mode": mode,
            "n_trials": len(trials),
            "n_failed": sum(1 for t in trials if t["status"] != "ok"),
            "top_test_auc_mean": top_mean,
            "top_test_auc_std": top_std,
            "n_top": len(ranked),
            "best": {key: best[key] for key in ("config", "config_hash", "valid_auc", "test_auc")},
        }

    _write_csv(stage_dir / "trials.csv", trial_rows)
    (stage_dir / "curves.jsonl").write_text(
        "".join(json.dumps(row, sort_keys=True) + "\n" for row in curve_rows), encoding="utf-8"
    )
    _write_json(stage_dir / "summary.json", {"task": task, "cells": summary})
    best_aucs = ", ".join(f"{c}={s['best']['valid_auc']:.3f}" for c, s in summary.items())
    print(f"train: best valid AUC by cell: {best_aucs}")


def _raw_scores_for_cell(outdir: Path, algorithm: str, cell: str, run: RunData) -> np.ndarray:
    """Uncalibrated margins/logits for every event, in table order."""
    spec, arrays = _load_best(outdir / "train" / "models" / cell / "best")
    z_mean, z_std = np.array(spec["z_mean"]), np.array(spec["z_std"])
    if algorithm == "lr":
        return apply_standardizer(run.flat().matrix, z_mean, z_std) @ arrays["weights"] + arrays["intercept"]
    model = load_model(spec["model_config"], arrays)
    table = replace(run.table, z=apply_standardizer(run.table.z, z_mean, z_std))
    _, logits, _ = model.predict(np.arange(len(table)), table)
    return logits


def stage_calibrate(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "calibrate"
    task = cfg["task"]
    cells = _cells(cfg)
    run = _load_sequences(outdir, task, split=True)
    calib_idx = run.folds["calibration"]

    calibrators: dict[str, dict] = {}
    raw_scores: dict[str, np.ndarray] = {}
    for algorithm, mode in cells:
        cell = _cell_name(algorithm, mode)
        raw = _raw_scores_for_cell(outdir, algorithm, cell, run)
        raw_scores[cell] = raw
        fit = fit_platt if algorithm == "lr" else fit_temperature
        calibrator = fit(raw[calib_idx], run.labels[calib_idx], fold="calibration")
        calibrators[cell] = calibrator.to_json_obj()
    _write_json(stage_dir / "calibrators.json", {"task": task, "cells": calibrators})
    write_npz(stage_dir / "raw_scores.npz", raw_scores)
    summary = ", ".join(
        f"{cell}: {obj['kind']}"
        + (f"(T={obj['temperature']:.2f})" if obj["kind"] == "temperature" else f"(a={obj['a']:.2f}, b={obj['b']:.2f})")
        for cell, obj in calibrators.items()
    )
    print(f"calibrate: {summary}")


def _cell_scores(outdir: Path, cell: str) -> tuple[np.ndarray, np.ndarray]:
    """`cell`'s column of calibrate's raw scores (the task's events, in table
    order) and that column mapped through its calibrator. Evaluate, report,
    importance and `show scores` read scores only here."""
    calibrators = _read_json(outdir / "calibrate" / "calibrators.json")["cells"]
    if cell not in calibrators:
        raise _untrained("calibrate/calibrators.json", cell)
    raw = read_npz(outdir / "calibrate" / "raw_scores.npz")[cell]
    return raw, Calibrator(**calibrators[cell]).apply(raw)


def _untrained(rel: str, cell: str) -> PrerequisiteError:
    """The error for a cell of the config that the run never trained."""
    return PrerequisiteError(f"{rel} has no cell {cell!r}; rerun `seqfuse train` and the stages after it")


def _evaluated(cfg: dict, outdir: Path) -> dict:
    """Evaluate's `metrics.json`, once it holds every cell of the config:
    report and importance read it here, before they write anything."""
    metrics_all = _read_json(outdir / "evaluate" / "metrics.json")
    for cell in [_cell_name(algorithm, mode) for algorithm, mode in _cells(cfg)]:
        if cell not in metrics_all["cells"]:
            raise _untrained("evaluate/metrics.json", cell)
    return metrics_all


def stage_evaluate(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "evaluate"
    task = cfg["task"]
    threshold = cfg["evaluate"]["threshold"]
    run = _load_sequences(outdir, task, split=True)
    test_idx = run.folds["test"]
    train_summary = _read_json(outdir / "train" / "summary.json")["cells"]

    metrics: dict[str, dict] = {}
    for algorithm, mode in _cells(cfg):
        cell = _cell_name(algorithm, mode)
        raw, prob_cal = _cell_scores(outdir, cell)
        test_labels = run.labels[test_idx]
        test_cal = prob_cal[test_idx]
        test_raw_prob = _sigmoid(raw[test_idx])
        recall, precision = recall_precision_at_threshold(test_cal, test_labels, threshold)
        # A k beyond the test fold has no top k: it reads null.
        top_k = {
            str(k): recall_at_top_k(test_cal, test_labels, k) if k <= len(test_idx) else None
            for k in cfg["evaluate"]["top_k"]
        }
        metrics[cell] = {
            "algorithm": algorithm,
            "embedding_mode": mode,
            "n_test": int(len(test_idx)),
            "test_prevalence": float(test_labels.mean()),
            "auc": auc(test_cal, test_labels),
            "recall_at_threshold": recall,
            "precision_at_threshold": precision,
            "recall_at_top_k": top_k,
            "nll_raw": nll(test_raw_prob, test_labels),
            "nll_cal": nll(test_cal, test_labels),
            "ece_raw": ece(test_raw_prob, test_labels),
            "ece_cal": ece(test_cal, test_labels),
            "top_test_auc_mean": train_summary[cell]["top_test_auc_mean"],
            "top_test_auc_std": train_summary[cell]["top_test_auc_std"],
            "best_valid_auc": train_summary[cell]["best"]["valid_auc"],
        }

    deep_cells = [c for c in metrics if metrics[c]["algorithm"] != "lr"]
    pool = deep_cells or list(metrics)
    best_cell = max(pool, key=lambda c: (metrics[c]["best_valid_auc"], c))
    _write_json(
        stage_dir / "metrics.json", {"task": task, "threshold": threshold, "cells": metrics, "best_cell": best_cell}
    )
    lines = ", ".join(f"{cell}: AUC {m['auc']:.3f}" for cell, m in metrics.items())
    print(f"evaluate [{task}]: {lines}")


def _fmt(value) -> str:
    return "" if value is None else f"{value:.4f}"


def stage_report(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "report"
    task = cfg["task"]
    metrics_all = _evaluated(cfg, outdir)
    best_cell = metrics_all["best_cell"]
    cells = metrics_all["cells"]
    run = _load_sequences(outdir, task, split=True)
    in_test = run.fold_of == "test"
    scores = _cell_scores(outdir, best_cell)[1][in_test]
    modes = [m for m in EMBEDDING_MODES if m in cfg["train"]["embedding_modes"]]

    header = ["Algorithm"]
    for mode in modes:
        header += [f"AUC_{mode}", f"AUC_std_{mode}", f"Recall_{mode}"]
    rows = [header]
    for algorithm in ALGORITHMS:
        if algorithm not in cfg["train"]["algorithms"]:
            continue
        row = [ALGORITHM_LABELS[algorithm]]
        for mode in modes:
            # Blank for LR under modes other than linear: the flat baseline has no embedding.
            m = cells.get(_cell_name(algorithm, mode))
            row += [_fmt(m[key]) if m else "" for key in ("top_test_auc_mean", "top_test_auc_std", "recall_at_threshold")]
        rows.append(row)
    _write_csv(stage_dir / "table3.csv", rows)

    # Subgroup breakdown of the best model's calibrated test-fold scores.
    test = run.table.select(in_test)
    labels = run.labels[in_test]
    n_proc_columns = run.meta["n_proc_columns"]
    groups = test.subgroups(run.meta["z_names"])
    member = test.proc_ccs_membership(n_proc_columns)
    for cat in range(n_proc_columns):
        label = "other" if cat == n_proc_columns - 1 else str(cat)
        groups[f"proc_ccs_{label}"] = np.where(member[:, cat], "present", "absent")
    report_rows = subgroup_report(scores, labels, groups, cfg["evaluate"]["n_min"], cfg["evaluate"]["threshold"])
    _write_csv(
        stage_dir / "subgroups.csv",
        [["partition", "group", "n", "prevalence", "auc", "recall", "small_n"]]
        + [
            [row["partition"], row["group"], row["n"], *(_fmt(row[key]) for key in ("prevalence", "auc", "recall")),
             int(row["small_n"])]
            for row in report_rows
        ],
    )
    _write_json(
        stage_dir / "report_info.json",
        {"task": task, "best_cell": best_cell, "n_test_events": len(test)},
    )
    print(f"report: table3.csv ({len(rows) - 1} rows), subgroups.csv ({len(report_rows)} rows), best cell {best_cell}")


def stage_importance(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "importance"
    task = cfg["task"]
    best_cell = _evaluated(cfg, outdir)["best_cell"]
    threshold = cfg["evaluate"]["threshold"]
    run = _load_sequences(outdir, task, split=True)
    _, scores = _cell_scores(outdir, best_cell)
    flat = run.flat()
    rows = surrogate_importance(flat.matrix, flat.names, flat.categories, scores, threshold)
    _write_csv(
        stage_dir / "importance.csv",
        [["category", "feature", "importance"]]
        + [[row["category"], row["feature"], f"{row['importance']:.6f}"] for row in rows],
    )
    _write_json(
        stage_dir / "importance.json",
        {
            "task": task,
            "cell": best_cell,
            "explains": (
                "logistic surrogate fit on all scored events against the model's "
                f"predictions binarized at {threshold}; importances rank what drives "
                "the model, not outcome associations"
            ),
            "n_events": len(run.table),
            "n_predicted_positive": int((scores >= threshold).sum()),
        },
    )
    print(f"importance: {len(rows)} features ranked from cell {best_cell}")


def show(cfg: dict, target: str, cell: str | None) -> None:
    """Prints the cohort's index events as JSON lines, rebuilt from the claims,
    or `cell`'s per-event scores as CSV, once `require_inputs` passes on what
    featurize, or evaluate, reads."""
    outdir = Path(cfg["outdir"])
    if target == "events":
        require_inputs(outdir, _artifacts(cfg)["featurize"][0])
        sys.stdout.write(index_event_lines(_cohort_columns(outdir)[0]))
        return
    cells = [_cell_name(algorithm, mode) for algorithm, mode in _cells(cfg)]
    if cell not in cells:
        raise ValidationError(f"unknown cell {cell!r}; the config's cells are {', '.join(cells)}")
    require_inputs(outdir, _artifacts(cfg)["evaluate"][0])
    run = _load_sequences(outdir, cfg["task"], split=True)
    raw, prob_cal = _cell_scores(outdir, cell)
    columns = (run.fold_of, run.labels, raw, _sigmoid(raw), prob_cal)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["event_id", "fold", "label", "raw", "prob_raw", "prob_cal"])
    for event_id, fold, label, *scores in zip(run.table.event_ids(), *(column.tolist() for column in columns)):
        writer.writerow([event_id, fold, label, *(f"{score:.10g}" for score in scores)])


STAGE_FUNCS = {
    "generate": stage_generate,
    "cohort": stage_cohort,
    "featurize": stage_featurize,
    "train": stage_train,
    "calibrate": stage_calibrate,
    "evaluate": stage_evaluate,
    "report": stage_report,
    "importance": stage_importance,
}


def run_stage(stage: str, cfg: dict) -> None:
    """Runs one stage body under the manifest protocol: verify its declared
    inputs, run it in an empty directory, and record its declared outputs.
    If the body fails, the stage directory is removed and the earlier one,
    if there was one, put back, changing no file."""
    outdir = Path(cfg["outdir"])
    inputs, outputs = _artifacts(cfg)[stage]
    verified = require_inputs(outdir, inputs)
    stage_dir, kept = outdir / stage, outdir / f".{stage}.kept"
    shutil.rmtree(kept, ignore_errors=True)
    rerun = stage_dir.exists()
    if rerun:
        stage_dir.rename(kept)
    stage_dir.mkdir(parents=True)
    try:
        STAGE_FUNCS[stage](cfg, outdir)
    except BaseException:
        shutil.rmtree(stage_dir)
        if rerun:
            kept.rename(stage_dir)
        raise
    if rerun:
        shutil.rmtree(kept)
    write_manifest(outdir, stage, cfg, inputs=verified, outputs=outputs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqfuse",
        description="Readmission/mortality prediction pipeline over longitudinal claims.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = default_config()
    demo = sub.add_parser("demo-config", help="write a ready-to-run configuration")
    demo.add_argument("--out", default="-", help="path for the config JSON ('-' for stdout)")
    demo.add_argument("--outdir", default=defaults["outdir"], help="run directory the config points at")
    demo.add_argument(
        "--patients", type=int, default=defaults["generate"]["n_patients"], help="synthetic population size"
    )
    demo.add_argument("--seed", type=int, default=defaults["seed"], help="root seed")

    for name in (*STAGES, "pipeline"):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "pipeline" else "run all stages in order")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--outdir", default=None, help="override the config's run directory")
    targets = sub.add_parser("show", help="print what no stage reads back").add_subparsers(dest="target", required=True)
    events = targets.add_parser("events", help="the cohort's index events as JSON lines")
    scores = targets.add_parser("scores", help="one cell's per-event scores as CSV")
    scores.add_argument("cell", help="a cell of the config, such as lr__linear")
    for p in (events, scores):
        p.add_argument("--config", required=True, help="path to the JSON config")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "demo-config":
            cfg = _valid(default_config(outdir=args.outdir, n_patients=args.patients, seed=args.seed))
            text = json.dumps(cfg, indent=2, sort_keys=True) + "\n"
            if args.out == "-":
                sys.stdout.write(text)
            else:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                Path(args.out).write_text(text, encoding="utf-8")
                print(f"wrote {args.out}")
        else:
            cfg = load_config(args.config, outdir=getattr(args, "outdir", None))
            if args.command == "show":
                show(cfg, args.target, getattr(args, "cell", None))
            else:
                for stage in STAGES if args.command == "pipeline" else (args.command,):
                    run_stage(stage, cfg)
        # A reader that closed the pipe early must surface here, not at exit.
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # As Python's `signal` docs advise: what is left to write goes to
        # devnull, so the flush at exit raises nothing, and the exit is 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PrerequisiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericsError, MetricUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SeqfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
