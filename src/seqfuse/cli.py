"""Command-line pipeline: generate, cohort, featurize, train, calibrate,
evaluate, report, importance, or the whole chain at once.

Every stage reads one JSON config, writes into its own subdirectory of the
run directory, and records a manifest with SHA-256 hashes of everything it
read and wrote. A stage refuses to run when an input does not match the
hash its producer recorded, so stale or hand-edited artifacts fail loudly
instead of silently skewing results downstream. `_artifacts` is the one
list of each stage's inputs and outputs, and `run_stage` runs a stage body
under that protocol: verify the inputs, run, hash the outputs.

Every array a stage hands on goes through `claims.write_npz`. `generate`
draws the claims straight into columns, checks them as cohort will, and
writes them as `generate/claims.npz`, with the planted events' ground
truth. `cohort` checks them again as it reads them (`ingest_claims`) and
writes only the stays and index events it built to
`cohort/population.npz`; `featurize` computes its features from the claim
columns of `generate/claims.npz` and those of `cohort/population.npz`
together, without checking the claims or building the cohort again.
`featurize` hands its events on in one form, the columnar
`featurize/events.npz` (an `EventTable`), which every later stage loads
through `_load_sequences`; the deep cells train and predict on rows of that
table. `train` builds the frozen matrix of the `pretrained` embedding mode
itself, for each trial at its `embed_dim` (`model.random_embedding`), so no
stage writes it. It saves each cell's best model, LR or deep, as
`model.json` (its config and the z moments) and `weights.npz` (its
arrays). `calibrate` keeps each cell's uncalibrated scores in
`calibrate/raw_scores.npz`, so `evaluate` scores events without predicting
again.

The config is one JSON object shaped like `default_config()`, which is
also its schema. `load_config` merges the file over the defaults (into a
grid, the axes of `_DEFAULT_AXES` it leaves out), and `validate_config`
walks the result against that shape before any stage runs: unknown keys,
types, then each value's range (`_RANGES`). A stage body reads `cfg[...]`
directly and keeps no defaults of its own, and neither do the grid
runners.

Exit codes: 0 success, 2 invalid input or config, 3 missing/stale
prerequisite artifacts, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import flatten, make_lr_runner
from .calibration import Calibrator, ece, fit_platt, fit_temperature, nll
from .claims import SyntheticConfig, generate_population, ingest_claims, write_ground_truth, write_npz
from .cohort import POPULATION_MEMBERS, build_cohort, cohort_summary, index_event_lines
from .errors import (
    CalibrationError,
    MetricUndefinedError,
    NumericsError,
    ParseError,
    PrerequisiteError,
    SeqfuseError,
    ValidationError,
)
from .features import SUBGROUP_KEYS, EventTable, SequenceOptions, featurize_events
from .knowledge import KNOWLEDGE_FILES, CcsMap, load_bundle
from .metrics import (
    auc,
    recall_at_top_k,
    recall_precision_at_threshold,
    subgroup_report,
    surrogate_importance,
)
from .model import EMBEDDINGS as EMBEDDING_MODES, load_model
from .rng import derive_seed
from .training import apply_standardizer, config_hash, grid_search, make_deep_runner, split_patients

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
            "dx_vocab": 90,
            "proc_vocab": 36,
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
            "optimizer": "adam",
            "w_neg": 1.0,
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
        "calibrate": {"method_deep": "temperature", "method_lr": "platt"},
        "evaluate": {"threshold": 0.5, "top_k": [50], "n_min": 50},
        "knowledge": {},
    }


# Keys a config may leave out: a knowledge table then takes its bundled
# file. Grid axes with a default value are not among them, because
# `load_config` fills each one a grid leaves out from `default_config`.
_OPTIONAL = {f"knowledge.{key}" for key in KNOWLEDGE_FILES}
_DEFAULT_AXES = {"grid": ("n_gru_layers", "mlp_hidden_dims", "batch_size", "w_pos"), "lr_grid": ("smote",)}

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}

_POSITIVE = (lambda v: v > 0, "must be positive")
_POSITIVE_VALUES = (lambda v: v and min(v) > 0, "must be a non-empty list of positive values")
_CALIBRATION_METHOD = (lambda v: v in ("temperature", "platt"), "must be 'temperature' or 'platt'")

# {path: (check, message)}: the range of each value, checked only once the
# value has its schema type.
_RANGES = {
    "outdir": (bool, "must be a non-empty string"),
    "task": (lambda v: v in TASKS, f"must be one of {TASKS}"),
    "generate.n_patients": _POSITIVE,
    # The bundled rule tables reference dx categories up to 29 and proc
    # categories up to 11, three codes per category.
    "generate.dx_vocab": (lambda v: v >= 90, "must be at least 90 to cover the bundled rule tables"),
    "generate.proc_vocab": (lambda v: v >= 36, "must be at least 36 to cover the bundled rule tables"),
    "generate.mean_claims_per_patient": _POSITIVE,
    "features.lookback_days": _POSITIVE,
    "train.algorithms": (lambda v: v and set(v) <= set(ALGORITHMS), f"must be a non-empty subset of {ALGORITHMS}"),
    "train.embedding_modes": (
        lambda v: v and set(v) <= set(EMBEDDING_MODES),
        f"must be a non-empty subset of {EMBEDDING_MODES}",
    ),
    "train.fractions": (
        lambda v: len(v) == 4 and min(v) >= 0 and abs(sum(v) - 1.0) <= 1e-9,
        "must be four non-negative numbers summing to 1",
    ),
    "train.epochs": _POSITIVE,
    "train.patience": (lambda v: v >= 0, "must be non-negative"),
    "train.optimizer": (lambda v: v in ("adam", "sgd"), "must be 'adam' or 'sgd'"),
    "train.w_neg": _POSITIVE,
    **{f"train.grid.{axis}": _POSITIVE_VALUES for axis in ("embed_dim", "hidden_dim", "lr", "batch_size", "w_pos")},
    "train.grid.n_gru_layers": (lambda v: v and min(v) >= 1, "must be a non-empty list of values of at least 1"),
    "train.grid.mlp_hidden_dims": (
        lambda v: v and all(width > 0 for dims in v for width in dims),
        "must be a non-empty list of lists of positive widths",
    ),
    "train.lr_grid.l2": _POSITIVE_VALUES,
    "train.lr_grid.smote": (bool, "must be a non-empty list"),
    "calibrate.method_deep": _CALIBRATION_METHOD,
    "calibrate.method_lr": _CALIBRATION_METHOD,
    "evaluate.threshold": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    "evaluate.top_k": (lambda v: all(k >= 1 for k in v), "must hold integers of at least 1"),
    "evaluate.n_min": (lambda v: v >= 1, "must be at least 1"),
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
            elif key_path not in _OPTIONAL:
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
    rule = _RANGES.get(path)
    if rule and len(problems) == start and not rule[0](value):
        problems.append(f"{path} {rule[1]}")


def validate_config(cfg: dict) -> list[str]:
    """Every problem with a complete config, all reported together and
    each naming its key's path. `default_config` is the schema, with the
    `KNOWLEDGE_FILES` keys under `knowledge`: an object holds only the
    schema's keys, each required unless `_OPTIONAL` lists it; a list holds
    values shaped like the schema's first element; a scalar has the
    schema's type. A value with its type is then checked against
    `_RANGES`, so a wrong type is one problem rather than a crash."""
    schema = default_config()
    schema["knowledge"] = dict.fromkeys(KNOWLEDGE_FILES, "")
    problems: list[str] = []
    _walk(cfg, schema, "", problems)
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
    # Configs from older versions may carry two removed keys: `train.jobs`,
    # which results never depended on, and `features.pretrained_embed_dim`,
    # which had to equal every `train.grid.embed_dim` (the frozen matrix
    # now takes each trial's own). Both are dropped rather than hashed.
    if isinstance(train, dict):
        train.pop("jobs", None)
    if isinstance(merged["features"], dict):
        merged["features"].pop("pretrained_embed_dim", None)
    problems = validate_config(merged)
    if problems:
        raise ValidationError("invalid config:\n  " + "\n  ".join(problems))
    return merged


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
    """Verifies each input against its producing stage's manifest and
    returns {relpath: hash} for recording in the consumer's manifest."""
    verified: dict[str, str] = {}
    for rel in sorted(relpaths):
        producer = rel.split("/", 1)[0]
        manifest_path = outdir / producer / "manifest.json"
        if not manifest_path.is_file():
            raise PrerequisiteError(f"missing {manifest_path}; run `seqfuse {producer}` first")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        declared = manifest.get("outputs", {}).get(rel)
        if declared is None:
            raise PrerequisiteError(f"stage {producer!r} does not declare output {rel!r}; rerun it")
        live_path = outdir / rel
        if not live_path.is_file():
            raise PrerequisiteError(f"missing artifact {rel!r}; rerun `seqfuse {producer}`")
        live = _sha256(live_path)
        if live != declared:
            raise PrerequisiteError(
                f"artifact {rel!r} does not match the hash recorded by stage {producer!r}; rerun it"
            )
        verified[rel] = live
    return verified


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# --- stage helpers ----------------------------------------------------------


def _knowledge_bundle(cfg: dict, outdir: Path):
    ccs = CcsMap.from_csv(outdir / "generate" / "ccs_map.csv")
    paths = {k: v for k, v in cfg["knowledge"].items() if v}
    return load_bundle(ccs, paths)


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
    # Report and importance read only the best cell's scores, but the best
    # cell is known only once evaluate has run, so they verify every cell's.
    evaluated = [f"evaluate/scores_{_cell_name(algorithm, mode)}.csv" for algorithm, mode in cells]
    evaluated.append("evaluate/metrics.json")
    population = ["generate/claims.npz", "generate/ccs_map.csv"]
    events = ["featurize/events.npz", "featurize/features.json"]
    calibrated = ["calibrate/calibrators.json", "calibrate/raw_scores.npz"]
    return {
        "generate": ([], population + ["generate/ground_truth.csv", "generate/generator_info.json"]),
        "cohort": (
            population,
            ["cohort/index_events.jsonl", "cohort/population.npz", "cohort/summary.csv", "cohort/audit.json"],
        ),
        "featurize": (["cohort/population.npz"] + population, events),
        "train": (events, ["train/split.json", "train/trials.csv", "train/summary.json"] + models),
        "calibrate": (events + ["train/split.json"] + models, calibrated),
        "evaluate": (events + ["train/split.json", "train/summary.json"] + calibrated, evaluated),
        "report": (events + evaluated, ["report/table3.csv", "report/subgroups.csv", "report/report_info.json"]),
        "importance": (events + evaluated, ["importance/importance.csv", "importance/importance.json"]),
    }


def _read_npz(path: Path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _save_best(model_dir: Path, spec: dict, arrays: dict[str, np.ndarray]) -> None:
    """A cell's best model: `spec` as `model.json`, its arrays as `weights.npz`."""
    model_dir.mkdir(parents=True, exist_ok=True)
    _write_json(model_dir / "model.json", spec)
    write_npz(model_dir / "weights.npz", arrays)


def _load_best(model_dir: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The spec and arrays `_save_best` wrote."""
    return _read_json(model_dir / "model.json"), _read_npz(model_dir / "weights.npz")


def _load_sequences(outdir: Path, task: str) -> tuple[EventTable, dict]:
    """The task's events, from featurize's columnar store, and the
    featurize metadata. The mortality task drops its excluded events."""
    features_meta = _read_json(outdir / "featurize" / "features.json")
    table = EventTable.load(outdir / "featurize" / "events.npz")
    if task == "mortality":
        table = table.select(~table.mortality_excluded)
    return table, features_meta


def _fold_indices(table: EventTable, patient_folds: dict[str, str]) -> tuple[list[str], dict[str, list[int]]]:
    """Each event's fold, and the event indices in each fold."""
    fold_of = [patient_folds[pid] for pid in table.beneficiary_id.tolist()]
    fold_idx: dict[str, list[int]] = {name: [] for name in ("train", "valid", "calibration", "test")}
    for i, name in enumerate(fold_of):
        fold_idx[name].append(i)
    return fold_of, fold_idx


def _split_folds(outdir: Path, table: EventTable) -> tuple[list[str], dict[str, list[int]]]:
    """`_fold_indices` under the patient split that train recorded."""
    split = _read_json(outdir / "train" / "split.json")
    return _fold_indices(table, {pid: name for name, pids in split["patients"].items() for pid in pids})


# --- stages ------------------------------------------------------------------


def stage_generate(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "generate"
    synth = SyntheticConfig(seed=cfg["seed"], **cfg["generate"])
    population = generate_population(synth)
    cols = population.columns
    write_npz(stage_dir / "claims.npz", cols)
    write_ground_truth(stage_dir / "ground_truth.csv", population.truth)
    CcsMap.synthetic(synth.dx_vocab, synth.proc_vocab).to_csv(stage_dir / "ccs_map.csv")
    _write_json(stage_dir / "generator_info.json", population.info)
    print(
        f"generate: {len(cols['beneficiary.beneficiary_id'])} patients, {len(cols['claim.claim_id'])} claims, "
        f"{len(population.truth['patient'])} ground-truth events"
    )


def stage_cohort(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "cohort"
    cols = ingest_claims(outdir / "generate" / "claims.npz")
    bundle = _knowledge_bundle(cfg, outdir)
    cols, audit = build_cohort(cols, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
    write_npz(stage_dir / "population.npz", {name: cols[name] for name in POPULATION_MEMBERS})
    (stage_dir / "index_events.jsonl").write_text(index_event_lines(cols), encoding="utf-8")
    (stage_dir / "summary.csv").write_text(cohort_summary(cols), encoding="utf-8")
    _write_json(stage_dir / "audit.json", audit)
    print(
        f"cohort: {audit['n_events']} events, {audit['n_eligible']} eligible, "
        f"{audit['readmit_positive']} readmissions, {audit['mortality_positive']} deaths"
    )


def stage_featurize(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "featurize"
    bundle = _knowledge_bundle(cfg, outdir)
    opts = SequenceOptions(**cfg["features"])
    # Generate checked the claims and cohort read them through the same
    # checks; both files are hash-verified, so they are read as they are.
    cohort = _read_npz(outdir / "cohort" / "population.npz")
    if not set(POPULATION_MEMBERS) <= set(cohort):
        raise PrerequisiteError("cohort/population.npz holds no stays or events; rerun `seqfuse cohort`")
    cols = {**_read_npz(outdir / "generate" / "claims.npz"), **cohort}
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
    table, features_meta = _load_sequences(outdir, task)
    labels = table.label_for(task).astype(np.float64)
    event_ids = table.event_id.tolist()

    positives: dict[str, int] = {}
    for pid, label in zip(table.beneficiary_id.tolist(), labels):
        positives[pid] = positives.get(pid, 0) + int(label)
    folds, warnings = split_patients(positives, cfg["seed"], tuple(train_cfg["fractions"]))
    _, fold_idx = _fold_indices(table, {pid: name for name, pids in folds.items() for pid in pids})
    for name in ("train", "valid", "test"):
        if not fold_idx[name]:
            raise ValidationError(f"fold {name!r} received no events; increase the population")
    if labels.min() != labels.max():
        for name, idx in fold_idx.items():
            if idx and labels[idx].min() == labels[idx].max():
                kind = "positive" if labels[idx[0]] else "negative"
                warnings.append(f"fold {name!r} has {len(idx)} events, all {kind}")
    _write_json(
        stage_dir / "split.json",
        {
            "task": task,
            "seed": cfg["seed"],
            "fractions": train_cfg["fractions"],
            "warnings": warnings,
            "patients": folds,
            "events": {name: [event_ids[i] for i in idx] for name, idx in fold_idx.items()},
        },
    )

    summary: dict[str, dict] = {}
    trial_rows: list[dict] = []
    for algorithm, mode in cells:
        cell = _cell_name(algorithm, mode)
        cell_seed_label = f"{task}/{cell}"
        if algorithm == "lr":
            flat = flatten(
                table,
                features_meta["n_dx_columns"],
                features_meta["n_proc_columns"],
                features_meta["z_names"],
            )
            runner = make_lr_runner(flat.matrix, labels.astype(np.int64), fold_idx)
            axes = {k: list(v) for k, v in train_cfg["lr_grid"].items()}
        else:
            runner = make_deep_runner(
                table,
                table.z,
                labels,
                fold_idx,
                input_dim=features_meta["input_dim"],
                domain_dim=table.z.shape[1],
                fusion=FUSION_OF[algorithm],
                embedding=mode,
                embedding_seed=cfg["seed"],
                epochs=train_cfg["epochs"],
                patience=train_cfg["patience"],
                w_neg=train_cfg["w_neg"],
                optimizer=train_cfg["optimizer"],
            )
            axes = {k: list(v) for k, v in train_cfg["grid"].items()}
        result = grid_search(axes, runner, derive_seed(cfg["seed"], cell_seed_label))
        for trial in result.trials:
            trial_rows.append(
                {
                    "cell": cell,
                    "config_hash": trial.config_hash,
                    "status": trial.status,
                    "valid_auc": trial.valid_auc,
                    "test_auc": trial.test_auc,
                    "seed": trial.seed,
                    "config": json.dumps(trial.config, sort_keys=True),
                }
            )
        best = result.best
        if best is None:
            raise NumericsError(f"every trial failed for {cell}")
        model = best.payload["model"]
        spec = {
            "task": task,
            "cell": cell,
            "z_mean": best.payload["z_mean"].tolist(),
            "z_std": best.payload["z_std"].tolist(),
            "trial": {"config": best.config, "config_hash": best.config_hash, "seed": best.seed},
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
            "n_trials": len(result.trials),
            "n_failed": sum(1 for t in result.trials if t.status != "ok"),
            "top_test_auc_mean": result.top_test_mean,
            "top_test_auc_std": result.top_test_std,
            "n_top": result.n_top,
            "best": {
                "config": best.config,
                "config_hash": best.config_hash,
                "valid_auc": best.valid_auc,
                "test_auc": best.test_auc,
            },
        }

    with open(stage_dir / "trials.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["cell", "config_hash", "status", "valid_auc", "test_auc", "seed", "config"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(trial_rows)
    _write_json(stage_dir / "summary.json", {"task": task, "cells": summary})
    best_aucs = ", ".join(f"{c}={s['best']['valid_auc']:.3f}" for c, s in summary.items())
    print(f"train: best valid AUC by cell: {best_aucs}")


def _raw_scores_for_cell(
    outdir: Path,
    algorithm: str,
    cell: str,
    table: EventTable,
    features_meta: dict,
) -> np.ndarray:
    """Uncalibrated margins/logits for every event, in table order."""
    spec, arrays = _load_best(outdir / "train" / "models" / cell / "best")
    z_mean, z_std = np.array(spec["z_mean"]), np.array(spec["z_std"])
    if algorithm == "lr":
        flat = flatten(
            table,
            features_meta["n_dx_columns"],
            features_meta["n_proc_columns"],
            features_meta["z_names"],
        )
        return apply_standardizer(flat.matrix, z_mean, z_std) @ arrays["weights"] + arrays["intercept"]
    model = load_model(spec["model_config"], arrays)
    z_rows = apply_standardizer(table.z, z_mean, z_std) if model.config.fusion != "none" else None
    _, logits, _ = model.predict(np.arange(len(table)), table, z_rows)
    return logits


def stage_calibrate(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "calibrate"
    task = cfg["task"]
    cells = _cells(cfg)
    table, features_meta = _load_sequences(outdir, task)
    labels = table.label_for(task).astype(np.float64)
    _, fold_idx = _split_folds(outdir, table)
    calib_idx = fold_idx["calibration"]
    if not calib_idx:
        raise ValidationError("calibration fold received no events; adjust train.fractions")

    calibrators: dict[str, dict] = {}
    raw_scores: dict[str, np.ndarray] = {}
    for algorithm, mode in cells:
        cell = _cell_name(algorithm, mode)
        raw = _raw_scores_for_cell(outdir, algorithm, cell, table, features_meta)
        raw_scores[cell] = raw
        method = cfg["calibrate"]["method_lr" if algorithm == "lr" else "method_deep"]
        fit = fit_platt if method == "platt" else fit_temperature
        calibrator = fit(raw[calib_idx], labels[calib_idx], fold="calibration")
        calibrators[cell] = calibrator.to_json_obj()
    _write_json(stage_dir / "calibrators.json", {"task": task, "cells": calibrators})
    write_npz(stage_dir / "raw_scores.npz", raw_scores)
    summary = ", ".join(
        f"{cell}: {obj['kind']}"
        + (f"(T={obj['temperature']:.2f})" if obj["kind"] == "temperature" else f"(a={obj['a']:.2f}, b={obj['b']:.2f})")
        for cell, obj in calibrators.items()
    )
    print(f"calibrate: {summary}")


def stage_evaluate(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "evaluate"
    task = cfg["task"]
    threshold = cfg["evaluate"]["threshold"]
    table, _ = _load_sequences(outdir, task)
    labels = table.label_for(task).astype(np.int64)
    event_ids = table.event_id.tolist()
    fold_of, fold_idx = _split_folds(outdir, table)
    test_idx = np.array(fold_idx["test"], dtype=np.int64)
    calibrators = _read_json(outdir / "calibrate" / "calibrators.json")["cells"]
    raw_scores = _read_npz(outdir / "calibrate" / "raw_scores.npz")
    train_summary = _read_json(outdir / "train" / "summary.json")["cells"]

    metrics: dict[str, dict] = {}
    for algorithm, mode in _cells(cfg):
        cell = _cell_name(algorithm, mode)
        raw = raw_scores[cell]
        calibrator = Calibrator.from_json_obj(calibrators[cell])
        prob_raw = Calibrator(kind="identity").apply(raw)
        prob_cal = calibrator.apply(raw)
        scores_path = stage_dir / f"scores_{cell}.csv"
        with open(scores_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["event_id", "fold", "label", "raw", "prob_raw", "prob_cal"])
            for i, event_id in enumerate(event_ids):
                writer.writerow(
                    [
                        event_id,
                        fold_of[i],
                        labels[i],
                        f"{raw[i]:.10g}",
                        f"{prob_raw[i]:.10g}",
                        f"{prob_cal[i]:.10g}",
                    ]
                )
        test_labels = labels[test_idx]
        test_cal = prob_cal[test_idx]
        test_raw_prob = prob_raw[test_idx]
        try:
            recall, precision = recall_precision_at_threshold(test_cal, test_labels, threshold)
        except MetricUndefinedError:
            recall, precision = None, None
        top_k = {}
        for k in cfg["evaluate"]["top_k"]:
            if 1 <= k <= len(test_idx):
                top_k[str(k)] = recall_at_top_k(test_cal, test_labels, k)
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
    payload = {
        "task": task,
        "threshold": threshold,
        "cells": metrics,
        "best_cell": best_cell,
    }
    _write_json(stage_dir / "metrics.json", payload)
    lines = ", ".join(f"{cell}: AUC {m['auc']:.3f}" for cell, m in metrics.items())
    print(f"evaluate [{task}]: {lines}")


def _fmt(value, digits: int = 4) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def _cell_scores(outdir: Path, cell: str, table: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """The calibrated score evaluate wrote for each of `table`'s events
    under `cell`, and a mask of the events in the test fold."""
    by_event: dict[str, tuple[float, bool]] = {}
    with open(outdir / "evaluate" / f"scores_{cell}.csv", "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            by_event[row["event_id"]] = (float(row["prob_cal"]), row["fold"] == "test")
    prob_cal, in_test = zip(*(by_event[e] for e in table.event_id.tolist()))
    return np.array(prob_cal), np.array(in_test, dtype=bool)


def stage_report(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "report"
    metrics_all = _read_json(outdir / "evaluate" / "metrics.json")
    best_cell = metrics_all["best_cell"]
    task = cfg["task"]
    cells = metrics_all["cells"]
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
            cell = _cell_name(algorithm, "linear" if algorithm == "lr" else mode)
            if algorithm == "lr" and mode != "linear":
                row += ["", "", ""]  # the flat baseline has no embedding
                continue
            m = cells.get(cell)
            if m is None:
                row += ["", "", ""]
            else:
                row += [
                    _fmt(m["top_test_auc_mean"]),
                    _fmt(m["top_test_auc_std"]),
                    _fmt(m["recall_at_threshold"]),
                ]
        rows.append(row)
    with open(stage_dir / "table3.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    # Subgroup breakdown of the best model's calibrated test-fold scores.
    table, features_meta = _load_sequences(outdir, task)
    scores, in_test = _cell_scores(outdir, best_cell, table)
    test = table.select(in_test)
    scores = scores[in_test]
    labels = test.label_for(task).astype(np.int64)
    n_proc_columns = features_meta["n_proc_columns"]
    groups: dict[str, list[str]] = {key: getattr(test, key).tolist() for key in SUBGROUP_KEYS}
    member = test.proc_ccs_membership(n_proc_columns)
    for cat in range(n_proc_columns):
        label = "other" if cat == n_proc_columns - 1 else str(cat)
        groups[f"proc_ccs_{label}"] = np.where(member[:, cat], "present", "absent").tolist()
    report_rows = subgroup_report(scores, labels, groups, n_min=cfg["evaluate"]["n_min"], threshold=cfg["evaluate"]["threshold"])
    with open(stage_dir / "subgroups.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["partition", "group", "n", "prevalence", "auc", "recall", "small_n"])
        for row in report_rows:
            writer.writerow(
                [
                    row["partition"],
                    row["group"],
                    row["n"],
                    _fmt(row["prevalence"]),
                    _fmt(row["auc"]),
                    _fmt(row["recall"]),
                    int(row["small_n"]),
                ]
            )
    _write_json(
        stage_dir / "report_info.json",
        {"task": task, "best_cell": best_cell, "n_test_events": len(test)},
    )
    print(f"report: table3.csv ({len(rows) - 1} rows), subgroups.csv ({len(report_rows)} rows), best cell {best_cell}")


def stage_importance(cfg: dict, outdir: Path) -> None:
    stage_dir = outdir / "importance"
    best_cell = _read_json(outdir / "evaluate" / "metrics.json")["best_cell"]
    task = cfg["task"]
    threshold = cfg["evaluate"]["threshold"]
    table, features_meta = _load_sequences(outdir, task)
    scores, _ = _cell_scores(outdir, best_cell, table)
    flat = flatten(
        table,
        features_meta["n_dx_columns"],
        features_meta["n_proc_columns"],
        features_meta["z_names"],
    )
    rows = surrogate_importance(flat.matrix, flat.names, flat.categories, scores, threshold=threshold)
    with open(stage_dir / "importance.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["category", "feature", "importance"])
        for row in rows:
            writer.writerow([row["category"], row["feature"], f"{row['importance']:.6f}"])
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
            "n_events": len(table),
            "n_predicted_positive": int((scores >= threshold).sum()),
        },
    )
    print(f"importance: {len(rows)} features ranked from cell {best_cell}")


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
    inputs, make its directory, run it, and record its declared outputs."""
    outdir = Path(cfg["outdir"])
    inputs, outputs = _artifacts(cfg)[stage]
    verified = require_inputs(outdir, inputs)
    (outdir / stage).mkdir(parents=True, exist_ok=True)
    STAGE_FUNCS[stage](cfg, outdir)
    write_manifest(outdir, stage, cfg, inputs=verified, outputs=outputs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqfuse",
        description="Readmission/mortality prediction pipeline over longitudinal claims.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo-config", help="write a ready-to-run configuration")
    demo.add_argument("--out", default="-", help="path for the config JSON ('-' for stdout)")
    demo.add_argument("--outdir", default="runs/demo", help="run directory the config points at")
    demo.add_argument("--patients", type=int, default=2000, help="synthetic population size")
    demo.add_argument("--seed", type=int, default=20110901, help="root seed")

    for name in (*STAGES, "pipeline"):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "pipeline" else "run all stages in order")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--outdir", default=None, help="override the config's run directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "demo-config":
            cfg = default_config(outdir=args.outdir, n_patients=args.patients, seed=args.seed)
            text = json.dumps(cfg, indent=2, sort_keys=True) + "\n"
            if args.out == "-":
                sys.stdout.write(text)
            else:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                Path(args.out).write_text(text, encoding="utf-8")
                print(f"wrote {args.out}")
            return 0
        cfg = load_config(args.config, outdir=args.outdir)
        for stage in STAGES if args.command == "pipeline" else (args.command,):
            run_stage(stage, cfg)
        return 0
    except PrerequisiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericsError, MetricUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, CalibrationError, SeqfuseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
