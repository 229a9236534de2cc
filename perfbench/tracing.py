"""Spans around calls into seqfuse's layers, and the per-layer metrics
computed from them.

A span is [name, start, end, parent, value]: `parent` is the index of the
enclosing span (-1 at the top) and `value` is an optional number the
wrapper measured from the call's arguments (tape records, bytes, events).
Spans stay in memory until the traced repetition ends; `write_csv` then
writes them out, all under the repetition's run id.

Wrappers replace the name where the caller looks it up. `cli.py` binds
`from .cohort import build_cohort` into its own namespace, so patching
`seqfuse.cohort.build_cohort` alone would miss every call the stages make.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import math
import os
import statistics
from pathlib import Path
from time import perf_counter


def _tape_records(tape, loss):
    return len(tape.records)


def _predict_events(model, step_lists, *args, **kwargs):
    return len(step_lists)


def _file_bytes(path):
    return os.path.getsize(path)


def _smote_pairwise_bytes(features, labels, *args, **kwargs):
    """Bytes of the (n_min, n_min, d) float64 difference tensor `smote`
    builds, computed from its arguments rather than measured."""
    n_pos = int(labels.sum())
    n_min = min(n_pos, len(labels) - n_pos)
    return n_min * n_min * features.shape[1] * 8


# (module, attribute path where the caller looks the name up, span name, measure)
PATCHES: tuple[tuple[str, str, str, object], ...] = (
    ("seqfuse.cli", "generate_population", "claims.generate_population", None),
    ("seqfuse.cli", "ingest_claims", "claims.ingest_claims", None),
    ("seqfuse.cli", "load_bundle", "knowledge.load_bundle", None),
    ("seqfuse.cli", "build_cohort", "cohort.build_cohort", None),
    ("seqfuse.cli", "featurize_events", "features.featurize_events", None),
    ("seqfuse.cli", "flatten", "baseline.flatten", None),
    ("seqfuse.cli", "_load_sequences", "cli.load_sequences", None),
    ("seqfuse.cli", "require_inputs", "cli.require_inputs", None),
    ("seqfuse.cli", "_sha256", "cli.sha256", _file_bytes),
    ("seqfuse.cli", "fit_platt", "calibration.fit", None),
    ("seqfuse.cli", "fit_temperature", "calibration.fit", None),
    ("seqfuse.cli", "auc", "metrics.auc", None),
    ("seqfuse.cli", "subgroup_report", "metrics.subgroup_report", None),
    ("seqfuse.cli", "surrogate_importance", "metrics.surrogate_importance", None),
    # subgroup_report's own calls, and make_lr_runner's call-time import.
    ("seqfuse.metrics", "auc", "metrics.auc", None),
    ("seqfuse.training", "auc", "metrics.auc", None),
    ("seqfuse.training", "smote", "training.smote", _smote_pairwise_bytes),
    ("seqfuse.training", "backward", "autodiff.backward", _tape_records),
    ("seqfuse.baseline", "train_lr", "baseline.train_lr", None),
    ("seqfuse.autodiff", "Adam.step", "autodiff.optimizer", None),
    ("seqfuse.autodiff", "Adam.zero_grad", "autodiff.optimizer", None),
    ("seqfuse.autodiff", "Sgd.step", "autodiff.optimizer", None),
    ("seqfuse.autodiff", "Sgd.zero_grad", "autodiff.optimizer", None),
    ("seqfuse.model", "SeqFuseModel.loss", "model.loss", None),
    ("seqfuse.model", "SeqFuseModel.forward", "model.forward", None),
    ("seqfuse.model", "SeqFuseModel.embed", "model.embed", None),
    ("seqfuse.model", "SeqFuseModel.gru_step", "model.gru_step", None),
    ("seqfuse.model", "SeqFuseModel.attend", "model.attend", None),
    ("seqfuse.model", "SeqFuseModel.fuse_and_output", "model.fuse_and_output", None),
    ("seqfuse.model", "SeqFuseModel.predict", "model.predict", _predict_events),
)

NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, value) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, value]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        record = self._open(name, None)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name, measure(*args, **kwargs) if measure else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Installs every wrapper in PATCHES and restores the originals."""
        saved = []
        try:
            for module_name, path, name, measure in PATCHES:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original, measure))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["run_id", "span", "name", "start_s", "end_s", "parent", "value"])
            for i, (name, start, end, parent, value) in enumerate(self.spans):
                writer.writerow([self.run_id, i, name, repr(start), repr(end), parent, "" if value is None else value])


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def layer_metrics(spans: list[list], n_deep_cells: int) -> dict[str, float]:
    """Per-layer numbers from one traced repetition's spans."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    for span in spans:
        name, dur = span[NAME], span[END] - span[START]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if span[VALUE] is not None:
            values.setdefault(name, []).append(span[VALUE])
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]][NAME]
            self_time[parent] = self_time.get(parent, 0.0) - dur

    # A train step is one model.loss call plus the backward and optimizer
    # calls that follow it, up to the next loss.
    step_s: list[float] = []
    forwards_in_loss = 0
    for span in spans:
        name = span[NAME]
        if name == "model.loss":
            step_s.append(0.0)
        if step_s and name in ("model.loss", "autodiff.backward", "autodiff.optimizer"):
            step_s[-1] += span[END] - span[START]
        if name == "model.forward" and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "model.loss":
            forwards_in_loss += 1
    step_ms = sorted(s * 1000.0 for s in step_s)
    n_steps = calls.get("autodiff.backward", 0)

    # Full-population predicts made by the stages after train.
    post_predicts = 0
    for span in spans:
        if span[NAME] != "model.predict":
            continue
        root = span
        while root[PARENT] >= 0:
            root = spans[root[PARENT]]
        if root[NAME] in ("stage.calibrate", "stage.evaluate"):
            post_predicts += 1

    records = values.get("autodiff.backward", [])
    return {
        "model.embed.self_s": self_time.get("model.embed", 0.0),
        "model.gru_step.self_s": self_time.get("model.gru_step", 0.0),
        "model.attend.self_s": self_time.get("model.attend", 0.0),
        "model.fuse_and_output.self_s": self_time.get("model.fuse_and_output", 0.0),
        "model.forward.calls_per_step": forwards_in_loss / n_steps if n_steps else 0.0,
        "autodiff.backward.s": total.get("autodiff.backward", 0.0),
        "autodiff.optimizer.s": total.get("autodiff.optimizer", 0.0),
        "autodiff.tape_records_per_step": statistics.median(records) if records else 0,
        "training.train_step_ms.p50": _nearest_rank(step_ms, 0.5),
        "training.train_step_ms.p90": _nearest_rank(step_ms, 0.9),
        "training.train_steps": n_steps,
        "model.predict.s": total.get("model.predict", 0.0),
        "model.predict.events": sum(values.get("model.predict", [])),
        "cli.predict_passes": post_predicts / n_deep_cells if n_deep_cells else 0.0,
        "training.smote.s": total.get("training.smote", 0.0),
        "training.smote.pairwise_bytes": max(values.get("training.smote", [0])),
        "claims.generate_population.s": total.get("claims.generate_population", 0.0),
        "claims.ingest_claims.s": total.get("claims.ingest_claims", 0.0),
        "claims.ingest_claims.calls": calls.get("claims.ingest_claims", 0),
        "cohort.build_cohort.s": total.get("cohort.build_cohort", 0.0),
        "cohort.build_cohort.calls": calls.get("cohort.build_cohort", 0),
        "features.featurize_events.s": total.get("features.featurize_events", 0.0),
        "knowledge.load_bundle.calls": calls.get("knowledge.load_bundle", 0),
        "cli.load_sequences.s": total.get("cli.load_sequences", 0.0),
        "cli.load_sequences.calls": calls.get("cli.load_sequences", 0),
        "baseline.flatten.s": total.get("baseline.flatten", 0.0),
        "baseline.flatten.calls": calls.get("baseline.flatten", 0),
        "cli.sha256.bytes": sum(values.get("cli.sha256", [])),
        "cli.require_inputs.s": total.get("cli.require_inputs", 0.0),
        "baseline.train_lr.s": total.get("baseline.train_lr", 0.0),
        "calibration.fit.s": total.get("calibration.fit", 0.0),
        "metrics.auc.s": total.get("metrics.auc", 0.0),
        "metrics.subgroup_report.s": total.get("metrics.subgroup_report", 0.0),
        "metrics.surrogate_importance.s": total.get("metrics.surrogate_importance", 0.0),
    }
