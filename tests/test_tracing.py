"""The benchmark tracer's patch list against the package it wraps.

`perfbench/tracing.py` replaces names where seqfuse's callers look them
up; a name that was renamed or deleted would only fail once a traced
benchmark run installs the wrappers. This loads the module by path and
resolves each entry the way `Tracer.patched` does, and checks that the
values its wrappers measure from a call's arguments still count what
they name after a signature change.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from seqfuse import training
from seqfuse.autodiff import Tape
from seqfuse.model import ModelConfig, SeqFuseModel
from tests.reference import steps_table

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, path, _, _ in _load_tracing().PATCHES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_measured_values_count_events_and_tape_records():
    tracing = _load_tracing()
    table = steps_table([[[1], [2, 3]], [[0]], [[4], [], [5]], [[1, 1]], [[2], [3]]])
    model = SeqFuseModel(
        ModelConfig(input_dim=6, embed_dim=3, hidden_dim=4, domain_dim=0, n_gru_layers=1, fusion="none",
                    mlp_hidden_dims=(), embedding="linear", seed=0)
    )
    rows = np.array([2, 0, 4])
    tracer = tracing.Tracer("test")
    with tracer.patched():
        model.predict(rows, table)
        with Tape() as tape:
            loss, _ = model.loss(rows, table, np.array([1.0, 0.0, 1.0]), 1.0)
            training.backward(tape, loss)
    values = {span[tracing.NAME]: span[tracing.VALUE] for span in tracer.spans}
    assert values["model.predict"] == len(rows)
    assert values["autodiff.backward"] == len(tape.records) > 0
    metrics = tracing.layer_metrics(tracer.spans, n_deep_cells=1)
    assert metrics["model.predict.events"] == len(rows)
    assert metrics["autodiff.tape_records_per_step"] == len(tape.records)
    assert metrics["training.train_steps"] == 1
