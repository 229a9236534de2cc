"""End-to-end checks of the command-line pipeline on a small population."""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqfuse import cli
from seqfuse.claims import CLAIM_COLUMNS, read_npz, write_npz
from seqfuse.cli import (
    ALGORITHMS,
    STAGES,
    _artifacts,
    _cell_scores,
    _load_best,
    _load_sequences,
    default_config,
    load_config,
    main,
    validate_config,
)
from seqfuse.cohort import POPULATION_MEMBERS
from seqfuse.errors import NumericsError
from seqfuse.features import SUBGROUP_KEYS, EventTable, SequenceOptions, charlson_band
from seqfuse.knowledge import load_bundle
from seqfuse.metrics import subgroup_report
from seqfuse.model import load_model, random_embedding
from seqfuse.training import FOLD_NAMES, config_hash
from tests.reference import (
    GRU_ARRAYS,
    age_band,
    build_domain_vector,
    build_sequence,
    gru_gate_blocks,
    read_population_npz,
    reference_cohort,
    reference_table,
    scores_csv,
    table_steps,
)


def _best_model(outdir: Path, cell: str):
    spec, arrays = _load_best(outdir / "train" / "models" / cell / "best")
    return load_model(spec["model_config"], arrays)


def _write_config(path: Path, outdir: Path, **overrides) -> Path:
    cfg = default_config(outdir=str(outdir), n_patients=120, seed=4242)
    cfg["generate"]["mean_claims_per_patient"] = 5.0
    cfg["train"].update(
        {
            "algorithms": ["lr", "early_fusion"],
            "epochs": 2,
            "patience": 2,
            "grid": {
                "embed_dim": [6],
                "hidden_dim": [8],
                "n_gru_layers": [1],
                "mlp_hidden_dims": [[8]],
                "lr": [0.05],
                "batch_size": [32],
                "w_pos": [2.0],
            },
            "lr_grid": {"l2": [0.1], "smote": [False]},
        }
    )
    cfg["evaluate"].update({"top_k": [10], "n_min": 5})
    for key, value in overrides.items():
        cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


# Keys that configs from older versions carry, with a value they wrote: each
# must be dropped on load (`cli._REMOVED_KEYS`). Other values of the keys
# dropped only at that value are among `test_malformed_shape_is_exit_2`'s
# cases.
_OLD_VALUES = {
    "calibrate": {"method_deep": "temperature", "method_lr": "platt"},
    "features.pretrained_embed_dim": 16,
    "generate.dx_vocab": 90,
    "generate.proc_vocab": 36,
    "knowledge": {},
    "train.jobs": 1,
    "train.optimizer": "adam",
    "train.w_neg": 1.0,
}


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    outdir = root / "run"
    config = _write_config(root / "config.json", outdir)
    assert main(["pipeline", "--config", str(config)]) == 0
    return config, outdir


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _show(capsys, *argv: str) -> str:
    """What `seqfuse show ...` prints, once it exits 0."""
    capsys.readouterr()
    assert main(["show", *argv]) == 0, argv
    return capsys.readouterr().out


def _shown_scores(capsys, config: Path, cell: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(_show(capsys, "scores", cell, "--config", str(config)))))


class TestDemoConfig:
    def test_writes_a_valid_config(self, tmp_path):
        out = tmp_path / "cfg.json"
        assert main(["demo-config", "--out", str(out), "--patients", "77", "--seed", "5"]) == 0
        cfg = json.loads(out.read_text())
        assert cfg["generate"]["n_patients"] == 77
        assert cfg["seed"] == 5
        assert validate_config(cfg) == []

    def test_stdout_mode(self, capsys):
        assert main(["demo-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["task"] == "readmission"

    @pytest.mark.parametrize(
        "argv, problem",
        [(["--patients", "0"], "generate.n_patients must be positive"), (["--outdir", ""], "outdir must be a non-empty")],
        ids=["patients", "outdir"],
    )
    def test_a_config_no_stage_would_run_is_exit_2_and_not_written(self, tmp_path, capsys, argv, problem):
        out = tmp_path / "cfg.json"
        capsys.readouterr()
        assert main(["demo-config", "--out", str(out), *argv]) == 2
        assert main(["demo-config", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.count(problem) == 2 and captured.out == ""
        assert not out.exists()


class TestConfigHandling:
    def test_all_problems_reported_together(self):
        cfg = default_config()
        cfg["task"] = "discharge"
        cfg["train"]["fractions"] = [1.0, 0.0, 0.0]
        cfg["mystery"] = 1
        problems = validate_config(cfg)
        assert len(problems) == 3

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "fractions", ["a", 0.15, 0.05, 0.10]),
            ("evaluate", "threshold", "0.5"),
            ("train", "epochs", "3"),
            ("features", "lookback_days", None),
            ("generate", "n_patients", True),
            ("generate", "mean_claims_per_patient", "x"),
            ("train", "optimizer", "rmsprop"),
            ("train", "w_neg", -1),
            ("features", "exclude_index_step", "false"),
            ("features", "lookback_day", 30),
            ("train", "grid", {**default_config()["train"]["grid"], "lr": ["0.05"]}),
            ("train", "grid", {**default_config()["train"]["grid"], "mlp_hidden_dims": [16]}),
            ("train", "lr_grid", {"l2": [0.0], "smote": [True]}),
        ],
    )
    def test_wrongly_typed_value_is_one_problem_and_exit_2(self, tmp_path, section, key, value):
        cfg = default_config()
        cfg[section][key] = value
        assert len(validate_config(cfg)) == 1
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run", **{section: {key: value}})
        assert main(["generate", "--config", str(config)]) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "overrides, problem",
        [
            ({"generate": 5}, "generate must be a JSON object"),
            ({"knowledge": ["charlson_weights.json"]}, "unknown config keys: ['knowledge']"),
            ({"train": {"grid": []}}, "train.grid must be a JSON object"),
            ({"train": {"lr_grid": [0.1]}}, "train.lr_grid must be a JSON object"),
            ({"train": {"lr_grid": {"l2": 0.1, "smote": [False]}}}, "train.lr_grid.l2 must be a list"),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "batch_size": 32}}},
                "train.grid.batch_size must be a list",
            ),
            ({"knowledge": {"hac_rules": "hac_rules.json"}}, "unknown config keys: ['knowledge']"),
            ({"knowledge": {"lace_tables": "lace_tables.json"}}, "unknown config keys: ['knowledge']"),
            ({"features": {"lookback_day": 30}}, "unknown features keys: ['lookback_day']"),
            ({"train": {"optimiser": "sgd"}}, "unknown train keys: ['optimiser']"),
            ({"evaluate": {"topk": [10]}}, "unknown evaluate keys: ['topk']"),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "hiden_dim": [8]}}},
                "unknown train.grid keys: ['hiden_dim']",
            ),
            ({"train": {"lr_grid": {"l2": [0.1], "smot": [True]}}}, "unknown train.lr_grid keys: ['smot']"),
            ({"features": {"exclude_index_step": "false"}}, "features.exclude_index_step must be a boolean"),
            ({"train": {"lr_grid": {"l2": [0.1], "smote": ["no"]}}}, "train.lr_grid.smote[0] must be a boolean"),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "lr": ["0.05"]}}},
                "train.grid.lr[0] must be a number",
            ),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "mlp_hidden_dims": [16]}}},
                "train.grid.mlp_hidden_dims[0] must be a list",
            ),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "embed_dim": [0]}}},
                "train.grid.embed_dim must be a non-empty list of positive values",
            ),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "lr": [-0.1]}}},
                "train.grid.lr must be a non-empty list of positive values",
            ),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "batch_size": [0]}}},
                "train.grid.batch_size must be a non-empty list of positive values",
            ),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "n_gru_layers": [0]}}},
                "train.grid.n_gru_layers must be a non-empty list of values of at least 1",
            ),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "mlp_hidden_dims": [[16, 0]]}}},
                "train.grid.mlp_hidden_dims must be a non-empty list of lists of positive widths",
            ),
            (
                {"train": {"lr_grid": {"l2": [0.0], "smote": [True]}}},
                "train.lr_grid.l2 must be a non-empty list of positive values",
            ),
            ({"train": {"grid": {"hidden_dim": [8], "lr": [0.05]}}}, "train.grid.embed_dim is missing"),
            # Only the 90/36 that older demo configs carry is dropped on load.
            ({"generate": {"dx_vocab": 120}}, "unknown generate keys: ['dx_vocab']"),
            # Only the protocol's own calibrate object is dropped on load.
            ({"calibrate": {"method_deep": "platt", "method_lr": "platt"}}, "unknown config keys: ['calibrate']"),
            ({"calibrate": {"method_deep": "temperature"}}, "unknown config keys: ['calibrate']"),
            ({"generate": {"proc_vocab": 40}}, "unknown generate keys: ['proc_vocab']"),
            # Only an older config's w_neg of 1.0 is dropped, and `true` is not 1.0.
            ({"train": {"w_neg": 0.5}}, "unknown train keys: ['w_neg']"),
            ({"train": {"w_neg": True}}, "unknown train keys: ['w_neg']"),
            # Only an older config's "adam" is dropped: training has no SGD.
            ({"train": {"optimizer": "sgd"}}, "unknown train keys: ['optimizer']"),
        ],
    )
    def test_malformed_shape_is_exit_2(self, tmp_path, overrides, problem):
        cfg = default_config(outdir=str(tmp_path / "run"))
        for key, value in overrides.items():
            cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
        assert problem in validate_config(cfg)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["generate", "--config", str(config)]) == 2
        assert not (tmp_path / "run").exists()

    def test_grid_axes_left_out_take_the_default_config_values(self, tmp_path):
        grid = {"embed_dim": [6], "hidden_dim": [8], "lr": [0.05]}
        outdir = tmp_path / "run"
        train = {"algorithms": ["early_fusion"], "grid": grid, "lr_grid": {"l2": [0.1]}}
        config = _write_config(tmp_path / "cfg.json", outdir, train=train)
        cfg = load_config(str(config))
        assert cfg["train"]["grid"] == {**default_config()["train"]["grid"], **grid}
        assert cfg["train"]["lr_grid"] == {"l2": [0.1], "smote": [True]}
        for stage in ("generate", "cohort", "featurize", "train"):
            assert main([stage, "--config", str(config)]) == 0, stage
        model = _best_model(outdir, "early_fusion__linear")
        assert model.config.mlp_hidden_dims == (16,)

    def test_missing_config_file_is_exit_2(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["generate", "--config", str(bad)]) == 2

    def test_invalid_settings_are_exit_2(self, tmp_path):
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run", task="discharge")
        assert main(["generate", "--config", str(config)]) == 2

    def test_outdir_override(self, tmp_path):
        config = _write_config(tmp_path / "cfg.json", tmp_path / "a")
        cfg = load_config(str(config), outdir=str(tmp_path / "b"))
        assert cfg["outdir"] == str(tmp_path / "b")

    @pytest.mark.parametrize("path", sorted(_OLD_VALUES))
    def test_a_removed_key_is_dropped_before_hashing(self, tmp_path, path):
        section, _, key = path.rpartition(".")
        override = {section: {key: _OLD_VALUES[path]}} if section else {key: _OLD_VALUES[path]}
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run", **override)
        cfg = load_config(str(config))
        assert config_hash(cfg) == config_hash(load_config(str(_write_config(tmp_path / "new.json", tmp_path / "run"))))


class TestPipelineArtifacts:
    def test_every_stage_leaves_a_manifest(self, pipeline_run):
        _, outdir = pipeline_run
        stages = ("generate", "cohort", "featurize", "train", "calibrate", "evaluate", "report", "importance")
        hashes = set()
        for stage in stages:
            manifest = json.loads((outdir / stage / "manifest.json").read_text())
            assert manifest["stage"] == stage
            assert manifest["seed"] == 4242
            hashes.add(manifest["config_hash"])
            for rel, digest in manifest["outputs"].items():
                assert _sha(outdir / rel) == digest, rel
        assert len(hashes) == 1  # one experiment, one identity

    def test_featurize_covers_the_eligible_cohort(self, pipeline_run, capsys):
        config, outdir = pipeline_run
        rows = map(json.loads, _show(capsys, "events", "--config", str(config)).splitlines())
        eligible = [row["event_id"] for row in rows if row["exclusion_reason"] is None]
        table = EventTable.load(outdir / "featurize" / "events.npz")
        features = json.loads((outdir / "featurize" / "features.json").read_text())
        assert len(table) == features["n_events"] == len(eligible)
        assert table.event_ids() == eligible
        assert features["input_dim"] == features["n_dx_columns"] + features["n_proc_columns"]

    def test_split_is_patient_disjoint_and_complete(self, pipeline_run):
        _, outdir = pipeline_run
        split = json.loads((outdir / "train" / "split.json").read_text())
        seen = []
        for fold in split["patients"].values():
            seen.extend(fold)
        assert len(seen) == len(set(seen))
        run = _load_sequences(outdir, "readmission", split=True)
        assert set(seen) == set(run.table.beneficiary_id.tolist())
        by_fold = {name: len(idx) for name, idx in run.folds.items()}
        assert by_fold["train"] > by_fold["test"] > 0

    def test_reader_places_each_event_in_its_patients_fold(self, pipeline_run):
        """The reader places each event in the fold that split.json's
        patient lists give its patient."""
        _, outdir = pipeline_run
        run = _load_sequences(outdir, "readmission", split=True)
        split = json.loads((outdir / "train" / "split.json").read_text())
        fold_of_patient = {pid: name for name, pids in split["patients"].items() for pid in pids}
        fold_of = [fold_of_patient[pid] for pid in run.table.beneficiary_id.tolist()]
        assert run.fold_of.tolist() == fold_of
        assert run.folds == {name: [i for i, fold in enumerate(fold_of) if fold == name] for name in FOLD_NAMES}
        assert all(run.folds.values())

    def test_grid_trials_recorded_per_cell(self, pipeline_run):
        _, outdir = pipeline_run
        with open(outdir / "train" / "trials.csv", newline="") as fh:
            trials = list(csv.DictReader(fh))
        by_cell = {}
        for t in trials:
            by_cell.setdefault(t["cell"], 0)
            by_cell[t["cell"]] += 1
        assert by_cell == {"lr__linear": 1, "early_fusion__linear": 1}
        summary = json.loads((outdir / "train" / "summary.json").read_text())
        assert set(summary["cells"]) == set(by_cell)
        for name, cell in summary["cells"].items():
            assert cell["n_failed"] == 0
            assert (outdir / "train" / "models" / name / "best").is_dir()

    def test_learning_curves_hold_one_row_per_deep_trial_epoch(self, pipeline_run):
        _, outdir = pipeline_run
        lines = (outdir / "train" / "curves.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        with open(outdir / "train" / "trials.csv", newline="") as fh:
            trial = next(t for t in csv.DictReader(fh) if t["cell"] == "early_fusion__linear")
        assert [row["epoch"] for row in rows] == list(range(len(rows)))
        assert len(rows) >= 2
        for row in rows:
            assert set(row) == {"cell", "config_hash", "seed", "epoch", "train_loss", "valid_auc"}
            assert (row["cell"], row["config_hash"], str(row["seed"])) == (
                "early_fusion__linear", trial["config_hash"], trial["seed"],
            )
            assert 0.0 <= row["valid_auc"] <= 1.0
        assert rows[0]["train_loss"] is None
        assert all(row["train_loss"] > 0 for row in rows[1:])
        # The best epoch's valid AUC is the trial's.
        assert max(row["valid_auc"] for row in rows) == float(trial["valid_auc"])

    def test_scores_csv_schema(self, pipeline_run, capsys):
        config, outdir = pipeline_run
        rows = _shown_scores(capsys, config, "early_fusion__linear")
        assert rows and set(rows[0]) == {"event_id", "fold", "label", "raw", "prob_raw", "prob_cal"}
        assert len(rows) == json.loads((outdir / "featurize" / "features.json").read_text())["n_events"]
        folds = {r["fold"] for r in rows}
        assert folds <= {"train", "valid", "calibration", "test"}
        for r in rows[:20]:
            assert r["label"] in ("0", "1")
            assert 0.0 <= float(r["prob_cal"]) <= 1.0

    def test_scores_csv_prints_the_one_score_definition(self, pipeline_run, capsys):
        """`show scores` prints, byte for byte, the file evaluate once wrote
        (`scores_csv`), from the scores `_cell_scores` defines."""
        config, outdir = pipeline_run
        metrics = json.loads((outdir / "evaluate" / "metrics.json").read_text())
        for cell in metrics["cells"]:
            raw, prob_cal = _cell_scores(outdir, cell)
            shown = _show(capsys, "scores", cell, "--config", str(config))
            assert shown == scores_csv(outdir, "readmission", cell), cell
            rows = list(csv.DictReader(io.StringIO(shown)))
            assert [r["raw"] for r in rows] == [f"{v:.10g}" for v in raw], cell
            assert [r["prob_cal"] for r in rows] == [f"{v:.10g}" for v in prob_cal], cell

    def test_metrics_align_with_summary(self, pipeline_run):
        _, outdir = pipeline_run
        metrics = json.loads((outdir / "evaluate" / "metrics.json").read_text())
        summary = json.loads((outdir / "train" / "summary.json").read_text())
        assert set(metrics["cells"]) == set(summary["cells"])
        assert metrics["best_cell"] == "early_fusion__linear"  # only deep cell
        for cell in metrics["cells"].values():
            assert 0.0 <= cell["auc"] <= 1.0
            assert cell["recall_at_top_k"]["10"] >= 0.0

    def test_top_k_beyond_the_test_fold_reads_null(self, pipeline_run, tmp_path):
        _, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        config = _write_config(tmp_path / "config.json", copy, evaluate={"top_k": [10, 100000]})
        assert main(["evaluate", "--config", str(config)]) == 0
        before = json.loads((outdir / "evaluate" / "metrics.json").read_text())["cells"]
        after = json.loads((copy / "evaluate" / "metrics.json").read_text())["cells"]
        for cell, metrics in after.items():
            assert metrics["recall_at_top_k"] == {"10": before[cell]["recall_at_top_k"]["10"], "100000": None}, cell

    def test_table3_layout(self, pipeline_run):
        _, outdir = pipeline_run
        with open(outdir / "report" / "table3.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Algorithm", "AUC_linear", "AUC_std_linear", "Recall_linear"]
        assert [r[0] for r in rows[1:]] == ["LR", "Early Fusion"]
        for row in rows[1:]:
            float(row[1])  # populated under the linear mode

    def test_subgroups_cover_required_partitions(self, pipeline_run):
        _, outdir = pipeline_run
        with open(outdir / "report" / "subgroups.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        partitions = {r["partition"] for r in rows}
        assert {"age_range", "gender", "race", "medicare_status", "charlson_band"} <= partitions
        assert any(p.startswith("proc_ccs_") for p in partitions)
        charlson = {r["group"] for r in rows if r["partition"] == "charlson_band"}
        assert charlson <= {"0-2", "3-5", "6+"}

    def test_subgroups_score_the_best_cells_test_fold(self, pipeline_run, tmp_path, monkeypatch, capsys):
        """Report scores the best cell's test-fold rows of the scores `show`
        prints, and its rows recompute from them."""
        config, outdir = pipeline_run
        best = json.loads((outdir / "evaluate" / "metrics.json").read_text())["best_cell"]
        test = [r for r in _shown_scores(capsys, config, best) if r["fold"] == "test"]
        table = EventTable.load(outdir / "featurize" / "events.npz")
        z_names = json.loads((outdir / "featurize" / "features.json").read_text())["z_names"]
        row_of = {event_id: i for i, event_id in enumerate(table.event_ids())}
        rows = [row_of[r["event_id"]] for r in test]
        expected = subgroup_report(
            np.array([float(r["prob_cal"]) for r in test]),
            np.array([int(r["label"]) for r in test]),
            {key: values[rows].tolist() for key, values in table.subgroups(z_names).items()},
            n_min=5,
        )
        seen = []

        def spy(scores, *args, **kwargs):
            seen.append(scores)
            return subgroup_report(scores, *args, **kwargs)

        monkeypatch.setattr("seqfuse.cli.subgroup_report", spy)
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        assert main(["report", "--config", str(config), "--outdir", str(copy)]) == 0
        assert [f"{score:.10g}" for score in seen[0]] == [r["prob_cal"] for r in test]
        with open(outdir / "report" / "subgroups.csv", newline="") as fh:
            report = [r for r in csv.DictReader(fh) if r["partition"] in SUBGROUP_KEYS]
        assert [(r["partition"], r["group"]) for r in report] == [(e["partition"], e["group"]) for e in expected]
        for row, e in zip(report, expected):
            assert int(row["n"]) == e["n"]
            for key in ("prevalence", "auc", "recall"):
                assert row[key] == ("" if e[key] is None else f"{e[key]:.4f}"), (row["group"], key)

    def test_importance_is_ranked(self, pipeline_run):
        _, outdir = pipeline_run
        with open(outdir / "importance" / "importance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        magnitudes = [abs(float(r["importance"])) for r in rows]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert {"category", "feature", "importance"} <= set(rows[0])
        note = json.loads((outdir / "importance" / "importance.json").read_text())
        assert "binarized" in note["explains"]
        _, scores = _cell_scores(outdir, note["cell"])
        assert note["n_events"] == len(scores)
        assert note["n_predicted_positive"] == sum(score >= 0.5 for score in scores)


class TestShow:
    def test_a_cell_the_config_does_not_have_is_exit_2_listing_its_cells(self, pipeline_run, capsys):
        config, _ = pipeline_run
        capsys.readouterr()
        assert main(["show", "scores", "late_fusion__linear", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert "the config's cells are lr__linear, early_fusion__linear" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, producer", [(["events"], "cohort"), (["scores", "lr__linear"], "calibrate")], ids=["events", "scores"]
    )
    def test_a_run_without_its_inputs_is_exit_3_naming_the_stage(self, tmp_path, capsys, argv, producer):
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run")
        if producer == "calibrate":
            for stage in ("generate", "cohort", "featurize", "train"):
                assert main([stage, "--config", str(config)]) == 0, stage
        capsys.readouterr()
        assert main(["show", *argv, "--config", str(config)]) == 3
        captured = capsys.readouterr()
        assert f"run `seqfuse {producer}` first" in captured.err
        assert captured.out == ""

    def test_a_reader_that_closes_the_pipe_early_is_exit_1_without_a_traceback(self, tmp_path):
        """`seqfuse show scores lr__linear ... | head -n 1`: the reader takes
        one line and closes the pipe while show still has rows to write
        (more than a pipe holds), so show's next write fails."""
        config = _write_config(
            tmp_path / "cfg.json", tmp_path / "run", generate={"n_patients": 1500}, train={"algorithms": ["lr"]}
        )
        assert main(["pipeline", "--config", str(config)]) == 0
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        argv = [sys.executable, "-m", "seqfuse.cli", "show", "scores", "lr__linear", "--config", str(config)]
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=300) == 1
        assert first == b"event_id,fold,label,raw,prob_raw,prob_cal\n" and err == b""

    def test_show_writes_no_file(self, pipeline_run, capsys):
        config, outdir = pipeline_run
        before = {path: _sha(path) for path in sorted(outdir.rglob("*")) if path.is_file()}
        _show(capsys, "events", "--config", str(config))
        _show(capsys, "scores", "lr__linear", "--config", str(config))
        assert {path: _sha(path) for path in sorted(outdir.rglob("*")) if path.is_file()} == before


class TestArtifactTable:
    def test_every_input_is_an_earlier_stages_output(self):
        cfg = default_config()
        cfg["train"].update({"algorithms": list(ALGORITHMS), "embedding_modes": ["linear", "pretrained"]})
        table = _artifacts(cfg)
        assert list(table) == list(STAGES)
        produced: set[str] = set()
        for stage in STAGES:
            inputs, outputs = table[stage]
            assert set(inputs) <= produced, (stage, sorted(set(inputs) - produced))
            assert all(rel.startswith(f"{stage}/") for rel in outputs), stage
            produced.update(outputs)
        # 7 cells: LR once, each deep algorithm under both embeddings; each
        # cell's model is a model.json and a weights.npz. No stage writes a
        # scores file or the index events: `seqfuse show` prints them.
        assert table["evaluate"][1] == ["evaluate/metrics.json"]
        assert "cohort/index_events.jsonl" not in table["cohort"][1]
        for stage in STAGES:
            assert not [rel for rel in table[stage][0] if rel.startswith("evaluate/scores_")], stage
        assert len([rel for rel in table["train"][1] if rel.startswith("train/models/")]) == 7 * 2

    def test_manifests_record_exactly_the_table(self, pipeline_run):
        config, outdir = pipeline_run
        table = _artifacts(load_config(str(config)))
        for stage in STAGES:
            manifest = json.loads((outdir / stage / "manifest.json").read_text())
            inputs, outputs = table[stage]
            assert sorted(manifest["inputs"]) == sorted(inputs), stage
            assert sorted(manifest["outputs"]) == sorted(outputs), stage

    def test_each_stage_directory_holds_exactly_its_outputs(self, pipeline_run):
        """A file a stage writes without declaring it sits outside the hash
        chain, so each stage directory holds its outputs and manifest only."""
        config, outdir = pipeline_run
        table = _artifacts(load_config(str(config)))
        for stage in STAGES:
            present = {p.relative_to(outdir).as_posix() for p in (outdir / stage).rglob("*") if p.is_file()}
            assert present == {*table[stage][1], f"{stage}/manifest.json"}, stage

    def test_each_tampered_input_is_exit_3_until_restored(self, pipeline_run, tmp_path):
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        table = _artifacts(load_config(str(config)))
        for stage in STAGES:
            argv = [stage, "--config", str(config), "--outdir", str(copy)]
            for rel in table[stage][0]:
                original = (copy / rel).read_bytes()
                (copy / rel).write_bytes(original + b"\0")
                assert main(argv) == 3, (stage, rel)
                (copy / rel).write_bytes(original)
                assert main(argv) == 0, (stage, rel)

    def test_a_stage_hashes_only_its_direct_inputs_and_outputs(self, pipeline_run, tmp_path, monkeypatch):
        """Upstream of its inputs, `require_inputs` compares manifests and
        reads no other artifact."""
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        table = _artifacts(load_config(str(config)))
        hashed = []

        def spy(path):
            hashed.append(path.relative_to(copy).as_posix())
            return _sha(path)

        monkeypatch.setattr(cli, "_sha256", spy)
        for stage in STAGES:
            hashed.clear()
            assert main([stage, "--config", str(config), "--outdir", str(copy)]) == 0, stage
            assert sorted(hashed) == sorted(table[stage][0] + table[stage][1]), stage
            assert (copy / stage / "manifest.json").read_bytes() == (outdir / stage / "manifest.json").read_bytes()


class TestPretrainedEmbedding:
    def test_pretrained_cells_search_embed_dim_over_a_frozen_seeded_matrix(self, tmp_path):
        """Each pretrained trial freezes `random_embedding` at its own
        embed_dim, so a pretrained cell searches embed_dim as a linear one does."""
        grid = {"embed_dim": [8, 12], "hidden_dim": [8], "lr": [0.05], "batch_size": [32]}
        train = {"algorithms": ["rnn"], "embedding_modes": ["linear", "pretrained"], "grid": grid}
        outdir = tmp_path / "run"
        config = _write_config(tmp_path / "cfg.json", outdir, train=train)
        for stage in ("generate", "cohort", "featurize", "train"):
            assert main([stage, "--config", str(config)]) == 0, stage
        with open(outdir / "train" / "trials.csv", newline="") as fh:
            trials = [row for row in csv.DictReader(fh) if row["cell"] == "rnn__pretrained"]
        assert sorted(json.loads(t["config"])["embed_dim"] for t in trials) == [8, 12]
        assert {t["status"] for t in trials} == {"ok"}
        input_dim = json.loads((outdir / "featurize" / "features.json").read_text())["input_dim"]
        frozen = _best_model(outdir, "rnn__pretrained")
        expected = random_embedding(input_dim, frozen.config.embed_dim, 4242)
        assert not frozen.params["embed.W"].requires_grad
        assert frozen.params["embed.W"].data.tobytes() == expected.tobytes()
        learned = _best_model(outdir, "rnn__linear")
        assert learned.params["embed.W"].requires_grad


class TestEmptyFold:
    def test_empty_calibration_fold_is_exit_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("seqfuse.cli.grid_search", refuse)
        outdir = tmp_path / "run"
        config = _write_config(tmp_path / "cfg.json", outdir, train={"fractions": [0.75, 0.15, 0.0, 0.10]})
        assert main(["pipeline", "--config", str(config)]) == 2
        assert "fold 'calibration' received no events" in capsys.readouterr().err
        assert not (outdir / "train" / "models").exists()
        assert not (outdir / "train" / "split.json").exists()


class TestFailedCell:
    def test_every_trial_failing_is_exit_4_naming_each_reason_once(self, pipeline_run, tmp_path, monkeypatch, capsys):
        _, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)

        def fail(x, y, l2):
            raise NumericsError("Hessian is singular" if l2 < 0.05 else f"diverged at l2={l2}")

        monkeypatch.setattr("seqfuse.baseline.train_lr", fail)
        lr_grid = {"l2": [0.1, 0.01, 0.001], "smote": [False]}
        config = _write_config(tmp_path / "cfg.json", copy, train={"algorithms": ["lr"], "lr_grid": lr_grid})
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert "every trial failed for lr__linear: " in err
        assert err.count("Hessian is singular") == 1 and err.count("diverged at l2=0.1") == 1


class TestRerunsAndTampering:
    def test_stage_rerun_is_byte_identical(self, pipeline_run):
        config, outdir = pipeline_run
        targets = [outdir / "cohort" / "population.npz", outdir / "cohort" / "manifest.json"]
        before = [_sha(p) for p in targets]
        assert main(["cohort", "--config", str(config)]) == 0
        assert [_sha(p) for p in targets] == before

    def test_missing_prerequisite_is_exit_3(self, tmp_path):
        config = _write_config(tmp_path / "cfg.json", tmp_path / "fresh")
        assert main(["evaluate", "--config", str(config)]) == 3

    def test_tampered_input_is_exit_3_until_regenerated(self, tmp_path):
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run")
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["cohort", "--config", str(config)]) == 0
        population = tmp_path / "run" / "generate" / "claims.npz"
        population.write_bytes(population.read_bytes() + b"\0")
        assert main(["cohort", "--config", str(config)]) == 3
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["cohort", "--config", str(config)]) == 0

    @pytest.mark.parametrize(
        "producer, text",
        [
            ("train", b"{not json"),
            ("train", b"\xff\xfe"),
            ("train", b"[]"),
            ("train", b'["inputs", "outputs"]'),
            ("train", b'{"outputs": {}}'),
            ("train", b'{"inputs": [], "outputs": {}}'),
            ("cohort", b"{not json"),
            ("cohort", b'{"inputs": {}, "outputs": null}'),
        ],
    )
    def test_a_malformed_manifest_is_exit_3_naming_its_stage(self, pipeline_run, tmp_path, capsys, producer, text):
        """A direct input's producer (train) or one upstream of it (cohort)."""
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        (copy / producer / "manifest.json").write_bytes(text)
        capsys.readouterr()
        assert main(["calibrate", "--config", str(config), "--outdir", str(copy)]) == 3
        assert f"is not a stage manifest; rerun `seqfuse {producer}`" in capsys.readouterr().err
        for path in sorted((outdir / "calibrate").iterdir()):
            assert (copy / "calibrate" / path.name).read_bytes() == path.read_bytes(), path.name


class TestTaskMismatch:
    def test_a_stage_under_another_task_than_its_inputs_is_exit_3(self, pipeline_run, tmp_path, capsys):
        _, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        mortality = _write_config(tmp_path / "mortality.json", copy, task="mortality")
        for stage, rel in (
            ("calibrate", "train/split.json"),
            ("evaluate", "train/split.json"),
            ("report", "train/split.json"),
            ("importance", "train/split.json"),
        ):
            assert main([stage, "--config", str(mortality)]) == 3, stage
            assert f"{rel} is for task 'readmission', not the config's 'mortality'" in capsys.readouterr().err
        # Retrained under mortality, the split no longer matches the
        # readmission metrics that report reads alongside it, nor the
        # readmission scores that calibrate wrote before.
        lr_only = _write_config(tmp_path / "lr.json", copy, task="mortality", train={"algorithms": ["lr"]})
        assert main(["train", "--config", str(lr_only)]) == 0
        readmission = _write_config(tmp_path / "readmission.json", copy)
        capsys.readouterr()
        stale_calibrate = "stage 'calibrate' read a train/models/early_fusion__linear/best/model.json that 'train'"
        assert main(["report", "--config", str(readmission)]) == 3
        assert stale_calibrate in capsys.readouterr().err
        assert main(["evaluate", "--config", str(lr_only)]) == 3
        assert stale_calibrate in capsys.readouterr().err


class TestColumnarArtifacts:
    def test_event_store_equals_per_event_featurization(self, pipeline_run):
        """events.npz against each eligible event built one at a time from
        the run's own population, cohort and knowledge bundle."""
        _, outdir = pipeline_run
        table = EventTable.load(outdir / "featurize" / "events.npz")
        with np.load(outdir / "generate" / "claims.npz", allow_pickle=False) as npz:
            beneficiaries, claims = read_population_npz(npz)
        bundle = load_bundle()
        events, stays, _ = reference_cohort(beneficiaries, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
        ben_map = {b.beneficiary_id: b for b in beneficiaries}
        eligible = [e for e in events if e.eligible]
        steps = [build_sequence(e, claims, stays, bundle.ccs) for e in eligible]
        bens = [ben_map[e.stay.beneficiary_id] for e in eligible]
        z, z_names = zip(*(build_domain_vector(e, b, claims, stays, bundle) for e, b in zip(eligible, bens)))
        assert table.event_ids() == [e.event_id for e in eligible]
        assert table.beneficiary_id.tolist() == [b.beneficiary_id for b in bens]
        assert table.admit.dtype == np.int32
        assert table.admit.tolist() == [e.stay.admit_date for e in eligible]
        for flag in ("readmit_label", "mortality_label", "mortality_excluded"):
            assert getattr(table, flag).dtype == bool
        assert table.readmit_label.tolist() == [bool(e.readmit_label) for e in eligible]
        assert table.mortality_label.tolist() == [bool(e.mortality_label) for e in eligible]
        assert table.mortality_excluded.tolist() == [e.mortality_exclusion is not None for e in eligible]
        assert table.z.dtype == np.float64
        assert table.z.tolist() == list(z)
        assert table_steps(table) == [[list(step.indices) for step in s] for s in steps]
        assert table.day_offset.tolist() == [step.day_offset for s in steps for step in s]
        charlson = z_names[0].index("charlson_index")
        groups = table.subgroups(list(z_names[0]))
        assert groups["age_range"].tolist() == [age_band(e.age) for e in eligible]
        assert groups["gender"].tolist() == [b.gender for b in bens]
        assert groups["race"].tolist() == [b.race for b in bens]
        assert groups["medicare_status"].tolist() == [b.medicare_status for b in bens]
        assert groups["charlson_band"].tolist() == [charlson_band(int(row[charlson])) for row in z]
        procs = [sorted({bundle.ccs.proc_category(p) for p in e.stay.all_proc}) for e in eligible]
        assert np.diff(table.proc_ptr).tolist() == [len(p) for p in procs]
        assert table.proc_ccs.tolist() == [c for p in procs for c in p]

    def test_event_store_holds_no_text_but_the_patient(self, pipeline_run):
        """events.npz stores each fact once: no event id and no subgroup
        label, which the patient, `admit` and z give."""
        _, outdir = pipeline_run
        arrays = read_npz(outdir / "featurize" / "events.npz")
        assert list(arrays) == [
            "beneficiary_id", "admit", "readmit_label", "mortality_label", "mortality_excluded", "z",
            "step_ptr", "day_offset", "idx_ptr", "indices", "proc_ptr", "proc_ccs",
        ]
        assert [name for name, array in arrays.items() if array.dtype.kind not in "biuf"] == ["beneficiary_id"]
        assert arrays["admit"].dtype == np.int32

    def test_population_store_holds_only_what_cohort_adds(self, pipeline_run):
        """The claims are stored once, in generate/claims.npz; the cohort's
        store holds its stays and events, which code into that file's
        string table."""
        _, outdir = pipeline_run
        with np.load(outdir / "cohort" / "population.npz", allow_pickle=False) as npz:
            assert npz.files == list(POPULATION_MEMBERS)
            stored = {name: npz[name] for name in npz.files}
        with np.load(outdir / "generate" / "claims.npz", allow_pickle=False) as npz:
            assert npz.files == list(CLAIM_COLUMNS)
            n_words = len(npz["text_ptr"]) - 1
        assert not set(stored) & set(CLAIM_COLUMNS)
        for name in ("beneficiary_id", "stay_id", "principal_dx", "all_dx", "all_proc"):
            assert 0 <= stored[f"stay.{name}"].min() and stored[f"stay.{name}"].max() < n_words, name

    def test_featurize_does_not_rebuild_the_cohort(self, pipeline_run, tmp_path, monkeypatch):
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)

        def refuse(*args, **kwargs):
            raise AssertionError("featurize rebuilt the cohort")

        monkeypatch.setattr("seqfuse.cli.build_cohort", refuse)
        assert main(["featurize", "--config", str(config), "--outdir", str(copy)]) == 0
        assert (copy / "featurize" / "events.npz").read_bytes() == (outdir / "featurize" / "events.npz").read_bytes()

    def test_featurize_reads_the_store_instead_of_parsing(self, pipeline_run, tmp_path, monkeypatch):
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)

        def refuse(*args, **kwargs):
            raise AssertionError("featurize checked the claims again")

        monkeypatch.setattr("seqfuse.cli.ingest_claims", refuse)
        assert main(["featurize", "--config", str(config), "--outdir", str(copy)]) == 0
        for path in sorted((outdir / "featurize").glob("*.*")):
            assert (copy / "featurize" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_population_store_without_the_cohort_is_exit_3(self, pipeline_run, tmp_path):
        """A population.npz from before cohort wrote its stays and events."""
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        store = copy / "cohort" / "population.npz"
        with np.load(store, allow_pickle=False) as npz:
            write_npz(store, {key: npz[key] for key in npz.files if not key.startswith(("stay.", "event."))})
        manifest = json.loads((copy / "cohort" / "manifest.json").read_text())
        manifest["outputs"]["cohort/population.npz"] = _sha(store)
        (copy / "cohort" / "manifest.json").write_text(json.dumps(manifest))
        assert main(["featurize", "--config", str(config), "--outdir", str(copy)]) == 3

    def test_event_store_from_an_older_featurize_is_exit_3(self, pipeline_run, tmp_path, capsys):
        """An events.npz with a text event id and the five subgroup columns
        in place of `admit`, which featurize's manifest records: train stops
        at loading it and names what to rerun."""
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        store = copy / "featurize" / "events.npz"
        table = EventTable.load(store)
        z_names = json.loads((copy / "featurize" / "features.json").read_text())["z_names"]
        arrays = read_npz(store)
        del arrays["admit"]
        write_npz(store, {"event_id": np.array(table.event_ids()), **arrays, **table.subgroups(z_names)})
        manifest = json.loads((copy / "featurize" / "manifest.json").read_text())
        manifest["outputs"]["featurize/events.npz"] = _sha(store)
        (copy / "featurize" / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--outdir", str(copy)]) == 3
        err = capsys.readouterr().err
        assert "missing ['admit']" in err and "'event_id'" in err and "rerun `seqfuse featurize`" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("older", ["per_gate_weights", "model_json_without_a_field"])
    def test_a_checkpoint_from_an_older_train_is_exit_3(self, pipeline_run, tmp_path, capsys, older):
        """A best model whose weights.npz holds each GRU gate's arrays apart
        (`gru0.W_r` ... `gru0.b_h`), or whose model.json lacks a field,
        which train's manifest records: calibrate stops at loading it,
        names what to rerun and leaves calibrate/ as it was."""
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)
        best = copy / "train" / "models" / "early_fusion__linear" / "best"
        if older == "per_gate_weights":
            target = best / "weights.npz"
            arrays = read_npz(target)
            fused = {name: arrays.pop(f"gru0.{name}") for name in GRU_ARRAYS}
            write_npz(target, {**arrays, **{f"gru0.{name}": block for name, block in gru_gate_blocks(fused).items()}})
        else:
            target = best / "model.json"
            spec = json.loads(target.read_text())
            del spec["model_config"]["mlp_hidden_dims"]
            target.write_text(json.dumps(spec))
        manifest = json.loads((copy / "train" / "manifest.json").read_text())
        manifest["outputs"][f"train/models/early_fusion__linear/best/{target.name}"] = _sha(target)
        (copy / "train" / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["calibrate", "--config", str(config), "--outdir", str(copy)]) == 3
        err = capsys.readouterr().err
        assert f"error: {target.name}: missing [" in err and "rerun `seqfuse train`" in err
        assert "Traceback" not in err
        kept = sorted(path.name for path in (copy / "calibrate").iterdir())
        assert kept == sorted(path.name for path in (outdir / "calibrate").iterdir())
        for path in sorted((outdir / "calibrate").iterdir()):
            assert (copy / "calibrate" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_featurize_rerun_is_byte_identical(self, pipeline_run):
        config, outdir = pipeline_run
        targets = [outdir / "featurize" / "events.npz", outdir / "featurize" / "manifest.json"]
        before = [_sha(p) for p in targets]
        assert main(["featurize", "--config", str(config)]) == 0
        assert [_sha(p) for p in targets] == before

    def test_evaluate_reads_scores_instead_of_predicting(self, pipeline_run, tmp_path, monkeypatch):
        config, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir, copy)

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate predicted again")

        monkeypatch.setattr("seqfuse.model.SeqFuseModel.predict", refuse)
        assert main(["evaluate", "--config", str(config), "--outdir", str(copy)]) == 0
        for path in sorted((outdir / "evaluate").iterdir()):
            assert (copy / "evaluate" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_tampered_event_store_is_exit_3_until_featurized(self, tmp_path):
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run")
        for stage in ("generate", "cohort", "featurize"):
            assert main([stage, "--config", str(config)]) == 0
        store = tmp_path / "run" / "featurize" / "events.npz"
        store.write_bytes(store.read_bytes() + b"\0")
        assert main(["train", "--config", str(config)]) == 3
        assert main(["featurize", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0

    def test_tampered_raw_scores_are_exit_3(self, tmp_path):
        """Evaluate, report and importance all take a cell's scores from
        calibrate's two files, so a changed byte in either stops all three."""
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run")
        for stage in ("generate", "cohort", "featurize", "train", "calibrate", "evaluate"):
            assert main([stage, "--config", str(config)]) == 0
        for name in ("raw_scores.npz", "calibrators.json"):
            path = tmp_path / "run" / "calibrate" / name
            original = path.read_bytes()
            path.write_bytes(original + b"\0")
            for stage in ("evaluate", "report", "importance"):
                assert main([stage, "--config", str(config)]) == 3, (name, stage)
            path.write_bytes(original)
        for stage in ("report", "importance"):
            assert main([stage, "--config", str(config)]) == 0, stage


class TestStaleEvents:
    """Featurize rerun on a finished run (300 patients, seed 7, one epoch
    of LR and early fusion) under the other `exclude_index_step`: 17 of
    the run's 427 events have no visit step before the index stay, so
    train's split and calibrate's scores are for other events than
    featurize's store."""

    @pytest.mark.parametrize("exclude_first", [True, False], ids=["events_added", "events_dropped"])
    def test_every_reading_stage_is_exit_3_and_writes_nothing(self, tmp_path, capsys, exclude_first):
        outdir = tmp_path / "run"
        configs = []
        for exclude in (exclude_first, not exclude_first):
            cfg = default_config(outdir=str(outdir), n_patients=300, seed=7)
            cfg["train"].update({"algorithms": ["lr", "early_fusion"], "epochs": 1})
            cfg["features"]["exclude_index_step"] = exclude
            path = tmp_path / f"exclude_{exclude}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            configs.append(str(path))
        assert main(["pipeline", "--config", configs[0]]) == 0
        assert main(["featurize", "--config", configs[1]]) == 0
        n_events = json.loads((outdir / "featurize" / "features.json").read_text())["n_events"]
        assert n_events == (427 if exclude_first else 410)
        stale_train = (
            "stage 'train' read a featurize/events.npz that 'featurize' has rewritten since; rerun `seqfuse train`"
        )
        expected = {stage: stale_train for stage in ("calibrate", "evaluate", "report", "importance")}
        capsys.readouterr()
        for stage, message in expected.items():
            files = sorted((outdir / stage).iterdir())
            before = [_sha(path) for path in files]
            assert main([stage, "--config", configs[1]]) == 3, stage
            assert message in capsys.readouterr().err, stage
            assert sorted((outdir / stage).iterdir()) == files and [_sha(path) for path in files] == before, stage


class TestStaleChain:
    """A stage rerun on a finished run (300 patients, seed 7, one epoch of
    LR and early fusion) leaves every later stage's manifest recording
    inputs that are no longer there. Each later stage must then exit 3
    naming the earliest stale stage, and leave its own directory as it
    was."""

    @staticmethod
    def _config(path: Path, outdir: Path, **overrides) -> str:
        cfg = default_config(outdir=str(outdir), n_patients=300, seed=7)
        cfg["train"].update({"algorithms": ["lr", "early_fusion"], "epochs": 1})
        for key, value in overrides.items():
            cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("seven")
        assert main(["pipeline", "--config", self._config(root / "cfg.json", root / "run")]) == 0
        return root / "run"

    @pytest.fixture
    def copy(self, finished, tmp_path):
        shutil.copytree(finished, tmp_path / "run")
        return tmp_path / "run"

    @staticmethod
    def _refused(outdir: Path, config: str, stages, stale: str, capsys) -> None:
        capsys.readouterr()
        for stage in stages:
            files = sorted((outdir / stage).rglob("*"))
            before = [_sha(path) for path in files if path.is_file()]
            assert main([stage, "--config", config]) == 3, stage
            err = capsys.readouterr().err
            assert f"error: stage {stale!r} read a " in err and f"; rerun `seqfuse {stale}`" in err, (stage, err)
            assert sorted((outdir / stage).rglob("*")) == files, stage
            assert [_sha(path) for path in files if path.is_file()] == before, stage

    def test_train_rerun_under_other_fractions_stops_the_stages_after_calibrate(self, copy, tmp_path, capsys):
        config = self._config(tmp_path / "cfg.json", copy, train={"fractions": [0.40, 0.15, 0.05, 0.40]})
        assert main(["train", "--config", config]) == 0
        self._refused(copy, config, ("evaluate", "report", "importance"), "calibrate", capsys)

    def test_featurize_rerun_with_the_same_events_stops_the_stages_after_train(self, copy, tmp_path, capsys):
        events = copy / "featurize" / "events.npz"
        before = _sha(events)
        config = self._config(tmp_path / "cfg.json", copy, features={"lookback_days": 90})
        assert main(["featurize", "--config", config]) == 0
        assert json.loads((copy / "featurize" / "features.json").read_text())["n_events"] == 427
        assert _sha(events) != before
        self._refused(copy, config, ("calibrate", "evaluate", "report", "importance"), "train", capsys)
        # The scores of the old features are not printed against the new ones.
        assert main(["show", "scores", "lr__linear", "--config", config]) == 3
        captured = capsys.readouterr()
        assert "error: stage 'train' read a featurize/events.npz" in captured.err and captured.out == ""

    def test_generate_rerun_under_another_seed_stops_train(self, copy, tmp_path, capsys):
        config = self._config(tmp_path / "cfg.json", copy, seed=8)
        assert main(["generate", "--config", config]) == 0
        self._refused(copy, config, ("train",), "cohort", capsys)
        # Nor are another population's events printed as the run's cohort.
        assert main(["show", "events", "--config", config]) == 3
        captured = capsys.readouterr()
        assert "error: stage 'cohort' read a generate/claims.npz" in captured.err and captured.out == ""

    def test_a_rerun_with_fewer_cells_leaves_only_the_declared_outputs(self, copy, tmp_path):
        """Each stage runs in an emptied directory, so the cell a rerun
        drops leaves no model or score behind."""
        config = self._config(tmp_path / "cfg.json", copy, train={"algorithms": ["lr"]})
        assert (copy / "train" / "models" / "early_fusion__linear").is_dir()
        assert main(["pipeline", "--config", config]) == 0
        table = _artifacts(load_config(config))
        for stage in STAGES:
            present = {p.relative_to(copy).as_posix() for p in (copy / stage).rglob("*") if p.is_file()}
            assert present == {*table[stage][1], f"{stage}/manifest.json"}, stage
        assert not (copy / "train" / "models" / "early_fusion__linear").exists()
        assert sorted(p.name for p in copy.iterdir()) == sorted(STAGES)

    def test_a_cell_the_run_never_trained_is_exit_3_naming_train(self, copy, tmp_path, capsys):
        """A run trained for LR alone, read under a config that also names
        early fusion: evaluate, report, importance and `show scores` of that
        cell exit 3, print nothing and change no file, rather than fail on a
        missing key, report a blank row or rank features from another cell."""
        assert main(["pipeline", "--config", self._config(tmp_path / "lr.json", copy, train={"algorithms": ["lr"]})]) == 0
        config = self._config(tmp_path / "cfg.json", copy)
        files = sorted(copy.rglob("*"))
        before = [_sha(path) for path in files if path.is_file()]
        for argv in (["evaluate"], ["report"], ["importance"], ["show", "scores", "early_fusion__linear"]):
            capsys.readouterr()
            assert main([*argv, "--config", config]) == 3, argv
            captured = capsys.readouterr()
            assert "has no cell 'early_fusion__linear'; rerun `seqfuse train`" in captured.err, (argv, captured.err)
            assert captured.out == "", argv
        assert sorted(copy.rglob("*")) == files
        assert [_sha(path) for path in files if path.is_file()] == before

    def test_a_stage_its_body_refuses_changes_no_file(self, copy, tmp_path, capsys):
        """The task check runs inside the stage body, after the directory
        is emptied; the refused stage's files are put back as they were."""
        config = self._config(tmp_path / "cfg.json", copy, task="mortality")
        files = sorted((copy / "calibrate").rglob("*"))
        before = [_sha(path) for path in files]
        capsys.readouterr()
        assert main(["calibrate", "--config", config]) == 3
        assert "train/split.json is for task 'readmission'" in capsys.readouterr().err
        assert sorted((copy / "calibrate").rglob("*")) == files and [_sha(path) for path in files] == before
        assert sorted(p.name for p in copy.iterdir()) == sorted(STAGES)

    def test_evaluate_rerun_at_another_threshold_is_not_stale(self, copy, tmp_path):
        """The chain compares artifacts, not config hashes."""
        config = self._config(tmp_path / "cfg.json", copy, evaluate={"threshold": 0.3})
        for stage in ("evaluate", "report", "importance"):
            assert main([stage, "--config", config]) == 0, stage
        assert json.loads((copy / "evaluate" / "metrics.json").read_text())["threshold"] == 0.3


class TestExcludeIndexStep:
    def test_events_without_history_are_dropped_and_counted(self, tmp_path):
        """Seed 5 at 300 patients has eligible events with no visit before
        the index stay; they are dropped, not fatal."""
        outdir = tmp_path / "run"
        config = tmp_path / "cfg.json"
        cfg = default_config(outdir=str(outdir), n_patients=300, seed=5)
        cfg["features"]["exclude_index_step"] = True
        config.write_text(json.dumps(cfg), encoding="utf-8")
        for stage in ("generate", "cohort", "featurize"):
            assert main([stage, "--config", str(config)]) == 0, stage
        features = json.loads((outdir / "featurize" / "features.json").read_text())
        audit = json.loads((outdir / "cohort" / "audit.json").read_text())
        assert features["n_dropped_no_steps"] > 0
        assert features["n_events"] + features["n_dropped_no_steps"] == audit["n_eligible"]
        table = EventTable.load(outdir / "featurize" / "events.npz")
        assert len(table) == features["n_events"] and np.all(np.diff(table.step_ptr) > 0)
        assert np.all(table.day_offset < 0)
        with np.load(outdir / "generate" / "claims.npz", allow_pickle=False) as npz:
            beneficiaries, claims = read_population_npz(npz)
        bundle = load_bundle()
        events, stays, _ = reference_cohort(beneficiaries, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
        expected, _, groups = reference_table(
            events,
            {b.beneficiary_id: b for b in beneficiaries},
            claims,
            stays,
            bundle,
            SequenceOptions(exclude_index_step=True),
        )
        assert table.event_ids() == expected.event_ids()
        assert table.z.tobytes() == expected.z.tobytes()
        assert table.indices.tolist() == expected.indices.tolist()
        z_names = features["z_names"]
        assert {k: v.tolist() for k, v in table.subgroups(z_names).items()} == {k: v.tolist() for k, v in groups.items()}


class TestMortalityTask:
    def test_pipeline_runs_for_the_second_task(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        config = _write_config(
            tmp_path / "cfg.json",
            outdir,
            task="mortality",
            train={"algorithms": ["lr"]},
        )
        assert main(["pipeline", "--config", str(config)]) == 0
        summary = json.loads((outdir / "train" / "summary.json").read_text())
        assert summary["task"] == "mortality"
        metrics = json.loads((outdir / "evaluate" / "metrics.json").read_text())
        assert metrics["best_cell"] == "lr__linear"
        features = json.loads((outdir / "featurize" / "features.json").read_text())
        rows = [json.loads(line) for line in _show(capsys, "events", "--config", str(config)).splitlines()]
        excluded = sum(r["exclusion_reason"] is None and r["mortality_exclusion"] is not None for r in rows)
        split = json.loads((outdir / "train" / "split.json").read_text())
        fold_of = _load_sequences(outdir, "mortality", split=True).fold_of
        n_split = len(fold_of)
        assert n_split == features["n_events"] - excluded
        # The run has deaths, but none among the calibration fold's events.
        assert split["warnings"] == ["fold 'calibration' has 8 events, all negative"]
        report_info = json.loads((outdir / "report" / "report_info.json").read_text())
        assert report_info["n_test_events"] == (fold_of == "test").sum()
        shown = _show(capsys, "scores", "lr__linear", "--config", str(config))
        assert shown == scores_csv(outdir, "mortality", "lr__linear")
        assert len(shown.splitlines()) == n_split + 1


class TestFoldPlacement:
    @pytest.mark.parametrize("task", ["readmission", "mortality"])
    def test_every_reading_stage_places_events_where_train_did(self, tmp_path, monkeypatch, capsys, task):
        """`train/split.json` holds each fold's patients and nothing per
        event, and every stage that reads the run after train, and `show
        scores`, reads it once and places each event in the fold train put
        it in."""
        config = str(_write_config(tmp_path / "cfg.json", tmp_path / "run", task=task, train={"algorithms": ["lr"]}))
        load, loaded = cli._load_sequences, []

        def recording(*args, **kwargs):
            loaded.append(load(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load_sequences", recording)
        placed = {}
        for argv in [[stage] for stage in STAGES] + [["show", "scores", "lr__linear"]]:
            loaded.clear()
            assert main([*argv, "--config", config]) == 0, argv
            placed[argv[0]] = [run.fold_of.tolist() for run in loaded]
        capsys.readouterr()
        split = json.loads((tmp_path / "run" / "train" / "split.json").read_text())
        assert sorted(split) == ["fractions", "patients", "seed", "task", "warnings"]
        assert split["task"] == task
        (train,) = placed["train"]
        assert set(train) == set(FOLD_NAMES)
        for stage in ("calibrate", "evaluate", "report", "importance", "show"):
            assert placed[stage] == [train], stage
