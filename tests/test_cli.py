"""End-to-end checks of the command-line pipeline on a small population."""

import csv
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from seqfuse.claims import CLAIM_COLUMNS, write_npz
from seqfuse.cli import ALGORITHMS, STAGES, _artifacts, _load_best, default_config, load_config, main, validate_config
from seqfuse.cohort import POPULATION_MEMBERS, age_band
from seqfuse.features import EventTable, SequenceOptions, charlson_band
from seqfuse.knowledge import CcsMap, load_bundle
from seqfuse.model import load_model, random_embedding
from seqfuse.training import config_hash
from tests.reference import (
    build_domain_vector,
    build_sequence,
    read_population_npz,
    reference_cohort,
    reference_table,
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
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    outdir = root / "run"
    config = _write_config(root / "config.json", outdir)
    assert main(["pipeline", "--config", str(config)]) == 0
    return config, outdir


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
            ("generate", "dx_vocab", "x"),
            ("train", "optimizer", "rmsprop"),
            ("train", "w_neg", -1),
            ("knowledge", "hac_rules", 5),
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
            ({"knowledge": ["charlson_weights.json"]}, "knowledge must be a JSON object"),
            ({"train": {"grid": []}}, "train.grid must be a JSON object"),
            ({"train": {"lr_grid": [0.1]}}, "train.lr_grid must be a JSON object"),
            ({"train": {"lr_grid": {"l2": 0.1, "smote": [False]}}}, "train.lr_grid.l2 must be a list"),
            (
                {"train": {"grid": {**default_config()["train"]["grid"], "batch_size": 32}}},
                "train.grid.batch_size must be a list",
            ),
            ({"knowledge": {"hac_rule": "hac_rules.json"}}, "unknown knowledge keys: ['hac_rule']"),
            ({"knowledge": {"lace_tables": "lace_tables.json"}}, "unknown knowledge keys: ['lace_tables']"),
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
            ({"generate": {"dx_vocab": 50}}, "generate.dx_vocab must be at least 90 to cover the bundled rule tables"),
            ({"generate": {"proc_vocab": 20}}, "generate.proc_vocab must be at least 36 to cover the bundled rule tables"),
        ],
    )
    def test_malformed_shape_is_exit_2(self, tmp_path, overrides, problem):
        cfg = default_config(outdir=str(tmp_path / "run"))
        for key, value in overrides.items():
            cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
        assert problem in validate_config(cfg)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["generate", "--config", str(config)]) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", '{"rule": []}', '{"rules": 5}', '{"rules": [{"name": "x", "dx_ccs": ["a"], "proc_ccs": []}]}'],
        ids=["missing", "not-json", "no-rules", "rules-not-a-list", "category-not-an-integer"],
    )
    def test_unreadable_rule_file_is_exit_2(self, pipeline_run, tmp_path, capsys, content):
        _, outdir = pipeline_run
        copy = tmp_path / "run"
        shutil.copytree(outdir / "generate", copy / "generate")
        rules = tmp_path / "hac_rules.json"
        if content is not None:
            rules.write_text(content, encoding="utf-8")
        config = _write_config(tmp_path / "cfg.json", copy, knowledge={"hac_rules": str(rules)})
        assert main(["cohort", "--config", str(config)]) == 2
        assert "knowledge.hac_rules" in capsys.readouterr().err

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

    def test_config_with_the_removed_jobs_key_loads(self, tmp_path):
        # Older demo configs wrote "jobs": 1; it is dropped, not hashed.
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run", train={"jobs": 1})
        cfg = load_config(str(config))
        assert "jobs" not in cfg["train"]
        assert cfg == load_config(str(_write_config(tmp_path / "new.json", tmp_path / "run")))

    def test_config_with_the_removed_pretrained_embed_dim_loads(self, tmp_path):
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run", features={"pretrained_embed_dim": 16})
        cfg = load_config(str(config))
        assert "pretrained_embed_dim" not in cfg["features"]
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

    def test_featurize_covers_the_eligible_cohort(self, pipeline_run):
        _, outdir = pipeline_run
        with open(outdir / "cohort" / "index_events.jsonl") as fh:
            eligible = [row["event_id"] for row in map(json.loads, fh) if row["exclusion_reason"] is None]
        table = EventTable.load(outdir / "featurize" / "events.npz")
        features = json.loads((outdir / "featurize" / "features.json").read_text())
        assert len(table) == features["n_events"] == len(eligible)
        assert table.event_id.tolist() == eligible
        assert features["input_dim"] == features["n_dx_columns"] + features["n_proc_columns"]

    def test_split_is_patient_disjoint_and_complete(self, pipeline_run):
        _, outdir = pipeline_run
        split = json.loads((outdir / "train" / "split.json").read_text())
        seen = []
        for fold in split["patients"].values():
            seen.extend(fold)
        assert len(seen) == len(set(seen))
        by_fold = {name: len(ids) for name, ids in split["events"].items()}
        assert by_fold["train"] > by_fold["test"] > 0

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

    def test_scores_csv_schema(self, pipeline_run):
        _, outdir = pipeline_run
        with open(outdir / "evaluate" / "scores_early_fusion__linear.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"event_id", "fold", "label", "raw", "prob_raw", "prob_cal"}
        folds = {r["fold"] for r in rows}
        assert folds <= {"train", "valid", "calibration", "test"}
        for r in rows[:20]:
            assert r["label"] in ("0", "1")
            assert 0.0 <= float(r["prob_cal"]) <= 1.0

    def test_metrics_align_with_summary(self, pipeline_run):
        _, outdir = pipeline_run
        metrics = json.loads((outdir / "evaluate" / "metrics.json").read_text())
        summary = json.loads((outdir / "train" / "summary.json").read_text())
        assert set(metrics["cells"]) == set(summary["cells"])
        assert metrics["best_cell"] == "early_fusion__linear"  # only deep cell
        for cell in metrics["cells"].values():
            assert 0.0 <= cell["auc"] <= 1.0
            assert cell["recall_at_top_k"]["10"] >= 0.0

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

    def test_importance_is_ranked(self, pipeline_run):
        _, outdir = pipeline_run
        with open(outdir / "importance" / "importance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        magnitudes = [abs(float(r["importance"])) for r in rows]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert {"category", "feature", "importance"} <= set(rows[0])
        note = json.loads((outdir / "importance" / "importance.json").read_text())
        assert "binarized" in note["explains"]


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
        # cell's model is a model.json and a weights.npz.
        assert sum(rel.startswith("evaluate/scores_") for rel in table["report"][0]) == 7
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


class TestRerunsAndTampering:
    def test_stage_rerun_is_byte_identical(self, pipeline_run):
        config, outdir = pipeline_run
        targets = [outdir / "cohort" / "index_events.jsonl", outdir / "cohort" / "manifest.json"]
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



class TestColumnarArtifacts:
    def test_event_store_equals_per_event_featurization(self, pipeline_run):
        """events.npz against each eligible event built one at a time from
        the run's own population, cohort and knowledge bundle."""
        _, outdir = pipeline_run
        table = EventTable.load(outdir / "featurize" / "events.npz")
        with np.load(outdir / "generate" / "claims.npz", allow_pickle=False) as npz:
            beneficiaries, claims = read_population_npz(npz)
        bundle = load_bundle(CcsMap.from_csv(outdir / "generate" / "ccs_map.csv"))
        events, stays, _ = reference_cohort(beneficiaries, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
        ben_map = {b.beneficiary_id: b for b in beneficiaries}
        eligible = [e for e in events if e.eligible]
        steps = [build_sequence(e, claims, stays, bundle.ccs) for e in eligible]
        bens = [ben_map[e.stay.beneficiary_id] for e in eligible]
        z, z_names = zip(*(build_domain_vector(e, b, claims, stays, bundle) for e, b in zip(eligible, bens)))
        assert table.event_id.tolist() == [e.event_id for e in eligible]
        assert table.beneficiary_id.tolist() == [b.beneficiary_id for b in bens]
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
        assert table.age_range.tolist() == [age_band(e.age) for e in eligible]
        assert table.gender.tolist() == [b.gender for b in bens]
        assert table.race.tolist() == [b.race for b in bens]
        assert table.medicare_status.tolist() == [b.medicare_status for b in bens]
        assert table.charlson_band.tolist() == [charlson_band(int(row[charlson])) for row in z]
        procs = [sorted({bundle.ccs.proc_category(p) for p in e.stay.all_proc}) for e in eligible]
        assert np.diff(table.proc_ptr).tolist() == [len(p) for p in procs]
        assert table.proc_ccs.tolist() == [c for p in procs for c in p]

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
        config = _write_config(tmp_path / "cfg.json", tmp_path / "run")
        for stage in ("generate", "cohort", "featurize", "train", "calibrate"):
            assert main([stage, "--config", str(config)]) == 0
        raw = tmp_path / "run" / "calibrate" / "raw_scores.npz"
        raw.write_bytes(raw.read_bytes() + b"\0")
        assert main(["evaluate", "--config", str(config)]) == 3


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
        bundle = load_bundle(CcsMap.from_csv(outdir / "generate" / "ccs_map.csv"))
        events, stays, _ = reference_cohort(beneficiaries, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
        expected, _ = reference_table(
            events,
            {b.beneficiary_id: b for b in beneficiaries},
            claims,
            stays,
            bundle,
            SequenceOptions(exclude_index_step=True),
        )
        assert table.event_id.tolist() == expected.event_id.tolist()
        assert table.z.tobytes() == expected.z.tobytes()
        assert table.indices.tolist() == expected.indices.tolist()


class TestMortalityTask:
    def test_pipeline_runs_for_the_second_task(self, tmp_path):
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
        with open(outdir / "cohort" / "index_events.jsonl") as fh:
            rows = [json.loads(line) for line in fh]
        excluded = sum(r["exclusion_reason"] is None and r["mortality_exclusion"] is not None for r in rows)
        split = json.loads((outdir / "train" / "split.json").read_text())
        n_split = sum(len(v) for v in split["events"].values())
        assert n_split == features["n_events"] - excluded
        # The run has deaths, but none among the calibration fold's events.
        assert split["warnings"] == ["fold 'calibration' has 8 events, all negative"]
