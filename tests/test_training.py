"""Fold assignment, oversampling, the training loop, and grid search."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seqfuse import cli
from seqfuse.claims import CLAIM_COLUMNS, SyntheticConfig, generate_population
from seqfuse.cohort import POPULATION_MEMBERS, build_cohort
from seqfuse.errors import ValidationError
from seqfuse.features import SequenceOptions, featurize_events
from seqfuse.knowledge import load_bundle
from seqfuse.metrics import auc
from seqfuse.model import ModelConfig, SeqFuseModel
from seqfuse.rng import Xoshiro256, derive_seed
from seqfuse import training
from seqfuse.baseline import flatten
from seqfuse.training import (
    FOLD_NAMES,
    apply_standardizer,
    batch_schedule,
    config_hash,
    enumerate_grid,
    fit_standardizer,
    grid_search,
    make_deep_runner,
    smote,
    smote_neighbors,
    split_patients,
    top_trials,
    train_model,
)
from tests.reference import ReferenceXoshiro256, reference_nearest_neighbors, steps_table


class TestSplitPatients:
    FRACTIONS = (0.70, 0.15, 0.05, 0.10)

    def test_partition_is_exact_and_disjoint(self):
        counts = {f"P{i:03d}": i % 3 for i in range(137)}
        folds, warnings = split_patients(counts, seed=11, fractions=self.FRACTIONS)
        assert warnings == []
        assigned = [pid for fold in folds.values() for pid in fold]
        assert sorted(assigned) == sorted(counts)
        assert len(set(assigned)) == len(assigned)

    def test_fold_sizes_within_one_of_share(self):
        counts = {f"P{i:03d}": 0 for i in range(103)}
        folds, _ = split_patients(counts, seed=5, fractions=self.FRACTIONS)
        for name, frac in zip(FOLD_NAMES, self.FRACTIONS):
            assert abs(len(folds[name]) - 103 * frac) <= 1.0

    def test_stratification_balances_positive_patients(self):
        """Each positives stratum splits independently, so every fold gets
        its share of 2+ patients within one."""
        counts = {}
        for i in range(200):
            counts[f"N{i:03d}"] = 0
        for i in range(40):
            counts[f"O{i:03d}"] = 1
        for i in range(20):
            counts[f"T{i:03d}"] = 2
        folds, _ = split_patients(counts, seed=3, fractions=self.FRACTIONS)
        for name, frac in zip(FOLD_NAMES, self.FRACTIONS):
            n_two = sum(1 for pid in folds[name] if pid.startswith("T"))
            assert abs(n_two - 20 * frac) <= 1.0

    def test_deterministic_and_seed_sensitive(self):
        counts = {f"P{i:03d}": i % 2 for i in range(60)}
        a, _ = split_patients(counts, seed=1, fractions=self.FRACTIONS)
        b, _ = split_patients(counts, seed=1, fractions=self.FRACTIONS)
        c, _ = split_patients(counts, seed=2, fractions=self.FRACTIONS)
        assert a == b
        assert a != c

    def test_empty_stratum_warns(self):
        counts = {"A": 0, "B": 0, "C": 0, "D": 0}
        _, warnings = split_patients(counts, seed=1, fractions=self.FRACTIONS)
        assert any("stratum 1" in w for w in warnings)
        assert any("stratum 2" in w for w in warnings)


class TestStandardizer:
    def test_hand_example(self):
        x = np.array([[1.0, 5.0], [3.0, 5.0]])
        mean, std = fit_standardizer(x)
        np.testing.assert_array_equal(mean, [2.0, 5.0])
        np.testing.assert_array_equal(std, [1.0, 1.0])  # constant column -> 1
        out = apply_standardizer(x, mean, std)
        np.testing.assert_array_equal(out, [[-1.0, 0.0], [1.0, 0.0]])

    def test_constant_column_maps_to_zero(self):
        x = np.full((4, 1), 9.0)
        mean, std = fit_standardizer(x)
        assert np.all(apply_standardizer(x, mean, std) == 0.0)


class TestSmote:
    def _world(self, n_pos=12, n_neg=40, dim=3, seed=77):
        rng = ReferenceXoshiro256(seed)
        x = np.array([[rng.normal() for _ in range(dim)] for _ in range(n_pos + n_neg)])
        y = np.array([1] * n_pos + [0] * n_neg)
        return x, y

    def test_exact_balance_and_prefix_unchanged(self):
        x, y = self._world()
        out_x, out_y = smote(x, y, seed=1)
        assert int(out_y.sum()) == int((out_y == 0).sum()) == 40
        np.testing.assert_array_equal(out_x[: len(x)], x)
        np.testing.assert_array_equal(out_y[: len(y)], y)

    def test_synthetic_rows_are_convex_combinations(self):
        """Every synthetic point must sit on a segment between two distinct
        minority rows, verified geometrically against all pairs."""
        x, y = self._world()
        out_x, out_y = smote(x, y, seed=2)
        minority = x[y == 1]
        for row in out_x[len(x) :]:
            found = False
            for i in range(len(minority)):
                for j in range(len(minority)):
                    if i == j:
                        continue
                    a, b = minority[i], minority[j]
                    span = b - a
                    lam = float(np.dot(row - a, span) / np.dot(span, span))
                    if -1e-12 <= lam <= 1 + 1e-12 and np.allclose(row, a + lam * span, atol=1e-9):
                        found = True
                        break
                if found:
                    break
            assert found, row

    def test_partial_ratio_count(self):
        x, y = self._world(n_pos=10, n_neg=40)
        out_x, out_y = smote(x, y, seed=3, target_ratio=0.5)
        assert int(out_y.sum()) == 20
        assert len(out_x) == 50 + 10

    def test_ratio_already_met_is_a_no_op(self):
        x, y = self._world(n_pos=30, n_neg=40)
        out_x, out_y = smote(x, y, seed=4, target_ratio=0.5)
        np.testing.assert_array_equal(out_x, x)
        np.testing.assert_array_equal(out_y, y)

    def test_negative_class_can_be_the_minority(self):
        x, y = self._world(n_pos=40, n_neg=12)
        out_x, out_y = smote(x, y, seed=5)
        assert int((out_y == 0).sum()) == 40
        minority = x[y == 0]
        row = out_x[len(x)]
        dists = np.linalg.norm(minority - row, axis=1)
        assert dists.min() < np.linalg.norm(x[y == 1] - row, axis=1).min()

    def test_too_few_minority_rows_for_k(self):
        x, y = self._world(n_pos=4, n_neg=40)
        with pytest.raises(ValidationError, match="k=5"):
            smote(x, y, seed=6)
        out_x, out_y = smote(x, y, seed=6, k=3)
        assert int(out_y.sum()) == 40

    def test_single_class_and_bad_labels_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            smote(x, np.array([1, 1, 1, 1]), seed=1)
        with pytest.raises(ValidationError):
            smote(x, np.array([0, 1, 2, 1]), seed=1)

    def test_a_shared_neighbour_table_changes_nothing(self):
        """`smote_neighbors` raises what `smote` raises, gives no rows when
        `smote` adds none, and `smote` with its table returns the same
        bytes as `smote` alone."""
        x, y = self._world(n_pos=4, n_neg=40)
        with pytest.raises(ValidationError, match="k=5"):
            smote_neighbors(x, y)
        x, y = self._world(n_pos=3, n_neg=3)
        assert smote_neighbors(x, y).shape == (0, 5)
        x, y = self._world()
        table = smote_neighbors(x, y)
        for seed in (1, 2):
            shared, alone = smote(x, y, seed, neighbors=table), smote(x, y, seed)
            assert shared[0].tobytes() == alone[0].tobytes()
            assert shared[1].tobytes() == alone[1].tobytes()

    def test_blocked_neighbors_match_full_distance_matrix(self, monkeypatch):
        x, y = self._world(n_pos=45, n_neg=10, dim=4)
        rows = x[y == 1]
        rows[7] = rows[3]  # an exact tie, broken by index in both
        # 7 rows per filter block (six full blocks and a partial one) and
        # 105 pairs per refinement chunk.
        monkeypatch.setattr(training, "_SMOTE_BLOCK_BYTES", 2 * 4 * 8 * 45 * 7)
        np.testing.assert_array_equal(training._nearest_neighbors(rows, 5), reference_nearest_neighbors(rows, 5))

    @staticmethod
    def _neighbor_world(name: str) -> tuple[np.ndarray, int]:
        """Rows that stress the filter's bound, and the k to search with."""
        rng = ReferenceXoshiro256(derive_seed(31, name))
        if name == "duplicates":  # exact ties, several copies of a row
            rows = np.array([[rng.normal() for _ in range(5)] for _ in range(30)])
            rows[[4, 9, 17]] = rows[2]
            rows[25] = rows[11]
            return rows, 5
        if name == "one-ulp":  # from the origin: 1, 1 + ulp, 1 + ulp, 1 + 2 ulp, 1 + 2 ulp, 4, 9
            e = 2.0**-26
            rows = [[0, 0, 0], [1, 0, 0], [1, e, 0], [1, 0, e], [1, e, e], [-1, e, e], [0, 2, 0], [0, 0, -3]]
            return np.array(rows, dtype=np.float64), 4
        if name == "offset":  # cancellation makes every pair a candidate
            return np.array([[1e6 + rng.normal() for _ in range(6)] for _ in range(40)]), 5
        if name == "identical":
            return np.full((12, 4), 0.75), 5
        if name == "k-is-n-1":
            return np.array([[rng.normal() for _ in range(3)] for _ in range(9)]), 8
        raise ValueError(name)

    @pytest.mark.parametrize("budget", [None, 1, 2 * 4 * 8 * 40 * 7], ids=["default", "one-row", "several-blocks"])
    @pytest.mark.parametrize("name", ["duplicates", "one-ulp", "offset", "identical", "k-is-n-1"])
    def test_neighbors_equal_the_brute_force_search(self, monkeypatch, name, budget):
        """Every world gives the brute-force table, with the default budget,
        with one row per filter block and one pair per refinement chunk,
        and with 7 rows per block where a world has 40 rows (9 where it has
        30: several full blocks and a partial one)."""
        rows, k = self._neighbor_world(name)
        if budget is not None:
            monkeypatch.setattr(training, "_SMOTE_BLOCK_BYTES", budget)
        np.testing.assert_array_equal(training._nearest_neighbors(rows, k), reference_nearest_neighbors(rows, k))

    def test_one_ulp_world_orders_by_distance_then_index(self):
        rows, k = self._neighbor_world("one-ulp")
        assert training._nearest_neighbors(rows, k)[0].tolist() == [1, 2, 3, 4]

    def test_flattened_rows_of_both_classes(self, small_table, bundle):
        """The standardized flat table of a generated population, as the LR
        runner oversamples it: one-hot counts with many exact duplicates."""
        table, z_names = small_table
        flat = flatten(table, bundle.ccs.n_dx_columns, bundle.ccs.n_proc_columns, z_names)
        matrix = apply_standardizer(flat.matrix, *fit_standardizer(flat.matrix))
        labels = table.label_for("readmission")
        for cls in (0, 1):
            rows = matrix[labels == cls]
            np.testing.assert_array_equal(training._nearest_neighbors(rows, 5), reference_nearest_neighbors(rows, 5))

    @pytest.mark.parametrize("name", ["duplicates", "one-ulp", "offset", "k-is-n-1"])
    def test_certificate_survives_half_delta_perturbations(self, monkeypatch, name):
        """Moving every approximate distance by +-delta/2 keeps the true
        distances inside the filter's bounds, so the table cannot change."""
        rows, k = self._neighbor_world(name)
        expected = reference_nearest_neighbors(rows, k)
        bounds = training._distance_bounds
        for sign_seed in range(3):
            rng = ReferenceXoshiro256(derive_seed(sign_seed, "perturb"))

            def perturbed(*args):
                lower, upper = bounds(*args)
                signs = np.array([[rng.choice((-1.0, 1.0)) for _ in range(lower.shape[1])] for _ in range(len(lower))])
                shift = signs * (upper - lower) / 4  # delta / 2
                return lower + shift, upper + shift

            monkeypatch.setattr(training, "_distance_bounds", perturbed)
            np.testing.assert_array_equal(training._nearest_neighbors(rows, k), expected)

    def test_memory_stays_under_the_block_budget(self, monkeypatch):
        """A 10^6 offset makes every pair a candidate, yet the search
        allocates no more than its budget besides the result and a few
        length-n vectors. (Below numpy's 256-KiB threshold for reusing
        temporaries in place, the blocks' temporaries would exceed it.)"""
        budget = 2 << 20
        monkeypatch.setattr(training, "_SMOTE_BLOCK_BYTES", budget)
        rng = ReferenceXoshiro256(derive_seed(31, "memory"))
        rows = np.array([[1e6 + rng.normal() for _ in range(20)] for _ in range(600)])
        tracemalloc.start()
        try:
            training._nearest_neighbors(rows, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget + 8 * len(rows) * 8

    @pytest.mark.parametrize("n_pos, n_neg", [(6, 7), (12, 40), (31, 8)])
    def test_draws_equal_the_scalar_stream(self, n_pos, n_neg):
        """Each new point's (row, slot, weight), drawn one scalar call at a
        time from the "smote" stream, gives smote's rows bit for bit."""
        x, y = self._world(n_pos=n_pos, n_neg=n_neg)
        minority = int(n_pos < n_neg)
        rows = x[y == minority]
        neighbors = reference_nearest_neighbors(rows, 5)
        n_new = max(n_pos, n_neg) - min(n_pos, n_neg)
        for seed in range(30):
            rng = ReferenceXoshiro256(derive_seed(seed, "smote"))
            draws = [(rng.randint(0, len(rows) - 1), rng.randint(0, 4), rng.random()) for _ in range(n_new)]
            want = np.array([rows[i] + lam * (rows[neighbors[i, slot]] - rows[i]) for i, slot, lam in draws])
            got = smote(x, y, seed=seed)[0][len(x) :]
            assert got.tobytes() == want.reshape(n_new, x.shape[1]).tobytes()

    def test_deterministic_in_seed(self):
        x, y = self._world()
        a = smote(x, y, seed=9)[0]
        b = smote(x, y, seed=9)[0]
        c = smote(x, y, seed=10)[0]
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


def _separable_batch(n: int):
    """Index 1 marks positives, index 2 negatives; trivially learnable."""
    steps = []
    labels = []
    for i in range(n):
        label = i % 2
        steps.append([[1 if label else 2], [1 if label else 2]])
        labels.append(float(label))
    return steps_table(steps), np.array(labels)


def _tiny_config(**overrides) -> ModelConfig:
    base = dict(
        input_dim=8, embed_dim=4, hidden_dim=4, domain_dim=0, n_gru_layers=1,
        fusion="none", mlp_hidden_dims=(), embedding="linear", seed=13,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestTrainModel:
    def test_learns_a_separable_problem_and_restores_best(self):
        table, labels = _separable_batch(40)
        model = SeqFuseModel(_tiny_config())
        train_idx = list(range(0, 32))
        valid_idx = list(range(32, 40))
        result = train_model(
            model, table, labels, train_idx, valid_idx,
            lr=0.05, batch_size=8, epochs=20, patience=20, w_pos=1.0, seed=1,
        )
        assert result["status"] == "ok"
        assert result["failure"] is None
        assert result["valid_auc"] == 1.0
        probs, _, _ = model.predict(valid_idx, table)
        assert auc(probs, labels[valid_idx]) == result["valid_auc"]

    def test_curve_starts_at_untrained_baseline(self):
        table, labels = _separable_batch(20)
        model = SeqFuseModel(_tiny_config())
        result = train_model(
            model, table, labels, list(range(16)), list(range(16, 20)),
            lr=0.05, batch_size=8, epochs=2, patience=5, w_pos=1.0, seed=1,
        )
        curve = result["curve"]
        assert curve[0] == {"epoch": 0, "train_loss": None, "valid_auc": curve[0]["valid_auc"]}
        assert [c["epoch"] for c in curve] == list(range(len(curve)))
        assert all(c["train_loss"] > 0 for c in curve[1:])

    def test_early_stopping_fires_after_patience_runs_out(self):
        """A learning rate too small to move the ranking means no epoch
        beats the baseline, so training halts after patience + 1 epochs."""
        table, labels = _separable_batch(24)
        model = SeqFuseModel(_tiny_config())
        patience = 2
        result = train_model(
            model, table, labels, list(range(16)), list(range(16, 24)),
            lr=1e-15, batch_size=8, epochs=50, patience=patience, w_pos=1.0, seed=1,
        )
        assert result["status"] == "ok"
        curve = result["curve"]
        # The epochs run, and the best epoch: none beats epoch 0.
        assert curve[-1]["epoch"] == patience + 1
        assert max(c["valid_auc"] for c in curve[1:]) <= curve[0]["valid_auc"] + 1e-12
        assert result["valid_auc"] == curve[0]["valid_auc"]

    def test_divergence_is_reported_not_raised(self):
        """One Adam step at an absurd learning rate pushes weights to
        ~1e160, so the next batch's matmul overflows; the loop must catch
        that, mark the run failed, and restore the last good weights."""
        table, labels = _separable_batch(24)
        model = SeqFuseModel(_tiny_config())
        with np.errstate(over="ignore"):
            result = train_model(
                model, table, labels, list(range(16)), list(range(16, 24)),
                lr=1e160, batch_size=8, epochs=10, patience=10, w_pos=1.0, seed=1,
            )
        assert result["status"] == "failed"
        assert result["failure"]
        assert result["valid_auc"] is None
        for tensor in model.params.values():
            assert np.all(np.isfinite(tensor.data))


def population_folds(n_patients: int, seed: int):
    """The demo config's readmission events for a generated population of
    `n_patients` drawn from `seed`, as `train` splits them: (table,
    labels, fold indices)."""
    cfg = cli.default_config(n_patients=n_patients, seed=seed)
    bundle = load_bundle()
    cols = generate_population(SyntheticConfig(seed=seed, **cfg["generate"])).columns
    cols, _ = build_cohort(cols, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
    cols = {name: cols[name] for name in (*CLAIM_COLUMNS, *POPULATION_MEMBERS)}
    table, _ = featurize_events(cols, bundle, SequenceOptions(**cfg["features"]))
    labels = table.label_for("readmission").astype(np.float64)
    positives: dict[str, int] = {}
    for pid, label in zip(table.beneficiary_id.tolist(), labels):
        positives[pid] = positives.get(pid, 0) + int(label)
    folds, _ = split_patients(positives, seed, tuple(cfg["train"]["fractions"]))
    fold_of_patient = {pid: name for name, pids in folds.items() for pid in pids}
    run = cli.RunData(table, {}, labels)
    run.fold_of = np.array([fold_of_patient[pid] for pid in table.beneficiary_id.tolist()])
    return table, labels, run.folds


class TestBatchSchedule:
    """`batch_schedule` on the training fold of `demo-2k`'s first
    population (the demo config at 2,000 patients, seed 20110901), with the
    seed of its early-fusion trial."""

    SEED = 20110901
    BATCH = 32

    @pytest.fixture(scope="class")
    def fold(self):
        table, _, fold_idx = population_folds(2000, self.SEED)
        grid = enumerate_grid(cli.default_config()["train"]["grid"])
        assert len(grid) == 1
        trial_seed = derive_seed(derive_seed(self.SEED, "readmission/early_fusion__linear"), "trial", config_hash(grid[0]))
        return fold_idx["train"], np.diff(table.step_ptr), trial_seed

    def test_each_epoch_partitions_the_rows_into_length_sorted_batches(self, fold):
        rows, lengths, seed = fold
        schedule = batch_schedule(rows, lengths, self.BATCH, seed)
        previous = None
        for _ in range(4):
            batches = next(schedule)
            assert sorted(np.concatenate(batches).tolist()) == sorted(rows)
            # Every batch but the longest-history one is full, and each
            # spans one stretch of the sorted lengths.
            assert [len(b) for b in batches].count(self.BATCH) == len(rows) // self.BATCH
            t_max = [int(lengths[b].max()) for b in batches]
            assert sum(t_max) == 342
            spans = sorted((int(lengths[b].min()), int(lengths[b].max())) for b in batches)
            assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
            # The batch order is shuffled, not length-monotone.
            assert t_max != sorted(t_max) and t_max != sorted(t_max, reverse=True)
            assert [b.tobytes() for b in batches] != previous
            previous = [b.tobytes() for b in batches]

    def test_shuffled_batches_pad_to_almost_twice_the_steps(self, fold):
        """The first epoch's order before sorting, from the same stream:
        cut as it is, its batches run 647 GRU steps (a shuffled batch of 32
        here runs about 10.5, so an epoch about 637 on average) against the
        sorted order's 342."""
        rows, lengths, seed = fold
        assert len(rows) == 1924 and int(lengths[rows].sum()) == 10369
        rng = Xoshiro256(derive_seed(seed, "shuffle"))
        order = list(rows)
        rng.shuffle(order)
        padded = sum(int(lengths[order[s : s + self.BATCH]].max()) for s in range(0, len(order), self.BATCH))
        assert padded == 647

    def test_same_seed_same_batches(self, fold):
        rows, lengths, seed = fold
        runs = [batch_schedule(rows, lengths, self.BATCH, s) for s in (seed, seed, seed + 1)]
        for _ in range(3):
            a, b, c = (next(run) for run in runs)
            assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
            assert [x.tobytes() for x in a] != [x.tobytes() for x in c]


# Trains one 1-epoch early-fusion trial of the demo grid on conftest's
# 250-patient population and writes its weights to argv[1].
_THREADS_TRIAL = """
import sys
from seqfuse import cli
from seqfuse.claims import write_npz
from seqfuse.knowledge import load_bundle
from seqfuse.training import enumerate_grid, make_deep_runner
from tests.test_training import population_folds

table, labels, fold_idx = population_folds(250, 1234)
runner = make_deep_runner(
    table, labels, fold_idx, input_dim=load_bundle().ccs.input_dim,
    fusion="early", embedding="linear", embedding_seed=0, epochs=1, patience=1,
)
out = runner(enumerate_grid(cli.default_config()["train"]["grid"])[0], seed=7)
assert out["status"] == "ok", out
write_npz(sys.argv[1], {name: t.data for name, t in out["model"].params.items()})
"""


def test_deep_trial_weights_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The GRU's weight gradients are products over every padded row of a
    batch, large enough for a threaded BLAS to split; the weights must
    still be the same bytes at 1 and at 4 threads."""
    root = Path(__file__).resolve().parent.parent
    written = []
    for threads in ("1", "4"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        env.update({name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        path = tmp_path / f"threads-{threads}.npz"
        subprocess.run([sys.executable, "-c", _THREADS_TRIAL, str(path)], env=env, cwd=root, check=True, timeout=300)
        written.append(path.read_bytes())
    assert written[0] == written[1]


class TestConfigHash:
    def test_order_invariant_and_value_sensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert len(config_hash({"a": 1})) == 16
        assert all(c in "0123456789abcdef" for c in config_hash({"a": 1}))


class TestEnumerateGrid:
    def test_cartesian_product_with_sorted_keys(self):
        grid = enumerate_grid({"b": [1, 2], "a": ["x"]})
        assert grid == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]

    def test_empty_axes_is_the_singleton_config(self):
        assert enumerate_grid({}) == [{}]


class TestGridSearch:
    @staticmethod
    def _stub(config, seed):
        if config["lr"] == 0.0:
            return {"status": "failed", "failure": "diverged"}
        return {
            "status": "ok",
            "valid_auc": 0.5 + config["lr"] / 10 + config["width"] / 100,
            "test_auc": 0.5 + config["lr"] / 20,
            "seed_seen": seed,
        }

    def test_ranking_and_top_summary(self):
        # 15 of the 18 trials are ok, so the cut to the top 10 shows.
        axes = {"lr": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "width": [1, 2, 3]}
        trials = grid_search(axes, self._stub, base_seed=42)
        assert [t["config"] for t in trials] == enumerate_grid(axes)
        assert sum(t["status"] == "failed" for t in trials) == 3
        top, mean, std = top_trials(trials)
        ok = [t for t in trials if t["status"] == "ok"]
        assert len(top) == training.TOP_N == 10
        assert top == sorted(ok, key=lambda t: -t["valid_auc"])[:10]
        assert top[0]["config"] == {"lr": 5.0, "width": 3}
        top_test = [t["test_auc"] for t in top]
        np.testing.assert_allclose(mean, np.mean(top_test))
        np.testing.assert_allclose(std, np.std(top_test))

    def test_tie_break_is_config_hash(self):
        axes = {"lr": [1.0], "width": [1, 2, 3, 4]}

        def tied(config, seed):
            return {"status": "ok", "valid_auc": 0.7, "test_auc": 0.6}

        top, _, _ = top_trials(grid_search(axes, tied, base_seed=1))
        hashes = [t["config_hash"] for t in top]
        assert len(hashes) == 4 and hashes == sorted(hashes)

    def test_trial_seeds_derive_from_config_hash(self):
        axes = {"lr": [0.0, 1.0, 2.0], "width": [1]}
        trials = grid_search(axes, self._stub, base_seed=7)
        for trial in trials:
            assert trial["config_hash"] == config_hash(trial["config"])
            expected = derive_seed(7, "trial", trial["config_hash"])
            assert trial["seed"] == expected
            if trial["status"] == "ok":
                assert trial["seed_seen"] == expected

    def test_all_failed_leaves_summary_empty(self):
        trials = grid_search({"lr": [0.0]}, self._stub, base_seed=1)
        assert [t["failure"] for t in trials] == ["diverged"]
        assert top_trials(trials) is None


class TestDeepRunner:
    def test_end_to_end_trial_payload(self):
        rng = ReferenceXoshiro256(101)
        n = 48
        steps = []
        labels = np.zeros(n)
        z = np.zeros((n, 2))
        for i in range(n):
            label = i % 2
            steps.append([[1 if label else 2]] * 2)
            labels[i] = label
            z[i] = [label + rng.normal() * 0.1, rng.normal()]
        fold_idx = {
            "train": list(range(0, 32)),
            "valid": list(range(32, 40)),
            "calibration": [],
            "test": list(range(40, 48)),
        }
        runner = make_deep_runner(
            steps_table(steps, z), labels, fold_idx,
            input_dim=8, fusion="early", embedding="linear", embedding_seed=0,
            epochs=8, patience=8,
        )
        out = runner(
            {"embed_dim": 4, "hidden_dim": 4, "n_gru_layers": 1, "lr": 0.05, "batch_size": 8,
             "mlp_hidden_dims": [4], "w_pos": 1.0},
            seed=5,
        )
        assert out["status"] == "ok"
        assert 0.0 <= out["valid_auc"] <= 1.0
        assert out["test_auc"] > 0.9  # the pattern is trivially separable
        assert out["model"].config.fusion == "early"
        # Standardizer moments come from the training fold only.
        np.testing.assert_allclose(out["z_mean"], z[fold_idx["train"]].mean(axis=0))
        # One curve point per epoch run, from epoch 0; the best is among them.
        assert [c["epoch"] for c in out["curve"]] == list(range(len(out["curve"])))
        assert out["valid_auc"] == max(c["valid_auc"] for c in out["curve"])

    def test_fusion_none_ignores_domain_columns(self):
        n = 24
        steps = [[[1 if i % 2 else 2]] * 2 for i in range(n)]
        labels = np.array([float(i % 2) for i in range(n)])
        fold_idx = {
            "train": list(range(0, 16)),
            "valid": list(range(16, 20)),
            "calibration": [],
            "test": list(range(20, 24)),
        }
        z_a = np.zeros((n, 2))
        z_b = np.arange(n * 2, dtype=np.float64).reshape(n, 2)
        outs = []
        for z in (z_a, z_b):
            runner = make_deep_runner(
                steps_table(steps, z), labels, fold_idx,
                input_dim=8, fusion="none", embedding="linear", embedding_seed=0,
                epochs=3, patience=3,
            )
            config = {"embed_dim": 4, "hidden_dim": 4, "n_gru_layers": 1, "mlp_hidden_dims": [], "lr": 0.05,
                      "batch_size": 32, "w_pos": 1.0}
            outs.append(runner(config, seed=2))
        assert outs[0]["valid_auc"] == outs[1]["valid_auc"]
        assert outs[0]["test_auc"] == outs[1]["test_auc"]
