"""Flattening and the regularized logistic baseline."""

import json

import numpy as np
import pytest

from seqfuse.baseline import flatten, make_lr_runner, train_lr
from seqfuse.cli import _load_sequences, _split_folds, default_config, main
from seqfuse.errors import NumericsError, ValidationError
from seqfuse.claims import _ptr
from seqfuse.features import SUBGROUP_KEYS, EventTable
from seqfuse.rng import Xoshiro256
from seqfuse.training import apply_standardizer, fit_standardizer, smote
from tests.reference import reference_train_lr


def _table(rows: list[tuple[list[tuple[int, ...]], list[float]]]) -> EventTable:
    """An EventTable of events given as (steps, z), each step a tuple of
    category indices; every z must have the same width."""
    n = len(rows)
    steps = [step for event_steps, _ in rows for step in event_steps]
    return EventTable(
        event_id=np.array([f"E{i}" for i in range(n)], dtype=np.str_),
        beneficiary_id=np.array(["B1"] * n, dtype=np.str_),
        readmit_label=np.zeros(n, dtype=bool),
        mortality_label=np.zeros(n, dtype=bool),
        mortality_excluded=np.zeros(n, dtype=bool),
        z=np.array([z for _, z in rows], dtype=np.float64).reshape(n, len(rows[0][1]) if rows else 0),
        step_ptr=_ptr([len(event_steps) for event_steps, _ in rows]),
        day_offset=np.zeros(len(steps), dtype=np.int64),
        idx_ptr=_ptr([len(step) for step in steps]),
        indices=np.array([index for step in steps for index in step], dtype=np.int64),
        **{key: np.array([""] * n, dtype=np.str_) for key in SUBGROUP_KEYS},
        proc_ptr=np.zeros(n + 1, dtype=np.int64),
        proc_ccs=np.zeros(0, dtype=np.int64),
    )


class TestFlatten:
    def test_layout_matches_hand_construction(self):
        """Two dx columns, one proc column: interleaved count/mean pairs,
        then the domain vector."""
        events = _table([([(0, 2), (0,), (1,)], [7.0, -1.0])])
        table = flatten(events, n_dx_columns=2, n_proc_columns=1, z_names=["za", "zb"])
        assert table.names == [
            "dx_ccs_0_count", "dx_ccs_0_mean",
            "dx_ccs_other_count", "dx_ccs_other_mean",
            "proc_ccs_other_count", "proc_ccs_other_mean",
            "za", "zb",
        ]
        assert table.categories == ["ICD9"] * 4 + ["PROC"] * 2 + ["Domain"] * 2
        np.testing.assert_allclose(
            table.matrix[0],
            [2.0, 2 / 3, 1.0, 1 / 3, 1.0, 1 / 3, 7.0, -1.0],
        )

    def test_named_proc_columns_before_the_other_bucket(self):
        table = flatten(_table([([(3,)], [])]), n_dx_columns=2, n_proc_columns=3, z_names=[])
        assert table.names[4:8] == [
            "proc_ccs_0_count", "proc_ccs_0_mean",
            "proc_ccs_1_count", "proc_ccs_1_mean",
        ]
        np.testing.assert_array_equal(table.matrix[0], [0, 0, 0, 0, 0, 0, 1, 1, 0, 0])

    def test_rows_follow_input_order(self):
        events = _table([([(0,)], [1.0]), ([(1,), (1,)], [2.0])])
        table = flatten(events, n_dx_columns=2, n_proc_columns=1, z_names=["z"])
        assert table.matrix.shape == (2, 7)
        assert table.matrix[0, 0] == 1.0 and table.matrix[1, 2] == 2.0
        assert table.matrix[1, 3] == 1.0  # two hits over two steps

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            flatten(_table([]), n_dx_columns=2, n_proc_columns=1, z_names=[])
        out_of_range = _table([([(5,)], [])])
        with pytest.raises(ValidationError):
            flatten(out_of_range, n_dx_columns=2, n_proc_columns=1, z_names=[])
        wrong_z = _table([([(0,)], [1.0])])
        with pytest.raises(ValidationError):
            flatten(wrong_z, n_dx_columns=2, n_proc_columns=1, z_names=["a", "b"])



def _reference_flatten(rows, n_dx_columns, n_proc_columns, z_names):
    """The per-row loop the vectorised kernel replaced, over (steps, z)
    rows."""
    if not rows:
        raise ValidationError("no sequences to flatten")
    input_dim = n_dx_columns + n_proc_columns
    matrix = np.zeros((len(rows), 2 * input_dim + len(z_names)))
    for row, (steps, z) in enumerate(rows):
        counts = np.zeros(input_dim)
        for step in steps:
            for index in step:
                if not 0 <= index < input_dim:
                    raise ValidationError(f"sequence index {index} outside input dim {input_dim}")
                counts[index] += 1.0
        matrix[row, 0:2 * input_dim:2] = counts
        matrix[row, 1:2 * input_dim:2] = counts / len(steps)
        if len(z) != len(z_names):
            raise ValidationError("domain vector width does not match its name list")
        matrix[row, 2 * input_dim :] = z
    return matrix


def _ragged_rows(rng, n, input_dim, z_width):
    """Random (steps, z) events of 1-6 steps; a step holds 0-5 indices
    drawn with repeats, so steps with empty index lists and the last
    ("other") dx and proc columns all occur."""
    n_dx = input_dim // 2
    rows = []
    for _ in range(n):
        steps = []
        for _ in range(int(rng.integers(1, 7))):
            ix = rng.integers(0, input_dim, size=int(rng.integers(0, 6)))
            if rng.random() < 0.3:
                ix = np.append(ix, [n_dx - 1, input_dim - 1])
            steps.append(tuple(int(i) for i in ix))
        rows.append((steps, rng.normal(size=z_width).tolist()))
    return rows


class TestFlattenKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_the_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        rows = _ragged_rows(rng, n=60, input_dim=9, z_width=4)
        assert any(not step for steps, _ in rows for step in steps)
        z_names = [f"z{i}" for i in range(4)]
        expected = _reference_flatten(rows, 4, 5, z_names)
        table = _table(rows)
        assert flatten(table, 4, 5, z_names).matrix.tobytes() == expected.tobytes()
        # The same two errors: an index past a narrower input dim, and a
        # name list one short.
        for n_proc, names in ((4, z_names), (5, z_names[:3])):
            with pytest.raises(ValidationError) as want:
                _reference_flatten(rows, 4, n_proc, names)
            with pytest.raises(ValidationError) as got:
                flatten(table, 4, n_proc, names)
            assert str(got.value) == str(want.value)

    def test_raises_the_row_loops_errors(self):
        cases = [
            ([([(0,), (), (9,)], [])], []),
            ([([(0,)], []), ([(-1,)], [])], []),
            ([([(0,)], [1.0])], ["a", "b"]),
        ]
        for rows, z_names in cases:
            with pytest.raises(ValidationError) as expected:
                _reference_flatten(rows, 4, 5, z_names)
            with pytest.raises(ValidationError) as got:
                flatten(_table(rows), 4, 5, z_names)
            assert str(got.value) == str(expected.value)


def _logit_world(n=300, d=4, seed=21, true_w=(1.5, -2.0, 0.0, 0.5), true_b=-0.3):
    rng = Xoshiro256(seed)
    x = np.array([[rng.normal() for _ in range(d)] for _ in range(n)])
    logits = x @ np.array(true_w) + true_b
    y = np.array([rng.bernoulli(p) for p in 1.0 / (1.0 + np.exp(-logits))], dtype=np.float64)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return x, y


class TestTrainLr:
    def test_first_order_optimality(self):
        """At the reported solution the penalized gradient must vanish:
        X'(p - y)/n + l2*w = 0 for weights, mean(p - y) = 0 unpenalized."""
        x, y = _logit_world()
        l2 = 0.05
        model = train_lr(x, y, l2=l2)
        assert model.converged
        p = 1.0 / (1.0 + np.exp(-model.margins(x)))
        grad_w = x.T @ (p - y) / len(y) + l2 * model.weights
        grad_b = float(np.mean(p - y))
        assert np.max(np.abs(grad_w)) <= 1e-8
        assert abs(grad_b) <= 1e-8

    def test_recovers_planted_coefficients_roughly(self):
        x, y = _logit_world(n=4000, seed=33)
        model = train_lr(x, y, l2=1e-4)
        assert np.corrcoef(model.weights, [1.5, -2.0, 0.0, 0.5])[0, 1] > 0.99

    def test_zero_column_keeps_zero_weight(self):
        x, y = _logit_world()
        x = np.hstack([x, np.zeros((len(x), 1))])
        model = train_lr(x, y, l2=0.1)
        assert model.weights[-1] == 0.0

    def test_stronger_penalty_shrinks_weights(self):
        x, y = _logit_world()
        light = train_lr(x, y, l2=0.01)
        heavy = train_lr(x, y, l2=10.0)
        assert np.linalg.norm(heavy.weights) < np.linalg.norm(light.weights)

    def test_separable_data_stays_bounded(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train_lr(x, y, l2=0.1)
        assert np.all(np.isfinite(model.weights))
        assert abs(model.weights[0]) < 50.0

    def test_input_validation(self):
        x, y = _logit_world(n=20)
        with pytest.raises(ValidationError):
            train_lr(x, y, l2=0.0)
        with pytest.raises(ValidationError):
            train_lr(x, y + 1.0, l2=0.1)
        with pytest.raises(ValidationError):
            train_lr(x[:10], y, l2=0.1)

    def test_iteration_budget_is_enforced(self):
        x, y = _logit_world()
        with pytest.raises(NumericsError, match="did not converge"):
            train_lr(x, y, l2=1e-6, max_iter=1)


def _assert_matches_reference(x, y, l2, **kwargs):
    """`train_lr` takes the reference solver's iterations to the same
    optimum, to rounding, and gives every all-zero column weight 0.0."""
    got = train_lr(x, y, l2=l2, **kwargs)
    want = reference_train_lr(x, y, l2=l2, **kwargs)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)
    np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-12)
    assert abs(got.intercept - want.intercept) <= 1e-12
    dead = ~(x != 0.0).any(axis=0)
    assert got.weights.shape == (x.shape[1],)
    assert (got.weights[dead] == 0.0).all() and not np.signbit(got.weights[dead]).any()
    return got


@pytest.fixture(scope="module")
def demo_training_fold(tmp_path_factory):
    """The demo config's LR training fold (2,000 patients, seed 20110901):
    the flattened events of the train fold, standardized on that fold, and
    their labels."""
    outdir = tmp_path_factory.mktemp("demo") / "run"
    cfg = default_config(outdir=str(outdir))
    cfg["train"]["algorithms"] = ["lr"]
    config = outdir.parent / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    for stage in ("generate", "cohort", "featurize", "train"):
        assert main([stage, "--config", str(config)]) == 0
    table, meta = _load_sequences(outdir, "readmission")
    flat = flatten(table, meta["n_dx_columns"], meta["n_proc_columns"], meta["z_names"])
    train = _split_folds(outdir, table)[1]["train"]
    x = flat.matrix[train]
    return apply_standardizer(x, *fit_standardizer(x)), table.readmit_label[train].astype(np.float64)


class TestTrainLrAgainstReference:
    @pytest.mark.parametrize("l2", [0.1, 0.01, 1e-4])
    def test_logit_world(self, l2):
        _assert_matches_reference(*_logit_world(), l2)

    def test_all_zero_columns_between_live_ones(self):
        x, y = _logit_world()
        padded = np.zeros((len(x), 9))
        padded[:, [1, 4, 5, 7]] = x
        model = _assert_matches_reference(padded, y, 0.05)
        np.testing.assert_allclose(model.weights[[1, 4, 5, 7]], train_lr(x, y, l2=0.05).weights, rtol=0, atol=1e-12)

    def test_all_zero_matrix_fits_the_intercept_only(self):
        _, y = _logit_world()
        model = _assert_matches_reference(np.zeros((len(y), 5)), y, 0.1)
        # The gradient tolerance, 1e-8, over p (1 - p) at the optimum.
        assert abs(model.intercept - np.log(y.mean() / (1.0 - y.mean()))) <= 1e-7

    def test_separable_data(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        _assert_matches_reference(x, np.array([0.0, 0.0, 1.0, 1.0]), 0.1)

    @pytest.mark.parametrize("oversample", [False, True], ids=["plain", "smote"])
    @pytest.mark.parametrize("l2", [0.1, 0.01])
    def test_demo_training_fold(self, demo_training_fold, l2, oversample):
        x, y = demo_training_fold
        assert (~(x != 0.0).any(axis=0)).sum() > 0
        if oversample:
            x, y = smote(x, y, seed=20110901)
        _assert_matches_reference(x, y, l2)

    def test_iteration_budget_raises_the_same_error(self):
        x, y = _logit_world()
        with pytest.raises(NumericsError) as got:
            train_lr(x, y, l2=1e-6, max_iter=1)
        with pytest.raises(NumericsError) as want:
            reference_train_lr(x, y, l2=1e-6, max_iter=1)
        assert str(got.value) == str(want.value)


class TestLrRunner:
    def _folds(self, n):
        return {
            "train": list(range(0, int(n * 0.7))),
            "valid": list(range(int(n * 0.7), int(n * 0.85))),
            "calibration": [],
            "test": list(range(int(n * 0.85), n)),
        }

    def test_trial_payload_and_learnability(self):
        x, y = _logit_world(n=400, seed=41)
        runner = make_lr_runner(x, y, self._folds(len(y)))
        out = runner({"l2": 0.01, "smote": False}, seed=9)
        assert out["status"] == "ok"
        assert out["valid_auc"] > 0.8 and out["test_auc"] > 0.8
        train_idx = self._folds(len(y))["train"]
        np.testing.assert_allclose(out["z_mean"], x[train_idx].mean(axis=0))

    def test_oversampling_changes_the_fit_but_not_the_contract(self):
        x, y = _logit_world(n=400, seed=43)
        y[: int(0.85 * len(y))] = (np.arange(int(0.85 * len(y))) % 5 == 0).astype(np.float64)
        runner = make_lr_runner(x, y, self._folds(len(y)))
        plain = runner({"l2": 0.1, "smote": False}, seed=9)
        balanced = runner({"l2": 0.1, "smote": True}, seed=9)
        assert plain["status"] == balanced["status"] == "ok"
        assert not np.array_equal(plain["model"].weights, balanced["model"].weights)

    def test_bad_config_reports_failure(self):
        x, y = _logit_world(n=100)
        runner = make_lr_runner(x, y, self._folds(len(y)))
        out = runner({"l2": 0.0, "smote": False}, seed=9)
        assert out["status"] == "failed"
        assert "l2" in out["failure"]
