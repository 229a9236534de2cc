"""Network architecture tests.

The recurrences and attention are checked against plain-numpy
transcriptions of the same equations, and the fusion variants against
each other where the architecture makes them coincide.
"""

import numpy as np
import pytest

from seqfuse.autodiff import Adam, Tape, Tensor, add, backward
from seqfuse.cli import _load_best, _save_best
from seqfuse.errors import DimensionError, ValidationError
from seqfuse.model import (
    ModelConfig,
    SeqFuseModel,
    init_params,
    load_model,
    random_embedding,
)
from seqfuse.rng import Xoshiro256
from tests.reference import reference_embedding_lookup, reference_padding, steps_table


def small_config(**overrides) -> ModelConfig:
    base = dict(
        input_dim=12,
        embed_dim=5,
        hidden_dim=6,
        domain_dim=4,
        n_gru_layers=1,
        fusion="early",
        mlp_hidden_dims=(7,),
        embedding="linear",
        seed=99,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_steps(rng: Xoshiro256, n_seq: int, t_len: int, input_dim: int) -> list:
    out = []
    for _ in range(n_seq):
        seq = []
        for _ in range(t_len):
            k = 1 + rng.randint(0, 2)
            seq.append([rng.randint(0, input_dim - 1) for _ in range(k)])
        out.append(seq)
    return out


class TestConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            small_config(hidden_dim=0).validate()
        with pytest.raises(ValidationError):
            small_config(fusion="middle").validate()
        with pytest.raises(ValidationError):
            small_config(n_gru_layers=0).validate()
        with pytest.raises(ValidationError):
            small_config(fusion="early", domain_dim=0).validate()
        with pytest.raises(ValidationError):
            small_config(mlp_hidden_dims=(8, 0)).validate()
        with pytest.raises(ValidationError):
            small_config(embedding="glove").validate()

    def test_fusion_none_allows_zero_domain_dim(self):
        small_config(fusion="none", domain_dim=0).validate()

    def test_json_round_trip(self):
        cfg = small_config(mlp_hidden_dims=(3, 2))
        again = ModelConfig.from_json_obj(cfg.to_json_obj())
        assert again == cfg

    def test_init_is_deterministic_in_config(self):
        a = init_params(small_config())
        b = init_params(small_config())
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)
        c = init_params(small_config(seed=100))
        assert not np.array_equal(a["out.W"].data, c["out.W"].data)


class TestGruStep:
    def test_matches_numpy_transcription(self):
        """r, z, h_tilde, and the convex update recomputed outside the tape."""
        cfg = small_config(fusion="none", domain_dim=0)
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(5)
        x = np.array([[rng.normal() for _ in range(cfg.embed_dim)] for _ in range(3)])
        h = np.array([[rng.normal() for _ in range(cfg.hidden_dim)] for _ in range(3)])

        with Tape():
            out = model.gru_step(0, Tensor(x), Tensor(h), np.ones((1, 3)))

        def sig(a):
            return 1.0 / (1.0 + np.exp(-a))

        p = {name: t.data for name, t in model.params.items()}
        r = sig(x @ p["gru0.W_r"] + h @ p["gru0.U_r"] + p["gru0.b_r"])
        z = sig(x @ p["gru0.W_z"] + h @ p["gru0.U_z"] + p["gru0.b_z"])
        h_tilde = np.tanh(x @ p["gru0.W_h"] + (r * h) @ p["gru0.U_h"] + p["gru0.b_h"])
        expected = (1.0 - z) * h + z * h_tilde
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-14)

    def test_zero_update_gate_keeps_state(self):
        """Forcing z = 0 through a huge negative bias must return h exactly
        up to the h + z*(h_tilde - h) arithmetic."""
        cfg = small_config(fusion="none", domain_dim=0)
        model = SeqFuseModel(cfg)
        model.params["gru0.W_z"].data[:] = 0.0
        model.params["gru0.U_z"].data[:] = 0.0
        model.params["gru0.b_z"].data[:] = -745.0  # sigmoid underflows to 0.0
        h = np.linspace(-1.0, 1.0, 2 * cfg.hidden_dim).reshape(2, cfg.hidden_dim)
        with Tape():
            out = model.gru_step(0, Tensor(np.ones((2, cfg.embed_dim))), Tensor(h), np.ones((1, 2)))
        assert np.array_equal(out.data, h)


class TestAttention:
    def test_single_step_passes_state_through_bitwise(self):
        cfg = small_config(fusion="none", domain_dim=0)
        model = SeqFuseModel(cfg)
        state = Tensor(np.array([[0.1, -2.0, 3.5, 1e-300, 7.0, -0.25]]))
        with Tape():
            summary, attention = model.attend(state, np.ones((1, 1)))
        assert np.array_equal(summary.data, state.data)
        assert attention.data.shape == (1, 1)
        assert attention.data[0, 0] == 1.0

    def test_weights_are_a_distribution(self):
        cfg = small_config(fusion="none", domain_dim=0)
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(17)
        for _ in range(50):
            t_len = 1 + rng.randint(0, 5)
            states = Tensor(
                np.array([[rng.normal() * 3 for _ in range(cfg.hidden_dim)] for _ in range(4 * t_len)])
            )
            with Tape():
                _, attention = model.attend(states, np.ones((t_len, 4)))
            assert np.all(attention.data >= 0.0)
            np.testing.assert_allclose(attention.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_matches_numpy_oracle(self):
        """softmax(q . h_t / sqrt(d)) and the weighted state sum."""
        cfg = small_config(fusion="none", domain_dim=0)
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(23)
        arrays = [
            np.array([[rng.normal() for _ in range(cfg.hidden_dim)] for _ in range(3)])
            for _ in range(4)
        ]
        with Tape():
            summary, attention = model.attend(Tensor(np.concatenate(arrays)), np.ones((4, 3)))

        stacked = np.stack(arrays, axis=1)  # (batch, T, d)
        query = stacked[:, -1, :]
        scores = np.einsum("bd,btd->bt", query, stacked) / np.sqrt(cfg.hidden_dim)
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = exp / exp.sum(axis=1, keepdims=True)
        expected = np.einsum("bt,btd->bd", weights, stacked)
        np.testing.assert_allclose(attention.data, weights, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(summary.data, expected, rtol=1e-12, atol=1e-14)

    def test_empty_states_rejected(self):
        model = SeqFuseModel(small_config(fusion="none", domain_dim=0))
        with pytest.raises(DimensionError):
            model.attend(Tensor(np.zeros((0, 6))), np.zeros((0, 2)))


class TestForward:
    def test_predict_agrees_with_forward(self):
        cfg = small_config()
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(31)
        steps = random_steps(rng, 6, 4, cfg.input_dim)
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(cfg.domain_dim)] for _ in range(6)])
        with Tape():
            y, logit, attention = model.forward(rows, table, z)
        probs, logits, attentions = model.predict(rows, table, z, batch_size=2)
        np.testing.assert_array_equal(probs, y.data[:, 0])
        np.testing.assert_array_equal(logits, logit.data[:, 0])
        # One length, so predict's right-aligned matrix is forward's.
        assert attentions.shape == attention.data.shape
        np.testing.assert_array_equal(attentions, attention.data)

    def test_predict_mixed_lengths_keeps_input_order(self):
        """Bucketing by length must not leak results across positions, and
        each event must score identically to a solo forward pass."""
        cfg = small_config()
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(37)
        lengths = [3, 1, 4, 1, 3, 2]
        steps = [random_steps(rng, 1, t, cfg.input_dim)[0] for t in lengths]
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(cfg.domain_dim)] for _ in lengths])
        probs, _, attentions = model.predict(rows, table, z, batch_size=4)
        assert attentions.shape == (len(lengths), max(lengths))
        for i, t in enumerate(lengths):
            with Tape():
                y_solo, _, attention_solo = model.forward([i], table, z[i : i + 1])
            # Batched matmul reduces in a different order than a solo row,
            # so agreement is to rounding, not bitwise.
            np.testing.assert_allclose(probs[i], y_solo.data[0, 0], rtol=1e-12)
            # Event i's t weights fill the row's last t columns.
            assert (attentions[i, : max(lengths) - t] == 0.0).all()
            np.testing.assert_allclose(attentions[i, max(lengths) - t :], attention_solo.data[0], rtol=1e-12)

    def test_forward_rejects_ragged_batches(self):
        model = SeqFuseModel(small_config())
        table = steps_table([[[0], [1]], [[0]]])
        with pytest.raises(ValidationError):
            model.forward([], table, None)
        with pytest.raises(DimensionError):
            model.forward([0, 1], table, np.zeros((2, 4)))

    def test_fusion_requires_matching_domain_rows(self):
        model = SeqFuseModel(small_config())
        steps = [[[0], [1]]]
        table, rows = steps_table(steps), np.arange(len(steps))
        with pytest.raises(ValidationError):
            model.forward(rows, table, None)
        with pytest.raises(DimensionError):
            model.forward(rows, table, np.zeros((1, 3)))

    def test_stacked_layers_change_the_answer(self):
        rng = Xoshiro256(41)
        steps = random_steps(rng, 3, 3, 12)
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.zeros((3, 4))
        one = SeqFuseModel(small_config(n_gru_layers=1))
        two = SeqFuseModel(small_config(n_gru_layers=2))
        p1, _, _ = one.predict(rows, table, z)
        p2, _, _ = two.predict(rows, table, z)
        assert not np.allclose(p1, p2)


class TestFusionVariants:
    def test_early_equals_late_without_mlp_layers(self):
        """With no hidden MLP layers both variants reduce to a linear head
        on [summary, z], drawn from the same init stream, so they must
        agree bitwise."""
        early = SeqFuseModel(small_config(fusion="early", mlp_hidden_dims=()))
        late = SeqFuseModel(small_config(fusion="late", mlp_hidden_dims=()))
        for name in early.params:
            assert np.array_equal(early.params[name].data, late.params[name].data)
        rng = Xoshiro256(43)
        steps = random_steps(rng, 5, 3, 12)
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(4)] for _ in range(5)])
        p_early, _, _ = early.predict(rows, table, z)
        p_late, _, _ = late.predict(rows, table, z)
        np.testing.assert_array_equal(p_early, p_late)

    def test_zeroed_domain_path_matches_fusion_none_logit_structure(self):
        """Late fusion with the z branch and its head weights zeroed scores
        with the sequence branch alone."""
        cfg = small_config(fusion="late", mlp_hidden_dims=())
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(47)
        steps = random_steps(rng, 4, 3, cfg.input_dim)
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(cfg.domain_dim)] for _ in range(4)])
        _, logits_with, _ = model.predict(rows, table, z)
        model.params["out.W"].data[cfg.hidden_dim :, :] = 0.0
        _, logits_zeroed, _ = model.predict(rows, table, z)
        _, logits_no_z, _ = model.predict(rows, table, np.zeros_like(z))
        assert not np.allclose(logits_with, logits_zeroed)
        np.testing.assert_array_equal(logits_zeroed, logits_no_z)

    def test_variants_disagree_in_general(self):
        rng = Xoshiro256(53)
        steps = random_steps(rng, 4, 3, 12)
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(4)] for _ in range(4)])
        outputs = []
        for fusion in ("early", "late"):
            model = SeqFuseModel(small_config(fusion=fusion))
            p, _, _ = model.predict(rows, table, z)
            outputs.append(p)
        assert not np.allclose(outputs[0], outputs[1])


class TestLoss:
    def test_mixed_length_loss_matches_manual_grouping(self):
        """The bucketed loss equals a weighted BCE computed by hand from
        per-sequence forward passes."""
        cfg = small_config()
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(59)
        lengths = [2, 1, 2, 3]
        steps = [random_steps(rng, 1, t, cfg.input_dim)[0] for t in lengths]
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(cfg.domain_dim)] for _ in lengths])
        labels = np.array([1.0, 0.0, 0.0, 1.0])
        w_pos, w_neg = 3.0, 0.5
        with Tape():
            loss, _ = model.loss(rows, table, z, labels, w_pos=w_pos, w_neg=w_neg)

        probs, _, _ = model.predict(rows, table, z)
        weights = np.where(labels == 1.0, w_pos, w_neg)
        terms = -(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs))
        expected = float(np.mean(weights * terms))
        np.testing.assert_allclose(loss.data[0, 0], expected, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        """Central differences on the full bucketed loss, spot-checking one
        tensor from every block of the network."""
        cfg = small_config(mlp_hidden_dims=(3,))
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(61)
        lengths = [2, 1, 3]
        steps = [random_steps(rng, 1, t, cfg.input_dim)[0] for t in lengths]
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(cfg.domain_dim)] for _ in lengths])
        labels = np.array([1.0, 0.0, 1.0])

        with Tape() as tape:
            loss, _ = model.loss(rows, table, z, labels, w_pos=2.0)
            backward(tape, loss)

        h = 1e-5
        for name in ("embed.W", "gru0.U_h", "mlp.0.W", "out.W", "out.b"):
            tensor = model.params[name]
            flat = tensor.data.reshape(-1)
            for k in range(0, flat.size, max(1, flat.size // 5)):
                keep = flat[k]
                flat[k] = keep + h
                with Tape():
                    up, _ = model.loss(rows, table, z, labels, w_pos=2.0)
                flat[k] = keep - h
                with Tape():
                    down, _ = model.loss(rows, table, z, labels, w_pos=2.0)
                flat[k] = keep
                fd = (up.data[0, 0] - down.data[0, 0]) / (2 * h)
                got = tensor.grad.reshape(-1)[k]
                assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd)), (name, k, got, fd)


class TestPaddedBatches:
    def test_loss_probabilities_match_solo_forward(self):
        """A mixed-length batch runs left-padded in one pass; each event's
        probability, in input order, matches a solo pass to rounding."""
        cfg = small_config(n_gru_layers=2)
        model = SeqFuseModel(cfg)
        rng = Xoshiro256(73)
        lengths = [3, 1, 4, 1, 2, 4]
        steps = [random_steps(rng, 1, t, cfg.input_dim)[0] for t in lengths]
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(cfg.domain_dim)] for _ in lengths])
        with Tape():
            _, y = model.loss(rows, table, z, np.zeros(len(lengths)))
        for i in range(len(lengths)):
            with Tape():
                y_solo, _, _ = model.forward([i], table, z[i : i + 1])
            np.testing.assert_allclose(y.data[i, 0], y_solo.data[0, 0], rtol=1e-12)

    def test_empty_sequence_rejected(self):
        model = SeqFuseModel(small_config())
        with pytest.raises(DimensionError):
            model.predict([0, 1], steps_table([[[0]], []]), np.zeros((2, 4)))


class TestLayoutAgainstReference:
    """The padded layout `_padded_pass` gathers from the table's CSR columns
    against the nested-list padding and list lookup of tests/reference.py:
    the embedded rows, the step mask and the embed.W gradient must be
    bitwise equal, for rows taken from the table in shuffled order."""

    @staticmethod
    def _pass(rows, table, z, labels, reference_steps=None):
        """Loss and backward on a fresh model, recording the embedded rows and
        the step mask. With `reference_steps` (the rows' step lists), the
        embedded rows come from the reference layout instead."""
        model = SeqFuseModel(small_config(n_gru_layers=2))
        seen = {}
        plain_embed, plain_attend = model.embed, model.attend

        def embed(*args):
            if reference_steps is None:
                seen["x"] = plain_embed(*args)
            else:
                index_lists, seen["reference_mask"] = reference_padding(reference_steps)
                lookup = reference_embedding_lookup(model.params["embed.W"], index_lists)
                seen["x"] = add(lookup, model.params["embed.b"])
            return seen["x"]

        def attend(states, mask):
            seen["mask"] = mask
            return plain_attend(states, mask)

        model.embed, model.attend = embed, attend
        with Tape() as tape:
            loss, _ = model.loss(rows, table, z, labels)
            backward(tape, loss)
        return seen, model.params["embed.W"].grad

    def _check(self, step_lists, rng: Xoshiro256, n_rows: int):
        table = steps_table(step_lists)
        order = list(range(len(step_lists)))
        rng.shuffle(order)
        rows = np.array(order[:n_rows])
        z = np.array([[rng.normal() for _ in range(4)] for _ in rows])
        labels = np.array([float(rng.randint(0, 1)) for _ in rows])
        seen, grad = self._pass(rows, table, z, labels)
        ref, ref_grad = self._pass(rows, table, z, labels, [step_lists[i] for i in rows])
        assert np.array_equal(seen["mask"], ref["reference_mask"])
        assert np.array_equal(seen["x"].data, ref["x"].data)
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("seed", range(6))
    def test_ragged_batches_with_empty_steps(self, seed):
        rng = Xoshiro256(700 + seed)
        step_lists = [
            [[rng.randint(0, 11) for _ in range(rng.randint(0, 3))] for _ in range(1 + rng.randint(0, 5))]
            for _ in range(14)
        ]
        step_lists[3] = [[], []]  # a sequence whose steps are all empty
        self._check(step_lists, rng, n_rows=10)

    def test_one_step_sequences(self):
        rng = Xoshiro256(711)
        step_lists = [[[rng.randint(0, 11) for _ in range(rng.randint(0, 3))]] for _ in range(9)]
        self._check(step_lists, rng, n_rows=9)

    def test_equal_length_batch(self):
        rng = Xoshiro256(712)
        self._check(random_steps(rng, 8, 4, 12), rng, n_rows=7)


def save_and_load(directory, model: SeqFuseModel, meta: dict | None = None) -> tuple[SeqFuseModel, dict]:
    """The model through the train stage's files: `model.json` and `weights.npz`."""
    spec = {"model_config": model.config.to_json_obj(), **(meta or {})}
    _save_best(directory, spec, {name: tensor.data for name, tensor in model.params.items()})
    spec, arrays = _load_best(directory)
    return load_model(spec["model_config"], arrays), spec


class TestPersistence:
    def test_round_trip_is_bitwise(self, tmp_path):
        cfg = small_config()
        model = SeqFuseModel(cfg)
        again, meta = save_and_load(tmp_path / "m", model, meta={"task": "readmission", "note": 7})
        assert again.config == cfg
        assert meta["task"] == "readmission" and meta["note"] == 7
        assert set(again.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(again.params[name].data, model.params[name].data)
        rng = Xoshiro256(67)
        steps = random_steps(rng, 3, 2, cfg.input_dim)
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.zeros((3, cfg.domain_dim))
        np.testing.assert_array_equal(model.predict(rows, table, z)[0], again.predict(rows, table, z)[0])

    def test_pretrained_embedding_round_trip_and_freezing(self, tmp_path):
        matrix = random_embedding(input_dim=12, embed_dim=5, seed=3)
        assert matrix.shape == (12, 5)
        assert np.array_equal(matrix, random_embedding(12, 5, 3))
        assert not np.array_equal(matrix, random_embedding(12, 5, 4))
        cfg = small_config(embedding="pretrained")
        model = SeqFuseModel(cfg, pretrained_embedding=matrix)
        assert not model.params["embed.W"].requires_grad
        again, _ = save_and_load(tmp_path / "m", model)
        assert np.array_equal(again.params["embed.W"].data, matrix)
        assert not again.params["embed.W"].requires_grad
        assert again.params["out.W"].requires_grad

    def test_pretrained_requires_matrix_of_right_shape(self):
        cfg = small_config(embedding="pretrained")
        with pytest.raises(ValidationError):
            SeqFuseModel(cfg)
        with pytest.raises(DimensionError):
            SeqFuseModel(cfg, pretrained_embedding=np.zeros((3, 3)))


class TestTrainingInteraction:
    def test_pretrained_embedding_survives_optimizer_steps(self):
        cfg = small_config(embedding="pretrained")
        matrix = np.linspace(-0.5, 0.5, cfg.input_dim * cfg.embed_dim).reshape(
            cfg.input_dim, cfg.embed_dim
        )
        model = SeqFuseModel(cfg, pretrained_embedding=matrix)
        before_out = model.params["out.W"].data.copy()
        rng = Xoshiro256(71)
        steps = random_steps(rng, 8, 3, cfg.input_dim)
        table, rows = steps_table(steps), np.arange(len(steps))
        z = np.array([[rng.normal() for _ in range(cfg.domain_dim)] for _ in range(8)])
        labels = np.array([1.0, 0.0] * 4)
        opt = Adam(model.trainable(), lr=0.05)
        for _ in range(5):
            with Tape() as tape:
                loss, _ = model.loss(rows, table, z, labels)
                backward(tape, loss)
            opt.step()
            opt.zero_grad()
        assert np.array_equal(model.params["embed.W"].data, matrix)
        assert not np.array_equal(model.params["out.W"].data, before_out)

    def test_loss_decreases_on_a_learnable_batch(self):
        cfg = small_config(fusion="none", domain_dim=0)
        model = SeqFuseModel(cfg)
        steps = [[[1], [1]], [[2], [2]]] * 4
        table, rows = steps_table(steps), np.arange(len(steps))
        labels = np.array([1.0, 0.0] * 4)
        opt = Adam(model.trainable(), lr=0.05)
        history = []
        for _ in range(30):
            with Tape() as tape:
                loss, _ = model.loss(rows, table, None, labels)
                backward(tape, loss)
            history.append(loss.data[0, 0])
            opt.step()
            opt.zero_grad()
        assert history[-1] < history[0] * 0.5
