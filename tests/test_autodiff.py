"""Gradient checks for every tape op against central finite differences,
plus optimizer behavior and the bitwise round trip of parameter arrays
through the model files.

The oracle perturbs raw parameter entries and re-runs the forward pass, so
it shares no code with the vjp implementations it is checking."""

import threading

import numpy as np
import pytest

from seqfuse.autodiff import (
    Adam,
    Sgd,
    Tape,
    Tensor,
    _result,
    add,
    backward,
    concat,
    embedding_lookup,
    gru_sequence,
    init_uniform,
    masked_attention,
    matmul,
    sigmoid,
    tanh,
    weighted_bce,
)
from seqfuse.cli import _load_best, _save_best
from seqfuse.errors import DimensionError, NumericsError
from seqfuse.rng import Xoshiro256


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, the tests' way to weight an op's output."""
    if a.shape != b.shape:
        raise DimensionError(f"hadamard: {a.shape} * {b.shape}")

    def vjp(g):
        return g * b.data, g * a.data

    return _result("hadamard", a.data * b.data, (a, b), vjp)


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a 1 x 1 scalar, the tests' loss."""

    def vjp(g):
        return (np.full_like(x.data, g[0, 0]),)

    return _result("sum", np.array([[x.data.sum()]]), (x,), vjp)


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar f() wrt the array x,
    mutating x in place entry by entry."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        f_plus = f()
        x[idx] = orig - h
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def check_grads(build_loss, params: dict[str, Tensor], rtol=1e-5, atol=1e-8):
    """build_loss() runs the forward pass on the current parameter data and
    returns a scalar Tensor; compares tape gradients to the oracle."""
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    for name, p in params.items():
        numeric = fd_grad(lambda: build_loss().item(), p.data)
        np.testing.assert_allclose(p.grad, numeric, rtol=rtol, atol=atol, err_msg=name)


def _rand(rng, *shape):
    return np.array([rng.uniform(-1.0, 1.0) for _ in range(shape[0] * shape[1])]).reshape(shape)


@pytest.fixture()
def rng():
    return Xoshiro256(2024)


class TestOpGradients:
    def test_matmul(self, rng):
        a = Tensor(_rand(rng, 2, 3), requires_grad=True)
        b = Tensor(_rand(rng, 3, 4), requires_grad=True)
        r = Tensor(_rand(rng, 2, 4))
        check_grads(lambda: tsum(hadamard(matmul(a, b), r)), {"a": a, "b": b})

    def test_add_same_shape(self, rng):
        a = Tensor(_rand(rng, 3, 4), requires_grad=True)
        b = Tensor(_rand(rng, 3, 4), requires_grad=True)
        r = Tensor(_rand(rng, 3, 4))
        check_grads(lambda: tsum(hadamard(add(a, b), r)), {"a": a, "b": b})

    def test_add_row_bias_broadcast(self, rng):
        a = Tensor(_rand(rng, 5, 3), requires_grad=True)
        bias = Tensor(_rand(rng, 1, 3), requires_grad=True)
        r = Tensor(_rand(rng, 5, 3))
        check_grads(lambda: tsum(hadamard(add(a, bias), r)), {"a": a, "bias": bias})

    def test_hadamard(self, rng):
        a = Tensor(_rand(rng, 4, 4), requires_grad=True)
        b = Tensor(_rand(rng, 4, 4), requires_grad=True)
        check_grads(lambda: tsum(hadamard(a, b)), {"a": a, "b": b})

    def test_concat_columns(self, rng):
        parts = [Tensor(_rand(rng, 3, k), requires_grad=True) for k in (2, 1, 4)]
        r = Tensor(_rand(rng, 3, 7))
        check_grads(
            lambda: tsum(hadamard(concat(parts, axis=1), r)),
            {f"p{i}": p for i, p in enumerate(parts)},
        )

    def test_concat_rows(self, rng):
        parts = [Tensor(_rand(rng, k, 3), requires_grad=True) for k in (2, 4, 1)]
        r = Tensor(_rand(rng, 7, 3))
        check_grads(
            lambda: tsum(hadamard(concat(parts, axis=0), r)),
            {f"p{i}": p for i, p in enumerate(parts)},
        )

    def test_sigmoid(self, rng):
        x = Tensor(_rand(rng, 3, 5), requires_grad=True)
        r = Tensor(_rand(rng, 3, 5))
        check_grads(lambda: tsum(hadamard(sigmoid(x), r)), {"x": x}, rtol=1e-6)

    def test_tanh(self, rng):
        x = Tensor(_rand(rng, 3, 5), requires_grad=True)
        r = Tensor(_rand(rng, 3, 5))
        check_grads(lambda: tsum(hadamard(tanh(x), r)), {"x": x}, rtol=1e-6)

    def test_embedding_lookup_with_repeats(self, rng):
        w = Tensor(_rand(rng, 6, 4), requires_grad=True)
        # Row 0 repeats across events and inside one event; the gradient
        # must accumulate per occurrence.
        indices = np.array([0, 2, 0, 0, 5, 3])
        row_of = np.array([0, 0, 1, 1, 1, 2])
        r = Tensor(_rand(rng, 3, 4))
        check_grads(lambda: tsum(hadamard(embedding_lookup(w, indices, row_of, 3), r)), {"w": w})

    def test_embedding_lookup_rejects_indices_out_of_range(self, rng):
        w = Tensor(_rand(rng, 6, 4), requires_grad=True)
        for bad in (6, -1):
            with pytest.raises(DimensionError):
                embedding_lookup(w, np.array([0, bad]), np.array([0, 1]), 2)

    def test_weighted_bce(self, rng):
        logits = Tensor(_rand(rng, 6, 1), requires_grad=True)
        y = np.array([[1.0], [0.0], [1.0], [0.0], [0.0], [1.0]])
        check_grads(lambda: weighted_bce(sigmoid(logits), y, w_pos=3.0, w_neg=0.5), {"x": logits})

    def test_composite_two_layer_network(self, rng):
        w1 = Tensor(_rand(rng, 3, 8), requires_grad=True)
        b1 = Tensor(_rand(rng, 1, 8), requires_grad=True)
        w2 = Tensor(_rand(rng, 8, 1), requires_grad=True)
        x = Tensor(_rand(rng, 10, 3))
        y = np.array([[float(i % 2)] for i in range(10)])

        def loss():
            hidden = tanh(add(matmul(x, w1), b1))
            return weighted_bce(sigmoid(matmul(hidden, w2)), y, w_pos=2.0)

        check_grads(loss, {"w1": w1, "b1": b1, "w2": w2}, rtol=1e-4)


# Left-padded (T=4, B=3): sequence 0 has 4 real steps, 1 has 2, 2 has 1.
_MASK = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])


def _gru_weights(rng, n_in, hidden):
    def make(rows, cols):
        return tuple(Tensor(_rand(rng, rows, cols), requires_grad=True) for _ in range(3))

    return make(n_in, hidden), make(hidden, hidden), make(1, hidden)


def _named(prefix, weights):
    w, u, b = weights
    return {f"{prefix}.{kind}_{gate}": t for kind, ts in zip("WUb", (w, u, b)) for gate, t in zip("rzh", ts)}


class TestFusedOps:
    def test_gru_sequence_two_layers_with_padding(self, rng):
        steps, batch = _MASK.shape
        x = Tensor(_rand(rng, steps * batch, 3), requires_grad=True)
        h0 = Tensor(_rand(rng, batch, 4), requires_grad=True)
        first, second = _gru_weights(rng, 3, 4), _gru_weights(rng, 4, 4)
        r = Tensor(_rand(rng, steps * batch, 4))

        def loss():
            h1 = gru_sequence(x, h0, *first, _MASK)
            h2 = gru_sequence(h1, Tensor(np.zeros((batch, 4))), *second, _MASK)
            return tsum(hadamard(h2, r))

        params = {"x": x, "h0": h0, **_named("gru0", first), **_named("gru1", second)}
        check_grads(loss, params)

    def test_masked_attention(self, rng):
        steps, batch = _MASK.shape
        states = Tensor(_rand(rng, steps * batch, 5), requires_grad=True)
        r = Tensor(_rand(rng, batch, 5))
        check_grads(lambda: tsum(hadamard(masked_attention(states, _MASK)[0], r)), {"states": states})

    def test_padded_steps_keep_state_and_weigh_zero(self, rng):
        steps, batch = _MASK.shape
        h0 = Tensor(_rand(rng, batch, 4))
        out = gru_sequence(Tensor(_rand(rng, steps * batch, 3)), h0, *_gru_weights(rng, 3, 4), _MASK)
        per_step = out.data.reshape(steps, batch, 4)
        _, weights = masked_attention(out, _MASK)
        for t in range(steps):
            for b in range(batch):
                if _MASK[t, b] == 0.0:
                    assert per_step[t, b].tobytes() == h0.data[b].tobytes()
                    assert weights.data[b, t] == 0.0
                else:
                    assert weights.data[b, t] > 0.0
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        with pytest.raises(DimensionError):
            masked_attention(out, _MASK[::-1])

    @pytest.mark.parametrize("kind, gate", [(0, 0), (1, 0), (1, 2)], ids=["x_W_r", "h_U_r", "rh_U_h"])
    def test_gru_overflow_inside_the_op_raises(self, rng, kind, gate):
        """sigmoid and tanh map an infinite pre-activation to a finite
        state, so the op itself must report the overflow."""
        steps, batch = _MASK.shape
        weights = _gru_weights(rng, 3, 4)
        weights[2][0].data[:] = 50.0  # b_r: r = 1, so r * h = h
        weights[kind][gate].data[:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
            gru_sequence(Tensor(np.ones((steps * batch, 3))), Tensor(np.ones((batch, 4))), *weights, _MASK)


class TestBackwardMechanics:
    def test_fanout_accumulates(self):
        x = Tensor(np.array([[0.3, -0.7]]), requires_grad=True)
        with Tape() as tape:
            loss = tsum(add(hadamard(x, x), x))  # d/dx = 2x + 1
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0, rtol=1e-12)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = tsum(add(add(x, x), x))
            backward(tape, loss)
        np.testing.assert_allclose(x.grad, 6.0 * np.ones((1, 2)))
        x.zero_grad()
        assert x._grad is None

    def test_frozen_tensor_gets_no_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        frozen = Tensor(np.ones((2, 2)), requires_grad=False)
        with Tape() as tape:
            loss = tsum(hadamard(x, frozen))
        backward(tape, loss)
        assert frozen._grad is None
        assert x.grad is not None

    def test_tapes_on_two_threads_record_only_their_own_ops(self):
        """Each thread records on its own innermost tape, even while the
        other thread's tape is entered; with one stack shared by all
        threads, every op would land on the tape entered last."""
        barrier = threading.Barrier(2, timeout=30)
        results: dict[int, tuple] = {}
        errors: list[Exception] = []

        def work(k: int) -> None:
            try:
                x = Tensor(np.full((1, 2), float(k + 1)), requires_grad=True)
                with Tape() as tape:
                    barrier.wait()  # both tapes are entered before any op runs
                    y = add(x, x)
                    barrier.wait()
                    loss = tsum(hadamard(y, x))
                    barrier.wait()  # both threads have recorded before either exits
                backward(tape, loss)
                results[k] = (tape, x, y, loss)
            except Exception as exc:
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors, errors
        assert sorted(results) == [0, 1]
        for tape, x, y, loss in results.values():
            outputs = [rec[0] for rec in tape.records]  # add, hadamard, sum
            assert len(outputs) == 3 and outputs[0] is y and outputs[2] is loss
            own = {id(x), *map(id, outputs)}
            assert all(id(t) in own for rec in tape.records for t in rec[1])
            np.testing.assert_allclose(x.grad, 4.0 * x.data, rtol=1e-12)  # d/dx sum(2x * x)

    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = add(x, x)
        with pytest.raises(DimensionError):
            backward(tape, out)

    def test_shape_mismatches_raise(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(DimensionError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        with pytest.raises(DimensionError):
            hadamard(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2, 2)))

    def test_nonfinite_forward_raises(self):
        big = Tensor(np.full((1, 2), 1e308), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            hadamard(big, big)


class TestOptimizers:
    def test_sgd_step(self):
        p = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        p._grad = np.array([[0.5, -1.0]])
        Sgd({"p": p}, lr=0.1).step()
        np.testing.assert_allclose(p.data, [[0.95, 2.1]])

    def test_adam_matches_reference_updates(self):
        # Independent transcription of Adam with bias correction.
        p = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
        ref = p.data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        opt = Adam({"p": p}, lr=0.05)
        for t in range(1, 8):
            g = ref * 2.0  # gradient of sum(x^2) at the reference point
            p._grad = p.data * 2.0
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            ref = ref - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(p.data, ref, rtol=1e-12, err_msg=f"step {t}")

    def test_optimizers_skip_frozen_params(self):
        frozen = Tensor(np.ones((1, 2)), requires_grad=False)
        frozen._grad = np.ones((1, 2))  # even a stray gradient must be ignored
        live = Tensor(np.ones((1, 2)), requires_grad=True)
        live._grad = np.ones((1, 2))
        for make in (lambda ps: Sgd(ps, lr=0.5), lambda ps: Adam(ps, lr=0.5)):
            f = Tensor(frozen.data.copy(), requires_grad=False)
            f._grad = np.ones((1, 2))
            l = Tensor(live.data.copy(), requires_grad=True)
            l._grad = np.ones((1, 2))
            opt = make({"f": f, "l": l})
            opt.step()
            np.testing.assert_array_equal(f.data, np.ones((1, 2)))
            assert not np.array_equal(l.data, np.ones((1, 2)))
            opt.zero_grad()
            assert l._grad is None

    def test_init_uniform_bounds_and_determinism(self):
        a = init_uniform((20, 10), fan_in=20, rng=Xoshiro256(5))
        b = init_uniform((20, 10), fan_in=20, rng=Xoshiro256(5))
        np.testing.assert_array_equal(a.data, b.data)
        bound = 1.0 / np.sqrt(20)
        assert np.all(np.abs(a.data) <= bound)
        assert a.requires_grad

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 5), (16, 24)])
    def test_init_uniform_equals_scalar_uniform_draws(self, shape):
        bound = 1.0 / np.sqrt(max(shape[0], 1))
        for seed in range(40):
            block, scalar = Xoshiro256(seed), Xoshiro256(seed)
            got = init_uniform(shape, fan_in=shape[0], rng=block).data
            want = np.array([scalar.uniform(-bound, bound) for _ in range(shape[0] * shape[1])]).reshape(shape)
            assert got.shape == shape and got.tobytes() == want.tobytes()
            assert block._s == scalar._s


class TestCheckpoints:
    def test_round_trip_is_bitwise(self, tmp_path):
        tensors = {
            "w": np.array([[1.5, -2.25], [0.1, 3.75]]),
            "b": Tensor(np.array([[0.0, 1e-300]])),
        }
        _save_best(tmp_path / "ck", {"note": "x"}, {"w": tensors["w"], "b": tensors["b"].data})
        meta, arrays = _load_best(tmp_path / "ck")
        assert meta == {"note": "x"}
        assert set(arrays) == {"w", "b"}
        assert arrays["w"].dtype == np.float64 and arrays["b"].dtype == np.float64
        assert arrays["w"].tobytes() == tensors["w"].tobytes()
        assert arrays["b"].tobytes() == tensors["b"].data.tobytes()
