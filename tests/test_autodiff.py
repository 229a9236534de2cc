"""Gradient checks for every tape op against central finite differences,
plus optimizer behavior and the bitwise round trip of parameter arrays
through the model files.

The oracle perturbs raw parameter entries and re-runs the forward pass, so
it shares no code with the vjp implementations it is checking."""

import threading
import warnings

import numpy as np
import pytest

from seqfuse.autodiff import (
    Adam,
    Sgd,
    Tape,
    Tensor,
    _result,
    _sigmoid,
    affine,
    backward,
    concat,
    embedding_lookup,
    gru_sequence,
    init_uniform,
    masked_attention,
    sigmoid,
    tanh,
    weighted_bce,
)
from seqfuse.cli import _load_best, _save_best
from seqfuse.errors import DimensionError, NumericsError
from seqfuse.rng import Xoshiro256
from tests.reference import (
    GRU_ARRAYS,
    ReferenceAdam,
    ReferenceXoshiro256,
    add,
    fused_gru_arrays,
    grad_of,
    gru_gate_blocks,
    matmul,
    reference_gru_sequence,
    reference_pair_lookup,
    reference_sigmoid,
)


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
        np.testing.assert_allclose(grad_of(p), numeric, rtol=rtol, atol=atol, err_msg=name)


def _rand(rng, *shape):
    return np.array([rng.uniform(-1.0, 1.0) for _ in range(shape[0] * shape[1])]).reshape(shape)


@pytest.fixture()
def rng():
    return ReferenceXoshiro256(2024)


class TestOpGradients:
    def test_affine(self, rng):
        x = Tensor(_rand(rng, 5, 3), requires_grad=True)
        w = Tensor(_rand(rng, 3, 4), requires_grad=True)
        b = Tensor(_rand(rng, 1, 4), requires_grad=True)
        r = Tensor(_rand(rng, 5, 4))
        check_grads(lambda: tsum(hadamard(affine(x, w, b), r)), {"x": x, "w": w, "b": b})

    # The test-side matmul and add below are the composition affine and
    # the biased embedding lookup must equal bitwise, so they are checked
    # against the oracle too.
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
            lambda: tsum(hadamard(concat(parts), r)),
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
        b = Tensor(_rand(rng, 1, 4), requires_grad=True)
        # Row 0 repeats across events and inside one event; the gradient
        # must accumulate per occurrence. Row 3 has no pair: it is the bias.
        indices = np.array([0, 2, 0, 0, 5, 3])
        row_of = np.array([0, 0, 1, 1, 1, 2])
        r = Tensor(_rand(rng, 4, 4))
        check_grads(lambda: tsum(hadamard(embedding_lookup(w, b, indices, row_of, 4), r)), {"w": w, "b": b})

    def test_embedding_lookup_rejects_indices_out_of_range(self, rng):
        w = Tensor(_rand(rng, 6, 4), requires_grad=True)
        b = Tensor(_rand(rng, 1, 4), requires_grad=True)
        for bad in (6, -1):
            with pytest.raises(DimensionError):
                embedding_lookup(w, b, np.array([0, bad]), np.array([0, 1]), 2)

    def test_weighted_bce(self, rng):
        logits = Tensor(_rand(rng, 6, 1), requires_grad=True)
        y = np.array([[1.0], [0.0], [1.0], [0.0], [0.0], [1.0]])
        check_grads(lambda: weighted_bce(sigmoid(logits), y, w_pos=3.0), {"x": logits})

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
    """A layer's `GRU_ARRAYS` as tensors: the per-gate arrays drawn W_r,
    W_z, W_h, then U and b the same way, and joined."""
    per_gate = {f"{kind}_{gate}": _rand(rng, rows, hidden)
                for kind, rows in (("W", n_in), ("U", hidden), ("b", 1)) for gate in "rzh"}
    fused = fused_gru_arrays(per_gate)
    return tuple(Tensor(fused[name], requires_grad=True) for name in GRU_ARRAYS)


def _gate_blocks(weights):
    """Each gate's block of a layer's weight tensors, as views."""
    return gru_gate_blocks({name: t.data for name, t in zip(GRU_ARRAYS, weights)})


def _named(prefix, weights):
    return {f"{prefix}.{name}": t for name, t in zip(GRU_ARRAYS, weights)}


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

    @pytest.mark.parametrize("block", ["W_r", "U_r", "U_h"], ids=["x_W_r", "h_U_r", "rh_U_h"])
    def test_gru_overflow_inside_the_op_raises(self, rng, block):
        """sigmoid and tanh map an infinite pre-activation to a finite
        state, so the op itself must report the overflow."""
        steps, batch = _MASK.shape
        weights = _gru_weights(rng, 3, 4)
        _gate_blocks(weights)["b_r"][:] = 50.0  # r = 1, so r * h = h
        _gate_blocks(weights)[block][:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
            gru_sequence(Tensor(np.ones((steps * batch, 3))), Tensor(np.ones((batch, 4))), *weights, _MASK)


def _left_padded_mask(lengths, steps):
    return (np.arange(steps)[:, None] >= steps - np.asarray(lengths)[None, :]).astype(np.float64)


def _gru_run(op, data, mask):
    """Runs `op` (gru_sequence or its reference) on fresh tensors holding
    `data` under a weighted-sum loss; returns the output and every input's
    gradient, by name. gru_sequence takes data's per-gate weights joined
    into its four arrays, and its weight gradients come back sliced per
    gate; the reference takes and returns them per gate."""
    fused = op is gru_sequence
    weights = {name: array for name, array in data.items() if name not in ("x", "h0", "r")}
    inputs = {"x": data["x"], "h0": data["h0"], **(fused_gru_arrays(weights) if fused else weights)}
    tensors = {name: Tensor(array.copy(), requires_grad=True) for name, array in inputs.items()}
    if fused:
        args = tuple(tensors[name] for name in GRU_ARRAYS)
    else:
        args = tuple(tuple(tensors[f"{kind}_{g}"] for g in "rzh") for kind in "WUb")
    with Tape() as tape:
        out = op(tensors["x"], tensors["h0"], *args, mask)
        loss = tsum(hadamard(out, Tensor(data["r"])))
    backward(tape, loss)
    grads = {name: grad_of(t) for name, t in tensors.items()}
    if fused:
        grads = {"x": grads["x"], "h0": grads["h0"], **gru_gate_blocks(grads)}
    return out.data, grads


class TestKernelsAgainstReferences:
    """The GRU op and Adam against `tests/reference.py`'s step-by-step
    forms: the forward and the optimizer bitwise, the GRU's gradients to
    rounding (its U gradients are summed over all T*B rows at once, not
    step by step). The sigmoid and the embedding sums against their
    np.where and np.add.at forms, bitwise."""

    def test_sigmoid_matches_the_reference(self):
        tiny = np.finfo(np.float64).tiny
        special = np.array([
            0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
            5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny,
            745.0, -745.0, 800.0, -800.0,
        ])
        grid = np.linspace(-40.0, 40.0, 4001)
        strided = np.random.default_rng(5).normal(scale=20.0, size=(12, 10))[::3, 1::2]
        assert not strided.flags.c_contiguous
        with np.errstate(invalid="ignore"):
            for d in (special, grid, strided, np.float64(0.3), np.float64(-0.0)):
                got, want = _sigmoid(d), reference_sigmoid(d)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize(
        "n_weights, width, n_rows, n_pairs",
        [(7, 5, 9, 40), (44, 24, 96, 300), (3, 2, 4, 0), (5, 1, 1, 12)],
        ids=["small", "demo-width", "no-pairs", "one-row"],
    )
    def test_embedding_lookup_matches_the_np_add_at_reference(self, n_weights, width, n_rows, n_pairs):
        """Pairs in no particular row order, rows named many times or not
        at all: both sums must add the pairs in the order given."""
        rng = np.random.default_rng(n_weights * 1000 + n_pairs)
        indices = rng.integers(0, n_weights, size=n_pairs)
        row_of = rng.integers(0, n_rows, size=n_pairs)
        data = rng.normal(size=(n_weights, width)) * 10.0 ** rng.integers(-8, 8, size=(n_weights, 1))
        upstream = rng.normal(size=(n_rows, width)) * 10.0 ** rng.integers(-8, 8, size=(n_rows, 1))

        bias_data = rng.normal(size=(1, width))

        def run(op):
            weights, bias = Tensor(data.copy(), requires_grad=True), Tensor(bias_data.copy(), requires_grad=True)
            with Tape() as tape:
                out = op(weights, bias)
                loss = tsum(hadamard(out, Tensor(upstream)))
            backward(tape, loss)
            return out.data, grad_of(weights), grad_of(bias)

        got = run(lambda w, b: embedding_lookup(w, b, indices, row_of, n_rows))
        want = run(lambda w, b: add(reference_pair_lookup(w, indices, row_of, n_rows), b))
        for left, right in zip(got, want):
            assert left.tobytes() == right.tobytes()

    @pytest.mark.parametrize("batch", [256, 37, 1], ids=["full", "ragged", "one-row"])
    def test_affine_matches_matmul_then_add(self, batch):
        """On the head's shapes (early fusion's summary | z into the MLP,
        and the MLP into the one-unit output), the op and both its inputs'
        and its bias's gradients equal the two-op composition bitwise."""
        rng = np.random.default_rng(batch)
        for n_in, n_out in ((24 + 150, 32), (32, 1)):
            data = {"x": rng.normal(size=(batch, n_in)), "w": rng.normal(size=(n_in, n_out)),
                    "b": rng.normal(size=(1, n_out))}
            upstream = Tensor(rng.normal(size=(batch, n_out)))

            def run(op):
                x, w, b = (Tensor(data[k].copy(), requires_grad=True) for k in "xwb")
                with Tape() as tape:
                    out = op(x, w, b)
                    loss = tsum(hadamard(out, upstream))
                backward(tape, loss)
                return out.data, grad_of(x), grad_of(w), grad_of(b)

            got = run(affine)
            want = run(lambda x, w, b: add(matmul(x, w), b))
            for left, right in zip(got, want):
                assert left.tobytes() == right.tobytes(), (n_in, n_out)

    @pytest.mark.parametrize(
        "lengths, n_in, hidden",
        [
            ([4, 2, 1], 3, 4),
            ([1] * 5, 2, 3),
            ([9], 4, 2),
            ([3] * 6, 5, 5),
            ([14, 1, 7, 7, 3, 12, 5, 2, 9, 11, 4, 6, 8, 10, 13, 2] * 2, 16, 24),
        ],
        ids=["padded", "one-step", "one-row", "unpadded", "demo-shape"],
    )
    def test_gru_sequence_matches_the_reference(self, lengths, n_in, hidden):
        rng = np.random.default_rng(len(lengths) * 100 + hidden)
        steps, batch = max(lengths), len(lengths)
        mask = _left_padded_mask(lengths, steps)
        data = {
            "x": rng.normal(size=(steps * batch, n_in)),
            "h0": rng.normal(size=(batch, hidden)),
            "r": rng.normal(size=(steps * batch, hidden)),
            **{f"W_{g}": rng.normal(size=(n_in, hidden)) for g in "rzh"},
            **{f"U_{g}": rng.normal(size=(hidden, hidden)) for g in "rzh"},
            **{f"b_{g}": rng.normal(size=(1, hidden)) for g in "rzh"},
        }
        out, grads = _gru_run(gru_sequence, data, mask)
        ref_out, ref_grads = _gru_run(reference_gru_sequence, data, mask)
        assert out.tobytes() == ref_out.tobytes()
        for name, ref in ref_grads.items():
            scale = np.abs(ref).max()
            assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("block", ["U_r", "U_h"], ids=["h_U_r", "rh_U_h"])
    def test_a_nonfinite_step_raises_without_numpy_warnings(self, rng, block):
        """The op runs its loop to the end before checking the
        pre-activations, so the steps after an overflow must not warn."""
        steps, batch = _MASK.shape
        weights = _gru_weights(rng, 3, 4)
        _gate_blocks(weights)["b_r"][:] = 50.0
        _gate_blocks(weights)[block][:] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="pre-activation"):
                gru_sequence(Tensor(np.ones((steps * batch, 3))), Tensor(np.ones((batch, 4))), *weights, _MASK)

    def test_adam_matches_the_per_tensor_reference(self, rng):
        """Over several steps, with a frozen tensor that carries a stray
        gradient and a live one that has a gradient only on some steps:
        both are skipped, their data and moments unchanged, until the live
        one gets a gradient."""
        shapes = {"w": (3, 4), "frozen": (2, 2), "idle": (1, 3), "b": (1, 5)}

        def make():
            return {name: Tensor(_rand(ReferenceXoshiro256(len(name)), *shape), requires_grad=name != "frozen")
                    for name, shape in shapes.items()}

        params, ref_params = make(), make()
        opt, ref = Adam(params, lr=0.05), ReferenceAdam(ref_params, lr=0.05)
        for step in range(7):
            for ps in (params, ref_params):
                for name, p in ps.items():
                    p.zero_grad()
                    if name != "idle" or step in (3, 4, 6):
                        p._grad = p.data * (step + 1.0) - 0.5
            opt.step()
            ref.step()
            for name in shapes:
                assert params[name].data.tobytes() == ref_params[name].data.tobytes(), (step, name)
        assert params["frozen"].data.tobytes() == make()["frozen"].data.tobytes()


class TestBackwardMechanics:
    def test_fanout_accumulates(self):
        x = Tensor(np.array([[0.3, -0.7]]), requires_grad=True)
        with Tape() as tape:
            loss = tsum(add(hadamard(x, x), x))  # d/dx = 2x + 1
        backward(tape, loss)
        np.testing.assert_allclose(grad_of(x), 2.0 * x.data + 1.0, rtol=1e-12)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = tsum(add(add(x, x), x))
            backward(tape, loss)
        np.testing.assert_allclose(grad_of(x), 6.0 * np.ones((1, 2)))
        x.zero_grad()
        assert x._grad is None

    def test_frozen_tensor_gets_no_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        frozen = Tensor(np.ones((2, 2)), requires_grad=False)
        with Tape() as tape:
            loss = tsum(hadamard(x, frozen))
        backward(tape, loss)
        assert frozen._grad is None
        assert grad_of(x) is not None

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
            np.testing.assert_allclose(grad_of(x), 4.0 * x.data, rtol=1e-12)  # d/dx sum(2x * x)

    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = add(x, x)
        with pytest.raises(DimensionError):
            backward(tape, out)

    def test_shape_mismatches_raise(self):
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
        with pytest.raises(DimensionError, match="affine"):
            affine(x, Tensor(np.ones((2, 4))), Tensor(np.ones((1, 4))))
        for bias in ((1, 3), (2, 4), (4, 1)):
            with pytest.raises(DimensionError, match="affine"):
                affine(x, w, Tensor(np.ones(bias)))
        with pytest.raises(DimensionError, match="bias"):
            embedding_lookup(w, Tensor(np.ones((2, 4))), np.array([0]), np.array([0]), 1)
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
            block, scalar = Xoshiro256(seed), ReferenceXoshiro256(seed)
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
