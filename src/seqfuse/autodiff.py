"""Minimal dense-tensor engine with reverse-mode differentiation.

Everything is a 2-D float64 matrix (batch rows x feature columns); vectors
are 1 x n or n x 1. Ops run eagerly on numpy and, when a tape is active and
an input requires grad, append a (output, inputs, vjp) record. `backward`
walks the records in reverse and accumulates gradients with +=, so running
it twice without a grad reset doubles every gradient — callers reset.

There is no general broadcast: a bias is a 1 x n row that `affine` and
`embedding_lookup` add to every output row themselves, and every other op
wants exact shapes, so mistakes surface as DimensionError.

Sequences of T steps over a batch of B rows are stacked step-major into
one (T*B) x n tensor, row t*B + b, with a (T, B) array marking real steps
(1.0) and padding (0.0). `gru_sequence` and `masked_attention` take that
layout and record one tape entry per call.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import DimensionError, NumericsError
from .rng import Xoshiro256, unit_floats

_EPS_BCE = 1e-12


class Tensor:
    __slots__ = ("data", "requires_grad", "_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self._grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on non-scalar shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Execution record for one forward pass; a context manager.

    Each thread has its own stack of entered tapes, and an op records on
    the innermost tape of the thread that runs it, so a tape on one thread
    never records another thread's ops.
    """

    _active = threading.local()

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    @staticmethod
    def _stack() -> list["Tape"]:
        stack = getattr(Tape._active, "stack", None)
        if stack is None:
            stack = Tape._active.stack = []
        return stack

    def __enter__(self) -> "Tape":
        Tape._stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        Tape._stack().pop()

    @staticmethod
    def current() -> "Tape | None":
        stack = Tape._stack()
        return stack[-1] if stack else None


def _check_finite(op_name: str, data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise NumericsError(f"{op_name} produced a non-finite value")


def _result(op_name: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    _check_finite(op_name, out_data)
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    tape = Tape.current()
    if tape is not None and requires:
        tape.records.append((out, inputs, vjp))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate `_grad` on every requires_grad tensor reachable from `loss`.

    Gradients accumulate (+=) across fan-out and across repeated calls;
    records are visited once, in reverse execution order.
    """
    if loss.data.shape != (1, 1):
        raise DimensionError(f"loss must be scalar, got shape {loss.shape}")
    scratch: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    seen: dict[int, Tensor] = {id(loss): loss}
    for out, inputs, vjp in reversed(tape.records):
        seen.setdefault(id(out), out)
        for t in inputs:
            seen.setdefault(id(t), t)
        g_out = scratch.get(id(out))
        if g_out is None:
            continue
        for t, g_in in zip(inputs, vjp(g_out)):
            if g_in is None or not t.requires_grad:
                continue
            acc = scratch.get(id(t))
            scratch[id(t)] = g_in if acc is None else acc + g_in
    for key, g in scratch.items():
        t = seen[key]
        if t.requires_grad:
            t._grad = g.copy() if t._grad is None else t._grad + g


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w plus the 1 x n bias row b on every row, as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise DimensionError(f"affine: {x.shape} @ {w.shape} + {b.shape}")
    out = x.data @ w.data
    out += b.data

    def vjp(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0, keepdims=True)

    return _result("affine", out, (x, w, b), vjp)


def concat(tensors: list[Tensor]) -> Tensor:
    """Joins tensors with one row count side by side, along axis 1."""
    if len({t.shape[0] for t in tensors}) != 1:
        raise DimensionError(f"concat: mismatched row counts {[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=1)
    edges = np.cumsum([0] + [t.shape[1] for t in tensors])

    def vjp(g):
        return tuple(g[:, edges[i]:edges[i + 1]] for i in range(len(tensors)))

    return _result("concat", out, tuple(tensors), vjp)


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-d)) for d >= 0 and exp(d) / (1 + exp(d)) below, so exp
    # never overflows. e <= 1, so max(e, d >= 0) is 1 where d >= 0 and e
    # elsewhere: the numerator without np.where's slow select. A NaN stays
    # NaN, and -0.0 counts as d >= 0.
    e = np.exp(-np.abs(d))
    num = np.maximum(e, d >= 0, dtype=np.float64)
    num /= 1.0 + e
    return num


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _result("sigmoid", out, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _result("tanh", out, (x,), vjp)


def _row_sums(rows: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Row r of the n_rows-row result is the sum of values[k] over every k
    with rows[k] == r, added in k order, as np.add.at adds.

    One np.bincount over the flat (row * width + column) keys: bincount
    adds its weights in input order, so each entry's sum is np.add.at's,
    bit for bit, without np.add.at's per-pair dispatch.
    """
    width = values.shape[1]
    keys = (rows[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(keys, weights=values.ravel(), minlength=n_rows * width)
    # With no pairs at all, bincount returns integer zeros.
    return sums.astype(np.float64, copy=False).reshape(n_rows, width)


def embedding_lookup(weights: Tensor, bias: Tensor, indices: np.ndarray, row_of: np.ndarray,
                     n_rows: int) -> Tensor:
    """Row r of the n_rows-row output is the sum of the `weights` rows
    indices[k] over every k with row_of[k] == r, plus the 1 x n bias row.

    This is the sparse path for multi-hot inputs: equivalent to X @ weights
    + bias for a binary X whose set bits are the (row_of, indices) pairs,
    without densifying X. A row no pair names is the bias (a padded step).
    """
    indices = np.asarray(indices, dtype=np.intp)
    row_of = np.asarray(row_of, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= weights.shape[0]):
        raise DimensionError(
            f"embedding_lookup: index out of range for {weights.shape[0]} rows")
    if bias.shape != (1, weights.shape[1]):
        raise DimensionError(f"embedding_lookup: bias {bias.shape} for weights {weights.shape}")
    out = _row_sums(row_of, weights.data[indices], n_rows)
    out += bias.data

    def vjp(g):
        return _row_sums(indices, g[row_of], weights.shape[0]), g.sum(axis=0, keepdims=True)

    return _result("embedding_lookup", out, (weights, bias), vjp)


def gru_sequence(x: Tensor, h0: Tensor, w: Tensor, u_rz: Tensor, u_h: Tensor, b: Tensor,
                 mask: np.ndarray) -> Tensor:
    """All T steps of one GRU layer as one op; returns every step's state.

    x is (T*B) x n step-major, h0 the B x H initial state, mask (T, B), and
    w, u_rz, u_h, b the stored [W_r|W_z|W_h], [U_r|U_z], U_h and [b_r|b_z|b_h].
    With m the mask entry of a row:

        r = sigmoid(x W_r + h U_r + b_r),  z = sigmoid(x W_z + h U_z + b_z)
        h~ = tanh(x W_h + (r * h) U_h + b_h),  h' = h + (m * z) * (h~ - h)

    so a padded step (m = 0) leaves h bit-unchanged. Only the work that
    depends on the previous step runs inside the step loops (Appleyard et
    al., arXiv:1604.01946): the input projection x w + b runs once for all
    rows, each step adds h u_rz and (r * h) u_h to it in place, and the
    backward pass forms the u gradients as two products over all T*B rows
    after its loop. The pre-activations are checked for non-finite values
    once, after the loop, because sigmoid and tanh would squash an overflow
    into a finite output.
    """
    mask = np.asarray(mask, dtype=np.float64)
    steps, batch = mask.shape
    hidden = h0.shape[1]
    if h0.shape[0] != batch or x.shape[0] != steps * batch:
        raise DimensionError(f"gru_sequence: x {x.shape}, h0 {h0.shape}, mask {mask.shape}")
    if (w.shape != (x.shape[1], 3 * hidden) or u_rz.shape != (hidden, 2 * hidden)
            or u_h.shape != (hidden, hidden) or b.shape != (1, 3 * hidden)):
        raise DimensionError(f"gru_sequence: weight shapes do not match x {x.shape}, h0 {h0.shape}")
    proj = x.data @ w.data
    proj += b.data
    # Every step's pre-activations, r | z and h~, each in its own contiguous
    # buffer and built up in place: numpy's ops on a strided view of the
    # (T, B, 3H) projection cost several times their contiguous form.
    pre_rz = np.ascontiguousarray(proj[:, :2 * hidden]).reshape(steps, batch, 2 * hidden)
    pre_h = np.ascontiguousarray(proj[:, 2 * hidden:]).reshape(steps, batch, hidden)
    m_all = mask[:, :, None]
    # A real step's m * z is z, so those steps skip the multiply.
    unpadded = (mask == 1.0).all(axis=1)
    states = np.empty((steps + 1, batch, hidden))
    states[0] = h0.data
    gates = np.empty((steps, batch, 2 * hidden))  # r | z
    rh = np.empty((steps, batch, hidden))  # r * h, U_h's input
    cand = np.empty((steps, batch, hidden))
    # A non-finite step carries on to the end of the loop, where the check
    # reports it; its arithmetic must not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            h, a_rz, a_h = states[t], pre_rz[t], pre_h[t]
            np.add(a_rz, h @ u_rz.data, out=a_rz)
            gates[t] = _sigmoid(a_rz)
            np.multiply(gates[t, :, :hidden], h, out=rh[t])
            np.add(a_h, rh[t] @ u_h.data, out=a_h)
            np.tanh(a_h, out=cand[t])
            step = np.subtract(cand[t], h, out=states[t + 1])
            step *= gates[t, :, hidden:] if unpadded[t] else m_all[t] * gates[t, :, hidden:]
            step += h
    _check_finite("gru_sequence pre-activation", pre_rz)
    _check_finite("gru_sequence pre-activation", pre_h)

    def vjp(g):
        g = g.reshape(steps, batch, hidden)
        h_prev = states[:-1]
        r, z = np.ascontiguousarray(gates[:, :, :hidden]), gates[:, :, hidden:]
        mz = m_all * z
        # Each step's gradient through a gate is dh times a factor that
        # does not depend on dh: formed here for all T steps at once.
        f_h = mz * (1.0 - cand * cand)
        f_r = h_prev * r * (1.0 - r)
        f_z = m_all * (cand - h_prev) * z * (1.0 - z)
        keep = 1.0 - mz
        d_rz = np.empty((steps, batch, 2 * hidden))
        d_h = np.empty((steps, batch, hidden))
        dh = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            dh += g[t]
            da_h = np.multiply(dh, f_h[t], out=d_h[t])
            d_rh = da_h @ u_h.data.T
            np.multiply(d_rh, f_r[t], out=d_rz[t, :, :hidden])
            np.multiply(dh, f_z[t], out=d_rz[t, :, hidden:])
            dh = dh * keep[t] + d_rh * r[t] + d_rz[t] @ u_rz.data.T
        d_pre = np.concatenate([d_rz, d_h], axis=2).reshape(steps * batch, 3 * hidden)
        return (
            d_pre @ w.data.T if x.requires_grad else None,
            dh if h0.requires_grad else None,
            x.data.T @ d_pre,
            h_prev.reshape(steps * batch, hidden).T @ d_rz.reshape(steps * batch, 2 * hidden),
            rh.reshape(steps * batch, hidden).T @ d_h.reshape(steps * batch, hidden),
            d_pre.sum(axis=0, keepdims=True),
        )

    out = states[1:].reshape(steps * batch, hidden)
    return _result("gru_sequence", out, (x, h0, w, u_rz, u_h, b), vjp)


def masked_attention(states: Tensor, mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over step-major states, as one op.

    The last step's state is the query, so it must be real for every row
    (left padding ensures that). A padded step scores -inf, so its weight
    is exactly 0, and the summary is the weighted sum of the states.
    Returns (summary B x H, weights B x T); the weights are a constant,
    not recorded on the tape.
    """
    mask = np.asarray(mask, dtype=np.float64)
    steps, batch = mask.shape
    hidden = states.shape[1]
    if states.shape[0] != steps * batch:
        raise DimensionError(f"masked_attention: states {states.shape}, mask {mask.shape}")
    if steps == 0 or not (mask[-1] == 1.0).all():
        raise DimensionError("masked_attention: the last step must be real for every row")
    stacked = states.data.reshape(steps, batch, hidden)
    query = stacked[-1]
    inv_sqrt_d = 1.0 / math.sqrt(hidden)
    scores = (stacked * query).sum(axis=2) * inv_sqrt_d
    scores[mask == 0.0] = -np.inf
    e = np.exp(scores - scores.max(axis=0))
    weights = e / e.sum(axis=0)
    summary = (weights[:, :, None] * stacked).sum(axis=0)

    def vjp(g):
        d_states = weights[:, :, None] * g
        d_weights = (stacked * g).sum(axis=2)
        d_scores = weights * (d_weights - (weights * d_weights).sum(axis=0)) * inv_sqrt_d
        d_states += d_scores[:, :, None] * query
        d_states[-1] += (d_scores[:, :, None] * stacked).sum(axis=0)
        return (d_states.reshape(steps * batch, hidden),)

    return _result("masked_attention", summary, (states,), vjp), Tensor(weights.T.copy())


def weighted_bce(y_hat: Tensor, y: np.ndarray, w_pos: float) -> Tensor:
    """-mean(w_pos*y*log(p) + (1-y)*log(1-p)), p clamped to [eps, 1-eps]."""
    y = np.asarray(y, dtype=np.float64).reshape(y_hat.shape)
    p = np.clip(y_hat.data, _EPS_BCE, 1.0 - _EPS_BCE)
    n = p.size
    loss = -(w_pos * y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum() / n

    def vjp(g):
        interior = (y_hat.data > _EPS_BCE) & (y_hat.data < 1.0 - _EPS_BCE)
        d = -(w_pos * y / p - (1.0 - y) / (1.0 - p)) / n
        return (g[0, 0] * d * interior,)

    return _result("weighted_bce", np.array([[loss]]), (y_hat,), vjp)


# ---------------------------------------------------------------------------
# parameter initialization and optimizers
# ---------------------------------------------------------------------------


def init_uniform(shape: tuple[int, int], fan_in: int, rng: Xoshiro256) -> Tensor:
    """uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), drawn in row-major order."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    # tests/reference.py's `ReferenceXoshiro256.uniform(-bound, bound)` per
    # entry: -bound + 2 bound * random().
    data = (-bound + (bound - -bound) * unit_floats(rng.next_u64s(shape[0] * shape[1]))).reshape(shape)
    return Tensor(data, requires_grad=True)


class Sgd:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        for t in self.params.values():
            if t.requires_grad and t._grad is not None:
                t.data -= self.lr * t._grad

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()


class Adam:
    """Adam with bias correction (Kingma & Ba, ICLR 2015).

    The moments of all parameters live in two flat buffers, in the order
    of `params`, so a step is one vectorised update over every gradient
    rather than one per tensor. A frozen parameter, or one with no
    gradient, is skipped: its data and moments stay as they are.
    """

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._edges = np.cumsum([0] + [p.data.size for p in params.values()])
        self._m = np.zeros(self._edges[-1])
        self._v = np.zeros(self._edges[-1])

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        live = [(i, p) for i, p in enumerate(self.params.values()) if p.requires_grad and p._grad is not None]
        if not live:
            return
        g = np.concatenate([p._grad.ravel() for _, p in live])
        m, v, rows = self._m, self._v, None
        if len(live) < len(self.params):
            rows = np.concatenate([np.arange(self._edges[i], self._edges[i + 1]) for i, _ in live])
            m, v = m[rows], v[rows]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        if rows is not None:
            self._m[rows], self._v[rows] = m, v
        update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
        start = 0
        for _, p in live:
            p.data -= update[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()
