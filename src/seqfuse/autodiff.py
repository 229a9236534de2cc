"""Minimal dense-tensor engine with reverse-mode differentiation.

Everything is a 2-D float64 matrix (batch rows x feature columns); vectors
are 1 x n or n x 1. Ops run eagerly on numpy and, when a tape is active and
an input requires grad, append a (output, inputs, vjp) record. `backward`
walks the records in reverse and accumulates gradients with +=, so running
it twice without a grad reset doubles every gradient — callers reset.

Broadcasting is deliberately restricted: `add` accepts a 1 x n row vector
as its second argument (bias); everything else wants exact shapes so
mistakes surface as DimensionError, not silent broadcast.

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

    @property
    def grad(self) -> np.ndarray | None:
        if self._grad is None and self.requires_grad:
            self._grad = np.zeros_like(self.data)
        return self._grad

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
    """Populate .grad for every requires_grad tensor reachable from `loss`.

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _result("matmul", out, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a 1 x n row vector broadcast over a's rows."""
    if a.shape == b.shape:
        def vjp(g):
            return g, g
    elif b.shape == (1, a.shape[1]):
        def vjp(g):
            return g, g.sum(axis=0, keepdims=True)
    else:
        raise DimensionError(f"add: {a.shape} + {b.shape}")
    return _result("add", a.data + b.data, (a, b), vjp)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    if axis not in (0, 1):
        raise DimensionError(f"concat: axis must be 0 or 1, got {axis}")
    other = 1 - axis
    widths = [t.shape[axis] for t in tensors]
    if len({t.shape[other] for t in tensors}) != 1:
        raise DimensionError(
            f"concat: mismatched shapes {[t.shape for t in tensors]} on axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    edges = np.cumsum([0] + widths)

    def vjp(g):
        if axis == 1:
            return tuple(g[:, edges[i]:edges[i + 1]] for i in range(len(tensors)))
        return tuple(g[edges[i]:edges[i + 1], :] for i in range(len(tensors)))

    return _result("concat", out, tuple(tensors), vjp)


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-d)) for d >= 0 and exp(d) / (1 + exp(d)) below, so exp
    # never overflows.
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


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


def embedding_lookup(weights: Tensor, indices: np.ndarray, row_of: np.ndarray, n_rows: int) -> Tensor:
    """Row r of the n_rows-row output is the sum of the `weights` rows
    indices[k] over every k with row_of[k] == r.

    This is the sparse path for multi-hot inputs: equivalent to X @ weights
    for a binary X whose set bits are the (row_of, indices) pairs, without
    densifying X. A row no pair names is zero (a padded step).
    """
    indices = np.asarray(indices, dtype=np.intp)
    row_of = np.asarray(row_of, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= weights.shape[0]):
        raise DimensionError(
            f"embedding_lookup: index out of range for {weights.shape[0]} rows")
    # np.add.at accumulates the pairs in the order given, in the output and
    # in the weight gradient alike.
    out = np.zeros((n_rows, weights.shape[1]))
    np.add.at(out, row_of, weights.data[indices])

    def vjp(g):
        gw = np.zeros_like(weights.data)
        np.add.at(gw, indices, g[row_of])
        return (gw,)

    return _result("embedding_lookup", out, (weights,), vjp)


def gru_sequence(x: Tensor, h0: Tensor, w: tuple[Tensor, Tensor, Tensor],
                 u: tuple[Tensor, Tensor, Tensor], b: tuple[Tensor, Tensor, Tensor],
                 mask: np.ndarray) -> Tensor:
    """All T steps of one GRU layer as one op; returns every step's state.

    x is (T*B) x n step-major, h0 the B x H initial state, w/u/b the
    (r, z, h) input weights, recurrent weights and biases, mask (T, B).
    With m the mask entry of a row:

        r = sigmoid(x W_r + h U_r + b_r),  z = sigmoid(x W_z + h U_z + b_z)
        h~ = tanh(x W_h + (r * h) U_h + b_h),  h' = h + (m * z) * (h~ - h)

    so a padded step (m = 0) leaves h bit-unchanged. The input projection
    x [W_r|W_z|W_h] + b runs once for all rows; each step then multiplies
    by [U_r|U_z] and U_h. The gate pre-activations are checked for
    non-finite values here, because sigmoid and tanh would squash an
    overflow into a finite output.
    """
    mask = np.asarray(mask, dtype=np.float64)
    steps, batch = mask.shape
    hidden = h0.shape[1]
    if h0.shape[0] != batch or x.shape[0] != steps * batch:
        raise DimensionError(f"gru_sequence: x {x.shape}, h0 {h0.shape}, mask {mask.shape}")
    if (any(t.shape != (x.shape[1], hidden) for t in w)
            or any(t.shape != (hidden, hidden) for t in u)
            or any(t.shape != (1, hidden) for t in b)):
        raise DimensionError(f"gru_sequence: weight shapes do not match x {x.shape}, h0 {h0.shape}")
    w_all = np.concatenate([t.data for t in w], axis=1)
    u_rz = np.concatenate([u[0].data, u[1].data], axis=1)
    u_h = u[2].data
    xw = (x.data @ w_all + np.concatenate([t.data for t in b], axis=1)).reshape(steps, batch, 3 * hidden)
    _check_finite("gru_sequence input projection", xw)
    states = np.empty((steps + 1, batch, hidden))
    states[0] = h0.data
    gates = np.empty((steps, batch, 2 * hidden))  # r | z
    cand = np.empty((steps, batch, hidden))
    pre = np.empty((batch, 3 * hidden))
    for t in range(steps):
        h = states[t]
        np.add(xw[t, :, :2 * hidden], h @ u_rz, out=pre[:, :2 * hidden])
        gates[t] = _sigmoid(pre[:, :2 * hidden])
        r = gates[t, :, :hidden]
        np.add(xw[t, :, 2 * hidden:], (r * h) @ u_h, out=pre[:, 2 * hidden:])
        _check_finite("gru_sequence pre-activation", pre)
        cand[t] = np.tanh(pre[:, 2 * hidden:])
        states[t + 1] = h + (mask[t][:, None] * gates[t, :, hidden:]) * (cand[t] - h)

    def vjp(g):
        g = g.reshape(steps, batch, hidden)
        d_pre = np.empty((steps, batch, 3 * hidden))
        d_u_rz = np.zeros_like(u_rz)
        d_u_h = np.zeros_like(u_h)
        dh = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            dh = dh + g[t]
            h = states[t]
            r, z, c = gates[t, :, :hidden], gates[t, :, hidden:], cand[t]
            m = mask[t][:, None]
            da_h = dh * m * z * (1.0 - c * c)
            d_rh = da_h @ u_h.T
            d_u_h += (r * h).T @ da_h
            d_pre[t, :, :hidden] = d_rh * h * r * (1.0 - r)
            d_pre[t, :, hidden:2 * hidden] = dh * m * (c - h) * z * (1.0 - z)
            d_pre[t, :, 2 * hidden:] = da_h
            d_rz = d_pre[t, :, :2 * hidden]
            d_u_rz += h.T @ d_rz
            dh = dh * (1.0 - m * z) + d_rh * r + d_rz @ u_rz.T
        d_pre = d_pre.reshape(steps * batch, 3 * hidden)
        d_w = x.data.T @ d_pre
        d_b = d_pre.sum(axis=0, keepdims=True)
        cols = [slice(k * hidden, (k + 1) * hidden) for k in range(3)]
        return (
            d_pre @ w_all.T if x.requires_grad else None,
            dh if h0.requires_grad else None,
            *(d_w[:, c] for c in cols),
            d_u_rz[:, cols[0]], d_u_rz[:, cols[1]], d_u_h,
            *(d_b[:, c] for c in cols),
        )

    out = states[1:].reshape(steps * batch, hidden)
    return _result("gru_sequence", out, (x, h0, *w, *u, *b), vjp)


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


def weighted_bce(y_hat: Tensor, y: np.ndarray, w_pos: float = 1.0, w_neg: float = 1.0) -> Tensor:
    """-mean(w_pos*y*log(p) + w_neg*(1-y)*log(1-p)), p clamped to [eps, 1-eps]."""
    y = np.asarray(y, dtype=np.float64).reshape(y_hat.shape)
    p = np.clip(y_hat.data, _EPS_BCE, 1.0 - _EPS_BCE)
    n = p.size
    loss = -(w_pos * y * np.log(p) + w_neg * (1.0 - y) * np.log1p(-p)).sum() / n

    def vjp(g):
        interior = (y_hat.data > _EPS_BCE) & (y_hat.data < 1.0 - _EPS_BCE)
        d = -(w_pos * y / p - w_neg * (1.0 - y) / (1.0 - p)) / n
        return (g[0, 0] * d * interior,)

    return _result("weighted_bce", np.array([[loss]]), (y_hat,), vjp)


# ---------------------------------------------------------------------------
# parameter initialization and optimizers
# ---------------------------------------------------------------------------


def init_uniform(shape: tuple[int, int], fan_in: int, rng: Xoshiro256) -> Tensor:
    """uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), drawn in row-major order."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    # `rng.uniform(-bound, bound)` per entry: -bound + 2 bound * random().
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
    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self._v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if not p.requires_grad or p._grad is None:
                continue
            g = p._grad
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()
