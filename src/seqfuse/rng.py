"""Deterministic pseudo-random numbers for every stochastic step in the pipeline.

The generator is xoshiro256** seeded through splitmix64, so a (seed, label)
pair maps to the same stream on any platform and any numpy/BLAS build.  All
modules that need randomness take an explicit seed and construct their own
`Xoshiro256` locally; nothing reads global RNG state.

`Xoshiro256Lanes` steps many such streams side by side in numpy, one lane
per stream, each lane equal draw for draw to its scalar `Xoshiro256`; the
synthetic generator draws every patient of a chunk through it, with the
seeds `derive_seeds` folds in numpy.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# Draws a `Xoshiro256Lanes` block grows by, for all lanes at once, when a
# lane runs past it. At the default 6 claims per patient a synthetic
# patient takes 131 draws on average (p99 about 225, the most under 300 in
# a chunk of 8,192 patients at seeds 7 and 20110901), so a chunk's block
# ends at 384 draws, 24 MiB; it grows with `mean_claims_per_patient`.
_BLOCK_DRAWS = 128


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _fold(state: int, label: object) -> int:
    """One label of `derive_seed` folded into a splitmix64 state."""
    if isinstance(label, int):
        tag, data = 0x01, label.to_bytes(16, "little", signed=True)
    else:
        tag, data = 0x02, str(label).encode("utf-8")
    # Tag and length keep label boundaries significant, so
    # ("ab",) and ("a", "b") land in different streams.
    _, state = splitmix64(state ^ tag)
    _, state = splitmix64(state ^ len(data))
    for byte in data:
        _, state = splitmix64(state ^ byte)
    return state


def derive_seed(root: int, *labels: object) -> int:
    """Fold string/int labels into a root seed to get independent substreams.

    Used to hand each pipeline stage, patient, or grid trial its own stream:
    `derive_seed(seed, "train", config_hash)`.  Stable across runs and
    machines; labels are hashed bytewise, not via Python's salted hash().
    """
    state = root & _MASK64
    for label in labels:
        state = _fold(state, label)
    state, out = splitmix64(state)
    return out


def derive_seeds(root: int, label: str, ids: np.ndarray) -> np.ndarray:
    """`derive_seed(root, label, i)` for each int64 `i` of `ids`, as uint64.

    The shared label is folded once in Python; the ints' 16 little-endian
    two's-complement bytes are folded over all of them in numpy."""
    ids = np.asarray(ids, dtype=np.int64)
    state = np.full(len(ids), _fold(root & _MASK64, label), dtype=np.uint64)
    low, high = ids.astype(np.uint64), np.where(ids < 0, np.uint64(0xFF), np.uint64(0))
    _, state = _np_splitmix64(state ^ np.uint64(0x01))
    _, state = _np_splitmix64(state ^ np.uint64(16))
    for k in range(16):
        byte = (low >> np.uint64(8 * k)) & np.uint64(0xFF) if k < 8 else high
        _, state = _np_splitmix64(state ^ byte)
    _, out = _np_splitmix64(state)
    return out


def _highest_accepted(n: np.ndarray) -> np.ndarray:
    """The highest draw `randint` accepts for a range of n values (uint64,
    n >= 1): 2**64 - 2**64 % n - 1, in uint64 arithmetic that cannot
    overflow."""
    return np.uint64(_MASK64) - (np.uint64(_MASK64) - n + np.uint64(1)) % n


def unit_floats(words: np.ndarray) -> np.ndarray:
    """uint64 words as doubles in [0, 1): each word's top 53 bits over
    2**53."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _np_splitmix64(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`splitmix64` over a uint64 array. Every operand is uint64, so numpy
    1.x and 2.x (NEP 50) type the results alike, and products wrap."""
    state = state + np.uint64(0x9E3779B97F4A7C15)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return state, z ^ (z >> np.uint64(31))


class Xoshiro256:
    """xoshiro256** with the draws the package takes from one stream:
    blocks of words, bounded integers and shuffles. The scalar word and the
    scalar conversions that only tests draw through (`next_u64`, `random`,
    `randint`, `bernoulli`, `choice`, `poisson`, `uniform`, `normal`) live
    in tests/reference.py's `ReferenceXoshiro256`.

    A stream is exact integer arithmetic, so it is byte-for-byte
    reproducible everywhere, which the artifact contracts (identical
    outputs for identical seeds) care about more than speed.
    """

    def __init__(self, seed: int):
        state = seed & _MASK64
        self._s = []
        for _ in range(4):
            state, out = splitmix64(state)
            self._s.append(out)

    def next_u64s(self, k: int) -> np.ndarray:
        """The stream's next k xoshiro256** words as a uint64 array, stepped
        with the state held in locals."""
        s0, s1, s2, s3 = self._s
        out = [0] * k
        for i in range(k):
            r = (s1 * 5) & _MASK64
            out[i] = ((((r << 7) | (r >> 57)) & _MASK64) * 9) & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        return np.array(out, dtype=np.uint64)

    def randints(self, sizes: np.ndarray) -> np.ndarray:
        """A uniform integer in [0, n) for each n of `sizes` in turn, as
        uint64, from one `next_u64s` block; an n of 0 stands for 2**64 and
        takes the raw word. Each draw is rejection-sampled: a word above the
        highest multiple of n below 2**64 is redrawn. A rejected word
        (probability about n / 2**64) shifts every later draw, so from the
        first one the stream is replayed one draw at a time."""
        sizes = np.asarray(sizes, dtype=np.uint64)
        raw = sizes == 0
        n = np.where(raw, np.uint64(1), sizes)
        top = np.where(raw, np.uint64(_MASK64), _highest_accepted(n))
        state = list(self._s)
        u = self.next_u64s(len(sizes))
        rejected = np.flatnonzero(u > top)
        if rejected.size:
            first = int(rejected[0])
            self._s = state
            self.next_u64s(first)
            for i in range(first, len(sizes)):
                word, highest = int(self.next_u64s(1)[0]), int(top[i])
                while word > highest:
                    word = int(self.next_u64s(1)[0])
                u[i] = word
        return np.where(raw, u, u % n)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the last item down: item i swaps with item
        randint(0, i)."""
        stops = range(len(items) - 1, 0, -1)
        swaps = self.randints(np.arange(len(items), 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(stops, swaps):
            items[i], items[j] = items[j], items[i]


class Xoshiro256Lanes:
    """Many xoshiro256** streams stepped side by side in numpy uint64, one
    lane per seed, each lane equal draw for draw to `Xoshiro256(seed)`,
    and conversion for conversion to tests/reference.py's
    `ReferenceXoshiro256(seed)` (vectorised independent streams, as in
    Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).

    The streams' draws are precomputed as a `(lanes, draws)` block, and each
    lane reads it at its own cursor. Every conversion takes an index array
    of the active lanes, draws for those lanes only and advances only their
    cursors, so lanes may take different paths through a program. When a
    lane runs past the block, all lanes extend it by `_BLOCK_DRAWS` more
    steps from the state the block ended in. Every operand is uint64, so
    numpy 1.x and 2.x (NEP 50) give the same values.
    """

    def __init__(self, seeds):
        if not isinstance(seeds, np.ndarray):
            seeds = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)
        state, self._s = seeds.astype(np.uint64), []
        for _ in range(4):
            state, out = _np_splitmix64(state)
            self._s.append(out)
        # Stored (draws, lanes), so each step writes one contiguous row.
        self._block = np.empty((0, len(seeds)), dtype=np.uint64)
        self._cursor = np.zeros(len(seeds), dtype=np.int64)
        # An upper bound on every cursor: no lane moves more than once a call.
        self._bound = 0

    def _extend(self) -> None:
        s0, s1, s2, s3 = self._s
        rows = np.empty((_BLOCK_DRAWS, len(s0)), dtype=np.uint64)
        t = np.empty_like(s0)
        for row in rows:
            # row = rotl(s1 * 5, 7) * 9, then the state steps; all in place.
            np.multiply(s1, np.uint64(5), out=row)
            np.left_shift(row, np.uint64(7), out=t)
            row >>= np.uint64(57)
            row |= t
            row *= np.uint64(9)
            np.left_shift(s1, np.uint64(17), out=t)
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            np.left_shift(s3, np.uint64(45), out=t)
            s3 >>= np.uint64(19)
            s3 |= t
        self._block = np.concatenate([self._block, rows])

    def next_u64(self, lanes: np.ndarray) -> np.ndarray:
        self._bound += 1
        if self._bound > len(self._block):
            self._bound = int(self._cursor.max(initial=0)) + 1
            while self._bound > len(self._block):
                self._extend()
        cursor = self._cursor[lanes]
        self._cursor[lanes] = cursor + 1
        return self._block.ravel()[cursor * len(self._cursor) + lanes]

    def random(self, lanes: np.ndarray) -> np.ndarray:
        return unit_floats(self.next_u64(lanes))

    def randint(self, lanes: np.ndarray, lo, hi) -> np.ndarray:
        """The scalar `randint` per lane, over a range narrower than 2**64:
        the bounds are ints or int64 arrays with one per lane, and each lane
        redraws until its own draw is accepted. Values are int64, or uint64
        when `hi` is an int above the int64 range."""
        lo, hi = np.asarray(lo), np.asarray(hi)
        if (hi < lo).any():
            raise ValueError("empty randint range")
        n = hi.astype(np.uint64) - lo.astype(np.uint64) + np.uint64(1)
        top = _highest_accepted(n)
        u = self.next_u64(lanes)
        rejected = u > top
        if rejected.any():
            top = np.broadcast_to(top, u.shape)
            redraw = np.flatnonzero(rejected)
            while redraw.size:
                u[redraw] = self.next_u64(lanes[redraw])
                redraw = redraw[u[redraw] > top[redraw]]
        if hi.dtype == np.uint64:
            return lo.astype(np.uint64) + u % n
        return lo + (u % n).astype(np.int64)

    def bernoulli(self, lanes: np.ndarray, p) -> np.ndarray:
        return self.random(lanes) < p

    def choice(self, lanes: np.ndarray, seq) -> np.ndarray:
        seq = np.asarray(seq)
        return seq[self.randint(lanes, 0, len(seq) - 1)]

    def poisson(self, lanes: np.ndarray, lam: float) -> np.ndarray:
        """The scalar `poisson` per lane: each lane multiplies its own
        uniforms until the product falls to exp(-lam)."""
        if lam <= 0.0:
            raise ValueError("poisson rate must be > 0")
        limit = math.exp(-lam)
        k = np.zeros(len(lanes), dtype=np.int64)
        p = np.ones(len(lanes))
        live = np.arange(len(lanes))
        while live.size:
            p[live] *= self.random(lanes[live])
            live = live[p[live] > limit]
            k[live] += 1
        return k
