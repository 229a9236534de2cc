"""Deterministic pseudo-random numbers for every stochastic step in the pipeline.

The generator is xoshiro256** seeded through splitmix64, so a (seed, label)
pair maps to the same stream on any platform and any numpy/BLAS build.  All
modules that need randomness take an explicit seed and construct their own
`Xoshiro256` locally; nothing reads global RNG state.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
# `Xoshiro256.streams` steps up to `_LOCKSTEP_STREAMS` streams together for
# their first `_BLOCK_DRAWS` draws; its numpy block arrays hold 2 * 8 bytes
# per stream and draw, so about 4 MiB. A synthetic patient takes at most
# about 255 draws (mean 133), so few streams step on past their block.
_LOCKSTEP_STREAMS = 1024
_BLOCK_DRAWS = 256


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(root: int, *labels: object) -> int:
    """Fold string/int labels into a root seed to get independent substreams.

    Used to hand each pipeline stage, patient, or grid trial its own stream:
    `derive_seed(seed, "train", config_hash)`.  Stable across runs and
    machines; labels are hashed bytewise, not via Python's salted hash().
    """
    state = root & _MASK64
    for label in labels:
        if isinstance(label, int):
            tag, data = 0x01, label.to_bytes(16, "little", signed=True)
        else:
            tag, data = 0x02, str(label).encode("utf-8")
        # Tag and length keep label boundaries significant, so
        # ("ab",) and ("a", "b") land in different streams.
        state, _ = splitmix64(state ^ tag)
        state, _ = splitmix64(state ^ len(data))
        for byte in data:
            state, _ = splitmix64(state ^ byte)
    state, out = splitmix64(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _np_splitmix64(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`splitmix64` over a uint64 array. Every operand is uint64, so numpy
    1.x and 2.x (NEP 50) type the results alike, and products wrap."""
    state = state + np.uint64(0x9E3779B97F4A7C15)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return state, z ^ (z >> np.uint64(31))


def _np_rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


class Xoshiro256:
    """xoshiro256** with the usual conversions (uniform, normal, poisson...).

    A stream is exact integer arithmetic, so it is byte-for-byte
    reproducible everywhere, which the artifact contracts (identical
    outputs for identical seeds) care about more than speed. One stream
    steps in plain Python; `streams` steps many in numpy at once for their
    first draws, with the same values.
    """

    def __init__(self, seed: int):
        state = seed & _MASK64
        self._s = []
        for _ in range(4):
            state, out = splitmix64(state)
            self._s.append(out)
        self._spare_normal: float | None = None
        # Precomputed draws (see `streams`), handed out before `_s` steps.
        self._block: list[int] = []
        self._block_f: list[float] = []
        self._pos = self._end = 0

    @classmethod
    def streams(cls, seeds: Iterable[int]) -> Iterator["Xoshiro256"]:
        """One stream per seed, in order, each equal draw for draw to
        `Xoshiro256(seed)`.

        The streams are seeded and stepped side by side in numpy uint64
        for their first `_BLOCK_DRAWS` draws, in groups of `_LOCKSTEP_STREAMS`
        (vectorised independent streams, as in Salmon et al., "Parallel
        random numbers: as easy as 1, 2, 3", SC 2011). A stream hands out
        its block, u64 values and the matching `random()` floats, and then
        steps on alone from the state the block ended in.
        """
        seeds = iter(seeds)
        block = _BLOCK_DRAWS
        while group := [seed & _MASK64 for seed in itertools.islice(seeds, _LOCKSTEP_STREAMS)]:
            state = np.array(group, dtype=np.uint64)
            s = []
            for _ in range(4):
                state, out = _np_splitmix64(state)
                s.append(out)
            s0, s1, s2, s3 = s
            draws = np.empty((len(group), block), dtype=np.uint64)
            for k in range(block):
                draws[:, k] = _np_rotl(s1 * np.uint64(5), 7) * np.uint64(9)
                t = s1 << np.uint64(17)
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = _np_rotl(s3, 45)
            floats = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53
            ends = np.stack([s0, s1, s2, s3], axis=1).tolist()
            for j, end in enumerate(ends):
                gen = cls.__new__(cls)
                gen._s = end
                gen._spare_normal = None
                gen._block = draws[j].tolist()
                gen._block_f = floats[j].tolist()
                gen._pos, gen._end = 0, block
                yield gen

    def next_u64(self) -> int:
        pos = self._pos
        if pos < self._end:
            self._pos = pos + 1
            return self._block[pos]
        return self._step()

    def _step(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        pos = self._pos
        if pos < self._end:
            self._pos = pos + 1
            return self._block_f[pos]
        return (self._step() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled so it is unbiased."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        n = hi - lo + 1
        limit = _TWO64 - _TWO64 % n
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % n

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, order randomized (partial Fisher-Yates)."""
        if k > len(seq):
            raise ValueError(f"sample of {k} from {len(seq)} items")
        pool = list(seq)
        for i in range(k):
            j = self.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller, caching the spare deviate."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return mu + sigma * z
        while True:
            u1 = self.random()
            if u1 > 0.0:
                break
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)

    def poisson(self, lam: float) -> int:
        """Knuth's product method; fine for the small rates used here."""
        if lam <= 0.0:
            raise ValueError("poisson rate must be > 0")
        limit = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.random()
            if p <= limit:
                return k
            k += 1
