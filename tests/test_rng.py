"""Generator correctness: reference vectors, an independent recurrence
oracle, distribution sanity for the conversion helpers, and lockstep
streams equal to scalar ones."""

import math

import numpy as np
import pytest

from seqfuse import rng
from seqfuse.rng import Xoshiro256, Xoshiro256Lanes, derive_seed, derive_seeds, splitmix64
from seqfuse.training import config_hash
from tests.reference import ReferenceXoshiro256

_MASK = (1 << 64) - 1


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


def _xoshiro_oracle(state, n):
    """Straight transcription of the xoshiro256** recurrence, kept separate
    from the implementation under test on purpose."""
    s0, s1, s2, s3 = state
    out = []
    for _ in range(n):
        out.append((_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK)
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
    return out


class TestSplitmix:
    def test_reference_vector(self):
        # First three outputs for seed 0, as published for splitmix64.
        state, o1 = splitmix64(0)
        state, o2 = splitmix64(state)
        state, o3 = splitmix64(state)
        assert o1 == 0xE220A8397B1DCDAF
        assert o2 == 0x6E789E6AA1B965F4
        assert o3 == 0x06C45D188009454F

    def test_state_wraps_at_64_bits(self):
        state, out = splitmix64(_MASK)
        assert 0 <= state <= _MASK
        assert 0 <= out <= _MASK


class TestDeriveSeed:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_int_and_str_labels_are_distinct_spaces(self):
        assert derive_seed(5, 12) != derive_seed(5, "12")

    def test_frozen_values(self):
        # Pinned so a refactor cannot silently reshuffle every experiment.
        assert derive_seed(0) == 16294208416658607535
        assert derive_seed(7, "patient", 3) == 15588025077717153952

    @pytest.mark.parametrize("root", [7, 20110901])
    def test_patient_labels_give_distinct_seeds(self, root):
        # Chaining splitmix64's state instead of its output collides here:
        # 513 distinct seeds for 100,000 patients.
        assert len(np.unique(derive_seeds(root, "patient", np.arange(10**5)))) == 10**5

    def test_trial_hash_labels_give_distinct_seeds(self):
        # The labels grid_search folds in: 16 hex digits of each trial's config hash.
        base = derive_seed(20110901, "readmission/early_fusion__linear")
        hashes = [config_hash({"trial": i}) for i in range(10**5)]
        assert len({derive_seed(base, "trial", h) for h in hashes}) == 10**5


class TestXoshiroStream:
    def test_matches_recurrence_oracle(self):
        gen, scalar = Xoshiro256(42), ReferenceXoshiro256(42)
        expected = _xoshiro_oracle(list(gen._s), 1000)
        assert gen.next_u64s(1000).tolist() == expected
        assert [scalar.next_u64() for _ in range(1000)] == expected

    def test_same_seed_same_stream(self):
        a = Xoshiro256(9)
        b = ReferenceXoshiro256(9)
        assert a.next_u64s(50).tolist() == [b.next_u64() for _ in range(50)]

    def test_different_seeds_diverge(self):
        a = ReferenceXoshiro256(1)
        b = ReferenceXoshiro256(2)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


class TestConversions:
    def test_random_unit_interval(self):
        gen = ReferenceXoshiro256(3)
        xs = [gen.random() for _ in range(20000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.01

    def test_randint_hits_all_values_unbiased(self):
        gen = ReferenceXoshiro256(4)
        counts = [0] * 6
        n = 60000
        for _ in range(n):
            counts[gen.randint(0, 5)] += 1
        assert min(counts) > 0
        for c in counts:
            assert abs(c - n / 6) < 5 * math.sqrt(n / 6)

    def test_randint_bounds_inclusive(self):
        gen = ReferenceXoshiro256(5)
        values = {gen.randint(2, 3) for _ in range(200)}
        assert values == {2, 3}
        assert gen.randint(7, 7) == 7
        with pytest.raises(ValueError):
            gen.randint(3, 2)

    def test_shuffle_is_a_permutation(self):
        gen = Xoshiro256(6)
        items = list(range(100))
        shuffled = list(items)
        gen.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items

    def test_normal_moments(self):
        gen = ReferenceXoshiro256(8)
        xs = [gen.normal(2.0, 3.0) for _ in range(40000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert abs(mean - 2.0) < 0.05
        assert abs(var - 9.0) < 0.3

    def test_poisson_moments(self):
        gen = ReferenceXoshiro256(10)
        xs = [gen.poisson(2.2) for _ in range(30000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert abs(mean - 2.2) < 0.05
        assert abs(var - 2.2) < 0.15
        assert all(isinstance(x, int) and x >= 0 for x in xs)

    def test_bernoulli_rate(self):
        gen = ReferenceXoshiro256(11)
        hits = sum(gen.bernoulli(0.3) for _ in range(30000))
        assert abs(hits / 30000 - 0.3) < 0.01


def _lane_pass(lanes_rng, lanes, hi):
    """One pass through each lockstep conversion for `lanes`, with
    per-lane randint bounds `hi`; randint over three quarters of 2**64
    rejects about a quarter of its draws. One list per lane."""
    draws = [
        lanes_rng.random(lanes),
        lanes_rng.randint(lanes, 0, 5),
        lanes_rng.randint(lanes, 0, 3 * 2**62),
        lanes_rng.randint(lanes, 2, hi + 2),
        lanes_rng.randint(lanes, hi, 40),
        lanes_rng.choice(lanes, list("abcdefg")),
        lanes_rng.poisson(lanes, 2.2),
        lanes_rng.bernoulli(lanes, 0.3),
        lanes_rng.next_u64(lanes),
    ]
    return [list(row) for row in zip(*(column.tolist() for column in draws))]


def _scalar_pass(gen, hi):
    """`_lane_pass` of one lane, drawn from its scalar stream."""
    return [
        gen.random(),
        gen.randint(0, 5),
        gen.randint(0, 3 * 2**62),
        gen.randint(2, hi + 2),
        gen.randint(hi, 40),
        gen.choice("abcdefg"),
        gen.poisson(2.2),
        gen.bernoulli(0.3),
        gen.next_u64(),
    ]


def _scalar_randints(gen, sizes):
    """`Xoshiro256.randints` drawn one `ReferenceXoshiro256` call at a time."""
    return [gen.next_u64() if n == 0 else gen.randint(0, n - 1) for n in sizes]


_BLOCK_SEEDS = [derive_seed(17, "block", i) for i in range(60)]


@pytest.mark.filterwarnings("error")
class TestBlockDraws:
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 1001])
    def test_words_equal_scalar_draws_and_leave_the_same_state(self, k):
        for seed in _BLOCK_SEEDS:
            block, scalar = Xoshiro256(seed), ReferenceXoshiro256(seed)
            words = block.next_u64s(k)
            assert words.dtype == np.uint64 and words.shape == (k,)
            assert words.tolist() == [scalar.next_u64() for _ in range(k)]
            assert block._s == scalar._s

    @pytest.mark.parametrize("k", [0, 1, 3, 301])
    def test_randints_equal_scalar_randint(self, k):
        for seed in _BLOCK_SEEDS:
            pool = [0, 1, 2, 5, 97, 2**32 + 1, 2**64 - 1, 3 * 2**62]
            sizes = [pool[(seed + i) % len(pool)] for i in range(k)]
            block, scalar = Xoshiro256(seed), ReferenceXoshiro256(seed)
            got = block.randints(np.array(sizes, dtype=np.uint64))
            assert got.dtype == np.uint64
            assert got.tolist() == _scalar_randints(scalar, sizes)
            assert block._s == scalar._s

    @pytest.mark.parametrize("k", [1, 2, 51])
    def test_a_range_that_rejects_half_its_draws(self, k):
        # randint(0, 2**63) accepts a draw below 2**63 + 1 only.
        rejected = 0
        for seed in _BLOCK_SEEDS:
            block, scalar = Xoshiro256(seed), ReferenceXoshiro256(seed)
            words = []
            step = scalar.next_u64
            scalar.next_u64 = lambda: words.append(step()) or words[-1]
            got = block.randints(np.full(k, 2**63 + 1, dtype=np.uint64))
            assert got.tolist() == [scalar.randint(0, 2**63) for _ in range(k)]
            assert block._s == scalar._s
            rejected += len(words) - k
        assert rejected > 0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 257])
    def test_shuffle_is_the_scalar_fisher_yates(self, n):
        for seed in _BLOCK_SEEDS:
            gen, scalar = Xoshiro256(seed), ReferenceXoshiro256(seed)
            items, expected = [f"p{i}" for i in range(n)], [f"p{i}" for i in range(n)]
            gen.shuffle(items)
            for i in range(n - 1, 0, -1):
                j = scalar.randint(0, i)
                expected[i], expected[j] = expected[j], expected[i]
            assert items == expected
            assert gen._s == scalar._s


# A uint64 scalar that overflows, or a uint64 operand promoted to float,
# warns; as errors, they fail these tests.
@pytest.mark.filterwarnings("error")
class TestBulkStreams:
    def test_equal_to_scalar_streams_over_many_seeds(self, monkeypatch):
        # More lanes than one block holds draws for, plus seeds that need masking.
        monkeypatch.setattr(rng, "_BLOCK_DRAWS", 16)
        seeds = [derive_seed(11, "bulk", i) for i in range(1100)] + [0, _MASK, -1, 1 << 70]
        lanes_rng = Xoshiro256Lanes(seeds)
        scalars = [ReferenceXoshiro256(seed) for seed in seeds]
        every = np.arange(len(seeds))
        assert len(_lane_pass(Xoshiro256Lanes(seeds), every, every % 11)) == len(seeds)
        # Some passes leave lanes out, so the lanes' cursors part.
        for lanes in (every, every[::3], every, every[every % 5 != 2], every):
            hi = lanes % 11
            for lane, got, bound in zip(lanes.tolist(), _lane_pass(lanes_rng, lanes, hi), hi.tolist()):
                assert got == _scalar_pass(scalars[lane], bound), seeds[lane]

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_draws_past_the_block_continue_bit_for_bit(self, block, monkeypatch):
        monkeypatch.setattr(rng, "_BLOCK_DRAWS", block)
        seeds = [derive_seed(12, "short", i) for i in range(40)]
        lanes_rng = Xoshiro256Lanes(seeds)
        every = np.arange(len(seeds))
        draws = [lanes_rng.next_u64(every) for _ in range(block + 20)]
        for lane, seed in enumerate(seeds):
            scalar = ReferenceXoshiro256(seed)
            expected = [scalar.next_u64() for _ in range(block + 20)]
            assert [column[lane] for column in draws] == expected
            assert _lane_pass(lanes_rng, every[lane : lane + 1], every[lane : lane + 1]) == [_scalar_pass(scalar, lane)]

    def test_lane_cursors_are_independent(self, monkeypatch):
        # Drawing for one lane leaves the others where they were.
        monkeypatch.setattr(rng, "_BLOCK_DRAWS", 4)
        seeds = [derive_seed(13, "cursor", i) for i in range(3)]
        lanes_rng = Xoshiro256Lanes(seeds)
        first = lanes_rng.next_u64(np.array([1]))
        for _ in range(9):
            lanes_rng.next_u64(np.array([0, 2]))
        second = lanes_rng.next_u64(np.array([1]))
        scalar = ReferenceXoshiro256(seeds[1])
        assert first.tolist() + second.tolist() == [scalar.next_u64(), scalar.next_u64()]

    @pytest.mark.parametrize("lo, hi", [(0, 2), (5, 9), (0, 3 * 2**62)])
    def test_rejection_threshold_as_scalar(self, lo, hi):
        # The highest accepted draw and its neighbours, which random draws
        # almost never hit: each lane rejects exactly what the scalar does.
        n = hi - lo + 1
        top = 2**64 - 2**64 % n - 1
        draws = [top + 1, top, top - 1, _MASK, 5, top + 1, 0] + [7] * 10
        scalar = ReferenceXoshiro256(0)
        scalar.next_u64 = iter(draws).__next__
        lanes_rng = Xoshiro256Lanes([0])
        lanes_rng._block = np.array(draws, dtype=np.uint64)[:, None]
        lane = np.array([0])
        assert [lanes_rng.randint(lane, lo, hi).tolist() for _ in range(4)] == [[scalar.randint(lo, hi)] for _ in range(4)]

    def test_empty_range_rejected(self):
        lanes_rng = Xoshiro256Lanes([1, 2])
        with pytest.raises(ValueError):
            lanes_rng.randint(np.arange(2), np.array([0, 3]), np.array([0, 2]))
        with pytest.raises(ValueError):
            lanes_rng.poisson(np.arange(2), 0.0)

    @pytest.mark.parametrize("root", [7, 20110901])
    def test_numpy_seed_fold_equals_derive_seed(self, root):
        ids = np.arange(10**5)
        assert derive_seeds(root, "patient", ids).tolist() == [derive_seed(root, "patient", i) for i in range(10**5)]
        negative = np.array([-1, -(2**63), 2**63 - 1])
        assert derive_seeds(root, "trial", negative).tolist() == [derive_seed(root, "trial", int(i)) for i in negative]
