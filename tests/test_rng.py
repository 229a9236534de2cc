"""Generator correctness: reference vectors, an independent recurrence
oracle, and distribution sanity for the conversion helpers."""

import math

import pytest

from seqfuse import rng
from seqfuse.rng import Xoshiro256, derive_seed, splitmix64

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
        assert derive_seed(7, "patient", 3) == 5561203536658315386


class TestXoshiroStream:
    def test_matches_recurrence_oracle(self):
        gen = Xoshiro256(42)
        expected = _xoshiro_oracle(list(gen._s), 1000)
        assert [gen.next_u64() for _ in range(1000)] == expected

    def test_same_seed_same_stream(self):
        a = Xoshiro256(9)
        b = Xoshiro256(9)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_diverge(self):
        a = Xoshiro256(1)
        b = Xoshiro256(2)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


class TestConversions:
    def test_random_unit_interval(self):
        gen = Xoshiro256(3)
        xs = [gen.random() for _ in range(20000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.01

    def test_randint_hits_all_values_unbiased(self):
        gen = Xoshiro256(4)
        counts = [0] * 6
        n = 60000
        for _ in range(n):
            counts[gen.randint(0, 5)] += 1
        assert min(counts) > 0
        for c in counts:
            assert abs(c - n / 6) < 5 * math.sqrt(n / 6)

    def test_randint_bounds_inclusive(self):
        gen = Xoshiro256(5)
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

    def test_sample_distinct(self):
        gen = Xoshiro256(7)
        picked = gen.sample(range(50), 10)
        assert len(set(picked)) == 10
        assert all(0 <= p < 50 for p in picked)
        with pytest.raises(ValueError):
            gen.sample(range(3), 4)

    def test_normal_moments(self):
        gen = Xoshiro256(8)
        xs = [gen.normal(2.0, 3.0) for _ in range(40000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert abs(mean - 2.0) < 0.05
        assert abs(var - 9.0) < 0.3

    def test_poisson_moments(self):
        gen = Xoshiro256(10)
        xs = [gen.poisson(2.2) for _ in range(30000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert abs(mean - 2.2) < 0.05
        assert abs(var - 2.2) < 0.15
        assert all(isinstance(x, int) and x >= 0 for x in xs)

    def test_bernoulli_rate(self):
        gen = Xoshiro256(11)
        hits = sum(gen.bernoulli(0.3) for _ in range(30000))
        assert abs(hits / 30000 - 0.3) < 0.01


def _draw_through_every_conversion(gen):
    """One pass through each conversion; randint over three quarters of
    2**64 rejects about a quarter of its draws."""
    items = list(range(12))
    gen.shuffle(items)
    return [
        gen.random(),
        gen.randint(0, 5),
        gen.randint(0, 3 * 2**62),
        gen.choice("abcdefg"),
        gen.normal(),
        gen.normal(1.0, 2.0),
        gen.normal(),
        gen.poisson(2.2),
        gen.sample(range(30), 6),
        items,
        gen.bernoulli(0.3),
        gen.next_u64(),
    ]


class TestBulkStreams:
    def test_equal_to_scalar_streams_over_many_seeds(self):
        # More seeds than one lock-step group, plus seeds that need masking.
        seeds = [derive_seed(11, "bulk", i) for i in range(1100)] + [0, _MASK, -1, 1 << 70]
        streams = Xoshiro256.streams(seeds)
        for seed, bulk in zip(seeds, streams):
            scalar = Xoshiro256(seed)
            for _ in range(3):
                assert _draw_through_every_conversion(bulk) == _draw_through_every_conversion(scalar), seed
        assert next(streams, None) is None

    @pytest.mark.parametrize("block", [1, 7, rng._BLOCK_DRAWS])
    def test_draws_past_the_block_continue_bit_for_bit(self, block, monkeypatch):
        monkeypatch.setattr(rng, "_BLOCK_DRAWS", block)
        seeds = [derive_seed(12, "short", i) for i in range(40)]
        for seed, bulk in zip(seeds, Xoshiro256.streams(seeds)):
            scalar = Xoshiro256(seed)
            assert [bulk.next_u64() for _ in range(block + 20)] == [scalar.next_u64() for _ in range(block + 20)]
            assert _draw_through_every_conversion(bulk) == _draw_through_every_conversion(scalar)
            assert bulk._s == scalar._s
