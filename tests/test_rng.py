"""Tests for repro.rng — seeded stream management."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import (
    choice_excluding,
    derive_seed,
    make_rng,
    random_permutation,
    spawn_streams,
)


class TestMakeRng:
    def test_int_seed_is_deterministic(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 10**9)
        b = make_rng(2).integers(0, 10**9)
        assert a != b

    def test_none_seed_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert make_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        rng = make_rng(seq)
        assert isinstance(rng, np.random.Generator)

    @pytest.mark.parametrize("seed", ["not a seed", 1.5, True])
    @pytest.mark.parametrize("use", [
        make_rng, lambda seed: spawn_streams(seed, 2),
        lambda seed: derive_seed(seed, 1),
    ], ids=["make_rng", "spawn_streams", "derive_seed"])
    def test_rejects_bad_type(self, use, seed):
        with pytest.raises(ConfigurationError, match="unsupported seed"):
            use(seed)


class TestSpawnStreams:
    def test_count(self):
        streams = spawn_streams(0, 5)
        assert len(streams) == 5

    def test_streams_are_independent(self):
        a, b = spawn_streams(0, 2)
        assert a.integers(0, 10**9) != b.integers(0, 10**9)

    def test_deterministic_given_seed(self):
        first = [g.integers(0, 10**9) for g in spawn_streams(3, 4)]
        second = [g.integers(0, 10**9) for g in spawn_streams(3, 4)]
        assert first == second

    def test_zero_count(self):
        assert spawn_streams(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            spawn_streams(1, -1)

    def test_from_generator(self):
        gen = np.random.default_rng(9)
        streams = spawn_streams(gen, 3)
        assert len(streams) == 3

    def test_from_seed_sequence(self):
        streams = spawn_streams(np.random.SeedSequence(11), 2)
        assert len(streams) == 2


class TestDeriveSeed:
    def test_deterministic(self):
        a = np.random.default_rng(derive_seed(1, 2, 3)).integers(0, 10**9)
        b = np.random.default_rng(derive_seed(1, 2, 3)).integers(0, 10**9)
        assert a == b

    def test_path_changes_stream(self):
        a = np.random.default_rng(derive_seed(1, 2)).integers(0, 10**9)
        b = np.random.default_rng(derive_seed(1, 3)).integers(0, 10**9)
        assert a != b

    def test_negative_path_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_seed(1, -1)


class TestHelpers:
    def test_random_permutation_is_permutation(self, rng):
        perm = random_permutation(rng, 50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_random_permutation_negative(self, rng):
        with pytest.raises(ConfigurationError):
            random_permutation(rng, -1)

    def test_choice_excluding_never_returns_excluded(self, rng):
        for _ in range(200):
            assert choice_excluding(rng, 5, 2) != 2

    def test_choice_excluding_covers_range(self, rng):
        seen = {choice_excluding(rng, 4, 1) for _ in range(200)}
        assert seen == {0, 2, 3}

    def test_choice_excluding_uniform(self, rng):
        draws = [choice_excluding(rng, 3, 0) for _ in range(3000)]
        ones = draws.count(1)
        assert 1300 < ones < 1700  # ~50%

    def test_choice_excluding_needs_two(self, rng):
        with pytest.raises(ConfigurationError):
            choice_excluding(rng, 1, 0)
