"""The seed hash that figures and Monte Carlo runs share (``seeds``): its
words against numpy's SeedSequence, and a run's trials against
``trial_rng``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimocast import montecarlo, seeds
from mimocast.closed_form import MRT, ZF, DownlinkPowers

import oracles
from test_montecarlo import cap_pilots, small_system

# Seeds of 0 to 5 32-bit words: SeedSequence mixes the words past the
# fourth in a second loop, and 0 has no words of its own.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 7, 2**128 - 1, 2**128,
         2**160 - 1]


def want_states(seed, keys, n_words):
    return np.array([np.random.SeedSequence(entropy=seed, spawn_key=key)
                     .generate_state(n_words, np.uint64) for key in keys])


class TestSpawnHash:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_words_equal_seed_sequences(self, seed):
        # A block's trials ask for SFC64's 3 words: trials 0-7, a partial
        # block further on, and the last 32-bit trial index.
        for start, stop in ((0, 8), (1000, 1003), (2**32 - 2, 2**32)):
            got = seeds.SpawnHash(seed).states(
                (np.arange(start, stop, dtype=np.uint32),), 3)
            assert np.array_equal(got, want_states(seed, [(t,) for t in range(start, stop)], 3))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**160), first=st.integers(0, 2**32 - 9),
           n_words=st.integers(1, 5))
    def test_any_seed_and_state_size(self, seed, first, n_words):
        keys = np.arange(first, first + 8, dtype=np.uint32)
        got = seeds.SpawnHash(seed).states((keys,), n_words)
        assert got.shape == (8, n_words) and got.dtype == np.uint64
        assert np.array_equal(got, want_states(seed, [(int(t),) for t in keys], n_words))

    def test_two_word_keys_broadcast(self):
        got = seeds.SpawnHash(5).states((np.arange(3, dtype=np.uint32)[:, None],
                                         np.arange(2, dtype=np.uint32)), 4)
        want = want_states(5, [(c, d) for c in range(3) for d in range(2)], 4)
        assert np.array_equal(got, want.reshape(3, 2, 4))

    def test_spawned_seed_serves_only_its_words(self):
        seed = seeds.SpawnedSeed(seeds.SpawnHash(3).states((np.arange(1, dtype=np.uint32),), 3)[0])
        with pytest.raises(ValueError):
            seed.generate_state(4, np.uint64)
        with pytest.raises(ValueError):
            seed.generate_state(3, np.uint32)


class TestRunStreams:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**100 + 3])
    def test_spawned_generator_draws_trial_rng_stream(self, seed):
        states = seeds.SpawnHash(seed).states((np.arange(10, dtype=np.uint32),), 3)
        for t, state in enumerate(states):
            got = np.random.Generator(np.random.SFC64(seeds.SpawnedSeed(state)))
            want = montecarlo.trial_rng(seed, t)
            assert got.standard_normal(6).tolist() == want.standard_normal(6).tolist()
            assert got.standard_gamma(3.5, 4).tolist() == want.standard_gamma(3.5, 4).tolist()

    @pytest.mark.parametrize("precoder", [MRT, ZF])
    def test_run_draws_each_trial_from_trial_rng(self, precoder):
        # Every block's factors, bit for bit the factor of trial_rng(seed, t),
        # drawn one entry at a time (oracles.bartlett_factor).
        cfg, fading = small_system(n_antennas=12, n_unicast=3, group_sizes=(2, 2))
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, 3, half, 2)
        seed = 2**40 + 9
        kernel = oracles.trial_kernel(cfg, fading, *cap_pilots(cfg), powers, precoder, seed)
        for start, stop in ((0, 8), (8, 13), (2**32 - 3, 2**32)):
            for t, R in zip(range(start, stop), kernel._draw(start, stop)):
                want = oracles.bartlett_factor(montecarlo.trial_rng(seed, t), cfg.n_antennas,
                                               cfg.n_streams)
                assert np.array_equal(R.view(np.uint64), want.view(np.uint64)), t
