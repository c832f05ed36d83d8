import contextlib
import dataclasses
import gc
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimocast import closed_form, montecarlo
from mimocast.closed_form import MRT, PRECODERS, ZF, DownlinkPowers, se_report
from mimocast.errors import DegenerateInputError, ZfInfeasibleError
from mimocast.model import FadingProfile, estimation_variances
from mimocast.scenario import CellGeometry, default_normalized_config, place_users
from mimocast.montecarlo import trial_rng, validate_closed_form

import oracles
from test_flat_arrays import small_mc_cell
from test_model import BAD_PILOT_MESSAGES, BAD_PILOT_POWERS, bad_pilots, make_config


def small_system(n_antennas=64, n_unicast=2, group_sizes=(2,), cap=3.0, seed=5):
    cfg = make_config(n_unicast=n_unicast, group_sizes=group_sizes,
                      pilot_length=n_unicast + len(group_sizes),
                      n_antennas=n_antennas, cap=cap)
    rng = np.random.default_rng(seed)
    fading = FadingProfile(
        unicast_gains=tuple(rng.uniform(0.2, 1.5, n_unicast)),
        multicast_gains=tuple(tuple(rng.uniform(0.2, 1.5, k)) for k in group_sizes),
    )
    return cfg, fading


def cap_pilots(cfg):
    tau = cfg.pilot_length
    return ([e / tau for e in cfg.unicast_energy_caps],
            [[e / tau for e in caps] for caps in cfg.multicast_energy_caps])


def precoder_columns(O, factor, diag):
    """The precoder columns X = Q R_x through the kernel's cores: R of
    O = Q R (``oracles.observation_basis``), the precoder's factor
    R_x = factor(R, diag), and Q = O R^-1, or the identity when N <= S."""
    R = oracles.observation_basis(O)
    R_x = factor(R, diag)
    return R_x if O.shape[0] <= O.shape[1] else np.linalg.solve(R.T, O.T).T @ R_x


def kernel_trials(cfg, fading, pilots_un, pilots_mu, seed, n_trials=1, powers=None,
                  precoder=MRT, lift=False):
    """Trials 0, 1, ... of ``seed`` through the trial kernel's cores, with
    the estimates and the precoders' diagonal of the oracles: once per run
    the pilots' spreads, the estimate factors and, given downlink powers,
    the diagonal from the column scales; per trial (draw, C, X),
    the N x (U + G) estimates from the pilot observations drawn at unit
    variance and the precoder columns X = Q R_x, with O = Q R the
    observations' basis and R_x the precoder's factor in it (None without
    powers).  With ``lift``, draw is the trial's draws lifted to full
    channels and pilot noise (``oracles.lifted_draw``), else None."""
    spread = oracles.pilot_spreads(cfg, fading, pilots_un, pilots_mu)
    factors = oracles.estimate_factors(cfg, fading, pilots_un, pilots_mu)
    if powers is not None:
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        scales = oracles.column_scales(cfg, powers, stats, precoder)
        if precoder == ZF:
            factor, diag = oracles.zf_factor, scales / factors
        else:
            factor, diag = oracles.mrt_factor, scales * factors
    for t in range(n_trials):
        rng = trial_rng(seed, t)
        O = oracles.cn(rng, (cfg.n_antennas, cfg.n_streams)) * spread
        X = None if powers is None else precoder_columns(O, factor, diag)
        draw = oracles.lifted_draw(cfg, fading, pilots_un, pilots_mu, seed, t) if lift else None
        yield draw, O * factors, X


class TestDiagonalAgainstColumnScales:
    """The kernel's diagonal kappa sqrt(p), which reads the stream powers
    alone, against the rule it replaced: the column scales read off the
    estimate variances and the estimate factors (``oracles``), taken in the
    basis of the unit observations, where each pilot's spread joins the
    factor.  The variances cancel."""

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_diagonal_matches_scales_and_factors(self, precoder, data):
        u = data.draw(st.integers(min_value=0, max_value=4), label="unicast UTs")
        sizes = tuple(data.draw(st.lists(st.integers(min_value=1, max_value=3),
                                         min_size=0 if u else 1, max_size=3), label="groups"))
        S = u + len(sizes)
        cfg = make_config(n_unicast=u, group_sizes=sizes,
                          n_antennas=data.draw(st.integers(S + 1, S + 40), label="antennas"))
        users = u + sum(sizes)

        def per_ut(strategy, label):
            return np.array(data.draw(st.lists(strategy, min_size=users, max_size=users),
                                      label=label))

        gains = per_ut(st.floats(min_value=0.01, max_value=2.0), "gains")
        # Each UT's pilot SNR tau * power * gain, from 1e-6 to 1e6.
        pilots = 10.0 ** per_ut(st.floats(min_value=-6.0, max_value=6.0), "log10 pilot SNR") \
            / (cfg.pilot_length * gains)
        power = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0)),
            min_size=S, max_size=S), label="stream powers"))
        edges = np.cumsum([u, *sizes]).tolist()
        fading = FadingProfile(unicast_gains=gains[:u],
                               multicast_gains=[gains[a:b] for a, b in zip(edges, edges[1:])])
        pilots_un, pilots_mu = pilots[:u], [pilots[a:b] for a, b in zip(edges, edges[1:])]
        powers = DownlinkPowers(unicast=power[:u], multicast=power[u:])

        diag = oracles.trial_kernel(cfg, fading, pilots_un, pilots_mu, powers, precoder, 0).diag
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        scales = oracles.column_scales(cfg, powers, stats, precoder)
        factors = (oracles.estimate_factors(cfg, fading, pilots_un, pilots_mu)
                   * oracles.pilot_spreads(cfg, fading, pilots_un, pilots_mu))
        want = scales / factors if precoder == ZF else scales * factors
        assert np.array_equal(diag == 0.0, power == 0.0)
        assert (np.abs(diag - want) <= 1e-14 * want).all(), np.abs(diag / want - 1.0).max()


class TestDrawChannels:
    def test_seed_reproducible(self):
        cfg, fading = small_system()
        (a, c, _), = kernel_trials(cfg, fading, *cap_pilots(cfg), 77, lift=True)
        (b, d, _), = kernel_trials(cfg, fading, *cap_pilots(cfg), 77, lift=True)
        assert np.array_equal(a.channels, b.channels) and np.array_equal(a.noise, b.noise)
        assert np.array_equal(c, d)

    def test_sample_covariance_is_scaled_identity(self):
        # Entries are i.i.d. across antennas, so one tall draw yields many
        # independent 4-antenna vectors after reshaping.
        n_vectors, n_ant = 50_000, 4
        cfg, _ = small_system(n_antennas=n_vectors * n_ant, n_unicast=1, group_sizes=(1,))
        beta = 0.8
        fading = FadingProfile(unicast_gains=(beta,), multicast_gains=((1.0,),))
        (draw, _, _), = kernel_trials(cfg, fading, *cap_pilots(cfg), 3, lift=True)
        f = draw.channels[:, 0].reshape(n_vectors, n_ant)
        cov = f.T.conj() @ f / n_vectors
        err = np.linalg.norm(cov - beta * np.eye(n_ant)) / np.linalg.norm(beta * np.eye(n_ant))
        assert err <= 0.02

    def test_lifted_channels_and_pilot_noise_have_the_law(self):
        # A trial draws the pilot observations and, in the span of the
        # precoder columns, each UT's and pilot's residual; the oracle lifts
        # them to full channels and pilot noise.  Per antenna these must be
        # independent CN(0, gain) and CN(0, 1), here for a unicast UT and a
        # group of two.  At pilot SNRs of 900 to 1800 a residual weight c
        # 1% off would move each pilot's noise variance by 20% or more.
        n = 200_000
        cfg = make_config(n_unicast=1, group_sizes=(2,), n_antennas=n, cap=1000.0)
        gains = [0.9, 0.6, 1.2]
        fading = FadingProfile(unicast_gains=(0.9,), multicast_gains=((0.6, 1.2),))
        draw = oracles.lifted_draw(cfg, fading, *cap_pilots(cfg), 5, 0)
        v = np.column_stack([draw.channels, draw.noise])
        cov = v.T.conj() @ v / n
        want = np.diag(gains + [1.0, 1.0])
        assert np.linalg.norm(cov - want) / np.linalg.norm(want) <= 0.02

    def test_unit_draw_is_circular(self):
        # CN(0, 2): real and imaginary parts of unit variance each, and a
        # pseudo-variance E[x^2] of 0.
        n = 200_000
        x = oracles.cn(trial_rng(41, 0), (n, 1))[:, 0]
        assert [np.var(x.real), np.var(x.imag)] == pytest.approx([1.0, 1.0], rel=0.02)
        assert abs(np.mean(x * x)) <= 3.0 * math.sqrt(8.0 / n)   # 3 sigma: E|x|^4 = 8


class TestMmseEstimate:
    def test_consistency_at_huge_pilot_energy(self):
        cfg, fading = small_system(n_antennas=32)
        pilots_un = [1e12 / cfg.pilot_length] * cfg.n_unicast
        pilots_mu = [[0.5] * k for k in cfg.group_sizes]
        (draw, C, _), = kernel_trials(cfg, fading, pilots_un, pilots_mu, 9, lift=True)
        U = cfg.n_unicast
        err = np.abs(C[:, :U] - draw.unicast_channels).max()
        assert err <= 1e-5

    def test_empirical_variances_match_formulas(self):
        # One tall draw = 10^5 independent per-component samples.
        n = 100_000
        cfg, _ = small_system(n_antennas=n, n_unicast=1, group_sizes=(2,))
        fading = FadingProfile(unicast_gains=(0.9,), multicast_gains=((0.6, 1.2),))
        pilots_un, pilots_mu = cap_pilots(cfg)
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        (_, C, _), = kernel_trials(cfg, fading, pilots_un, pilots_mu, 21)
        assert np.mean(np.abs(C[:, 0]) ** 2) == pytest.approx(stats.unicast_var[0], rel=0.02)
        assert np.mean(np.abs(C[:, 1]) ** 2) == pytest.approx(stats.group_var[0], rel=0.02)
        # A member's estimate is the composite one times sqrt(tau*q)*eta/s.
        energy = cfg.pilot_length * np.asarray(pilots_mu[0])
        eta = fading.multicast_gains[0]
        for k, coeff in enumerate(np.sqrt(energy) * eta / np.sum(energy * eta)):
            assert np.mean(np.abs(coeff * C[:, 1]) ** 2) \
                == pytest.approx(stats.multicast_var[0][k], rel=0.02)

    def test_error_orthogonal_to_estimate(self):
        n = 200_000
        cfg, _ = small_system(n_antennas=n, n_unicast=1, group_sizes=(1,))
        fading = FadingProfile(unicast_gains=(0.9,), multicast_gains=((1.0,),))
        (draw, C, _), = kernel_trials(cfg, fading, *cap_pilots(cfg), 31, lift=True)
        f_hat = C[:, 0]
        err = f_hat - draw.channels[:, 0]
        inner = np.mean(err.conj() * f_hat)
        # 3-sigma band around zero for the sample mean of the product
        scale = np.std(err.conj() * f_hat) / math.sqrt(n)
        assert abs(inner) <= 3.0 * scale


def mean_column_power(cfg, fading, powers, precoder, seed, n_draws):
    """Each stream's column power, averaged over n_draws trials."""
    acc = np.zeros(cfg.n_streams)
    for _, _, X in kernel_trials(cfg, fading, *cap_pilots(cfg), seed, n_draws, powers, precoder):
        acc += np.sum(np.abs(X) ** 2, axis=0)
    return acc / n_draws


class TestMrtPrecoders:
    def test_mean_column_power_matches_requested(self):
        cfg, fading = small_system(n_antennas=64)
        powers = DownlinkPowers(unicast=(2.5, 1.0), multicast=(4.0,))
        assert mean_column_power(cfg, fading, powers, MRT, 500, 3000).tolist() \
            == pytest.approx([2.5, 1.0, 4.0], rel=0.02)

    def test_zero_power_gives_zero_column(self):
        cfg, fading = small_system()
        powers = DownlinkPowers(unicast=(0.0, 1.0), multicast=(1.0,))
        (_, _, X), = kernel_trials(cfg, fading, *cap_pilots(cfg), 8, 1, powers)
        assert np.all(X[:, 0] == 0.0)

    def test_multicast_column_collinear_with_group_estimate(self):
        cfg, fading = small_system()
        powers = DownlinkPowers(unicast=(1.0, 1.0), multicast=(2.0,))
        (_, C, X), = kernel_trials(cfg, fading, *cap_pilots(cfg), 8, 1, powers)
        U = cfg.n_unicast
        ratio = X[:, U] / C[:, U]
        assert np.allclose(ratio, ratio[0])


class TestZfPrecoders:
    def test_nulling_per_draw(self):
        cfg, fading = small_system(n_antennas=32)
        powers = DownlinkPowers(unicast=(2.0, 1.0), multicast=(3.0,))
        for _, C, X in kernel_trials(cfg, fading, *cap_pilots(cfg), 600, 10, powers, ZF):
            cross = C.conj().T @ X
            diag = np.abs(np.diag(cross))
            off = np.abs(cross - np.diag(np.diag(cross)))
            assert off.max() <= 1e-10 * diag.max()

    def test_mean_column_power_matches_requested(self):
        cfg, fading = small_system(n_antennas=32)
        powers = DownlinkPowers(unicast=(2.5, 1.0), multicast=(4.0,))
        assert mean_column_power(cfg, fading, powers, ZF, 700, 4000).tolist() \
            == pytest.approx([2.5, 1.0, 4.0], rel=0.02)

    @pytest.mark.parametrize("stream, copy_of, scale", [(1, 0, 1.0), (1, 0, -2.5j), (2, 0, 3.0)])
    def test_duplicated_estimate_column_is_rank_deficient(self, stream, copy_of, scale):
        cfg, fading = small_system(n_antennas=32)
        pilots_un, pilots_mu = cap_pilots(cfg)
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        powers = DownlinkPowers(unicast=(1.0, 1.0), multicast=(1.0,))
        scales = oracles.column_scales(cfg, powers, stats, ZF)
        (_, C, _), = kernel_trials(cfg, fading, pilots_un, pilots_mu, 900)
        zf_of_estimates(C, scales)   # the draw itself has full rank
        C[:, stream] = scale * C[:, copy_of]
        with pytest.raises(oracles.RankDeficientDraw):
            zf_of_estimates(C, scales)

    @pytest.mark.parametrize("silent", ["unicast UT 1", "group 0"])
    def test_stream_without_estimate_has_zero_column(self, silent):
        # A stream whose UTs send no pilot has an all-zero estimate.  MRT
        # sends it nothing; ZF, which nulls it for every other stream, is
        # refused by the run check even without power, and its core, fed
        # the estimates' factor, discards such a draw as singular.
        cfg, fading = small_system(n_antennas=32)
        pilots_un, pilots_mu = cap_pilots(cfg)
        unicast, multicast = [1.0, 1.0], [1.0]
        if silent == "unicast UT 1":
            pilots_un[1], unicast[1], stream = 0.0, 0.0, 1
        else:
            pilots_mu[0], multicast[0], stream = [0.0] * 2, 0.0, cfg.n_unicast
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        powers = DownlinkPowers(unicast=unicast, multicast=multicast)
        (_, C, X), = kernel_trials(cfg, fading, pilots_un, pilots_mu, 900, 1, powers, MRT)
        assert np.flatnonzero(~C.any(axis=0)).tolist() == [stream]
        assert np.flatnonzero(~X.any(axis=0)).tolist() == [stream]
        montecarlo._require_estimates(powers, stats, MRT)
        with pytest.raises(DegenerateInputError,
                           match=f"{silent} has no channel estimate, which zero-forcing"):
            montecarlo._require_estimates(powers, stats, ZF)
        with pytest.raises(oracles.RankDeficientDraw, match="Gram condition bound (inf|nan)"):
            zf_of_estimates(C, oracles.column_scales(cfg, powers, stats, ZF))

    def test_minimal_antenna_margin_keeps_rank(self):
        # One spatial degree of freedom left: the Gram must stay invertible
        # in every one of 10^4 draws.
        cfg, fading = small_system(n_antennas=4, n_unicast=2, group_sizes=(2,))
        powers = DownlinkPowers(unicast=(1.0, 1.0), multicast=(1.0,))
        for _ in kernel_trials(cfg, fading, *cap_pilots(cfg), 800, 10_000, powers, ZF):
            pass   # must not raise


def zf_of_estimates(C, scales):
    """The ZF columns of estimates C through the kernel's rank rule and
    R^-H D (``oracles.zf_factor``), with the column scales as the diagonal
    (the estimate factors are 1)."""
    return precoder_columns(C, oracles.zf_factor, scales)


class TestZfRuleAgainstEigensolve:
    """``_zf_row_norms``, which inverts the estimates' factor R by back
    substitution, and the rank rule, which discards a draw on the bound
    S * trace(inverse equilibrated Gram) of its condition number, read off
    that inverse's row norms (``oracles.require_rank`` raises where the
    kernel's mask drops), with the columns R^-H D it keeps, against
    ``oracles.zf_columns_eigensolve``, which discarded on the condition
    number from ``eigvalsh`` and solved the Gram system."""

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_match_the_eigensolve_on_desk_draws(self, seed):
        cfg, fading, pilots_un, pilots_mu, powers = small_mc_cell(seed, ZF)
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        scales = oracles.column_scales(cfg, powers, stats, ZF)
        for _, C, X in kernel_trials(cfg, fading, pilots_un, pilots_mu, seed, 20, powers, ZF):
            want = oracles.zf_columns_eigensolve(C, scales)
            err = np.linalg.norm(X - want, axis=0)
            assert (err <= 1e-12 * np.linalg.norm(want, axis=0)).all(), err

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(streams=st.integers(min_value=2, max_value=8),
           spare=st.integers(min_value=0, max_value=6),
           log_cond=st.floats(min_value=8.0, max_value=14.0),
           defect=st.sampled_from(["none", "duplicate", "zero"]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_discards_every_gram_the_eigensolve_discards(self, streams, spare, log_cond,
                                                         defect, seed):
        # Estimates with Gram condition number 10^log_cond before their
        # columns are scaled over six orders of magnitude, then one column
        # duplicated (times a complex factor) or zeroed.
        rng = np.random.default_rng(seed)

        def unitary(rows, cols):
            z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            return np.linalg.qr(z)[0]

        singular = np.logspace(0.0, -log_cond / 2.0, streams)
        C = (unitary(streams + spare, streams) * singular) @ unitary(streams, streams).conj().T
        C *= 10.0 ** rng.uniform(-3.0, 3.0, streams)
        i, j = rng.choice(streams, 2, replace=False)
        if defect == "duplicate":
            C[:, j] = (rng.uniform(0.1, 10.0) * np.exp(2j * math.pi * rng.uniform())) * C[:, i]
        elif defect == "zero":
            C[:, j] = 0.0
        scales = rng.uniform(0.5, 2.0, streams)

        def kept(columns):
            try:
                columns(C, scales)
            except oracles.RankDeficientDraw:
                return False
            return True

        if not kept(oracles.zf_columns_eigensolve):
            assert not kept(zf_of_estimates)
        if defect != "none":
            assert not kept(zf_of_estimates)

    @staticmethod
    def later_leaf_overflow():
        # 40 streams: four leaves of 10 rows.  The overflow sits in the last
        # leaf, and its infinities reach the other leaves' rows through the
        # products that combine them.
        R = np.eye(40, dtype=complex)
        R[35, 35] = R[36, 36] = 1e-200
        R[35, 36] = 1.0
        return R

    @pytest.mark.parametrize("R, bound", [
        (np.array([[1e-200, 1.0], [0.0, 1e-200]], dtype=complex), "nan"),  # an inverse entry -inf
        (np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex), "nan"),     # a NaN inverse
        (later_leaf_overflow(), "nan"),
        (np.array([[1e-160, 0.0], [0.0, 1.0]], dtype=complex), "inf"),     # a row norm inf
    ], ids=["overflow", "nan", "overflow in a later leaf", "infinite bound"])
    def test_non_finite_inverse_is_discarded_quietly(self, monkeypatch, R, bound):
        # A ZF run whose trial 3 draws R discards that trial alone, without
        # a RuntimeWarning, which this suite makes an error.
        _, got = montecarlo._zf_row_norms(R[None].copy())
        assert str(float(got[0])) == bound
        S = len(R)
        cfg, fading = small_system(n_antennas=S + 4, n_unicast=S - 1, group_sizes=(1,))
        complete, blocks = montecarlo._Kernel._complete, []

        def drawing_R(self, n):
            stack = complete(self, n)
            if not blocks:   # the first block, trials 0 to 7
                stack[3] = R
            blocks.append(n)
            return stack

        monkeypatch.setattr(montecarlo._Kernel, "_complete", drawing_R)
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, cfg.n_unicast, half, cfg.n_groups)
        report = validate_closed_form(cfg, fading, *cap_pilots(cfg), powers, ZF, 100, 4)
        assert (report.n_trials, report.n_discarded, sum(blocks)) == (99, 1, 100)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(streams=st.integers(min_value=1, max_value=80),
           trials=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(streams=17, trials=3, seed=1)   # two leaves of 9, one row of padding
    @example(streams=60, trials=5, seed=2)   # the paper cell: four leaves of 15
    @example(streams=65, trials=2, seed=3)   # eight leaves of 9, seven rows of padding
    def test_row_norms_match_the_lu_inverse(self, streams, trials, seed):
        # The blocked inverse against an LU inverse of each factor, on
        # factors drawn as a trial draws them: up to 16 streams one leaf,
        # then 2, 4 and 8 leaves, identity-padded unless they divide S.
        kernel = factor_kernel(streams + 3, streams)
        rng = np.random.default_rng(seed)
        for t in range(trials):
            kernel._factor(rng, kernel.normals[t], kernel.gammas[t])
        R = kernel._complete(trials)
        want = [oracles.zf_row_norms_lu(factor) for factor in R]
        rows, bounds = montecarlo._zf_row_norms(R.copy())
        assert (np.abs(rows - want) <= 1e-13 * np.asarray(want)).all()
        assert (bounds <= montecarlo.MAX_GRAM_COND).all()

    def test_validation_runs_no_eigensolve(self, monkeypatch):
        cfg, fading = small_system(n_antennas=16, n_unicast=2, group_sizes=(2, 2))
        pilots_un, pilots_mu = cap_pilots(cfg)
        calls = {"eigvalsh": 0, "inv": 0}
        for name in calls:
            def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        report = validate_closed_form(cfg, fading, pilots_un, pilots_mu,
                                      DownlinkPowers.equal_split(5.0, 2, 5.0, 2), "zf", 200, 8)
        assert report.n_trials + report.n_discarded == 200
        assert calls == {"eigvalsh": 0, "inv": 0}


def record(report, kind, index):
    """The record of one UT in a validation report."""
    return next(r for r in report.records if (r.kind, r.index) == (kind, index))


class TestValidationRecords:
    def test_too_few_trials_rejected(self):
        cfg, fading = small_system()
        pilots_un, pilots_mu = cap_pilots(cfg)
        powers = DownlinkPowers(unicast=(1.0, 1.0), multicast=(2.0,))
        with pytest.raises(ValueError):
            validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, "mrt", 99, 1)

    def test_zero_power_ut_reads_zero(self):
        cfg, fading = small_system()
        pilots_un, pilots_mu = cap_pilots(cfg)
        powers = DownlinkPowers(unicast=(0.0, 1.0), multicast=(2.0,))
        report = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, "mrt", 200, 2)
        assert record(report, "unicast", (0,)).empirical == 0.0

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("silent", [("unicast", (0,)), ("multicast", (1, 0))])
    def test_unpowered_ut_gets_a_finite_record(self, precoder, silent):
        # Its own stream carries nothing, so d = 0 in every trial and m1 = 0:
        # only its received power is left to test.
        cfg, fading = small_system(n_unicast=2, group_sizes=(2, 2))
        pilots_un, pilots_mu = cap_pilots(cfg)
        unicast, multicast = [2.0, 2.0], [3.0, 3.0]
        (unicast if silent[0] == "unicast" else multicast)[silent[1][0]] = 0.0
        report = validate_closed_form(cfg, fading, pilots_un, pilots_mu,
                                      DownlinkPowers(unicast=unicast, multicast=multicast),
                                      precoder, 300, 5)
        rec = record(report, *silent)
        assert (rec.closed_form, rec.empirical, rec.ci_low, rec.ci_high, rec.m1_over_se) == \
            (0.0, 0.0, 0.0, 0.0, 0.0)
        values = [v for v in rec.to_dict().values() if isinstance(v, float)]
        assert len(values) == 8 and all(math.isfinite(v) for v in values), rec
        assert rec.z == pytest.approx(math.sqrt(rec.wald), rel=1e-15)   # one degree of freedom
        # Every member of a silent group is silent.
        assert rec.z <= 3.0 and report.n_weak_signal == (1 if silent[0] == "unicast" else 2)

    def test_record_dict_follows_the_fields(self):
        cfg, fading = small_system()
        report = validate_closed_form(cfg, fading, *cap_pilots(cfg),
                                      DownlinkPowers(unicast=(1.0, 1.0), multicast=(2.0,)),
                                      "mrt", 100, 6)
        for rec in report.records:
            doc = rec.to_dict()
            assert list(doc) == [f.name for f in dataclasses.fields(montecarlo.UserValidation)]
            assert doc == {**vars(rec), "index": list(rec.index)}

    def test_pilot_length_invariant_at_fixed_energy(self):
        # Estimates depend on pilot power only through energy = tau * power,
        # so halving powers while doubling tau reproduces the trials bit for
        # bit and every empirical SINR exactly.
        cfg, fading = small_system()
        pilots_un, pilots_mu = cap_pilots(cfg)
        powers = DownlinkPowers(unicast=(1.5, 1.0), multicast=(2.0,))
        a = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, "mrt", 300, 77)
        cfg2 = dataclasses.replace(cfg, pilot_length=cfg.pilot_length * 2)
        pilots_un2 = [p / 2.0 for p in pilots_un]
        pilots_mu2 = [[q / 2.0 for q in row] for row in pilots_mu]
        b = validate_closed_form(cfg2, fading, pilots_un2, pilots_mu2, powers, "mrt", 300, 77)
        assert [(r.empirical, r.ci_low, r.ci_high, r.z) for r in a.records] == \
            [(r.empirical, r.ci_low, r.ci_high, r.z) for r in b.records]

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_interference_scaling_tracks_closed_form(self, precoder):
        # Doubling every downlink power doubles the numerator but also the
        # interference; the empirical SINR must track the closed-form ratio
        # at both operating points, and so at a third where unicast UT 0
        # gets no power.  Every record's closed form is se_report's SINR,
        # to the bit.
        cfg, fading = small_system(cap=2.0)
        cfg = dataclasses.replace(cfg, total_power=40.0)
        pilots_un, pilots_mu = cap_pilots(cfg)
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        lo = DownlinkPowers(unicast=(2.0, 1.0), multicast=(3.0,))
        hi = DownlinkPowers(unicast=(4.0, 2.0), multicast=(6.0,))
        silent = DownlinkPowers(unicast=(0.0, 2.0), multicast=(6.0,))
        for powers, ut in ((lo, 0), (hi, 0), (silent, 1)):
            closed = se_report(cfg, stats, fading, powers, precoder)
            report = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, precoder,
                                          3000, 41)
            assert bits(np.array([r.closed_form for r in report.records])).tolist() == bits(
                closed.ut_sinr).tolist()
            rec = record(report, "unicast", (ut,))
            assert 0.0 < rec.ci_low < rec.empirical < rec.ci_high
            assert report.n_trials == 3000
            assert rec.z <= 3.0


class TestValidateClosedForm:
    def test_report_reproducible(self):
        cfg, fading = small_system()
        pilots_un, pilots_mu = cap_pilots(cfg)
        powers = DownlinkPowers(unicast=(1.0, 1.0), multicast=(2.0,))
        a = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers,
                                 "mrt", 300, 5)
        b = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers,
                                 "mrt", 300, 5)
        assert a == b

    @pytest.mark.parametrize("precoder", ["mrt", "zf"])
    def test_twenty_combo_equivalence_matrix(self, precoder):
        # Ten (topology, power-split) combinations per precoder; every
        # per-user z-score must satisfy |z| <= 3*sqrt(2).  Over 46 calibrated
        # z-scores per precoder, a bound of 3 fails by chance in about one
        # stream of seven.  A fixed bias's z grows as sqrt(trials), so at
        # twice the trials 3*sqrt(2) still flags a bias of 3 standard errors
        # at 600 trials in half its runs, as |z| <= 3 did at 600, and fails
        # by chance about once in a thousand.
        topologies = [
            dict(n_antennas=24, n_unicast=1, group_sizes=(1,)),
            dict(n_antennas=48, n_unicast=2, group_sizes=(2,)),
            dict(n_antennas=64, n_unicast=3, group_sizes=(1, 2)),
            dict(n_antennas=32, n_unicast=0, group_sizes=(3,)),
            dict(n_antennas=96, n_unicast=4, group_sizes=(2, 2)),
        ]
        for t_idx, topo in enumerate(topologies):
            cfg, fading = small_system(**topo, seed=100 + t_idx)
            pilots_un, pilots_mu = cap_pilots(cfg)
            for s_idx, un_share in enumerate((0.3, 0.6)):
                u, g = cfg.n_unicast, cfg.n_groups
                powers = DownlinkPowers.equal_split(
                    cfg.total_power * un_share if u else 0.0, u,
                    cfg.total_power * (1.0 - un_share), g)
                report = validate_closed_form(
                    cfg, fading, pilots_un, pilots_mu, powers, precoder,
                    n_trials=1200, seed=9000 + 10 * t_idx + s_idx)
                worst = max(abs(r.z) for r in report.records)
                assert worst <= 3.0 * math.sqrt(2.0), (topo, un_share, precoder, worst)

    @pytest.mark.parametrize("precoder", ["mrt", "zf"])
    def test_mmf_operating_point_end_to_end(self, precoder):
        # Solve the max-min problem, then simulate at exactly its operating
        # point: every multicast UT's empirical SINR must agree with the
        # common optimum value the solver promises.
        from mimocast.allocation import solve_mmf
        cfg, fading = small_system(n_antennas=48, n_unicast=2, group_sizes=(2, 1))
        p_un = 3.0
        sol = solve_mmf(cfg, fading, p_un, precoder)
        cfg_at = dataclasses.replace(cfg, pilot_length=sol.pilot_length)
        pilots_un = [e / sol.pilot_length for e in cfg.unicast_energy_caps]
        powers = DownlinkPowers(unicast=(p_un / 2.0, p_un / 2.0),
                                multicast=sol.downlink_powers)
        report = validate_closed_form(cfg_at, fading, pilots_un,
                                      sol.uplink_pilot_powers, powers, precoder,
                                      n_trials=1000, seed=303)
        assert report.passed
        for rec in report.records:
            if rec.kind == "multicast":
                assert rec.closed_form == pytest.approx(sol.gamma, rel=1e-9)
                assert rec.z <= 3.0

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("unicast, multicast", [
        ((9.0, 1.0), (2.0,)),   # over the budget of 10
        ((1.0,), (2.0,)),       # one entry short
        ((-1.0, 1.0), (2.0,)),  # negative
        ((math.nan, 1.0), (2.0,)),
        ((1.0, 1.0), (math.nan,)),
    ])
    def test_bad_powers_rejected_before_any_draw(self, monkeypatch, precoder, unicast, multicast):
        cfg, fading = small_system()
        pilots_un, pilots_mu = cap_pilots(cfg)

        def no_draw(*args):
            raise AssertionError("drew channels before checking the powers")

        monkeypatch.setattr(montecarlo, "_cn", no_draw)
        with pytest.raises(ValueError):
            validate_closed_form(cfg, fading, pilots_un, pilots_mu,
                                 DownlinkPowers(unicast=unicast, multicast=multicast),
                                 precoder, 100, 1)

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("side", ["unicast", "multicast"])
    @pytest.mark.parametrize("value, error", BAD_PILOT_POWERS)
    def test_bad_pilot_powers_rejected_before_any_draw(self, monkeypatch, precoder, side,
                                                       value, error):
        # A NaN or None pilot power used to pass with NaN SINRs and z = 0.
        cfg, fading = small_system(n_unicast=1, group_sizes=(2,))

        def no_draw(*args):
            raise AssertionError("drew channels before checking the pilot powers")

        monkeypatch.setattr(montecarlo, "_cn", no_draw)
        with pytest.raises(error, match=BAD_PILOT_MESSAGES[error]):
            validate_closed_form(cfg, fading, *bad_pilots(side, value),
                                 DownlinkPowers.equal_split(1.0, 1, 1.0, 1), precoder, 100, 1)

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("silent", ["unicast UT 1", "group 1"])
    def test_power_without_estimate_rejected_before_any_draw(self, monkeypatch, precoder,
                                                             silent):
        # A stream whose UTs send no pilot has no estimate to point it.
        cfg, fading = small_system(n_antennas=64, n_unicast=4, group_sizes=(3, 3))
        pilots_un, pilots_mu = cap_pilots(cfg)
        if silent == "unicast UT 1":
            pilots_un[1] = 0.0
        else:
            pilots_mu[1] = [0.0] * 3

        def no_draw(*args):
            raise AssertionError("drew channels before checking the estimates")

        monkeypatch.setattr(montecarlo, "_cn", no_draw)
        half = cfg.total_power / 2.0
        with pytest.raises(DegenerateInputError,
                           match=f"{silent} has power but no channel estimate"):
            validate_closed_form(cfg, fading, pilots_un, pilots_mu,
                                 DownlinkPowers.equal_split(half, 4, half, 2),
                                 precoder, 100, 1)

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_stream_without_estimate_or_power(self, monkeypatch, precoder):
        # Unicast UT 1 sends no pilot and gets no power.  MRT keeps every
        # trial; ZF, which needs every stream's estimate, rejects the input
        # before the first draw instead of discarding every trial.
        cfg, fading = small_system(n_antennas=64, n_unicast=4, group_sizes=(3, 3))
        pilots_un, pilots_mu = cap_pilots(cfg)
        pilots_un[1] = 0.0
        half = cfg.total_power / 2.0
        powers = DownlinkPowers(unicast=(half / 3.0, 0.0, half / 3.0, half / 3.0),
                                multicast=(half / 2.0, half / 2.0))
        args = (cfg, fading, pilots_un, pilots_mu, powers, precoder, 300, 11)
        if precoder == "mrt":
            report = validate_closed_form(*args)
            assert (report.n_trials, report.n_discarded) == (300, 0)
            return

        def no_draw(*args):
            raise AssertionError("drew channels before checking the estimates")

        monkeypatch.setattr(montecarlo, "_cn", no_draw)
        with pytest.raises(DegenerateInputError, match="unicast UT 1 has no channel estimate"):
            validate_closed_form(*args)

    @pytest.mark.parametrize("n_antennas, precoder, error", [
        (5, "zf", ZfInfeasibleError),   # N = U+G: no degree of freedom left
        (64, "bogus", ValueError),
    ])
    def test_bad_precoder_rejected_before_any_draw(self, monkeypatch, n_antennas, precoder,
                                                    error):
        cfg, fading = small_system(n_antennas=n_antennas, n_unicast=4, group_sizes=(3,))
        pilots_un, pilots_mu = cap_pilots(cfg)

        def no_draw(*args):
            raise AssertionError("drew channels before checking the precoder")

        monkeypatch.setattr(montecarlo, "_cn", no_draw)
        with pytest.raises(error):
            validate_closed_form(cfg, fading, pilots_un, pilots_mu,
                                 DownlinkPowers(unicast=(1.0,) * 4, multicast=(2.0,)),
                                 precoder, 100, 1)

    @pytest.mark.parametrize("n_trials, seed, error", [
        (100, None, TypeError),    # would draw fresh OS entropy: no repeatable run
        (100, 1.5, TypeError),
        (100, -1, ValueError),
        (150.5, 1, TypeError),
        (2**32 + 1, 1, ValueError),   # past the 32-bit trial words of the spawn keys
    ])
    def test_bad_seed_or_trial_count_rejected_before_any_draw(self, monkeypatch, n_trials,
                                                              seed, error):
        cfg, fading = small_system(n_antennas=16)
        pilots_un, pilots_mu = cap_pilots(cfg)

        def no_run(*args):
            raise AssertionError("built a trial before checking the seed and trial count")

        monkeypatch.setattr(montecarlo, "_cn", no_run)
        monkeypatch.setattr(montecarlo, "_Kernel", no_run)
        with pytest.raises(error):
            validate_closed_form(cfg, fading, pilots_un, pilots_mu,
                                 DownlinkPowers(unicast=(1.0, 1.0), multicast=(2.0,)),
                                 "mrt", n_trials, seed)

    def test_misscaled_power_is_detected(self, monkeypatch):
        # Injected defect: simulate with an amplitude-1.1 (power 1.21)
        # mis-scaled precoder while the closed form keeps nominal powers.
        # Weak gains make the link noise-limited so the extra power shows
        # up almost fully in the SINR; z-scores must blow up.
        cfg, _ = small_system(n_antennas=64)
        cfg = dataclasses.replace(cfg, total_power=20.0)
        fading = FadingProfile(unicast_gains=(0.05, 0.05),
                               multicast_gains=((0.05, 0.05),))
        pilots_un, pilots_mu = cap_pilots(cfg)
        nominal = DownlinkPowers(unicast=(2.0, 1.0), multicast=(3.0,))
        init = montecarlo._Kernel.__init__

        def misscaled(self, *args):
            init(self, *args)
            self.diag = 1.1 * self.diag   # the precoders' diagonal kappa sqrt(p)

        monkeypatch.setattr(montecarlo._Kernel, "__init__", misscaled)
        rec = record(validate_closed_form(cfg, fading, pilots_un, pilots_mu, nominal, "mrt",
                                          8000, 11), "multicast", (0, 0))
        assert rec.empirical > rec.closed_form
        assert rec.z > 4.0

    def test_closed_form_off_by_five_percent_is_flagged(self, monkeypatch):
        # Injected defect: the closed form's coherent power gain*p*var, and
        # with it every SINR, 5% high for every UT.
        cfg, fading = small_system(n_antennas=64, n_unicast=4, group_sizes=(3, 3))
        pilots_un, pilots_mu = cap_pilots(cfg)
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, 4, half, 2)
        sinr_terms = closed_form._sinr_terms

        def off(*args):
            signal, interference = sinr_terms(*args)
            return 1.05 * signal, interference

        monkeypatch.setattr(closed_form, "_sinr_terms", off)
        monkeypatch.setattr(montecarlo, "_sinr_terms", off)
        report = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, "mrt",
                                      10_000, 12)
        assert not report.passed
        assert report.pass_rate_by_kind == {"unicast": 0.0, "multicast": 0.0}

    def test_moment_test_is_calibrated_over_desk_seeds(self):
        # 50 desk cells at 200 trials with the precoder alternating, as in
        # the benchmark: |z| > 3 has probability 0.27% for a calibrated score.
        zs = []
        for seed in range(50):
            precoder = PRECODERS[seed % 2]
            args = (*small_mc_cell(seed, precoder), precoder, 200, seed)
            zs.extend(r.z for r in validate_closed_form(*args).records)
        rate = sum(1 for z in zs if abs(z) <= 3.0) / len(zs)
        assert rate >= 0.99 and max(zs) <= 6.0, (len(zs), rate, max(zs))

    def test_diagnostics_summarise_the_records(self, monkeypatch):
        cfg, fading = small_system(n_antennas=32, n_unicast=2, group_sizes=(2, 2))
        pilots_un, pilots_mu = cap_pilots(cfg)
        fail_in_trials(monkeypatch, dict.fromkeys((4, 9, 30), oracles.RankDeficientDraw))
        powers = DownlinkPowers(unicast=(0.0, 4.0), multicast=(3.0, 3.0))
        report = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, "zf", 120, 6)
        doc = report.to_dict()
        zs = {kind: [r.z for r in report.records if r.kind == kind]
              for kind in ("unicast", "multicast")}
        assert (doc["n_trials"], doc["n_discarded"], doc["discarded_fraction"]) == \
            (117, 3, 3 / 120)
        assert doc["worst_z"] == max(zs["unicast"] + zs["multicast"]) > 0.0
        assert doc["pass_rate_by_kind"] == {
            kind: sum(1 for z in v if z <= 3.0) / len(v) for kind, v in zs.items()}
        assert doc["n_weak_signal"] == sum(1 for r in report.records if r.m1_over_se < 2.0) >= 1
        # A report of empty columns, as a run with no UTs would give.
        empty = dataclasses.replace(report, n_unicast=0, group_sizes=(),
                                    **dict.fromkeys(oracles.REPORT_COLUMNS, ()))
        summaries = (empty.pass_rate, empty.passed, empty.worst_z, empty.pass_rate_by_kind,
                     empty.n_weak_signal)
        assert summaries == (1.0, True, 0.0, {}, 0)
        assert [type(v) for v in summaries] == [float, bool, float, dict, int]
        assert empty.records == () and empty.to_dict()["records"] == []


class TestColumnarReport:
    """The report keeps one array per numeric record field and builds its
    records only when read; its records, summaries and document equal those
    of the record path it replaced (``oracles.validation_records``) field
    for field, in value and type."""

    @staticmethod
    def report(seed, n_unicast, group_sizes, precoder, off=False):
        """A 100-trial report on a 32-antenna cell, with the closed form 5%
        high for every UT when ``off``."""
        cfg, fading = small_system(n_antennas=32, n_unicast=n_unicast,
                                   group_sizes=tuple(group_sizes), seed=seed)
        powers = DownlinkPowers(unicast=[1.0] * n_unicast, multicast=[2.0] * len(group_sizes))
        sinr_terms = closed_form._sinr_terms

        def five_percent_high(*args):
            signal, interference = sinr_terms(*args)
            return 1.05 * signal, interference

        with (mock.patch.object(montecarlo, "_sinr_terms", five_percent_high) if off
              else contextlib.nullcontext()):
            return validate_closed_form(cfg, fading, *cap_pilots(cfg), powers, precoder, 100,
                                        seed % 1000)

    @staticmethod
    def assert_equals_the_record_path(report):
        want = oracles.validation_records(report)
        assert repr(report.records) == repr(want.records)
        summaries = ("pass_rate", "passed", "worst_z", "pass_rate_by_kind", "n_weak_signal")
        assert repr([getattr(report, name) for name in summaries]) == \
            repr([getattr(want, name) for name in summaries])
        assert json.dumps(report.to_dict()) == json.dumps(want.document)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_unicast=st.integers(0, 3),
           group_sizes=st.lists(st.integers(1, 3), max_size=2),
           precoder=st.sampled_from(PRECODERS), off=st.booleans())
    @example(seed=12, n_unicast=0, group_sizes=[3, 1], precoder=MRT, off=False)
    @example(seed=12, n_unicast=3, group_sizes=[], precoder=ZF, off=False)
    def test_report_equals_the_record_path(self, seed, n_unicast, group_sizes, precoder, off):
        if n_unicast + len(group_sizes) == 0:
            return
        report = self.report(seed, n_unicast, group_sizes, precoder, off)
        if precoder == ZF and off:   # ZF's exact desired terms off their moments
            assert (report.z > montecarlo.Z_PASS).all()
        elif precoder == ZF:   # ...and on them: m1/SE at its cap
            assert np.allclose(report.m1_over_se, 1.0 / montecarlo.EXACT_RTOL, rtol=1e-12)
        self.assert_equals_the_record_path(report)

    def test_certain_misses_equal_the_record_path(self):
        # Every UT's desired term is exact, one value in every trial, and
        # off its moment: W = z = inf.
        report = self.report(12, 2, [2], ZF, off=True)
        assert report.z.tolist() == report.wald.tolist() == [math.inf] * 4
        self.assert_equals_the_record_path(report)

    @pytest.mark.parametrize("seed", range(10))
    def test_certain_misses_do_not_depend_on_rounding(self, seed):
        # ZF's desired terms take one value in every trial, 5% off their
        # moments.  The sample spread formed around those moments keeps
        # about 1e-10 of the offset, which read as a spread gave W = inf to
        # 0-4 of the 4 UTs by seed; their ranges over the trials are 0.
        cfg, fading = small_system(n_antennas=32)
        sinr_terms = closed_form._sinr_terms

        def five_percent_high(*args):
            signal, interference = sinr_terms(*args)
            return 1.05 * signal, interference

        with mock.patch.object(montecarlo, "_sinr_terms", five_percent_high):
            report = validate_closed_form(cfg, fading, *cap_pilots(cfg),
                                          DownlinkPowers(unicast=[1.0, 1.0], multicast=[2.0]),
                                          ZF, 100, seed)
        assert report.wald.tolist() == report.z.tolist() == [math.inf] * 4

    def test_no_record_exists_until_read(self):
        def records_alive():
            gc.collect()
            return sum(isinstance(o, montecarlo.UserValidation) for o in gc.get_objects())

        cfg, fading = small_system(n_unicast=2, group_sizes=(2, 2))
        before = records_alive()
        report = validate_closed_form(cfg, fading, *cap_pilots(cfg),
                                      DownlinkPowers(unicast=(1.0, 1.0), multicast=(2.0, 2.0)),
                                      MRT, 100, 3)
        for name in ("pass_rate", "passed", "worst_z", "pass_rate_by_kind", "n_weak_signal"):
            getattr(report, name)   # the summaries read the columns alone
        assert records_alive() == before
        records = report.records
        assert records_alive() == before + len(records) == before + 6


def one_wald(n, *terms):
    """``montecarlo._wald`` for one UT: its W as a float and its degrees of
    freedom as an int."""
    w, dof = montecarlo._wald(n, *(np.array([v], dtype=float) for v in terms))
    return float(w[0]), int(dof[0])


def p_and_z(w, dof):
    """``montecarlo._p_and_z`` for one Wald statistic, as floats."""
    p, z = montecarlo._p_and_z(np.array([w], dtype=float), np.array([dof]))
    return float(p[0]), float(z[0])


UT_CASES = ("both vary", "collinear", "tail", "x exact", "y exact", "x miss", "y miss",
            "both exact")


@st.composite
def ut_terms(draw, case=None):
    """One UT's (dx, dy, vx, vy, cxy, rx, ry, mx, my) in one of UT_CASES:
    both terms varying, at |rho| < 1 or at |rho| >= 1 (collinear), or with
    a Wald statistic past 1412, where p/2 is subnormal (tail); one term
    exact (its range within EXACT_RTOL of its moment, which may be 0, and
    its sample spread up to twice that, as rounding may leave it), on its
    moment or off it beyond that tolerance (a certain miss); or both exact
    and on their moments (no degree of freedom)."""
    case = case or draw(st.sampled_from(UT_CASES))
    moment = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e5),
                       st.floats(min_value=-1e5, max_value=-1e-6))
    mx, my = draw(moment), draw(moment)
    vx, vy = (draw(st.floats(min_value=1e-12, max_value=1e6)) for _ in range(2))
    dx, dy = (draw(st.floats(min_value=-1e3, max_value=1e3)) for _ in range(2))
    rho = draw(st.floats(min_value=-0.999, max_value=0.999))
    if case == "collinear":
        rho = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(min_value=1.001, max_value=1.1))
    elif case == "tail":   # tx of 60 to 1e100 at n = 100: W >= tx^2 / 2 > 1412
        dx = math.sqrt(vx) / 10.0 * draw(st.floats(min_value=60.0, max_value=1e100))
    tol = [montecarlo.EXACT_RTOL * abs(m) for m in (mx, my)]
    on = [draw(st.floats(min_value=-1.0, max_value=1.0)) * t for t in tol]
    off = [draw(st.sampled_from([-1.0, 1.0])) * max(t * draw(st.floats(1.01, 1e6)), 1e-300)
           for t in tol]
    spread = [(draw(st.floats(min_value=0.0, max_value=2.0)) * t) ** 2 for t in tol]
    span = [draw(st.floats(min_value=0.0, max_value=1.0)) * t for t in tol]
    # A varying term's range: at least 1e-6, beyond every tolerance here.
    rx, ry = (math.sqrt(v) * draw(st.floats(min_value=2.0, max_value=10.0)) for v in (vx, vy))
    cxy = rho * math.sqrt(vx) * math.sqrt(vy)
    if case.startswith("x") or case == "both exact":
        vx, rx, dx = spread[0], span[0], (off if case == "x miss" else on)[0]
    if case.startswith("y") or case == "both exact":
        vy, ry, dy = spread[1], span[1], (off if case == "y miss" else on)[1]
    return dx, dy, vx, vy, cxy, rx, ry, mx, my


class TestMomentTestAgainstScalarLoop:
    """The moment tests' array passes (``montecarlo._wald`` and
    ``_p_and_z``) against the loop that tested one UT at a time in Python
    floats (``oracles.moment_tests_scalar``): W, p and z bit for bit."""

    @staticmethod
    def check(n, uts):
        columns = list(np.array(uts, dtype=float).reshape(-1, 9).T)
        wald, dof = montecarlo._wald(n, *columns)
        p, z = montecarlo._p_and_z(wald, dof)
        want = np.array(oracles.moment_tests_scalar(n, *columns)).reshape(-1, 3)
        for got, column in zip((wald, p, z), want.T):
            assert np.array_equal(bits(got), bits(column)), np.flatnonzero(got != column)
        return wald, dof

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=2, max_value=10**6), uts=st.lists(ut_terms(), max_size=12))
    def test_array_pass_matches_the_scalar_loop(self, n, uts):
        self.check(n, uts)

    def test_squares_are_pows(self):
        # v ** 2 (C's pow) and v * v differ in their last bit for this v, so
        # a one-term W of tx = v and a two-term W of ty = v (rho = 0) must
        # each take pow's square, as the loop's ** 2 does.
        v = 1.7304368023068515
        assert v ** 2 != v * v
        self.check(4, [(0.0, v / 2.0, 0.0, 1.0, 0.0, 0.0, 4.0, 1.0, 5.0),
                       (v / 2.0, 0.25, 1.0, 1.0, 0.0, 4.0, 4.0, 1.0, 5.0)])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_case(self, data):
        # One UT of each case, with the statistic each case must give.
        uts = [data.draw(ut_terms(case), label=case) for case in UT_CASES]
        wald, dof = self.check(100, uts)
        got = dict(zip(UT_CASES, zip(wald.tolist(), dof.tolist())))
        assert got["both vary"][1] == 2 and got["tail"][0] > 1412.0
        assert got["collinear"][1] == 1 and got["both exact"] == (0.0, 0)
        assert got["x miss"] == got["y miss"] == (math.inf, 1)
        assert got["x exact"][1] == got["y exact"][1] == 1


class TestMomentTest:
    @settings(max_examples=200)
    @given(w=st.floats(min_value=0.0, max_value=1.7976931348623157e308))
    def test_z_is_finite_for_every_finite_wald(self, w):
        for dof in (1, 2):
            p, z = p_and_z(w, dof)
            assert 0.0 <= p <= 1.0 and 0.0 <= z < math.inf, (w, dof, p, z)
        p, z = p_and_z(w, 2)
        if p > 1e-300:
            # p = exp(-W/2) and P(|N(0, 1)| > z) = p.
            assert p == math.exp(-w / 2)
            assert math.erfc(z / math.sqrt(2.0)) == pytest.approx(p, rel=1e-9)
        assert p_and_z(w, 1)[1] == math.sqrt(w)

    def test_z_rises_with_wald_across_the_tail_series(self):
        # Past W = 1412, p/2 is subnormal and z comes from the tail series.
        w = np.linspace(1300.0, 1600.0, 3001).tolist() + [1e4, 1e100, 1e300, math.inf]
        z = [p_and_z(x, 2)[1] for x in w]
        assert all(a < b for a, b in zip(z, z[1:]))
        assert max(b - a for a, b in zip(z, z[1:-4])) < 2e-3   # no jump at the switch
        assert z[-1] == math.inf

    def test_degenerate_terms(self):
        # An exact term with no offset leaves the other to test alone; an
        # exact term off its moment is a certain miss; two exact terms on
        # their moments pass.
        wald = one_wald
        assert wald(100, 0.0, 0.3, 0.0, 4.0, 0.0, 0.0, 8.0, 1.0, 5.0) == (pytest.approx(2.25), 1)
        assert wald(100, 0.3, 0.0, 4.0, 0.0, 0.0, 8.0, 0.0, 1.0, 5.0) == (pytest.approx(2.25), 1)
        assert wald(100, 1e-9, 0.3, 0.0, 4.0, 0.0, 0.0, 8.0, 1.0, 5.0) == (math.inf, 1)
        assert wald(100, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 5.0) == (0.0, 0)
        assert wald(100, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == (0.0, 0)
        assert p_and_z(0.0, 0) == (1.0, 0.0)
        assert p_and_z(math.inf, 1) == (0.0, math.inf)
        # Collinear terms: the received power alone.
        assert wald(100, 0.2, 0.3, 1.0, 4.0, 2.0, 4.0, 8.0, 1.0, 5.0) == (pytest.approx(2.25), 1)

    def test_rounding_level_range_is_exact(self):
        # ZF's desired term: a range, a spread and an offset at rounding
        # level, 6e-16, 1.5e-16 and 4.2e-16 of m1, leave the received power
        # to test alone.  An offset beyond EXACT_RTOL of m1 is a certain
        # miss, also when rounding left a sample spread beyond it (1e-10 of
        # a 5% offset), and a range beyond it makes the pair a two-term test.
        tol, m1 = montecarlo.EXACT_RTOL, 2.0
        wald = one_wald
        assert wald(100, 4.2e-16 * m1, 0.3, (1.5e-16 * m1) ** 2, 4.0, 1e-17, 6e-16 * m1, 8.0,
                    m1, 5.0) == (pytest.approx(2.25), 1)
        assert wald(100, 2.0 * tol * m1, 0.3, (0.5 * tol * m1) ** 2, 4.0, 0.0, 0.5 * tol * m1,
                    8.0, m1, 5.0) == (math.inf, 1)
        assert wald(100, 0.05 * m1, 0.3, (5e-12 * m1) ** 2, 4.0, 0.0, 0.0, 8.0, m1, 5.0) == \
            (math.inf, 1)
        assert wald(100, 0.0, 0.3, (2.0 * tol * m1) ** 2, 4.0, 0.0, 4.0 * tol * m1, 8.0,
                    m1, 5.0) == (pytest.approx(2.25), 2)


SHAPES = {"mixed": {"u_range": (1, 4), "g_range": (1, 3)},
          "no unicast": {"u_range": (0, 0), "g_range": (1, 3)},
          "no groups": {"u_range": (1, 4), "g_range": (0, 0)}}


def close(a, b, rel):
    return a == b or abs(a - b) <= rel * abs(b)


class TestStreamedAgainstStoredTerms:
    """The streamed validator against the ones that stored every trial's
    terms (``oracles``): the jackknife validator of the stored-terms
    section and the two-pass moment tests over the terms the serial loop
    stores, both on the conditional loop trials."""

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           shape=st.sampled_from(sorted(SHAPES)))
    def test_reports_match(self, precoder, seed, shape):
        cfg, fading, pilots_un, pilots_mu, powers = small_mc_cell(seed, precoder, **SHAPES[shape])
        args = (cfg, fading, pilots_un, pilots_mu, powers, precoder, 100, seed)
        new = validate_closed_form(*args)
        # One run of the loop trials feeds both oracles.
        trials = list(oracles.conditional_trials(*args))
        old = oracles.validate_closed_form_stored(*args, trials=trials)
        two_pass = oracles.moment_tests_two_pass(oracles.run_trials_serial(*args, trials=trials))
        assert (new.precoder, new.n_trials, new.n_discarded) == \
            (old.precoder, old.n_trials, old.n_discarded)
        assert len(new.records) == len(old.records) == len(two_pass) \
            == cfg.n_unicast + sum(cfg.group_sizes)
        for a, b, tests in zip(new.records, old.records, two_pass):
            assert (a.kind, a.index, a.closed_form) == (b.kind, b.index, b.closed_form)
            # The plug-in SINR of the jackknife era, to rounding: the sums
            # now run in trial order where numpy summed pairwise.
            assert close(a.empirical, b.empirical, 1e-12), (a, b)
            for got, want in zip((a.wald, a.p_value, a.z, a.m1_over_se), tests):
                assert close(got, want, 1e-8), (a, tests)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           shape=st.sampled_from(sorted(SHAPES)))
    def test_observations_bit_identical_to_complex_draw(self, seed, shape):
        # The kernel's unit draw of the pilot observations, or of R's upper
        # triangle, is the complex draw's re + 1j*im.
        cfg, *_ = small_mc_cell(seed, "mrt", **SHAPES[shape])
        rng, rng_o = trial_rng(seed, 0), trial_rng(seed, 0)
        size = (cfg.n_antennas, cfg.n_streams)
        re, im = oracles._normal_parts(rng_o, size)
        assert np.array_equal(bits(montecarlo._cn(rng, np.empty(size, dtype=complex))),
                              bits(re + 1j * im))
        # The draws that follow continue the same stream.
        assert rng.standard_normal(4).tolist() == rng_o.standard_normal(4).tolist()


class CountedRng:
    """A trial's generator that counts the complex normals and the gamma
    variates drawn from it."""

    def __init__(self, rng):
        self.rng, self.normals, self.gammas = rng, 0, 0

    def standard_normal(self, *, out):
        self.normals += out.size // 2
        return self.rng.standard_normal(out=out)

    def standard_gamma(self, shape, *, out=None):
        self.gammas += np.size(shape)
        return self.rng.standard_gamma(shape, out=out)


def factor_kernel(n_antennas, n_streams):
    """The trial kernel of an MRT cell with N antennas and S unicast UTs,
    for its observations' factor (``_Kernel._factor``)."""
    cfg = make_config(n_unicast=n_streams, group_sizes=(), n_antennas=n_antennas)
    fading = FadingProfile(unicast_gains=(1.0,) * n_streams, multicast_gains=())
    powers = DownlinkPowers.equal_split(cfg.total_power, n_streams, 0.0, 0)
    return oracles.trial_kernel(cfg, fading, *cap_pilots(cfg), powers, MRT, 0)


class TestBartlettDraw:
    """A trial draws only the k x S factor R of the pilots' unit
    observations, k = min(N, S), never a UT's channel or an N x S array."""

    @pytest.mark.parametrize("n_antennas, precoder", [(64, "mrt"), (64, "zf"), (4, "mrt"),
                                                       (6, "mrt"), (7, "mrt"), (7, "zf")])
    def test_trial_draws_only_the_factor(self, monkeypatch, n_antennas, precoder):
        # The k x S upper trapezoid's k S - k (k - 1)/2 complex normals and
        # k gamma variates, k = min(N, S): S (S + 1)/2 and S when N > S.  At
        # N = S + 1, and at N <= S, the last gamma variate has shape 0, and
        # is drawn all the same.
        cfg, fading = small_system(n_antennas=n_antennas, n_unicast=4, group_sizes=(3, 3))
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, 4, half, 2)
        rngs = []
        factor = montecarlo._Kernel._factor

        def counted(self, rng, *rows):
            rngs.append(CountedRng(rng))
            return factor(self, rngs[-1], *rows)

        monkeypatch.setattr(montecarlo._Kernel, "_factor", counted)
        report = validate_closed_form(cfg, fading, *cap_pilots(cfg), powers, precoder, 100, 3)
        N, S = n_antennas, 6
        assert (report.n_trials, report.n_discarded) == (100, 0)
        k = min(N, S)
        want = (k * S - k * (k - 1) // 2, k)
        assert {(rng.normals, rng.gammas) for rng in rngs} == {want} and len(rngs) == 100

    @pytest.mark.parametrize("n_antennas", [40, 64, 100, 500])
    def test_factor_has_the_wishart_law(self, n_antennas):
        # G = R^H R has the law of Y^H Y for N x S unit draws Y: E G_ss = 2N,
        # E |G_st|^2 = 4N off the diagonal and, when N > S, E (G^-1)_ss =
        # 1/(2 (N - S)).  Each draw gives one sample of each, averaged over
        # s (and s, t).  At N = 64, 1/(G^-1)_ss has 2 (N - S + 1) = 10
        # degrees of freedom, so (G^-1)_ss still has the finite variance the
        # standard error needs.  At N = 40 < S, G is singular, and R is
        # 40 x 60.
        N, S, draws = n_antennas, 60, 2000
        kernel = factor_kernel(N, S)
        rng = np.random.default_rng(17)
        samples = np.empty((draws, 3 if N > S else 2))
        assert kernel.factors.shape[1:] == (min(N, S), S)
        R = kernel.factors[0]
        for i in range(draws):
            R[np.triu_indices(min(N, S), m=S)] = np.nan   # every entry the draw must fill
            kernel._factor(rng, kernel.normals[0], kernel.gammas[0])
            kernel._complete(1)
            assert np.array_equal(R, np.triu(R)) and (R.diagonal().real > 0.0).all()
            gram = R.conj().T @ R
            samples[i, :2] = (gram.diagonal().real.mean() / (2.0 * N),
                              (np.abs(gram[np.triu_indices(S, 1)]) ** 2).mean() / (4.0 * N))
            if N > S:
                rows = np.linalg.inv(R)   # (G^-1)_ss = ||row s of R^-1||^2
                samples[i, 2] = (np.abs(rows) ** 2).sum(axis=1).mean() * 2.0 * (N - S)
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(draws)
        assert (np.abs(mean - 1.0) <= 4.0 * se).all(), (mean, se)

    def test_tall_cell_peak_below_one_channel_matrix(self):
        # 512 antennas and 400 UTs: the N x users channel matrix a trial
        # drew before took 3.3 MB by itself.
        u, sizes = 20, (95,) * 4
        cfg = make_config(n_unicast=u, group_sizes=sizes, pilot_length=u + len(sizes),
                          n_antennas=512, cap=2.0)
        rng = np.random.default_rng(2)
        fading = FadingProfile(unicast_gains=rng.uniform(0.2, 1.5, u),
                               multicast_gains=tuple(rng.uniform(0.2, 1.5, k) for k in sizes))
        powers = DownlinkPowers.equal_split(cfg.total_power / 2.0, u,
                                            cfg.total_power / 2.0, len(sizes))
        tracemalloc.start()
        try:
            validate_closed_form(cfg, fading, *cap_pilots(cfg), powers, "zf", 100, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 400 * 16, f"{peak / 1e6:.2f} MB"


class TestMemory:
    def test_peak_grows_by_at_most_1_byte_per_ut_per_trial(self):
        # Many streams per UT: storing every per-stream power would cost
        # 8 * (U + G) = 192 bytes per UT per trial, and storing each trial's
        # desired term and received power 16.
        u, sizes = 20, (10,) * 4
        cfg = make_config(n_unicast=u, group_sizes=sizes, pilot_length=u + len(sizes),
                          n_antennas=64, cap=2.0)
        rng = np.random.default_rng(1)
        fading = FadingProfile(unicast_gains=rng.uniform(0.2, 1.5, u),
                               multicast_gains=tuple(rng.uniform(0.2, 1.5, k) for k in sizes))
        pilots_un, pilots_mu = cap_pilots(cfg)
        powers = DownlinkPowers.equal_split(cfg.total_power / 2.0, u,
                                            cfg.total_power / 2.0, len(sizes))

        def peak(n_trials):
            tracemalloc.start()
            try:
                validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, "mrt",
                                     n_trials, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The first run of a process peaks up to 0.1 MB higher whatever its
        # trial count, so it is left out.
        peak(800)
        growth = (peak(800) - peak(200)) / 600 / (u + sum(sizes))
        assert growth <= 1.0, f"{growth:.2f} bytes per UT per trial"

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_paper_cell_peak_is_one_block(self, precoder):
        # The paper cell (1050 UTs, 60 streams): a run holds one block's
        # factor stack, 8 x 60 x 60 complex entries (0.46 MB), whatever its
        # trial count.  Measured at 0.70 (ZF) to 0.87 MB (MRT); the per-trial
        # kernel peaked at 0.63 MB.
        cfg = default_normalized_config(n_antennas=100, coherence_length=200, n_unicast=50,
                                        group_sizes=(100,) * 10)
        fading, _ = place_users(CellGeometry(), 50, (100,) * 10, 5)
        tau, half = cfg.pilot_length, cfg.total_power / 2.0
        pilots = (cfg.unicast_energy_caps / tau, [c / tau for c in cfg.multicast_energy_caps])
        powers = DownlinkPowers.equal_split(half, 50, half, 10)

        def peak(n_trials):
            tracemalloc.start()
            try:
                validate_closed_form(cfg, fading, *pilots, powers, precoder, n_trials, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)   # the first run of a process peaks higher
        short, long = peak(200), peak(1000)
        assert short <= 1.5e6, f"{short / 1e6:.2f} MB"
        assert abs(long - short) <= 0.1e6, f"{short / 1e6:.2f} MB, then {long / 1e6:.2f} MB"


def fail_in_trials(monkeypatch, errors):
    """Make trial t fail with ``errors[t]``: ``oracles.RankDeficientDraw``
    discards it, and any other error is raised as ``errors[t]("forced in
    trial t")``.  In the trial kernel a discard is forced through the
    condition bounds ``_zf_row_norms`` returns for the block, the trial's set
    to NaN, and an error is raised from ``_Kernel._factor``, which runs once
    per trial in trial order: the block step numbers its trials from the
    block's first, and each call takes the next number.  The loop builders
    the serial oracle calls raise both in the trial ``trial_rng`` tags."""
    current = {}
    trial_rng_, row_norms = montecarlo.trial_rng, montecarlo._zf_row_norms
    block, factor = montecarlo._Kernel.__call__, montecarlo._Kernel._factor
    lost = {t for t, error in errors.items() if error is oracles.RankDeficientDraw}

    def tagged_rng(seed, t):
        current["trial"] = t
        return trial_rng_(seed, t)

    def numbered_block(self, start, stop):
        current["start"] = current["next"] = start
        return block(self, start, stop)

    def failing_factor(self, *args):
        t = current["next"]
        current["next"] += 1
        if t in errors and t not in lost:
            raise errors[t](f"forced in trial {t}")
        return factor(self, *args)

    def losing_rank(R):
        rows, bounds = row_norms(R)
        start = current["start"]
        bounds[[t - start for t in range(start, start + len(R)) if t in lost]] = math.nan
        return rows, bounds

    def failing(build):
        def step(*args):
            t = current["trial"]
            if t in errors:
                raise errors[t](f"forced in trial {t}")
            return build(*args)
        return step

    monkeypatch.setattr(montecarlo, "trial_rng", tagged_rng)
    monkeypatch.setattr(montecarlo, "_zf_row_norms", losing_rank)
    monkeypatch.setattr(montecarlo._Kernel, "__call__", numbered_block)
    monkeypatch.setattr(montecarlo._Kernel, "_factor", failing_factor)
    for name in ("build_mrt_precoders_loop", "build_zf_precoders_loop"):
        monkeypatch.setattr(oracles, name, failing(getattr(oracles, name)))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


SUMS = ("x", "xx", "y", "yy", "xy")
EXTREMES = ("x_low", "x_high", "y_low", "y_high")


def recorded_run(args):
    """``_run_trials`` with each trial's observations' factor and each kept
    trial's terms as they entered the sums: (sums, factors, desired,
    received), the factors one per trial, as each block drew them, and the
    terms one column per kept trial."""
    factors, terms = [], []
    draw, commit = montecarlo._Kernel._draw, montecarlo._Sums.commit

    def record_draw(self, start, stop):
        R = draw(self, start, stop)
        factors.extend(R.copy())
        return R

    def record_commit(self, received, desired, discarded):
        terms.extend(zip(desired.copy(), received.copy()))
        commit(self, received, desired, discarded)

    with mock.patch.object(montecarlo._Kernel, "_draw", record_draw), \
            mock.patch.object(montecarlo._Sums, "commit", record_commit):
        sums, _ = montecarlo._run_trials(*args)
    desired, received = (np.stack(a, axis=1) for a in zip(*terms))
    return sums, factors, desired, received


# The kernel forms each UT's terms from R^T conj(R_x) where the loop oracle
# takes one inner product at a time with N-row precoders, so their terms
# differ by rounding: up to 2.1e-15 of a trial's largest term on 360 desk
# cells of 30 trials.
TERMS_RTOL = 1e-12


def assert_matches_serial(args, sums, factors, desired, received, serial):
    """A recorded run against ``oracles.run_trials_serial``: each trial's
    factor bit for bit the oracle's draw (``bartlett_factor``), the same
    trials kept and moments to the bit, each kept trial's d and r within
    TERMS_RTOL of that trial's largest |d| and r, and sums that are the
    recorded terms' sums in trial order, to the bit, as are the least and
    greatest x = d - m1 and y = r - m2."""
    cfg, seed = args[0], args[-1]
    for t, R in enumerate(factors):
        want = oracles.bartlett_factor(trial_rng(seed, t), cfg.n_antennas, cfg.n_streams)
        assert np.array_equal(bits(R), bits(want)), t
    assert (sums.kept, sums.discarded) == (serial.kept, serial.discarded)
    assert desired.shape == received.shape == serial.desired.shape
    d_err = np.abs(desired - serial.desired).max(axis=0)
    r_err = np.abs(received - serial.received).max(axis=0)
    assert (d_err <= TERMS_RTOL * np.abs(serial.desired).max(axis=0)).all(), d_err.max()
    assert (r_err <= TERMS_RTOL * serial.received.max(axis=0)).all(), r_err.max()
    summed = oracles.sum_terms(serial.m1, serial.m2, desired, received)
    for name in ("m1", "m2"):
        assert np.array_equal(bits(getattr(sums, name)), bits(getattr(serial, name))), name
    for name in SUMS:
        assert np.array_equal(bits(getattr(sums, name)), bits(summed[name])), name
    x, y = desired - sums.m1[:, None], received - sums.m2[:, None]
    for name, want in zip(EXTREMES, (x.min(axis=1), x.max(axis=1), y.min(axis=1),
                                     y.max(axis=1))):
        assert np.array_equal(bits(getattr(sums, name)), bits(want)), name


class TestKernelAgainstLoops:
    """The trial kernel, which forms every UT's conditional terms from R at
    once and scales them by per-UT coefficients, against the conditional
    loop oracle, which builds the precoders from R one column at a time and
    takes each UT's mean over its estimation error one stream at a time
    (``oracles``, conditional-loop section)."""

    @staticmethod
    def check(args):
        assert_matches_serial(args, *recorded_run(args), oracles.run_trials_serial(*args))

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           shape=st.sampled_from(sorted(SHAPES)))
    def test_terms_match(self, precoder, seed, shape):
        # Under MRT, small_mc_cell leaves a unicast UT and a group without
        # pilots or power when there are two or more.
        self.check((*small_mc_cell(seed, precoder, **SHAPES[shape]), precoder, 60, seed))

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("group_sizes", [(2, 1, 3), (1, 1, 1), (6,)],
                             ids=["mixed", "singletons", "one group"])
    def test_terms_match_across_group_layouts(self, precoder, group_sizes):
        # A group of one has no other member, so its leave-one-out sum is
        # empty and its error variance is a unicast UT's; a group of six
        # takes five others from the prefix and suffix sums.
        cfg, fading = small_system(n_antennas=32, n_unicast=3, group_sizes=group_sizes)
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, 3, half, len(group_sizes))
        self.check((cfg, fading, *cap_pilots(cfg), powers, precoder, 60, 8))

    @pytest.mark.parametrize("precoder, silent", [
        ("mrt", "unicast"), ("mrt", "group"), ("zf", "unicast"), ("zf", "group"),
        ("mrt", "unicast without pilot"), ("mrt", "group without pilot")])
    def test_unpowered_uts(self, precoder, silent):
        cfg, fading = small_system(n_unicast=2, group_sizes=(2, 2))
        pilots_un, pilots_mu = cap_pilots(cfg)
        unicast, multicast = [2.0, 2.0], [3.0, 3.0]
        if silent.startswith("unicast"):
            unicast[0] = 0.0
            if silent.endswith("pilot"):
                pilots_un[0] = 0.0
        else:
            multicast[1] = 0.0
            if silent.endswith("pilot"):
                pilots_mu[1] = [0.0, 0.0]
        powers = DownlinkPowers(unicast=unicast, multicast=multicast)
        self.check((cfg, fading, pilots_un, pilots_mu, powers, precoder, 80, 4))

    @pytest.mark.parametrize("n_antennas, precoder", [(4, "mrt"), (6, "mrt"), (7, "zf")])
    def test_few_antennas(self, n_antennas, precoder):
        # Six pilots: with N <= S a trial draws the N x S trapezoidal factor;
        # with N = S + 1, ZF keeps one spare antenna.
        cfg, fading = small_system(n_antennas=n_antennas, n_unicast=4, group_sizes=(3, 3))
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, 4, half, 2)
        self.check((cfg, fading, *cap_pilots(cfg), powers, precoder, 60, 6))


class TestConditionalTerms:
    """The conditional terms against full draws (``oracles``, full-draw
    section), and their estimation-error variance against exact rational
    arithmetic."""

    @staticmethod
    def cell(n_antennas, precoder):
        cfg, fading = small_system(n_antennas=n_antennas, n_unicast=3, group_sizes=(2, 3))
        pilots_un, pilots_mu = cap_pilots(cfg)
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, 3, half, 2)
        return cfg, fading, pilots_un, pilots_mu, powers, precoder

    @pytest.mark.parametrize("n_antennas, precoder", [(24, "mrt"), (24, "zf"), (4, "mrt"),
                                                       (5, "mrt"), (6, "zf")])
    def test_mean_of_full_draws_matches_conditional_terms(self, n_antennas, precoder):
        # One factor R of the observations, then 2000 draws of every UT's
        # residual given it: their mean terms must lie within 4 standard
        # errors of the conditional terms, and d's imaginary part of 0.
        # Five pilots: N = 5 is MRT's square observations, N = 6 ZF's one
        # spare antenna.
        cell = self.cell(n_antennas, precoder)
        kernel = oracles.trial_kernel(*cell, 0)
        R = kernel._draw(0, 1)[0].copy()
        (received,), (desired,), _ = kernel(0, 1)
        full = oracles.FullDrawKernel(*cell, 0)
        rng = np.random.default_rng(23)
        draws = [full.residual_terms(R, rng) for _ in range(2000)]
        for got, want in ((np.stack([r for r, _ in draws]), received),
                          (np.stack([d.real for _, d in draws]), desired),
                          (np.stack([d.imag for _, d in draws]), 0.0 * desired)):
            mean, se = got.mean(axis=0), got.std(axis=0, ddof=1) / math.sqrt(len(draws))
            assert (np.abs(mean - want) <= 4.0 * se).all(), (mean - want) / se

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_full_draw_oracle_matches_lifted_loops(self, precoder):
        # The full-draw oracle, the trial kernel before this one, against
        # the loops on its own draws lifted to full channels.
        cfg, fading, pilots_un, pilots_mu, powers, _ = cell = self.cell(24, precoder)
        full = oracles.FullDrawKernel(*cell, 9)
        lifted = oracles.lifted_trials(*cell, 30, 9)
        for t, (draw, loops) in enumerate(zip(map(full, range(30)), lifted)):
            received, desired = draw
            want_desired, power = loops
            want = power.sum(axis=1)
            assert np.abs(received - want).max() <= TERMS_RTOL * want.max(), t
            assert np.abs(desired - want_desired).max() \
                <= TERMS_RTOL * np.abs(want_desired).max(), t

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_error_variance_matches_exact_fractions(self, data):
        # Each UT's 2 (1 - c w), scaled by its gain / 2, at pilot energies
        # tau * power * gain from 1e-6 to 1e30: formed as 1 - c w, it would
        # lose every digit once a pilot's energy dwarfs 1.
        u = data.draw(st.integers(min_value=0, max_value=4), label="unicast UTs")
        sizes = tuple(data.draw(st.lists(st.integers(min_value=1, max_value=4),
                                         min_size=0 if u else 1, max_size=3), label="groups"))
        cfg = make_config(n_unicast=u, group_sizes=sizes, n_antennas=u + len(sizes) + 2)
        users = u + sum(sizes)

        def per_ut(strategy, label):
            return np.array(data.draw(st.lists(strategy, min_size=users, max_size=users),
                                      label=label))

        gains = per_ut(st.floats(min_value=0.01, max_value=2.0), "gains")
        energy = 10.0 ** per_ut(st.floats(min_value=-6.0, max_value=30.0), "log10 energy")
        pilots = energy / (cfg.pilot_length * gains)
        edges = np.cumsum([u, *sizes]).tolist()
        fading = FadingProfile(unicast_gains=gains[:u],
                               multicast_gains=[gains[a:b] for a, b in zip(edges, edges[1:])])
        pilots_un, pilots_mu = pilots[:u], [pilots[a:b] for a, b in zip(edges, edges[1:])]
        powers = DownlinkPowers.equal_split(1.0 if u else 0.0, u, 1.0 if sizes else 0.0,
                                            len(sizes))
        got = oracles.trial_kernel(cfg, fading, pilots_un, pilots_mu, powers, ZF, 0).incoherent
        exact = oracles.error_variances_exact(cfg, fading, pilots_un, pilots_mu)
        want = np.array([float(e * Fraction(float(g)) / 2) for e, g in zip(exact, gains)])
        assert (np.abs(got - want) <= 1e-14 * want).all(), np.abs(got / want - 1.0).max()


class TestTrialOrder:
    """Trials run in trial order on the calling thread, against the serial
    loop (``oracles``, serial streamed section)."""

    # The first trial, a run of neighbours and the last one; or every trial
    # of one block, which then keeps none.
    DISCARDED = {"scattered": (0, 1, 2, 40, 41, 99), "a whole block": tuple(range(8, 16))}

    @staticmethod
    def cell(precoder):
        cfg, fading = small_system(n_antennas=64, n_unicast=4, group_sizes=(3, 3))
        pilots_un, pilots_mu = cap_pilots(cfg)
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, cfg.n_unicast, half, cfg.n_groups)
        return cfg, fading, pilots_un, pilots_mu, powers, precoder

    @pytest.mark.parametrize("discarded", DISCARDED)
    def test_discarded_trials_leave_the_rest_in_order(self, monkeypatch, discarded):
        # Only ZF's rank rule discards a draw; MRT has none.
        args = (*self.cell("zf"), 100, 19)
        lost = self.DISCARDED[discarded]
        fail_in_trials(monkeypatch, dict.fromkeys(lost, oracles.RankDeficientDraw))
        serial = oracles.run_trials_serial(*args)
        assert (serial.kept, serial.discarded) == (100 - len(lost), len(lost))
        assert_matches_serial(args, *recorded_run(args), serial)

    @pytest.mark.parametrize("errors, raised, trial", [
        ({3: oracles.RankDeficientDraw, 23: DegenerateInputError, 24: ValueError},
         DegenerateInputError, 23),
        ({0: ValueError, 1: DegenerateInputError}, ValueError, 0),
        ({**dict.fromkeys(range(99), oracles.RankDeficientDraw), 99: DegenerateInputError},
         DegenerateInputError, 99),
    ], ids=["middle", "first", "last"])
    def test_lowest_failing_trial_raises(self, monkeypatch, errors, raised, trial):
        # The lowest trial that raises stops the run with its own error:
        # trial 23 fails as a degenerate input would, before trial 24 could
        # fail with another type; the first trial stops the run before any
        # other runs; and a last trial that raises after 99 discards is
        # reported as itself, not as too few usable trials.
        args = (*self.cell("zf"), 100, 5)
        fail_in_trials(monkeypatch, errors)
        for run in (oracles.run_trials_serial, validate_closed_form):
            with pytest.raises(raised, match=f"trial {trial}$"):
                run(*args)

    @pytest.mark.parametrize("where", ["last", "first"])
    @pytest.mark.parametrize("kept", [0, 1, 2])
    def test_run_needs_two_kept_trials(self, monkeypatch, kept, where):
        # Every trial but the last (or the first) `kept` loses rank.  The
        # moment test needs two kept trials: fewer raise, as the serial loop
        # does, and two give a report.
        args = (*self.cell("zf"), 100, 13)
        lost = range(100 - kept) if where == "last" else range(kept, 100)
        fail_in_trials(monkeypatch, dict.fromkeys(lost, oracles.RankDeficientDraw))
        if kept < 2:
            for run in (oracles.run_trials_serial, validate_closed_form):
                with pytest.raises(DegenerateInputError, match="fewer than 2 usable trials"):
                    run(*args)
        else:
            report = validate_closed_form(*args)
            assert (report.n_trials, report.n_discarded) == (2, 98)
            assert all(math.isfinite(rec.empirical) for rec in report.records)

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_sums_hold_one_value_per_ut(self, precoder):
        # What a run keeps is five sums, four extremes and the two moments
        # per UT, whatever the trial count; the sums are the sums of the
        # kept trials' terms, which match the serial loop's stored terms.
        args = (*self.cell(precoder), 60, 3)
        run = recorded_run(args)
        serial = oracles.run_trials_serial(*args)
        arrays = {k: v for k, v in vars(run[0]).items() if isinstance(v, np.ndarray)}
        assert sorted(arrays) == sorted(("m1", "m2", *SUMS, *EXTREMES))
        assert {a.shape for a in arrays.values()} == {(serial.desired.shape[0],)}
        assert_matches_serial(args, *run, serial)


class TestBlocksAgainstPerTrialKernel:
    """The blocked run against the kernel as it ran one trial at a time
    (``oracles``, per-trial section): its five sums and its kept and
    discarded counts, at several block sizes, bit for bit under MRT and
    within 1e-12 under ZF, whose row norms come from back substitution
    instead of an LU inverse.  The sums do not depend on the block size at
    all."""

    N_TRIALS = 101   # blocks of 3 and 8 leave a partial last block
    BLOCKS = (1, 3, 8)

    @staticmethod
    def cell(name):
        if name == "mrt, N <= S":   # six pilots on four antennas: R is 4 x 6
            cfg, fading = small_system(n_antennas=4, n_unicast=4, group_sizes=(3, 3))
        else:   # 18 streams: the back substitution runs 17 rows deep
            cfg, fading = small_system(n_antennas=40, n_unicast=12, group_sizes=(3,) * 6)
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, cfg.n_unicast, half, cfg.n_groups)
        return cfg, fading, *cap_pilots(cfg), powers, name.split(",")[0]

    @staticmethod
    def runs(monkeypatch, args):
        """The blocked run's sums at each block size."""
        sums = {}
        for block in TestBlocksAgainstPerTrialKernel.BLOCKS:
            monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", block)
            sums[block], _ = montecarlo._run_trials(*args)
        return sums

    def check(self, monkeypatch, args, rtol):
        want = oracles.run_trials_per_trial(*args)
        runs = self.runs(monkeypatch, args)
        first = runs[self.BLOCKS[0]]
        for block, got in runs.items():
            assert (got.kept, got.discarded) == (want.kept, want.discarded), block
            for name in ("m1", "m2", *SUMS):
                assert np.array_equal(bits(getattr(got, name)), bits(getattr(first, name))), \
                    (block, name)
        for name in SUMS:
            a, b = getattr(first, name), getattr(want, name)
            if rtol == 0.0:
                assert np.array_equal(bits(a), bits(b)), name
            else:
                assert (np.abs(a - b) <= rtol * np.abs(b)).all(), \
                    (name, np.max(np.abs(a - b) / np.abs(b)))
        return want

    @pytest.mark.parametrize("name, rtol", [("mrt", 0.0), ("mrt, N <= S", 0.0), ("zf", 1e-12)])
    def test_sums_match(self, monkeypatch, name, rtol):
        self.check(monkeypatch, (*self.cell(name), self.N_TRIALS, 21), rtol)

    def test_forced_discards_match(self, monkeypatch):
        # MAX_GRAM_COND set between the 51st and 52nd smallest condition
        # bounds of the run's 101 factors: both kernels discard the same 50
        # draws and keep the other 51 in order.
        args = (*self.cell("zf"), self.N_TRIALS, 22)
        kernel = oracles.trial_kernel(*args[:6], args[-1])
        bounds = np.sort(np.concatenate([
            montecarlo._zf_row_norms(kernel._draw(start, min(start + 8, self.N_TRIALS)))[1]
            for start in range(0, self.N_TRIALS, 8)]))
        assert bounds[51] > bounds[50] * (1.0 + 1e-9)   # no rounding flips a draw
        monkeypatch.setattr(montecarlo, "MAX_GRAM_COND", (bounds[50] + bounds[51]) / 2.0)
        want = self.check(monkeypatch, args, 1e-12)
        assert (want.kept, want.discarded) == (51, 50)
