import dataclasses
import json
import math
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimocast import closed_form, model, montecarlo
from mimocast.closed_form import MRT, PRECODERS, ZF, DownlinkPowers, se_report
from mimocast.errors import DegenerateInputError, ZfInfeasibleError
from mimocast.model import FadingProfile, estimation_variances
from mimocast.montecarlo import trial_rng, validate_closed_form

import oracles
from test_flat_arrays import small_mc_cell
from test_model import make_config


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


def kernel_trials(cfg, fading, pilots_un, pilots_mu, seed, n_trials=1, powers=None,
                  precoder=MRT, lift=False):
    """Trials 0, 1, ... of ``seed`` through the trial kernel's cores, composed
    as ``_Kernel`` composes them: once per run the estimator weights and,
    given downlink powers, the column scales; per trial (draw, C, X), the
    N x (U + G) estimates from the pilot observations drawn at unit variance
    and the precoder columns (None without powers).  With ``lift``, draw is
    the trial's draws lifted to full channels and pilot noise
    (``oracles.lifted_draw``), else None."""
    p, q = model._pilot_arrays(cfg, pilots_un, pilots_mu)
    estimator = montecarlo._estimator(cfg, fading, p, q)
    stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
    if powers is not None:
        scales = montecarlo._column_scales(cfg, powers, stats, precoder)
        columns = montecarlo._zf_columns if precoder == ZF else montecarlo._mrt_columns
    for t in range(n_trials):
        rng = trial_rng(seed, t)
        C = montecarlo._cn(rng, (cfg.n_antennas, cfg.n_streams)) * estimator.spread
        C *= estimator.factors
        draw = (oracles.lifted_draw(cfg, fading, pilots_un, pilots_mu, seed, t, powers,
                                    precoder, stats) if lift else None)
        yield draw, C, None if powers is None else columns(C, scales)


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
        x = montecarlo._cn(trial_rng(41, 0), (n, 1))[:, 0]
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
        scales = montecarlo._column_scales(cfg, powers, stats, ZF)
        (_, C, _), = kernel_trials(cfg, fading, pilots_un, pilots_mu, 900)
        montecarlo._zf_columns(C, scales)   # the draw itself has full rank
        C[:, stream] = scale * C[:, copy_of]
        with pytest.raises(montecarlo.RankDeficientDraw):
            montecarlo._zf_columns(C, scales)

    @pytest.mark.parametrize("silent", ["unicast UT 1", "group 0"])
    def test_stream_without_estimate_has_zero_column(self, silent):
        # A stream whose UTs send no pilot has an all-zero estimate.  MRT
        # sends it nothing; ZF, which nulls it for every other stream, is
        # refused by the run check even without power, and its core
        # discards such a draw rather than divide by the zero norm.
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
        with pytest.raises(montecarlo.RankDeficientDraw, match="all-zero column"):
            montecarlo._zf_columns(C, montecarlo._column_scales(cfg, powers, stats, ZF))

    def test_minimal_antenna_margin_keeps_rank(self):
        # One spatial degree of freedom left: the Gram must stay invertible
        # in every one of 10^4 draws.
        cfg, fading = small_system(n_antennas=4, n_unicast=2, group_sizes=(2,))
        powers = DownlinkPowers(unicast=(1.0, 1.0), multicast=(1.0,))
        for _ in kernel_trials(cfg, fading, *cap_pilots(cfg), 800, 10_000, powers, ZF):
            pass   # must not raise


class TestZfRuleAgainstEigensolve:
    """``_zf_columns``, which inverts the equilibrated Gram and discards a
    draw on the bound S * |trace(inverse)| of its condition number, against
    ``oracles.zf_columns_eigensolve``, which discarded on the condition
    number from ``eigvalsh`` and solved the Gram system."""

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_match_the_eigensolve_on_desk_draws(self, seed):
        cfg, fading, pilots_un, pilots_mu, powers = small_mc_cell(seed, ZF)
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        scales = montecarlo._column_scales(cfg, powers, stats, ZF)
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
            except montecarlo.RankDeficientDraw:
                return False
            return True

        if not kept(oracles.zf_columns_eigensolve):
            assert not kept(montecarlo._zf_columns)
        if defect != "none":
            assert not kept(montecarlo._zf_columns)

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
        assert calls == {"eigvalsh": 0, "inv": 200}


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

    def test_interference_scaling_tracks_closed_form(self):
        # Doubling every downlink power doubles the numerator but also the
        # interference; the empirical SINR must track the closed-form ratio
        # at both operating points.
        cfg, fading = small_system(cap=2.0)
        cfg = dataclasses.replace(cfg, total_power=40.0)
        pilots_un, pilots_mu = cap_pilots(cfg)
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        lo = DownlinkPowers(unicast=(2.0, 1.0), multicast=(3.0,))
        hi = DownlinkPowers(unicast=(4.0, 2.0), multicast=(6.0,))
        for powers in (lo, hi):
            cf = se_report(cfg, stats, fading, powers, "mrt").unicast_sinr[0]
            report = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, "mrt",
                                          3000, 41)
            rec = record(report, "unicast", (0,))
            assert rec.closed_form == cf
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
        columns = montecarlo._mrt_columns
        monkeypatch.setattr(montecarlo, "_mrt_columns", lambda *args: 1.1 * columns(*args))
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
            return tuple((1.05 * signal, interference)
                         for signal, interference in sinr_terms(*args))

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
        fail_in_trials(monkeypatch, dict.fromkeys((4, 9, 30), montecarlo.RankDeficientDraw))
        powers = DownlinkPowers(unicast=(0.0, 4.0), multicast=(3.0, 3.0))
        report = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers, "mrt", 120, 6)
        doc = report.to_dict()
        zs = {kind: [r.z for r in report.records if r.kind == kind]
              for kind in ("unicast", "multicast")}
        assert (doc["n_trials"], doc["n_discarded"], doc["discarded_fraction"]) == \
            (117, 3, 3 / 120)
        assert doc["worst_z"] == max(zs["unicast"] + zs["multicast"]) > 0.0
        assert doc["pass_rate_by_kind"] == {
            kind: sum(1 for z in v if z <= 3.0) / len(v) for kind, v in zs.items()}
        assert doc["n_weak_signal"] == sum(1 for r in report.records if r.m1_over_se < 2.0) >= 1
        # A report without records, as a run with no UTs would give.
        empty = dataclasses.replace(report, records=(), pass_rate=1.0, passed=True).to_dict()
        assert (empty["worst_z"], empty["pass_rate_by_kind"], empty["n_weak_signal"]) == \
            (0.0, {}, 0)


class TestMomentTest:
    @settings(max_examples=200)
    @given(w=st.floats(min_value=0.0, max_value=1.7976931348623157e308))
    def test_z_is_finite_for_every_finite_wald(self, w):
        for dof in (1, 2):
            p, z = montecarlo._p_and_z(w, dof)
            assert 0.0 <= p <= 1.0 and 0.0 <= z < math.inf, (w, dof, p, z)
        p, z = montecarlo._p_and_z(w, 2)
        if p > 1e-300:
            # p = exp(-W/2) and P(|N(0, 1)| > z) = p.
            assert p == math.exp(-w / 2)
            assert math.erfc(z / math.sqrt(2.0)) == pytest.approx(p, rel=1e-9)
        assert montecarlo._p_and_z(w, 1)[1] == math.sqrt(w)

    def test_z_rises_with_wald_across_the_tail_series(self):
        # Past W = 1412, p/2 is subnormal and z comes from the tail series.
        w = np.linspace(1300.0, 1600.0, 3001).tolist() + [1e4, 1e100, 1e300, math.inf]
        z = [montecarlo._p_and_z(x, 2)[1] for x in w]
        assert all(a < b for a, b in zip(z, z[1:]))
        assert max(b - a for a, b in zip(z, z[1:-4])) < 2e-3   # no jump at the switch
        assert z[-1] == math.inf

    def test_degenerate_terms(self):
        # An exact term with no offset leaves the other to test alone; an
        # exact term off its moment is a certain miss; two exact terms on
        # their moments pass.
        assert montecarlo._wald(100, 0.0, 0.3, 0.0, 4.0, 0.0) == (pytest.approx(2.25), 1)
        assert montecarlo._wald(100, 0.3, 0.0, 4.0, 0.0, 0.0) == (pytest.approx(2.25), 1)
        assert montecarlo._wald(100, 1e-9, 0.3, 0.0, 4.0, 0.0) == (math.inf, 1)
        assert montecarlo._wald(100, 0.0, 0.0, 0.0, 0.0, 0.0) == (0.0, 0)
        assert montecarlo._p_and_z(0.0, 0) == (1.0, 0.0)
        assert montecarlo._p_and_z(math.inf, 1) == (0.0, math.inf)
        # Collinear terms: the received power alone.
        assert montecarlo._wald(100, 0.2, 0.3, 1.0, 4.0, 2.0) == (pytest.approx(2.25), 1)


SHAPES = {"mixed": {"u_range": (1, 4), "g_range": (1, 3)},
          "no unicast": {"u_range": (0, 0), "g_range": (1, 3)},
          "no groups": {"u_range": (1, 4), "g_range": (0, 0)}}


def close(a, b, rel):
    return a == b or abs(a - b) <= rel * abs(b)


class TestStreamedAgainstStoredTerms:
    """The streamed validator against the ones that stored every trial's
    terms (``oracles``): the jackknife validator of the stored-terms
    section, on the same draws with the old product arithmetic,
    np.abs(h^H x) ** 2, and the two-pass moment tests over the terms the
    serial loop stores."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           shape=st.sampled_from(sorted(SHAPES)))
    def test_reports_match(self, precoder, workers, seed, shape):
        cfg, fading, pilots_un, pilots_mu, powers = small_mc_cell(seed, precoder, **SHAPES[shape])
        args = (cfg, fading, pilots_un, pilots_mu, powers, precoder, 100, seed)
        with mock.patch.object(montecarlo, "_worker_count", lambda n_trials: workers):
            new = validate_closed_form(*args)
        old = oracles.validate_closed_form_stored(*args)
        two_pass = oracles.moment_tests_two_pass(oracles.run_trials_serial(*args))
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
        # The kernel's unit draw of the pilot observations is the complex
        # draw's re + 1j*im.
        cfg, *_ = small_mc_cell(seed, "mrt", **SHAPES[shape])
        rng, rng_o = trial_rng(seed, 0), trial_rng(seed, 0)
        size = (cfg.n_antennas, cfg.n_streams)
        re, im = oracles._normal_parts(rng_o, size)
        assert np.array_equal(bits(montecarlo._cn(rng, size)), bits(re + 1j * im))
        # The residual draws continue the same stream.
        assert rng.standard_normal(4).tolist() == rng_o.standard_normal(4).tolist()


class TestReducedDraw:
    """A trial draws the N x S pilot observations and, in k = min(N, S)
    dimensions, one residual per UT and one per pilot: never a UT's full
    channel."""

    @pytest.mark.parametrize("n_antennas, precoder", [(64, "mrt"), (64, "zf"), (4, "mrt")])
    def test_trial_draws_only_what_the_terms_read(self, monkeypatch, n_antennas, precoder):
        # Drawing every channel and the pilot noise took N (users + S).
        cfg, fading = small_system(n_antennas=n_antennas, n_unicast=4, group_sizes=(3, 3))
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, 4, half, 2)
        drawn = []
        cn = montecarlo._cn

        def counted(rng, shape, *args, **kwargs):
            drawn.append(math.prod(shape))
            return cn(rng, shape, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_cn", counted)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: 1)
        report = validate_closed_form(cfg, fading, *cap_pilots(cfg), powers, precoder, 100, 3)
        N, S, users = n_antennas, 6, 10
        assert (report.n_trials, report.n_discarded) == (100, 0)
        assert sum(drawn) == 100 * (N * S + min(N, S) * (users + S))

    def test_indefinite_gram_falls_back_to_qr(self, monkeypatch):
        # Full-rank columns take R from the Cholesky factor of their Gram;
        # when rounding leaves that Gram indefinite, from the QR.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        want, got = np.empty((5, 5), dtype=complex), np.empty((5, 5), dtype=complex)
        montecarlo._conj_r(X, False, want)

        def indefinite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", indefinite)
        montecarlo._conj_r(X, True, got)
        assert np.array_equal(got, want)

    def test_tall_cell_peak_below_one_channel_matrix(self, monkeypatch):
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
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: 1)
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
        # desired term and received power 24.
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


def fail_in_trials(monkeypatch, errors, delays=None):
    """Make the precoder cores raise ``errors[t](...)`` in trial t, and
    sleep ``delays[t]`` seconds before, on whichever thread runs trial t:
    the trial kernel's, and the loop builders the serial oracle calls."""
    local = threading.local()
    trial_rng_ = montecarlo.trial_rng
    delays = delays or {}

    def tagged_rng(seed, t):
        local.trial = t
        return trial_rng_(seed, t)

    monkeypatch.setattr(montecarlo, "trial_rng", tagged_rng)
    for module, name in ((montecarlo, "_mrt_columns"), (montecarlo, "_zf_columns"),
                         (oracles, "build_mrt_precoders_loop"),
                         (oracles, "build_zf_precoders_loop")):
        def build(*args, _build=getattr(module, name)):
            time.sleep(delays.get(local.trial, 0.0))
            if local.trial in errors:
                raise errors[local.trial](f"forced in trial {local.trial}")
            return _build(*args)
        monkeypatch.setattr(module, name, build)


def report_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


SUMS = ("x", "xx", "y", "yy", "xy", "imag")


def recorded_run(args, workers):
    """``_run_trials`` on ``workers`` threads, with each kept trial's terms
    as they entered the sums: (sums, desired, received), the terms with one
    column per kept trial."""
    terms = []
    commit = montecarlo._Sums.commit

    def record(self, result):
        if result is not None:
            terms.append((result[1].copy(), result[0].copy()))
        commit(self, result)

    with mock.patch.object(montecarlo._Sums, "commit", record), \
            mock.patch.object(montecarlo, "_worker_count", lambda n_trials: workers):
        sums = montecarlo._run_trials(*args)
    desired, received = (np.stack(a, axis=1) for a in zip(*terms))
    return sums, desired, received


# The kernel scales each UT's terms where the serial loop scales its
# channel, so their terms differ by rounding: 1e-15 to 3e-15 of a trial's
# largest term on the desk cells.
TERMS_RTOL = 1e-12


def assert_matches_serial(sums, desired, received, serial):
    """A recorded run against ``oracles.run_trials_serial``: the same trials
    kept and moments to the bit, each kept trial's d and r within TERMS_RTOL
    of that trial's largest |d| and r, and sums that are the recorded terms'
    sums in trial order, to the bit."""
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


class TestKernelAgainstLoops:
    """The trial kernel, which draws at unit variance and scales each UT's
    terms at the end, against the serial loop over the loop oracles, which
    draws at each UT's variance (``oracles``, serial streamed section), at
    one, two and three workers.  The sums are the same bits at every worker
    count."""

    @staticmethod
    def check(args):
        serial = oracles.run_trials_serial(*args)
        runs = [recorded_run(args, workers) for workers in (1, 2, 3)]
        for run in runs:
            assert_matches_serial(*run, serial)
            for name in SUMS:
                assert np.array_equal(bits(getattr(run[0], name)),
                                      bits(getattr(runs[0][0], name))), name

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           shape=st.sampled_from(sorted(SHAPES)))
    def test_terms_match(self, precoder, seed, shape):
        # Under MRT, small_mc_cell leaves a unicast UT and a group without
        # pilots or power when there are two or more.
        self.check((*small_mc_cell(seed, precoder, **SHAPES[shape]), precoder, 60, seed))

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("block_uts", [1, 2, 5])
    def test_terms_match_in_small_blocks(self, monkeypatch, precoder, block_uts):
        # Unicast UTs in runs of BLOCK_UTS, and runs of whole groups: at 1
        # a block per UT or group, at 2 and 5 runs of both kinds.
        monkeypatch.setattr(montecarlo, "BLOCK_UTS", block_uts)
        cfg, fading = small_system(n_antennas=32, n_unicast=3, group_sizes=(2, 1, 3))
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, 3, half, 3)
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


class TestWorkerThreads:
    """Trials on worker threads, with the worker count forced, against one
    worker and against the serial loop (``oracles``, serial streamed
    section)."""

    # The first trial, a run of neighbours and the last one.
    DISCARDED = (0, 1, 2, 40, 41, 99)

    @staticmethod
    def cell(precoder):
        cfg, fading = small_system(n_antennas=64, n_unicast=4, group_sizes=(3, 3))
        pilots_un, pilots_mu = cap_pilots(cfg)
        half = cfg.total_power / 2.0
        powers = DownlinkPowers.equal_split(half, cfg.n_unicast, half, cfg.n_groups)
        return cfg, fading, pilots_un, pilots_mu, powers, precoder

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_same_bytes_for_every_worker_count(self, monkeypatch, precoder):
        args = (*self.cell(precoder), 100, 19)
        # Trial-dependent delays let later trials finish before earlier ones.
        fail_in_trials(monkeypatch, dict.fromkeys(self.DISCARDED, montecarlo.RankDeficientDraw),
                       {t: 0.001 * (7 * t % 4) for t in range(100)})
        serial = oracles.run_trials_serial(*args)
        assert (serial.kept, serial.discarded) == (100 - len(self.DISCARDED),
                                                   len(self.DISCARDED))
        runs = {}
        for workers in (1, 2, 3):
            run = recorded_run(args, workers)
            assert_matches_serial(*run, serial)
            monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: workers)
            runs[workers] = run[0], report_bytes(validate_closed_form(*args))

        sums, report = runs[1]
        for workers, (other, other_report) in runs.items():
            # The trial order of the sums, bit for bit.
            for name in SUMS:
                assert np.array_equal(bits(getattr(other, name)), bits(getattr(sums, name))), \
                    (workers, name)
            assert other_report == report, workers

    def test_more_workers_than_cpus_under_fast_switching(self, monkeypatch):
        args = (*self.cell("mrt"), 300, 23)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: 1)
        serial = montecarlo._run_trials(*args)
        monkeypatch.setattr(montecarlo, "_worker_count",
                            lambda n_trials: min((os.cpu_count() or 1) + 3, 16))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trials = montecarlo._run_trials(*args)
        finally:
            sys.setswitchinterval(interval)
        assert (trials.kept, trials.discarded) == (300, 0)
        for name in SUMS:
            assert np.array_equal(bits(getattr(trials, name)), bits(getattr(serial, name))), name

    @pytest.mark.parametrize("workers", [2, 3])
    def test_lowest_failing_trial_raises_and_no_thread_remains(self, monkeypatch, workers):
        # Trial 23 fails as a degenerate input would, but only after trial
        # 24 has already failed with another type.
        args = (*self.cell("zf"), 100, 5)
        fail_in_trials(monkeypatch, {3: montecarlo.RankDeficientDraw,
                                     23: DegenerateInputError, 24: ValueError},
                       {23: 0.05})
        with pytest.raises(DegenerateInputError, match="trial 23"):
            oracles.run_trials_serial(*args)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: workers)
        before = threading.active_count()
        with pytest.raises(DegenerateInputError, match="trial 23"):
            validate_closed_form(*args)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kept", [0, 1, 2])
    def test_run_needs_two_kept_trials(self, monkeypatch, workers, kept):
        # Every trial but the last `kept` loses rank.  The moment test needs
        # two kept trials: fewer raise, after the pool has stopped, as the
        # serial loop does, and two give a report.
        args = (*self.cell("zf"), 100, 13)
        fail_in_trials(monkeypatch,
                       dict.fromkeys(range(100 - kept), montecarlo.RankDeficientDraw))
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: workers)
        before = threading.active_count()
        if kept < 2:
            for run in (oracles.run_trials_serial, validate_closed_form):
                with pytest.raises(DegenerateInputError, match="fewer than 2 usable trials"):
                    run(*args)
        else:
            report = validate_closed_form(*args)
            assert (report.n_trials, report.n_discarded) == (2, 98)
            assert all(math.isfinite(rec.empirical) for rec in report.records)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_started_trials_stay_within_a_window(self, monkeypatch, workers):
        # Trial 0 stalls, so a pool handed every trial at once would run
        # the later ones far ahead of the commits.
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: workers)
        lock = threading.Lock()
        counts = {"started": 0, "committed": 0, "ahead": 0}
        trial_rng_, commit = montecarlo.trial_rng, montecarlo._Sums.commit

        def counted_rng(seed, t):
            with lock:
                counts["started"] += 1
                counts["ahead"] = max(counts["ahead"], counts["started"] - counts["committed"])
            if t == 0:
                time.sleep(0.05)
            return trial_rng_(seed, t)

        def counted_commit(self, result):
            with lock:
                counts["committed"] += 1
            commit(self, result)

        monkeypatch.setattr(montecarlo, "trial_rng", counted_rng)
        monkeypatch.setattr(montecarlo._Sums, "commit", counted_commit)
        validate_closed_form(*self.cell("mrt"), 300, 7)
        assert counts["started"] == counts["committed"] == 300
        assert counts["ahead"] <= 2 * workers, counts

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sums_hold_one_value_per_ut(self, workers):
        # What a run keeps is six sums and the two moments per UT, whatever
        # the trial count; the sums are the sums of the kept trials' terms,
        # which match the serial loop's stored terms.
        args = (*self.cell("mrt"), 60, 3)
        sums, desired, received = recorded_run(args, workers)
        serial = oracles.run_trials_serial(*args)
        arrays = {k: v for k, v in vars(sums).items() if isinstance(v, np.ndarray)}
        assert sorted(arrays) == sorted(("m1", "m2", *SUMS))
        assert {a.shape for a in arrays.values()} == {(serial.desired.shape[0],)}
        assert_matches_serial(sums, desired, received, serial)

    def test_worker_count_follows_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert montecarlo._worker_count(100) == 3
        assert montecarlo._worker_count(2) == 2
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                            lambda pid: set(range(4 * montecarlo.MAX_WORKERS)))
        assert montecarlo._worker_count(10_000) == montecarlo.MAX_WORKERS
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo._worker_count(100) == 1

    def test_worker_that_cannot_start_stops_the_others(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda n_trials: 3)
        start = threading.Thread.start
        calls = []

        def fail_third_start(self):
            calls.append(self)
            if len(calls) == 3:
                raise RuntimeError("can't start new thread")
            start(self)

        monkeypatch.setattr(threading.Thread, "start", fail_third_start)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            validate_closed_form(*self.cell("mrt"), 100, 5)
        assert threading.active_count() == before
