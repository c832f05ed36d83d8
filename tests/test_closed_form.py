import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimocast import closed_form
from mimocast.closed_form import MRT, PRECODERS, ZF, DownlinkPowers, se_report
from mimocast.errors import DegenerateInputError, ZfInfeasibleError
from mimocast.model import EstimationStats, FadingProfile, estimation_variances

import oracles
from test_model import make_config


def stats_for(cfg, unicast_var=(), multicast_var=(), group_var=None):
    if group_var is None:
        group_var = tuple(1.0 for _ in cfg.group_sizes)
    return EstimationStats(unicast_var=unicast_var, multicast_var=multicast_var,
                           group_var=group_var)


def sinr_unicast(cfg, stats, fading, powers, precoder, m):
    return se_report(cfg, stats, fading, powers, precoder).unicast_sinr[m]


def sinr_multicast(cfg, stats, fading, powers, precoder, j, k):
    return se_report(cfg, stats, fading, powers, precoder).multicast_sinr[j][k]


class TestMrtUnicast:
    # One unicast UT at p=2 next to one group at q=7: total power 9.
    def setup_method(self):
        self.cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        self.fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((1.0,),))
        self.stats = stats_for(self.cfg, unicast_var=(0.5,), multicast_var=((0.2,),))

    def test_hand_value(self):
        powers = DownlinkPowers(unicast=(2.0,), multicast=(7.0,))
        assert sinr_unicast(self.cfg, self.stats, self.fading, powers, MRT, 0) \
            == pytest.approx(10.0, rel=1e-12)

    def test_zero_power_zero_sinr(self):
        powers = DownlinkPowers(unicast=(0.0,), multicast=(7.0,))
        assert sinr_unicast(self.cfg, self.stats, self.fading, powers, MRT, 0) == 0.0

    def test_linear_in_antennas(self):
        powers = DownlinkPowers(unicast=(2.0,), multicast=(7.0,))
        one = sinr_unicast(self.cfg, self.stats, self.fading, powers, MRT, 0)
        cfg2 = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2, n_antennas=200)
        two = sinr_unicast(cfg2, self.stats, self.fading, powers, MRT, 0)
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestMrtMulticast:
    def setup_method(self):
        self.cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        self.fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((1.0,),))
        self.stats = stats_for(self.cfg, unicast_var=(0.5,), multicast_var=((0.2,),))

    def test_hand_value(self):
        # N=100, q=5, var=0.2, gain=1, total power 10 -> 100/11.
        powers = DownlinkPowers(unicast=(5.0,), multicast=(5.0,))
        assert sinr_multicast(self.cfg, self.stats, self.fading, powers, MRT, 0, 0) \
            == pytest.approx(100.0 / 11.0, rel=1e-12)

    def test_zero_power(self):
        powers = DownlinkPowers(unicast=(5.0,), multicast=(0.0,))
        assert sinr_multicast(self.cfg, self.stats, self.fading, powers, MRT, 0, 0) == 0.0

    def test_linear_in_estimate_variance(self):
        powers = DownlinkPowers(unicast=(5.0,), multicast=(5.0,))
        base = sinr_multicast(self.cfg, self.stats, self.fading, powers, MRT, 0, 0)
        scaled = stats_for(self.cfg, unicast_var=(0.5,), multicast_var=((0.6,),))
        assert sinr_multicast(self.cfg, scaled, self.fading, powers, MRT, 0, 0) \
            == pytest.approx(3.0 * base, rel=1e-12)


class TestZfUnicast:
    def setup_method(self):
        # N=100, G=2, U=2 -> 96 degrees of freedom.
        self.cfg = make_config(n_unicast=2, group_sizes=(1, 1), pilot_length=4)
        self.fading = FadingProfile(unicast_gains=(1.0, 1.0),
                                    multicast_gains=((1.0,), (1.0,)))
        self.stats = stats_for(self.cfg, unicast_var=(0.5, 0.5),
                               multicast_var=((0.2,), (0.2,)))

    def test_hand_value(self):
        # p=1 for the target, total power 10 -> 96*0.5/(1+0.5*10) = 8.
        powers = DownlinkPowers(unicast=(1.0, 4.0), multicast=(2.0, 3.0))
        assert sinr_unicast(self.cfg, self.stats, self.fading, powers, ZF, 0) \
            == pytest.approx(8.0, rel=1e-12)

    def test_perfect_csi_removes_interference(self):
        stats = stats_for(self.cfg, unicast_var=(1.0, 0.5), multicast_var=((0.2,), (0.2,)))
        powers = DownlinkPowers(unicast=(1.0, 4.0), multicast=(2.0, 3.0))
        dof = self.cfg.n_antennas - self.cfg.n_streams
        assert sinr_unicast(self.cfg, stats, self.fading, powers, ZF, 0) \
            == pytest.approx(dof * 1.0 * 1.0, rel=1e-12)

    def test_zero_degrees_of_freedom_rejected(self):
        cfg = make_config(n_unicast=2, group_sizes=(1, 1), pilot_length=4, n_antennas=4)
        powers = DownlinkPowers(unicast=(1.0, 4.0), multicast=(2.0, 3.0))
        with pytest.raises(ZfInfeasibleError):
            sinr_unicast(cfg, self.stats, self.fading, powers, ZF, 0)


class TestZfMulticast:
    def setup_method(self):
        self.cfg = make_config(n_unicast=2, group_sizes=(1, 1), pilot_length=4)
        self.fading = FadingProfile(unicast_gains=(1.0, 1.0),
                                    multicast_gains=((1.0,), (1.0,)))
        self.stats = stats_for(self.cfg, unicast_var=(0.5, 0.5),
                               multicast_var=((0.2,), (0.2,)))

    def test_hand_value(self):
        # q=5, var=0.2, gain 1, total 10 -> 96*1/(1+0.8*10) = 96/9.
        powers = DownlinkPowers(unicast=(1.0, 4.0), multicast=(5.0, 0.0))
        assert sinr_multicast(self.cfg, self.stats, self.fading, powers, ZF, 0, 0) \
            == pytest.approx(96.0 / 9.0, rel=1e-12)

    def test_full_estimate_kills_interference_term(self):
        stats = stats_for(self.cfg, unicast_var=(0.5, 0.5), multicast_var=((1.0,), (0.2,)))
        powers = DownlinkPowers(unicast=(1.0, 4.0), multicast=(5.0, 0.0))
        dof = self.cfg.n_antennas - self.cfg.n_streams
        assert sinr_multicast(self.cfg, stats, self.fading, powers, ZF, 0, 0) \
            == pytest.approx(dof * 5.0, rel=1e-12)

    def test_zero_power(self):
        powers = DownlinkPowers(unicast=(1.0, 4.0), multicast=(0.0, 5.0))
        assert sinr_multicast(self.cfg, self.stats, self.fading, powers, ZF, 0, 0) == 0.0


class TestSeReport:
    def setup_method(self):
        self.cfg = make_config(n_unicast=1, group_sizes=(2,), pilot_length=3)
        self.fading = FadingProfile(unicast_gains=(0.8,), multicast_gains=((1.0, 0.5),))
        self.stats = stats_for(self.cfg, unicast_var=(0.4,),
                               multicast_var=((0.3, 0.1),))
        self.powers = DownlinkPowers(unicast=(4.0,), multicast=(6.0,))

    def test_all_zero_when_pilots_fill_interval(self):
        cfg = make_config(n_unicast=1, group_sizes=(2,), pilot_length=200)
        rep = se_report(cfg, self.stats, self.fading, self.powers, MRT)
        assert rep.prelog == 0.0
        assert all(se == 0.0 for se in rep.unicast_se)
        assert all(se == 0.0 for g in rep.multicast_se for se in g)

    def test_unit_sinr_gives_prelog(self):
        # Engineered so the unicast SINR is exactly 1.
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2, n_antennas=10)
        fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((1.0,),))
        stats = stats_for(cfg, unicast_var=(0.55,), multicast_var=((0.2,),))
        powers = DownlinkPowers(unicast=(2.0,), multicast=(8.0,))
        rep = se_report(cfg, stats, fading, powers, MRT)
        assert rep.unicast_sinr[0] == pytest.approx(1.0, rel=1e-12)
        assert rep.unicast_se[0] == pytest.approx(rep.prelog, rel=1e-12)

    def test_se_sinr_structural_identity(self):
        rep = se_report(self.cfg, self.stats, self.fading, self.powers, MRT)
        for se, sinr in zip(rep.unicast_se, rep.unicast_sinr):
            assert se == pytest.approx(rep.prelog * math.log2(1.0 + sinr), rel=1e-12)
        for ses, sinrs in zip(rep.multicast_se, rep.multicast_sinr):
            for se, sinr in zip(ses, sinrs):
                assert se == pytest.approx(rep.prelog * math.log2(1.0 + sinr), rel=1e-12)

    def test_budget_overrun_rejected(self):
        powers = DownlinkPowers(unicast=(6.0,), multicast=(6.0,))
        with pytest.raises(ValueError):
            se_report(self.cfg, self.stats, self.fading, powers, MRT)

    def test_unknown_precoder_rejected(self):
        with pytest.raises(ValueError):
            se_report(self.cfg, self.stats, self.fading, self.powers, "rzf")

    def test_weighted_sum_needs_one_weight_per_unicast_ut(self):
        # With 4 unicast UTs, 1 weight used to sum one term and 9 were accepted.
        cfg = make_config(n_unicast=4, group_sizes=(1,), pilot_length=5)
        fading = FadingProfile(unicast_gains=(0.8, 0.6, 0.4, 0.2), multicast_gains=((1.0,),))
        stats = stats_for(cfg, unicast_var=(0.4, 0.3, 0.2, 0.1), multicast_var=((0.3,),))
        rep = se_report(cfg, stats, fading,
                        DownlinkPowers(unicast=(1.0,) * 4, multicast=(1.0,)), MRT)
        assert rep.weighted_sum_unicast_se([2.0] * 4) == pytest.approx(
            2.0 * sum(rep.unicast_se.tolist()), rel=1e-15)
        for n in (0, 1, 3, 5, 9):
            with pytest.raises(ValueError):
                rep.weighted_sum_unicast_se([1.0] * n)


class TestPowerChecks:
    @pytest.mark.parametrize("unicast, multicast", [
        ((math.nan,), (1.0,)),
        ((1.0,), (math.nan,)),
    ])
    def test_nan_power_rejected(self, unicast, multicast):
        # NaN fails every comparison, so no check may read it as in range.
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((1.0,),))
        stats = stats_for(cfg, unicast_var=(0.5,), multicast_var=((0.2,),))
        for precoder in PRECODERS:
            with pytest.raises(ValueError, match="non-negative"):
                se_report(cfg, stats, fading, DownlinkPowers(unicast, multicast), precoder)


class TestEqualSplit:
    def test_side_without_streams_takes_no_power(self):
        with pytest.raises(DegenerateInputError, match="no unicast UTs"):
            DownlinkPowers.equal_split(5.0, 0, 1.0, 2)
        with pytest.raises(DegenerateInputError, match="no multicast groups"):
            DownlinkPowers.equal_split(1.0, 2, 5.0, 0)
        powers = DownlinkPowers.equal_split(0.0, 0, 1.0, 2)
        assert powers.unicast.size == 0 and powers.multicast.tolist() == [0.5, 0.5]
        powers = DownlinkPowers.equal_split(1.0, 2, 0.0, 0)
        assert powers.unicast.tolist() == [0.5, 0.5] and powers.multicast.size == 0


pos = st.floats(min_value=1e-3, max_value=1e2)
frac = st.floats(min_value=1e-3, max_value=0.999)


class TestKernelProperties:
    @given(beta=pos, vfrac=frac, p=pos, q=pos, n=st.integers(min_value=5, max_value=512))
    def test_zf_is_mrt_with_reduced_gain_and_residual_error(self, beta, vfrac, p, q, n):
        # Swapping N -> N-G-U and gain -> (gain - estimate variance) maps the
        # MRT unicast kernel onto the ZF one.
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2, n_antennas=n,
                          total_power=1e9)
        fading = FadingProfile(unicast_gains=(beta,), multicast_gains=((1.0,),))
        var = beta * vfrac
        stats = stats_for(cfg, unicast_var=(var,), multicast_var=((0.2,),))
        powers = DownlinkPowers(unicast=(p,), multicast=(q,))
        zf = sinr_unicast(cfg, stats, fading, powers, ZF, 0)
        shrunk = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2,
                             n_antennas=cfg.n_antennas - cfg.n_streams,
                             total_power=1e9)
        eroded = FadingProfile(unicast_gains=(beta - var,), multicast_gains=((1.0,),))
        mrt_mapped = sinr_unicast(shrunk, stats, eroded, powers, MRT, 0)
        assert zf == pytest.approx(mrt_mapped, rel=1e-12)

    @given(q=pos, e1=pos, e2=pos, v1=frac, v2=frac, p_un=pos)
    def test_relabeling_users_permutes_sinrs(self, q, e1, e2, v1, v2, p_un):
        cfg = make_config(n_unicast=1, group_sizes=(2,), pilot_length=3,
                          total_power=1e9)
        powers = DownlinkPowers(unicast=(p_un,), multicast=(q,))
        a = FadingProfile(unicast_gains=(1.0,), multicast_gains=((e1, e2),))
        sa = stats_for(cfg, unicast_var=(0.5,), multicast_var=((e1 * v1, e2 * v2),))
        b = FadingProfile(unicast_gains=(1.0,), multicast_gains=((e2, e1),))
        sb = stats_for(cfg, unicast_var=(0.5,), multicast_var=((e2 * v2, e1 * v1),))
        assert sinr_multicast(cfg, sa, a, powers, MRT, 0, 0) \
            == pytest.approx(sinr_multicast(cfg, sb, b, powers, MRT, 0, 1), rel=1e-12)
        assert sinr_multicast(cfg, sa, a, powers, MRT, 0, 1) \
            == pytest.approx(sinr_multicast(cfg, sb, b, powers, MRT, 0, 0), rel=1e-12)

    @given(p1=pos, p2=pos, beta=pos, vfrac=frac)
    @example(p1=0.001, p2=0.0010000000000000002, beta=100.0, vfrac=0.001)
    def test_increasing_own_power_at_fixed_total_raises_sinr(self, p1, p2, beta, vfrac):
        # Hold the transmitted total fixed (full-budget regime) and move
        # power onto the target: its SINR must not fall, and must rise
        # unless the move is within rounding of the power (one ulp of 0.001
        # can leave the SINR the same to the last bit).
        cfg = make_config(n_unicast=2, group_sizes=(1,), pilot_length=3,
                          total_power=1e6)
        fading = FadingProfile(unicast_gains=(beta, 1.0), multicast_gains=((1.0,),))
        stats = stats_for(cfg, unicast_var=(beta * vfrac, 0.5),
                          multicast_var=((0.2,),))
        lo, hi = sorted((p1, p2))
        if lo == hi:
            return
        powers_lo = DownlinkPowers(unicast=(lo, hi), multicast=(1.0,))
        powers_hi = DownlinkPowers(unicast=(hi, lo), multicast=(1.0,))
        assert powers_lo.total == powers_hi.total
        raised = sinr_unicast(cfg, stats, fading, powers_hi, MRT, 0)
        kept = sinr_unicast(cfg, stats, fading, powers_lo, MRT, 0)
        assert raised >= kept
        if hi - lo >= 1e-9 * hi:
            assert raised > kept


class TestScalarOracleAgreement:
    @settings(max_examples=80)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           no_unicast=st.booleans(),
           precoder=st.sampled_from(PRECODERS),
           load=st.floats(min_value=0.0, max_value=0.999))
    def test_kernel_matches_per_user_formulas(self, seed, no_unicast, precoder, load):
        # The one SINR kernel against the four per-precoder, per-traffic-type
        # scalar formulas it replaced, on random cells (U=0 included), random
        # pilot powers below the caps, and random downlink powers.
        rng = np.random.default_rng(seed)
        cfg, fading = oracles.random_desk_instance(
            rng, u_range=(0, 0) if no_unicast else (1, 8))
        tau = cfg.pilot_length
        stats = estimation_variances(
            cfg, fading,
            [e * rng.uniform(0.0, 1.0) / tau for e in cfg.unicast_energy_caps],
            [[e * rng.uniform(0.0, 1.0) / tau for e in caps]
             for caps in cfg.multicast_energy_caps])
        shares = rng.uniform(0.0, 1.0, cfg.n_streams)
        levels = shares * (load * cfg.total_power / max(shares.sum(), 1e-300))
        powers = DownlinkPowers(unicast=levels[:cfg.n_unicast],
                                multicast=levels[cfg.n_unicast:])
        if precoder == ZF:
            uni, mu = oracles.sinr_zf_unicast, oracles.sinr_zf_multicast
        else:
            uni, mu = oracles.sinr_mrt_unicast, oracles.sinr_mrt_multicast

        rep = se_report(cfg, stats, fading, powers, precoder)
        assert len(rep.unicast_sinr) == cfg.n_unicast
        for m, got in enumerate(rep.unicast_sinr):
            assert got == pytest.approx(uni(cfg, stats, fading, powers, m),
                                        rel=1e-12, abs=0.0)
        assert tuple(map(len, rep.multicast_sinr)) == cfg.group_sizes
        for j, group in enumerate(rep.multicast_sinr):
            for k, got in enumerate(group):
                assert got == pytest.approx(mu(cfg, stats, fading, powers, j, k),
                                            rel=1e-12, abs=0.0)


def _pilot_cell(data, log10_energy):
    """A desk cell of up to 4 unicast UTs and 3 groups of up to 4, with
    gains in [0.01, 2] and each UT's pilot energy tau * q * g at 10 to the
    power of a draw from ``log10_energy``; returns (cfg, fading, unicast
    pilot powers, multicast pilot powers, equal-split powers)."""
    u = data.draw(st.integers(min_value=0, max_value=4), label="unicast UTs")
    sizes = tuple(data.draw(st.lists(st.integers(min_value=1, max_value=4),
                                     min_size=0 if u else 1, max_size=3), label="groups"))
    cfg = make_config(n_unicast=u, group_sizes=sizes, n_antennas=u + len(sizes) + 2)
    users = u + sum(sizes)

    def per_ut(strategy, label):
        return np.array(data.draw(st.lists(strategy, min_size=users, max_size=users),
                                  label=label))

    gains = per_ut(st.floats(min_value=0.01, max_value=2.0), "gains")
    energy = 10.0 ** per_ut(log10_energy, "log10 energy")
    pilots = energy / (cfg.pilot_length * gains)
    edges = np.cumsum([u, *sizes]).tolist()
    fading = FadingProfile(unicast_gains=gains[:u],
                           multicast_gains=[gains[a:b] for a, b in zip(edges, edges[1:])])
    powers = DownlinkPowers.equal_split(1.0 if u else 0.0, u, 1.0 if sizes else 0.0,
                                        len(sizes))
    return cfg, fading, pilots[:u], [pilots[a:b] for a, b in zip(edges, edges[1:])], powers


class TestInterferenceWithoutCancellation:
    """ZF's interference (beta - var) P, whose difference would lose every
    digit once a pilot's energy dwarfs 1 (var -> beta), against exact
    rational arithmetic; MRT's beta P keeps its bits."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_zf_interference_matches_exact_fractions(self, data):
        cfg, fading, pilots_un, pilots_mu, powers = _pilot_cell(
            data, st.floats(min_value=-6.0, max_value=30.0))
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        _, got = closed_form._sinr_terms(cfg, stats, fading, powers,
                                         *closed_form._precoder_factors(cfg, ZF))
        want = np.array([float(x) for x in oracles.zf_interference_exact(
            cfg, fading, pilots_un, pilots_mu, powers)])
        assert (np.abs(got - want) <= 1e-14 * want).all(), np.abs(got / want - 1.0).max()

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mrt_interference_is_beta_times_power(self, data):
        cfg, fading, pilots_un, pilots_mu, powers = _pilot_cell(
            data, st.floats(min_value=-6.0, max_value=30.0))
        stats = estimation_variances(cfg, fading, pilots_un, pilots_mu)
        _, got = closed_form._sinr_terms(cfg, stats, fading, powers,
                                         *closed_form._precoder_factors(cfg, MRT))
        assert got.tolist() == ((fading.ut_gains - 0.0 * stats.ut_var) * powers.total).tolist()

    def test_stats_without_errors_subtract(self):
        # Stats built by hand carry no error variances: ZF takes beta - var.
        cfg = make_config(n_unicast=1, group_sizes=(2,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((0.5, 2.0),))
        stats = stats_for(cfg, unicast_var=(0.25,), multicast_var=((0.125, 1.5),))
        powers = DownlinkPowers(unicast=(2.0,), multicast=(3.0,))
        _, got = closed_form._sinr_terms(cfg, stats, fading, powers, 1, 1.0)
        assert got.tolist() == [0.75 * 5.0, 0.375 * 5.0, 0.5 * 5.0]
        with pytest.raises(ValueError, match="one variance per UT"):
            EstimationStats(unicast_var=(0.25,), multicast_var=((0.125, 1.5),),
                            group_var=(1.0,), ut_error=(0.75, 0.375))
