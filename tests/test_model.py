import dataclasses
import math
import re
import reprlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mimocast import figures
from mimocast.errors import InvalidConfigError
from mimocast.model import (EstimationStats, FadingProfile, PowerSplit, SystemConfig,
                            Violation, estimation_variances, require_valid,
                            validate_config)
from mimocast.scenario import default_normalized_config


def make_config(n_unicast=0, group_sizes=(1,), pilot_length=None, n_antennas=100,
                coherence_length=200, total_power=10.0, cap=2.0):
    tau = pilot_length if pilot_length is not None else n_unicast + len(group_sizes)
    return SystemConfig(
        n_antennas=n_antennas,
        coherence_length=coherence_length,
        n_unicast=n_unicast,
        group_sizes=group_sizes,
        pilot_length=tau,
        total_power=total_power,
        unicast_energy_caps=(cap,) * n_unicast,
        multicast_energy_caps=tuple((cap,) * k for k in group_sizes),
        sse_weights=(1.0,) * n_unicast,
    )


def flat_profile(cfg, gain=1.0):
    return FadingProfile(
        unicast_gains=(gain,) * cfg.n_unicast,
        multicast_gains=tuple((gain,) * k for k in cfg.group_sizes),
    )


class TestValidateConfig:
    def test_minimal_feasible_topology(self):
        cfg = make_config(n_unicast=0, group_sizes=(1,), pilot_length=1)
        assert validate_config(cfg, flat_profile(cfg)) == []
        assert require_valid(cfg, flat_profile(cfg)) == (cfg, flat_profile(cfg))

    def test_pilot_shorter_than_stream_count(self):
        cfg = make_config(n_unicast=2, group_sizes=(1,), pilot_length=2)
        bad = [v for v in validate_config(cfg, flat_profile(cfg))
               if v.field == "pilot_length"]
        assert bad and "U+G" in bad[0].message

    def test_zero_gain_rejected(self):
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(0.0,), multicast_gains=((1.0,),))
        bad = validate_config(cfg, fading)
        assert any(v.field == "unicast_gains[0]" for v in bad)
        with pytest.raises(InvalidConfigError):
            require_valid(cfg, fading)

    def test_non_finite_gain_rejected(self):
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(math.inf,), multicast_gains=((1.0,),))
        assert any("non-finite" in v.message or "non-positive" in v.message
                   for v in validate_config(cfg, fading))

    def test_shape_mismatches_reported(self):
        cfg = make_config(n_unicast=1, group_sizes=(2, 3))
        fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((1.0, 1.0), (1.0,)))
        assert any(v.field == "multicast_gains" for v in validate_config(cfg, fading))

    def test_pilot_longer_than_coherence(self):
        cfg = make_config(n_unicast=0, group_sizes=(1,), pilot_length=300)
        assert any(v.field == "pilot_length" for v in validate_config(cfg, flat_profile(cfg)))

    def test_message_counts_a_field_after_three_entries(self):
        cfg = make_config(n_unicast=4, group_sizes=(3, 3), cap=0.0)
        fading = FadingProfile(unicast_gains=(1.0, 0.0, 1.0, 1.0),
                               multicast_gains=((1.0,) * 3, (1.0,) * 3))
        with pytest.raises(InvalidConfigError) as e:
            require_valid(cfg, fading)
        assert len(e.value.violations) == 4 + 6 + 1
        assert str(e.value) == "invalid configuration: " + "; ".join([
            *(f"unicast_energy_caps[{i}]=0.0: energy cap must be positive" for i in range(3)),
            "… and 1 more unicast_energy_caps violations",
            *(f"multicast_energy_caps[0][{k}]=0.0: energy cap must be positive"
              for k in range(3)),
            "… and 3 more multicast_energy_caps violations",
            "unicast_gains[1]=0.0: non-positive, sub-normal, or non-finite gain"])

    def test_json_round_trip(self):
        cfg = make_config(n_unicast=2, group_sizes=(2, 1))
        fading = FadingProfile(unicast_gains=(0.5, 1.5),
                               multicast_gains=((1.0, 2.0), (3.0,)))
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg
        assert FadingProfile.from_dict(fading.to_dict()) == fading


    @pytest.mark.parametrize("field, value, message", [
        ("n_antennas", 64.5, "n_antennas must be an integer, got 64.5"),
        ("coherence_length", 200.5, "coherence_length must be an integer, got 200.5"),
        ("n_unicast", np.float64(2.0), "n_unicast must be an integer, got np.float64(2.0)"),
        ("pilot_length", 3.0, "pilot_length must be an integer, got 3.0"),
        ("group_sizes", (2, 1.5), "group_sizes[1] must be an integer, got 1.5"),
    ])
    def test_every_config_reads_its_counts_as_integers(self, field, value, message):
        # A fractional n_antennas used to pass validation and reach the
        # solvers as an array gain of 56.5; only from_dict checked counts.
        cfg = make_config(n_unicast=2, group_sizes=(2, 1))
        with pytest.raises(TypeError, match=re.escape(message)):
            dataclasses.replace(cfg, **{field: value})
        with pytest.raises(TypeError, match=re.escape(message)):
            SystemConfig.from_dict({**cfg.to_dict(), field: value})

    @pytest.mark.parametrize("field", ["n_antennas", "pilot_length"])
    def test_count_a_float_cannot_hold_is_flagged(self, field):
        # Such a count used to pass and overflow in a solver or the estimator.
        cfg = dataclasses.replace(make_config(n_unicast=1, group_sizes=(2,)),
                                  coherence_length=10 ** 400, **{field: 10 ** 400})
        assert [v.message for v in validate_config(cfg, flat_profile(cfg)) if v.field == field] \
            == ["must be a count a float can hold"]

    def test_long_values_are_cut_in_the_message(self):
        # A 401-digit count used to give a message over 400 characters long.
        huge = Violation("n_antennas", 10 ** 400, "must be a count a float can hold")
        assert str(huge) == "n_antennas=1" + "0" * 37 + "..." + "0" * 39 + \
            ": must be a count a float can hold"
        # Cut as reprlib cuts a long int, at 80 characters.
        cut = reprlib.Repr()
        cut.maxlong = 80
        for value in (10 ** 80, -10 ** 400, 7 ** 1000):
            assert str(Violation("f", value, "m")) == f"f={cut.repr(value)}: m"
        # Reprs of up to 80 characters are printed whole, as they always were.
        for value in (10 ** 79, -10 ** 78, (3, 4), 1e-300, math.nan, "x" * 78):
            assert len(repr(value)) <= 80
            assert str(Violation("f", value, "m")) == f"f={value!r}: m"

    def test_default_config_reads_its_counts_as_the_config_does(self):
        # Group sizes (2.7, 3.2) used to be truncated to (2, 3).
        with pytest.raises(TypeError, match=re.escape("group_sizes[0] must be an integer")):
            default_normalized_config(100, 200, 5, (2.7, 3.2))
        with pytest.raises(TypeError, match="n_unicast must be an integer"):
            default_normalized_config(100, 200, 5.0, (2, 3))
        cfg = default_normalized_config(np.int64(100), 200, np.int64(5), (np.int64(2), 3))
        assert (type(cfg.n_antennas), type(cfg.n_unicast), type(cfg.group_sizes[0])) == \
            (int, int, int)

    @pytest.mark.parametrize("n_drops, seed", [(2.5, 1), (1, 1.0)])
    def test_drop_means_reads_drops_and_seed_as_integers(self, n_drops, seed):
        # 2.5 drops used to run 3, and a float seed raised AttributeError.
        cfg = default_normalized_config(100, 200, 5, (2, 3))
        with pytest.raises(TypeError):
            figures.drop_means([cfg], "mmf", n_drops, seed)


# A bad pilot power entry and the error it raises.
BAD_PILOT_POWERS = [
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
    (-1.0, ValueError), (None, TypeError), (1.0 + 0.5j, TypeError),
    (np.complex128(1.0), TypeError), (np.array([1.0, 1.0 + 1e-3j]), TypeError),
]
BAD_PILOT_MESSAGES = {ValueError: "pilot power .* is not finite and non-negative",
                      TypeError: "real number|complex"}


def bad_pilots(side, value):
    """Unicast and multicast pilot powers for one unicast UT and a group of
    two, with ``value`` as the unicast UT's power or the second member's.
    An array ``value`` of two entries replaces the group's row, or its last
    entry the unicast powers."""
    unicast, multicast = [1.0], [[1.0, 1.0]]
    if isinstance(value, np.ndarray):
        if side == "unicast":
            unicast = value[1:]
        else:
            multicast[0] = value
    elif side == "unicast":
        unicast[0] = value
    else:
        multicast[0][1] = value
    return unicast, multicast


class TestEstimationVariances:
    def test_perfect_csi_limit(self):
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((1.0,),))
        stats = estimation_variances(cfg, fading, [1e12 / 2], [[1.0]])
        assert stats.unicast_var[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_pilot_power_gives_zero_estimate(self):
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((1.0,),))
        stats = estimation_variances(cfg, fading, [0.0], [[1.0]])
        assert stats.unicast_var[0] == 0.0

    def test_shared_pilot_hand_values(self):
        # tau=2, unit pilot powers, gains (1, 2): group sum 2*1*1 + 2*1*2 = 6.
        cfg = make_config(n_unicast=0, group_sizes=(2,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(), multicast_gains=((1.0, 2.0),))
        stats = estimation_variances(cfg, fading, [], [[1.0, 1.0]])
        assert stats.multicast_var[0][0] == pytest.approx(2.0 / 7.0, rel=1e-12)
        assert stats.multicast_var[0][1] == pytest.approx(8.0 / 7.0, rel=1e-12)
        assert stats.group_var[0] == pytest.approx(36.0 / 7.0, rel=1e-12)

    def test_shared_pilot_values_match_sampled_estimator(self):
        # Sample-average oracle: per-component variance of the actual MMSE
        # estimator over 10^6 i.i.d. component draws (antennas are i.i.d.,
        # so one tall draw provides them all).
        from test_montecarlo import kernel_trials   # it imports this module
        n = 1_000_000
        cfg = make_config(n_unicast=0, group_sizes=(2,), pilot_length=2, n_antennas=n)
        fading = FadingProfile(unicast_gains=(), multicast_gains=((1.0, 2.0),))
        (_, C, _), = kernel_trials(cfg, fading, [], [[1.0, 1.0]], 1234)
        group = C[:, 0]
        # Member k's estimate is the group's times sqrt(tau*q_k)*eta_k/s:
        # sqrt(2)/6 and 2*sqrt(2)/6.
        g0 = math.sqrt(2.0) / 6.0 * group
        g1 = 2.0 * math.sqrt(2.0) / 6.0 * group
        assert np.mean(np.abs(g0) ** 2) == pytest.approx(2.0 / 7.0, rel=0.01)
        assert np.mean(np.abs(g1) ** 2) == pytest.approx(8.0 / 7.0, rel=0.01)
        assert np.mean(np.abs(group) ** 2) == pytest.approx(36.0 / 7.0, rel=0.01)

    def test_pilot_shape_mismatch_raises(self):
        cfg = make_config(n_unicast=1, group_sizes=(2,), pilot_length=3)
        fading = flat_profile(cfg)
        with pytest.raises(ValueError):
            estimation_variances(cfg, fading, [1.0, 1.0], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            estimation_variances(cfg, fading, [1.0], [[1.0]])
        with pytest.raises(ValueError):
            estimation_variances(cfg, fading, [-1.0], [[1.0, 1.0]])

    def test_stats_hold_one_group_variance_per_group(self):
        # Any number of group variances used to construct.
        for group_var in ([1.0, 2.0, 3.0], [], [1.0]):
            with pytest.raises(ValueError, match=r"one variance per group \(2\), got"):
                EstimationStats(unicast_var=[1.0], multicast_var=([1.0, 2.0], [3.0]),
                                group_var=group_var)
        stats = EstimationStats(unicast_var=[1.0], multicast_var=([1.0, 2.0], [3.0]),
                                group_var=[0.5, 0.25])
        assert stats.group_var.tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("side", ["unicast", "multicast"])
    @pytest.mark.parametrize("value, error", BAD_PILOT_POWERS)
    def test_bad_pilot_power_raises(self, side, value, error):
        # A NaN or None entry used to give NaN variances, an infinite one a
        # RuntimeWarning, and a complex one lost its imaginary part.
        cfg = make_config(n_unicast=1, group_sizes=(2,), pilot_length=3)
        with pytest.raises(error, match=BAD_PILOT_MESSAGES[error]):
            estimation_variances(cfg, flat_profile(cfg), *bad_pilots(side, value))


positive = st.floats(min_value=1e-3, max_value=1e3)


class TestEstimationProperties:
    @given(beta=positive, p_lo=positive, factor=st.floats(min_value=1.01, max_value=100.0))
    def test_unicast_variance_increasing_in_pilot_power(self, beta, p_lo, factor):
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(beta,), multicast_gains=((1.0,),))
        lo = estimation_variances(cfg, fading, [p_lo], [[1.0]]).unicast_var[0]
        hi = estimation_variances(cfg, fading, [p_lo * factor], [[1.0]]).unicast_var[0]
        assert hi > lo
        assert lo < beta and hi < beta

    @given(e1=positive, e2=positive, q1=positive, q2=positive,
           factor=st.floats(min_value=1.01, max_value=100.0))
    def test_member_variance_decreasing_in_other_members_power(self, e1, e2, q1, q2, factor):
        cfg = make_config(n_unicast=0, group_sizes=(2,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(), multicast_gains=((e1, e2),))
        base = estimation_variances(cfg, fading, [], [[q1, q2]])
        bumped = estimation_variances(cfg, fading, [], [[q1, q2 * factor]])
        assert bumped.multicast_var[0][0] < base.multicast_var[0][0]
        assert base.multicast_var[0][0] < e1
        assert base.multicast_var[0][1] < e2

    @given(gains=st.lists(positive, min_size=1, max_size=4),
           powers=st.lists(positive, min_size=1, max_size=4))
    def test_member_variances_scale_group_composite(self, gains, powers):
        # Member estimate = fixed scalar times the composite estimate, so
        # the variances obey var_k = (tau*q_k*g_k^2 / S^2) * group_var
        # with S the energy-weighted gain sum.
        k = min(len(gains), len(powers))
        gains, powers = gains[:k], powers[:k]
        cfg = make_config(n_unicast=0, group_sizes=(k,), pilot_length=k)
        fading = FadingProfile(unicast_gains=(), multicast_gains=(tuple(gains),))
        stats = estimation_variances(cfg, fading, [], [powers])
        tau = cfg.pilot_length
        s = sum(tau * q * g for q, g in zip(powers, gains))
        for q, g, var in zip(powers, gains, stats.multicast_var[0]):
            assert var == pytest.approx(tau * q * g * g / s ** 2 * stats.group_var[0], rel=1e-9)


class TestPowerSplit:
    def test_from_ratio(self):
        s = PowerSplit.from_ratio(1.0, 1.0, 10.0)
        assert s.p_unicast == 5.0 and s.p_multicast == 5.0
        s = PowerSplit.from_ratio(19.0, 1.0, 20.0)
        assert s.p_unicast == pytest.approx(19.0) and s.p_multicast == pytest.approx(1.0)

    def test_bad_ratio_rejected(self):
        for ratio in [(-1.0, 2.0), (0.0, 0.0), (1.0, math.inf), (math.inf, 1.0),
                      (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                PowerSplit.from_ratio(*ratio, 10.0)

    @pytest.mark.parametrize("ratio, split", [
        ((5e-324, 0.0), (9.677, 0.0)),       # rounded through a subnormal to 10.0
        ((0.0, 5e-324), (0.0, 9.677)),
        ((5e-324, 5e-324), (4.8385, 4.8385)),
        ((1e308, 1e308), (4.8385, 4.8385)),  # the sum overflows
        ((1e308, 0.0), (9.677, 0.0)),        # total * part overflows
    ])
    def test_extreme_ratios_keep_their_split(self, ratio, split):
        s = PowerSplit.from_ratio(*ratio, 9.677)
        assert (s.p_unicast, s.p_multicast) == split

    @given(u=st.floats(min_value=0.0, max_value=sys.float_info.max),
           v=st.floats(min_value=0.0, max_value=sys.float_info.max),
           total=st.sampled_from([9.677, 1e-3, 1.0, 7e13]))
    @example(u=5e-324, v=0.0, total=9.677)
    @example(u=3e-323, v=5e-323, total=9.677)
    def test_parts_stay_within_the_budget(self, u, v, total):
        if u + v == 0.0:
            return
        s = PowerSplit.from_ratio(u, v, total)
        # Within [0, total] up to the rounding of one product and one
        # quotient, which every budget check accepts.
        for part in (s.p_unicast, s.p_multicast):
            assert 0.0 <= part <= total * (1.0 + 1e-15), (u, v, part)
        assert s.p_unicast + s.p_multicast == pytest.approx(total, rel=1e-12)
        if sys.float_info.min <= u + v < math.inf and total * max(u, v) < math.inf:
            # The quotients every ratio with a normal sum has always had.
            assert (s.p_unicast, s.p_multicast) == (total * u / (u + v), total * v / (u + v))
