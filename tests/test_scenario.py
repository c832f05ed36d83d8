import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimocast.model import FadingProfile, SystemConfig, validate_config
from mimocast.scenario import (CellGeometry, RadioParams,
                               default_normalized_config, noise_power_w_per_hz,
                               normalize_powers, pathloss, place_users)

import oracles


class TestPathloss:
    def test_cell_edge_matches_reference_attenuation(self):
        # -136.48 dB at 500 m for the default constants.
        g = pathloss(CellGeometry(), 500.0)
        assert 10.0 * math.log10(g) == pytest.approx(-136.48, abs=0.01)

    def test_inner_edge_value(self):
        # 10^-3.5 / 35^3.76, cross-checked against a high-precision evaluation.
        g = pathloss(CellGeometry(), 35.0)
        assert g == pytest.approx(4.946569931538959e-10, rel=1e-12)

    def test_out_of_annulus_rejected(self):
        geo = CellGeometry()
        with pytest.raises(ValueError):
            pathloss(geo, 10.0)
        with pytest.raises(ValueError):
            pathloss(geo, 600.0)

    def test_strictly_decreasing_in_distance(self):
        geo = CellGeometry()
        d = np.linspace(35.0, 500.0, 200)
        gains = [pathloss(geo, x) for x in d]
        assert all(a > b for a, b in zip(gains, gains[1:]))


@pytest.fixture(scope="module")
def million_radii():
    _, place = place_users(CellGeometry(), 1_000_000, (), 7)
    return np.array([p[0] for p in place.unicast])


class TestPlaceUsers:
    def test_fixed_seed_reproducible(self):
        geo = CellGeometry()
        prof_a, place_a = place_users(geo, 3, (2, 4), 42)
        prof_b, place_b = place_users(geo, 3, (2, 4), 42)
        assert prof_a == prof_b
        assert place_a == place_b
        prof_c, _ = place_users(geo, 3, (2, 4), 43)
        assert prof_c != prof_a

    def test_distance_support(self, million_radii):
        assert million_radii.min() >= 35.0 and million_radii.max() <= 500.0

    def test_area_uniform_radial_cdf(self, million_radii):
        # Fraction of drops inside radius r must follow the annulus-area CDF;
        # binomial 3-sigma band around it.
        n = million_radii.size
        for radius in (100.0, 250.0, 400.0):
            expected = (radius ** 2 - 35.0 ** 2) / (500.0 ** 2 - 35.0 ** 2)
            observed = float(np.mean(million_radii <= radius))
            sigma = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(observed - expected) <= 3.0 * sigma

    def test_profile_satisfies_invariants(self):
        geo = CellGeometry()
        profile, _ = place_users(geo, 5, (3, 2), 1)
        cfg = default_normalized_config(64, 200, 5, (3, 2))
        assert validate_config(cfg, profile) == []

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            place_users(CellGeometry(cell_radius=0.0), 1, (), 0)
        with pytest.raises(ValueError):
            place_users(CellGeometry(exclusion_radius=600.0), 1, (), 0)
        with pytest.raises(ValueError):
            place_users(CellGeometry(), -1, (), 0)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteParameters:
    """A NaN or infinite physical parameter raises ValueError naming its
    field where it enters: it used to give NaN or zero gains and powers."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["cell_radius", "pathloss_exponent", "attenuation_const"])
    def test_geometry(self, name, value):
        geometry = CellGeometry(**{name: value})
        with pytest.raises(ValueError, match=name):
            place_users(geometry, 2, (2,), 1)
        with pytest.raises(ValueError, match=name):
            pathloss(geometry, 100.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["bandwidth_hz", "tx_power_watts", "noise_psd_dbm_hz"])
    def test_radio(self, name, value):
        radio = RadioParams(**{name: value})
        with pytest.raises(ValueError, match=name):
            default_normalized_config(8, 200, 2, (2,), radio)
        with pytest.raises(ValueError, match=name):
            normalize_powers(radio, default_normalized_config(8, 200, 2, (2,)))


class TestNormalizePowers:
    def test_reference_normalization(self):
        # 10 W over 20 MHz at -174 dBm/Hz: sigma2 = 3.981e-21 W/Hz,
        # P = 10 / (20e6 * sigma2) = 1.25594e14.
        radio = RadioParams()
        assert noise_power_w_per_hz(radio) == pytest.approx(3.981071705534986e-21, rel=1e-12)
        cfg = default_normalized_config(100, 200, 1, (1,))
        assert cfg.total_power == pytest.approx(1.25594321575478e14, rel=1e-3)

    def test_unit_normalization(self):
        radio = RadioParams(bandwidth_hz=1.0, noise_psd_dbm_hz=0.0, tx_power_watts=0.001)
        cfg = default_normalized_config(10, 50, 1, (), radio)
        assert cfg.total_power == pytest.approx(1.0, rel=1e-12)

    def test_stock_energy_cap_formula(self):
        radio = RadioParams()
        cfg = default_normalized_config(100, 200, 1, (1,), radio)
        expected = 0.1 * 200 / (radio.bandwidth_hz * noise_power_w_per_hz(radio))
        assert cfg.unicast_energy_caps[0] == pytest.approx(expected, rel=1e-12)
        assert cfg.multicast_energy_caps[0][0] == pytest.approx(expected, rel=1e-12)

    def test_linear_in_tx_power(self):
        base = default_normalized_config(10, 100, 1, (1,), RadioParams(tx_power_watts=10.0))
        double = default_normalized_config(10, 100, 1, (1,), RadioParams(tx_power_watts=20.0))
        assert double.total_power == pytest.approx(2.0 * base.total_power, rel=1e-15)

    @pytest.mark.parametrize("radio", [
        RadioParams(),
        RadioParams(bandwidth_hz=2.0, noise_psd_dbm_hz=30.0, tx_power_watts=4.0),
        RadioParams(bandwidth_hz=1.4e6, noise_psd_dbm_hz=-171.3, tx_power_watts=0.7),
    ])
    @pytest.mark.parametrize("n_unicast, sizes", [
        (5, (3, 2)), (50, (100,) * 10), (0, (4,)), (3, ()), (0, ()), (-1, (2, 0, -1)),
    ])
    def test_default_config_equals_normalized_physical(self, n_unicast, sizes, radio):
        # Built once in normalized units, it holds the same bits as the
        # physical-unit config passed through normalize_powers.
        got = default_normalized_config(64, 150, n_unicast, sizes, radio)
        want = oracles.default_normalized_config_twice(64, 150, n_unicast, sizes, radio)
        assert got == want
        assert repr(got.to_dict()) == repr(want.to_dict())

    @settings(max_examples=60, deadline=None)
    @given(n_antennas=st.integers(-2, 600), coherence=st.integers(-1, 400),
           n_unicast=st.integers(-3, 120), sizes=st.lists(st.integers(-2, 120), max_size=12),
           radio=st.sampled_from([RadioParams(), RadioParams(bandwidth_hz=1.4e6,
                                                             noise_psd_dbm_hz=-171.3,
                                                             tx_power_watts=0.7)]))
    def test_default_config_equals_one_array_per_group(self, n_antennas, coherence, n_unicast,
                                                       sizes, radio):
        # Negative counts and empty groups give configs that validation
        # reports, alike on both builds.
        got = default_normalized_config(n_antennas, coherence, n_unicast, sizes, radio)
        want = oracles.default_normalized_config_per_group(n_antennas, coherence, n_unicast,
                                                           sizes, radio)
        assert got == want
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        fading = FadingProfile(unicast_gains=np.full(max(n_unicast, 0), 1e-9),
                               multicast_gains=[np.full(max(k, 0), 1e-9) for k in sizes])
        assert validate_config(got, fading) == validate_config(want, fading)
        if n_unicast < 0 or any(k < 1 for k in sizes):
            assert validate_config(got, fading)

    def test_normalize_scales_every_power_field(self):
        radio = RadioParams(bandwidth_hz=2.0, noise_psd_dbm_hz=30.0, tx_power_watts=4.0)
        # 30 dBm/Hz = 1 W/Hz, so the scale factor is 1/2.
        phys = SystemConfig(n_antennas=4, coherence_length=10, n_unicast=1,
                            group_sizes=(1,), pilot_length=2, total_power=4.0,
                            unicast_energy_caps=(6.0,), multicast_energy_caps=((8.0,),),
                            sse_weights=(1.0,))
        norm = normalize_powers(radio, phys)
        assert norm.total_power == pytest.approx(2.0)
        assert norm.unicast_energy_caps[0] == pytest.approx(3.0)
        assert norm.multicast_energy_caps[0][0] == pytest.approx(4.0)
