import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimocast

from mimocast.allocation import mmf_se_report, sse_se_report
from mimocast.allocation import MmfSolution, SseSolution
from mimocast.cli import main
from mimocast.model import FadingProfile, SystemConfig
from mimocast.montecarlo import EXACT_RTOL


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def scenario_path(tmp_path):
    out = tmp_path / "scen.json"
    rc = run("scenario", "--unicast", 3, "--groups", 2, "--group-size", 2,
             "--antennas", 64, "--seed", 11, "--out", out)
    assert rc == 0
    return out


class TestScenario:
    def test_defaults_recorded(self, scenario_path):
        doc = json.loads(scenario_path.read_text())
        assert doc["geometry"]["pathloss_exponent"] == 3.76
        assert doc["geometry"]["cell_radius"] == 500.0
        assert doc["geometry"]["exclusion_radius"] == 35.0
        assert doc["seed"] == 11
        assert len(doc["fading"]["unicast_gains"]) == 3
        assert len(doc["positions"]["multicast"]) == 2
        manifest = json.loads((scenario_path.parent / "scen.json.manifest.json").read_text())
        assert manifest["command"] == "scenario"
        assert manifest["seeds"] == {"placement": 11}
        assert "config_sha256" in manifest and "tool_version" in manifest

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("scenario", "--seed", 7, "--unicast", 2, "--groups", 1,
                       "--group-size", 2, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_seed_recorded(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("scenario", "--unicast", 1, "--groups", 1, "--group-size", 1,
                   "--out", out) == 0
        doc = json.loads(out.read_text())
        manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert manifest["seeds"]["placement"] == doc["seed"]

    def test_degenerate_geometry_fails_validation(self, tmp_path):
        rc = run("scenario", "--cell-radius", 0, "--out", tmp_path / "x.json")
        assert rc == 1
        assert not (tmp_path / "x.json").exists()


def load_scenario(path):
    doc = json.loads(path.read_text())
    return (SystemConfig.from_dict(doc["system"]),
            FadingProfile.from_dict(doc["fading"]))


class TestSolverCommands:
    def test_mmf_round_trip_rescore(self, scenario_path, tmp_path):
        out = tmp_path / "mmf.json"
        assert run("mmf", "--scenario", scenario_path, "--precoder", "mrt",
                   "--split-ratio", "1:1", "--out", out) == 0
        doc = json.loads(out.read_text())
        cfg, fading = load_scenario(scenario_path)
        sol = MmfSolution(**{k: (tuple(tuple(r) for r in v) if k in
                                 ("uplink_pilot_powers", "x_caps")
                                 else tuple(v) if isinstance(v, list) else v)
                             for k, v in doc["solution"].items()})
        rep = mmf_se_report(cfg, fading, sol, doc["p_unicast"])
        assert rep.min_multicast_se() == pytest.approx(doc["solution"]["objective"],
                                                       rel=1e-12)
        flat = [se for grp in doc["se_report"]["multicast_se"] for se in grp]
        assert min(flat) == pytest.approx(doc["solution"]["objective"], rel=1e-9)

    def test_mmf_all_unicast_power_zero_objective(self, scenario_path, tmp_path):
        out = tmp_path / "mmf0.json"
        assert run("mmf", "--scenario", scenario_path, "--precoder", "mrt",
                   "--split-ratio", "1:0", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["solution"]["objective"] == 0.0

    def test_sse_round_trip_rescore(self, scenario_path, tmp_path):
        out = tmp_path / "sse.json"
        assert run("sse", "--scenario", scenario_path, "--precoder", "zf",
                   "--split-ratio", "3:1", "--out", out) == 0
        doc = json.loads(out.read_text())
        cfg, fading = load_scenario(scenario_path)
        sol = SseSolution(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in doc["solution"].items()})
        rep = sse_se_report(cfg, fading, sol, doc["p_multicast"])
        assert rep.weighted_sum_unicast_se(cfg.sse_weights) \
            == pytest.approx(doc["solution"]["objective"], rel=1e-12)

    def test_sse_single_user_gets_everything(self, tmp_path):
        scen = tmp_path / "one.json"
        assert run("scenario", "--unicast", 1, "--groups", 1, "--group-size", 1,
                   "--antennas", 16, "--seed", 5, "--out", scen) == 0
        out = tmp_path / "sse1.json"
        assert run("sse", "--scenario", scen, "--precoder", "mrt",
                   "--split-ratio", "1:3", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["solution"]["downlink_powers"][0] == pytest.approx(
            doc["p_unicast"], rel=1e-12)

    def test_zf_needs_antenna_margin(self, tmp_path):
        scen = tmp_path / "tight.json"
        assert run("scenario", "--unicast", 4, "--groups", 2, "--group-size", 2,
                   "--antennas", 6, "--seed", 5, "--out", scen) == 0
        rc = run("sse", "--scenario", scen, "--precoder", "zf",
                 "--split-ratio", "1:1", "--out", tmp_path / "x.json")
        assert rc == 1
        assert run("sse", "--scenario", scen, "--precoder", "mrt",
                   "--split-ratio", "1:1", "--out", tmp_path / "m.json") == 0

    def test_both_split_flags_rejected(self, scenario_path, tmp_path):
        rc = run("mmf", "--scenario", scenario_path, "--precoder", "mrt",
                 "--p-un", 1.0, "--split-ratio", "1:1", "--out", tmp_path / "x.json")
        assert rc == 1


class TestPareto:
    def test_csv_endpoints_and_convexity(self, scenario_path, tmp_path):
        out = tmp_path / "par.csv"
        conv = tmp_path / "conv.json"
        assert run("pareto", "--scenario", scenario_path, "--precoder", "mrt",
                   "--points", 21, "--convexity-out", conv, "--out", out) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["p_un", "p_mu", "mmf_se", "sse", "precoder", "N"]
        assert len(rows) == 22
        assert float(rows[1][3]) == 0.0       # no unicast power, no sum SE
        assert float(rows[-1][2]) == 0.0      # no multicast power, no min SE
        assert json.loads(conv.read_text())["is_concave_boundary"] is True

    def test_deterministic_output(self, scenario_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("pareto", "--scenario", scenario_path, "--precoder", "zf",
                       "--points", 5, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_point_floor(self, scenario_path, tmp_path):
        assert run("pareto", "--scenario", scenario_path, "--precoder", "mrt",
                   "--points", 1, "--out", tmp_path / "x.csv") == 1

    def test_every_output_gets_a_manifest_listing_both(self, scenario_path, tmp_path):
        out, conv = tmp_path / "b.csv", tmp_path / "conv.json"
        assert run("pareto", "--scenario", scenario_path, "--precoder", "mrt",
                   "--points", 5, "--convexity-out", conv, "--out", out) == 0
        manifests = [json.loads(Path(f"{f}.manifest.json").read_text()) for f in (out, conv)]
        assert manifests[0] == manifests[1]
        assert manifests[0]["outputs"] == [str(out), str(conv)]
        # The hash still covers only the command, arguments and seeds.
        body = {k: manifests[0][k] for k in ("command", "args", "seeds")}
        assert manifests[0]["config_sha256"] == hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()


class TestValidate:
    def test_report_written_and_parses(self, scenario_path, tmp_path):
        # A correct run fails its gate by chance: 10 of 600 seeds at 400
        # trials on this scenario, seed 3 among them (unicast UT 2, z = 4.4).
        out = tmp_path / "val.json"
        assert run("validate", "--scenario", scenario_path, "--precoder", "mrt",
                   "--trials", 400, "--seed", 4, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert len(doc["records"]) == 3 + 4
        assert set(doc) == {"precoder", "n_trials", "n_discarded", "discarded_fraction",
                            "pass_rate", "pass_rate_by_kind", "worst_z", "n_weak_signal",
                            "passed", "records"}
        assert doc["worst_z"] == max(rec["z"] for rec in doc["records"])
        assert set(doc["pass_rate_by_kind"]) == {"unicast", "multicast"}
        for rec in doc["records"]:
            assert set(rec) == {"kind", "index", "closed_form", "empirical", "ci_low",
                                "ci_high", "z", "wald", "p_value", "m1_over_se"}
        # round trip: serialize again and compare
        assert json.loads(json.dumps(doc)) == doc

    def test_zf_report_is_strict_json(self, scenario_path, tmp_path):
        # ZF's desired term is exact, with a standard error of zero or at
        # rounding level, so m1/SE is capped at 1/EXACT_RTOL: a parser that
        # refuses NaN and Infinity reads the whole report.
        out = tmp_path / "val.json"
        assert run("validate", "--scenario", scenario_path, "--precoder", "zf",
                   "--trials", 200, "--seed", 3, "--out", out) == 0

        def refuse(constant):
            raise ValueError(f"{constant} in the report")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert doc["passed"] is True
        for rec in doc["records"]:
            assert rec["m1_over_se"] == pytest.approx(1.0 / EXACT_RTOL, rel=1e-12)

    def test_trial_floor_enforced(self, scenario_path, tmp_path):
        rc = run("validate", "--scenario", scenario_path, "--precoder", "mrt",
                 "--trials", 10, "--out", tmp_path / "x.json")
        assert rc == 1

    def test_trial_ceiling_enforced_before_any_trial(self, scenario_path, tmp_path, capsys,
                                                     monkeypatch):
        import mimocast.cli as cli_mod

        def no_run(*a, **k):
            raise AssertionError("ran the validator past the trial range")

        monkeypatch.setattr(cli_mod.montecarlo, "validate_closed_form", no_run)
        rc = run("validate", "--scenario", scenario_path, "--precoder", "mrt",
                 "--trials", 5_000_000_000, "--seed", 1, "--out", tmp_path / "x.json")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --trials must lie in [100, 4294967296]"), err
        assert not (tmp_path / "x.json").exists()

    def test_low_pass_rate_exits_nonzero(self, scenario_path, tmp_path, monkeypatch, capsys):
        import mimocast.cli as cli_mod
        from mimocast.montecarlo import ValidationReport

        def fake_validate(*a, **k):   # one UT of two passes
            columns = dict.fromkeys(("closed_form", "empirical", "ci_low", "ci_high", "wald",
                                     "p_value", "m1_over_se"), (0.0, 0.0))
            return ValidationReport(precoder="mrt", n_trials=100, n_discarded=0, n_unicast=2,
                                    group_sizes=(), z=(0.0, 4.0), **columns)

        monkeypatch.setattr(cli_mod.montecarlo, "validate_closed_form", fake_validate)
        # The message states the gate the library applies.
        monkeypatch.setattr(cli_mod.montecarlo, "PASS_RATE", 0.75)
        rc = run("validate", "--scenario", scenario_path, "--precoder", "mrt",
                 "--trials", 400, "--seed", 1, "--out", tmp_path / "v.json")
        assert rc == 1
        assert (tmp_path / "v.json").exists()   # report still written
        assert "validation FAILED: pass rate 0.5000 < 0.75" in capsys.readouterr().err


class TestValidateOneSided:
    SCENARIOS = {"unicast": ("--unicast", 0, "--groups", 2, "--group-size", 2),
                 "multicast": ("--unicast", 3, "--groups", 0)}

    @pytest.fixture(params=sorted(SCENARIOS))
    def one_sided(self, request, tmp_path):
        """A scenario without unicast UTs or without groups, and its budget."""
        scen = tmp_path / "one.json"
        assert run("scenario", *self.SCENARIOS[request.param], "--antennas", 32,
                   "--seed", 4, "--out", scen) == 0
        return scen, json.loads(scen.read_text())["system"]["total_power"]

    def test_powering_the_missing_side_exits_1(self, one_sided, tmp_path, capsys):
        scen, total = one_sided
        for split in (("--p-un", total / 2.0), ("--split-ratio", "1:1")):
            assert run("validate", "--scenario", scen, "--precoder", "mrt", "--trials", 100,
                       "--seed", 1, *split, "--out", tmp_path / "v.json") == 1, split
            assert "scenario has no" in capsys.readouterr().err

    def test_default_gives_the_budget_to_the_side_present(self, one_sided, tmp_path,
                                                          monkeypatch):
        import mimocast.cli as cli_mod
        scen, total = one_sided
        validate, seen = cli_mod.montecarlo.validate_closed_form, []

        def spy(cfg, fading, pilots_un, pilots_mu, powers, *rest):
            seen.append(powers)
            return validate(cfg, fading, pilots_un, pilots_mu, powers, *rest)

        monkeypatch.setattr(cli_mod.montecarlo, "validate_closed_form", spy)
        assert run("validate", "--scenario", scen, "--precoder", "mrt", "--trials", 100,
                   "--seed", 1, "--out", tmp_path / "v.json") == 0
        assert seen[0].total == pytest.approx(total, rel=1e-12)


class TestValidateNoUts:
    def test_scenario_without_uts_says_so(self, tmp_path, capsys):
        scen = tmp_path / "none.json"
        assert run("scenario", "--unicast", 0, "--groups", 0, "--seed", 4, "--out", scen) == 0
        splits = ((), ("--split-ratio", "1:0"), ("--split-ratio", "0:1"), ("--p-un", 0.0))
        for split in splits:
            assert run("validate", "--scenario", scen, "--precoder", "mrt", "--trials", 100,
                       "--seed", 1, *split, "--out", tmp_path / "v.json") == 1, split
            assert "scenario has no UTs" in capsys.readouterr().err, split
        for command in ("mmf", "sse"):
            assert run(command, "--scenario", scen, "--precoder", "mrt", "--p-un", 0.0,
                       "--out", tmp_path / "s.json") == 1
            assert "scenario has no UTs" in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists() and not (tmp_path / "s.json").exists()


class TestFigure:
    def test_fig4_row_count(self, tmp_path):
        out = tmp_path / "f4.csv"
        assert run("figure", "fig4", "--antennas-list", "24,32", "--unicast", 2,
                   "--groups", 2, "--group-size", 2, "--points", 5,
                   "--seed", 9, "--out", out) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 1 + 2 * 2 * 5    # two N, both precoders, 5 points

    def test_fig3_flags_zf_infeasible_cells(self, tmp_path):
        out = tmp_path / "f3.csv"
        assert run("figure", "fig3", "--antennas-list", "16", "--u-list", "4,20",
                   "--groups", 2, "--group-size", 2, "--drops", 2,
                   "--seed", 9, "--out", out) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        header = rows[0]
        by = {(r[header.index("precoder")], int(r[header.index("n_unicast")])): r
              for r in rows[1:]}
        feas = header.index("feasible")
        sse = header.index("sse")
        assert by[("zf", 4)][feas] == "True"
        assert by[("zf", 20)][feas] == "False"       # 16 antennas <= 20 + 2
        assert float(by[("zf", 20)][sse]) == 0.0
        assert by[("mrt", 20)][feas] == "True"

    def test_fig2_grid_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("figure", "fig2", "--antennas-list", "32",
                       "--g-list", "1,2", "--k-list", "2,3", "--unicast", 2,
                       "--drops", 3, "--seed", 4, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = list(csv.reader(a.read_text().splitlines()))
        assert len(rows) == 1 + 2 * 2 * 2   # one N, two G, two K, both precoders
        assert all(float(r[rows[0].index("mmf_se")]) > 0.0 for r in rows[1:])

    @pytest.mark.parametrize("figure, drops", [("fig2", 0), ("fig3", -2)])
    def test_drop_floor_enforced(self, tmp_path, figure, drops):
        out = tmp_path / "f.csv"
        assert run("figure", figure, "--antennas-list", "32", "--g-list", "1",
                   "--k-list", "2", "--u-list", "2", "--unicast", 2,
                   "--groups", 1, "--group-size", 2, "--drops", drops,
                   "--seed", 4, "--out", out) == 1
        assert not out.exists()


class TestExitCodes:
    def test_missing_scenario_file_is_io_error(self, tmp_path):
        rc = run("mmf", "--scenario", tmp_path / "nope.json", "--precoder", "mrt",
                 "--p-un", 0.0, "--out", tmp_path / "x.json")
        assert rc == 2

    def test_bad_flag_is_usage_error(self, tmp_path):
        assert run("mmf", "--no-such-flag") == 1

    def test_bad_ratio_is_usage_error(self, scenario_path, tmp_path):
        rc = run("mmf", "--scenario", scenario_path, "--precoder", "mrt",
                 "--split-ratio", "banana", "--out", tmp_path / "x.json")
        assert rc == 1

    @pytest.mark.parametrize("ratio", ["-1:1", "0:0", "inf:1", "nan:1"])
    def test_bad_ratio_values_are_usage_errors(self, scenario_path, tmp_path, ratio):
        rc = run("mmf", "--scenario", scenario_path, "--precoder", "mrt",
                 "--split-ratio", ratio, "--out", tmp_path / "x.json")
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ("scenario", "--seed", -1),
        ("scenario", "--unicast", -1),
        ("scenario", "--group-sizes", "2,0"),
        ("figure", "fig2", "--k-list", "0", "--antennas-list", "16", "--g-list", "1",
         "--drops", 1, "--seed", 1),
        ("figure", "fig4", "--points", 1, "--antennas-list", "16", "--unicast", 1,
         "--groups", 1, "--group-size", 2, "--seed", 1),
    ])
    def test_bad_counts_and_seeds_are_usage_errors(self, tmp_path, argv):
        assert run(*argv, "--out", tmp_path / "x") == 1

    @pytest.mark.parametrize("argv, flag", [
        (("figure", "fig3", "--groups", -1, "--antennas-list", "16", "--u-list", "2",
          "--group-size", 2, "--drops", 1, "--seed", 1), "--groups"),
        (("scenario", "--groups", -3), "--groups"),
        (("figure", "fig2", "--g-list", "1,-1", "--antennas-list", "16", "--k-list", "2",
          "--drops", 1, "--seed", 1), "--g-list"),
        (("figure", "fig4", "--groups", -2, "--antennas-list", "16", "--unicast", 1,
          "--group-size", 2, "--points", 3, "--seed", 1), "--groups"),
    ])
    def test_negative_group_counts_are_usage_errors(self, tmp_path, capsys, argv, flag):
        # (k,) * -1 == (): without the check these ran as zero-group cells.
        out = tmp_path / "x"
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must be non-negative")
        assert not out.exists()

    def test_empty_group_sizes_is_usage_error(self, tmp_path, capsys):
        # It used to fall back to --groups/--group-size and exit 0, while an
        # empty --antennas-list was already a usage error.
        out = tmp_path / "x"
        assert run("scenario", "--group-sizes", "", "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err.startswith(
            "error: --group-sizes must be comma-separated integers")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--bandwidth", "nan", "bandwidth_hz"), ("--tx-power", "inf", "tx_power_watts"),
        ("--noise-psd", "nan", "noise_psd_dbm_hz"), ("--cell-radius", "inf", "cell_radius"),
        ("--pathloss-exponent", "nan", "pathloss_exponent"),
        ("--attenuation-const", "inf", "attenuation_const")])
    def test_non_finite_physical_parameter_is_named(self, tmp_path, capsys, flag, value,
                                                     field):
        # --bandwidth nan used to exit 1 with over 1000 energy-cap violations.
        out = tmp_path / "x"
        assert run("scenario", flag, value, "--seed", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "energy" not in err
        assert not out.exists()

    def test_library_value_error_is_internal(self, scenario_path, tmp_path, capsys,
                                             monkeypatch):
        import mimocast.cli as cli_mod

        def broken_solver(*args):
            raise ValueError("solver bug")

        monkeypatch.setattr(cli_mod.allocation, "solve_mmf", broken_solver)
        rc = run("mmf", "--scenario", scenario_path, "--precoder", "mrt",
                 "--split-ratio", "1:1", "--out", tmp_path / "x.json")
        assert rc == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("figure", ["fig2", "fig3"])
    def test_figure_solver_value_error_is_internal(self, tmp_path, capsys, monkeypatch,
                                                   figure):
        from mimocast import allocation

        def broken_objectives(*args):
            raise ValueError("solver bug")

        for problem in (allocation._MmfProblem, allocation._SseProblem):
            monkeypatch.setattr(problem, "objectives", broken_objectives)
        out = tmp_path / "f.csv"
        assert run("figure", figure, *FIGURE_BASE[figure], "--out", out) == 3
        assert "internal error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, field, value", [
        ("system", "n_antennas", "100"),
        ("system", "total_power", None),
        ("system", "group_sizes", 3),
        ("fading", "unicast_gains", "nested"),
    ])
    def test_malformed_scenario_value_is_usage_error(self, scenario_path, tmp_path, capsys,
                                                     section, field, value):
        doc = json.loads(scenario_path.read_text())
        if value == "nested":
            value = doc[section][field]
            value[1] = [value[1]]
        doc[section][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = run("mmf", "--scenario", bad, "--precoder", "mrt", "--split-ratio", "1:1",
                 "--out", tmp_path / "x.json")
        assert rc == 1
        assert str(bad) in capsys.readouterr().err


    @pytest.mark.parametrize("field, value, message", [
        ("n_antennas", 64.0, "n_antennas must be an integer, got 64.0"),
        ("pilot_length", 6.5, "pilot_length must be an integer, got 6.5"),
        ("group_sizes", [3.7, 3], "group_sizes[0] must be an integer, got 3.7"),
    ])
    def test_non_integer_count_is_usage_error(self, tmp_path, capsys, field, value, message):
        # 64.0 used to reach the channel draw (exit 3), 6.5 ran the solver
        # (exit 0) and 3.7 was truncated to a group of 3.
        scen = tmp_path / "scen.json"
        assert run("scenario", "--unicast", 4, "--groups", 2, "--group-size", 3,
                   "--antennas", 64, "--seed", 11, "--out", scen) == 0
        doc = json.loads(scen.read_text())
        doc["system"][field] = value
        scen.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (("mmf", "--split-ratio", "1:1"), ("validate", "--trials", 100, "--seed", 1)):
            out = tmp_path / "x.json"
            assert run(*argv, "--scenario", scen, "--precoder", "mrt", "--out", out) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("section, field", [
        ("system", "total_power"), ("system", "unicast_energy_caps"),
        ("fading", "unicast_gains"), ("system", "n_antennas")])
    def test_number_a_float_cannot_hold_is_usage_error(self, scenario_path, tmp_path, capsys,
                                                       section, field):
        # A 401-digit integer used to escape as OverflowError (exit 3).
        doc = json.loads(scenario_path.read_text())
        if isinstance(doc[section][field], list):
            doc[section][field][0] = 10 ** 400
        else:
            doc[section][field] = 10 ** 400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (("mmf", "--split-ratio", "1:1"), ("sse", "--split-ratio", "1:1"),
                     ("validate", "--trials", 100, "--seed", 1), ("pareto", "--points", 3)):
            out = tmp_path / "x.out"
            assert run(*argv, "--scenario", bad, "--precoder", "mrt", "--out", out) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: "), err
            assert "is too large for a float" in err or "n_antennas" in err
            assert "Traceback" not in err and "internal error" not in err
            assert not out.exists()

    def test_huge_count_is_cut_in_the_message(self, scenario_path, tmp_path, capsys):
        # The 401-digit count used to be printed whole, in a line over 400 characters long.
        doc = json.loads(scenario_path.read_text())
        doc["system"]["n_antennas"] = 10 ** 400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "x.json"
        assert run("validate", "--scenario", bad, "--precoder", "mrt", "--trials", 100,
                   "--seed", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 160, err
        assert "n_antennas=1" + "0" * 37 + "..." + "0" * 39 + ":" in err
        assert not out.exists()

    def test_scenario_file_not_utf8_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"system": "caf\u00e9"}'.encode("latin-1"))
        assert run("mmf", "--scenario", bad, "--precoder", "mrt", "--split-ratio", "1:1",
                   "--out", tmp_path / "x.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not valid JSON") and "Traceback" not in err

    def test_long_violation_lists_are_summarized(self, tmp_path, capsys):
        # The first cell of the default grid has 10 unicast and 1000
        # multicast energy caps, all zero at --coherence 0.
        out = tmp_path / "f.csv"
        assert run("figure", "fig3", "--coherence", 0, "--seed", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err) < 1000
        assert err.count("energy cap must be positive") == 6
        assert "; … and 7 more unicast_energy_caps violations; " in err
        assert err.endswith("; … and 997 more multicast_energy_caps violations\n")


def _python_m_mimocast(*argv, timeout=60, preexec_fn=None):
    src = str(Path(mimocast.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "mimocast", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout, preexec_fn=preexec_fn)


def test_python_m_mimocast_runs_the_cli():
    proc = _python_m_mimocast("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"mimocast {mimocast.__version__}\n"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("first, preset, expected", [
    ("", {}, dict.fromkeys(BLAS_THREADS, "1")),    # the default applies
    ("", {"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),    # a user value wins
    ("import numpy; ", {}, {}),    # too late once numpy is loaded: nothing set
])
def test_importing_mimocast_defaults_to_one_blas_thread(first, preset, expected):
    src = str(Path(mimocast.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(preset, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    script = (f"{first}import json, os, mimocast; "
              f"print(json.dumps({{k: os.environ[k] for k in {BLAS_THREADS!r} if k in os.environ}}))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity masks")
@pytest.mark.parametrize("precoder", ["mrt", "zf"])
def test_validate_bytes_do_not_depend_on_usable_cpus(scenario_path, tmp_path, precoder):
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = []
    for name, preexec_fn in (("all", None), ("one", lambda: os.sched_setaffinity(0, one_cpu))):
        out = tmp_path / f"{name}.json"
        proc = _python_m_mimocast("validate", "--scenario", scenario_path, "--precoder",
                                  precoder, "--trials", 300, "--seed", 8, "--out", out,
                                  timeout=120, preexec_fn=preexec_fn)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# sha256 of output files at fixed seeds, recorded before per-UT data moved
# from tuples to flat arrays; the figure, scenario and pareto bytes must not
# change with the storage layout.  The fig3, fig4 and ZF pareto digests were
# recorded again when the sum-SE solver took its estimate and error
# variances from the model's rule instead of subtracting theta from beta:
# only ZF sum-SE values moved, by at most 1.6e-14 (fig3 sse), 2.0e-14 (fig4
# sse) and 1.6e-14 (pareto sse) relative, the size of the error the
# subtraction left at the paper cell's normalized powers (~1e14).  The
# fig2, fig4 and ZF pareto digests were recorded again when the max-min
# solver formed ZF's loads as 1/upsilon_j + sum 1/g + (K_j - c)*P instead
# of B_j - c*P: only ZF max-min values moved, by at most 4.1e-16 (fig2
# mmf_se, 35 values), 4.1e-16 (fig4 mmf_se, 15) and 2.2e-16 (pareto mmf_se,
# 2) relative.  The fig2, fig3 and fig4 digests were recorded again when
# every SE went through numpy's log1p instead of math.log1p, which differ in
# the last bit of a few percent of values: fig2 mmf_se moved by at most
# 2.1e-16 (6 values), fig3 sse by 1.9e-16 (2) and fig4 mmf_se by 2.1e-16
# (1) and sse by 2.8e-16 (2) relative.
#
# Every digest here pins the bits of one kind of host: numpy 2.4 on an x86
# CPU with AVX-512.  There numpy's vectorized power and log1p (SVML) need not
# round as C's libm does: the placement's `radii **= 3.76` already differs
# from math.pow in 5.3% of radii, and log1p from math.log1p in 3-4% of
# values.  A host without AVX-512, or another numpy, may write other last
# bits; a mismatch names the host (``host_features``).
PINNED_FIGURES = {
    "fig2": "1f7226acf96c122d9ecb52037d1c2f286e82821b506d8e90865e6c043b32b646",
    "fig3": "4b96dc5762e7357045f3dc749478b687a9d96eecde649d49ffd78fcbe1f7db55",
    "fig4": "df96dd5be4b48064275983e11057c2a388837b51105fb0b735ff3e3e81244b48",
}
# The same at the full default grids (--drops 10 --seed 5), recorded while
# each cell's drops were still placed and solved one at a time; fig3 again
# with the fig3 digest above (ZF sse moved by at most 4.8e-15 relative), and
# fig2 again with the fig2 digest above (ZF mmf_se moved by at most 6.2e-16
# relative, 57 values).  Both again with numpy's log1p: fig2 mmf_se moved by
# at most 3.8e-16 (7 values) and fig3 sse by 2.0e-16 (1) relative.
PINNED_DEFAULT_GRIDS = {
    "fig2": "c4dd52d71d6f0bf5cbc1794d90416ed881e2a8967b0f7f35aa1ec134327258c4",
    "fig3": "490b6b9aa1d1facfc3e7219eac274bde1d2b4115254c7afc803563a1d4e7669f",
}
PINNED_SCENARIO = "58d77eac63a40576427df949b7e4c7c0bc7d5b1603c5b22e622a2dcfa74f2fe6"
PINNED_PARETO = {
    "mrt": "6ada47b4407b5bd58c2f35d6b7be9cffa757bef6e571795c764793c3fb58e8e5",
    "zf": "c7e70446f8fad1ff5ddf2cf892cc06638b5f6b57cf0a18c4ce5f3cc31a470299",
}


# sha256 of the solver and validator outputs on the small scenario (the
# ``scenario_path`` fixture) at an even split, recorded while solver results
# still held tuples: the array-valued results must write the same JSON.  The
# validate digests were recorded again when trials moved to SFC64 streams,
# again when the validator moved from stored trials and a jackknife to
# per-UT moment sums and the moment test, again when trials drew their
# channels at unit variance and scaled each UT's terms instead (the same
# draws: every record moved by at most 2.3e-11 relative, a p-value), and
# again when received power became one fused reduction and ZF inverted its
# Gram instead of solving it after an eigensolve (every field moved by at
# most 5.9e-14 relative under MRT and 9.5e-12 under ZF, both p-values), and
# again when trials drew the pilot observations and each UT's channel in the
# span of the precoders instead of every full channel (other draws, equal in
# law), and again when trials read those draws in the basis of the pilot
# observations instead of the precoders' (equal in law: ZF records moved,
# MRT ones by at most 3.6e-14 relative, a p-value, as both bases agree when
# every stream has power), and again when trials factored the pilots' unit
# observations and scaled the precoders by the stream powers alone (the
# same draws: closed_form fields unchanged, every other field moved by at
# most 5.1e-14 relative under MRT and 5.7e-12 under ZF, a p-value and a z),
# and again when trials drew the observations' factor alone and took each
# UT's terms given the observations (new draws and terms with the same
# means: closed_form fields unchanged), and again when ZF trials stopped
# forming T = R^T conj(R^-H D), which is D, and read ||R_x||_F^2 off the
# rows of R^-1 (the same draws: closed_form and m1_over_se unchanged, every
# other ZF field moved by at most 9.7e-15 relative, wald, p_value and z by
# at most 4.1e-11; MRT unchanged).  The ZF digests were recorded again when
# the closed form took ZF's interference gain beta - var from the error
# variance formed without subtracting, and ZF trials, run in blocks, read the
# row norms of R^-1 off one back substitution instead of an LU inverse: the
# largest relative changes were 1.2e-15 (mmf se_report unicast_sinr), 1.4e-15
# (sse se_report unicast_sinr) and, in validate, 1.2e-15 (closed_form),
# 5.7e-15 (wald), 3.0e-15 (p_value) and 2.9e-15 (z); every MRT digest, and
# each moved file's other fields, unchanged.  The sse ZF digest was recorded
# again when the sum-SE solver read the model's error variance instead of
# subtracting: its solution objective moved by 1.7e-16 relative (one ulp),
# and nothing else.  The mmf ZF digest was recorded again when the max-min
# solver formed ZF's loads without subtracting c*P from B_j: gamma moved by
# 1.3e-16, downlink_powers by 1.4e-16, and se_report multicast_sinr and
# multicast_se by 2.7e-16 and 2.4e-16 relative; nothing else.  The mmf MRT
# digest was recorded again when every SE went through numpy's log1p: one
# se_report unicast_se value moved by 1.4e-16 relative (one ulp), and
# nothing else.
PINNED_SOLVER_OUTPUTS = {
    ("mmf", "mrt"): "f97497c2183e74bb46bbc4946c56caefbfca8b15c3a628cbf75f1d6ae980e225",
    ("mmf", "zf"): "f5955afd8d3002e1ccb27af0b7fe8472ac1ac4be206c1de4257fa849239f636e",
    ("sse", "mrt"): "6f8e2fb750945821becfdc20acc49649852d9de89e6d83d0489a4f466b8e607b",
    ("sse", "zf"): "f0dfaeca9be9b93e203f9c5d13c83ebcebf082668b6da3f87557690b8cc56c9e",
    ("validate", "mrt"): "92ba21722a1fe09ebdf3bce69ad7ecaca25fa3ba9ace86c3ded81bc8aea7e33d",
    ("validate", "zf"): "1afeb0b201233cd4a5be55baee2ebfd481a4f27231bc27136808db1969e409aa",
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def host_features() -> str:
    """The numpy version and the AVX-512 features numpy found on this CPU,
    on which the last bits of a pinned output may depend."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    avx512 = [name for name, on in __cpu_features__.items() if on and name.startswith("AVX512")]
    return f"numpy {np.__version__}; AVX-512: {' '.join(avx512) or 'none'}"


def assert_pinned(path, digest):
    assert sha256(path) == digest, f"digest mismatch on a host with {host_features()}"


class TestPinnedOutputs:
    @pytest.mark.parametrize("figure", sorted(PINNED_FIGURES))
    def test_figure_bytes(self, tmp_path, figure):
        out = tmp_path / f"{figure}.csv"
        assert run("figure", figure, "--antennas-list", "100,250", "--drops", 2,
                   "--seed", 5, "--out", out) == 0
        assert_pinned(out, PINNED_FIGURES[figure])

    @pytest.mark.parametrize("figure", sorted(PINNED_DEFAULT_GRIDS))
    def test_default_grid_bytes(self, tmp_path, figure):
        out = tmp_path / f"{figure}.csv"
        assert run("figure", figure, "--drops", 10, "--seed", 5, "--out", out) == 0
        assert_pinned(out, PINNED_DEFAULT_GRIDS[figure])

    @pytest.mark.parametrize("command, precoder", sorted(PINNED_SOLVER_OUTPUTS))
    def test_solver_and_validate_bytes(self, scenario_path, tmp_path, command, precoder):
        out = tmp_path / f"{command}_{precoder}.json"
        flags = (("--trials", 100, "--seed", 3) if command == "validate"
                 else ("--split-ratio", "1:1"))
        assert run(command, "--scenario", scenario_path, "--precoder", precoder, *flags,
                   "--out", out) == 0
        assert_pinned(out, PINNED_SOLVER_OUTPUTS[command, precoder])

    def test_scenario_and_pareto_bytes(self, tmp_path):
        scen = tmp_path / "scen.json"
        assert run("scenario", "--seed", 5, "--out", scen) == 0
        assert_pinned(scen, PINNED_SCENARIO)
        for precoder, digest in PINNED_PARETO.items():
            out = tmp_path / f"pareto_{precoder}.csv"
            assert run("pareto", "--scenario", scen, "--precoder", precoder,
                       "--points", 11, "--out", out) == 0
            assert_pinned(out, digest)


# Exit code and stderr of figure runs at edge inputs, recorded while each
# cell's drops were still placed and solved one at a time.  Each edge flag
# follows a small base grid and overrides its value there.
FIGURE_BASE = {
    "fig2": ("--antennas-list", "32", "--g-list", "1", "--k-list", "2", "--unicast", "2",
             "--drops", "1", "--seed", "1"),
    "fig3": ("--antennas-list", "32", "--u-list", "2", "--groups", "1", "--group-size", "2",
             "--drops", "1", "--seed", "1"),
}
_COHERENCE_0 = ("error: invalid configuration: coherence_length=0: must be a positive "
                "integer; pilot_length=3: cannot exceed the coherence length; "
                + "; ".join(f"{name}={0.0!r}: energy cap must be positive"
                            for name in ("unicast_energy_caps[0]", "unicast_energy_caps[1]",
                                         "multicast_energy_caps[0][0]",
                                         "multicast_energy_caps[0][1]")))
PINNED_FIGURE_EDGES = [
    ("fig2", ("--g-list", "0"), 1, "error: max-min multicast needs at least one group"),
    ("fig2", ("--antennas-list", "0"), 1,
     "error: invalid configuration: n_antennas=0: must be a positive integer"),
    ("fig2", ("--unicast", "0"), 0, ""),
    ("fig2", ("--unicast", "-1"), 1,
     "error: need n_unicast >= 0 and every group size >= 1"),
    ("fig2", ("--coherence", "2"), 1,
     "error: invalid configuration: pilot_length=3: cannot exceed the coherence length"),
    ("fig3", ("--u-list", "0"), 1,
     "error: sum-SE allocation needs at least one unicast UT"),
    ("fig3", ("--groups", "0"), 0, ""),
    ("fig3", ("--group-size", "0"), 1,
     "error: need n_unicast >= 0 and every group size >= 1"),
    ("fig3", ("--coherence", "0"), 1, _COHERENCE_0),
    ("fig3", ("--antennas-list", "-5"), 1,
     "error: invalid configuration: n_antennas=-5: must be a positive integer"),
    # Grids whose failing cell is not the first one, or fails for two
    # reasons, or where ZF serves one antenna count and not another (3 with
    # U + G = 3), recorded while the cells were still solved one at a time.
    ("fig2", ("--antennas-list", "32,0"), 1,
     "error: invalid configuration: n_antennas=0: must be a positive integer"),
    ("fig3", ("--antennas-list", "0,32", "--coherence", "0"), 1,
     "error: invalid configuration: n_antennas=0: must be a positive integer; "
     + _COHERENCE_0.removeprefix("error: invalid configuration: ")),
    ("fig3", ("--antennas-list", "4,32"), 0, ""),
    ("fig3", ("--antennas-list", "3,32"), 0, ""),
]


@pytest.mark.parametrize("figure, edge, code, message", PINNED_FIGURE_EDGES,
                         ids=[f"{f}{''.join(e)}" for f, e, *_ in PINNED_FIGURE_EDGES])
def test_figure_edge_inputs_keep_exit_code_and_message(tmp_path, capsys, figure, edge,
                                                        code, message):
    out = tmp_path / "f.csv"
    assert run("figure", figure, *FIGURE_BASE[figure], *edge, "--out", out) == code
    assert capsys.readouterr().err == (message + "\n" if message else "")
    assert out.exists() == (code == 0)
