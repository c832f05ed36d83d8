import csv
import json

import pytest

from mimocast.allocation import mmf_se_report, sse_se_report
from mimocast.allocation import MmfSolution, SseSolution
from mimocast.cli import main
from mimocast.model import FadingProfile, SystemConfig


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


class TestValidate:
    def test_report_written_and_parses(self, scenario_path, tmp_path):
        out = tmp_path / "val.json"
        assert run("validate", "--scenario", scenario_path, "--precoder", "mrt",
                   "--trials", 400, "--seed", 3, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert len(doc["records"]) == 3 + 4
        for rec in doc["records"]:
            assert set(rec) == {"kind", "index", "closed_form", "empirical",
                                "ci_halfwidth", "z"}
        # round trip: serialize again and compare
        assert json.loads(json.dumps(doc)) == doc

    def test_trial_floor_enforced(self, scenario_path, tmp_path):
        rc = run("validate", "--scenario", scenario_path, "--precoder", "mrt",
                 "--trials", 10, "--out", tmp_path / "x.json")
        assert rc == 1

    def test_low_pass_rate_exits_nonzero(self, scenario_path, tmp_path, monkeypatch):
        import mimocast.cli as cli_mod
        from mimocast.montecarlo import ValidationReport

        def fake_validate(*a, **k):
            return ValidationReport(precoder="mrt", n_trials=100, n_discarded=0,
                                    records=(), pass_rate=0.5, passed=False)

        monkeypatch.setattr(cli_mod.montecarlo, "validate_closed_form", fake_validate)
        rc = run("validate", "--scenario", scenario_path, "--precoder", "mrt",
                 "--trials", 400, "--seed", 1, "--out", tmp_path / "v.json")
        assert rc == 1
        assert (tmp_path / "v.json").exists()   # report still written


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
