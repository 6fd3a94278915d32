import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from realmon.observables import observable_from_axis
from realmon.reality import reality_report
from realmon.states import DensityOperator
from realmon.certify import certify_circuits
from realmon.circuits import extract_channel
from realmon.config import ConfigError, SweepConfig, config_from_json, make_config
from realmon.output import write_text
from realmon.svg import render_sweep_chart
from realmon.sweeps import CSV_HEADER, emit_json, render_csv, run_sweep
from realmon.verify import verify_cases

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reject_constant(constant):
    """``parse_constant`` hook: NaN and Infinity are not strict JSON."""
    raise ValueError(f"not valid JSON: {constant}")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, "-m", "realmon", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


class TestConfig:
    def test_presets_validate(self):
        for scenario in ("fig1", "fig2", "fig4a", "fig4b", "fig4c"):
            config = make_config(scenario, points=5)
            assert config.scenario == scenario
            assert len(config.grid_values) == 5

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            make_config("fig9")

    def test_epsilon_grid_range_checked(self):
        with pytest.raises(ConfigError, match="grid_values"):
            SweepConfig(grid_kind="epsilon", grid_values=(0.5, 1.5)).validate()

    def test_unknown_state(self):
        with pytest.raises(ConfigError, match="state"):
            make_config("fig4a", points=3, state="nope")

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            make_config("fig4a", points=3, wibble=1)

    def test_from_json_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig4a", "points": 5, "seed": 9}))
        config = config_from_json(str(path), shots=128)
        assert config.scenario == "fig4a" and config.seed == 9 and config.shots == 128

    def test_from_json_overrides_path_and_scenario(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig4a", "points": 3}))
        config = config_from_json(str(path), path="circuit", scenario="fig4c")
        assert config.path == "circuit" and config.scenario == "fig4c"
        assert config.state == "plus" and config.monitor_axis == (math.pi / 4, 0.0)

    def test_from_json_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            config_from_json(str(path))


class TestAnalyticSweeps:
    def test_fig1_full_strength_monitored_gain_is_one_bit(self):
        records = run_sweep(make_config("fig1", points=9, epsilon=1.0))
        for r in records:
            assert r.dR_X == 1.0
        mid = records[4]  # theta = pi/2: probe is the x axis, state is plus
        assert abs(mid.theta_m - math.pi / 2) <= 1e-12
        assert abs(mid.dR_Xp) <= 1e-12

    def test_fig1_ordering(self):
        records = run_sweep(make_config("fig1", points=17, epsilon=0.6))
        for r in records:
            assert r.dR_X >= r.dR_Xp - 1e-9

    def test_fig2_ordering(self):
        records = run_sweep(make_config("fig2", points=17, epsilon=0.6))
        for r in records:
            assert r.dR_Xp >= r.dR_X - 1e-9

    def test_fig4a_case_iii_flat_zero(self):
        records = run_sweep(make_config("fig4a", points=9))
        for r in records:
            assert r.case == "Xprime-diagonal"
            assert abs(r.dR_Xp) <= 1e-12

    def test_fig4b_case_v_equality(self):
        records = run_sweep(make_config("fig4b", points=9))
        for r in records:
            assert r.case == "triple-MU"
            assert abs(r.dR_X - r.dR_Xp) <= 1e-10

    def test_fig4c_probe_dominates(self):
        records = run_sweep(make_config("fig4c", points=9))
        for r in records:
            assert r.dR_Xp >= r.dR_X - 1e-9

    def test_records_satisfy_four_entropy_identity(self):
        records = run_sweep(make_config("fig4c", points=9))
        for r in records:
            lhs = r.dR_Xp
            rhs = r.dR_X + r.S_probe - r.S_probe_mon
            assert abs(lhs - rhs) <= 1e-10

    def test_grid_stack_matches_pointwise_reports(self):
        config = make_config("fig4c", points=7)
        plus = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
        x, xp = observable_from_axis(math.pi / 4, 0.0), observable_from_axis(0.0, 0.0)
        for r in run_sweep(config):
            report = reality_report(x, xp, r.epsilon, plus)
            assert abs(r.dR_X - report.delta_r_monitored) <= 1e-15
            assert abs(r.dR_Xp - report.delta_r_probe) <= 1e-15
            assert r.case == str(report.case_label)

    def test_epsilon_grid_kind(self):
        config = make_config(
            "custom",
            state="plus",
            monitor_axis=(0.0, 0.0),
            probe_axis=(math.pi / 2, 0.0),
            grid_kind="epsilon",
            grid_values=(0.0, 0.5, 1.0),
        )
        records = run_sweep(config)
        assert [r.epsilon for r in records] == [0.0, 0.5, 1.0]
        assert abs(records[1].theta_m - math.acos(0.5)) <= 1e-12


class TestCircuitPath:
    def test_circuit_path_matches_analytic(self):
        analytic = run_sweep(make_config("fig4c", points=7))
        circuit = run_sweep(make_config("fig4c", points=7, path="circuit"))
        for a, c in zip(analytic, circuit):
            assert abs(a.dR_X - c.dR_X) <= 1e-9
            assert abs(a.dR_Xp - c.dR_Xp) <= 1e-9
            assert abs(a.S_probe_mon - c.S_probe_mon) <= 1e-9

    def test_circuit_path_cnot(self):
        analytic = run_sweep(make_config("fig4a", points=5, coupling="CNOT"))
        circuit = run_sweep(make_config("fig4a", points=5, coupling="CNOT", path="circuit"))
        for a, c in zip(analytic, circuit):
            assert abs(a.dR_X - c.dR_X) <= 1e-9


class TestNoisyPath:
    def test_noisy_records_have_errors(self):
        records = run_sweep(make_config("fig4a", points=3, path="noisy", shots=1024, repeats=4, seed=1))
        for r in records:
            assert r.se_dR_X is not None and r.se_dR_X >= 0.0
            assert r.path == "noisy"

    def test_exact_expectation_sentinel(self):
        records = run_sweep(make_config("fig4a", points=3, path="noisy", shots=0, seed=1))
        again = run_sweep(make_config("fig4a", points=3, path="noisy", shots=0, seed=99))
        for r, r2 in zip(records, again):
            assert r.se_dR_X == 0.0
            assert r.dR_X == r2.dR_X  # no sampling, seed does not matter

    def test_noiseless_shots_converge(self):
        config = make_config(
            "fig4a",
            points=5,
            path="noisy",
            shots=10**6,
            repeats=1,
            seed=0,
            readout_flip=0.0,
            depolarizing=0.0,
        )
        noisy = run_sweep(config)
        exact = run_sweep(make_config("fig4a", points=5))
        gaps = [abs(n.dR_X - e.dR_X) for n, e in zip(noisy, exact)]
        assert sorted(gaps)[len(gaps) // 2] < 0.01


class TestEmission:
    def test_csv_header_and_length(self):
        records = run_sweep(make_config("fig4a", points=3))
        text = render_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_empty_records_error(self):
        with pytest.raises(ConfigError):
            render_csv([])

    def test_csv_deterministic(self, tmp_path):
        config = make_config("fig4a", points=5, path="noisy", shots=512, repeats=3, seed=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_text(str(p1), render_csv(run_sweep(config)))
        write_text(str(p2), render_csv(run_sweep(config)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirror(self, tmp_path):
        config = make_config("fig4a", points=3, seed=5)
        records = run_sweep(config)
        path = tmp_path / "out.json"
        emit_json(records, config, str(path))
        data = json.loads(path.read_text())
        assert data["metadata"]["seed"] == 5
        assert data["metadata"]["scenario"] == "fig4a"
        assert "tomography" in data["metadata"]
        assert len(data["records"]) == 3
        assert data["records"][0]["case"] == "Xprime-diagonal"

    def test_svg_two_series(self):
        config = make_config("fig1", points=9, epsilon=1.0)
        records = run_sweep(config)
        svg = render_sweep_chart(records, config)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "dR monitored" in svg and "dR probe" in svg

    def test_unwritable_path_raises_config_error(self):
        records = run_sweep(make_config("fig4a", points=3))
        with pytest.raises(ConfigError, match="cannot write"):
            write_text("/nonexistent-dir/out.csv", render_csv(records))


class TestVerifyAndCertifyAPI:
    def test_verify_cases_ok(self):
        report = verify_cases(seed=5, trials=25, dims=(2, 3))
        assert report.ok
        text = report.render_text()
        assert "PASS" in text and "FAIL" not in text

    def test_verify_trials_validated(self):
        with pytest.raises(ConfigError):
            verify_cases(trials=0)

    @pytest.mark.parametrize("dims", [(), (0,), (1, 2), (2.5,), (2, 2), (2, 3, 2)])
    def test_verify_dims_validated(self, dims):
        with pytest.raises(ConfigError, match="dims"):
            verify_cases(trials=1, dims=dims)

    def test_verify_counts_evaluated_instances(self):
        # with d=2 alone, every check (the MU ones included) evaluates `trials` instances
        report = verify_cases(seed=1, trials=3, dims=(2,))
        assert report.ok
        assert {c.instances for c in report.checks} == {3}

    def test_verify_mu_checks_not_applicable_without_d2_or_d3(self):
        report = verify_cases(seed=1, trials=3, dims=(4,))
        mu = [c for c in report.checks if "MU" in c.name]
        assert len(mu) == 5
        assert all(c.instances == 0 and c.worst is None and c.passed is None for c in mu)
        assert report.ok
        lines = report.render_text().splitlines()
        for check in mu:
            line = next(line for line in lines if check.name in line)
            assert line.lstrip().startswith("[N/A]")
        assert all(c["worst"] is None for c in report.to_dict()["checks"] if "MU" in c["name"])

    def test_verify_labels_checked(self):
        report = verify_cases(seed=2, trials=5, dims=(2, 3))
        checks = {c.name: c for c in report.checks}
        assert checks["(i) commuting pair labelled compatible"].instances == 10
        for d in (2, 3):
            label = checks[f"(v) third-basis-diagonal state labelled triple-MU (d={d})"]
            assert label.passed and label.instances == 5 and label.worst == 0.0

    def test_certify_ok_and_notes(self):
        report = certify_circuits(resolution=5, seed=3)
        assert report.ok
        assert report.cnot_mapping_max_error <= 1e-10
        text = report.render_text()
        assert "1 - (1/2) sin(theta)" in text
        assert "eps = 1 - sin(theta_m)" in text

    def test_certify_resolution_validated(self):
        with pytest.raises(ConfigError):
            certify_circuits(resolution=1)

    @pytest.mark.parametrize("resolution", [2.5, 3.0, True, "3"])
    def test_certify_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ConfigError, match="resolution"):
            certify_circuits(resolution=resolution)

    def test_certify_extracts_each_circuit_once(self, monkeypatch):
        import realmon.certify as certify_mod

        extracted = []

        def counting_extract(circuit):
            extracted.append(circuit)
            return extract_channel(circuit)

        monkeypatch.setattr(certify_mod, "extract_channel", counting_extract)
        for resolution in (2, 3):
            extracted.clear()
            assert certify_mod.certify_circuits(resolution=resolution, seed=3).ok
            # 2 couplings x 2 widths x 3 bases per strength, plus the three-qubit smoke test
            assert len(extracted) == 12 * resolution + 3
            assert len(set(extracted)) == len(extracted)


class TestCLI:
    def test_sweep_stdout_csv(self):
        proc = run_cli("sweep", "--scenario", "fig4a", "--points", "3")
        assert proc.returncode == 0
        assert proc.stdout.startswith(CSV_HEADER)

    def test_sweep_writes_files(self, tmp_path):
        out = tmp_path / "records.csv"
        svg = tmp_path / "chart.svg"
        jsn = tmp_path / "records.json"
        proc = run_cli(
            "sweep", "--scenario", "fig4c", "--points", "3",
            "--out", str(out), "--svg", str(svg), "--json", str(jsn),
        )
        assert proc.returncode == 0
        assert out.read_text().startswith(CSV_HEADER)
        assert svg.read_text().startswith("<svg")
        assert json.loads(jsn.read_text())["metadata"]["scenario"] == "fig4c"

    def test_config_error_exit_code(self):
        proc = run_cli("sweep", "--scenario", "fig4a", "--shots", "-3")
        assert proc.returncode == 3
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_points_below_two_exit_code(self, points):
        proc = run_cli("sweep", "--scenario", "fig4a", "--points", points)
        assert proc.returncode == 3
        assert "points" in proc.stderr

    def test_non_finite_state_config_exit_code(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig4a", "state": {"theta": math.nan}}))
        proc = run_cli("sweep", "--config", str(path), "--points", "3")
        assert proc.returncode == 3
        assert "state" in proc.stderr

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"grid_kind": "theta_m", "grid_values": [0.1, math.nan]}, "grid_values"),
            ({"grid_kind": "epsilon", "grid_values": [math.inf]}, "grid_values"),
            (
                {"grid_kind": "axis_theta", "sweep_target": "probe", "grid_values": [0.0, math.nan]},
                "grid_values",
            ),
            ({"scenario": "fig4a", "path": "noisy", "readout_flip": 1.5}, "readout_flip"),
            ({"scenario": "fig4a", "readout_flip": -0.1}, "readout_flip"),
            ({"scenario": "fig4a", "readout_flip": math.nan}, "readout_flip"),
            ({"scenario": "fig4a", "path": "noisy", "readout_flip": []}, "readout_flip"),
            ({"scenario": "fig4a", "path": "noisy", "readout_flip": [0.0208]}, "readout_flip"),
            ({"scenario": "fig4a", "readout_flips": [0.0208, 0.0192, 0.0213]}, "readout_flips"),
            ({"scenario": "fig4a", "monitor_axis": [0.3]}, "monitor_axis"),
            ({"scenario": "fig4a", "probe_axis": [0.3, math.inf]}, "probe_axis"),
            ({"scenario": "fig4a", "probe_axis": [0.3, 0.0, 1.0]}, "probe_axis"),
            ({"scenario": "fig4a", "path": "noisy", "depolarizing": math.nan}, "depolarizing"),
            ({"scenario": "fig1", "epsilon": "a"}, "epsilon"),
            ({"scenario": "fig4a", "path": "noisy", "depolarizing": "a"}, "depolarizing"),
            ({"scenario": "fig4a", "path": "noisy", "seed": "x"}, "seed"),
            ({"scenario": "fig4a", "path": "noisy", "shots": 100.5}, "shots"),
            ({"scenario": "fig4a", "path": "noisy", "repeats": 2.5}, "repeats"),
            ({"scenario": "fig4a", "out": 5}, "out"),
            ({"scenario": "fig1", "epsilon": True}, "epsilon"),
            ({"scenario": "fig1", "monitor_axis": [False, False]}, "monitor_axis"),
            ({"scenario": "fig4a", "path": "noisy", "depolarizing": True}, "depolarizing"),
            ({"scenario": "fig4a", "path": "noisy", "readout_flip": True}, "readout_flip"),
            ({"scenario": "fig4a", "state": {"theta": True}}, "state"),
        ],
        ids=[
            "grid-theta_m-nan", "grid-epsilon-inf", "grid-axis_theta-nan", "flips-above-one",
            "flips-negative", "flips-nan", "flips-empty", "flips-list", "old-readout-flips",
            "monitor-axis-one-number", "probe-axis-inf",
            "probe-axis-three-numbers", "depolarizing-nan", "epsilon-string", "depolarizing-string",
            "seed-string", "shots-fractional", "repeats-fractional", "out-not-a-path", "epsilon-bool",
            "monitor-axis-bools", "depolarizing-bool", "flips-bool", "state-theta-bool",
        ],
    )
    def test_malformed_config_field_exit_code(self, tmp_path, capsys, fields, name):
        import realmon.cli as cli_mod

        path = tmp_path / "config.json"
        path.write_text(json.dumps(fields))
        assert cli_mod.main(["sweep", "--config", str(path), "--points", "3"]) == 3
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--path", "circuit"], ["--scenario", "fig4c"]])
    def test_config_file_with_path_or_scenario_flag(self, tmp_path, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig4a", "points": 3}))
        proc = run_cli("sweep", "--config", str(path), *flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(CSV_HEADER)
        assert len(proc.stdout.splitlines()) == 4

    def test_usage_error_exit_code(self):
        proc = run_cli("sweep", "--points", "abc")
        assert proc.returncode == 3
        assert "invalid int value" in proc.stderr

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag):
        assert run_cli(flag).returncode == 0

    def test_verify_cases_exit_zero(self):
        proc = run_cli("verify-cases", "--trials", "5")
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout

    def test_verify_cases_not_applicable_checks_write_strict_json(self, tmp_path):
        import realmon.cli as cli_mod

        out = tmp_path / "report.json"
        assert cli_mod.main(["verify-cases", "--dims", "4", "--trials", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=reject_constant)
        mu = [c for c in report["checks"] if "MU" in c["name"]]
        assert mu and all(c["instances"] == 0 and c["worst"] is None and c["passed"] is None for c in mu)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify-cases", "--dims", "0"], "dims"),
            (["tomo-sim", "--seeds", "0"], "seeds"),
            (["tomo-sim", "--shots", "-1"], "shots"),
            (["verify-cases", "--dims", "2", "3", "2"], "dims"),
            (["tomo-sim", "--shots", str(2**63)], "shots"),
            (["tomo-sim", "--shots", "100000000000000000000"], "shots"),
            (["sweep", "--path", "noisy", "--points", "2", "--shots", str(2**63)], "shots"),
            (["sweep", "--path", "noisy", "--points", "2", "--shots", "100000000000000000000"], "shots"),
        ],
        ids=[
            "verify-dims-zero",
            "tomo-seeds-zero",
            "tomo-shots-negative",
            "verify-dims-repeated",
            "tomo-shots-2-to-63",
            "tomo-shots-1e20",
            "sweep-shots-2-to-63",
            "sweep-shots-1e20",
        ],
    )
    def test_domain_errors_exit_code(self, capsys, argv, name):
        import realmon.cli as cli_mod

        assert cli_mod.main(argv) == 3
        assert name in capsys.readouterr().err

    def test_certify_circuits_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("certify-circuits", "--resolution", "3", "--out", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert any("1 - (1/2) sin" in n for n in report["notes"])

    def test_tomo_sim_summary(self):
        proc = run_cli("tomo-sim", "--shots", "256", "--seeds", "10")
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary["shots"] == 256
        assert "8192" in summary["shots_note"]
        assert summary["median_error"] > 0.0

    def test_tomo_sim_out_is_strict_json_and_reproducible(self, tmp_path, capsys):
        import realmon.cli as cli_mod

        paths = tmp_path / "a.json", tmp_path / "b.json"
        for path in paths:
            argv = ["tomo-sim", "--shots", "128", "--seeds", "5", "--seed", "4", "--noisy", "--out", str(path)]
            assert cli_mod.main(argv) == 0
        data = json.loads(paths[0].read_text(), parse_constant=reject_constant)
        assert set(data) == {"summary", "errors"}
        assert len(data["errors"]) == 5 and data["summary"]["seeds"] == 5
        assert data["summary"]["readout_noise"] is True
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tomo_sim_p90_is_nearest_rank(self, tmp_path, capsys):
        import realmon.cli as cli_mod

        out = tmp_path / "tomo.json"
        assert cli_mod.main(["tomo-sim", "--shots", "256", "--seeds", "10", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        ranked = sorted(data["errors"])
        assert len(ranked) == 10
        assert ranked[8] < ranked[9]  # the 9th smallest and the maximum differ on this seed
        assert data["summary"]["p90_error"] == ranked[8]
        assert data["summary"]["max_error"] == ranked[9]

    def test_violation_exit_code(self, monkeypatch):
        import realmon.cli as cli_mod

        class FailingReport:
            ok = False

            def render_text(self):
                return "result: VIOLATIONS FOUND"

            def to_dict(self):
                return {"ok": False}

        monkeypatch.setattr(cli_mod, "verify_cases", lambda **kw: FailingReport())
        assert cli_mod.main(["verify-cases", "--trials", "1"]) == 2
