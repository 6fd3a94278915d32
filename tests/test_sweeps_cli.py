import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from realmon.channels import to_superoperator
from realmon.observables import observable_from_axis
from realmon.reality import reality_report
from realmon.states import DensityOperator
from realmon.certify import certify_circuits
from realmon.circuits import (
    build_monitor_circuit,
    epsilon_of_strength,
    extract_channel,
    run_circuit_density,
    strength_of_epsilon,
)
from realmon.config import (
    MAX_DIMENSION,
    MAX_GRID_POINTS,
    MAX_REPEATS,
    MAX_RESOLUTION,
    MAX_SEEDS,
    MAX_TRIALS,
    ConfigError,
    SweepConfig,
    config_from_json,
    make_config,
    resolve_state,
)
from realmon.noise import confusion_from_flip
from realmon.reality import classify_case
from realmon.states import von_neumann_entropy
from realmon.tomography import estimate_pauli, reconstruct_state, tomography_errors
from realmon.output import write_text
from realmon.svg import render_sweep_chart
from realmon.sweeps import CSV_HEADER, SweepRecord, emit_json, render_csv, run_sweep
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

    @pytest.mark.parametrize(
        "scenario, fields, stop",
        [
            ("fig1", dict(monitor_axis=(0.0, 0.0), probe_axis=(math.pi / 2, 0.0), grid_kind="axis_theta",
                          sweep_target="probe"), math.pi),
            ("fig2", dict(monitor_axis=(math.pi / 4, 0.0), probe_axis=(0.0, 0.0), grid_kind="axis_theta",
                          sweep_target="monitor"), math.pi),
            ("fig4a", dict(monitor_axis=(0.0, 0.0), probe_axis=(math.pi / 2, 0.0)), math.pi / 2),
            ("fig4b", dict(state="iplus", monitor_axis=(0.0, 0.0), probe_axis=(math.pi / 2, 0.0)), math.pi / 2),
            ("fig4c", dict(monitor_axis=(math.pi / 4, 0.0), probe_axis=(0.0, 0.0)), math.pi / 2),
            ("custom", dict(), math.pi / 2),
        ],
    )
    def test_preset_fields_and_grid(self, scenario, fields, stop):
        for points in (2, 33, MAX_GRID_POINTS):
            grid = tuple(stop * k / (points - 1) for k in range(points))
            assert make_config(scenario, points=points) == SweepConfig(scenario, grid_values=grid, **fields)
            override = make_config(scenario, points=points, grid_values=(0.0, 0.5), seed=4)
            assert override == SweepConfig(scenario, grid_values=(0.0, 0.5), seed=4, **fields)

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
            assert r.case == str(classify_case(x, xp, plus))

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


def per_point_sweep(config):
    """Reference for the circuit and noisy paths: one grid point, repeat and
    state at a time, each through single-state circuit, tomography and
    entropy calls."""
    rho = resolve_state(config.state)
    depolarizing = config.depolarizing if config.path == "noisy" else 0.0
    repeats = 1 if config.path == "circuit" or config.shots == 0 else config.repeats
    records = []
    for index, value in enumerate(config.grid_values):
        monitor_axis, probe_axis = config.monitor_axis, config.probe_axis
        if config.grid_kind == "theta_m":
            theta_col = strength = value
            eps = epsilon_of_strength(config.coupling, value)
        elif config.grid_kind == "epsilon":
            theta_col = strength = strength_of_epsilon(config.coupling, value)
            eps = value
        else:
            theta_col, eps = value, config.epsilon
            strength = strength_of_epsilon(config.coupling, eps)
            if config.sweep_target == "probe":
                probe_axis = (value, probe_axis[1])
            else:
                monitor_axis = (value, monitor_axis[1])
        probe_circ = build_monitor_circuit([probe_axis], math.pi / 2, "CZ")
        mon = run_circuit_density(build_monitor_circuit([monitor_axis], strength, config.coupling), rho, depolarizing)
        probe = run_circuit_density(probe_circ, rho, depolarizing)
        states = (rho, mon, probe, run_circuit_density(probe_circ, mon, depolarizing))
        rows = []
        for rep in range(repeats):
            row = []
            for k, state in enumerate(states):
                if config.path == "noisy":
                    rng = np.random.default_rng([config.seed, index, rep, k])
                    bloch = estimate_pauli(state, config.shots, rng, confusion_from_flip(config.readout_flip))
                    state = reconstruct_state(bloch)
                row.append(von_neumann_entropy(state))
            rows.append(row)
        s = np.array(rows)
        gains = np.column_stack((s[:, 1] - s[:, 0], s[:, 2] + s[:, 1] - s[:, 0] - s[:, 3]))
        means = np.column_stack((gains, s)).mean(axis=0)
        se = [None, None]
        if config.path == "noisy":
            se = (gains.std(axis=0, ddof=1) / math.sqrt(len(s)) if len(s) > 1 else np.zeros(2)).tolist()
        case = classify_case(observable_from_axis(*monitor_axis), observable_from_axis(*probe_axis), rho)
        records.append(SweepRecord(theta_col, eps, *means.tolist(), str(case), config.path, *se))
    return records


class TestBatchedEngineMatchesPerPointLoop:
    """The stacked circuit and noisy paths give the per-point loop's CSV bytes."""

    @pytest.mark.parametrize(
        "scenario, overrides",
        [
            ("fig4a", dict(path="circuit")),
            ("fig4a", dict(path="circuit", coupling="CNOT")),
            ("fig1", dict(path="circuit", epsilon=0.6)),
            ("fig2", dict(path="circuit")),
            ("custom", dict(path="circuit", grid_kind="epsilon", grid_values=(0.0, 0.3, 0.7, 1.0))),
            ("fig4a", dict(path="noisy", shots=512, repeats=3, seed=7)),
            ("fig4c", dict(path="noisy", shots=8192, repeats=2, seed=3, coupling="CNOT")),
            ("fig1", dict(path="noisy", shots=64, repeats=4, seed=1, readout_flip=0.0, depolarizing=0.0)),
            ("fig4b", dict(path="noisy", shots=256, repeats=1, seed=2, state={"theta": 1.0, "phi": 2.0})),
            ("fig4a", dict(path="noisy", shots=0, seed=5)),
        ],
        ids=[
            "circuit-fig4a", "circuit-cnot", "circuit-fig1", "circuit-fig2", "circuit-epsilon-grid",
            "noisy-fig4a", "noisy-cnot", "noisy-perfect-readout", "noisy-one-repeat", "noisy-exact-shots",
        ],
    )
    def test_csv_bytes_equal(self, scenario, overrides):
        config = make_config(scenario, points=9, **overrides)
        assert render_csv(run_sweep(config)) == render_csv(per_point_sweep(config))


class TestOneLabelCallPerStack:
    """Case labels come from one ``classify_case`` call per stack, never one per member."""

    @staticmethod
    def _count_calls(monkeypatch, module):
        calls = []

        def counting(x, xp, rho):
            calls.append((x.batch, xp.batch, rho.batch))
            return classify_case(x, xp, rho)

        monkeypatch.setattr(module, "classify_case", counting)
        return calls

    @pytest.mark.parametrize("path", ["analytic", "circuit", "noisy"])
    def test_one_call_per_sweep(self, monkeypatch, path):
        import realmon.sweeps as sweeps_mod

        calls = self._count_calls(monkeypatch, sweeps_mod)
        records = run_sweep(make_config("fig1", points=9, path=path, shots=64, repeats=2))
        assert calls == [(9, 9, None)]
        assert {r.case for r in records} == {"compatible", "generic", "Xprime-diagonal"}

    def test_one_call_per_labelled_section_and_dimension(self, monkeypatch):
        import realmon.verify as verify_mod

        calls = self._count_calls(monkeypatch, verify_mod)
        assert verify_cases(seed=3, trials=4, dims=(2, 3, 4)).ok
        # (i) commuting pairs at d = 2, 3, 4, then (v) the third basis at d = 2, 3
        assert calls == [(4, 4, 4)] * 3 + [(None, None, 4)] * 2


class TestOneBuildPerStack:
    """A sweep builds each axis observable stack, and certify each analytic
    reference stack, in one call, never one per member."""

    @pytest.mark.parametrize("scenario", ["fig1", "fig2", "fig4a"])
    @pytest.mark.parametrize("path", ["analytic", "circuit", "noisy"])
    def test_two_axis_observable_calls_per_sweep(self, monkeypatch, scenario, path):
        import realmon.observables as observables_mod
        import realmon.sweeps as sweeps_mod

        calls = []

        def counting(theta, phi=0.0):
            calls.append(np.shape(theta))
            return observable_from_axis(theta, phi)

        for module in (observables_mod, sweeps_mod):
            monkeypatch.setattr(module, "observable_from_axis", counting)
        run_sweep(make_config(scenario, points=5, path=path, shots=64, repeats=2))
        assert calls == [(5,), (5,)]

    def test_certify_makes_five_extractions_and_five_references(self, monkeypatch):
        import realmon.certify as certify_mod
        import realmon.circuits as circuits_mod

        calls = []

        def counting(channel):
            calls.append((type(channel).__name__, channel.batch))
            return to_superoperator(channel)

        for module in (certify_mod, circuits_mod):
            monkeypatch.setattr(module, "to_superoperator", counting)
        assert certify_circuits(17).ok
        # per coupling, widths 1 and 2: a circuit stack of 51, then its reference stack; then the smoke test
        per_coupling = [("Circuit", 51), ("MonitoringChannel", 51), ("Circuit", 51), ("ComposedChannel", 51)]
        assert calls == per_coupling * 2 + [("Circuit", 3), ("ComposedChannel", 3)]


class TestEmission:
    def test_csv_header_is_the_record_fields(self):
        expected = "theta_m,epsilon,dR_X,dR_Xp,S_rho,S_mon,S_probe,S_probe_mon,case,path,se_dR_X,se_dR_Xp"
        assert CSV_HEADER == expected

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


def member_params(gate, k):
    """Member ``k``'s angles of a possibly stacked gate."""
    return tuple(p[k] if isinstance(p, tuple) else p for p in gate.params)


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
            # one stack per coupling and width, of 3 bases per strength, plus the
            # three-qubit smoke test: 12 * resolution + 3 circuits, each extracted once
            assert [c.batch for c in extracted] == [3 * resolution] * 4 + [3]
            members = {
                (c.width, c.n_system, tuple((g.kind, g.qubits, member_params(g, k)) for g in c.gates))
                for c in extracted
                for k in range(c.batch)
            }
            assert len(members) == 12 * resolution + 3


class TestSizeCaps:
    """Size fields are capped before any grid or stack is built.

    Every oversize value here is checked through validation only: the grid
    builder and the sweep engine are replaced by functions that fail the
    test if they are reached.
    """

    @pytest.fixture(autouse=True)
    def _refuse_to_run(self, monkeypatch):
        import realmon.cli as cli_mod

        def refuse(*args):
            raise AssertionError("an oversize config reached the sweep engine")

        monkeypatch.setattr(cli_mod, "run_sweep", refuse)
        self.main = cli_mod.main

    def _exit_code(self, tmp_path, fields, *argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(fields))
        return self.main(["sweep", "--config", str(path), *argv])

    @staticmethod
    def _refuse_grid(points, stop):
        raise AssertionError(f"a grid of {points} points was built before the size check")

    @pytest.mark.parametrize("points", [MAX_GRID_POINTS + 1, 100_000_000, 10**30])
    def test_points_over_the_cap_exit_3_before_the_grid_is_built(self, tmp_path, capsys, monkeypatch, points):
        import realmon.config as config_mod

        monkeypatch.setattr(config_mod, "_grid", self._refuse_grid)
        assert self._exit_code(tmp_path, {"scenario": "fig4a", "points": points}) == 3
        assert "points" in capsys.readouterr().err
        assert self.main(["sweep", "--scenario", "fig4c", "--points", str(points)]) == 3

    def test_repeats_over_the_cap_exit_3(self, tmp_path, capsys):
        fields = {"scenario": "fig4a", "path": "noisy", "repeats": MAX_REPEATS + 1}
        assert self._exit_code(tmp_path, fields, "--points", "3") == 3
        assert "repeats" in capsys.readouterr().err

    def test_grid_values_over_the_cap_exit_3(self, tmp_path, capsys):
        fields = {"grid_kind": "epsilon", "grid_values": [0.5] * (MAX_GRID_POINTS + 1)}
        assert self._exit_code(tmp_path, fields) == 3
        assert "grid_values" in capsys.readouterr().err

    def test_caps_themselves_are_accepted(self):
        assert make_config("fig4a", points=3, path="noisy", repeats=MAX_REPEATS).repeats == MAX_REPEATS

    @pytest.fixture
    def reached(self, monkeypatch):
        """Replace the first drawing or building step of each size-capped command
        with one that raises ``Reached``: the command passed its validation."""
        import realmon.certify as certify_mod
        import realmon.tomography as tomography_mod
        import realmon.verify as verify_mod

        class Reached(Exception):
            pass

        def reach(*args):
            raise Reached

        monkeypatch.setattr(verify_mod, "_per_dimension", reach)
        monkeypatch.setattr(tomography_mod, "estimate_pauli", reach)
        monkeypatch.setattr(certify_mod, "_extract_and_compare", reach)
        return Reached

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify-cases", "--trials", str(MAX_TRIALS + 1)], "trials"),
            (["verify-cases", "--trials", "100000000000"], "trials"),
            (["verify-cases", "--dims", "2", str(MAX_DIMENSION + 1)], "dims"),
            (["verify-cases", "--dims", "1000000"], "dims"),
            (["tomo-sim", "--seeds", str(MAX_SEEDS + 1)], "seeds"),
            (["tomo-sim", "--seeds", "100000000000"], "seeds"),
            (["certify-circuits", "--resolution", str(MAX_RESOLUTION + 1)], "resolution"),
            (["certify-circuits", "--resolution", "100000000000"], "resolution"),
        ],
        ids=["trials", "trials-1e11", "dims", "dims-1e6", "seeds", "seeds-1e11", "resolution", "resolution-1e11"],
    )
    def test_command_sizes_over_the_cap_exit_3_before_drawing(self, reached, capsys, argv, name):
        assert self.main(argv) == 3
        assert name in capsys.readouterr().err

    def test_command_caps_and_defaults_pass_validation(self, reached):
        with pytest.raises(reached):
            verify_cases(trials=MAX_TRIALS, dims=(2, MAX_DIMENSION))
        with pytest.raises(reached):
            certify_circuits(resolution=MAX_RESOLUTION)
        with pytest.raises(reached):
            tomography_errors("plus", 8192, MAX_SEEDS, 0, False)
        for argv in (["verify-cases"], ["certify-circuits"], ["tomo-sim"]):
            with pytest.raises(reached):
                self.main(argv)
        assert len(make_config("fig4a", points=MAX_GRID_POINTS).grid_values) == MAX_GRID_POINTS


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
            ({"scenario": "fig4a", "state": {"theta": 1.0, "Phi": 2.0}}, "state"),
            ({"scenario": "fig4a", "out": ""}, "out"),
            ({"scenario": "fig4a", "svg": ""}, "svg"),
            ({"scenario": "fig4a", "json_out": ""}, "json_out"),
            ({"grid_values": 5}, "grid_values"),
            ({"grid_values": True}, "grid_values"),
            ({"scenario": "fig4a", "sweep_target": math.nan}, "sweep_target"),
            ({"scenario": "fig4a", "sweep_target": {"probe": True}}, "sweep_target"),
        ],
        ids=[
            "grid-theta_m-nan", "grid-epsilon-inf", "grid-axis_theta-nan", "flips-above-one",
            "flips-negative", "flips-nan", "flips-empty", "flips-list", "old-readout-flips",
            "monitor-axis-one-number", "probe-axis-inf",
            "probe-axis-three-numbers", "depolarizing-nan", "epsilon-string", "depolarizing-string",
            "seed-string", "shots-fractional", "repeats-fractional", "out-not-a-path", "epsilon-bool",
            "monitor-axis-bools", "depolarizing-bool", "flips-bool", "state-theta-bool",
            "state-unknown-angle-key", "out-empty", "svg-empty", "json-out-empty",
            "grid-scalar", "grid-bool", "sweep-target-nan", "sweep-target-object",
        ],
    )
    def test_malformed_config_field_exit_code(self, tmp_path, capsys, fields, name):
        import realmon.cli as cli_mod

        path = tmp_path / "config.json"
        path.write_text(json.dumps(fields))
        assert cli_mod.main(["sweep", "--config", str(path), "--points", "3"]) == 3
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sweep", "--scenario", "fig4a", "--points", "3", "--out", ""], "out"),
            (["sweep", "--scenario", "fig4a", "--points", "3", "--svg", ""], "svg"),
            (["sweep", "--scenario", "fig4a", "--points", "3", "--json", ""], "json_out"),
            (["verify-cases", "--trials", "1", "--dims", "2", "--out", ""], "out"),
            (["certify-circuits", "--resolution", "2", "--out", ""], "out"),
            (["tomo-sim", "--seeds", "2", "--out", ""], "out"),
        ],
        ids=["sweep-out", "sweep-svg", "sweep-json", "verify-cases-out", "certify-circuits-out", "tomo-sim-out"],
    )
    def test_empty_output_path_exit_code(self, tmp_path, monkeypatch, capsys, argv, name):
        import realmon.cli as cli_mod

        monkeypatch.chdir(tmp_path)
        assert cli_mod.main(argv) == 3
        captured = capsys.readouterr()
        assert f"{name}: must be a nonempty file path" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

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
