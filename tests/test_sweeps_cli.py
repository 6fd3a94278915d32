import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from _helpers import CNOT_MAPPING_CHECK, PRESET_BLOCH, named_check, sweep_oracle_gap
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
    MAX_SEED,
    MAX_SEEDS,
    MAX_TRIALS,
    PATHS,
    STATE_PRESETS,
    ConfigError,
    SweepConfig,
    check_choice,
    check_integer,
    check_number,
    config_from_json,
    make_config,
    resolve_state,
)
from realmon.noise import confusion_from_flip
from realmon.reality import classify_case
from realmon.states import von_neumann_entropy
from realmon.tomography import estimate_pauli, reconstruct_state, tomography_errors
from realmon.output import write_text
from realmon import svg as svg_mod
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

    def test_a_sweep_validates_its_config_once(self, monkeypatch):
        calls = []
        validate = SweepConfig.validate
        monkeypatch.setattr(SweepConfig, "validate", lambda self: calls.append(self) or validate(self))
        run_sweep(make_config("fig4a"))
        assert len(calls) == 1

    def test_a_replaced_config_is_validated(self):
        config = make_config("fig4a", points=3)
        with pytest.raises(ConfigError, match="shots"):
            dataclasses.replace(config, shots=-1)
        assert dataclasses.replace(config, shots=5).shots == 5

    def test_each_state_preset_is_its_bloch_vector(self):
        assert set(PRESET_BLOCH) == set(STATE_PRESETS)
        for name, (x, y, z) in PRESET_BLOCH.items():
            expected = np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2
            assert np.array_equal(resolve_state(name).matrix, expected), name

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

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b"\xff\xfe", b"[" * 100_000, b'{"seed": ' + b"1" * 5000 + b"}"],
        ids=["not-json", "not-utf8", "deep-nesting", "overlong-integer"],
    )
    def test_from_json_bad_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"config {re.escape(str(path))} is not valid JSON"):
            config_from_json(str(path))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: check_integer("trials", -(10**5000), 1), "trials: must be an integer >= 1"),
            (lambda: check_number("epsilon", 10**5000, 0, 1), "epsilon: must be a finite number in [0, 1]"),
            (lambda: check_choice("path", 10**5000, PATHS), "path: unknown value"),
            (lambda: make_config(shots=10**5000), "shots: must be an integer"),
            (lambda: make_config("fig4a", points=10**5000), "points: must be an integer"),
        ],
        ids=["check_integer", "check_number", "check_choice", "make_config-shots", "make_config-points"],
    )
    def test_an_integer_too_long_to_print_is_named_by_its_size(self, call, message):
        # Python refuses to print an int of more than 4,300 digits; 10**5000 has 16,610 bits
        with pytest.raises(ConfigError) as caught:
            call()
        assert str(caught.value).startswith(message)
        assert "an integer of 16610 bits" in str(caught.value)

    def test_a_list_holding_an_integer_too_long_to_print_is_named(self):
        with pytest.raises(ConfigError, match="monitor_axis: .* got a list holding an integer too long to print"):
            make_config(monitor_axis=[10**5000])


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

    @pytest.mark.parametrize("path", ["analytic", "circuit", "noisy"])
    @pytest.mark.parametrize("scenario", ["fig4a", "fig4b", "fig4c"])
    def test_full_strength_cz_row_reads_epsilon_one(self, scenario, path):
        records = run_sweep(make_config(scenario, points=3, path=path, shots=0))
        assert records[-1].theta_m == math.pi / 2 and records[-1].epsilon == 1.0
        assert render_csv(records).splitlines()[-1].split(",")[1] == "1.0"


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

    @pytest.mark.parametrize("state", ["zero", "mixed"])
    def test_frozen_state_gains_are_exact_analytically_and_one_rounding_on_the_circuit(self, state):
        # the dilation maps |0><0| to diag(p, 0) with p = cos^2 + sin^2 of theta_m / 2, one
        # rounding from 1, and entropy keeps -p log2 p of a p just below 1 (about 1.6e-16)
        gains = {
            path: [(r.dR_X, r.dR_Xp) for r in run_sweep(make_config("fig4a", state=state, path=path))]
            for path in ("analytic", "circuit")
        }
        assert np.all(np.array(gains["analytic"]) == 0.0)
        assert np.abs(gains["circuit"]).max() <= 4.5e-16


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
    """Reference for the circuit and noisy paths: every grid point's four
    states through single-state circuit calls, then one repeat, point and
    state at a time through single-state tomography and entropy calls, all
    drawing in that order from one generator seeded with the config seed."""
    rho = resolve_state(config.state)
    depolarizing = config.depolarizing if config.path == "noisy" else 0.0
    repeats = 1 if config.path == "circuit" or config.shots == 0 else config.repeats
    points = []
    for value in config.grid_values:
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
        probe_circ = build_monitor_circuit([probe_axis], math.pi / 2, "CZ", depolarizing)
        mon = run_circuit_density(build_monitor_circuit([monitor_axis], strength, config.coupling, depolarizing), rho)
        probe = run_circuit_density(probe_circ, rho)
        states = (rho, mon, probe, run_circuit_density(probe_circ, mon))
        case = classify_case(observable_from_axis(*monitor_axis), observable_from_axis(*probe_axis), rho)
        points.append((theta_col, eps, states, case))
    rng = np.random.default_rng(config.seed)
    confusion = confusion_from_flip(config.readout_flip)
    entropies = np.empty((repeats, len(points), 4))
    for rep in range(repeats):
        for index, (_, _, states, _) in enumerate(points):
            for k, state in enumerate(states):
                if config.path == "noisy":
                    state = reconstruct_state(estimate_pauli(state, config.shots, rng, confusion))
                entropies[rep, index, k] = von_neumann_entropy(state)
    records = []
    for index, (theta_col, eps, _, case) in enumerate(points):
        s = entropies[:, index]
        gains = np.column_stack((s[:, 1] - s[:, 0], s[:, 2] + s[:, 1] - s[:, 0] - s[:, 3]))
        means = np.column_stack((gains, s)).mean(axis=0)
        se = [None, None]
        if config.path == "noisy":
            se = (gains.std(axis=0, ddof=1) / math.sqrt(len(s)) if len(s) > 1 else np.zeros(2)).tolist()
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


# sha256 of outputs recorded before a noisy sweep drew all of its repeats in one call
FIG4A_NOISY_CSV_SHA256 = "e271144d8d3f93eef1202baccb4b78e48044ef47fcf01215c4f333e92ca11abc"
FIG4A_NOISY_JSON_SHA256 = "01a57e289f7582ce2d0411a2d0d8e7d09b151b26988e1b96572de7efe3fa3c39"
TOMO_SIM_NOISY_5000_SEEDS_SHA256 = "70290346d18fed0f24b0056e02c321c77129c5e0be058c81a3a5501bcaf13571"


class TestRepeatChunks:
    """A noisy sweep draws its repeats in chunks of whole repeats, one draw per chunk."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """The shape of every probability stack handed to ``sample_shots``."""
        import realmon.noise as noise_mod
        import realmon.tomography as tomography_mod

        shapes = []

        def spy(probabilities, n_shots, rng):
            shapes.append(np.shape(probabilities))
            return noise_mod.sample_shots(probabilities, n_shots, rng)

        monkeypatch.setattr(tomography_mod, "sample_shots", spy)
        return shapes

    @pytest.mark.parametrize(
        "chunk, per_call",
        [(None, [10]), (3 * 132 + 5, [3, 3, 3, 1]), (7, [1] * 10)],
        ids=["default", "three-repeats", "under-one-repeat"],
    )
    def test_split_run_gives_the_same_csv_with_one_draw_per_chunk(self, monkeypatch, draws, chunk, per_call):
        import realmon.tomography as tomography_mod

        config = make_config("fig4a", path="noisy")
        whole = render_csv(run_sweep(config))
        draws.clear()
        if chunk is not None:
            monkeypatch.setattr(tomography_mod, "SEED_CHUNK", chunk)
        assert render_csv(run_sweep(config)) == whole
        assert draws == [(r, 132, 3, 2) for r in per_call]

    def test_default_fig4a_noisy_outputs_are_pinned(self, tmp_path):
        config = make_config("fig4a", path="noisy")
        records = run_sweep(config)
        assert hashlib.sha256(render_csv(records).encode()).hexdigest() == FIG4A_NOISY_CSV_SHA256
        emit_json(records, config, str(tmp_path / "fig4a.json"))
        assert hashlib.sha256((tmp_path / "fig4a.json").read_bytes()).hexdigest() == FIG4A_NOISY_JSON_SHA256

    def test_tomo_sim_across_a_chunk_boundary_is_pinned(self, tmp_path, capsys):
        import realmon.cli as cli_mod

        out = tmp_path / "tomo.json"
        assert cli_mod.main(["tomo-sim", "--noisy", "--seeds", "5000", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TOMO_SIM_NOISY_5000_SEEDS_SHA256


ORACLE_PATHS = {
    "analytic": dict(path="analytic"),
    "circuit-CZ": dict(path="circuit"),
    "circuit-CNOT": dict(path="circuit", coupling="CNOT"),
    "noisy-CZ": dict(path="noisy", shots=0, depolarizing=0.1, readout_flip=0.03),
    "noisy-CNOT": dict(path="noisy", shots=0, coupling="CNOT", depolarizing=0.1, readout_flip=0.03),
}
# the five presets, then each test state with tilted axes off the x-z plane
ORACLE_SETUPS = {
    **{preset: (preset, {}) for preset in ("fig1", "fig2", "fig4a", "fig4b", "fig4c")},
    **{
        f"custom-{name}": ("custom", dict(state=state, monitor_axis=(0.7, 0.4), probe_axis=(1.9, -1.1)))
        for name, state in (("plus", "plus"), ("iplus", "iplus"), ("mixed", "mixed"), ("angles", dict(theta=1.0, phi=2.0)))
    },
}


class TestSweepOracle:
    """Every qubit sweep path, noise included, against the closed-form Bloch-vector spectra."""

    @pytest.mark.parametrize("path", ORACLE_PATHS)
    @pytest.mark.parametrize("setup", ORACLE_SETUPS)
    def test_entropies_match_qubit_spectra(self, setup, path):
        scenario, fields = ORACLE_SETUPS[setup]
        assert sweep_oracle_gap(make_config(scenario, points=9, **fields, **ORACLE_PATHS[path])) <= 1e-12


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

    def test_certify_makes_five_extractions_and_one_reference_factor_per_qubit(self, monkeypatch):
        import realmon.certify as certify_mod
        import realmon.channels as channels_mod
        import realmon.circuits as circuits_mod

        calls = []

        def counting(real):
            def spy(channel):
                calls.append((type(channel).__name__, channel.batch))
                return real(channel)

            return spy

        monkeypatch.setattr(certify_mod, "extract_channel", counting(extract_channel))
        for module in (channels_mod, circuits_mod):
            monkeypatch.setattr(module, "to_superoperator", counting(to_superoperator))
        assert certify_circuits(17).ok
        # per coupling and width n: a circuit stack of 51 at extract_channel (which
        # reaches no to_superoperator), then n one-qubit factor stacks
        def width(n, members):
            return [("Circuit", members)] + [("MonitoringChannel", members)] * n

        assert calls == (width(1, 51) + width(2, 51)) * 2 + width(3, 3)


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

    def test_svg_labels_sit_beside_their_ticks_and_swatches(self):
        config = make_config("fig1", points=9, epsilon=1.0)
        svg = render_sweep_chart(run_sweep(config), config)
        # y-tick labels are the texts on a horizontal grid line's row, 4 px below it
        rows = {float(y) for y in re.findall(r'<line x1="[^"]*" y1="([^"]*)" x2="[^"]*" y2="\1" stroke="#dddddd"', svg)}
        ticks = [(float(x), anchor) for x, y, anchor in re.findall(r'<text x="([^"]*)" y="([^"]*)"(?: text-anchor="([^"]*)")?>', svg)
                 if round(float(y) - 4, 1) in rows]
        assert len(ticks) == len(rows) >= 2
        assert all(anchor == "end" and x < svg_mod.MARGIN_L for x, anchor in ticks)  # ends left of the axis
        # each legend label starts right of the swatch drawn on its row
        swatches = re.findall(r'<line x1="([^"]*)" y1="[^"]*" x2="([^"]*)" [^>]*stroke-width="2"/>\n<text x="([^"]*)" y="[^"]*">([^<]*)</text>', svg)
        assert [label for *_, label in swatches] == ["dR monitored", "dR probe"]
        assert all(float(x1) < float(x2) < float(text_x) for x1, x2, text_x, _ in swatches)

    @pytest.mark.parametrize("scenario", ["fig1", "fig4a"])
    def test_svg_polylines_are_the_records_mapped_onto_the_plot_box(self, scenario):
        config = make_config(scenario, points=9)
        records = run_sweep(config)
        polylines = re.findall(r'<polyline points="([^"]*)"', render_sweep_chart(records, config))
        pixels = np.array([[point.split(",") for point in pts.split()] for pts in polylines], dtype=float)
        xs = np.array([r.theta_m for r in records])
        ys = np.array([[r.dR_X for r in records], [r.dR_Xp for r in records]])
        assert pixels.shape == (2, len(records), 2)
        # one affine map per axis, shared by both series, each within half a pixel
        for data, drawn in ((np.broadcast_to(xs, ys.shape), pixels[..., 0]), (ys, pixels[..., 1])):
            slope, offset = np.polyfit(data.ravel(), drawn.ravel(), 1)
            assert np.abs(slope * data + offset - drawn).max() <= 0.5
        assert np.polyfit(ys.ravel(), pixels[..., 1].ravel(), 1)[0] < 0  # larger gains are drawn higher
        assert np.abs(pixels[:, 0, 0] - svg_mod.MARGIN_L).max() <= 0.005
        assert np.abs(pixels[:, -1, 0] - (svg_mod.WIDTH - svg_mod.MARGIN_R)).max() <= 0.005

    @staticmethod
    def _polylines_and_map(svg, values):
        """The chart's two polylines as (2, N, 2) pixels, and the affine map (slope,
        offset) that takes ``values`` (2, N) to their pixel y, checked to half a pixel."""
        polylines = re.findall(r'<polyline points="([^"]*)"', svg)
        pixels = np.array([[point.split(",") for point in pts.split()] for pts in polylines], dtype=float)
        slope, offset = np.polyfit(values.ravel(), pixels[..., 1].ravel(), 1)
        assert np.abs(slope * values + offset - pixels[..., 1]).max() <= 0.5
        return pixels, slope, offset

    def test_svg_error_bars_span_one_standard_error_in_the_series_colour(self):
        config = make_config("fig4a", points=5, path="noisy", shots=256, repeats=3)
        records = run_sweep(config)
        svg = render_sweep_chart(records, config)
        ys = np.array([[r.dR_X for r in records], [r.dR_Xp for r in records]])
        ses = np.array([[r.se_dR_X for r in records], [r.se_dR_Xp for r in records]])
        pixels, slope, offset = self._polylines_and_map(svg, ys)
        bars = re.findall(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)" stroke="([^"]*)" stroke-width="1"/>', svg)
        bars = [bar for bar in bars if bar[4] in svg_mod.COLORS]  # not the grid lines
        drawn = np.argwhere(ses > 0)  # series-major, as the chart draws them
        assert len(drawn) > 2 and len(bars) == len(drawn)
        for (k, i), (x1, y1, x2, y2, colour) in zip(drawn, bars):
            assert colour == svg_mod.COLORS[k] and x1 == x2 and float(x1) == pixels[k, i, 0]
            assert abs(float(y1) - (slope * (ys[k, i] - ses[k, i]) + offset)) <= 0.5
            assert abs(float(y2) - (slope * (ys[k, i] + ses[k, i]) + offset)) <= 0.5

    def test_svg_draws_every_point_and_error_bar_inside_the_frame(self):
        config = make_config("fig4a", points=5, path="noisy", shots=256, repeats=3)
        svg = render_sweep_chart(run_sweep(config), config)
        points = [float(p.split(",")[1]) for pts in re.findall(r'<polyline points="([^"]*)"', svg) for p in pts.split()]
        lines = re.findall(r'<line x1="[^"]*" y1="([^"]*)" x2="[^"]*" y2="([^"]*)" stroke="([^"]*)" stroke-width="1"/>', svg)
        bars = [(y1, y2) for y1, y2, colour in lines if colour in svg_mod.COLORS]  # not the grid lines
        drawn = points + [float(v) for bar in bars for v in bar]
        assert len(points) == 10 and len(bars) > 2
        # padded off the frame's top and bottom
        assert svg_mod.MARGIN_T < min(drawn) and max(drawn) < svg_mod.HEIGHT - svg_mod.MARGIN_B

    def test_svg_epsilon_grid_plots_the_intensity(self):
        config = make_config("custom", grid_kind="epsilon", grid_values=(0.0, 0.3, 0.6, 1.0))
        records = run_sweep(config)
        svg = render_sweep_chart(records, config)
        eps = np.array([r.epsilon for r in records])
        pixels, _, _ = self._polylines_and_map(svg, np.array([[r.dR_X for r in records], [r.dR_Xp for r in records]]))
        assert eps.tolist() == [0.0, 0.3, 0.6, 1.0] and eps.tolist() != [r.theta_m for r in records]
        slope, offset = np.polyfit(eps, pixels[0, :, 0], 1)
        assert np.abs(slope * eps + offset - pixels[..., 0]).max() <= 0.005
        assert ">measurement intensity epsilon</text>" in svg

    @pytest.mark.parametrize(
        "fields",
        [
            {"scenario": "fig4a", "state": "zero", "path": "circuit"},
            {"scenario": "fig4a", "state": "mixed", "path": "circuit"},
            {"scenario": "fig1", "grid_values": [0, 1e-320]},
            {"scenario": "fig1", "grid_values": [-1e308, 1e308]},
            {"scenario": "fig1", "grid_values": [1e308]},
            {"scenario": "fig1", "grid_values": [1.7976931348623157e308]},
        ],
        ids=["frozen-zero", "frozen-mixed", "subnormal-grid", "widest-grid", "one-huge-point", "largest-point"],
    )
    def test_svg_of_a_rounding_noise_or_extreme_range_draws_few_finite_ticks(self, tmp_path, fields):
        # the frozen states' gains are rounding noise, |dR| <= 2.2e-16
        import realmon.cli as cli_mod

        config, chart = tmp_path / "c.json", tmp_path / "out.svg"
        config.write_text(json.dumps(fields))
        assert cli_mod.main(["sweep", "--config", str(config), "--svg", str(chart)]) == 0
        svg = chart.read_text()
        grid = re.findall(r'<line x1="([^"]*)" y1="[^"]*" x2="([^"]*)" y2="[^"]*" stroke="#dddddd"', svg)
        vertical = sum(x1 == x2 for x1, x2 in grid)
        assert 2 <= vertical <= 12 and 2 <= len(grid) - vertical <= 12
        coordinates = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', svg)
        coordinates += [v for pts in re.findall(r'points="([^"]*)"', svg) for point in pts.split() for v in point.split(",")]
        assert len(coordinates) > 20 and all(math.isfinite(float(v)) for v in coordinates)

    @pytest.mark.parametrize("ys", [[-1e308, 1e308], [1.7976931348623157e308]], ids=["widest", "largest"])
    def test_svg_of_an_extreme_value_range_draws_few_finite_y_ticks(self, ys):
        # the y axis pads its range by a tenth of the half-width, which stays finite
        svg = svg_mod.render_line_chart([("a", [0, 1][: len(ys)], ys, None)])
        horizontal = re.findall(r'<line x1="[^"]*" y1="([^"]*)" x2="[^"]*" y2="\1" stroke="#dddddd"', svg)
        coordinates = re.findall(r' (?:x|y|x1|y1|x2|y2|points)="([^"]*)"', svg)
        assert 2 <= len(horizontal) <= 12
        assert all(math.isfinite(float(v)) for c in coordinates for point in c.split() for v in point.split(","))

    @pytest.mark.parametrize("ys, errs", [([1e308, 1e308], [1e308, 1e308]), ([-1e308], [1e308])], ids=["up", "down"])
    def test_svg_error_bars_past_the_float_range_stay_finite(self, ys, errs):
        # y + e overflows to inf unless each end is held to the float range
        svg = svg_mod.render_line_chart([("a", [0, 1][: len(ys)], ys, errs)])
        bars = re.findall(r'<line x1="[^"]*" y1="([^"]*)" x2="[^"]*" y2="([^"]*)" stroke="#1f77b4" stroke-width="1"', svg)
        coordinates = re.findall(r' (?:x|y|x1|y1|x2|y2|points)="([^"]*)"', svg)
        assert len(bars) == len(ys) and "inf" not in svg and "nan" not in svg
        assert all(math.isfinite(float(v)) for c in coordinates for point in c.split() for v in point.split(","))

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

    def test_verify_worsts_pinned(self):
        # O(1e-6) and larger worsts: a redrawn instance set moves them by O(1e-2),
        # a different LAPACK build by O(1e-15)
        pinned = {
            "monitored gain >= eps * irreality": 0.0013463639265706936,
            "entropy nondecreasing under monitoring": 0.0044617624481557705,
            "probe gain minimum over generic pairs (informational)": -0.010677884215729794,
            "(iii) probe-diagonal state: probe gain never positive": -7.212685985136247e-06,
            "MU pair: probe gain nonnegative (any state)": 0.009565975771178792,
            "(iv) MU pair: monitored gain dominates probe gain": 3.49474845404707e-05,
            "(iv) MU pair: concavity lower bound": 1.735054294900496e-05,
            "(v) third-basis-diagonal state: strictly positive gain (d=2)": 0.007512867667183176,
            "(v) third-basis-diagonal state: strictly positive gain (d=3)": 0.004456183852051598,
        }
        worsts = {c.name: c.worst for c in verify_cases(seed=0, trials=20, dims=(2, 3, 4)).checks}
        for name, value in pinned.items():
            assert worsts[name] == pytest.approx(value, rel=0, abs=1e-9), name

    @pytest.mark.parametrize(
        "dims, text_sha256, json_sha256",
        [
            (
                ["2", "3", "4"],
                "1248bf2f31dd66ba9b428c3399a125c5af4acd541355081c8dcb5ea26aec3e51",
                "05e7827ebad14c9121d0ed3a528a76c787557e7db468b561b2dc8049793614c3",
            ),
            (
                ["4", "5"],
                "c8cbbd01cf6bf41705a5f3ddf8be70b9b8badd0277307f0466da873b4ed56450",
                "1e1e362a2c5e1e87053fcc3c4de3e69aa444be221ad19fe06cd4f0f2cb2abd45",
            ),
        ],
        ids=["dims-2-3-4", "dims-4-5"],
    )
    def test_verify_report_is_pinned(self, tmp_path, capsys, dims, text_sha256, json_sha256):
        # the whole report: check order, names, notes, instance counts and every margin's printed digits
        import realmon.cli as cli_mod

        out = tmp_path / "verify.json"
        assert cli_mod.main(["verify-cases", "--seed", "0", "--trials", "20", "--dims", *dims, "--out", str(out)]) == 0
        text = capsys.readouterr().out.removesuffix(f"wrote {out}\n")
        assert hashlib.sha256(text.encode()).hexdigest() == text_sha256
        assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha256

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
        assert named_check(report, CNOT_MAPPING_CHECK)["worst"] <= 1e-10
        text = report.render_text()
        assert "1 - (1/2) sin(theta)" in text
        assert "eps = 1 - sin(theta_m)" in text

    @pytest.mark.parametrize("resolution", [2, 5])
    def test_certify_extracts_its_documented_bases_and_strengths(self, monkeypatch, resolution):
        import realmon.certify as certify_mod

        real, seen = certify_mod._extract_and_compare, {}

        def spy(coupling, members):
            seen[coupling, len(members[0][1])] = members
            return real(coupling, members)

        monkeypatch.setattr(certify_mod, "_extract_and_compare", spy)
        assert certify_circuits(resolution).ok
        grid = [math.pi / 2 * k / (resolution - 1) for k in range(resolution)]
        for coupling in ("CZ", "CNOT"):
            for n in (1, 2):
                for theta in grid:
                    bases = [b for t, b in seen[coupling, n] if t == theta]
                    assert len(bases) == 3
                    assert bases[:2] == [((0.0, 0.0),) * n, ((math.pi / 4, 0.0),) * n]
        assert [t for t, _ in seen["CZ", 3]] == [0.0, 0.7, math.pi / 2]  # the three-qubit smoke test

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


class TestParserDefaults:
    @pytest.mark.parametrize(
        "command, function", [("verify-cases", verify_cases), ("certify-circuits", certify_circuits)]
    )
    def test_parser_defaults_equal_the_signature_defaults(self, command, function):
        import inspect

        import realmon.cli as cli_mod

        args = vars(cli_mod._build_parser().parse_args([command]))
        flags = {key: value for key, value in args.items() if key not in ("command", "out")}
        signature = inspect.signature(function).parameters
        assert flags and all(key in signature for key in flags)
        for key, value in flags.items():
            assert (tuple(value) if isinstance(value, list) else value) == signature[key].default, key


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
        """Replace the first drawing or building step of each size-capped command,
        and the sweep engine, with one that raises ``Reached``: the command
        passed its validation."""
        import realmon.certify as certify_mod
        import realmon.cli as cli_mod
        import realmon.tomography as tomography_mod
        import realmon.verify as verify_mod

        class Reached(Exception):
            pass

        def reach(*args):
            raise Reached

        monkeypatch.setattr(verify_mod, "_instances", reach)
        monkeypatch.setattr(tomography_mod, "estimate_pauli", reach)
        monkeypatch.setattr(certify_mod, "_extract_and_compare", reach)
        monkeypatch.setattr(cli_mod, "run_sweep", reach)
        return Reached

    # every documented size cap by its literal value, so that a changed cap fails here
    LITERAL_CAPS = {
        "trials": (["verify-cases", "--trials"], 1_000),
        "dims": (["verify-cases", "--dims", "2"], 16),
        "seeds": (["tomo-sim", "--seeds"], 1_000_000),
        "resolution": (["certify-circuits", "--resolution"], 1_000),
        "points": (["sweep", "--scenario", "fig4a", "--points"], 10_000),
        "repeats": (["sweep", "--scenario", "fig4a", "--path", "noisy", "--points", "3", "--repeats"], 100),
    }

    @pytest.mark.parametrize("name", LITERAL_CAPS)
    def test_each_cap_passes_and_one_more_exits_3(self, reached, capsys, name):
        argv, cap = self.LITERAL_CAPS[name]
        with pytest.raises(reached):
            self.main([*argv, str(cap)])
        assert self.main([*argv, str(cap + 1)]) == 3
        assert f"config error: {name}: " in capsys.readouterr().err

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

    # every entry point that takes a seed, as a function of the seed
    SEEDED = {
        "verify_cases": lambda seed: verify_cases(seed=seed, trials=1, dims=(2,)),
        "certify_circuits": lambda seed: certify_circuits(resolution=2, seed=seed),
        "SweepConfig": lambda seed: make_config("fig4a", path="noisy", points=2, seed=seed),
        "tomography_errors": lambda seed: tomography_errors("plus", 8, 1, seed, False),
    }

    @pytest.mark.parametrize("entry", SEEDED)
    @pytest.mark.parametrize("seed", [MAX_SEED + 1, 10**5000], ids=["2**128", "1e5000"])
    def test_seed_over_the_cap_is_named(self, reached, entry, seed):
        with pytest.raises(ConfigError, match=r"^seed: must be an integer in \[0, "):
            self.SEEDED[entry](seed)

    @pytest.mark.parametrize(
        "command", [["verify-cases"], ["certify-circuits"], ["tomo-sim"], ["sweep", "--scenario", "fig4a", "--path", "noisy"]],
        ids=["verify-cases", "certify-circuits", "tomo-sim", "sweep"],
    )
    def test_seed_over_the_cap_exits_3(self, reached, capsys, command):
        assert self.main([*command, "--seed", str(MAX_SEED + 1)]) == 3
        assert "seed: must be an integer" in capsys.readouterr().err

    def test_the_seed_cap_itself_runs_and_prints(self, tmp_path):
        report = verify_cases(seed=MAX_SEED, trials=2, dims=(2,))
        assert f"seed={MAX_SEED}" in report.render_text()
        config = make_config("fig4a", path="noisy", points=2, repeats=1, shots=8, seed=MAX_SEED)
        emit_json(run_sweep(config), config, str(tmp_path / "run.json"))
        assert json.loads((tmp_path / "run.json").read_text())["metadata"]["seed"] == MAX_SEED


class TestCLI:
    def test_unreadable_config_file_exits_3(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe")
        proc = run_cli("sweep", "--config", str(path))
        assert proc.returncode == 3
        assert f"config {path} is not valid JSON" in proc.stderr and "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--scenario", "fig4a", "--epsilon", "0.3"], "epsilon"),
            (["--scenario", "fig4c", "--path", "noisy", "--epsilon", "0.3"], "epsilon"),
            (["--scenario", "fig4a", "--shots", "5"], "shots"),
            (["--scenario", "fig4a", "--repeats", "7"], "repeats"),
            (["--scenario", "fig4a", "--seed", "1"], "seed"),
            (["--scenario", "fig1", "--path", "circuit", "--shots", "5"], "shots"),
            (["--scenario", "fig1", "--path", "circuit", "--repeats", "7"], "repeats"),
            (["--scenario", "fig1", "--path", "circuit", "--seed", "1"], "seed"),
        ],
        ids=[
            "epsilon-theta_m-grid", "epsilon-noisy-theta_m-grid", "shots-analytic", "repeats-analytic",
            "seed-analytic", "shots-circuit", "repeats-circuit", "seed-circuit",
        ],
    )
    def test_a_flag_the_run_would_not_read_exits_3(self, monkeypatch, capsys, argv, name):
        import realmon.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_sweep", None)  # refused before the run
        assert cli_mod.main(["sweep", "--points", "3", *argv]) == 3
        assert capsys.readouterr().err.startswith(f"config error: {name}: --{name} applies only when")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "fig1", "--epsilon", "0.5"],
            ["--scenario", "fig4a", "--path", "noisy", "--shots", "64", "--repeats", "2", "--seed", "3"],
        ],
        ids=["epsilon-axis_theta-grid", "noisy-shots-repeats-seed"],
    )
    def test_flags_the_run_reads_are_accepted(self, capsys, argv):
        import realmon.cli as cli_mod

        assert cli_mod.main(["sweep", "--points", "3", *argv]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_config_file_fields_the_run_does_not_read_are_still_accepted(self, tmp_path, capsys):
        import realmon.cli as cli_mod

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig4a", "epsilon": 0.3, "shots": 5, "repeats": 7, "seed": 1}))
        assert cli_mod.main(["sweep", "--config", str(path), "--points", "3"]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_points_with_a_config_file_grid_exits_3(self, tmp_path, monkeypatch, capsys):
        import realmon.cli as cli_mod

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "fig4a", "grid_values": [0.0, 0.5, 1.0]}))
        monkeypatch.setattr(cli_mod, "run_sweep", None)  # refused before the run
        assert cli_mod.main(["sweep", "--config", str(path), "--points", "5"]) == 3
        assert capsys.readouterr().err.startswith("config error: points: ")

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_points_below_two_exit_code(self, points):
        proc = run_cli("sweep", "--scenario", "fig4a", "--points", points)
        assert proc.returncode == 3
        assert "points" in proc.stderr

    @pytest.mark.parametrize("path", ["analytic", "circuit"])
    def test_strength_angle_in_the_slack_above_pi_2_runs(self, tmp_path, capsys, path):
        # the grid check admits pi/2 + 1e-12 for rounding; the intensity there is exactly 1
        import realmon.cli as cli_mod

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid_values": [0.0, 1.5707963267953]}))
        assert cli_mod.main(["sweep", "--config", str(config), "--path", path]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [0.0, 1.0]

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
            ({"scenario": "fig4a", "out": "a\0b.csv"}, "out"),
            ({"scenario": "fig1", "epsilon": 10**400}, "epsilon"),
            ({"scenario": "fig4a", "monitor_axis": [10**400, 0.0]}, "monitor_axis"),
        ],
        ids=[
            "grid-theta_m-nan", "grid-epsilon-inf", "grid-axis_theta-nan", "flips-above-one",
            "flips-negative", "flips-nan", "flips-empty", "flips-list", "old-readout-flips",
            "monitor-axis-one-number", "probe-axis-inf",
            "probe-axis-three-numbers", "depolarizing-nan", "epsilon-string", "depolarizing-string",
            "seed-string", "shots-fractional", "repeats-fractional", "out-not-a-path", "epsilon-bool",
            "monitor-axis-bools", "depolarizing-bool", "flips-bool", "state-theta-bool",
            "state-unknown-angle-key", "out-empty", "svg-empty", "json-out-empty",
            "grid-scalar", "grid-bool", "sweep-target-nan", "sweep-target-object", "out-nul-byte",
            "epsilon-int-beyond-float", "monitor-axis-int-beyond-float",
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

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify-cases", "--trials", "1", "--dims", "2", "--out", "."], "out"),
            (["verify-cases", "--trials", "1", "--dims", "2", "--out", "missing/report.json"], "out"),
            (["sweep", "--scenario", "fig4a", "--points", "3", "--out", "ok.csv", "--svg", "missing/a.svg"], "svg"),
            (["sweep", "--scenario", "fig4a", "--points", "3", "--json", "."], "json_out"),
            (["sweep", "--config", "../config.json"], "svg"),
            (["certify-circuits", "--resolution", "2", "--out", "missing/report.json"], "out"),
            (["tomo-sim", "--seeds", "2", "--out", "."], "out"),
        ],
        ids=["verify-dir", "verify-missing", "sweep-svg", "sweep-json-dir", "sweep-config-svg", "certify", "tomo"],
    )
    def test_bad_output_path_exits_3_before_any_work(self, tmp_path, monkeypatch, capsys, argv, name):
        import realmon.cli as cli_mod

        def refuse(*args, **kwargs):
            pytest.fail("the command ran before its output paths were checked")

        for command in ("run_sweep", "verify_cases", "certify_circuits", "tomography_errors"):
            monkeypatch.setattr(cli_mod, command, refuse)
        fields = {"scenario": "fig4a", "out": "ok.csv", "svg": "missing/a.svg"}
        (tmp_path / "config.json").write_text(json.dumps(fields))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli_mod.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {name}: ")
        assert captured.out == ""
        assert list(work.iterdir()) == []

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
        assert "1 - (1/2) sin" in named_check(report, CNOT_MAPPING_CHECK)["note"]

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


WORKFLOW = os.path.join(REPO, ".github", "workflows", "tier1.yml")


def packaging_smoke_commands():
    """The ``realmon ...`` lines of the workflow's packaging smoke step, split into arguments."""
    with open(WORKFLOW) as f:
        lines = [line.strip() for line in f]
    step = lines.index("- name: Packaging smoke test")
    end = next(i for i in range(step + 1, len(lines)) if lines[i].startswith("- name:"))
    return [line.split() for line in lines[step + 1 : end] if line.startswith("realmon ")]


def test_workflow_smoke_commands_exit_0(tmp_path, monkeypatch, capsys):
    # the CI step runs these through the installed entry point; here they run through cli.main
    import realmon.cli as cli_mod

    commands = packaging_smoke_commands()
    assert ["realmon", "--version"] in commands and len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        try:
            code = cli_mod.main(argv[1:])
        except SystemExit as exc:  # argparse's --version exits after printing
            code = exc.code
        out = capsys.readouterr().out
        assert code == 0, " ".join(argv)
        if argv[1:] == ["--version"]:
            assert out == "realmon 0.1.0\n"
    assert (tmp_path / "fig1.svg").read_text().startswith("<svg")
    assert len(json.loads((tmp_path / "fig1.json").read_text())["records"]) == 3
