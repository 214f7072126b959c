"""Scenario config, run orchestration, manifests, determinism, and the CLI."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields, replace

import numpy as np
import pytest

from chflow.cli import main
from chflow.dynamics import Params, StepControl, integrate
from chflow import characteristics, harness, offgrid
from chflow.harness import (
    PRESETS,
    ConfigurationError,
    Scenario,
    parse_config,
    run_scenario,
)
from chflow.profiles import make_profile, mode, profile_errors
from chflow.schema import IDENTITY_COLUMNS, SCHEMA_VERSION, TRAJECTORY_COLUMNS
from chflow.spectral import Grid, RealField, apply_inertia, derivative

from conftest import float_edge_values

GOOD_CONFIG = """
[params]
b = 2.0
kappa = 1.0
alpha = 0.0
r = 1.0

[grid]
L = 20.0
n = 128

[control]
cfl = 0.3
dt_max = 0.01
t_final = 0.1
snapshots = 6
dealias = true

[u0]
profile = gaussian
amp = 0.4
width = 2.0

[rho0]
profile = gaussian
amp = 0.3
width = 1.5

[run]
name = demo
diagnostics = casimir, formulation
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestConfig:
    def test_parse_good_config(self, config_file):
        sc = parse_config(config_file)
        assert sc.name == "demo"
        assert sc.n == 128
        assert sc.diagnostics == ("casimir", "formulation")
        assert dict(sc.u0)["amp"] == 0.4

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            parse_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize("text, message", [
        ("[grid]\nn = 64\nn = 128\n", "option 'n' in section 'grid' already exists"),
        ("[grid]\nn = 64\n\n[grid]\nL = 3\n", "section 'grid' already exists"),
        ("n = 64\n", "no section headers"),
        ("[grid]\nn 64\n", "parsing errors"),
        ("[run]\nname = 5%\n", "'%' must be followed by"),
    ], ids=["duplicate-key", "duplicate-section", "no-header", "no-equals", "stray-percent"])
    def test_malformed_file_is_a_configuration_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "malformed.cfg"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as exc:
            parse_config(str(path))
        assert len(exc.value.errors) == 1 and message in exc.value.errors[0]
        assert main(["check", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_structural_errors_all_listed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[grid]\nL = huge\n\n[control]\nsnapshots = many\n\n[mystery]\nz = 1\n"
        )
        with pytest.raises(ConfigurationError) as exc:
            parse_config(str(path))
        text = "\n".join(exc.value.errors)
        assert "[mystery]" in text
        assert "L" in text and "snapshots" in text
        assert len(exc.value.errors) == 3

    def test_semantic_errors_all_listed(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text(
            "[grid]\nL = -3\nn = 100\n\n[params]\nr = 0.5\n\n"
            "[control]\ncfl = 2.0\n"
        )
        with pytest.raises(ConfigurationError) as exc:
            parse_config(str(path))
        text = "\n".join(exc.value.errors)
        for token in ("grid.L", "grid.n", "params.r", "control.cfl"):
            assert token in text

    def test_validation_collects_all_fields(self):
        sc = Scenario(L=-1.0, n=100, r=0.2, cfl=-0.3, dt_max=-1.0,
                      diagnostics=("nope",))
        errors = sc.validate()
        joined = " ".join(errors)
        for token in ("grid.L", "grid.n", "params.r", "control.cfl",
                      "control.dt_max", "nope"):
            assert token in joined
        with pytest.raises(ConfigurationError):
            sc.build()

    def test_formulation_is_no_control_key(self, tmp_path, capsys):
        # the m form is the only RHS a run advances; there is nothing to choose
        path = tmp_path / "formulation.cfg"
        path.write_text("[control]\nformulation = m\n")
        with pytest.raises(ConfigurationError) as exc:
            parse_config(str(path))
        assert exc.value.errors == ["unknown key 'formulation' in section [control]"]
        assert main(["check", str(path)]) == 1
        assert "unknown key 'formulation'" in capsys.readouterr().err

    def test_unknown_profile_rejected(self):
        sc = Scenario(u0=(("profile", "wiggle"),))
        assert any("wiggle" in e for e in sc.validate())

    @pytest.mark.parametrize("section, profile, extra, key", [
        ("u0", "gaussian", "ampl = 0.7\n", "ampl"),   # a typo of amp
        ("rho0", "mode", "", "width"),                # mode takes k, amp, phase
        ("u0", "zero", "", "amp"),                    # zero takes no parameters
    ], ids=("typo", "mode", "zero"))
    def test_profile_parameters_checked(self, config_file, section, profile, extra, key,
                                        capsys):
        head = f"[{section}]\nprofile = gaussian\n"
        with open(config_file) as fh:
            text = fh.read().replace(head, f"[{section}]\nprofile = {profile}\n{extra}")
        with open(config_file, "w") as fh:
            fh.write(text)
        with pytest.raises(ConfigurationError) as exc:
            parse_config(config_file)
        assert any(f"{section}.{key}" in e and repr(profile) in e for e in exc.value.errors)
        assert main(["check", config_file]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_momentum_is_a_u0_key(self, tmp_path, capsys):
        path = tmp_path / "rho0m.cfg"
        path.write_text("[rho0]\nmomentum = true\n")
        with pytest.raises(ConfigurationError, match=r"\[rho0\] momentum"):
            parse_config(str(path))
        assert main(["check", str(path)]) == 1
        assert "configuration error: [rho0] momentum" in capsys.readouterr().err
        path.write_text("[u0]\nmomentum = true\n")
        assert parse_config(str(path)).u0_is_momentum

    @pytest.mark.parametrize("text, field", [
        ("[u0]\nmomentum = true\n", "u0"),
        ("[rho0]\n", "rho0"),
    ], ids=("momentum-only", "empty"))
    def test_section_without_profile_keys_keeps_the_base_profile(self, tmp_path, text, field):
        path = tmp_path / "keep.cfg"
        path.write_text(text)
        base = PRESETS["2cch"]
        sc = parse_config(str(path), base)
        assert getattr(sc, field) == getattr(base, field)
        assert sc.u0_is_momentum == (field == "u0")

    def test_integer_profile_parameters(self, grid20):
        assert profile_errors((("profile", "mode"), ("k", 2.5))) == [
            "k must be an integer for profile 'mode', got 2.5"]
        assert profile_errors({"profile": "mode", "k": 3.0}) == []
        built = make_profile(grid20, {"profile": "mode", "k": 3.0, "amp": 0.5})
        assert np.array_equal(built.samples, mode(grid20, 3, 0.5).samples)

    @pytest.mark.parametrize("field, value, label", [
        ("L", math.inf, "grid.L"), ("L", math.nan, "grid.L"),
        ("dt_max", math.nan, "control.dt_max"), ("dt_max", math.inf, "control.dt_max"),
        ("t_final", math.inf, "control.t_final"), ("t_final", math.nan, "control.t_final"),
        ("gradient_ceiling", math.nan, "control.gradient_ceiling"),
        ("gradient_ceiling", 0.0, "control.gradient_ceiling"),
        ("b", math.nan, "params.b"), ("kappa", math.inf, "params.kappa"),
        ("alpha", -math.inf, "params.alpha"), ("r", math.nan, "params.r"),
    ])
    def test_non_finite_numbers_fail_at_validate(self, field, value, label):
        # each of these used to pass validate(): t_final = inf never ended,
        # dt_max = nan ended as a blow-up, gradient_ceiling = nan switched
        # the ceiling off, L = inf ended as a casimir fail
        errors = replace(PRESETS["zero"], **{field: value}).validate()
        assert len(errors) == 1 and errors[0].startswith(label)

    @pytest.mark.parametrize("window", [
        (5.0, 2.0), (2.0, 2.0), (-1.0, 2.0), (1.0, math.inf), (math.nan, 2.0),
        (1.0,), (1.0, 2.0, 3.0), 3.0, ("a", "b"),
    ])
    def test_bad_decay_window_fails_at_validate(self, window):
        # (5.0, 2.0) used to pass validate() and surface after the
        # integration, as a decay diagnostic error
        sc = replace(PRESETS["zero"], decay_window=window, diagnostics=("decay",))
        errors = sc.validate()
        assert len(errors) == 1 and errors[0].startswith("decay_window must be None or")
        with pytest.raises(ConfigurationError):
            sc.build()

    @pytest.mark.parametrize("window", [None, (0.0, 5.0), [9, 14]])
    def test_good_decay_window_passes_validate(self, window):
        assert replace(PRESETS["zero"], decay_window=window).validate() == []

    @pytest.mark.parametrize("field, value, label", [
        ("n", 128.0, "grid.n must be an integer"),     # used to raise TypeError
        ("n", "128", "grid.n must be an integer"),
        ("snapshots", 2.5, "control.snapshots must be an integer"),   # used to pass
        ("snapshots", 11.0, "control.snapshots must be an integer"),
        ("snapshots", 1, "control.snapshots must be an integer >= 2"),
    ])
    def test_non_integer_counts_fail_at_validate(self, field, value, label):
        errors = replace(PRESETS["zero"], **{field: value}).validate()
        assert len(errors) == 1 and errors[0].startswith(label)

    def test_numpy_integer_counts_pass_validate(self):
        sc = replace(PRESETS["zero"], n=np.int64(128), snapshots=np.int32(101))
        assert sc.validate() == []

    def test_infinite_gradient_ceiling_switches_the_ceiling_off(self):
        assert replace(PRESETS["zero"], gradient_ceiling=math.inf).validate() == []

    def test_infinite_t_final_is_a_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "forever.cfg"
        path.write_text("[control]\nt_final = inf\n")
        assert main(["check", str(path)]) == 1
        assert "control.t_final must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("profile, key, value, message", [
        ("gaussian", "amp", math.nan,
         "amp must be a finite number for profile 'gaussian', got nan"),
        ("gaussian", "width", 0.0, "width must be positive for profile 'gaussian', got 0.0"),
        ("gaussian", "width", math.inf,
         "width must be a finite number for profile 'gaussian', got inf"),
        ("gaussian", "center", -math.inf,
         "center must be a finite number for profile 'gaussian', got -inf"),
        ("bump", "width", 0.0, "width must be positive for profile 'bump', got 0.0"),
        ("sech", "width", 0.0, "width must be positive for profile 'sech', got 0.0"),
    ])
    def test_profile_values_fail_at_validate(self, tmp_path, capsys, profile, key, value,
                                             message):
        # each of these used to pass check, and run then made the output
        # directory and ended with an internal error (exit 2)
        sc = replace(PRESETS["2cch"], u0=(("profile", profile), (key, value)))
        assert sc.validate() == [f"u0.{message}"]
        path = tmp_path / "profile.cfg"
        path.write_text(f"[u0]\nprofile = {profile}\n{key} = {value}\n")
        assert main(["check", str(path)]) == 1
        assert f"u0.{message}" in capsys.readouterr().err
        out = tmp_path / "never"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("k, ok", [("2", True), ("2.0", True), ("1.5", False)])
    def test_int_profile_parameters_must_be_integers(self, tmp_path, capsys, k, ok):
        path = tmp_path / "mode.cfg"
        path.write_text(f"[u0]\nprofile = mode\nk = {k}\n")
        assert main(["check", str(path)]) == (0 if ok else 1)
        if not ok:
            assert "u0.k must be an integer" in capsys.readouterr().err
        errors = Scenario(u0=(("profile", "mode"), ("k", float(k)))).validate()
        assert (errors == []) == ok

    def test_seed_is_not_a_run_key(self, tmp_path):
        path = tmp_path / "seed.cfg"
        path.write_text("[run]\nseed = 3\n")
        with pytest.raises(ConfigurationError, match="'seed'"):
            parse_config(str(path))
        assert not hasattr(Scenario(), "seed")

    @pytest.mark.parametrize("diag", ["transport", "mflow", "support"])
    def test_coarse_snapshots_rejected_for_flow_diagnostics(self, diag):
        # stride 0.05 > 4 * dt_max = 0.04: the flow map cannot be evolved
        sc = Scenario(t_final=0.5, snapshots=11, dt_max=0.01, diagnostics=(diag,))
        assert any("control.snapshots" in e and diag in e for e in sc.validate())
        with pytest.raises(ConfigurationError):
            sc.build()
        # the same stride is fine without a flow diagnostic, or at 4 * dt_max
        assert replace(sc, diagnostics=("casimir",)).validate() == []
        assert replace(sc, snapshots=14).validate() == []

    @pytest.mark.parametrize("section, model, field, value", [
        ("grid", Grid, "L", -1.0), ("grid", Grid, "L", math.nan), ("grid", Grid, "n", 100),
        ("params", Params, "b", math.inf), ("params", Params, "alpha", math.nan),
        ("params", Params, "r", 0.5),
        ("control", StepControl, "cfl", 0.0), ("control", StepControl, "cfl", 1.5),
        ("control", StepControl, "dt_max", -0.1), ("control", StepControl, "t_final", math.inf),
        ("control", StepControl, "gradient_ceiling", math.nan),
    ])
    def test_validate_labels_the_constructors_messages(self, section, model, field, value):
        sc = replace(PRESETS["zero"], **{field: value})
        with pytest.raises(ConfigurationError) as exc:
            model(**{f.name: getattr(sc, f.name) for f in fields(model)})
        assert sc.validate() == [f"{section}.{e}" for e in exc.value.errors]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_sections_round_trip(self, name, tmp_path):
        preset = PRESETS[name]

        def text(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, tuple):
                return ", ".join(value)
            return repr(value) if isinstance(value, float) else str(value)

        lines = []
        for section, keys in harness._SECTION_FIELDS.items():
            if keys is None:
                spec = dict(getattr(preset, section))
                items = [(k, v if isinstance(v, str) else repr(v)) for k, v in spec.items()]
                if section == "u0":
                    items.append(("momentum", text(preset.u0_is_momentum)))
            else:
                items = [(k, text(getattr(preset, k))) for k in keys]
            lines += [f"[{section}]"] + [f"{k} = {v}" for k, v in items] + [""]
        path = tmp_path / f"{name}.cfg"
        path.write_text("\n".join(lines))
        parsed = parse_config(str(path))
        for section, keys in harness._SECTION_FIELDS.items():
            for k in keys or ():
                assert getattr(parsed, k) == getattr(preset, k), (section, k)
        assert dict(parsed.u0) == dict(preset.u0) and dict(parsed.rho0) == dict(preset.rho0)
        assert parsed.u0_is_momentum == preset.u0_is_momentum

    def test_bad_boolean_is_a_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "maybe.cfg"
        path.write_text("[control]\ndealias = maybe\n")
        assert main(["check", str(path)]) == 1
        assert "[control] dealias: expected bool, got 'maybe'" in capsys.readouterr().err

    def test_casimir_rejected_for_b1(self):
        # the conserved density |rho|^(1/(b-1)) is undefined at b = 1
        sc = Scenario(b=1.0, diagnostics=("casimir", "transport"))
        assert any("casimir" in e and "b != 1" in e for e in sc.validate())
        with pytest.raises(ConfigurationError):
            sc.build()
        assert replace(sc, diagnostics=("transport",)).validate() == []
        assert replace(sc, b=2.0).validate() == []


def _small_scenario(**over):
    base = Scenario(
        name="small", n=128, L=20.0, t_final=0.1, snapshots=6, dt_max=5e-3,
        u0=(("profile", "gaussian"), ("amp", 0.4), ("width", 2.0)),
        rho0=(("profile", "gaussian"), ("amp", 0.3), ("width", 1.5)),
        diagnostics=("casimir", "transport", "mflow", "formulation"),
    )
    return replace(base, **over)


def _burst_scenario():
    return _small_scenario(
        name="burst", L=np.pi, n=64, cfl=1.0, dt_max=0.5, t_final=5.0,
        dealias=False, gradient_ceiling=np.inf, snapshots=501,
        u0=(("profile", "mode"), ("k", 4), ("amp", 50.0)),
        rho0=(("profile", "zero"),), diagnostics=("casimir",),
    )


def _strict_json(path):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"{path.name}: non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestRunScenario:
    def test_manifest_complete(self, tmp_path):
        sc = _small_scenario()
        manifest = run_scenario(sc, str(tmp_path))
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["outcome"] == "completed"
        assert set(manifest["invariants"]) == set(sc.diagnostics)
        for entry in manifest["invariants"].values():
            assert entry["status"] in ("pass", "fail", "skipped", "error")
        for fname in manifest["outputs"]:
            assert (tmp_path / fname).exists()
        assert (tmp_path / "small_manifest.json").exists()

    def test_csv_headers_match_schema(self, tmp_path):
        run_scenario(_small_scenario(), str(tmp_path))
        traj_head = (tmp_path / "small_trajectory.csv").read_text().splitlines()[0]
        assert traj_head == ",".join(TRAJECTORY_COLUMNS)
        ident_head = (tmp_path / "small_identities.csv").read_text().splitlines()[0]
        assert ident_head == ",".join(IDENTITY_COLUMNS)

    def test_no_temp_files_left(self, tmp_path):
        run_scenario(_small_scenario(), str(tmp_path))
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")]
        assert leftovers == []

    def test_determinism_bit_for_bit(self, tmp_path):
        sc = _small_scenario()
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        man_a = run_scenario(sc, str(dir_a))
        man_b = run_scenario(sc, str(dir_b))
        for fname in man_a["outputs"]:
            assert (dir_a / fname).read_bytes() == (dir_b / fname).read_bytes()
        ja = json.loads((dir_a / "small_manifest.json").read_text())
        jb = json.loads((dir_b / "small_manifest.json").read_text())
        ja.pop("wall_time_s"), jb.pop("wall_time_s")
        assert ja == jb

    def test_blowup_recorded_not_raised(self, tmp_path):
        sc = _small_scenario(
            name="steep",
            u0=(("profile", "mode"), ("k", 2), ("amp", 2.0)),
            rho0=(("profile", "zero"),),
            gradient_ceiling=0.5,
        )
        manifest = run_scenario(sc, str(tmp_path))
        assert manifest["outcome"] == "blowup"
        assert manifest["blowup"]["max_gradient"] > 0.5
        assert (tmp_path / "steep_manifest.json").exists()

    def test_blowup_inside_rhs_keeps_the_trajectory(self, tmp_path):
        # the RHS overflows before the gradient ceiling can fire; the
        # snapshots recorded so far are still written and checked
        sc = _burst_scenario()
        with np.errstate(all="ignore"):
            manifest = run_scenario(sc, str(tmp_path))
        assert manifest["outcome"] == "blowup"
        assert "burst_trajectory.csv" in manifest["outputs"]
        assert manifest["invariants"]["casimir"]["status"] == "pass"
        rows = (tmp_path / "burst_trajectory.csv").read_text().splitlines()
        assert len(rows) > 1 + sc.n

    def test_r2_scenario_skips_formulation(self, tmp_path):
        sc = _small_scenario(name="high", r=2.0, dt_max=2e-3, snapshots=26)
        manifest = run_scenario(sc, str(tmp_path))
        assert manifest["invariants"]["formulation"]["status"] == "skipped"
        assert manifest["invariants"]["casimir"]["status"] == "pass"
        assert manifest["invariants"]["transport"]["status"] == "pass"

    def test_alpha_nonzero_skips_mflow(self, tmp_path):
        sc = _small_scenario(name="drift", alpha=0.4)
        manifest = run_scenario(sc, str(tmp_path))
        assert manifest["invariants"]["mflow"]["status"] == "skipped"

    def test_raising_diagnostic_records_exception_type(self, tmp_path, monkeypatch):
        def broken(ctx, out):
            raise ZeroDivisionError("no mass to normalise")

        monkeypatch.setitem(harness.DIAGNOSTICS, "casimir", broken)
        manifest = run_scenario(_small_scenario(), str(tmp_path))
        assert manifest["invariants"]["casimir"] == {
            "status": "error",
            "error_type": "ZeroDivisionError",
            "detail": "no mass to normalise",
        }
        assert manifest["invariants"]["transport"]["status"] == "pass"

    def test_persistence_m_running_is_a_running_max(self, tmp_path):
        sc = _small_scenario(
            name="persist", t_final=0.5, snapshots=11, diagnostics=("persistence",),
        )
        manifest = run_scenario(sc, str(tmp_path))
        fname = next(f for f in manifest["outputs"] if "_persistence_" in f)
        with open(tmp_path / fname) as fh:
            m_running = np.array([float(row["M_running"]) for row in csv.DictReader(fh)])

        _, params, ctrl, state0 = sc.build()
        traj = integrate(state0, params, ctrl, sc.output_times())
        sups = np.array([
            np.max(np.abs(u)) + np.max(np.abs(derivative(RealField(traj.grid, u), 1).samples))
            + np.max(np.abs(rho))
            for u, rho in zip(traj.u, traj.rho)
        ])
        assert sups.max() > 1.01 * sups[0]   # the sup norms do change
        assert m_running[0] == pytest.approx(sups[0], rel=1e-12)
        assert np.all(np.diff(m_running) >= 0.0)
        assert m_running[-1] == pytest.approx(sups.max(), rel=1e-12)

    def test_flow_checks_share_one_rho_evaluation(self, tmp_path, monkeypatch):
        # the flow map takes 4 one-row kernel calls per snapshot interval;
        # then one call per snapshot reads rho, rho_x and m at the markers
        # for both checks, from 2 spread rows; nothing is spread twice
        calls = _count_calls(monkeypatch, offgrid, "trig_eval")
        spreads = _count_calls(monkeypatch, offgrid, "spread")
        sc = _small_scenario(diagnostics=("transport", "mflow"))
        manifest = run_scenario(sc, str(tmp_path))
        assert manifest["invariants"]["transport"]["status"] == "pass"
        assert manifest["invariants"]["mflow"]["status"] == "pass"
        T = sc.snapshots
        assert len(calls) == 4 * (T - 1) + T
        assert {len(args[2]) for args in calls} == {sc.n}
        assert [len(args[0]) for args in calls[4 * (T - 1):]] == [2] * T
        assert sum(len(args[0]) for args in spreads) == 1 + 2 * (T - 1) + 2 * T

    @pytest.mark.parametrize("preset, rows", [("support", 2), ("zero", 1)])
    def test_flow_checks_take_one_pass(self, tmp_path, monkeypatch, preset, rows):
        # one flow evolution of 4 one-row kernel calls per snapshot interval,
        # then one pass over the snapshots of one call each: rho with rho_x,
        # and m in a second row only when the scenario checks mflow (support
        # does, zero checks transport alone)
        calls = _count_calls(monkeypatch, offgrid, "trig_eval")
        flows = _count_calls(monkeypatch, characteristics, "evolve_flow")
        sc = PRESETS[preset]
        manifest = run_scenario(sc, str(tmp_path))
        assert {d["status"] for d in manifest["invariants"].values()} == {"pass"}
        T = sc.snapshots
        assert len(flows) == 1
        assert len(calls) == 4 * (T - 1) + T
        assert {len(args[2]) for args in calls} == {sc.n}
        assert [len(args[0]) for args in calls] == [1] * (4 * (T - 1)) + [rows] * T


def _count_calls(monkeypatch, module, name):
    """The positional arguments of every call of module.name, as a list."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_suites_run_in_one_process(tmp_path):
    with pytest.raises(ConfigurationError, match="workers must be 1"):
        harness.run_suite("stability", str(tmp_path), workers=2)
    assert os.listdir(tmp_path) == []
    with pytest.raises(SystemExit) as exc:      # argparse: no such option
        main(["suite", "stability", "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert os.listdir(tmp_path) == []


def _reference_cell(v):
    """The cell rule the CSV writer keeps: str as is, None as nan, else repr(float)."""
    if isinstance(v, str):
        return v
    if v is None:
        return "nan"
    return repr(float(v))


def _reference_csv(header, rows):
    """Row-by-row reference text of a CSV file, as a list of its lines."""
    lines = [",".join(header)]
    lines += [",".join(_reference_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").splitlines(keepends=True)


def _lines(path):
    with open(path, newline="") as fh:
        return fh.readlines()


class TestCsvWriter:
    def test_cells_follow_the_reference_rules(self, tmp_path):
        blocks = [
            (["sharp", "smooth"], [1, None], np.array([0.1, np.nan]),
             [np.float64(0.005), "inf"], np.array([2, 3])),
            ([str(3)], [np.nan], np.array([1e-300]), [2.0], [np.int64(7)]),
            ([], [], np.array([]), [], []),
        ]
        header = ("a", "b", "c", "d", "e")
        path = tmp_path / "cells.csv"
        harness.write_csv(str(path), header, blocks)
        rows = [row for block in blocks for row in zip(*block)]
        assert _lines(path) == _reference_csv(header, rows)
        assert _lines(path)[1] == "sharp,1.0,0.1,0.005,2.0\n"

    def test_edge_values_in_every_column_kind_match_the_reference(self, tmp_path):
        values = float_edge_values()
        n = len(values)
        mixed = [None, "sharp", np.float64(-0.0), 7, -2**53 - 1, "", np.nan, 1e16]
        listed = [mixed[i % len(mixed)] if i % 3 else v for i, v in enumerate(values.tolist())]
        blocks = [
            (values, listed, values[::-1], np.array([str(v) for v in values]).tolist()),
            (np.array([]), [], np.array([]), []),
            (values[:5], [np.float64(v) for v in values[:5]], [int(v) for v in range(5)],
             ["a", "b", None, "d", "e"]),
        ]
        header = ("a", "b", "c", "d")
        path = tmp_path / "edges.csv"
        harness.write_csv(str(path), header, blocks)
        rows = [row for block in blocks for row in zip(*block)]
        assert len(rows) == n + 5
        assert _lines(path) == _reference_csv(header, rows)

    def test_scenario_files_match_the_row_reference(self, tmp_path, monkeypatch):
        # every table a run writes, against the row-by-row reference of the
        # columns it handed to write_csv; the trajectory against rows rebuilt
        # from an independent integration with m taken one snapshot at a time
        written = {}
        real_write_csv = harness.write_csv

        def recording_write_csv(path, header, blocks):
            blocks = [tuple(block) for block in blocks]
            written[os.path.basename(path)] = (header, blocks)
            real_write_csv(path, header, blocks)

        monkeypatch.setattr(harness, "write_csv", recording_write_csv)
        sc = _small_scenario(
            name="golden",
            diagnostics=("casimir", "transport", "mflow", "formulation",
                         "persistence", "decay", "besov"),
        )
        manifest = run_scenario(sc, str(tmp_path))
        csvs = [f for f in manifest["outputs"] if f.endswith(".csv")]
        assert sorted(csvs) == sorted(written)
        assert len(csvs) == 10
        for name, (header, blocks) in written.items():
            rows = [row for block in blocks for row in zip(*block)]
            assert _lines(tmp_path / name) == _reference_csv(header, rows), name
        besov_styles = {row[0] for row in csv.reader(open(tmp_path / "golden_besov_u.csv"))}
        assert besov_styles == {"style", "sharp", "smooth"}

        _, params, ctrl, state0 = sc.build()
        traj = integrate(state0, params, ctrl, sc.output_times())
        assert isinstance(traj.times[1], np.float64)
        x = traj.grid.x
        rows = []
        for t, u, rho in zip(traj.times, traj.u, traj.rho):
            m = apply_inertia(RealField(traj.grid, u), params.r).samples
            rows += [(t, x[j], u[j], rho[j], m[j]) for j in range(traj.grid.n)]
        lines = _lines(tmp_path / "golden_trajectory.csv")
        assert lines == _reference_csv(TRAJECTORY_COLUMNS, rows)
        assert not any("np.float64" in line for line in lines)

    def test_failure_midway_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("old contents\n")

        def blocks():
            yield (np.array([1.0, 2.0]),)
            raise RuntimeError("source failed midway")

        with pytest.raises(RuntimeError, match="midway"):
            harness.write_csv(str(path), ("v",), blocks())
        assert path.read_text() == "old contents\n"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")] == []


class TestCli:
    def test_check_good(self, config_file, capsys):
        assert main(["check", config_file]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_check_bad(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nn = 7\n")
        assert main(["check", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_run_requires_source(self):
        assert main(["run"]) == 1

    def test_run_unknown_preset(self):
        assert main(["run", "--preset", "nope"]) == 1

    def test_bad_override_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["run", "--preset", "zero", "--n", "100", "--out", str(out)]) == 1
        assert "grid.n must be a power of two" in capsys.readouterr().err
        assert not out.exists()

    def test_run_preset_zero(self, tmp_path, capsys):
        assert main(["run", "--preset", "zero", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "outcome: completed" in out

    def test_run_config_with_overrides(self, config_file, tmp_path):
        code = main([
            "run", "--config", config_file, "--out", str(tmp_path),
            "--n", "128", "--tfinal", "0.05",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "demo_manifest.json").read_text())
        assert manifest["scenario"]["t_final"] == 0.05

    def test_internal_error_names_the_exception_type(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise TypeError("integrate() got an unexpected keyword argument 'ampl'")

        monkeypatch.setattr(harness.dynamics, "integrate", broken)
        assert main(["run", "--preset", "zero", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "internal error: TypeError: integrate() got an unexpected keyword argument 'ampl'\n"
        )

    def test_formulation_is_no_run_option(self, tmp_path, capsys):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "zero", "--formulation", "m", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --formulation m" in capsys.readouterr().err
        assert not out.exists()

    def test_error_line_names_the_exception(self, tmp_path, monkeypatch, capsys):
        def broken(ctx, out):
            raise ZeroDivisionError("no mass to normalise")

        monkeypatch.setitem(harness.DIAGNOSTICS, "casimir", broken)
        assert main(["run", "--preset", "zero", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "  casimir: error (ZeroDivisionError: no mass to normalise)\n" in out
        assert "  transport: pass (value=0.000e+00)\n" in out

    def test_fail_line_gives_value_and_tolerance(self, tmp_path, monkeypatch, capsys):
        def failing(ctx, out):
            return harness._gate(0.25, 1e-6, "a drift too large"), []

        monkeypatch.setitem(harness.DIAGNOSTICS, "casimir", failing)
        assert main(["run", "--preset", "zero", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "  casimir: fail (value=2.500e-01, tolerance=1.000e-06)\n" in out

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_output_files_honour_the_umask(self, tmp_path, umask, mode):
        # the files get the mode a plain open() gives, not mkstemp's 0o600
        previous = os.umask(umask)
        try:
            assert main(["run", "--preset", "zero", "--out", str(tmp_path)]) == 0
        finally:
            os.umask(previous)
        names = sorted(os.listdir(tmp_path))
        assert "zero_manifest.json" in names and "zero_trajectory.csv" in names
        for name in names:
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode, name

    def test_unknown_suite_is_config_error(self, tmp_path):
        assert main(["suite", "bogus", "--out", str(tmp_path)]) == 1

    def test_support_is_a_preset_not_a_suite(self, tmp_path, capsys):
        # run --preset support reports the containment check; no suite reruns it
        assert main(["suite", "support", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        for name in ("convergence", "friedrichs", "persistence", "stability"):
            assert name in err
        assert not os.listdir(tmp_path)

    def test_suite_runs(self, tmp_path, capsys):
        assert main(["suite", "friedrichs", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "friedrichs_report.json").exists()


class TestRunsWithoutScipy:
    """numpy is chflow's only runtime dependency; scipy is for the tests."""

    def test_no_module_imports_scipy(self):
        src = os.path.dirname(harness.__file__)
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):   # every depth, function bodies included
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                assert all(m.split(".")[0] != "scipy" for m in modules), (name, node.lineno)

    def test_cli_runs_with_scipy_unimportable(self, tmp_path):
        code = textwrap.dedent("""
            import sys

            class RefuseScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ModuleNotFoundError(f"No module named {name!r}")

            sys.meta_path.insert(0, RefuseScipy())
            from chflow.cli import main
            out = sys.argv[1]
            assert main(["run", "--preset", "zero", "--out", out + "/zero"]) == 0
            assert main(["suite", "friedrichs", "--out", out + "/friedrichs"]) == 0
        """)
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)


class TestStrictJson:
    def test_write_json_encodes_non_finite_floats(self, tmp_path):
        path = tmp_path / "values.json"
        harness.write_json(str(path), {
            "a": [1.5, math.inf, -math.inf],
            "b": np.array([np.nan, 2.0]),
            "c": (np.float64(np.inf), np.bool_(True), np.int64(3), np.float64(0.25)),
        })
        assert _strict_json(path) == {
            "a": [1.5, "inf", "-inf"], "b": ["nan", 2.0], "c": ["inf", True, 3, 0.25],
        }

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_manifests_are_strict_json(self, name, tmp_path):
        sc = PRESETS[name]
        run_scenario(sc, str(tmp_path))
        _strict_json(tmp_path / f"{sc.name}_manifest.json")

    def test_blowup_manifest_is_strict_json(self, tmp_path):
        with np.errstate(all="ignore"):
            manifest = run_scenario(_burst_scenario(), str(tmp_path))
        grad = manifest["blowup"]["max_gradient"]
        assert not math.isfinite(grad)
        parsed = _strict_json(tmp_path / "burst_manifest.json")
        assert parsed["blowup"] == {
            "t": manifest["blowup"]["t"], "max_gradient": "nan" if math.isnan(grad) else "inf",
        }


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_validate(self, name):
        assert PRESETS[name].validate() == []

    def test_zero_preset_trivially_passes(self, tmp_path):
        manifest = run_scenario(PRESETS["zero"], str(tmp_path))
        for entry in manifest["invariants"].values():
            assert entry["status"] == "pass"

    def test_ch_branch_preset_conserves_casimir(self, tmp_path):
        manifest = run_scenario(PRESETS["2cch"], str(tmp_path))
        cas = manifest["invariants"]["casimir"]
        assert cas["status"] == "pass"
        assert cas["value"] < 1e-6
        assert manifest["invariants"]["formulation"]["status"] == "pass"

    def test_highorder_preset_skips_formulation_only(self, tmp_path):
        manifest = run_scenario(PRESETS["highorder"], str(tmp_path))
        inv = manifest["invariants"]
        assert inv["formulation"]["status"] == "skipped"
        assert inv["transport"]["status"] == "pass"
        assert inv["casimir"]["status"] == "pass"
        assert inv["mflow"]["status"] == "pass"

    @pytest.mark.parametrize("name", ["2cdp", "chb", "hkmetric", "hkmetric3", "decay"])
    def test_special_case_presets_pass_end_to_end(self, name, tmp_path):
        # the preset catalogue covers the family's named branches
        # (b=3 pair, one-component with dispersion, r=2 and r=3 metrics,
        # wide-domain tail study); each must complete with green diagnostics
        manifest = run_scenario(PRESETS[name], str(tmp_path))
        assert manifest["outcome"] == "completed"
        for diag, entry in manifest["invariants"].items():
            assert entry["status"] in ("pass", "skipped"), (name, diag, entry)
