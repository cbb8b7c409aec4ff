import configparser
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldtomo
from fieldtomo import cli
from fieldtomo.cli import DEFAULTS, main
from fieldtomo.exceptions import EstimationError
from fieldtomo.states import save_amplitudes, superposition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_error(err: str) -> dict:
    return json.loads(err)["error"]


def write_config(tmp_path, text: str):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_print_defaults_round_trips(capsys):
    code, out, _ = run(capsys, "--print-defaults")
    assert code == 0
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(out)
    assert set(cp.sections()) == {"state", "probe", "plan", "spectral", "dce"}
    assert cp.get("plan", "delta_t") == "auto"
    assert cp.get("spectral", "half_width") == "4"


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_preset(capsys, tmp_path):
    code, _, err = run(
        capsys, "reconstruct", "--preset", "nope", "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert stderr_error(err)["type"] == "ConfigError"


def test_unknown_config_key(capsys, tmp_path):
    # A retired key is rejected like any other unknown key.
    for text, key in (
        ("[plan]\nbogus = 1\n", "plan.bogus"),
        ("[spectral]\nrefine_passes = 3\n", "spectral.refine_passes"),
        ("[dce]\ndt_int = 0.1\n", "dce.dt_int"),
    ):
        cfg = write_config(tmp_path, text)
        code, _, err = run(
            capsys, "reconstruct", "--config", cfg, "--out-dir", str(tmp_path)
        )
        assert code == 2
        body = stderr_error(err)
        assert body["type"] == "ConfigError"
        assert body["key"] == key


def test_unknown_config_section(capsys, tmp_path):
    cfg = write_config(tmp_path, "[wat]\nx = 1\n")
    code, _, err = run(
        capsys, "reconstruct", "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert stderr_error(err)["key"] == "wat"


def test_non_numeric_value(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\nn_t = many\n")
    code, _, err = run(
        capsys, "reconstruct", "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert stderr_error(err)["key"] == "plan.n_t"


def test_reconstruct_writes_artifacts(capsys, tmp_path):
    code, out, _ = run(capsys, "reconstruct", "--out-dir", str(tmp_path))
    assert code == 0
    for name in (
        "trajectory.csv",
        "spectrum_x.csv",
        "spectrum_y.csv",
        "spectrum_z.csv",
        "peaks.json",
        "reconstruction.json",
    ):
        assert (tmp_path / name).is_file(), name
    payload = json.loads((tmp_path / "reconstruction.json").read_text())
    # default state is |1>: all weight in level 1, ideal shots
    assert payload["populations"][1] == pytest.approx(1.0, abs=1e-3)
    assert payload["trace_deficit"] == pytest.approx(0.0, abs=2e-3)
    assert isinstance(payload["diagnostics"]["partial"], bool)
    peaks = json.loads((tmp_path / "peaks.json").read_text())
    assert isinstance(peaks, list) and peaks
    wanted = {"label", "family", "center", "area_re", "area_im", "snr"}
    assert all(wanted <= set(p) for p in peaks)


def test_reconstruct_requires_z(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\naxes = xy\n")
    for command in ("reconstruct", "dce"):
        out_dir = tmp_path / command
        code, _, err = run(capsys, command, "--config", cfg, "--out-dir", str(out_dir))
        assert code == 2
        assert stderr_error(err)["type"] == "ConfigError"
        assert stderr_error(err)["key"] == "plan.axes"
        assert list(out_dir.iterdir()) == []  # refused before any artifact


def test_sampled_runs_are_byte_deterministic(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\nn_m = 100\n")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(
            capsys, "reconstruct", "--config", cfg, "--seed", "7",
            "--out-dir", str(d),
        )
        assert code == 0
    for name in ("trajectory.csv", "spectrum_z.csv", "peaks.json",
                 "reconstruction.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_state_file_flag(capsys, tmp_path):
    state = superposition([(0, 1.0), (2, 1.0)], 8)
    amp_path = tmp_path / "state.txt"
    save_amplitudes(state, amp_path)
    code, _, _ = run(
        capsys, "reconstruct", "--state-file", str(amp_path),
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "reconstruction.json").read_text())
    assert payload["chain_breaks"] == [1]
    assert payload["populations"][0] == pytest.approx(0.5, abs=1e-3)
    assert payload["populations"][2] == pytest.approx(0.5, abs=1e-3)


def test_insufficient_cutoff_exits_3(capsys, tmp_path):
    cfg = write_config(
        tmp_path, "[state]\nkind = coherent\nalpha_re = 3.0\ncutoff = 6\n"
    )
    code, _, err = run(
        capsys, "reconstruct", "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 3
    assert stderr_error(err)["type"] == "CutoffError"


def test_unresolvable_grid_exits_4(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\nn_t = 128\n")
    code, _, err = run(
        capsys, "reconstruct", "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 4
    assert stderr_error(err)["type"] == "ResolvabilityError"


def test_noise_sweep_single_point(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        "[plan]\nn_m_list = 50\nn_t_list = 128\nn_seeds = 2\n"
        "t_total = 62.83185307179586\n",
    )
    code, _, _ = run(
        capsys, "noise-sweep", "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "noise_sweep.csv").read_text().splitlines()
    assert lines[0] == "n_m,n_t,xi,snr"
    assert len(lines) == 2  # a single sweep point cannot support a fit
    slopes = json.loads((tmp_path / "noise_sweep_slopes.json").read_text())
    assert slopes == {"xi_vs_n_m": {}, "snr_vs_n_t": {}}
    n_m, n_t, xi, snr = lines[1].split(",")
    assert (int(n_m), int(n_t)) == (50, 128)
    assert float(xi) > 0 and float(snr) > 0


def test_negative_seed_exits_3(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\nn_m = 1000\n")
    code, _, err = run(
        capsys, "reconstruct", "--config", cfg, "--seed", "-5",
        "--out-dir", str(tmp_path),
    )
    assert code == 3
    assert stderr_error(err)["type"] == "ValidationError"


def test_non_numeric_t_total(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\nt_total = abc\n")
    code, _, err = run(
        capsys, "noise-sweep", "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 2
    body = stderr_error(err)
    assert body["type"] == "ConfigError"
    assert body["key"] == "plan.t_total"


def test_non_numeric_tau_list(capsys, tmp_path):
    cfg = write_config(tmp_path, "[dce]\ntau_list = 0.5 x\n")
    code, _, err = run(
        capsys, "dce", "--preset", "paper-dce", "--config", cfg,
        "--out-dir", str(tmp_path),
    )
    assert code == 2
    body = stderr_error(err)
    assert body["type"] == "ConfigError"
    assert body["key"] == "dce.tau_list"


def test_estimate_g(capsys, tmp_path):
    code, _, _ = run(capsys, "estimate-g", "--out-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "g_estimate.json").read_text())
    assert payload["g_estimate"] == pytest.approx(1.0, abs=0.01)
    assert payload["search_range"] == [0.5, 2.0]
    assert payload["score"] > 0


def test_dce_preset(capsys, tmp_path):
    code, _, _ = run(
        capsys, "dce", "--preset", "paper-dce", "--out-dir", str(tmp_path)
    )
    assert code == 0
    payload = json.loads((tmp_path / "dce.json").read_text())
    assert len(payload["points"]) >= 1
    point = payload["points"][0]
    assert point["g_over_omega"] == pytest.approx(0.5)
    assert {"c_g", "c_e", "phi_g", "phi_e", "mean_photons", "leakage"} <= set(point)
    tomo = payload["tomography"]
    assert tomo["fidelity_phi_plus"] >= 0.999
    assert tomo["fidelity_phi_minus"] >= 0.999
    assert tomo["recombined"]["fidelity_phi_g"] >= 0.999
    assert tomo["recombined"]["fidelity_phi_e"] >= 0.999


def test_dce_tau_list_precedes_tomography_point(capsys, tmp_path):
    cfg = write_config(tmp_path, "[dce]\ntau = 1.5\ntau_list = 1.5 0.5\n")
    code, _, _ = run(
        capsys, "dce", "--preset", "paper-dce", "--config", cfg,
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "dce.json").read_text())
    assert [p["tau"] for p in payload["points"]] == [1.5, 0.5, 1.5]
    assert payload["tomography"]["tau"] == 1.5


def test_outputs_end_with_newline(capsys, tmp_path):
    code, _, _ = run(capsys, "estimate-g", "--out-dir", str(tmp_path))
    assert code == 0
    raw = (tmp_path / "g_estimate.json").read_bytes()
    assert raw.endswith(b"\n")


@pytest.mark.parametrize("preset", ["paper-state1", "paper-state2", "paper-coherent"])
def test_ideal_presets_raise_no_cauchy_schwarz_warning(capsys, tmp_path, preset):
    code, _, _ = run(capsys, "reconstruct", "--preset", preset, "--out-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "reconstruction.json").read_text())
    assert not [w for w in payload["diagnostics"]["warnings"] if "exceeds sqrt" in w]


def test_sampled_cauchy_schwarz_warnings_mark_excess_above_noise(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\nn_m = 1000\n")
    code, _, _ = run(
        capsys, "reconstruct", "--preset", "paper-coherent", "--config", cfg,
        "--seed", "7", "--out-dir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "reconstruction.json").read_text())
    diag = payload["diagnostics"]
    xi = np.hypot(diag["noise_floor_x"], diag["noise_floor_y"])
    pops = payload["populations"]
    above = {
        f"rho[{n},{n + 1}]"
        for n, c in enumerate(payload["coherences"])
        if abs(complex(c["re"], c["im"])) - np.sqrt(pops[n] * pops[n + 1]) > 5.0 * xi
    }
    warned = {w.split("|")[1] for w in diag["warnings"] if "exceeds sqrt" in w}
    assert warned == above == {"rho[0,1]"}


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("reconstruct", "spectral.half_width", "-1"),
        ("reconstruct", "spectral.population_floor", "nan"),
        ("reconstruct", "spectral.population_floor", "inf"),
        ("reconstruct", "spectral.population_floor", "-1"),
        ("dce", "spectral.population_floor", "nan"),
        ("dce", "dce.omega", "0"),
        ("dce", "dce.g_over_omega", "0"),
    ],
)
def test_bad_values_exit_2_with_key(capsys, tmp_path, command, key, value):
    section, option = key.split(".")
    cfg = write_config(tmp_path, f"[{section}]\n{option} = {value}\n")
    code, _, err = run(capsys, command, "--config", cfg, "--out-dir", str(tmp_path))
    assert code == 2
    body = stderr_error(err)
    assert body["type"] == "ConfigError"
    assert body["key"] == key


def test_noise_sweep_without_shot_noise_exits_3(capsys, tmp_path):
    # The vacuum never leaves z = -1, so every shot agrees.  The floor is
    # exactly 0 at n_t = 64 and rounding (~1e-18) at n_t = 128 and 256.
    for n_t_list in ("64", "128 256"):
        cfg = write_config(
            tmp_path,
            f"[state]\nn = 0\n[plan]\nn_m_list = 10\nn_t_list = {n_t_list}\nn_seeds = 1\n",
        )
        code, _, err = run(capsys, "noise-sweep", "--config", cfg, "--out-dir", str(tmp_path))
        assert code == 3
        assert stderr_error(err)["type"] == "EstimationError"
        assert not (tmp_path / "noise_sweep_slopes.json").exists()


def test_dce_skips_recombination_of_an_empty_branch(capsys, tmp_path):
    cfg = write_config(tmp_path, "[spectral]\npopulation_floor = 2\n")
    code, _, _ = run(
        capsys, "dce", "--preset", "paper-dce", "--config", cfg,
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    tomo = json.loads((tmp_path / "dce.json").read_text())["tomography"]
    assert tomo["recombined"] is None
    assert any(w.startswith("recombination skipped") for w in tomo["warnings"])


# A grid on which every command runs to completion, so each fuzzed value
# reaches the code that uses it.
FUZZ_BASE = {
    "plan": {"n_t": "256", "n_m_list": "10", "n_t_list": "64", "n_seeds": "1"},
    "spectral": {"n_max": "2", "half_width": "1"},
    "dce": {"cutoff": "15"},
}
FUZZ_TOKENS = ("0", "-1", "nan", "inf", "-inf", "", "abc")
COMMANDS = ("reconstruct", "noise-sweep", "dce", "estimate-g")
# Only `dce` reads [dce], and it builds no [state].
SECTION_COMMANDS = {"state": ("reconstruct", "noise-sweep", "estimate-g"), "dce": ("dce",)}


def run_overlay(overlay: dict, command: str) -> int:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(overlay)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "run.ini")
        with open(cfg, "w") as fh:
            cp.write(fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command, "--config", str(cfg), "--out-dir", tmp])


def test_fuzz_base_runs_every_command():
    assert [run_overlay(FUZZ_BASE, command) for command in COMMANDS] == [0] * 4


@pytest.mark.parametrize("command", COMMANDS)
def test_json_artifacts_are_strict_json(capsys, tmp_path, command):
    """No artifact carries NaN or Infinity, which strict JSON parsers refuse."""

    def refuse(token):
        raise AssertionError(f"non-finite {token} in a JSON artifact")

    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(FUZZ_BASE)
    with open(tmp_path / "run.ini", "w") as fh:
        cp.write(fh)
    code, _, _ = run(
        capsys, command, "--config", str(tmp_path / "run.ini"), "--out-dir", str(tmp_path)
    )
    assert code == 0
    artifacts = sorted(tmp_path.glob("*.json"))
    assert artifacts
    for path in artifacts:
        json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_json_is_an_estimation_error(tmp_path, value):
    with pytest.raises(EstimationError):
        cli._dump_json({"slope": value}, tmp_path / "out.json")
    assert not (tmp_path / "out.json").exists()


def test_import_pulls_in_no_scipy():
    """The runtime needs numpy alone; scipy is a test dependency."""
    env = dict(os.environ, PYTHONPATH=str(Path(fieldtomo.__file__).parents[1]))
    code = (
        "import sys, fieldtomo, fieldtomo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("key", [f"{s}.{o}" for s, opts in DEFAULTS.items() for o in opts])
@settings(max_examples=60, deadline=None)
@given(token=st.sampled_from(FUZZ_TOKENS), data=st.data())
def test_ini_value_fuzz_never_exits_1(key, token, data):
    """A bad value is a typed error (exit 2, 3 or 4), never a traceback."""
    section, option = key.split(".")
    command = data.draw(st.sampled_from(SECTION_COMMANDS.get(section, COMMANDS)))
    overlay = {name: dict(values) for name, values in FUZZ_BASE.items()}
    overlay.setdefault(section, {})[option] = token
    assert run_overlay(overlay, command) in (0, 2, 3, 4)
