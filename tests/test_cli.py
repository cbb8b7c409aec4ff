import configparser
import json

import numpy as np
import pytest

from fieldtomo.cli import main
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
    code, _, err = run(
        capsys, "reconstruct", "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert stderr_error(err)["type"] == "ConfigError"


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
