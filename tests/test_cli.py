import configparser
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fieldtomo
import oracles
from fieldtomo import cli, spectral
from fieldtomo import reconstruct as rec_mod
from fieldtomo.cli import DEFAULTS, PRESETS, main
from fieldtomo.exceptions import ConfigError, EstimationError, FieldTomoError, exit_code_for
from fieldtomo.fock import density_from_pure, fock_state
from fieldtomo.measurement import read_trajectory_csv, sample_records
from fieldtomo.probe import ProbeConfig
from fieldtomo.reconstruct import reconstruct_from_spectra, reconstruct_state
from fieldtomo.spectral import dft, read_spectrum_csv, read_windows


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
    oracle = io.StringIO()
    oracles.merged_config().write(oracle)
    assert out == oracle.getvalue()


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--out-dir", "."])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_options_before_the_command_run_the_op(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\nn_m = 100\n")
    options = ["--seed", "7", "--config", cfg, "--out-dir"]
    assert run(capsys, *options, str(tmp_path / "before"), "estimate-g")[0] == 0
    assert run(capsys, "estimate-g", *options, str(tmp_path / "after"))[0] == 0
    written = [(tmp_path / d / "g_estimate.json").read_bytes() for d in ("before", "after")]
    assert written[0] == written[1]


KEYS = [(section, option) for section, options in DEFAULTS.items() for option in options]
INI_VALUES = st.text(alphabet="az09.-:; ", max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    preset=st.sampled_from([None, *sorted(PRESETS)]),
    overlay=st.one_of(st.none(), st.dictionaries(st.sampled_from(KEYS), INI_VALUES)),
    unknown=st.sampled_from([None, ("wat", "x"), ("plan", "bogus"), ("DEFAULT", "n_t")]),
    seed=st.one_of(st.none(), st.integers(-5, 2**40)),
    state_file=st.one_of(st.none(), st.sampled_from(["", "amps.txt"])),
)
def test_merged_config_matches_the_configparser_oracle(preset, overlay, unknown, seed, state_file):
    """Defaults <- preset <- --config <- --seed/--state-file: every value is
    the `ConfigParser` merge's, and an unknown key fails with its key."""
    with tempfile.TemporaryDirectory() as tmp:
        config = None
        if overlay is not None:
            entries = {**overlay, unknown: "1"} if unknown else overlay
            sections = {}
            for (section, option), value in entries.items():
                sections.setdefault(section, {})[option] = value
            config = str(Path(tmp, "run.ini"))
            ini = configparser.ConfigParser(interpolation=None)
            ini.read_dict(sections)
            with open(config, "w") as fh:
                ini.write(fh)
        args = SimpleNamespace(preset=preset, config=config, seed=seed, state_file=state_file)
        try:
            want = oracles.merged_config(preset, config, seed, state_file)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                cli._merged_config(args)
            assert got.value.key == exc.key
            return
        got = cli._merged_config(args)
    assert got == {section: dict(want.items(section)) for section in want.sections()}


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
    # [DEFAULT] is refused too: never ignored, never folded into its neighbours.
    for text, key in (
        ("[wat]\nx = 1\n", "wat"),
        ("[DEFAULT]\nn_t = 64\n", "DEFAULT"),
        ("[DEFAULT]\nn_t = 64\n[plan]\nn_m = 100\n", "DEFAULT"),
        ("[DEFAULT]\nn_t = 64\n[state]\nn = 2\n", "DEFAULT"),
    ):
        cfg = write_config(tmp_path, text)
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "estimate-g", "--config", cfg, "--out-dir", str(out_dir))
        assert code == 2
        assert stderr_error(err)["key"] == key
        assert not out_dir.exists()  # refused while merging, before the directory is made


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


@pytest.mark.parametrize(
    "preset, overlay",
    [("paper-state2", ""), ("paper-coherent", "[plan]\nn_m = 1000\n")],
)
def test_one_sided_spectrum_files_reconstruct_the_state(capsys, tmp_path, preset, overlay):
    """The one-sided spectrum CSVs hold all a reconstruction needs."""
    cfg = write_config(tmp_path, overlay)
    code, _, _ = run(
        capsys, "reconstruct", "--preset", preset, "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 0
    n_t = int(cli.PRESETS[preset]["plan"]["n_t"])
    spectra = {}
    for axis in "xyz":
        path = tmp_path / f"spectrum_{axis}.csv"
        assert len(path.read_text().splitlines()) == 1 + n_t // 2 + 1
        spectra[axis] = read_spectrum_csv(path)
    spectral = DEFAULTS["spectral"]
    result = reconstruct_from_spectra(
        float(DEFAULTS["probe"]["g"]),
        spectra["z"],
        spectra["x"],
        spectra["y"],
        n_max=int(spectral["n_max"]),
        half_width=int(spectral["half_width"]),
        population_floor=float(spectral["population_floor"]),
    )
    payload = json.loads((tmp_path / "reconstruction.json").read_text())
    assert np.allclose(result.populations, payload["populations"], rtol=0, atol=1e-12)
    written = [complex(c["re"], c["im"]) for c in payload["coherences"]]
    assert np.allclose(result.coherences, written, rtol=0, atol=1e-12)


def test_reconstruct_requires_z(capsys, tmp_path):
    """Tomography axes hold z, and x and y together or neither."""
    for axes in ("xy", "xz", "yz"):
        cfg = write_config(tmp_path, f"[plan]\naxes = {axes}\n")
        for command in ("reconstruct", "dce"):
            out_dir = tmp_path / axes / command
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
    for name in ("trajectory.csv", "spectrum_x.csv", "spectrum_y.csv", "spectrum_z.csv",
                 "peaks.json", "reconstruction.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_reconstruct_makes_six_dfts_and_reads_each_window_once(capsys, tmp_path, monkeypatch):
    """Three record spectra and three residual-floor models; the peaks are
    the estimator's own reads, one `read_windows` call per spectrum."""
    calls = {"dft": 0, "read_windows": 0}
    windows = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "read_windows":
                windows.append(np.size(args[1]))
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, rec_mod):
        monkeypatch.setattr(module, "dft", counting("dft", module.dft))
    for module in (spectral, rec_mod):
        monkeypatch.setattr(module, "read_windows", counting("read_windows", read_windows))
    code, _, _ = run(capsys, "reconstruct", "--out-dir", str(tmp_path))
    assert code == 0
    assert calls == {"dft": 6, "read_windows": 3}
    assert sum(windows) == len(json.loads((tmp_path / "peaks.json").read_text()))


@pytest.mark.parametrize("preset", ["paper-state1", "paper-state2", "paper-coherent"])
def test_peak_areas_are_the_raw_window_reads_of_the_trajectory(capsys, tmp_path, preset):
    """Every ``peaks.json`` area is, bit for bit, its window read on its own
    from the spectrum of the written trajectory: z windows, then x, then y."""
    code, _, _ = run(capsys, "reconstruct", "--preset", preset, "--out-dir", str(tmp_path))
    assert code == 0
    traj = read_trajectory_csv(tmp_path / "trajectory.csv")
    spectra = {a: dft(getattr(traj, a), traj.times) for a in "xyz"}
    peaks = json.loads((tmp_path / "peaks.json").read_text())
    n_xy = sum(p["family"] != "z" for p in peaks) // 2
    axes = ["z"] * (len(peaks) - 2 * n_xy) + ["x"] * n_xy + ["y"] * n_xy
    assert [p["family"] == "z" for p in peaks] == [a == "z" for a in axes]
    half_width = int(DEFAULTS["spectral"]["half_width"])
    for axis, p in zip(axes, peaks):
        area = complex(read_windows(spectra[axis], p["center"], half_width))
        assert (p["area_re"], p["area_im"]) == (area.real, area.imag), (axis, p["label"])


def test_trajectory_file_reconstructs_the_written_result(capsys, tmp_path):
    """write -> read -> reconstruct: a ``trajectory.csv`` read back gives
    the populations and trace deficit of ``reconstruction.json`` bit for bit."""
    code, _, _ = run(
        capsys, "reconstruct", "--preset", "paper-coherent", "--out-dir", str(tmp_path)
    )
    assert code == 0
    spectral = DEFAULTS["spectral"]
    result = reconstruct_state(
        read_trajectory_csv(tmp_path / "trajectory.csv"),
        float(DEFAULTS["probe"]["g"]),
        n_max=int(spectral["n_max"]),
        half_width=int(spectral["half_width"]),
        population_floor=float(spectral["population_floor"]),
    )
    payload = json.loads((tmp_path / "reconstruction.json").read_text())
    assert result.populations.tolist() == payload["populations"]
    assert result.trace_deficit == payload["trace_deficit"]


@pytest.mark.parametrize(
    "overlay, message",
    [
        ("[plan]\nn_t = 8\n", "window for rho[0,0] (bin 0 +- 4) exceeds the frequency grid"),
        ("[spectral]\nhalf_width = 2000\n",
         "window for rho[1,1] (bin 98 +- 2000) exceeds the frequency grid"),
    ],
)
@pytest.mark.parametrize("command", ["reconstruct", "dce"])
def test_off_grid_window_error_names_its_element(capsys, tmp_path, command, overlay, message):
    cfg = write_config(tmp_path, overlay)
    code, _, err = run(capsys, command, "--config", cfg, "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert stderr_error(err)["type"] == "GridError"
    assert stderr_error(err)["message"].startswith(message)


def test_huge_gamma_reconstructs_without_a_warning(capsys, tmp_path):
    """gamma t past the float range damps every sample to exactly 0; the
    suite turns any numpy warning on the way into an error."""
    cfg = write_config(tmp_path, "[plan]\ngamma = 1e308\n")
    code, _, _ = run(capsys, "reconstruct", "--config", cfg, "--out-dir", str(tmp_path))
    assert code == 0
    assert np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)[:, 1:].max() == 0


def test_state_file_flag(capsys, tmp_path):
    amp_path = tmp_path / "state.txt"
    amp_path.write_text("0 1.0 0.0\n2 1.0 0.0\n")
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


@pytest.mark.parametrize(
    "option, value, code, key",
    [
        ("alpha_re", "inf", 2, "state.alpha_re"),
        ("alpha_im", "nan", 2, "state.alpha_im"),
        ("alpha_re", "1e200", 3, None),  # exp(-|alpha|^2 / 2) underflows
    ],
)
def test_coherent_amplitude_out_of_range(capsys, tmp_path, option, value, code, key):
    cfg = write_config(tmp_path, f"[state]\nkind = coherent\n{option} = {value}\n")
    got, _, err = run(capsys, "reconstruct", "--config", cfg, "--out-dir", str(tmp_path))
    assert got == code
    assert stderr_error(err).get("key") == key


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


def test_negative_seed_flag_exits_2_with_key(capsys, tmp_path):
    cfg = write_config(tmp_path, "[plan]\nn_m = 1000\n")
    code, _, err = run(
        capsys, "reconstruct", "--config", cfg, "--seed", "-5",
        "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert stderr_error(err)["type"] == "ConfigError"
    assert stderr_error(err)["key"] == "plan.seed"


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
        ("dce", "dce.g_over_omega", "1e-310"),
        ("dce", "dce.g_over_omega", "1e308"),
        ("noise-sweep", "plan.n_t_list", "0 128"),
        ("noise-sweep", "plan.n_t_list", "1 128"),
        ("noise-sweep", "plan.n_m_list", "0 10"),
        ("noise-sweep", "plan.t_total", "-5"),
        ("noise-sweep", "plan.t_total", "0"),
        ("noise-sweep", "plan.t_total", "nan"),
        ("noise-sweep", "plan.t_total", "inf"),
        ("noise-sweep", "plan.t_total", "1e-323"),  # t_total / n_t underflows to 0
        ("reconstruct", "plan.delta_t", "-1"),
        ("reconstruct", "plan.delta_t", "nan"),
        ("noise-sweep", "plan.delta_t", "-1"),
        ("dce", "plan.delta_t", "0"),
        ("estimate-g", "plan.delta_t", "inf"),
        ("reconstruct", "plan.n_t", "0"),
        ("reconstruct", "plan.n_t", "1"),
        ("reconstruct", "plan.n_m", "0"),
        ("reconstruct", "plan.gamma", "-1"),
        ("reconstruct", "plan.gamma", "nan"),
        ("reconstruct", "plan.seed", "-1"),
        ("noise-sweep", "plan.seed", "-1"),
        ("noise-sweep", "plan.n_seeds", "0"),
        ("reconstruct", "probe.g", "0"),
        ("noise-sweep", "probe.g", "nan"),
        ("dce", "probe.g", "-1"),
        ("estimate-g", "probe.g", "inf"),
        ("reconstruct", "spectral.n_max", "0"),
        ("dce", "spectral.n_max", "-1"),
        ("estimate-g", "spectral.g_min", "-1"),
        ("estimate-g", "spectral.g_min", "nan"),
        ("estimate-g", "spectral.g_max", "nan"),
        ("estimate-g", "spectral.g_max", "inf"),
        ("estimate-g", "spectral.g_max", "0.4"),
        ("reconstruct", "state.n", "-1"),
        ("noise-sweep", "state.n", "13"),
        ("estimate-g", "state.n", "20"),
        ("reconstruct", "state.cutoff", "-1"),
        ("noise-sweep", "state.cutoff", "0"),
        ("dce", "dce.cutoff", "-1"),
        ("dce", "dce.cutoff", "1"),
        ("dce", "dce.tau", "-1"),
        ("dce", "dce.tau", "nan"),
        ("dce", "dce.tau_list", "1 -1"),
        ("dce", "dce.tau_list", "1 nan"),
        ("dce", "dce.omega", "nan"),
        ("dce", "dce.g_over_omega", "inf"),
    ],
)
def test_bad_values_exit_2_with_key(capsys, tmp_path, command, key, value):
    section, option = key.split(".")
    cfg = write_config(tmp_path, f"[{section}]\n{option} = {value}\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, command, "--config", cfg, "--out-dir", str(out_dir))
    assert code == 2
    body = stderr_error(err)
    assert body["type"] == "ConfigError"
    assert body["key"] == key
    assert list(out_dir.iterdir()) == []  # refused before any artifact


@pytest.mark.parametrize("command", ["reconstruct", "noise-sweep", "estimate-g"])
@pytest.mark.parametrize("terms", ["20:1:0", "-1:1:0", "1:1:0; 13:1:0"])
def test_superposition_index_outside_cutoff_exits_2(capsys, tmp_path, command, terms):
    cfg = write_config(tmp_path, f"[state]\nkind = superposition\nterms = {terms}\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, command, "--config", cfg, "--out-dir", str(out_dir))
    assert code == 2
    body = stderr_error(err)
    assert body["type"] == "ConfigError"
    assert body["key"] == "state.terms"
    assert list(out_dir.iterdir()) == []  # refused before any artifact


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


@settings(max_examples=40, deadline=None)
@given(
    n_t_list=st.lists(st.integers(16, 300), min_size=1, max_size=4),
    n_m_list=st.lists(st.integers(1, 1000), min_size=1, max_size=2),
    n_seeds=st.integers(1, 5),
    t_total=st.one_of(st.none(), st.floats(10.0, 80.0)),
    half_width=st.integers(0, 6),
    gamma=st.sampled_from([0.0, 0.02]),
    seed=st.integers(0, 2**32),
)
@example(
    n_t_list=[128, 129], n_m_list=[1000], n_seeds=5, t_total=None, half_width=4,
    gamma=0.0, seed=12345,
)
@example(
    n_t_list=[1024, 128, 512, 256, 128], n_m_list=[1000], n_seeds=3, t_total=None,
    half_width=4, gamma=0.02, seed=12345,
)
def test_noise_sweep_rows_match_the_per_record_oracle(
    n_t_list, n_m_list, n_seeds, t_total, half_width, gamma, seed
):
    """Each batched cell gives exactly the rows of the seeds run one by one."""
    overlay = {
        "plan": {
            "n_t_list": " ".join(map(str, n_t_list)),
            "n_m_list": " ".join(map(str, n_m_list)),
            "n_seeds": str(n_seeds),
            "t_total": "" if t_total is None else repr(t_total),
            "gamma": repr(gamma),
            "seed": str(seed),
        },
        "spectral": {"half_width": str(half_width)},
    }
    rho = density_from_pure(fock_state(1, 12))
    try:
        want = oracles.noise_sweep_rows(
            rho, ProbeConfig(g=1.0), n_t_list, n_m_list, n_seeds, seed, 0.075, t_total,
            half_width, gamma,
        )
    except FieldTomoError as exc:
        want = exit_code_for(exc)
    with tempfile.TemporaryDirectory() as tmp:
        code = run_overlay(overlay, "noise-sweep", tmp)
        if isinstance(want, int):
            assert code == want
            return
        assert code == 0
        lines = Path(tmp, "noise_sweep.csv").read_text().splitlines()
    got = [line.split(",") for line in lines[1:]]
    assert [(int(n_m), int(n_t), float(xi), float(snr)) for n_m, n_t, xi, snr in got] == [
        (r["n_m"], r["n_t"], r["xi"], r["snr"]) for r in want
    ]


@pytest.mark.parametrize(
    "preset, calls, cells", [("paper-fig6-right", 1, 4), ("paper-fig6-left", 10, 10)]
)
def test_noise_sweep_samples_once_per_delta_t_and_n_m(
    capsys, tmp_path, monkeypatch, preset, calls, cells
):
    """At a shared delta_t (fig6-right) one stack serves every n_t; with
    t_total set (fig6-left) each n_t has its own delta_t and draws its own."""
    seen = []

    def counting(rho, cfg, plan, n_records=1):
        seen.append((plan.delta_t, plan.n_m, plan.n_t))
        return sample_records(rho, cfg, plan, n_records)

    monkeypatch.setattr(cli, "sample_records", counting)
    cfg = write_config(tmp_path, "[plan]\nn_seeds = 2\n")
    code, _, _ = run(
        capsys, "noise-sweep", "--preset", preset, "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert len(seen) == calls == len(set(seen))
    lines = (tmp_path / "noise_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + cells


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


def run_overlay(overlay: dict, command: str, out_dir: Optional[str] = None) -> int:
    """Exit code of ``command`` under the INI ``overlay``, its artifacts
    written to ``out_dir`` (a scratch directory when None)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(overlay)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "run.ini")
        with open(cfg, "w") as fh:
            cp.write(fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command, "--config", str(cfg), "--out-dir", out_dir or tmp])


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
