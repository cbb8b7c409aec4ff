import configparser
import contextlib
import functools
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
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
from fieldtomo.exceptions import ConfigError, EstimationError, FieldTomoError
from fieldtomo.fock import density_from_pure, fock_state
from fieldtomo.measurement import read_trajectory_csv, sample_records
from fieldtomo.reconstruct import reconstruct_from_spectra, reconstruct_state
from fieldtomo.spectral import Spectrum, dft, read_windows


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

    def two_sided(path, n_t, delta_t):
        # File rows: the Nyquist row of an even n_t, then omega = 0, 1, ...
        # Each negative bin is the conjugate of its positive partner.
        omega, re, im = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        values, lead = re + 1j * im, 1 - n_t % 2
        values = np.r_[values[:lead], values[:lead:-1].conj(), values[lead:]]
        spec = Spectrum(values, delta_t)
        assert omega.tobytes() == np.r_[spec.freqs[:lead], spec.freqs[n_t // 2 :]].tobytes()
        return spec

    cfg = write_config(tmp_path, overlay)
    code, _, _ = run(
        capsys, "reconstruct", "--preset", preset, "--config", cfg, "--out-dir", str(tmp_path)
    )
    assert code == 0
    n_t = int(cli.PRESETS[preset]["plan"]["n_t"])
    delta_t = float(cli.PRESETS[preset]["plan"]["delta_t"])
    spectra = {}
    for axis in "xyz":
        path = tmp_path / f"spectrum_{axis}.csv"
        assert len(path.read_text().splitlines()) == 1 + n_t // 2 + 1
        spectra[axis] = two_sided(path, n_t, delta_t)
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
            assert not out_dir.exists()  # refused before any artifact


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
    the estimator's own reads, one call of the read kernel per spectrum."""
    calls = {"dft": 0, "read": 0}
    windows = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "read":
                windows.append(np.size(args[1][0]))
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, rec_mod):
        monkeypatch.setattr(module, "dft", counting("dft", module.dft))
    kernel = counting("read", spectral._read_placed)
    for module in (spectral, rec_mod):
        monkeypatch.setattr(module, "_read_placed", kernel)
    code, _, _ = run(capsys, "reconstruct", "--out-dir", str(tmp_path))
    assert code == 0
    assert calls == {"dft": 6, "read": 3}
    assert sum(windows) == len(json.loads((tmp_path / "peaks.json").read_text()))


@pytest.mark.parametrize("preset", ["paper-state1", "paper-state2", "paper-coherent"])
def test_peak_areas_are_the_raw_window_reads_of_the_trajectory(capsys, tmp_path, preset):
    """Every ``peaks.json`` area is, bit for bit, its window read on its own
    from the spectrum of the written trajectory: z windows, then x, then y."""
    code, _, _ = run(capsys, "reconstruct", "--preset", preset, "--out-dir", str(tmp_path))
    assert code == 0
    traj = read_trajectory_csv(tmp_path / "trajectory.csv")
    spectra = {a: dft(getattr(traj, a), traj.delta_t) for a in "xyz"}
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
         "window for rho[1,1]+ (bin 98 +- 2000) exceeds the frequency grid"),
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


def test_state_file_that_does_not_decode_exits_3(capsys, tmp_path):
    amp_path = tmp_path / "state.txt"
    amp_path.write_bytes(b"0 1.0 0.0\n\xff 1.0 0.0\n")
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, "reconstruct", "--state-file", str(amp_path), "--out-dir", str(out_dir)
    )
    assert code == 3
    body = stderr_error(err)
    assert body["type"] == "ValidationError"
    assert body["message"].startswith(f"{amp_path}: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["0 1 0\n-1 1 0\n", "0 0 0\n2 0 0\n"])
def test_an_amplitude_file_the_generator_refuses_exits_3_naming_the_file(
    capsys, tmp_path, text
):
    """A negative Fock index or all-zero amplitudes in a ``--state-file`` is
    a fault of the file: exit 3, the file named, no key, no --out-dir."""
    amp_path = tmp_path / "state.txt"
    amp_path.write_text(text)
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, "reconstruct", "--state-file", str(amp_path), "--out-dir", str(out_dir)
    )
    assert code == 3
    body = stderr_error(err)
    assert body["type"] == "ValidationError" and "key" not in body
    assert body["message"].startswith(f"{amp_path}: ")
    assert not out_dir.exists()


def test_a_state_file_reads_no_state_cutoff(capsys, tmp_path):
    """The cutoff of an amplitude file is its largest index, so a bad
    ``state.cutoff``, which only the generated kinds read, is not refused."""
    amp_path = tmp_path / "state.txt"
    amp_path.write_text("0 1 0\n1 1 0\n")
    cfg = write_config(tmp_path, "[state]\ncutoff = -1\n")
    code, _, _ = run(capsys, "reconstruct", "--config", cfg, "--state-file", str(amp_path),
                     "--out-dir", str(tmp_path / "out"))
    assert code == 0


def test_a_coherent_amplitude_beyond_the_float_range_exits_3(capsys, tmp_path):
    """Finite parts whose modulus overflows: the vacuum-underflow refusal
    (exit 3, no key), not an OverflowError traceback."""
    cfg = write_config(
        tmp_path, "[state]\nkind = coherent\nalpha_re = 1.7e308\nalpha_im = 1.7e308\n"
    )
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "reconstruct", "--config", cfg, "--out-dir", str(out_dir))
    assert code == 3
    assert "key" not in stderr_error(err)
    assert not out_dir.exists()


@pytest.mark.parametrize("state_file", ["missing.txt", "a_dir"])
def test_refused_state_file_leaves_no_new_out_dir(capsys, tmp_path, state_file):
    """A refusal raised by the command removes the --out-dir levels this
    call made, parents included, and keeps the ones that were there."""
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "kept").mkdir()
    for out_dir, survivor in (
        (tmp_path / "o" / "sub", tmp_path),
        (tmp_path / "kept" / "new" / "sub", tmp_path / "kept"),
    ):
        before = sorted(survivor.iterdir())
        code, _, err = run(
            capsys, "reconstruct", "--state-file", str(tmp_path / state_file),
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert stderr_error(err)["key"] == "state.file"
        assert sorted(survivor.iterdir()) == before


def test_config_that_does_not_decode_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(b"\xff\xfe[plan]\nn_t = 64\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "estimate-g", "--config", str(cfg), "--out-dir", str(out_dir))
    assert code == 2
    body = stderr_error(err)
    assert body["type"] == "ConfigError"
    assert body["message"].startswith(f"cannot parse {cfg}: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_dir_naming_a_file_exits_2(capsys, tmp_path, under):
    """An --out-dir that is a file, or lies under one, is refused before
    any artifact is written."""
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    code, _, err = run(capsys, "estimate-g", "--out-dir", str(afile / under))
    assert code == 2
    body = stderr_error(err)
    assert body["type"] == "ConfigError"
    assert body["key"] == "--out-dir"
    assert list(tmp_path.iterdir()) == [afile]
    assert afile.read_text() == "keep\n"


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
    """The estimator refuses the grid before any artifact is written, so
    the refused call removes the ``--out-dir`` it made."""
    cfg = write_config(tmp_path, "[plan]\nn_t = 128\n")
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, "reconstruct", "--config", cfg, "--out-dir", str(out_dir)
    )
    assert code == 4
    assert stderr_error(err)["type"] == "ResolvabilityError"
    assert not out_dir.exists()


def test_window_collisions_name_each_side_of_a_z_tone(capsys, tmp_path):
    """The +2 Omega_n and -2 Omega_n windows carry ``+``/``-`` tags, so a
    refused grid names which side collides and pairs no name with itself."""
    cfg = write_config(tmp_path, "[spectral]\nhalf_width = 300\n")
    code, _, err = run(
        capsys, "reconstruct", "--preset", "paper-coherent", "--config", cfg,
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 4
    error = stderr_error(err)
    assert error["type"] == "ResolvabilityError"
    pairs = [p.split(" / ") for p in error["message"].split(": ", 1)[1].split("; ")]
    assert ["rho[1,1]+", "rho[1,1]-"] in pairs and ["rho[0,0]", "rho[1,1]-"] in pairs
    assert all(a != b for a, b in pairs)


@pytest.mark.parametrize("preset", ["paper-coherent", "paper-state2"])
@pytest.mark.parametrize("n_m", ["inf", "1000"])
def test_paper_csv_artifacts_take_the_csv_kernel_alone(capsys, tmp_path, preset, n_m):
    """Every cell of the paper presets' trajectory and spectrum files is
    formatted by `spectral._fast_slots`, with no ``%`` fallback: the writer's
    speed rests on it."""
    cfg = write_config(tmp_path, f"[plan]\nn_m = {n_m}\n")
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys, "reconstruct", "--preset", preset, "--config", cfg, "--out-dir", str(out_dir)
    )
    assert code == 0
    paths = sorted(out_dir.glob("*.csv"))
    assert [p.name for p in paths] == [f"spectrum_{a}.csv" for a in "xyz"] + ["trajectory.csv"]
    for path in paths:
        rows = path.read_bytes().split(b"\r\n")[1:-1]
        cells = np.array([float(cell) for row in rows for cell in row.split(b",") if cell])
        _, fast = spectral._fast_slots(cells)
        assert fast.all(), (path.name, cells[~fast][:5])


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
        ("noise-sweep", "plan.t_total", "1e-310"),  # pi / delta_t overflows
        ("noise-sweep", "plan.t_total", "1e308"),  # the phase 2 g t overflows
        ("reconstruct", "plan.delta_t", "1e-312"),  # pi / delta_t overflows
        ("estimate-g", "plan.delta_t", "1e-310"),
        ("reconstruct", "plan.delta_t", "1e308"),  # n_t delta_t overflows
        ("dce", "plan.delta_t", "1e308"),
        ("reconstruct", "probe.g", "1e308"),  # delta_t = auto = 0.075 / g
        ("noise-sweep", "probe.g", "1e308"),
        ("reconstruct", "plan.delta_t", "-1"),
        ("reconstruct", "plan.delta_t", "nan"),
        ("noise-sweep", "plan.delta_t", "-1"),
        ("dce", "plan.delta_t", "0"),
        ("estimate-g", "plan.delta_t", "inf"),
        ("reconstruct", "plan.n_t", "0"),
        ("reconstruct", "plan.n_t", "1"),
        ("reconstruct", "plan.n_m", "0"),
        ("reconstruct", "plan.n_m", "9223372036854775808"),  # numpy draws int64 counts
        ("estimate-g", "plan.n_m", "10000000000000000000000"),
        ("dce", "plan.n_m", "9223372036854775808"),
        ("noise-sweep", "plan.n_m_list", "10 9223372036854775808"),
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
    assert not out_dir.exists()  # refused before any artifact


@pytest.mark.parametrize("command, text, key", [
    ("reconstruct", "[plan]\nn_m = 0\n", "plan.n_m"),
    ("noise-sweep", "[plan]\ngamma = -1\n", "plan.gamma"),
    ("dce", "[dce]\ntau_list = 1 -1\n", "dce.tau_list"),
    ("dce", "[dce]\ng_over_omega = 1e-310\n", "dce.g_over_omega"),
    ("reconstruct", "[state]\nn = 13\n", "state.n"),
    ("estimate-g", "[state]\nn = -1\n", "state.n"),
    ("reconstruct", "[state]\nkind = superposition\nterms = 1:1:0; 13:1:0\n", "state.terms"),
    ("noise-sweep", "[state]\nkind = superposition\nterms = 1:0:0\n", "state.terms"),
    ("reconstruct", "[state]\nkind = coherent\ncutoff = 0\n", "state.cutoff"),
    ("dce", "[spectral]\npopulation_floor = nan\n", "spectral.population_floor"),
])
def test_a_keyed_library_refusal_reads_its_key_then_the_library_text(
    capsys, tmp_path, command, text, key
):
    """The plan, the quench, the state generators and the population floor
    state their rules; the CLI keys a refusal by the INI option that set the
    argument and prefixes the library's message."""
    code, _, err = run(capsys, command, "--config", write_config(tmp_path, text),
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    body = stderr_error(err)
    assert body["key"] == key
    assert body["message"].startswith(f"{key}: ") and "must be" in body["message"]


def test_a_quench_phase_overflow_exits_3_without_a_key(capsys, tmp_path):
    """A ``dce.tau_list`` entry that passes its own rule but overflows the
    joint bound on the quench phases is the library's unkeyed refusal."""
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, "[dce]\ntau_list = 1e308\n")
    code, _, err = run(capsys, "dce", "--config", cfg, "--out-dir", str(out_dir))
    assert code == 3
    body = stderr_error(err)
    assert body["type"] == "ValidationError" and "key" not in body
    assert not out_dir.exists()


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
    assert not out_dir.exists()  # refused before any artifact


@pytest.mark.parametrize("preset, g", [
    pytest.param("paper-state1", "1e308", id="paper-state1"),
    pytest.param("paper-fig6-left", "1e308", id="paper-fig6-left"),
    pytest.param("paper-coherent", "1e305", id="paper-coherent-1e305"),
])
def test_phase_overflow_at_a_set_step_is_keyed_probe_g(capsys, tmp_path, preset, g):
    """With the step set by the preset, a huge coupling overflows the top
    phase 2 g sqrt(cutoff) t the simulator would compute, and ``probe.g``, the
    larger factor, takes the blame.  At 1e305 on the paper's coherent state,
    2 g t is finite but 2 g sqrt(12) t is not."""
    command = "noise-sweep" if "fig6" in preset else "reconstruct"
    cfg = write_config(tmp_path, f"[probe]\ng = {g}\n")
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, command, "--preset", preset, "--config", cfg, "--out-dir", str(out_dir)
    )
    assert code == 2
    assert stderr_error(err)["key"] == "probe.g"
    assert not out_dir.exists()


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


@pytest.mark.parametrize(
    "plan, key",
    [
        ("n_seeds = 100000000\nn_t_list = 128 1024\n", "plan.n_seeds"),
        ("n_seeds = 20\nn_t_list = 128 100000000\n", "plan.n_t_list"),
        ("n_seeds = 1024\nn_t_list = 16385\n", "plan.n_t_list"),
    ],
)
def test_noise_sweep_refuses_a_stack_beyond_its_byte_budget(
    capsys, tmp_path, monkeypatch, plan, key
):
    """A stack of ``n_seeds`` records of the longest ``n_t`` that would take
    more than `cli.BYTE_BUDGET` exits 2, keyed to the larger factor, before
    anything is sampled or allocated and with no directory left behind."""
    monkeypatch.setattr(cli, "sample_records", lambda *args: pytest.fail("sampled"))
    cfg = write_config(tmp_path, "[plan]\nn_m_list = 1000\n" + plan)
    out_dir = tmp_path / "out"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "noise-sweep", "--config", cfg, "--out-dir", str(out_dir))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    body = stderr_error(err)
    assert (body["type"], body["key"]) == ("ConfigError", key)
    assert str(cli.BYTE_BUDGET) in body["message"]
    assert peak < 2**20
    assert not out_dir.exists()


def test_noise_sweep_budget_admits_the_largest_stack_it_counts(capsys, tmp_path, monkeypatch):
    """Exactly `cli.BYTE_BUDGET` at 128 bytes a point is still run."""
    drawn = []

    def sample(rho, cfg, plan, n_records):
        drawn.append((n_records, plan.n_t))
        raise EstimationError("stop before the draw")

    monkeypatch.setattr(cli, "sample_records", sample)
    cfg = write_config(tmp_path, "[plan]\nn_m_list = 1000\nn_seeds = 1024\nn_t_list = 16384\n")
    code, _, _ = run(capsys, "noise-sweep", "--config", cfg, "--out-dir", str(tmp_path / "out"))
    assert (code, drawn) == (3, [(1024, 16384)])


@pytest.mark.parametrize(
    "command, overlay, amplitudes, key",
    [
        ("reconstruct", "[state]\ncutoff = 100000\n", None, "state.cutoff"),
        ("noise-sweep", "[state]\nkind = coherent\ncutoff = 100000\n", None, "state.cutoff"),
        ("dce", "[dce]\ncutoff = 4097\n", None, "dce.cutoff"),
        ("estimate-g", "[plan]\nn_t = 100000000\n", None, "plan.n_t"),
        ("reconstruct", "[plan]\nn_t = 30000000\n", None, "plan.n_t"),
        ("reconstruct", "", "100000000 1 0\n", "state.file"),
        ("reconstruct", "[spectral]\nn_max = 100000000000\n", None, "spectral.n_max"),
        ("reconstruct", "[spectral]\nn_max = 9223372036854775807\n", None, "spectral.n_max"),
        ("dce", "[spectral]\nn_max = 9223372036854775808\n", None, "spectral.n_max"),
    ],
)
def test_sizes_beyond_the_byte_budget_are_refused_before_allocating(
    capsys, tmp_path, command, overlay, amplitudes, key
):
    """A run whose density matrix, records, DCE Hamiltonian or comb would
    take more than `cli.BYTE_BUDGET` exits 2, keyed to the setting it grows with,
    before anything large is allocated and with no directory left behind;
    an amplitude file is refused before `superposition` builds its state."""
    argv = [command, "--config", write_config(tmp_path, overlay)]
    if amplitudes is not None:
        (tmp_path / "amps.txt").write_text(amplitudes)
        argv += ["--state-file", str(tmp_path / "amps.txt")]
    out_dir = tmp_path / "out"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv, "--out-dir", str(out_dir))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    body = stderr_error(err)
    assert (body["type"], body["key"]) == ("ConfigError", key)
    assert str(cli.BYTE_BUDGET) in body["message"]
    assert peak < 2**20
    assert not out_dir.exists()


@pytest.mark.parametrize("n_t", [2**62, 10**400], ids=["2**62", "10**400"])
def test_a_record_length_beyond_the_budget_is_keyed_before_any_float_arithmetic(
    capsys, tmp_path, n_t
):
    """An ``n_t`` past the byte budget, up to one no float can hold, exits 2
    keyed by the setting that gave it, with no directory left behind: the
    budget is checked before the step, the grid or the plan."""
    runs = [(command, f"[plan]\nn_t = {n_t}\n", "plan.n_t")
            for command in ("reconstruct", "dce", "estimate-g")]
    runs.append(("noise-sweep", f"[plan]\nn_t_list = 64 {n_t}\n", "plan.n_t_list"))
    for command, overlay, key in runs:
        out_dir = tmp_path / command
        code, _, err = run(capsys, command, "--config", write_config(tmp_path, overlay),
                           "--out-dir", str(out_dir))
        body = stderr_error(err)
        assert (code, body["type"], body["key"]) == (2, "ConfigError", key), command
        assert str(cli.BYTE_BUDGET) in body["message"]
        assert not out_dir.exists()


def clear_process_memos() -> None:
    """Empty every memo the library keeps across calls."""
    for memo in (spectral._dft_grid, spectral._lead_slots, rec_mod._z_plan, rec_mod._xy_plan,
                 fieldtomo.probe._trig_rows):
        memo.cache_clear()


def library_memos() -> dict:
    """Every `functools` cache of a library module, by ``module.name``."""
    memos = {}
    for info in pkgutil.iter_modules(fieldtomo.__path__):
        module = importlib.import_module(f"fieldtomo.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = obj
    return memos


def test_clear_process_memos_empties_every_library_memo(monkeypatch):
    """Every `functools` cache of a library module is emptied by
    `clear_process_memos`, but for the constant tables, which take no input,
    so a new memo cannot escape the warm/cold byte test below."""
    memos = library_memos()
    cleared = []
    for name, memo in memos.items():
        monkeypatch.setattr(memo, "cache_clear", functools.partial(cleared.append, name))
    clear_process_memos()
    assert "spectral._dft_grid" in cleared
    assert sorted(memos.keys() - set(cleared)) == ["spectral._kernel_tables"]


def test_a_coupling_scan_op_leaves_only_the_dft_grid_memoized(capsys, tmp_path):
    """The coupling search of one ``estimate-g`` op on a finite-shot z record
    reads thousands of window sets once each, cold: after it every library
    memo but the DFT grid's, the simulator's trig rows of the record's grid
    and the constant tables is empty."""
    cfg = write_config(tmp_path, "[state]\nkind = fock\nn = 1\ncutoff = 8\n"
                                 "[probe]\ng = 1.1\n[plan]\nn_m = 1000\n")
    clear_process_memos()
    assert run(capsys, "estimate-g", "--config", cfg, "--out-dir", str(tmp_path / "out"))[0] == 0
    filled = {name for name, memo in library_memos().items() if memo.cache_info().currsize}
    assert "spectral._dft_grid" in filled
    assert filled <= {"spectral._dft_grid", "probe._trig_rows", "spectral._kernel_tables"}


def test_warm_runs_write_the_bytes_of_cold_runs(capsys, tmp_path):
    """Runs that find the process-wide memos filled by earlier runs, of
    their own grids or of others, write what runs with the memos emptied
    write."""
    runs = [("reconstruct", "--preset", "paper-coherent"),
            ("noise-sweep", "--preset", "paper-fig6-right")]
    others = [("estimate-g", "--preset", "paper-state1"), ("dce", "--preset", "paper-dce")]
    clear_process_memos()
    for label, batch in (("cold", runs), ("warm", others + runs)):
        for argv in batch:
            out_dir = tmp_path / label / argv[0]
            assert run(capsys, *argv, "--out-dir", str(out_dir))[0] == 0
    for argv in runs:
        cold, warm = (tmp_path / label / argv[0] for label in ("cold", "warm"))
        names = sorted(p.name for p in cold.iterdir())
        assert names == sorted(p.name for p in warm.iterdir())
        for name in names:
            assert (cold / name).read_bytes() == (warm / name).read_bytes(), (argv, name)


def test_a_second_paper_tomo_cycle_builds_no_estimator_plan(capsys, tmp_path):
    """The ops of the benchmark's `paper-tomo` cycle, run again at another
    coherent state and quench time, find every estimator plan of their
    grids and combs built by the first cycle."""
    memos = (rec_mod._z_plan, rec_mod._xy_plan)
    for cycle, (alpha, tau) in enumerate([("0.3", "0.5"), ("-0.6", "1.5")]):
        coherent, dce = tmp_path / f"coherent{cycle}.ini", tmp_path / f"dce{cycle}.ini"
        coherent.write_text(f"[state]\nalpha_re = {alpha}\n")
        dce.write_text(f"[dce]\ntau = {tau}\n")
        misses = [memo.cache_info().misses for memo in memos]
        for k, argv in enumerate([("reconstruct", "--preset", "paper-state1"),
                                  ("reconstruct", "--preset", "paper-state2"),
                                  ("reconstruct", "--preset", "paper-coherent",
                                   "--config", str(coherent)),
                                  ("dce", "--preset", "paper-dce", "--config", str(dce))]):
            assert run(capsys, *argv, "--out-dir", str(tmp_path / f"{cycle}-{k}"))[0] == 0
    assert [memo.cache_info().misses for memo in memos] == misses


@pytest.mark.parametrize("command", ["reconstruct", "dce"])
def test_a_thousand_levels_on_one_bin_are_refused_in_milliseconds(capsys, tmp_path, command):
    """At ``g = 5e-324`` the 2001 z windows of a 1000-level comb all sit on
    bin 0: two million colliding pairs, counted and not built, so the
    refusal (exit 4) is short and takes little memory."""
    cfg = write_config(tmp_path, "[spectral]\nn_max = 1_000\nhalf_width = 1\n"
                                 "[probe]\ng = 5e-324\n[plan]\nn_t = 64\ndelta_t = 0.3\n")
    tracemalloc.start()
    try:
        code, _, err = run(capsys, command, "--config", cfg, "--out-dir", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    body = stderr_error(err)
    assert body["type"] == "ResolvabilityError"
    assert "; 2001000 pairs, 10 named): " in body["message"] and len(body["message"]) < 2000
    assert peak < 2**25
    assert not (tmp_path / "out").exists()


def test_noise_sweep_with_a_non_positive_snr_exits_3(capsys, tmp_path):
    """A Fock state n = 2 benchmarked on the first Rabi harmonic gives a
    negative mean S/xi in every cell, and the snr_vs_n_t slope fits its
    logarithm: the sweep is refused, naming the cell, with no warning and
    before any write."""
    cfg = write_config(
        tmp_path,
        "[state]\nkind = fock\nn = 2\n"
        "[plan]\nn_m_list = 100 1000\nn_t_list = 128 256\nn_seeds = 3\n",
    )
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "noise-sweep", "--config", cfg, "--out-dir", str(out_dir))
    assert code == 3
    body = stderr_error(err)
    assert body["type"] == "EstimationError"
    assert "at n_m = 100, n_t = 128 is not > 0" in body["message"]
    assert not out_dir.exists()


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
@example(  # one shot: the mean S/xi of the 16-point cell is negative
    n_t_list=[16, 17], n_m_list=[1], n_seeds=1, t_total=10.0, half_width=1, gamma=0.02,
    seed=9136,
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
            rho, 1.0, n_t_list, n_m_list, n_seeds, seed, 0.075, t_total,
            half_width, gamma,
        )
    except FieldTomoError as exc:
        want = exc.exit_code
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
FUZZ_TOKENS = ("0", "-1", "nan", "inf", "-inf", "", "abc", "1e308", "1e-310")
# Tiny grids on which every command runs to completion in milliseconds.
HOSTILE_BASE = {
    "plan": {"n_t": "64", "n_t_list": "32 64", "n_seeds": "2", "n_m_list": "10 100",
             "delta_t": "0.3"},
    "state": {"cutoff": "6"},
    "spectral": {"n_max": "2", "half_width": "1"},
    "dce": {"cutoff": "8", "tau": "1"},
}
HOSTILE_VALUES = (
    "nan", "inf", "-inf", "-0", "-1", "1e308", "5e-324", "abc", "0x10", "1_000",
    "9223372036854775808", "10000000000000000000000", "",
    "1:1", "1:nan:0; 2:1:0", "7:1:0", "10 abc", "-1 10", "10, 9223372036854775808",
    "1" + "0" * 400,
)
# ``1_000`` parses as 1000: a DCE cutoff that size is admitted but takes seconds.
SMALL_ONLY = {"dce.cutoff"}
COMMANDS = ("reconstruct", "noise-sweep", "dce", "estimate-g")
# Only `dce` reads [dce], and it builds no [state].
SECTION_COMMANDS = {"state": ("reconstruct", "noise-sweep", "estimate-g"), "dce": ("dce",)}
# The state.kind that reads each of these keys; under the default kind
# (fock) a fuzzed value of theirs would never be read.
READING_KIND = {
    "alpha_re": "coherent",
    "alpha_im": "coherent",
    "terms": "superposition",
    "file": "file",
}


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
    for base in (FUZZ_BASE, HOSTILE_BASE):
        assert [run_overlay(base, command) for command in COMMANDS] == [0] * 4


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
    if section == "state" and option in READING_KIND:
        overlay["state"]["kind"] = READING_KIND[option]
    assert run_overlay(overlay, command) in (0, 2, 3, 4)


@pytest.mark.parametrize("command", SECTION_COMMANDS["state"])
@pytest.mark.parametrize("token", FUZZ_TOKENS)
@pytest.mark.parametrize("terms", ["1:{0}:0; 2:{0}:0", "{0}:1:0"])
def test_state_terms_fuzz_never_exits_1(terms, token, command):
    """Each fuzz token as a state.terms amplitude and as a state.terms index."""
    overlay = {name: dict(values) for name, values in FUZZ_BASE.items()}
    overlay["state"] = {"kind": "superposition", "terms": terms.format(token)}
    assert run_overlay(overlay, command) in (0, 2, 3, 4)


ARTIFACTS = {
    "reconstruct": ["peaks.json", "reconstruction.json", "spectrum_x.csv", "spectrum_y.csv",
                    "spectrum_z.csv", "trajectory.csv"],
    "noise-sweep": ["noise_sweep.csv", "noise_sweep_slopes.json"],
    "dce": ["dce.json"],
    "estimate-g": ["g_estimate.json"],
}


def hostile_values(key: str):
    return st.sampled_from([v for v in HOSTILE_VALUES if key not in SMALL_ONLY or v != "1_000"])


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    drawn=st.lists(
        st.sampled_from([f"{s}.{o}" for s, opts in DEFAULTS.items() for o in opts]),
        min_size=1, max_size=3, unique=True,
    ).flatmap(lambda keys: st.fixed_dictionaries({k: hostile_values(k) for k in keys})),
)
@example(command="reconstruct", drawn={"plan.n_m": "9223372036854775808"})
@example(command="noise-sweep", drawn={"plan.n_m_list": "10000000000000000000000"})
@example(command="reconstruct", drawn={"spectral.n_max": "9223372036854775808"})
@example(command="dce", drawn={"spectral.n_max": "10000000000000000000000"})
@example(command="reconstruct", drawn={"plan.n_t": "1" + "0" * 400})
@example(command="noise-sweep", drawn={"plan.n_t_list": "1" + "0" * 400})
@example(command="reconstruct", drawn={"state.file": "1" + "0" * 400})  # a name too long
def test_hostile_configs_exit_typed_and_clean(command, drawn):
    """One to three INI keys set to hostile values on tiny grids: every run
    exits 0, 2, 3 or 4 without a warning; a refusal leaves no ``--out-dir``
    and a success writes every artifact of its command."""
    overlay = {name: dict(values) for name, values in HOSTILE_BASE.items()}
    for key, value in drawn.items():
        section, option = key.split(".")
        overlay.setdefault(section, {})[option] = value
        if section == "state" and option in READING_KIND and "state.kind" not in drawn:
            overlay["state"]["kind"] = READING_KIND[option]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp, "out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_overlay(overlay, command, str(out_dir))
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert sorted(p.name for p in out_dir.iterdir()) == ARTIFACTS[command]
        else:
            assert not out_dir.exists()


@pytest.mark.parametrize("text", ["[state]\nn = 0\n", "[probe]\ng = 1e200\n"])
def test_estimate_g_without_a_comb_off_dc_exits_3(capsys, tmp_path, text):
    """Fock |0> has no tone at all; at g = 1e200 one bin is wider than every
    candidate comb of the search range, which all fall in the DC window."""
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, text)
    code, _, err = run(capsys, "estimate-g", "--config", cfg, "--out-dir", str(out_dir))
    assert code == 3
    assert stderr_error(err)["type"] == "EstimationError"
    assert not (out_dir / "g_estimate.json").exists()
