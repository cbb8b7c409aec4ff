"""Command-line front end.

One parser takes the command and the shared options, in any order:

* ``reconstruct``  -- simulate one protocol run and reconstruct the state
* ``noise-sweep``  -- finite-shot scaling study on a grid of (n_m, n_t)
* ``dce``          -- quench-generated states, conditioning, tomography
* ``estimate-g``   -- locate the coupling from a z spectrum alone

Configuration is INI (sections [state], [probe], [plan], [spectral],
[dce]); a ``--preset`` fills in a named parameter bundle and an optional
``--config`` file overlays it, followed by individual flags.  All
outputs are byte-deterministic for a fixed configuration: fixed float
formatting, sorted JSON keys, no timestamps.

Exit codes: 0 success, 2 unusable configuration, 3 violated physics or
data contract, 4 unresolvable spectral windows.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import dce as dce_mod
from . import reconstruct as rec_mod
from .exceptions import (
    ConfigError,
    DegenerateBranchError,
    EstimationError,
    FieldTomoError,
    exit_code_for,
)
from .fock import FieldState, density_from_pure, fidelity
from .measurement import (
    MeasurementPlan,
    sample_records,
    sample_trajectory,
    write_trajectory_csv,
)
from .probe import ProbeConfig
from .spectral import comb_frequencies, dft, max_half_width, write_spectrum_csv
from .states import coherent_state, load_amplitudes

__all__ = ["main"]

#: A noise floor at or below this is rounding, not shot noise: a record
#: without sampling noise leaves ~1e-18.
NOISELESS_FLOOR = 1e-12


DEFAULTS: dict[str, dict[str, str]] = {
    "state": {
        "kind": "fock",            # fock | superposition | coherent | file
        "n": "1",                  # fock index
        "terms": "",               # "n:re:im; n:re:im; ..."
        "alpha_re": "0.35",
        "alpha_im": "0.6062177826491071",
        "cutoff": "12",
        "file": "",
    },
    "probe": {
        "g": "1.0",
    },
    "plan": {
        "delta_t": "auto",         # auto = 0.075 / g
        "n_t": "4096",
        "n_m": "inf",              # inf = exact expectation values
        "axes": "xyz",
        "gamma": "0.0",
        "seed": "12345",
        # noise-sweep grids (space-separated lists)
        "n_m_list": "10 30 100 300 1000",
        "n_t_list": "128 1024",
        "n_seeds": "20",
        "t_total": "",             # set for fixed-duration sweeps
    },
    "spectral": {
        "half_width": "4",
        "n_max": "8",
        "population_floor": "1e-3",
        "g_min": "0.5",
        "g_max": "2.0",
    },
    "dce": {
        "omega": "1.0",
        "g_over_omega": "0.5",
        "tau": "auto",             # auto = pi / (2 g)
        "tau_list": "",            # extra quench durations, tabulated before tau
        "cutoff": "31",
    },
}

#: ready-made parameter bundles, keyed by preset id
PRESETS: dict[str, dict[str, dict[str, str]]] = {
    "paper-state1": {
        "state": {
            "kind": "superposition",
            "terms": "1:0.7071067811865476:0; 2:0.7071067811865476:0",
            "cutoff": "8",
        },
        "plan": {"delta_t": "0.075", "n_t": "4096", "n_m": "inf"},
    },
    "paper-state2": {
        "state": {
            "kind": "superposition",
            "terms": "1:0.7071067811865476:0; 2:0.5:0.5",
            "cutoff": "8",
        },
        "plan": {"delta_t": "0.075", "n_t": "4096", "n_m": "inf"},
    },
    "paper-coherent": {
        "state": {
            "kind": "coherent",
            "alpha_re": "0.35",
            "alpha_im": "0.6062177826491071",
            "cutoff": "12",
        },
        "plan": {"delta_t": "0.075", "n_t": "4096", "n_m": "inf"},
    },
    "paper-fig6-left": {
        "state": {"kind": "fock", "n": "1", "cutoff": "8"},
        "plan": {
            "axes": "z",
            "n_m_list": "10 30 100 300 1000",
            "n_t_list": "128 1024",
            "n_seeds": "20",
            "t_total": "62.83185307179586",  # 20 pi / Omega_1 at g = 1
        },
    },
    "paper-fig6-right": {
        "state": {"kind": "fock", "n": "1", "cutoff": "8"},
        "plan": {
            "axes": "z",
            "delta_t": "0.075",
            "n_m_list": "1000",
            "n_t_list": "128 256 512 1024",
            "n_seeds": "20",
            "t_total": "",
        },
    },
    "paper-dce": {
        "dce": {
            "omega": "1.0",
            "g_over_omega": "0.5",
            "tau": "auto",
            "cutoff": "31",
        },
        "plan": {"delta_t": "0.075", "n_t": "4096", "n_m": "inf"},
    },
}


# ---------------------------------------------------------------- config


def _merged_config(args) -> dict[str, dict[str, str]]:
    cp = {section: dict(options) for section, options in DEFAULTS.items()}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; have: {', '.join(sorted(PRESETS))}"
            )
        for section, options in PRESETS[args.preset].items():
            cp[section].update(options)
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        # No section header holds a newline, so [DEFAULT] is an ordinary
        # section here, refused as unknown, and nothing folds into the others.
        user = configparser.ConfigParser(interpolation=None, default_section="\n")
        try:
            user.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        for section in user.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]", key=section)
            for option, value in user.items(section):
                if option not in DEFAULTS[section]:
                    raise ConfigError(
                        f"unknown option {option!r} in section [{section}]",
                        key=f"{section}.{option}",
                    )
                cp[section][option] = value
    if args.seed is not None:
        cp["plan"]["seed"] = str(args.seed)
    if args.state_file:
        cp["state"].update(kind="file", file=args.state_file)
    return cp


def _get_float(cp, section: str, option: str) -> float:
    raw = cp[section][option]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{option} must be a number, got {raw!r}",
            key=f"{section}.{option}",
        ) from None


def _get_int(cp, section: str, option: str) -> int:
    raw = cp[section][option]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{option} must be an integer, got {raw!r}",
            key=f"{section}.{option}",
        ) from None


def _checked(key: str, value, ok: bool, rule: str):
    """``value`` if ``ok``, else a `ConfigError` keyed ``key`` saying that
    it must be ``rule``."""
    if not ok:
        raise ConfigError(f"{key} must be {rule}, got {value!r}", key=key)
    return value


def _get_finite(cp, section: str, option: str) -> float:
    value = _get_float(cp, section, option)
    return _checked(f"{section}.{option}", value, math.isfinite(value), "finite")


def _get_positive(cp, section: str, option: str) -> float:
    value = _get_float(cp, section, option)
    return _checked(
        f"{section}.{option}", value, value > 0 and math.isfinite(value), "finite and > 0"
    )


def _get_int_at_least(cp, section: str, option: str, low: int) -> int:
    value = _get_int(cp, section, option)
    return _checked(f"{section}.{option}", value, value >= low, f">= {low}")


def _get_population_floor(cp) -> float:
    floor = _get_float(cp, "spectral", "population_floor")
    ok = floor >= 0.0 and math.isfinite(floor)
    return _checked("spectral.population_floor", floor, ok, "finite and >= 0")


def _get_list(cp, section: str, option: str, cast=float) -> list:
    """Space- or comma-separated values; an empty value is an empty list."""
    raw = cp[section][option].replace(",", " ")
    try:
        return [cast(tok) for tok in raw.split()]
    except ValueError:
        what = "integers" if cast is int else "numbers"
        raise ConfigError(
            f"{section}.{option} must be a list of {what}, got {raw!r}",
            key=f"{section}.{option}",
        ) from None


def _get_int_list(cp, section: str, option: str) -> list[int]:
    values = _get_list(cp, section, option, int)
    if not values:
        raise ConfigError(f"{section}.{option} is empty", key=f"{section}.{option}")
    return values


def _get_n_m(cp) -> Optional[int]:
    raw = cp["plan"]["n_m"].strip().lower()
    if raw in ("inf", "infinite", "none", ""):
        return None
    try:
        n_m = int(raw)
    except ValueError:
        raise ConfigError(
            f"plan.n_m must be an integer or 'inf', got {raw!r}", key="plan.n_m"
        ) from None
    return _checked("plan.n_m", n_m, n_m >= 1, ">= 1 or 'inf'")


def _get_axes(cp) -> tuple[str, ...]:
    raw = cp["plan"]["axes"].replace(",", " ").replace(" ", "")
    axes = tuple(dict.fromkeys(raw))  # dedupe, keep order
    if not axes or any(a not in "xyz" for a in axes):
        raise ConfigError(f"plan.axes must combine x, y, z; got {raw!r}", key="plan.axes")
    return axes


def _get_tomography_axes(cp) -> tuple[str, ...]:
    axes = _get_axes(cp)
    if "z" not in axes:
        raise ConfigError("plan.axes must include z for reconstruction", key="plan.axes")
    if ("x" in axes) != ("y" in axes):
        raise ConfigError("plan.axes must hold x and y together or neither", key="plan.axes")
    return axes


def _get_delta_t(cp, g: float) -> float:
    raw = cp["plan"]["delta_t"].strip().lower()
    if raw == "auto":
        return 0.075 / g
    return _get_positive(cp, "plan", "delta_t")


def _parse_terms(raw: str) -> list[tuple[int, complex]]:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(":")]
        if len(parts) != 3:
            raise ConfigError(
                f"state.terms entries must be n:re:im, got {chunk!r}", key="state.terms"
            )
        try:
            out.append((int(parts[0]), complex(float(parts[1]), float(parts[2]))))
        except ValueError:
            raise ConfigError(
                f"cannot parse state.terms entry {chunk!r}", key="state.terms"
            ) from None
    return out


def _build_state(cp) -> FieldState:
    from .states import superposition

    kind = cp["state"]["kind"].strip().lower()
    cutoff = _get_int_at_least(cp, "state", "cutoff", 1)
    if kind == "fock":
        from .fock import fock_state

        n = _get_int(cp, "state", "n")
        _checked("state.n", n, 0 <= n <= cutoff, f"in 0..state.cutoff = {cutoff}")
        return fock_state(n, cutoff)
    if kind == "superposition":
        terms = _parse_terms(cp["state"]["terms"])
        if not terms:
            raise ConfigError("state.terms is empty", key="state.terms")
        rule = f"Fock indices in 0..state.cutoff = {cutoff}"
        for n, _ in terms:
            _checked("state.terms", n, 0 <= n <= cutoff, rule)
        return superposition(terms, cutoff)
    if kind == "coherent":
        alpha = complex(
            _get_finite(cp, "state", "alpha_re"), _get_finite(cp, "state", "alpha_im")
        )
        return coherent_state(alpha, cutoff)
    if kind == "file":
        path = cp["state"]["file"].strip()
        if not path:
            raise ConfigError("state.kind = file but state.file is empty", key="state.file")
        if not Path(path).is_file():
            raise ConfigError(f"state file not found: {path}", key="state.file")
        return load_amplitudes(path)
    raise ConfigError(f"unknown state.kind {kind!r}", key="state.kind")


def _get_plan(cp, g: float, axes=None, n_t=None, delta_t=None, n_m="use-config", seed=None):
    """The `MeasurementPlan` of ``cp``, or of the given values.  Every value
    read from ``cp`` is checked here, so a bad one is a `ConfigError` keyed
    by its INI key; ``n_t >= 2``, since a spectrum needs two bins."""
    if n_t is None:
        n_t = _get_int_at_least(cp, "plan", "n_t", 2)
    gamma = _get_float(cp, "plan", "gamma")
    _checked("plan.gamma", gamma, gamma >= 0 and math.isfinite(gamma), "finite and >= 0")
    return MeasurementPlan(
        delta_t=_get_delta_t(cp, g) if delta_t is None else delta_t,
        n_t=n_t,
        n_m=_get_n_m(cp) if n_m == "use-config" else n_m,
        axes=_get_axes(cp) if axes is None else axes,
        gamma=gamma,
        seed=_get_int_at_least(cp, "plan", "seed", 0) if seed is None else seed,
    )


# ---------------------------------------------------------------- output


def _dump_json(payload, path: Path) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise EstimationError(
            f"{path.name} would hold a non-finite number: {exc}"
        ) from None
    path.write_text(text + "\n")


def _complex_pairs(values) -> Optional[list[dict]]:
    if values is None:
        return None
    return [{"re": float(v.real), "im": float(v.imag)} for v in values]


def _result_payload(result: rec_mod.ReconstructionResult) -> dict:
    payload = {
        "populations": [float(p) for p in result.populations],
        "coherences": _complex_pairs(result.coherences),
        "phases": [float(p) for p in result.phases],
        "chain_breaks": list(result.chain_breaks),
        "trace_deficit": result.trace_deficit,
        "diagnostics": {
            "partial": result.partial,
            "phase_defined": [bool(b) for b in result.phase_defined],
            "warnings": list(result.warnings),
            **result.diagnostics,
        },
    }
    if result.fidelity_vs_reference is not None:
        payload["fidelity_vs_reference"] = result.fidelity_vs_reference
    return payload


def _peaks_payload(peaks) -> list[dict]:
    return [
        {
            "label": p.label,
            "family": p.family,
            "center": p.center,
            "area_re": float(p.area.real),
            "area_im": float(p.area.imag),
            "snr": None if p.snr is None else float(p.snr),
        }
        for p in peaks
    ]


# -------------------------------------------------------------- commands


def cmd_reconstruct(cp, out_dir: Path) -> int:
    state = _build_state(cp)
    g = _get_positive(cp, "probe", "g")
    cfg = ProbeConfig(g=g)
    plan = _get_plan(cp, g, axes=_get_tomography_axes(cp))
    n_max = _get_int_at_least(cp, "spectral", "n_max", 1)
    half_width = _get_int_at_least(cp, "spectral", "half_width", 0)
    floor = _get_population_floor(cp)
    rho = density_from_pure(state)
    traj = sample_trajectory(rho, cfg, plan)
    write_trajectory_csv(traj, out_dir / "trajectory.csv")

    spectra = {}
    for axis in traj.axes():
        spectra[axis] = dft(getattr(traj, axis), traj.times)
        write_spectrum_csv(spectra[axis], out_dir / f"spectrum_{axis}.csv")

    result = rec_mod.reconstruct_from_spectra(
        g,
        spectra["z"],
        spectra.get("x"),
        spectra.get("y"),
        n_max=n_max,
        half_width=half_width,
        population_floor=floor,
        reference=state,
    )
    _dump_json(_peaks_payload(result.peaks), out_dir / "peaks.json")
    _dump_json(_result_payload(result), out_dir / "reconstruction.json")
    print(f"wrote {out_dir / 'reconstruction.json'}")
    return 0


def _sweep_points(cp, g: float) -> tuple[list[int], dict[int, float]]:
    """The sweep grid, checked before any sampling: the ``n_m`` values, each
    ``>= 1``, and the step ``delta_t`` of each ``n_t``, ascending.  Every
    ``n_t >= 2`` (a spectrum needs two bins).  When set, ``t_total`` is
    finite and ``> 0``, and every step ``t_total / n_t`` is ``> 0`` (it can
    underflow); otherwise every ``n_t`` takes ``plan.delta_t``."""
    n_m_list = _get_int_list(cp, "plan", "n_m_list")
    n_t_list = _get_int_list(cp, "plan", "n_t_list")
    has_t = bool(cp["plan"]["t_total"].strip())
    t_total = _get_positive(cp, "plan", "t_total") if has_t else None
    for key, values, low in (("n_m_list", n_m_list, 1), ("n_t_list", n_t_list, 2)):
        _checked(f"plan.{key}", min(values), min(values) >= low, f">= {low} in every entry")
    n_ts = sorted(set(n_t_list))
    if t_total is None:
        return n_m_list, dict.fromkeys(n_ts, _get_delta_t(cp, g))
    # The longest record takes the smallest step, the first to underflow.
    rule = f"large enough that t_total / {n_ts[-1]} > 0"
    _checked("plan.t_total", t_total, t_total / n_ts[-1] > 0.0, rule)
    return n_m_list, {n_t: t_total / n_t for n_t in n_ts}


def cmd_noise_sweep(cp, out_dir: Path) -> int:
    """Scaling of the spectral noise floor with shots and record length.

    Benchmarks on the first Rabi harmonic: the signal size S is the
    leakage-corrected rho_11 estimate and the floor excludes only the DC
    and +-2 Omega_1 windows.  Each ``(n_t, n_m)`` cell is one batch of
    ``n_seeds`` z records, seeds ``plan.seed + k``, on a leading record
    axis: one DFT, one leakage solve and one residual floor per cell, each
    record's numbers bit for bit those of the record run alone.  The ideal
    mean and the shots are drawn once per ``(delta_t, n_m)``, at the
    longest ``n_t`` of that ``delta_t``; a shorter cell reads the first
    ``n_t`` points of that stack, which are its records by the sampler's
    prefix stability.  Without ``t_total`` every ``n_t`` shares one
    ``delta_t``; with it, each ``n_t`` is its own stack.  Rows run ``n_t``
    then ``n_m``, both ascending.  The cell's xi and S/xi are the means
    over its records.
    """
    state = _build_state(cp)
    g = _get_positive(cp, "probe", "g")
    cfg = ProbeConfig(g=g)
    rho = density_from_pure(state)
    base_seed = _get_int_at_least(cp, "plan", "seed", 0)
    n_seeds = _get_int_at_least(cp, "plan", "n_seeds", 1)
    half_width = _get_int_at_least(cp, "spectral", "half_width", 0)
    n_m_list, delta_ts = _sweep_points(cp, g)
    freqs = comb_frequencies(g, 1)
    centers = [w.center for w in rec_mod._z_windows(freqs)]

    # The longest cell of a step pops its stack, so the stack is freed there.
    longest = {delta_t: n_t for n_t, delta_t in delta_ts.items()}
    stacks: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}
    rows = []
    for n_t, delta_t in delta_ts.items():
        for n_m in sorted(set(n_m_list)):
            key = (delta_t, n_m)
            if key not in stacks:
                plan = _get_plan(
                    cp, g, axes=("z",), n_t=longest[delta_t], delta_t=delta_t, n_m=n_m,
                    seed=base_seed,
                )
                stacks[key] = (plan.times(), sample_records(rho, cfg, plan, n_seeds)["z"])
            times, records = stacks.pop(key) if n_t == longest[delta_t] else stacks[key]
            spec = dft(records[:, :n_t], times[:n_t])
            hw = min(half_width, max_half_width(centers, spec))
            ests = rec_mod.populations_from_z(spec, freqs, hw)
            xi = rec_mod._z_floor(spec, ests, freqs, hw)
            noiseless = xi <= NOISELESS_FLOOR
            if noiseless.any():
                raise EstimationError(
                    f"noise floor {xi[noiseless][0]:.3e} at n_m = {n_m}, n_t = {n_t} "
                    "is rounding: the records carry no shot noise to scale"
                )
            rows.append(
                {
                    "n_m": n_m,
                    "n_t": n_t,
                    "xi": float(np.mean(xi)),
                    "snr": float(np.mean(ests[:, 1] / xi)),
                }
            )

    csv_path = out_dir / "noise_sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("n_m,n_t,xi,snr\n")
        for row in rows:
            fh.write(
                f"{row['n_m']},{row['n_t']},"
                f"{row['xi']:.17g},{row['snr']:.17g}\n"
            )

    def fit(pairs):
        if len(pairs) < 2:
            return None
        x = np.log10([p[0] for p in pairs])
        y = np.log10([p[1] for p in pairs])
        return float(np.polyfit(x, y, 1)[0])

    slopes = {"xi_vs_n_m": {}, "snr_vs_n_t": {}}
    for n_t in sorted(set(r["n_t"] for r in rows)):
        pts = [(r["n_m"], r["xi"]) for r in rows if r["n_t"] == n_t]
        slope = fit(pts)
        if slope is not None:
            slopes["xi_vs_n_m"][str(n_t)] = slope
    for n_m in sorted(set(r["n_m"] for r in rows)):
        pts = [(r["n_t"], r["snr"]) for r in rows if r["n_m"] == n_m]
        slope = fit(pts)
        if slope is not None:
            slopes["snr_vs_n_t"][str(n_m)] = slope
    _dump_json(slopes, out_dir / "noise_sweep_slopes.json")
    print(f"wrote {csv_path}")
    return 0


def cmd_dce(cp, out_dir: Path) -> int:
    g_probe = _get_positive(cp, "probe", "g")
    probe_cfg = ProbeConfig(g=g_probe)
    plan = _get_plan(cp, g_probe, axes=_get_tomography_axes(cp))
    n_max = _get_int_at_least(cp, "spectral", "n_max", 1)
    half_width = _get_int_at_least(cp, "spectral", "half_width", 0)
    floor = _get_population_floor(cp)

    omega = _get_positive(cp, "dce", "omega")
    g_over_omega = _get_positive(cp, "dce", "g_over_omega")
    cutoff = _get_int_at_least(cp, "dce", "cutoff", 2)
    raw_tau = cp["dce"]["tau"].strip().lower()
    if raw_tau == "auto":
        g_quench = g_over_omega * omega
        # Both factors are finite and > 0, but their product can underflow
        # to 0 or overflow to inf, and a tiny one gives an infinite tau.
        tau_main = math.pi / (2.0 * g_quench) if g_quench > 0.0 else math.inf
        if not 0.0 < tau_main < math.inf:
            raise ConfigError(
                f"dce.tau = auto gives tau = pi / (2 dce.g_over_omega dce.omega) = "
                f"{tau_main!r}, not finite and > 0",
                key="dce.g_over_omega",
            )
    else:
        tau_main = _get_positive(cp, "dce", "tau")
    tau_list = _get_list(cp, "dce", "tau_list")
    for tau in tau_list:
        ok = tau > 0 and math.isfinite(tau)
        _checked("dce.tau_list", tau, ok, "finite and > 0 in every entry")
    points = []
    # The tomography point comes last, after the tau_list entries, so the
    # loop leaves its conditional branches in `pair`.
    for tau in tau_list + [tau_main]:
        cfg = dce_mod.DceConfig(g_over_omega=g_over_omega, tau=tau, omega=omega, cutoff=cutoff)
        joint = dce_mod.evolve_rabi(cfg)
        pair = dce_mod.condition_on_qubit(joint)
        points.append(dce_mod.dce_record(cfg, joint, pair))

    tomo: dict = {"tau": tau_main, "warnings": []}
    if pair.phi_plus is None or pair.phi_minus is None:
        raise DegenerateBranchError("a |+-> conditional branch has zero weight")

    rec_states = {}
    for label, phi in (("plus", pair.phi_plus), ("minus", pair.phi_minus)):
        traj = sample_trajectory(density_from_pure(phi), probe_cfg, plan)
        result = rec_mod.reconstruct_state(
            traj,
            g_probe,
            n_max=n_max,
            half_width=half_width,
            population_floor=floor,
            reference=phi,
        )
        rec_states[label] = result.state
        tomo[f"fidelity_phi_{label}"] = result.fidelity_vs_reference
        tomo["warnings"].extend(result.warnings)

    try:
        if None in rec_states.values():
            raise DegenerateBranchError(
                "a reconstructed |+-> branch has no level above spectral.population_floor"
            )
        rec_g, rec_e = dce_mod.recombine_branches(
            rec_states["plus"], rec_states["minus"], pair.c_g, pair.c_e
        )
    except DegenerateBranchError as exc:
        tomo["recombined"] = None
        tomo["warnings"].append(f"recombination skipped: {exc}")
    else:
        tomo["recombined"] = {
            "fidelity_phi_g": None if pair.phi_g is None else fidelity(rec_g, pair.phi_g),
            "fidelity_phi_e": None if pair.phi_e is None else fidelity(rec_e, pair.phi_e),
        }

    _dump_json({"points": points, "tomography": tomo}, out_dir / "dce.json")
    print(f"wrote {out_dir / 'dce.json'}")
    return 0


def cmd_estimate_g(cp, out_dir: Path) -> int:
    state = _build_state(cp)
    g_true = _get_positive(cp, "probe", "g")
    cfg = ProbeConfig(g=g_true)
    plan = _get_plan(cp, g_true, axes=("z",))
    lo = _get_positive(cp, "spectral", "g_min")
    hi = _get_float(cp, "spectral", "g_max")
    ok = hi > lo and math.isfinite(hi)
    _checked("spectral.g_max", hi, ok, "finite and > spectral.g_min")
    traj = sample_trajectory(density_from_pure(state), cfg, plan)
    spec = dft(traj.z, traj.times)
    g_hat, score = rec_mod.estimate_coupling(spec, (lo, hi))
    payload = {
        "g_estimate": g_hat,
        "score": score,
        "search_range": [lo, hi],
        "n_t": int(plan.n_t),
        "delta_t": plan.delta_t,
    }
    _dump_json(payload, out_dir / "g_estimate.json")
    print(f"wrote {out_dir / 'g_estimate.json'}")
    return 0


# ------------------------------------------------------------------ main


def _error_payload(exc: FieldTomoError) -> dict:
    body = {
        "type": type(exc).__name__,
        "module": type(exc).__module__,
        "message": str(exc),
    }
    key = getattr(exc, "key", None)
    if key is not None:
        body["key"] = key
    return {"error": body}


COMMANDS = {
    "reconstruct": cmd_reconstruct,
    "noise-sweep": cmd_noise_sweep,
    "dce": cmd_dce,
    "estimate-g": cmd_estimate_g,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fieldtomo",
        description="Stroboscopic probe-qubit tomography of a single field mode",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument(
        "--print-defaults", action="store_true", help="print the default INI and exit"
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--preset", help=f"one of: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--seed", type=int, help="override plan.seed")
    parser.add_argument("--out-dir", default=".", help="artifact directory")
    parser.add_argument("--state-file", help="amplitude file (n re im per line)")

    args = parser.parse_args(argv)
    if args.print_defaults:
        defaults = configparser.ConfigParser(interpolation=None)
        defaults.read_dict(DEFAULTS)
        defaults.write(sys.stdout)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cp = _merged_config(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cp, out_dir)
    except FieldTomoError as exc:
        json.dump(_error_payload(exc), sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
