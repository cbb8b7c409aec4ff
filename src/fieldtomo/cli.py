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
import contextlib
import functools
import json
import math
import os
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
    ValidationError,
)
from .fock import FieldState, density_from_pure, fidelity, fock_state
from .measurement import (
    MAX_SHOTS,
    MeasurementPlan,
    sample_records,
    sample_trajectory,
    write_trajectory_csv,
)
from .probe import _check_grid, _check_phase
from .spectral import comb_frequencies, dft, max_half_width, write_spectrum_csv
from .states import coherent_state, load_amplitudes, superposition

__all__ = ["main"]

#: A noise floor at or below this is rounding, not shot noise: a record
#: without sampling noise leaves ~1e-18.
NOISELESS_FLOOR = 1e-12
#: Bytes one family of arrays a run holds at once may take, each estimated
#: from the settings before it is allocated: a state's density matrix, a
#: run's records, the DCE Hamiltonian or a noise sweep's record stack.
BYTE_BUDGET = 2**31


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
        if not os.path.isfile(path):  # False, not OSError, for a name too long
            raise ConfigError(f"config file not found: {path}")
        # No section header holds a newline, so [DEFAULT] is an ordinary
        # section here, refused as unknown, and nothing folds into the others.
        user = configparser.ConfigParser(interpolation=None, default_section="\n")
        try:
            user.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
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


def _get_float(cp, section: str, option: str, cast=float):
    raw = cp[section][option]
    try:
        return cast(raw)
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise ConfigError(
            f"{section}.{option} must be {what}, got {raw!r}",
            key=f"{section}.{option}",
        ) from None


@contextlib.contextmanager
def _keyed(section: str, **renames: str):
    """A library refusal keyed by a field becomes a `ConfigError` keyed
    ``section.<renames.get(field, field)>``, message ``<key>: <library text>``."""
    try:
        yield
    except ValidationError as exc:
        if exc.key is None:
            raise
        key = f"{section}.{renames.get(exc.key, exc.key)}"
        raise ConfigError(f"{key}: {exc}", key=key) from None


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
    value = _get_float(cp, section, option, int)
    return _checked(f"{section}.{option}", value, value >= low, f">= {low}")


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


def _get_tomography_axes(cp) -> tuple[str, ...]:
    raw = cp["plan"]["axes"].replace(",", " ").replace(" ", "")
    axes = tuple(dict.fromkeys(raw))  # dedupe, keep order
    if "z" not in axes:
        raise ConfigError("plan.axes must include z for reconstruction", key="plan.axes")
    if ("x" in axes) != ("y" in axes):
        raise ConfigError("plan.axes must hold x and y together or neither", key="plan.axes")
    return axes


def _get_delta_t(cp, g: float) -> tuple[float, str]:
    """``plan.delta_t`` and the key that set it: ``probe.g`` when it is
    ``auto`` (``0.075 / g``), else ``plan.delta_t``."""
    raw = cp["plan"]["delta_t"].strip().lower()
    if raw == "auto":
        return 0.075 / g, "probe.g"
    return _get_positive(cp, "plan", "delta_t"), "plan.delta_t"


def _check_step(g: float, delta_t: float, n_t: int, levels: int, key: str) -> None:
    """`probe._check_grid`'s refusal of a step of ``n_t`` points (``t_total /
    n_t`` can underflow), keyed ``key``, the key that set it, and
    `probe._check_phase`'s of the top phase of ``levels`` Fock levels, keyed by
    its larger factor: ``probe.g`` if ``g >= t = n_t delta_t``."""
    blame = key
    try:
        _check_grid(delta_t, n_t)
        blame = "probe.g" if g >= n_t * delta_t else key
        _check_phase(g, levels - 1, delta_t, n_t)
    except FieldTomoError as exc:
        raise ConfigError(f"{key} gives delta_t = {delta_t!r} at n_t = {n_t} and probe.g = "
                          f"{g!r}: {exc}", key=blame) from None


def _within_budget(key: str, nbytes: int, what: str) -> None:
    """Refuse ``what``, estimated at ``nbytes``, beyond `BYTE_BUDGET`: a
    `ConfigError` keyed ``key``, the setting the estimate grows with.  A size
    no float holds (from a 400-digit setting) reads as more than 1e308."""
    if nbytes > BYTE_BUDGET:
        size = f"about {nbytes:.3g}" if nbytes <= sys.float_info.max else "more than 1e308"
        raise ConfigError(
            f"{what} would take {size} bytes, beyond the budget of {BYTE_BUDGET}", key=key
        )


def _check_state(key: str, cutoff: int) -> None:
    """A density matrix at ``cutoff`` and the copies its checks make: three
    of ``(cutoff + 1)^2`` complex."""
    _within_budget(key, 48 * (cutoff + 1) ** 2, f"a density matrix at cutoff {cutoff}")


def _parse_terms(raw: str) -> list[tuple[int, complex]]:
    out = []
    for chunk in filter(None, (c.strip() for c in raw.split(";"))):
        try:
            n, re, im = chunk.split(":")
            out.append((int(n), complex(float(re), float(im))))
        except ValueError:
            raise ConfigError(f"state.terms entries must be n:re:im numbers, got {chunk!r}",
                              key="state.terms") from None
    return out


def _build_state(cp) -> FieldState:
    """The ``[state]`` of ``cp``, its size budgeted before the generator
    allocates; a generator's keyed refusal is keyed by its ``state.`` option."""
    kind = cp["state"]["kind"].strip().lower()
    if kind not in ("fock", "superposition", "coherent", "file"):
        raise ConfigError(f"unknown state.kind {kind!r}", key="state.kind")
    if kind == "file":
        path = cp["state"]["file"].strip()
        if not path:
            raise ConfigError("state.kind = file but state.file is empty", key="state.file")
        if not os.path.isfile(path):
            raise ConfigError(f"state file not found: {path}", key="state.file")
        return load_amplitudes(path, admit=functools.partial(_check_state, "state.file"))
    cutoff = _get_float(cp, "state", "cutoff", int)
    _check_state("state.cutoff", cutoff)
    with _keyed("state"):
        if kind == "fock":
            return fock_state(_get_float(cp, "state", "n", int), cutoff)
        if kind == "superposition":
            return superposition(_parse_terms(cp["state"]["terms"]), cutoff)
        alpha = complex(_get_finite(cp, "state", "alpha_re"), _get_finite(cp, "state", "alpha_im"))
        return coherent_state(alpha, cutoff)


def _get_plan(cp, g: float, axes: tuple[str, ...], levels: int) -> MeasurementPlan:
    """The `MeasurementPlan` of ``cp`` on ``axes`` for a state of ``levels``
    Fock levels.  Each value is checked, in order, so a bad one is a
    `ConfigError` keyed by its INI key: ``n_t >= 2`` (a spectrum needs two
    bins), the records within the budget, the step, then the plan's rules."""
    n_t = _get_int_at_least(cp, "plan", "n_t", 2)
    # Records, spectra and CSV slots at 128 bytes a point on each axis, and
    # up to three trig rows a level in the simulator's memo.
    bytes_per_point = 128 * len(axes) + 24 * levels
    _within_budget("plan.n_t", n_t * bytes_per_point, f"records of {n_t} points")
    delta_t, key = _get_delta_t(cp, g)
    _check_step(g, delta_t, n_t, levels, key)
    infinite = cp["plan"]["n_m"].strip().lower() in ("inf", "infinite", "none", "")
    with _keyed("plan"):
        return MeasurementPlan(
            delta_t=delta_t,
            n_t=n_t,
            n_m=None if infinite else _get_float(cp, "plan", "n_m", int),
            axes=axes,
            gamma=_get_float(cp, "plan", "gamma"),
            seed=_get_float(cp, "plan", "seed", int),
        )


def _tomography(cp, levels: int) -> tuple[float, MeasurementPlan, dict]:
    """The settings `reconstruct` and `dce` share for states of ``levels``
    Fock levels: ``probe.g``, the plan on the tomography axes, and the
    estimator keywords of `reconstruct_from_spectra`."""
    g = _get_positive(cp, "probe", "g")
    plan = _get_plan(cp, g, _get_tomography_axes(cp), levels)
    n_max = _get_int_at_least(cp, "spectral", "n_max", 1)
    half_width = _get_int_at_least(cp, "spectral", "half_width", 0)
    # The comb: the x/y gains' (~2 n_max, 4 n_max, 2 half_width + 1) Dirichlet
    # terms, 64 bytes each with their temporaries, and up to three trig rows
    # a level for the floors' models.
    width = 2 * half_width + 1
    comb = 512 * n_max**2 * width + 24 * (n_max + 1) * plan.n_t
    key = "spectral.n_max" if n_max**2 >= width else "spectral.half_width"
    _within_budget(key, comb, f"the comb of {n_max} levels at half_width {half_width}")
    with _keyed("spectral"):
        floor = rec_mod._check_floor(_get_float(cp, "spectral", "population_floor"))
    return g, plan, {"n_max": n_max, "half_width": half_width, "population_floor": floor}


# ---------------------------------------------------------------- output


def _json_text(payload, name: str) -> str:
    """The text of the JSON artifact ``name``; a non-finite number in
    ``payload`` is an `EstimationError`."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise EstimationError(f"{name} would hold a non-finite number: {exc}") from None
    return text + "\n"


def _dump_json(payload, path: Path) -> None:
    path.write_text(_json_text(payload, path.name))


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
    g, plan, estimator = _tomography(cp, state.cutoff + 1)
    traj = sample_trajectory(density_from_pure(state), g, plan)
    spectra = {axis: dft(getattr(traj, axis), traj.delta_t) for axis in traj.axes()}
    result = rec_mod.reconstruct_from_spectra(
        g,
        spectra["z"],
        spectra.get("x"),
        spectra.get("y"),
        reference=state,
        **estimator,
    )
    # Every refusal comes before the first file is opened.
    texts = {
        "peaks.json": _json_text(_peaks_payload(result.peaks), "peaks.json"),
        "reconstruction.json": _json_text(_result_payload(result), "reconstruction.json"),
    }
    write_trajectory_csv(traj, out_dir / "trajectory.csv")
    for axis, spec in spectra.items():
        write_spectrum_csv(spec, out_dir / f"spectrum_{axis}.csv")
    for name, text in texts.items():
        (out_dir / name).write_text(text)
    print(f"wrote {out_dir / 'reconstruction.json'}")
    return 0


def _sweep_points(cp, g: float, n_seeds: int, levels: int) -> tuple[list[int], dict]:
    """The sweep grid, checked before any sampling: the ``n_m`` values, each
    ``>= 1``, and each step ``delta_t`` with the ``n_t`` values it serves, both
    ascending.  Every ``n_t >= 2`` (a spectrum needs two bins), and ``n_seeds``
    records of the longest fit the budget before any step is derived.  When
    set, ``t_total`` is finite and ``> 0``, and each ``n_t`` takes the step
    ``t_total / n_t``; otherwise every ``n_t`` takes ``plan.delta_t``.  Each
    step passes `_check_step` at its longest ``n_t`` and ``levels``."""
    n_m_list = _get_int_list(cp, "plan", "n_m_list")
    n_t_list = _get_int_list(cp, "plan", "n_t_list")
    has_t = bool(cp["plan"]["t_total"].strip())
    t_total = _get_positive(cp, "plan", "t_total") if has_t else None
    for key, values, low in (("n_m_list", n_m_list, 1), ("n_t_list", n_t_list, 2)):
        _checked(f"plan.{key}", min(values), min(values) >= low, f">= {low} in every entry")
    most = max(n_m_list)
    _checked("plan.n_m_list", most, most <= MAX_SHOTS, f"<= {MAX_SHOTS} in every entry")
    n_t = max(n_t_list)
    key = "plan.n_seeds" if n_seeds >= n_t else "plan.n_t_list"
    _within_budget(key, 128 * n_seeds * n_t, f"{n_seeds} records of {n_t} points")
    key = "plan.t_total"
    if t_total is None:
        delta_t, key = _get_delta_t(cp, g)
    steps: dict[float, list[int]] = {}
    for n_t in sorted(set(n_t_list)):
        steps.setdefault(delta_t if t_total is None else t_total / n_t, []).append(n_t)
    for step, n_ts in steps.items():
        _check_step(g, step, n_ts[-1], levels, key)
    return n_m_list, steps


def cmd_noise_sweep(cp, out_dir: Path) -> int:
    """Scaling of the spectral noise floor with shots and record length.

    Benchmarks on the first Rabi harmonic: S is the leakage-corrected rho_11
    estimate and the floor excludes only the DC and +-2 Omega_1 windows.
    Each ``(n_t, n_m)`` cell is a stack of ``n_seeds`` z records, seeds
    ``plan.seed + k``, each bit for bit its record alone.  One stack, refused
    beyond `BYTE_BUDGET`, is drawn per ``(delta_t, n_m)`` at its longest
    ``n_t`` (one ``delta_t`` without ``t_total``, one per ``n_t`` with it);
    shorter cells read its prefix, the sampler being prefix stable.  Rows
    are sorted by ``n_t``, then ``n_m``; xi and S/xi are means over records.
    """
    state = _build_state(cp)
    g = _get_positive(cp, "probe", "g")
    rho = density_from_pure(state)
    base_seed = _get_float(cp, "plan", "seed", int)
    n_seeds = _get_int_at_least(cp, "plan", "n_seeds", 1)
    half_width = _get_int_at_least(cp, "spectral", "half_width", 0)
    n_m_list, steps = _sweep_points(cp, g, n_seeds, state.cutoff + 1)
    gamma = _get_float(cp, "plan", "gamma")
    centers = [w.center for w in rec_mod._z_windows(comb_frequencies(g, 1))]

    rows = []
    for delta_t, n_ts in steps.items():
        for n_m in sorted(set(n_m_list)):
            # `_sweep_points` passed the rest: only gamma or the seed fail, at the first plan.
            with _keyed("plan"):
                plan = MeasurementPlan(delta_t=delta_t, n_t=n_ts[-1], n_m=n_m, axes=("z",),
                                       gamma=gamma, seed=base_seed)
            records = sample_records(rho, g, plan, n_seeds)["z"]
            for n_t in n_ts:
                spec = dft(records[:, :n_t], delta_t)
                hw = min(half_width, max_half_width(centers, spec))
                ests = rec_mod.populations_from_z(spec, g, 1, hw)
                xi = rec_mod._z_floor(spec, ests, g, 1, hw)
                noiseless = xi <= NOISELESS_FLOOR
                if noiseless.any():
                    raise EstimationError(
                        f"noise floor {xi[noiseless][0]:.3e} at n_m = {n_m}, n_t = {n_t} "
                        "is rounding: the records carry no shot noise to scale"
                    )
                rows.append({"n_m": n_m, "n_t": n_t, "xi": float(np.mean(xi)),
                             "snr": float(np.mean(ests[:, 1] / xi))})
    rows.sort(key=lambda row: (row["n_t"], row["n_m"]))

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
        for n_t, snr in pts:
            if len(pts) > 1 and not snr > 0:
                raise EstimationError(
                    f"mean S/xi {snr:.3e} at n_m = {n_m}, n_t = {n_t} is not > 0: "
                    "the snr_vs_n_t slope fits its logarithm"
                )
        slope = fit(pts)
        if slope is not None:
            slopes["snr_vs_n_t"][str(n_m)] = slope
    slopes_text = _json_text(slopes, "noise_sweep_slopes.json")

    csv_path = out_dir / "noise_sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("n_m,n_t,xi,snr\n")
        for row in rows:
            fh.write(f"{row['n_m']},{row['n_t']},{row['xi']:.17g},{row['snr']:.17g}\n")
    (out_dir / "noise_sweep_slopes.json").write_text(slopes_text)
    print(f"wrote {csv_path}")
    return 0


def cmd_dce(cp, out_dir: Path) -> int:
    cutoff = _get_float(cp, "dce", "cutoff", int)
    # The joint Hamiltonian, its eigenvectors and `eigh`'s workspace: four
    # of ``(2 (cutoff + 1))^2`` complex.
    dim = 2 * (cutoff + 1)
    _within_budget("dce.cutoff", 64 * dim**2, f"a {dim} x {dim} Hamiltonian")
    quench = {"cutoff": cutoff, "omega": _get_float(cp, "dce", "omega"),
              "g_over_omega": _get_float(cp, "dce", "g_over_omega")}
    if cp["dce"]["tau"].strip().lower() == "auto":
        # pi / (2 g), refused as g_over_omega's fault: `DceConfig` checks each factor first.
        g_quench = quench["g_over_omega"] * quench["omega"]
        tau_main, tau_key = math.pi / (2.0 * g_quench) if g_quench else math.inf, "g_over_omega"
    else:
        tau_main, tau_key = _get_float(cp, "dce", "tau"), "tau"
    # The tomography point comes last, after the tau_list entries, so the
    # loop leaves its conditional branches in `pair`.
    with _keyed("dce", tau="tau_list"):
        cfgs = [dce_mod.DceConfig(tau=tau, **quench) for tau in _get_list(cp, "dce", "tau_list")]
    with _keyed("dce", tau=tau_key):
        cfgs.append(dce_mod.DceConfig(tau=tau_main, **quench))
    g_probe, plan, estimator = _tomography(cp, cutoff + 1)

    points = []
    for cfg in cfgs:
        joint = dce_mod.evolve_rabi(cfg)
        pair = dce_mod.condition_on_qubit(joint)
        points.append(dce_mod.dce_record(cfg, joint, pair))

    tomo: dict = {"tau": tau_main, "warnings": []}
    if pair.phi_plus is None or pair.phi_minus is None:
        raise DegenerateBranchError("a |+-> conditional branch has zero weight")

    rec_states = {}
    for label, phi in (("plus", pair.phi_plus), ("minus", pair.phi_minus)):
        traj = sample_trajectory(density_from_pure(phi), g_probe, plan)
        result = rec_mod.reconstruct_state(traj, g_probe, reference=phi, **estimator)
        rec_states[label] = result.state
        tomo[f"fidelity_phi_{label}"] = result.fidelity_vs_reference
        tomo["warnings"].extend(result.warnings)

    try:
        if None in rec_states.values():
            raise DegenerateBranchError(
                "a reconstructed |+-> branch has no level above spectral.population_floor"
            )
        rec_g, rec_e = dce_mod.recombine_branches(rec_states["plus"], rec_states["minus"])
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
    plan = _get_plan(cp, g_true, ("z",), state.cutoff + 1)
    lo = _get_positive(cp, "spectral", "g_min")
    hi = _get_float(cp, "spectral", "g_max")
    ok = hi > lo and math.isfinite(hi)
    _checked("spectral.g_max", hi, ok, "finite and > spectral.g_min")
    traj = sample_trajectory(density_from_pure(state), g_true, plan)
    spec = dft(traj.z, traj.delta_t)
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
    if exc.key is not None:
        body["key"] = exc.key
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

    made: list[Path] = []  # directories this call creates, deepest first
    try:
        cp = _merged_config(args)
        out_dir = Path(args.out_dir)
        try:
            made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make --out-dir: {exc}", key="--out-dir") from exc
        return COMMANDS[args.command](cp, out_dir)
    except FieldTomoError as exc:
        for d in made:  # a refusal leaves no empty directory behind
            with contextlib.suppress(OSError):
                d.rmdir()
        json.dump(_error_payload(exc), sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
