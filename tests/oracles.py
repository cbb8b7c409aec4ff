"""Reference implementations the tests compare the library against,
with the inputs, checks and observables the comparisons share.

The references are written the plain way, for clarity rather than
speed.  The CSV writers, the one-record-at-a-time noise sweep, the
`ConfigParser` config merge and the coherent-tail loop must agree with
the library exactly; the propagators (matrix exponential, RK4) and the
golden-section coupling search to the tolerance a test states.
"""

import configparser
import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from fieldtomo.cli import DEFAULTS, NOISELESS_FLOOR, PRESETS
from fieldtomo.dce import rabi_hamiltonian
from fieldtomo.exceptions import ConfigError, EstimationError, ValidationError
from fieldtomo.fock import SIGMA_Z, joint_op
from fieldtomo.measurement import MeasurementPlan, sample_trajectory
from fieldtomo.reconstruct import _z_floor, _z_windows, populations_from_z
from fieldtomo.spectral import (
    DEFAULT_HALF_WIDTH,
    comb_frequencies,
    dft,
    max_half_width,
    read_windows,
)

#: Any float, with those whose text form is easy to get wrong drawn often.
EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-320, 1e22, 1 / 3]),
    st.floats(),
)


def written_bytes(write, obj) -> bytes:
    """The bytes ``write(obj, path)`` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "out.csv")
        write(obj, path)
        return path.read_bytes()


def assert_csv_like_oracle(write, oracle, obj, header: bytes, n_rows: int) -> None:
    """``write`` gives exactly ``oracle``'s bytes: ``header`` and ``n_rows``
    rows, every line ending ``\\r\\n``."""
    data = written_bytes(write, obj)
    assert data == written_bytes(oracle, obj)
    lines = data.split(b"\r\n")
    assert lines[0] == header and lines[-1] == b""
    assert len(lines) == n_rows + 2
    assert b"\n" not in data.replace(b"\r\n", b"")


def write_trajectory_csv(traj, path) -> None:
    """`measurement.write_trajectory_csv` cell by cell through `csv.writer`."""

    def fmt(v):
        return "" if v is None else format(v, ".17g")

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "z"])
        for k, t in enumerate(traj.times):
            writer.writerow(
                [format(t, ".17g")]
                + [
                    fmt(getattr(traj, a)[k] if getattr(traj, a) is not None else None)
                    for a in ("x", "y", "z")
                ]
            )


def write_spectrum_csv(spec, path) -> None:
    """`spectral.write_spectrum_csv` cell by cell through `csv.writer`: the
    rows from the DC bin (index n // 2) on, and before them the Nyquist bin
    (index 0) when n is even."""
    n = len(spec.freqs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "re", "im"])
        for k, (w, v) in enumerate(zip(spec.freqs, spec.values)):
            if k >= n // 2 or (k == 0 and n % 2 == 0):
                writer.writerow(
                    [format(w, ".17g"), format(v.real, ".17g"), format(v.imag, ".17g")]
                )


def merged_config(
    preset=None, config=None, seed=None, state_file=None
) -> configparser.ConfigParser:
    """`cli._merged_config` through `ConfigParser`: `cli.DEFAULTS`, then the
    ``preset``, then the INI file ``config``, then ``seed`` and ``state_file``.
    An unknown preset, section or option is a `ConfigError`."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(DEFAULTS)
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        cp.read_dict(PRESETS[preset])
    if config:
        # [DEFAULT] is an unknown section like any other, never folded in.
        user = configparser.ConfigParser(interpolation=None, default_section="\n")
        user.read(config)
        for section in user.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]", key=section)
            for option, value in user.items(section):
                if option not in DEFAULTS[section]:
                    raise ConfigError(f"unknown option {option!r}", key=f"{section}.{option}")
                cp.set(section, option, value)
    if seed is not None:
        cp.set("plan", "seed", str(seed))
    if state_file:
        cp.set("state", "kind", "file")
        cp.set("state", "file", state_file)
    return cp


def coherent_required_cutoff(abs_alpha: float, tail: float = 1e-8) -> int:
    """`states._coherent_required_cutoff` as a Poisson sum from n = 0 in
    plain floats.  Exact while ``exp(-|alpha|^2)`` is a normal float
    (``|alpha|`` up to about 26.6); past that its first terms lose their
    precision, and from about 27.3 they are 0."""
    nbar = abs_alpha**2
    term = math.exp(-nbar)
    acc = term
    n = 0
    while 1.0 - acc > tail:
        n += 1
        term *= nbar / n
        acc += term
    return max(n, 1)


def cosine_pair(spec, center, half_width: int = DEFAULT_HALF_WIDTH):
    """Amplitude of ``A cos(omega t)``: Re(area(+omega) + area(-omega)).

    ``center`` is a scalar or an array, read in one `read_windows` call;
    a zero center reads the DC window once.
    """
    c = np.asarray(center, dtype=float)
    areas = read_windows(spec, np.stack([c, -c]), half_width)
    a_pos, a_neg = np.moveaxis(areas, -1 - c.ndim, 0)
    out = np.where(c == 0.0, a_pos.real, (a_pos + a_neg).real)
    return out if out.ndim else float(out)


def sine_pair(spec, center, half_width: int = DEFAULT_HALF_WIDTH):
    """Amplitude A of ``-A sin(omega t)``: Im(area(+omega) - area(-omega)).

    ``center`` is a scalar or an array of positive frequencies.
    """
    c = np.asarray(center, dtype=float)
    if np.any(c <= 0.0):
        raise ValidationError("sine_pair needs a positive center frequency")
    areas = read_windows(spec, np.stack([c, -c]), half_width)
    a_pos, a_neg = np.moveaxis(areas, -1 - c.ndim, 0)
    out = (a_pos - a_neg).imag
    return out if out.ndim else float(out)


def hermitian_defect(spec) -> float:
    """max |F(omega) - conj(F(-omega))| over the paired bins and records of
    a `Spectrum`, and the largest |Im F| at omega = 0."""
    n, v = spec.n_t, spec.values
    pos = v[..., n // 2 + 1 :]
    neg = v[..., 1 : n // 2] if n % 2 == 0 else v[..., : n // 2]
    defect = float(np.max(np.abs(pos - neg[..., ::-1].conj()))) if pos.size else 0.0
    return max(defect, float(np.max(np.abs(v[..., n // 2].imag))))


def parseval_defect(spec, signal) -> float:
    """|sum |F|^2 - (1/N) sum |s|^2| of a `Spectrum` and the signal it was
    made from, the largest over records."""
    lhs = np.sum(np.abs(spec.values) ** 2, axis=-1)
    rhs = np.mean(np.abs(np.asarray(signal)) ** 2, axis=-1)
    return float(np.max(np.abs(lhs - rhs)))


def rabi_psi0(cfg) -> np.ndarray:
    """|g, 0> on the joint space of a `dce.DceConfig`."""
    psi0 = np.zeros(2 * (cfg.cutoff + 1), dtype=complex)
    psi0[0] = 1.0
    return psi0


def expm_rabi(cfg) -> np.ndarray:
    """`dce.evolve_rabi` by a dense matrix exponential of the Rabi Hamiltonian."""
    return scipy.linalg.expm(-1j * rabi_hamiltonian(cfg) * cfg.tau) @ rabi_psi0(cfg)


def rk4_rabi(cfg, dt: float) -> np.ndarray:
    """`dce.evolve_rabi` by fixed-step RK4 with steps of at most ``dt``; the
    state is returned as integrated, norm drift included."""
    h = rabi_hamiltonian(cfg)
    steps = max(1, math.ceil(cfg.tau / dt))
    dt = cfg.tau / steps
    psi = rabi_psi0(cfg)

    def deriv(v):
        return -1j * (h @ v)

    for _ in range(steps):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * dt * k1)
        k3 = deriv(psi + 0.5 * dt * k2)
        k4 = deriv(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def parity_expectation(joint) -> float:
    """<(-1)^n sigma_z>, the joint parity the Rabi Hamiltonian conserves."""
    signs = np.diag((-1.0) ** np.arange(joint.cutoff + 1)).astype(complex)
    psi = joint.amplitudes
    return float(np.real(np.vdot(psi, joint_op(signs, SIGMA_Z) @ psi)))


def bloch_from_qubit(rho_q: np.ndarray) -> tuple[float, float, float]:
    """(x, y, z) of a 2x2 qubit density matrix in the |g>, |e> basis."""
    x = 2.0 * rho_q[0, 1].real
    y = -2.0 * rho_q[0, 1].imag
    z = (rho_q[0, 0] - rho_q[1, 1]).real
    return float(x), float(y), float(z)


def qubit_reduced(joint) -> np.ndarray:
    """2 x 2 qubit density matrix of a joint state, field traced out."""
    psi = joint.amplitudes.reshape(-1, 2)  # [n, q]
    return np.einsum("nq,np->qp", psi, psi.conj())


def evolve_joint(rho, cfg, t: float) -> np.ndarray:
    """Reduced 2 x 2 qubit state after coupling |g><g| x rho for time t,
    from the closed forms of the resonant sectors, one time at a time."""
    diag = rho.diagonal()
    sup = rho.superdiagonal()
    omega = cfg.g * np.sqrt(np.arange(diag.size, dtype=float))
    gg = diag[0] + float(np.sum(diag[1:] * np.cos(omega[1:] * t) ** 2))
    ge = 1j * complex(np.sum(sup * np.cos(omega[:-1] * t) * np.sin(omega[1:] * t)))
    return np.array([[gg, ge], [np.conj(ge), 1.0 - gg]], dtype=complex)


def noise_sweep_rows(
    rho, cfg, n_t_list, n_m_list, n_seeds, seed, delta_t, t_total, half_width, gamma=0.0
) -> list[dict]:
    """`cli.cmd_noise_sweep`'s rows, one record at a time: a fresh plan,
    trajectory, DFT, leakage solve and residual floor for every seed, and
    the cell's xi and S/xi averaged over the per-seed values."""
    freqs = comb_frequencies(cfg.g, 1)
    centers = [w.center for w in _z_windows(freqs)]
    rows = []
    for n_t in sorted(set(n_t_list)):
        dt = (t_total / n_t) if t_total is not None else delta_t
        for n_m in sorted(set(n_m_list)):
            xis, snrs = [], []
            for rep in range(n_seeds):
                plan = MeasurementPlan(
                    delta_t=dt, n_t=n_t, n_m=n_m, axes=("z",), gamma=gamma, seed=seed + rep
                )
                traj = sample_trajectory(rho, cfg, plan)
                spec = dft(traj.z, traj.times)
                hw = min(half_width, max_half_width(centers, spec))
                ests = populations_from_z(spec, freqs, hw)
                xi = _z_floor(spec, ests, freqs, hw)
                if xi <= NOISELESS_FLOOR:
                    raise EstimationError(f"noise floor {xi:.3e} is rounding")
                xis.append(xi)
                snrs.append(ests[1] / xi)
            rows.append(
                {"n_m": n_m, "n_t": n_t, "xi": float(np.mean(xis)), "snr": float(np.mean(snrs))}
            )
    return rows


def coupling_scores(spec_z, g, n_use: int):
    """`reconstruct.estimate_coupling`'s score at each candidate ``g`` (any
    shape), read two-sided: ``sum_n max(0, cosine_pair(2 g sqrt(n))) / sqrt(n)``
    over the first ``n_use`` harmonics, with half-width-1 windows."""
    roots = np.sqrt(np.arange(1, n_use + 1, dtype=float))
    pairs = cosine_pair(spec_z, (2.0 * np.asarray(g, dtype=float))[..., None] * roots, 1)
    terms = np.where(pairs > 0.0, pairs, 0.0) / roots
    total = 0.0
    for k in range(n_use):
        total = total + terms[..., k]
    return total


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-7) -> float:
    """Golden-section maximizer on [lo, hi] for a unimodal score."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def golden_section_coupling(spec_z, search_range=(0.5, 2.0), n_probe=5, n_coarse=1000):
    """`reconstruct.estimate_coupling`'s g by a sequential search on the
    two-sided score: a coarse scan of ``n_coarse`` points, then a
    golden-section polish over the best point +- 2 grid steps.  No
    noise-floor check."""
    lo, hi = search_range
    omega_edge = (spec_z.n_t // 2 - 2) * spec_z.d_omega
    n_use = min(n_probe, int((omega_edge / (2.0 * hi)) ** 2))

    def score(g):
        return coupling_scores(spec_z, g, n_use)

    grid = np.linspace(lo, hi, n_coarse)
    best = int(np.argmax(score(grid)))
    return golden_section_max(score, grid[max(best - 2, 0)], grid[min(best + 2, n_coarse - 1)])
