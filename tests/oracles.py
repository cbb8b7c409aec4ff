"""Reference implementations the tests compare the library against,
with the inputs, checks and observables the comparisons share.

The references are written the plain way, for clarity rather than
speed.  The CSV writers, the one-record-at-a-time noise sweep with its
per-record DFT and residual floor, the `ConfigParser` config merge, the
coherent-tail loop, the unmemoised Bloch components and the exhaustive
coupling search must agree with the library exactly; the propagators
(matrix exponential, RK4), the golden-section coupling search and the
per-bin-phase window read to the tolerance a test states.
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
from fieldtomo.probe import _ELEMENT_FLOOR, time_grid
from fieldtomo.reconstruct import (
    _COARSE_POINTS,
    _G_TOLERANCE,
    _PROBE_HARMONICS,
    _REFINE_POINTS,
    _z_windows,
    populations_from_z,
)
from fieldtomo.spectral import (
    _CHUNK_ROWS,
    _NAMED_PAIRS,
    DEFAULT_HALF_WIDTH,
    Spectrum,
    _grid_windows,
    _one_record,
    _place,
    comb_frequencies,
    max_half_width,
    read_windows,
)

#: Any float, with those whose text form is easy to get wrong drawn often.
EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-320, 1e22, 1 / 3]),
    st.floats(),
)

#: Row counts of files shorter than one CSV row chunk, whose row buffer is
#: sized to the file, and either side of one and of two chunks: a writer
#: that formats rows a chunk at a time must get the edges and a short last
#: chunk right.
BLOCK_EDGE_ROWS = [255, 256, 257, 512, 513] + [
    _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 1
]


@st.composite
def float_columns(draw, n: int) -> np.ndarray:
    """``n`` floats of any size.  Up to 64 rows every cell is drawn from
    `EDGE_FLOATS`; a longer column holds distinct draws, so a shifted row
    shows, with `EDGE_FLOATS` put at drawn rows, often the rows either side
    of a block edge and the first and last rows."""
    if n <= 64:
        return np.array(draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    column = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    edges = [k for b in (_CHUNK_ROWS, 2 * _CHUNK_ROWS) for k in (b - 1, b) if k < n]
    rows = st.one_of(st.sampled_from(edges + [0, n - 1]), st.integers(0, n - 1))
    for row, value in draw(st.lists(st.tuples(rows, EDGE_FLOATS), max_size=12)):
        column[row] = value
    return column


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


def read_windows_per_bin(spec, centers, half_width: int = DEFAULT_HALF_WIDTH):
    """`spectral.read_windows` as a plain sum over each window: every bin
    ``m_c + j`` rotated to the record midpoint by its own phase
    ``exp(i pi (j - delta) (N+1)/N)``, summed with `np.sum`, one record at
    a time, and divided by the window response."""
    n = spec.n_t
    x, m_c, idx, resp = _place(spec.n_t, spec.d_omega, centers, half_width)
    delta = (x - m_c)[..., None]
    j = np.arange(-half_width, half_width + 1)
    bins = idx[..., None].astype(np.intp) + j
    phase = np.exp(1j * np.pi * (j - delta) * (n + 1) / n)
    sums = np.stack([np.sum(v[bins] * phase, axis=-1) for v in spec.values.reshape(-1, n)])
    return sums.reshape(spec.values.shape[:-1] + bins.shape[:-1]) / resp


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


def populations(state) -> np.ndarray:
    """``|c_n|^2`` of a `FieldState`."""
    return np.abs(state.amplitudes) ** 2


def mean_photon_number(state) -> float:
    """``sum_n n |c_n|^2`` of a `FieldState`."""
    p = populations(state)
    return float(np.dot(np.arange(p.size), p))


def parity_expectation(joint) -> float:
    """<(-1)^n sigma_z>, the joint parity the Rabi Hamiltonian conserves."""
    signs = np.diag((-1.0) ** np.arange(joint.amplitudes.size // 2)).astype(complex)
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


def evolve_joint(rho, g: float, t: float) -> np.ndarray:
    """Reduced 2 x 2 qubit state after coupling |g><g| x rho for time t,
    from the closed forms of the resonant sectors, one time at a time."""
    diag = rho.diagonal()
    sup = rho.superdiagonal()
    omega = g * np.sqrt(np.arange(diag.size, dtype=float))
    gg = diag[0] + float(np.sum(diag[1:] * np.cos(omega[1:] * t) ** 2))
    ge = 1j * complex(np.sum(sup * np.cos(omega[:-1] * t) * np.sin(omega[1:] * t)))
    return np.array([[gg, ge], [np.conj(ge), 1.0 - gg]], dtype=complex)


def bloch_components(populations, superdiagonal, g: float, times):
    """`probe.bloch_components` at ``times`` with every trig row computed
    afresh on every call, new arrays for every sum and a population stack
    modelled one record at a time: the library's memo and its stacks must
    give these bits."""
    t = np.asarray(times, dtype=float)
    x = y = z = None
    if populations is not None:
        p = np.asarray(populations)
        records = []
        for record in p.reshape(-1, p.shape[-1]):
            z = np.repeat(record[:1], t.size)
            for n in range(1, record.size):
                if not abs(record[n]) < _ELEMENT_FLOOR:
                    z = z + record[n] * np.cos(2.0 * (g * math.sqrt(n)) * t)
            records.append(z)
        z = np.reshape(records, p.shape[:-1] + t.shape)
    if superdiagonal is not None:
        ge = np.zeros(t.shape, dtype=complex)
        for n, s in enumerate(np.asarray(superdiagonal)):
            if not abs(s) < _ELEMENT_FLOOR:
                ge = ge + s * np.cos(g * math.sqrt(n) * t) * np.sin(g * math.sqrt(n + 1) * t)
        ge = 1j * ge
        x, y = 2.0 * ge.real, -2.0 * ge.imag
    return x, y, z


def trig_row(kind: str, n: int, g: float, t: np.ndarray) -> np.ndarray:
    """The trig row ``kind`` of level ``n`` that `probe.bloch_components`
    memoises, by the expression of the loop above: ``z`` the cos of the z
    sum, ``c`` and ``s`` the cos and sin of the x/y sum."""
    if kind == "z":
        return np.cos(2.0 * (g * math.sqrt(n)) * t)
    if kind == "c":
        return np.cos(g * math.sqrt(n) * t)
    return np.sin(g * math.sqrt(n + 1) * t)


def dft_values(signal, times) -> np.ndarray:
    """`spectral.dft`'s values one record at a time, by its first code:
    ``np.fft.fftshift`` of the record's FFT, divided by N and multiplied by
    the phases ``exp(-i omega dt)`` in place."""
    s, t = np.asarray(signal, dtype=float), np.asarray(times, dtype=float)
    n, dt = t.size, float(np.diff(t)[0])
    phase = np.exp(-1j * np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(n, d=dt)) * dt)
    rows = []
    for record in s.reshape(-1, n):
        values = np.fft.fftshift(np.fft.fft(record))
        values /= n
        values *= phase
        rows.append(values)
    return np.reshape(rows, s.shape)


def dft(signal, times) -> Spectrum:
    """A `Spectrum` of `dft_values` on the step of ``times``, whose
    frequencies are checked bit for bit against the grid built here."""
    t = np.asarray(times, dtype=float)
    dt = float(np.diff(t)[0])
    spec = Spectrum(dft_values(signal, t), dt)
    grid = np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(t.size, d=dt))
    assert spec.freqs.tobytes() == grid.tobytes()
    return spec


def free_mask(spec, centers, half_width: int) -> np.ndarray:
    """The free bins of `spectral.noise_floor`'s first code: a boolean mask,
    cleared window by window."""
    n = spec.n_t
    free = np.ones(n, dtype=bool)
    for c in np.ravel(np.asarray(centers, dtype=float)).tolist():
        i = int(np.rint(c / spec.d_omega)) + n // 2
        free[max(i - half_width, 0) : max(i + half_width + 1, 0)] = False
    return free


def noise_floor(spec, centers, half_width: int):
    """`spectral.noise_floor` by its first code: one record's RMS over the
    `free_mask` at a time."""
    n = spec.n_t
    free = free_mask(spec, centers, half_width)
    if np.count_nonzero(free) < 0.25 * n:
        raise ValidationError("exclusion windows cover more than 75% of the spectrum")
    floors = [np.sqrt(np.mean(np.abs(v[free]) ** 2)) for v in spec.values.reshape(-1, n)]
    if spec.values.ndim == 1:
        return float(floors[0])
    return np.reshape(floors, spec.values.shape[:-1])


def residual_floor(spec, model_signal, centers, half_width: int):
    """`reconstruct.residual_floor` by its first code: the full residual
    against the model's `dft_values`, as a new `Spectrum`, then
    `noise_floor` of it."""
    model = dft_values(model_signal, time_grid(spec.delta_t, spec.n_t))
    resid = Spectrum(spec.values - model, spec.delta_t)
    return noise_floor(resid, centers, half_width)


def z_floor(spec, populations, g: float, half_width: int):
    """`reconstruct._z_floor` from `residual_floor` and `bloch_components`
    above."""
    _, _, model = bloch_components(populations, None, g, time_grid(spec.delta_t, spec.n_t))
    freqs = comb_frequencies(g, np.shape(populations)[-1] - 1)
    return residual_floor(spec, model, [w.center for w in _z_windows(freqs)], half_width)


def noise_sweep_rows(
    rho, g, n_t_list, n_m_list, n_seeds, seed, delta_t, t_total, half_width, gamma=0.0
) -> list[dict]:
    """`cli.cmd_noise_sweep`'s rows, one record at a time: a fresh plan,
    trajectory, `dft`, leakage solve and `z_floor` for every seed, and the
    cell's xi and S/xi averaged over the per-seed values.  Like the command,
    it refuses a mean S/xi that is not > 0 where the ``snr_vs_n_t`` slope
    fits its logarithm (an ``n_m`` with more than one ``n_t``)."""
    freqs = comb_frequencies(g, 1)
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
                traj = sample_trajectory(rho, g, plan)
                spec = dft(traj.z, traj.times)
                hw = min(half_width, max_half_width(centers, spec))
                ests = populations_from_z(spec, g, 1, hw)
                xi = z_floor(spec, ests, g, hw)
                if xi <= NOISELESS_FLOOR:
                    raise EstimationError(f"noise floor {xi:.3e} is rounding")
                xis.append(xi)
                snrs.append(ests[1] / xi)
            rows.append(
                {"n_m": n_m, "n_t": n_t, "xi": float(np.mean(xis)), "snr": float(np.mean(snrs))}
            )
    for n_m in set(n_m_list):
        snrs = [row["snr"] for row in rows if row["n_m"] == n_m]
        if len(snrs) > 1 and not all(snr > 0 for snr in snrs):
            raise EstimationError(f"mean S/xi at n_m = {n_m} is not > 0")
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


def estimate_coupling(spec_z, search_range=(0.5, 2.0)) -> tuple[float, float]:
    """`reconstruct.estimate_coupling` by exhaustive search: the coarse stage
    scores every one of its `_COARSE_POINTS` candidates, with no bound to
    prune any.  The library's pruned search must return these bits, or raise
    what this raises."""
    _one_record("estimate_coupling", spec_z)
    if not np.all(np.isfinite(spec_z.values)):
        raise ValidationError("the z spectrum has a NaN or infinite bin; cannot score a comb")
    lo, hi = search_range
    if not (0 < lo < hi):
        raise ValidationError(f"bad search range {search_range!r}")
    n = spec_z.n_t
    dw = spec_z.d_omega
    omega_edge = (n // 2 - 2) * dw
    # Keep only harmonics that stay on-grid for every candidate g.  The ratio
    # is bounded before squaring: on a fine grid its square overflows.
    n_use = min(_PROBE_HARMONICS, int(min(omega_edge / (2.0 * hi), _PROBE_HARMONICS) ** 2))
    if n_use < 1:
        raise ValidationError(
            "search range exceeds the frequency grid; lower the range or raise n_t"
        )
    if _grid_windows(n, dw, 2.0 * lo, 1)[1] <= 1:
        raise EstimationError(
            f"the lowest candidate tone 2 g = {2.0 * lo:.4g} falls in the DC window "
            f"(bin width {dw:.4g}); raise the search range or n_t delta_t"
        )
    roots = np.sqrt(np.arange(1, n_use + 1, dtype=float))

    grid = np.linspace(lo, hi, _COARSE_POINTS)
    width = math.inf
    while True:
        c = (2.0 * grid)[:, None] * roots
        pairs = 2.0 * read_windows(spec_z, c, 1).real
        scores = np.sum(np.where(pairs > 0.0, pairs, 0.0) / roots, axis=1)
        best = int(np.argmax(scores))
        a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        if b - a <= _G_TOLERANCE or b - a >= width:
            break
        grid, width = np.linspace(a, b, _REFINE_POINTS), b - a
    g_hat = float(grid[best])

    abs_vals = np.abs(spec_z.values)
    robust = float(np.median(abs_vals)) / math.sqrt(math.log(2.0))
    c = 2.0 * g_hat * roots
    # The +-1 bins around each +-c; n_use keeps every such window on the grid.
    _, _, idx, _ = _grid_windows(n, dw, np.concatenate((c, -c)), 1)
    peak_amp = float(np.max(abs_vals[idx.astype(np.intp)[:, None] + [-1, 0, 1]]))
    if peak_amp <= 5.0 * robust:
        raise EstimationError(
            f"no spectral peak above 5x the noise floor near the best comb "
            f"(g = {g_hat:.4f}); cannot estimate the coupling"
        )
    return g_hat, float(scores[best])


def collision_message(centers, half_width: int, spec: Spectrum):
    """`spectral.validate_windows`'s collision refusal from every pair's
    distance at once (a ``W x W`` matrix): None without a collision, all
    pairs named up to `_NAMED_PAIRS`, else their count and the first
    `_NAMED_PAIRS` pairs ``(i, k)``, ``i < k``, by ``k``, then ``i``."""
    _, bins, _, _ = _grid_windows(spec.n_t, spec.d_omega, [c for _, c in centers], half_width)
    close = np.abs(np.subtract.outer(bins, bins)) <= 2 * half_width
    pairs = sorted(((i, k) for i, k in zip(*np.nonzero(close)) if i < k), key=lambda p: p[::-1])
    if not pairs:
        return None
    named = {f"{centers[i][0]} / {centers[k][0]}" for i, k in pairs[:_NAMED_PAIRS]}
    count = f"; {len(pairs)} pairs, {len(named)} named" if len(pairs) > _NAMED_PAIRS else ""
    return (f"integration windows collide (need spacing > {2 * half_width} bins{count}): "
            + "; ".join(sorted(named)))
