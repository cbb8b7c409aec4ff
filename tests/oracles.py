"""Reference implementations the tests compare the library against,
with the inputs and checks the comparisons share.

The references are written the plain way, for clarity rather than
speed; the library versions must agree with them exactly.
"""

import csv
import math
import tempfile
from pathlib import Path

from hypothesis import strategies as st

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
    """`spectral.write_spectrum_csv` cell by cell through `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "re", "im"])
        for w, v in zip(spec.freqs, spec.values):
            writer.writerow(
                [format(w, ".17g"), format(v.real, ".17g"), format(v.imag, ".17g")]
            )
