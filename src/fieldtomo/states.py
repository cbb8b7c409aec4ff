"""Target-state generators: Fock superpositions, coherent states, file I/O."""

from __future__ import annotations

import cmath
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .exceptions import CutoffError, ValidationError
from .fock import FieldState

__all__ = [
    "superposition",
    "coherent_state",
    "load_amplitudes",
]

#: Poisson weight a coherent state may lose above its cutoff
_COHERENT_TAIL = 1e-8


def superposition(terms: Sequence[tuple[int, complex]], cutoff: int) -> FieldState:
    """Normalized superposition from ``(n, amplitude)`` pairs.

    Repeated ``n`` entries accumulate.  Any ``n > cutoff`` is an error,
    not a silent truncation.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    # Python complex sums: an overflow is inf, refused as non-finite, not warned.
    amps = [0j] * (cutoff + 1)
    for n, amp in terms:
        n = int(n)
        if n < 0:
            raise ValidationError(f"negative Fock index {n}")
        if n > cutoff:
            raise CutoffError(f"term |{n}> exceeds cutoff {cutoff}")
        amps[n] += complex(amp)
    state = FieldState(amps)
    if state.norm() < 1e-300:
        raise ValidationError("superposition needs at least one nonzero term")
    return state.normalize()


def _coherent_required_cutoff(abs_alpha: float) -> int:
    """Smallest n_max with truncated-weight deficit below `_COHERENT_TAIL`.

    The Poisson sum runs up from n = 0 while ``exp(-nbar)`` is a normal
    float.  Past that it starts ten standard deviations below the mean,
    from the pmf there taken in log space: the terms it skips weigh less
    than ``exp(-50)``.
    """
    nbar = abs_alpha**2
    term = math.exp(-nbar)  # Poisson pmf at n = 0
    n = 0
    if term < sys.float_info.min:
        n = math.floor(nbar - 10.0 * math.sqrt(nbar))
        term = math.exp(n * math.log(nbar) - nbar - math.lgamma(n + 1))
    acc = term
    while 1.0 - acc > _COHERENT_TAIL:
        n += 1
        term *= nbar / n
        acc += term
        if n > 100000:  # unreachable for sane alpha; guards infinite loop
            raise ValidationError(f"cannot bound coherent tail for |alpha| = {abs_alpha}")
    return max(n, 1)


def coherent_state(alpha: complex, cutoff: int) -> FieldState:
    """Normalized truncated coherent state |alpha>.

    The cutoff must capture all but `_COHERENT_TAIL` of the Poisson weight;
    otherwise a `CutoffError` names the required cutoff instead of
    returning a bad state.  A non-finite ``alpha``, or one so large that
    the vacuum amplitude ``exp(-|alpha|^2 / 2)`` underflows to 0
    (``|alpha|`` above about 38.6), is a `ValidationError`.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValidationError(f"coherent state needs a finite alpha, got {alpha!r}")
    # From 40 on the vacuum amplitude is 0 anyway, and from about 1.3e154
    # on ``abs(alpha) ** 2`` raises OverflowError.
    vacuum = math.exp(-0.5 * abs(alpha) ** 2) if abs(alpha) < 40.0 else 0.0
    if vacuum == 0.0:
        raise ValidationError(
            f"coherent state |alpha| = {abs(alpha):.4g} is too large: "
            "its vacuum amplitude exp(-|alpha|^2 / 2) underflows to 0"
        )
    required = _coherent_required_cutoff(abs(alpha))
    if cutoff < required:
        raise CutoffError(
            f"coherent state |alpha| = {abs(alpha):.4g} needs cutoff >= {required}, "
            f"got {cutoff}"
        )
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = vacuum
    for n in range(cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return FieldState(amps).normalize()


def load_amplitudes(
    path: str | Path, admit: Callable[[int], object] = lambda cutoff: None
) -> FieldState:
    """Read a state from a text file of ``n  re  im`` lines.

    Blank lines and ``#`` comments are skipped.  The cutoff is the
    largest ``n`` present (at least 1); ``admit`` sees it before any
    amplitude array is built, so a caller can refuse a size by raising.
    The loaded state is normalized like any other generator output.  A
    file that does not decode as text, or a malformed line, is a
    `ValidationError`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    entries: list[tuple[int, complex]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(
                f"{path.name}:{lineno}: expected 'n re im', got {raw!r}"
            )
        try:
            n = int(parts[0])
            re, im = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValidationError(f"{path.name}:{lineno}: {exc}") from exc
        entries.append((n, complex(re, im)))
    if not entries:
        raise ValidationError(f"{path}: no amplitude entries found")
    cutoff = max(1, max(n for n, _ in entries))
    admit(cutoff)
    return superposition(entries, cutoff)

