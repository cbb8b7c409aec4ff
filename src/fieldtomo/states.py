"""Target-state generators: Fock superpositions, coherent states, file I/O.

The cutoff and Fock-index rules live in `fock` (`fock._check_cutoff`,
`fock._check_index`); the generators call them and key their own
refusals by argument: `superposition` a bad term, or all-zero terms,
``terms``, and `coherent_state` a non-numeric or non-finite ``alpha``.
`load_amplitudes` names the file in every refusal of its contents and
keys none of them.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import numbers
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .exceptions import CutoffError, ValidationError, _shown
from .fock import FieldState, _check_cutoff, _check_index

__all__ = [
    "superposition",
    "coherent_state",
    "load_amplitudes",
]

#: Poisson weight a coherent state may lose above its cutoff
_COHERENT_TAIL = 1e-8


def _finite(value, what: str, key: str) -> complex:
    """``value``, a finite number (not a string), as a complex; else
    `ValidationError` keyed ``key``."""
    if isinstance(value, numbers.Complex):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            if cmath.isfinite(z := complex(value)):
                return z
    raise ValidationError(f"{what} must be a finite number, got {_shown(value)}", key=key)


def superposition(terms: Sequence[tuple[int, complex]], cutoff: int) -> FieldState:
    """Normalized superposition from ``(n, amplitude)`` pairs.

    Repeated ``n`` entries accumulate.  Any ``n > cutoff`` is an error,
    not a silent truncation.  A bad index (`fock._check_index`), an
    amplitude that is not a finite number, or no nonzero amplitude is a
    refusal keyed ``terms``.
    """
    cutoff = _check_cutoff(cutoff)
    # Python complex sums: an overflow is inf, refused as non-finite, not warned.
    amps = [0j] * (cutoff + 1)
    for n, amp in terms:
        amps[_check_index(n, cutoff, "terms")] += _finite(amp, "a term's amplitude", "terms")
    state = FieldState(amps)
    if state.norm() < 1e-300:
        raise ValidationError("terms must be a superposition with a nonzero amplitude",
                              key="terms")
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
    returning a bad state.  An ``alpha`` that is not a finite number is a
    `ValidationError` keyed ``alpha``; one so large that the vacuum
    amplitude ``exp(-|alpha|^2 / 2)`` underflows to 0 (``|alpha|`` above
    about 38.6) is an unkeyed one, as is the `CutoffError`.
    """
    cutoff = _check_cutoff(cutoff)
    alpha = _finite(alpha, "alpha", "alpha")
    try:
        r = abs(alpha)
    except OverflowError:  # |alpha| beyond the largest float
        r = math.inf
    # From 40 on the vacuum amplitude is 0 anyway, and from about 1.3e154
    # on ``r ** 2`` raises OverflowError.
    vacuum = math.exp(-0.5 * r**2) if r < 40.0 else 0.0
    if vacuum == 0.0:
        raise ValidationError(
            f"coherent state |alpha| = {r:.4g} is too large: "
            "its vacuum amplitude exp(-|alpha|^2 / 2) underflows to 0"
        )
    required = _coherent_required_cutoff(r)
    if cutoff < required:
        raise CutoffError(
            f"coherent state |alpha| = {r:.4g} needs cutoff >= {required}, got {cutoff}"
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
    file that does not decode as text, a malformed line, or contents
    `superposition` refuses, is a `ValidationError` naming the file.
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
        try:
            n, re, im = line.split()
            entries.append((int(n), complex(float(re), float(im))))
        except ValueError:
            raise ValidationError(
                f"{path.name}:{lineno}: expected 'n re im' numbers, got {raw!r}"
            ) from None
    if not entries:
        raise ValidationError(f"{path}: no amplitude entries found")
    cutoff = max(1, max(n for n, _ in entries))
    admit(cutoff)
    try:
        return superposition(entries, cutoff)
    except ValidationError as exc:  # named by the file, not keyed by an argument
        raise type(exc)(f"{path}: {exc}") from None

