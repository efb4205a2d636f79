"""Oracles and counters shared by the loop and symmetry tests."""

import numpy as np
import pytest

# the transforms of np.fft that the package calls
TRANSFORMS = ("fft", "ifft", "rfft", "irfft")


def _dense_interpolant(loop, t):
    # the trigonometric interpolant of the loop's samples at times t (any
    # shape), summed term by term over the frequencies of `np.fft.fftfreq`:
    # an even m's Nyquist bin sits at -m / 2 and counts as the real part of
    # its term.  O(len(t) m), with no shift, fold or real transform
    t = np.atleast_1d(np.asarray(t, dtype=float))
    m = loop.n_samples
    coef = np.fft.fft(loop.positions, axis=0) / m
    k = np.fft.fftfreq(m, d=loop.period / m)
    phase = np.exp(2j * np.pi * np.outer(t, k))
    return np.real(np.tensordot(phase, coef, axes=(1, 0)))


@pytest.fixture
def dense_interpolant():
    """`dense_interpolant(loop, t)`: the oracle for `LoopPath.on_grid`,
    `resample` and the time shifts of the symmetry check."""
    return _dense_interpolant


@pytest.fixture
def fft_calls(monkeypatch):
    """Calls to each of TRANSFORMS made after set-up, by name: a dict
    that fills as the transforms run."""
    counts = dict.fromkeys(TRANSFORMS, 0)

    def counted(name, real):
        def transform(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return transform

    for name in counts:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    return counts
