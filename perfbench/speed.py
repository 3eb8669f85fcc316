"""Wall time scaled to the machine's current speed.

On a shared machine the same code runs at a speed that drifts by up to a
factor of two within an hour and by 10-50% from one second to the next.
Wall times of separate runs then differ by more than any useful bound.  A
fixed calibration kernel, timed at many points during a run, tracks that
speed: a segment of wall time between two calibrations is scaled by
``REFERENCE_S`` over the mean of the two calibration times.  The result is
in reference seconds, the wall seconds of a machine on which the kernel
takes ``REFERENCE_S``.

The kernel mixes what the program does: vectorised log/hypot over a point
grid, a small contraction, and many numpy calls on tiny arrays.  It uses
nothing from igabem, so a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.02  # about the kernel's time on a 2-core x86 VM at rest


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.uniform(size=(64, 2))
        self._y = rng.uniform(size=(512, 2))
        self.samples: list[float] = []

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        x, y = self._x, self._y
        t0 = time.perf_counter()
        for _ in range(12):
            d = np.log(np.hypot(x[:, None, 0] - y[None, :, 0],
                                x[:, None, 1] - y[None, :, 1]))
            np.einsum("ij,jk->ik", d, y)
            for i in range(60):
                np.atleast_1d(np.asarray(float(i))) * x[i]
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt


class SpeedClock:
    """Wall time split at ``mark`` calls, each segment scaled by the mean
    of the calibrations at its two ends.  Calibration time is excluded."""

    def __init__(self, calibrate: Calibration):
        self._calibrate = calibrate
        self._cal = calibrate()
        self.wall = 0.0
        self.ref = 0.0
        self._t = time.perf_counter()

    def mark(self) -> tuple[float, float]:
        """Close the segment ending now; return (wall, reference) seconds
        since the clock started."""
        dt = time.perf_counter() - self._t
        cal = self._calibrate()
        self.wall += dt
        self.ref += dt * REFERENCE_S / (0.5 * (self._cal + cal))
        self._cal = cal
        self._t = time.perf_counter()
        return self.wall, self.ref
