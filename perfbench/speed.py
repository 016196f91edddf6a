"""Machine-speed gauge behind the timed end-to-end metrics.

On shared virtual CPUs the machine's speed changes by up to about 2x with
the load of other tenants, from second to second and for minutes at a time.
So while a timed section runs, a wall-clock timer interrupts it every
``INTERVAL_S`` and runs one small fixed unit of reference work in the same
thread; the unit's time samples the machine's speed at that moment.  The
gauge subtracts its own time from the section's, and a run reports each
section's time rescaled to the speed at which the unit takes its reference
time:

    reported = (measured - gauge time) * reference time / mean unit time
               over the units sampled during the section

The units depend on numpy and Python only, never on qflow, so a change to
qflow moves the reported times exactly as it moves the measured ones.  A
slower host does not slow every kind of work alike, so there are two units,
each of the same kind as the work that dominates a workload:

* ``dispatch``: many numpy calls on tiny complex matrices, like generator
  assembly, RK4 stages and the CLI's many short propagations;
* ``dense``: products of 128x128 complex matrices, like the exponentials of
  large generators.

Over a few minutes of passes on a host changing speed, the log of
``modulated``'s pass time followed the log of the ``dispatch`` unit time with
correlation 0.98 (slope 1.25), and ``env_scale``'s followed the ``dense``
unit's with correlation 0.89 (slope 0.9); each followed the other unit
far worse.  The measured times are printed beside the reported ones.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05

_rng = np.random.default_rng(20220507)
_SMALL = [_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4)) for _ in range(3)]
_EYE = np.eye(4)
_LARGE = _rng.normal(size=(128, 128)) + 1j * _rng.normal(size=(128, 128))


def _dispatch():
    a, b, c = _SMALL
    x = np.ones(16, dtype=complex)
    for _ in range(12):
        g = np.kron(_EYE, a) - np.kron(b.T, _EYE) + 0.1 * np.kron(c.conj(), c)
        x = x + 0.01 * (g @ x)


def _dense():
    for _ in range(3):
        _LARGE @ _LARGE


# name -> (unit, its mean time in seconds on a quiet 2-vCPU x86-64 VM with
# OpenBLAS on one thread)
UNITS = {"dispatch": (_dispatch, 0.0012), "dense": (_dense, 0.0014)}


class SpeedGauge:
    """Units of one kind sampled on a wall-clock timer while it is running.

    Use as a context manager around the timed part of a run; ``spent`` is
    the total time of the units so far, to be subtracted from any section
    timed inside it."""

    def __init__(self, unit):
        self._work, self.reference_s = UNITS[unit]
        self.units = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a unit is dropped
            return
        self._busy = True
        start = perf_counter()
        self._work()
        self.units.append(perf_counter() - start)
        self.spent += self.units[-1]
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, first=0):
        """Multiplier from measured seconds to seconds at the reference speed,
        from the units sampled since ``units[first]``; a section too short
        to be sampled takes the latest unit before it."""
        return self.reference_s / statistics.fmean(self.units[first:] or self.units[-1:])
