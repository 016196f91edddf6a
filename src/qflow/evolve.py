"""Propagation of bipartite states and closed-form depolarizing solutions.

Time is measured in units of the inverse base rate throughout; the default
grid step keeps the fastest rate resolved to one percent.  Every
propagation steps flattened state columns through :func:`advance`, so a
batch of states shares every propagator, and :func:`stepping_cache` alone
decides how a model is stepped.  A series loop only steps and stores the
columns; re-symmetrization and the trace-drift check then run over the
stored series, a block of times at a time.  Time-independent generators
use cached matrix exponentials; closed (unitary) models exponentiate their
total Hamiltonian through one ``eigh`` in state space instead of the
(ds de)^2 superoperator.  Modulated rates fall back to classical fixed-step
fourth-order integration, chosen over adaptive stepping so outputs are
reproducible run to run.  RK4 assembles its generators as one stack per
block of substeps, in which each distinct stage time (a substep's start,
midpoint and end, the end being the next start) appears once, exactly as
the running sum ``t += h`` gives it.  It steps a block as the ordered
product of the substeps' linear step matrices, within 1e-13 (relative)
of stepping the columns substep by substep, and refuses a span of more
than ``_RK4_MAX_SUBSTEPS`` substeps before stepping it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import models
from .qcore import (
    InvariantViolation,
    NumericalDriftError,
    TRACE_DRIFT_TOL,
    conjugation_superop,
    matrix_exp,
    vec,
)


def default_step(*rates: float) -> float:
    """Default integration step, 0.01 over the fastest scale (at least 1)."""
    return 0.01 / max(1.0, *[abs(r) for r in rates])


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at zero with a nominal step."""

    times: np.ndarray
    step: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        # written so that NaN fails both checks
        if times.ndim != 1 or not np.all((0 <= times) & (times < np.inf)):
            raise InvariantViolation("grid times must be finite and non-negative")
        if times.size > 1 and not np.diff(times).min() > 0:
            raise InvariantViolation("grid times must increase strictly")
        if not self.step > 0:
            raise InvariantViolation("grid step must be positive")

    @classmethod
    def regular(cls, t_max: float, step: float) -> "TimeGrid":
        if not (np.isfinite(step) and step > 0):
            raise InvariantViolation(f"grid step {step!r} must be finite and positive")
        if not (np.isfinite(t_max) and t_max >= 0):
            raise InvariantViolation(
                f"grid end time {t_max!r} must be finite and non-negative")
        try:
            n = int(round(t_max / step))
            if abs(n * step - t_max) > 1e-9 * max(1.0, t_max):
                n = int(np.ceil(t_max / step))
            times = np.arange(n + 1) * step
        except (OverflowError, ValueError, MemoryError) as exc:
            raise InvariantViolation(f"grid to {t_max:g} at step {step:g} has "
                                     "too many points to allocate") from exc
        return cls(times=times, step=step)


@dataclass
class PropagatorCache:
    """Cached propagators of one time-independent model, keyed by time gap.

    Built from a generator, a propagator is its matrix exponential.  Built
    from the eigendecomposition ``(E, V)`` of a Hamiltonian, it is the
    conjugation by ``V diag(exp(-i E dt)) V^dag``.
    """

    generator: Optional[np.ndarray]
    spectrum: Optional[tuple] = None
    _cache: dict = field(default_factory=dict)

    @classmethod
    def for_model(cls, model) -> "PropagatorCache":
        """Cache for a time-independent model; a closed model is
        diagonalized once in state space instead of exponentiating its
        superoperator."""
        if isinstance(model, models.UnitaryModel):
            return cls(None, np.linalg.eigh(model.total_hamiltonian()))
        return cls(models.assemble_generator(model))

    def at(self, dt: float) -> np.ndarray:
        key = round(float(dt), 12)
        if key not in self._cache:
            if self.spectrum is None:
                self._cache[key] = matrix_exp(self.generator * float(dt))
            else:
                energies, vecs = self.spectrum
                u = (vecs * np.exp(-1j * energies * float(dt))) @ vecs.conj().T
                self._cache[key] = conjugation_superop(u)
        return self._cache[key]


def stepping_cache(model, stepper: str = "auto"):
    """Propagator cache to step the model with, or None for RK4.
    ``stepper`` is "auto" (exponentials when the generator is constant) or
    "rk4"."""
    if stepper not in ("auto", "rk4"):
        raise InvariantViolation(f"unknown stepper {stepper!r}")
    if models.is_time_dependent(model) or stepper == "rk4":
        return None
    return PropagatorCache.for_model(model)


# entries in the stack of stage generators one RK4 block holds, which keeps
# its memory small: 63 generators, the stage times of 31 substeps, at D = 16
_RK4_STACK_ENTRIES = 2 ** 14

# most substeps one RK4 span may take, about two minutes of stepping a pair
# of states at D = 16 (2 cores, OpenBLAS); the longest span in the tests and
# CLI defaults takes 7,500.  A longer span is refused before any stepping.
_RK4_MAX_SUBSTEPS = 10 ** 7


def _rk4_span(model, v: np.ndarray, t0: float, t1: float,
              step: Optional[float] = None) -> np.ndarray:
    """Fixed-step integration of flattened state columns from t0 to t1.

    A substep from t to t + h needs the generator at t, t + h/2 and t + h,
    and its end is the next substep's start, so one ``assemble_generator``
    call per block of m substeps builds the 2 m + 1 distinct stage times.
    The starts are one sequential sum, the same bits as ``t += h``.  With
    A, B, C the generators at t, t + h/2, t + h, a substep is v -> S v with

        K2 = B + (h/2) B A,   K3 = B + (h/2) B K2,   K4 = C + h C K3,
        S = I + (h/6) (A + 2 K2 + 2 K3 + K4),

    built for the whole block with three batched products; the product
    S_{m-1} ... S_0 then steps the columns once.  That reorders the
    roundings only: the result is within 1e-13 (relative) of the
    substep-by-substep columns.  A span of more than ``_RK4_MAX_SUBSTEPS``
    substeps raises InvariantViolation.
    """
    if step is None:
        # modulated rates stay below twice the base
        step = default_step(2.0 * max(model.gamma, model.phi), model.omega)
    span = (t1 - t0) / step
    if not span <= _RK4_MAX_SUBSTEPS:  # NaN fails
        raise InvariantViolation(
            f"span {t0:g} to {t1:g} needs {span:.3g} RK4 substeps of {step:g}, "
            f"more than {_RK4_MAX_SUBSTEPS:g}")
    n = max(1, int(np.ceil(span - 1e-12)))
    h = (t1 - t0) / n
    block = max(1, (_RK4_STACK_ENTRIES // v.shape[0] ** 2 - 1) // 2)
    eye = np.eye(v.shape[0])
    t = t0
    for first in range(0, n, block):
        m = min(block, n - first)
        starts = np.add.accumulate(np.r_[t, np.full(m, h)])
        times = np.empty(2 * m + 1)
        times[0::2] = starts
        times[1::2] = starts[:-1] + 0.5 * h
        t = starts[-1]
        gens = models.assemble_generator(model, times)
        g_start, g_mid, g_end = gens[0:-1:2], gens[1::2], gens[2::2]
        k2 = g_mid + 0.5 * h * (g_mid @ g_start)
        k3 = g_mid + 0.5 * h * (g_mid @ k2)
        k4 = g_end + h * (g_end @ k3)
        steps = eye + (h / 6.0) * (g_start + 2.0 * k2 + 2.0 * k3 + k4)
        v = _ordered_product(steps) @ v
    return v


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """The product ``mats[m-1] @ ... @ mats[0]`` of a stack, reduced pairwise
    with one batched product per level; an odd one out is carried up."""
    while len(mats) > 1:
        odd = len(mats) % 2
        pairs = mats[1::2] @ mats[0:len(mats) - odd:2]
        mats = np.concatenate((pairs, mats[-1:])) if odd else pairs
    return mats[0]


def advance(model, v: np.ndarray, t0: float, t1: float,
            step: Optional[float] = None,
            cache: Optional[PropagatorCache] = None) -> np.ndarray:
    """Step flattened state columns, a vector or a D x k matrix, from t0 to
    t1 (absolute times): through ``cache`` when given, by RK4 otherwise.
    A zero span returns ``v`` itself."""
    if t1 == t0:
        return v
    if cache is None:
        return _rk4_span(model, v, t0, t1, step)
    return cache.at(t1 - t0) @ v


def _columns(model, states) -> np.ndarray:
    """States, with any leading batch axes, as the columns of a D x k matrix."""
    v = models.flatten_state(model, states)
    return v.reshape(-1, v.shape[-1]).T


def _check_trace_drift(model, states, trace0, times) -> None:
    """Raise NumericalDriftError, naming the first such time, if a state of
    the series ``states`` (leading axis one per time) has a trace beyond
    1e-8 of ``trace0`` or a non-finite trace."""
    # the worst state per time; a NaN trace makes the maximum NaN
    dev = np.abs(models.state_trace(model, states) - trace0)
    drift = dev.reshape(len(states), -1).max(axis=1)
    bad = np.flatnonzero(~(drift <= TRACE_DRIFT_TOL))
    if bad.size:
        i = bad[0]
        raise NumericalDriftError(f"trace drift {drift[i]:.2e} at "
                                  f"t={times[i]:g} exceeds {TRACE_DRIFT_TOL:g}")


def propagate_interval(model, state, t0: float, t1: float,
                       step: Optional[float] = None):
    """Evolve bipartite states, with any leading batch axes, from t0 to t1
    (absolute times); trace drift as in :func:`propagate` raises."""
    v = advance(model, _columns(model, state), t0, t1, step,
                stepping_cache(model))
    out = models.unflatten_state(model, v.T).reshape(np.shape(state))
    _check_trace_drift(model, out[None], models.state_trace(model, state), [t1])
    return out


# entries of the block of states that ``propagate`` re-symmetrizes and
# checks at once, which keeps its temporaries at about 64 kB beside the
# series it returns
_SERIES_BLOCK_ENTRIES = 2 ** 12


def propagate(model, state0, grid: TimeGrid, stepper: str = "auto"):
    """State series over the grid, shape (nt,) + the shape of ``state0``,
    whose leading batch axes are stepped as the columns of one matrix.

    ``stepper`` is "auto" (exponentials when the generator is constant) or
    "rk4".  The loop only steps the columns and stores them; the stored
    series is then re-symmetrized in place and checked, a block of times at
    a time, so the symmetrized states are outputs only.  Trace drift of any
    state beyond 1e-8 (or a non-finite trace) raises, naming the first such
    time; states are never re-normalized.
    """
    cache = stepping_cache(model, stepper)
    v = _columns(model, state0)
    flat = np.empty((grid.times.size,) + v.T.shape, dtype=complex)
    prev_t = 0.0
    for i, t in enumerate(grid.times):
        v = advance(model, v, prev_t, t, grid.step, cache)
        flat[i] = v.T
        prev_t = t
    states = models.unflatten_state(model, flat).reshape(
        grid.times.shape + np.shape(state0))
    trace0 = models.state_trace(model, state0)
    block = max(1, _SERIES_BLOCK_ENTRIES // v.size)
    for first in range(0, grid.times.size, block):
        part = states[first:first + block]
        part[...] = models.resymmetrized(model, part)
        _check_trace_drift(model, part, trace0, grid.times[first:first + block])
    return states


# ---------------------------------------------------------------------------
# closed-form depolarizing solutions
# ---------------------------------------------------------------------------

def _require_rates(gamma: float, phi: float) -> None:
    if not (0 < gamma < np.inf and 0 < phi < np.inf
            and gamma + phi < np.inf):  # NaN fails
        raise InvariantViolation(f"rates gamma={gamma:g}, phi={phi:g} must be "
                                 "finite and positive with a finite sum")


def depolarizing_weight(gamma: float, phi: float, t):
    """Channel weight w(t) for stationary initial environment populations.

    w(t) = (g^2 + 3 f^2) / (3 (g+f)^2)
         + 4 g f e^{-(g+f) t} / (3 (g+f)^2)
         + 2 g e^{-f t} / (3 (g+f))
    """
    _require_rates(gamma, phi)
    t = np.asarray(t, dtype=float)
    gp = gamma + phi
    try:
        out = ((gamma ** 2 + 3 * phi ** 2) / (3 * gp ** 2)
               + (4 * gamma * phi) / (3 * gp ** 2) * np.exp(-gp * t)
               + (2 * gamma) / (3 * gp) * np.exp(-phi * t))
    except OverflowError:  # a Python float squared past the float range
        out = np.nan
    if not np.isfinite(out).all():
        raise NumericalDriftError(
            f"channel weight is not finite at gamma={gamma:g}, phi={phi:g}")
    return out if out.ndim else float(out)


def trace_distance_factor(gamma: float, phi: float, t):
    """Universal trace-distance decay factor |4 w(t) - 1| / 3."""
    w = depolarizing_weight(gamma, phi, t)
    out = np.abs(4.0 * np.asarray(w) - 1.0) / 3.0
    return out if out.ndim else float(out)


def stationary_populations(gamma: float, phi: float):
    """Long-time environment populations, returned as (p4, p1, p2, p3)."""
    _require_rates(gamma, phi)
    gp = gamma + phi
    p4 = phi / gp
    pk = gamma / (3.0 * gp)
    return p4, pk, pk, pk


def stationary_populations_vector(gamma: float, phi: float) -> np.ndarray:
    """Populations in label order (p1, p2, p3, p4)."""
    p4, pk, _, _ = stationary_populations(gamma, phi)
    return np.array([pk, pk, pk, p4])


_PAULI_PRODUCT = np.zeros((4, 4), dtype=int)
for _k in range(1, 5):
    for _m in range(1, 5):
        if _k == 4:
            _r = _m
        elif _m == 4:
            _r = _k
        elif _k == _m:
            _r = 4
        else:
            _r = 6 - _k - _m
        _PAULI_PRODUCT[_k - 1, _m - 1] = _r - 1


def _coefficient_matrix(gamma: float, phi: float) -> np.ndarray:
    """Linear ODE matrix for the 16 Pauli-channel coefficients.

    Coefficient (k, j) multiplies the j-th Pauli conjugation inside the
    unnormalized system block attached to environment label k; flattened
    index is 4*k + j with labels 0..3 (3 = identity / fourth level).
    """
    a = np.zeros((16, 16))

    def idx(k, j):
        return 4 * k + j

    for m in range(4):
        a[idx(3, m), idx(3, m)] -= gamma
        for k in range(3):
            a[idx(3, m), idx(k, _PAULI_PRODUCT[k, m])] += phi
            a[idx(k, m), idx(k, m)] -= phi
            a[idx(k, m), idx(3, _PAULI_PRODUCT[k, m])] += gamma / 3.0
    return a


@dataclass(frozen=True)
class ChannelCoefficients:
    """Pauli-channel coefficients g[k][j] on a time grid, shape (nt, 4, 4)."""

    times: np.ndarray
    coeffs: np.ndarray

    def weight(self) -> np.ndarray:
        """Depolarizing weight: identity-channel column summed over labels."""
        return self.coeffs[:, :, 3].sum(axis=1)

    def populations(self) -> np.ndarray:
        """Environment populations p_k(t), shape (nt, 4)."""
        return self.coeffs.sum(axis=2)

    def channel_column(self, j: int) -> np.ndarray:
        """Total weight of the j-th Pauli conjugation (j = 0, 1, 2 for x, y, z)."""
        return self.coeffs[:, :, j].sum(axis=1)


def solve_channel_coefficients(gamma: float, phi: float, populations0,
                               grid: TimeGrid,
                               modulation: Optional[Callable] = None
                               ) -> ChannelCoefficients:
    """Integrate the 16 coupled coefficient ODEs with fixed-step RK4.

    Initial data: the identity column carries the initial populations,
    every other column starts at zero.
    """
    _require_rates(gamma, phi)
    pops = np.asarray(populations0, dtype=float)
    if pops.size != 4 or pops.min() < 0 or abs(pops.sum() - 1.0) > 1e-12:
        raise InvariantViolation("populations0 must be 4 normalized weights")
    g = np.zeros(16)
    g[3::4] = pops  # g[k, identity] = p_k(0)
    a_gamma = _coefficient_matrix(1.0, 0.0)
    a_phi = _coefficient_matrix(0.0, 1.0)
    a_fixed = gamma * a_gamma + phi * a_phi

    def a_at(t: float) -> np.ndarray:
        if modulation is None:
            return a_fixed
        b = float(modulation(t))
        if not abs(b) < 1.0:  # NaN fails
            raise InvariantViolation("modulation must stay inside (-1, 1)")
        return gamma * (1 + b) * a_gamma + phi * (1 - b) * a_phi

    times = grid.times
    out = np.empty((times.size, 16))
    pos = 0
    if times[0] == 0.0:
        out[0] = g
        pos = 1
    t = 0.0
    h_max = grid.step
    for i in range(pos, times.size):
        target = times[i]
        n = max(1, int(np.ceil((target - t) / h_max - 1e-12)))
        h = (target - t) / n
        for _ in range(n):
            k1 = a_at(t) @ g
            k2 = a_at(t + 0.5 * h) @ (g + 0.5 * h * k1)
            k3 = a_at(t + 0.5 * h) @ (g + 0.5 * h * k2)
            k4 = a_at(t + h) @ (g + h * k3)
            g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        total = g.sum()
        if not abs(total - 1.0) <= TRACE_DRIFT_TOL:
            raise NumericalDriftError(
                f"coefficient normalization drift {abs(total-1):.2e} at t={t:g}"
            )
        out[i] = g
    return ChannelCoefficients(times=np.array(times),
                               coeffs=out.reshape(-1, 4, 4))


def adiabatic_weight(gamma: float, phi: float, b, t, populations0=None):
    """Slow-modulation channel weight in the long-time regime.

    The populations relax to the instantaneous stationary values while the
    coefficient dynamics conserves the total weight of the identity-plus-
    matching-Pauli columns; the surviving weight is the overlap of the
    initial populations with the instantaneous stationary ones:

        w(t) = sum_k p_k(0) * p_k_stationary(t)

    with p_4_stat(t) = phi(t)/(gamma(t)+phi(t)) and
    p_k_stat(t) = gamma(t)/(3 (gamma(t)+phi(t))) evaluated at the modulated
    rates.  Valid for slow drives once the initial transient has decayed.
    """
    _require_rates(gamma, phi)
    if abs(gamma - phi) / (gamma + phi) > 0.2:
        warnings.warn(
            "adiabatic weight assumes nearly balanced rates; "
            f"|gamma-phi|/(gamma+phi) = {abs(gamma-phi)/(gamma+phi):.2f}",
            stacklevel=2,
        )
    t = np.asarray(t, dtype=float)
    bt = np.asarray(b(t) if callable(b) else b, dtype=float)
    if not np.all(np.abs(bt) < 1.0):  # NaN fails
        raise InvariantViolation("modulation must stay inside (-1, 1)")
    if populations0 is None:
        populations0 = stationary_populations_vector(gamma, phi)
    pops = np.asarray(populations0, dtype=float)
    gamma_t = gamma * (1.0 + bt)
    phi_t = phi * (1.0 - bt)
    total = gamma_t + phi_t
    p4_inst = phi_t / total
    pk_inst = gamma_t / (3.0 * total)
    out = pops[3] * p4_inst + pops[:3].sum() * pk_inst
    return out if out.ndim else float(out)


def coherent_weight_series(gamma: float, phi: float, omega: float,
                           grid: TimeGrid) -> np.ndarray:
    """Fourth-level environment population p4(t) under the coherent drive.

    Integrates the four-level environment Lindblad dynamics (jumps 4->k at
    rate gamma/3, k->4 at rate phi, drive (omega/2)(|k><4| + h.c.)) from the
    pure fourth level and returns p4 on the grid.  With no drive this
    coincides with the depolarizing channel weight started from that level.

    ``|4 p4 - 1| / 3`` is the reduced trace-distance factor only for a drive
    that also kicks the qubit; it is not the trace distance of
    ``DepolarizingModel(omega=...)``, whose drive acts on the environment
    alone (they differ by up to 0.25 at omega = 0.5 and 0.72 at omega = 5).
    """
    _require_rates(gamma, phi)
    if not 0 <= omega < np.inf:  # NaN fails
        raise InvariantViolation("drive frequency must be finite and non-negative")
    driven = models._depolarizing_general(gamma, phi, omega, stacked=False)
    cache = PropagatorCache(driven.env_generator())
    env = np.zeros((4, 4), dtype=complex)
    env[3, 3] = 1.0
    v = vec(env)
    level4 = np.empty(grid.times.size, dtype=complex)
    prev_t = 0.0
    for i, t in enumerate(grid.times):
        v = advance(None, v, prev_t, t, cache=cache)
        level4[i] = v[15]  # <4|env|4>, entry 3 + 4 * 3 of the stacked columns
        prev_t = t
    out = level4.real
    if not np.isfinite(out).all():
        raise NumericalDriftError(
            f"level-4 population is not finite at omega={omega:g}")
    return out
