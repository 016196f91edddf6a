"""Propagation of bipartite states and closed-form depolarizing solutions.

Time is measured in units of the inverse base rate throughout; the default
grid step keeps the fastest rate resolved to one percent.  Propagation
steps flattened state columns, so a batch of states shares every
propagator.  :func:`stepping_cache` alone picks how a model is stepped,
as one of three steppers: cached matrix exponentials of a constant
generator (taken in real arithmetic in a Hermitian operator basis when it
is complex), the N x N unitaries of a closed model from one ``eigh`` of
its Hamiltonian (so its (ds de)^2-square superoperator is never built), or
fixed-step RK4 for modulated rates, reproducible run to run where adaptive
stepping is not: a block of up to 63 substeps (at D = 16) is one assembly
of its stage generators and one product of its step matrices.
Every stepper has ``step_columns(out, v, t0, times)``, and the two caches
``carry_rows(out, rows, taus)`` for readout rows; each writes a series in
place.  A cache fills a run of gaps that share its key by powers of the
run's propagator squared while that saves numpy calls (about log2 of the
run's length products for a small propagator); RK4 steps gap by gap.
:func:`_propagate_through` is the one body that steps states, then
re-symmetrizes and checks the stored series, a block of times at a time.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import models
from .qcore import (
    InvariantViolation,
    NumericalDriftError,
    TRACE_DRIFT_TOL,
    check_increasing,
    check_probabilities,
    check_rate,
    check_rate_pair,
    matrix_exp,
    vec,
)


def default_step(*rates: float) -> float:
    """Default integration step, 0.01 over the fastest scale (at least 1)."""
    return 0.01 / max(1.0, *[abs(r) for r in rates])


def default_rk4_step(model) -> float:
    """Default RK4 substep of a depolarizing model, whose modulated rates
    stay below twice the base."""
    return default_step(2.0 * max(model.gamma, model.phi), model.omega)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at zero with a nominal step."""

    times: np.ndarray
    step: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if times.ndim != 1:
            raise InvariantViolation("grid times must be one-dimensional")
        check_increasing(times, "grid times")
        if not self.step > 0:
            raise InvariantViolation("grid step must be positive")

    @classmethod
    def regular(cls, t_max: float, step: float) -> "TimeGrid":
        """Times 0, step, 2 step, ... up to t_max: the last is t_max when
        that is within 1e-9 of a whole number of steps, and never past it."""
        if not (np.isfinite(step) and step > 0):
            raise InvariantViolation(f"grid step {step!r} must be finite and positive")
        if not (np.isfinite(t_max) and t_max >= 0):
            raise InvariantViolation(
                f"grid end time {t_max!r} must be finite and non-negative")
        try:
            n = int(round(t_max / step))
            if abs(n * step - t_max) > 1e-9 * max(1.0, t_max):
                n = int(np.floor(t_max / step))
            times = np.arange(n + 1) * step
        except (OverflowError, ValueError, MemoryError) as exc:
            raise InvariantViolation(f"grid to {t_max:g} at step {step:g} has "
                                     "too many points to allocate") from exc
        return cls(times=times, step=step)


class _HermitianBasis:
    """The unitary change T of flattened operators, ``nblocks`` column-stacked
    b x b blocks, into the orthonormal Hermitian basis of each block: E_ii,
    then (E_ij + E_ji)/sqrt(2) and i (E_ij - E_ji)/sqrt(2) for i < j.  A
    Hermiticity-preserving generator G is real in it, as T G T^dag.

    Every row and column of T holds at most two entries, so T G T^dag and
    T^dag R T are gathers over index arrays built once per layout: row k of
    T has the weights ``w[:, k]`` at the flat positions ``src[:, k]``, row a
    of T^dag the weights ``wd[:, a]`` at the coordinates ``dst[:, a]`` (a
    diagonal pairs with itself at weight 0)."""

    def __init__(self, nblocks: int, b: int):
        i, j = np.triu_indices(b, 1)
        diag = np.arange(b) * (b + 1)
        upper, lower = i + b * j, j + b * i  # flat positions of X[i, j], X[j, i]
        sym = np.arange(b, b + i.size)
        anti = sym + i.size
        s = np.sqrt(0.5)
        src = np.empty((2, b * b), dtype=np.intp)
        w = np.zeros((2, b * b), dtype=complex)
        src[:, :b], w[0, :b] = diag, 1.0
        src[:, sym], w[:, sym] = (lower, upper), s
        src[:, anti], w[:, anti] = (lower, upper), ((1j * s,), (-1j * s,))
        dst = np.empty((2, b * b), dtype=np.intp)
        wd = np.zeros((2, b * b), dtype=complex)
        dst[:, diag], wd[0, diag] = np.arange(b), 1.0
        dst[:, upper], wd[:, upper] = (sym, anti), ((s,), (1j * s,))
        dst[:, lower], wd[:, lower] = (sym, anti), ((s,), (-1j * s,))
        offsets = b * b * np.arange(nblocks)[:, None]
        self._into = ((src[:, None, :] + offsets).reshape(2, -1),
                      np.tile(w, nblocks))
        self._back = ((dst[:, None, :] + offsets).reshape(2, -1),
                      np.tile(wd, nblocks))
        for a in self._into + self._back:  # shared by every cache of a layout
            a.setflags(write=False)

    @staticmethod
    def _transform(m: np.ndarray, gather) -> np.ndarray:
        """A m A^dag for the A whose row k holds the weights ``weight[:, k]``
        at the columns ``index[:, k]``, ``gather = (index, weight)``."""
        (i0, i1), (w0, w1) = gather
        rows = m[i0] * w0[:, None] + m[i1] * w1[:, None]
        return rows[:, i0] * w0.conj() + rows[:, i1] * w1.conj()

    def into(self, g: np.ndarray) -> np.ndarray:
        """T g T^dag."""
        return self._transform(g, self._into)

    def back(self, r: np.ndarray) -> np.ndarray:
        """T^dag r T."""
        return self._transform(r, self._back)


@functools.cache
def _hermitian_basis(nblocks: int, b: int) -> _HermitianBasis:
    return _HermitianBasis(nblocks, b)


class PropagatorCache:
    """Cached propagators of one time-independent generator, keyed by time
    gap: its matrix exponential.  Given a Hermitian basis (as
    :func:`stepping_cache` gives a complex generator), the generator is
    changed once into that basis, where it is real, exponentiated in real
    arithmetic and changed back."""

    def __init__(self, generator: Optional[np.ndarray],
                 basis: Optional[_HermitianBasis] = None):
        self._basis = basis
        self._exponent = generator if basis is None else basis.into(generator).real
        self._cache = {}

    def at(self, dt: float) -> np.ndarray:
        key = float(_gap_key(float(dt)))
        if key not in self._cache:
            self._cache[key] = self._propagator(float(dt))
        return self._cache[key]

    def _propagator(self, dt: float) -> np.ndarray:
        p = matrix_exp(_scaled(self._exponent, dt))
        return p if self._basis is None else self._basis.back(p.real)

    def step_columns(self, out: np.ndarray, v: np.ndarray, t0: float,
                     times: np.ndarray) -> None:
        """out[i] = the D x k columns ``v`` stepped from t0 to times[i]."""
        self._through(out, v, _gaps(times, t0), self._stepped)

    def carry_rows(self, out: np.ndarray, rows: np.ndarray,
                   taus: np.ndarray) -> None:
        """out[i] = rows @ Phi(taus[i]), for increasing ``taus``."""
        self._through(out, rows, _gaps(taus, 0.0), self._carried)

    def _through(self, out, x, gaps, product) -> None:
        """out[i] = x taken across gaps[:i + 1] by ``product``: each run of
        gaps with one cache key from powers of its propagator, a run of key
        0 (gaps within 5e-13 of zero, whose propagator is the identity) by
        a copy."""
        keys = _gap_key(gaps)
        for first, stop in _runs(keys):
            run = out[first:stop]
            if keys[first] == 0:
                run[...] = x
            else:
                _by_squaring(run, x, self.at(gaps[first]), product)
            x = run[-1]

    @staticmethod
    def _stepped(src: np.ndarray, p: np.ndarray, dst: np.ndarray) -> None:
        """dst = p @ src for every column matrix of the stack ``src``."""
        np.matmul(p, src, out=dst)

    @staticmethod
    def _carried(src: np.ndarray, p: np.ndarray, dst: np.ndarray) -> None:
        """dst = src @ p, the rows of the stack ``src`` taken as one matrix."""
        d = p.shape[0]
        np.matmul(src.reshape(-1, d), p, out=dst.reshape(-1, d))


def _gaps(times: np.ndarray, t0: float) -> np.ndarray:
    """The gap before each of ``times``, the first from t0."""
    return times - np.concatenate(([t0], times[:-1]))


def _gap_key(gaps):
    """The cache key of a gap, or of each of an array of gaps: the gap in
    units of 1e-12, rounded half to even, so gaps that agree to 1e-12 share
    one propagator."""
    with np.errstate(over="ignore"):
        return np.rint(np.multiply(gaps, 1e12))


def _runs(keys: np.ndarray):
    """Bounds (first, stop) of the maximal runs of equal ``keys``."""
    if not keys.size:
        return ()
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    return zip([0] + cuts, cuts + [keys.size])


# complex multiply-adds that cost about as much as one numpy product call
# (about 2 us; 2 cores, OpenBLAS on one thread): the measure a squaring's
# D^3 multiply-adds are weighed against in ``_by_squaring``
_CALL_MACS = 2 ** 13


def _by_squaring(run: np.ndarray, x: np.ndarray, p: np.ndarray,
                 product) -> None:
    """run[j] = x taken by p^(j + 1) for every j, where ``product(src, p,
    dst)`` writes each entry of the stack ``src`` taken by p into ``dst``,
    in place.  With run[:done] filled and p^m in hand, the next m entries
    are run[done - m:done] taken by p^m, one product call; p is squared
    locally, and m doubled, while the calls that saves on the rest of the
    run cost more than its D^3 multiply-adds.  So a long run over a small
    propagator takes about log2(len(run)) calls, and a large propagator on
    a short run is never squared."""
    product(x[None], p, run[:1])
    m, done, cube = 1, 1, p.shape[0] ** 3
    while done < len(run):
        k = min(m, len(run) - done)
        product(run[done - m:done - m + k], p, run[done:done + k])
        done += k
        if len(run) - done > 2 * m * (1 + cube / _CALL_MACS):
            p, m = p @ p, 2 * m


def _scaled(generator: np.ndarray, dt: float) -> np.ndarray:
    """generator * dt, raising NumericalDriftError past the float range."""
    with np.errstate(over="ignore"):
        out = generator * dt
    if not np.isfinite(out).all():
        raise NumericalDriftError(f"generator times the gap {dt:g} overflows")
    return out


class _ClosedCache(PropagatorCache):
    """A closed model's propagators from one ``eigh`` (E, V) of its total
    Hamiltonian: the N x N unitary u = V diag(exp(-i E dt)) V^dag of each
    gap, applied to unflattened N x N matrices, so no N^2 x N^2
    superoperator is built."""

    def __init__(self, hamiltonian: np.ndarray):
        super().__init__(None)
        self.energies, self.vectors = np.linalg.eigh(hamiltonian)

    def _propagator(self, dt: float) -> np.ndarray:
        vecs = self.vectors
        return (vecs * np.exp(-1j * self.energies * dt)) @ vecs.conj().T

    @staticmethod
    def _stepped(src: np.ndarray, u: np.ndarray, dst: np.ndarray) -> None:
        # X -> u X u^dag; a column read as N x N in C order is X^T, which
        # goes to conj(u) X^T u^T: the columns as rows, carried by u^T
        _ClosedCache._carried(src.swapaxes(-1, -2), u.T, dst.swapaxes(-1, -2))

    @staticmethod
    def _carried(src: np.ndarray, u: np.ndarray, dst: np.ndarray) -> None:
        # E -> u^dag E u; a row read as N x N in C order is E^dag, which goes
        # alike: u^dag Z u for every row of the stack read as N x N
        n = u.shape[0]
        np.matmul(u.conj().T @ src.reshape(src.shape[:-1] + (n, n)), u,
                  out=dst.reshape(dst.shape[:-1] + (n, n)))


class _RK4Stepper:
    """Fixed-step RK4 at absolute times, with substeps of at most ``step``
    (the model's default when None).  It has no ``carry_rows``, since its
    stages sit at absolute times."""

    def __init__(self, model, step: Optional[float]):
        self.model, self.step = model, step

    def step_columns(self, out: np.ndarray, v: np.ndarray, t0: float,
                     times: np.ndarray) -> None:
        # gap by gap, as the stages sit at absolute times; a zero gap copies
        for i, t in enumerate(times):
            if t != t0:
                v = _rk4_span(self.model, v, t0, t, self.step)
            out[i] = v
            t0 = t


def stepping_cache(model, stepper: str = "auto",
                   step: Optional[float] = None):
    """The stepper of a model, whose ``step_columns`` steps flattened state
    columns (and ``carry_rows``, when it has one, carries readout rows):
    the one place that picks how a model is stepped.
    ``stepper`` is "auto" (exponentials when the generator is constant) or
    "rk4" (substeps of at most ``step``).  A closed model is diagonalized
    once in state space; a complex generator is exponentiated in the
    Hermitian basis of the representation's blocks (ds x ds per label when
    stacked, one N x N block when full)."""
    if stepper not in ("auto", "rk4"):
        raise InvariantViolation(f"unknown stepper {stepper!r}")
    if models.is_time_dependent(model) or stepper == "rk4":
        return _RK4Stepper(model, step)
    if isinstance(model, models.UnitaryModel):
        return _ClosedCache(model.total_hamiltonian())
    gen = models.assemble_generator(model)
    if not gen.imag.any():
        return PropagatorCache(gen)
    ds, de = models.dims(model)
    blocks = (de, ds) if models.uses_stacked(model) else (1, ds * de)
    return PropagatorCache(gen, _hermitian_basis(*blocks))


def series(stepper, v: np.ndarray, times, t0: float = 0.0) -> np.ndarray:
    """The columns ``v`` stepped from t0 through the increasing ``times``,
    stacked one entry per time: shape (len(times),) + v.shape.  The
    stepper writes the entries in place, as D x k columns."""
    times = np.asarray(times, dtype=float)
    cols = v.reshape(v.shape[0], -1)
    out = np.empty((times.size,) + cols.shape, dtype=complex)
    stepper.step_columns(out, cols, t0, times)
    return out.reshape((times.size,) + v.shape)


# entries in the stack of stage generators one RK4 block holds, which keeps
# its memory small: 256 kB of float64 at 2^15, the 127 stage times of 63
# substeps at D = 16, so a unit gap at step 0.02 (50 substeps) is one block
_RK4_STACK_ENTRIES = 2 ** 15

# most substeps one RK4 span may take, about two minutes of stepping a pair
# of states at D = 16 (2 cores, OpenBLAS); the longest span in the tests and
# CLI defaults takes 7,500.  A longer span is refused before any stepping.
_RK4_MAX_SUBSTEPS = 10 ** 7


# a substep far too long overflows to non-finite columns, which the callers'
# trace and tensor checks report
@np.errstate(over="ignore", invalid="ignore")
def _rk4_span(model, v: np.ndarray, t0: float, t1: float,
              step: Optional[float] = None) -> np.ndarray:
    """Fixed-step integration of flattened state columns from t0 to t1.

    A substep from t to t + h needs the generator at t, t + h/2 and t + h,
    and its end is the next substep's start, so one ``assemble_generator``
    call per block of m substeps builds the 2 m + 1 distinct stage times.
    A block holds as many substeps as keep that stack within
    ``_RK4_STACK_ENTRIES`` entries (63 at D = 16, 3 at D = 64).  The starts
    are one sequential sum, the same bits as ``t += h``.  With G1, G2, G3
    the generators at t, t + h/2, t + h, a substep is v -> S v with

        K2 = G2 (I + (h/2) G1),   K3 = G2 (I + (h/2) K2),   K4 = G3 (I + h K3),
        S = I + (h/6) (G1 + 2 (K2 + K3) + K4),

    built for the whole block with three batched products, each identity
    added on a diagonal view and the sum accumulated in place; the product
    S_{m-1} ... S_0 then steps the columns once.  That reorders the
    roundings only: the result is within 1e-13 (relative) of the
    substep-by-substep columns.  A span of more than ``_RK4_MAX_SUBSTEPS``
    substeps raises InvariantViolation.
    """
    if step is None:
        step = default_rk4_step(model)
    span = (t1 - t0) / step
    if not span <= _RK4_MAX_SUBSTEPS:  # NaN fails
        raise InvariantViolation(
            f"span {t0:g} to {t1:g} needs {span:.3g} RK4 substeps of {step:g}, "
            f"more than {_RK4_MAX_SUBSTEPS:g}")
    n = max(1, int(np.ceil(span - 1e-12)))
    h = (t1 - t0) / n
    block = max(1, (_RK4_STACK_ENTRIES // v.shape[0] ** 2 - 1) // 2)
    t = t0
    for first in range(0, n, block):
        m = min(block, n - first)
        starts = np.full(m + 1, h)
        starts[0] = t
        np.add.accumulate(starts, out=starts)
        times = np.empty(2 * m + 1)
        times[0::2] = starts
        times[1::2] = starts[:-1] + 0.5 * h
        t = starts[-1]
        gens = models.assemble_generator(model, times)
        g1, g2, g3 = gens[0:-1:2], gens[1::2], gens[2::2]
        # ``lhs`` holds I + (h/2) G1, I + (h/2) K2, I + h K3 in turn
        lhs = _add_identity(np.multiply(g1, 0.5 * h))
        k2 = g2 @ lhs
        k3 = g2 @ _add_identity(np.multiply(k2, 0.5 * h, out=lhs))
        _add_identity(np.multiply(k3, h, out=lhs))
        steps = k2  # G1 + 2 (K2 + K3) + K4, accumulated in place
        steps += k3
        steps *= 2.0
        steps += g1
        steps += np.matmul(g3, lhs, out=k3)
        steps *= h / 6.0
        v = _ordered_product(_add_identity(steps)) @ v
    return v


def _add_identity(stack: np.ndarray) -> np.ndarray:
    """``stack`` with I added to each of its matrices in place, through a
    flat view of the diagonals; ``stack`` must be C-contiguous."""
    stack.reshape(len(stack), -1)[:, ::stack.shape[-1] + 1] += 1.0
    return stack


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """The product ``mats[m-1] @ ... @ mats[0]`` of a stack, reduced pairwise
    with one batched product per level; an odd one out is carried up."""
    while len(mats) > 1:
        odd = len(mats) % 2
        pairs = mats[1::2] @ mats[0:len(mats) - odd:2]
        mats = np.concatenate((pairs, mats[-1:])) if odd else pairs
    return mats[0]


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


# entries of the block of states that ``_propagate_through`` re-symmetrizes
# and checks at once, which keeps its temporaries at about 64 kB beside the
# series it returns
_SERIES_BLOCK_ENTRIES = 2 ** 12


def _propagate_through(model, state, times, t0: float = 0.0,
                       step: Optional[float] = None,
                       stepper: str = "auto") -> np.ndarray:
    """States, with any leading batch axes, stepped by one stepper from t0
    through the non-decreasing absolute ``times`` (a zero span steps
    nothing): shape (len(times),) + the shape of ``state``.  Times that run
    backwards or are NaN raise InvariantViolation.  The stored series is
    then re-symmetrized in place and checked, a block of times at a time:
    trace drift of any state beyond 1e-8 (or a non-finite trace) raises,
    naming the first such time.  States are never re-normalized."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.diff(times, prepend=t0) >= 0):  # NaN fails
        raise InvariantViolation(
            f"times from t0={t0:g} must not decrease or be NaN")
    v = _columns(model, state)
    flat = series(stepping_cache(model, stepper, step), v, times, t0)
    states = models.unflatten_state(model, flat.swapaxes(1, 2)).reshape(
        times.shape + np.shape(state))
    trace0 = models.state_trace(model, state)
    block = max(1, _SERIES_BLOCK_ENTRIES // v.size)
    for first in range(0, times.size, block):
        part = states[first:first + block]
        part[...] = models.resymmetrized(model, part)
        _check_trace_drift(model, part, trace0, times[first:first + block])
    return states


def propagate_interval(model, state, t0: float, t1: float,
                       step: Optional[float] = None):
    """Bipartite states, with any leading batch axes, from t0 to t1
    (absolute times) by :func:`_propagate_through`."""
    return _propagate_through(model, state, [t1], t0, step)[0]


def propagate(model, state0, grid: TimeGrid, stepper: str = "auto"):
    """State series over the grid by :func:`_propagate_through`; ``stepper``
    is "auto" (exponentials when the generator is constant) or "rk4"."""
    return _propagate_through(model, state0, grid.times, step=grid.step,
                              stepper=stepper)


# ---------------------------------------------------------------------------
# closed-form depolarizing solutions
# ---------------------------------------------------------------------------

def depolarizing_weight(gamma: float, phi: float, t):
    """Channel weight w(t) for stationary initial environment populations.

    w(t) = (g^2 + 3 f^2) / (3 (g+f)^2)
         + 4 g f e^{-(g+f) t} / (3 (g+f)^2)
         + 2 g e^{-f t} / (3 (g+f))
    """
    check_rate_pair(gamma, phi)
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
    check_rate_pair(gamma, phi)
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
    every other column starts at zero.  Each grid gap is split into equal
    substeps of at most ``grid.step``.  With constant rates a substep of
    length h is the fixed RK4 step matrix
    S = I + hA(I + hA/2(I + hA/3(I + hA/4))), built once per distinct h
    (gaps can differ in the last bits of h); a modulated substep evaluates
    the four stages at their times.  The coefficient normalization is
    checked at every grid point.
    """
    check_rate_pair(gamma, phi)
    pops = np.asarray(populations0, dtype=float)
    check_probabilities(pops, "populations0")
    if pops.shape != (4,):
        raise InvariantViolation("populations0 must hold 4 weights")
    g = np.zeros(16)
    g[3::4] = pops  # g[k, identity] = p_k(0)
    a_gamma = _coefficient_matrix(1.0, 0.0)
    a_phi = _coefficient_matrix(0.0, 1.0)
    a_fixed = gamma * a_gamma + phi * a_phi
    eye = np.eye(16)
    steps = {}  # constant-rate step matrix per substep length

    def a_at(t: float) -> np.ndarray:
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
        if modulation is None:
            s = steps.get(h)
            if s is None:
                ha = h * a_fixed
                s = steps[h] = eye + ha @ (eye + ha / 2 @ (eye + ha / 3 @ (eye + ha / 4)))
            for _ in range(n):
                g = s @ g
                t += h
        else:
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


def adiabatic_weight(gamma: float, phi: float, b, t):
    """Slow-modulation channel weight in the long-time regime.

    The populations relax to the instantaneous stationary values while the
    coefficient dynamics conserves the total weight of the identity-plus-
    matching-Pauli columns; the surviving weight is the overlap of the
    initial populations, stationary at the base rates, with the
    instantaneous stationary ones:

        w(t) = sum_k p_k(0) * p_k_stationary(t)

    with p_4_stat(t) = phi(t)/(gamma(t)+phi(t)) and
    p_k_stat(t) = gamma(t)/(3 (gamma(t)+phi(t))) evaluated at the modulated
    rates.  Valid for slow drives once the initial transient has decayed.
    """
    check_rate_pair(gamma, phi)
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
    pops = stationary_populations_vector(gamma, phi)
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
    check_rate_pair(gamma, phi)
    check_rate(omega, "drive frequency")
    driven = models._depolarizing_general(gamma, phi, omega, stacked=False)
    env = np.zeros((4, 4), dtype=complex)
    env[3, 3] = 1.0
    # <4|env|4> is entry 3 + 4 * 3 of the column-stacked state
    out = series(PropagatorCache(driven.env_generator()), vec(env),
                 grid.times)[:, 15].real
    if not np.isfinite(out).all():
        raise NumericalDriftError(
            f"level-4 population is not finite at omega={omega:g}")
    return out
