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
stepping is not: it works in the generator's block form (the four Pauli
blocks of a depolarizing model), and a run of gaps with one substep count
shares one assembly of its stage generators, each gap one product of its
step matrices.
Every change of basis, into the Hermitian basis (:func:`_hermitian_basis`)
or the Pauli blocks and back, is a gather applied by
:func:`~qflow.qcore.gathered`.
Every stepper has ``step_columns(out, v, t0, times)``, and the two caches
``carry_rows(out, rows, taus)`` for readout rows; each writes a series in
place.  A cache fills a run of gaps that share its key by powers of the
run's propagator squared while that saves numpy calls (about log2 of the
run's length products for a small propagator).
A short run of an uncached gap on a large generator (D >= 182) skips the
exponential when that costs fewer multiply-adds: the columns, or the
readout rows through G^T, are taken across each gap by the action of
exp(G dt), truncated Taylor series with scaling (Al-Mohy & Higham, SIAM
J. Sci. Comput. 33, 488 (2011)), in the exponent's real basis; the
result is within about 2e-15 (relative) of the exponential.
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
    gathered,
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


@functools.cache
def _hermitian_basis(nblocks: int, b: int) -> tuple:
    """The gathers (:func:`~qflow.qcore.gathered`) of T, conj(T), T^dag and
    T^T, for the unitary change T of flattened operators, ``nblocks``
    column-stacked b x b blocks, into the orthonormal Hermitian basis of
    each block: E_ii, then (E_ij + E_ji)/sqrt(2) and i (E_ij - E_ji)/sqrt(2)
    for i < j.  A Hermiticity-preserving generator G is real in it, as
    T G T^dag.  Every row and column of T holds at most two entries: row k
    of T has the weights ``w[:, k]`` at the flat positions ``src[:, k]``,
    row a of T^dag the weights ``wd[:, a]`` at the coordinates ``dst[:, a]``
    (a diagonal pairs with itself at weight 0)."""
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
    gathers = []
    for index, weight in ((src, w), (src, w.conj()), (dst, wd), (dst, wd.conj())):
        gather = ((index[:, None, :] + offsets).reshape(2, -1),
                  np.tile(weight, nblocks))
        for a in gather:  # shared by every cache of a layout
            a.setflags(write=False)
        gathers.append((tuple(gather[0]), tuple(gather[1])))
    return tuple(gathers)


def _conjugated(m: np.ndarray, gather, conj_gather) -> np.ndarray:
    """A m A^dag for the A of ``gather`` and the conj(A) of ``conj_gather``:
    A m, then its transpose taken by conj(A), so the result is the
    transpose of a C-contiguous array."""
    return gathered(gathered(m, gather).T, conj_gather).T


class PropagatorCache:
    """Cached propagators of one time-independent generator, keyed by time
    gap: its matrix exponential.  Given the gathers of a Hermitian basis
    (as :func:`stepping_cache` gives a complex generator, from
    :func:`_hermitian_basis`), the generator is changed once into that
    basis, T G T^dag, where it is real, exponentiated in real arithmetic and
    changed back, T^dag R T.  A run of gaps whose propagator is not cached
    may be stepped by the exponential's action instead, in the same basis
    (:meth:`_taylor_plan`)."""

    def __init__(self, generator: Optional[np.ndarray],
                 basis: Optional[tuple] = None):
        self._basis = basis
        self._exponent = (generator if basis is None
                          else _conjugated(generator, *basis[:2]).real)
        self._cache = {}

    def at(self, dt: float) -> np.ndarray:
        key = float(_gap_key(float(dt)))
        if key not in self._cache:
            self._cache[key] = self._propagator(float(dt))
        return self._cache[key]

    def _propagator(self, dt: float) -> np.ndarray:
        p = matrix_exp(_scaled(self._exponent, dt))
        if self._basis is None:
            return p
        # C-contiguous, as every other propagator the products apply; the
        # exponent needs no copy, since matrix_exp copies its input to C order
        return np.ascontiguousarray(_conjugated(p.real, *self._basis[2:]))

    def step_columns(self, out: np.ndarray, v: np.ndarray, t0: float,
                     times: np.ndarray) -> None:
        """out[i] = the D x k columns ``v`` stepped from t0 to times[i]."""
        self._through(out, v, _gaps(times, t0), rows=False)

    def carry_rows(self, out: np.ndarray, rows: np.ndarray,
                   taus: np.ndarray) -> None:
        """out[i] = rows @ Phi(taus[i]), for increasing ``taus``."""
        self._through(out, rows, _gaps(taus, 0.0), rows=True)

    def _through(self, out, x, gaps, rows: bool) -> None:
        """out[i] = x taken across gaps[:i + 1], as columns or as ``rows``:
        each run of gaps with one cache key by the Taylor action when
        :meth:`_taylor_plan` gives one, else from powers of its propagator;
        a run of key 0 (gaps within 5e-13 of zero, whose propagator is the
        identity) by a copy."""
        keys = _gap_key(gaps)
        for first, stop in _runs(keys):
            run, dt = out[first:stop], gaps[first]
            if keys[first] == 0:
                run[...] = x
            elif plan := self._taylor_plan(keys[first], dt, len(run), x.size):
                self._act(run, x, dt, plan, rows)
            else:
                _by_squaring(run, x, self.at(dt),
                             self._carried if rows else self._stepped)
            x = run[-1]

    @functools.cached_property
    def _shifted(self):
        """(A, mu, ||A||_1) with A = G - mu I and mu = tr G / D, for the
        exponent G, taken real when it has no imaginary part."""
        g = self._exponent
        a = (g.real if not g.imag.any() else g).copy()
        mu = np.trace(a) / len(a)
        a.flat[::len(a) + 1] -= mu
        return a, mu, float(np.abs(a).sum(axis=0).max())

    def _taylor_plan(self, key, dt: float, n: int, size: int):
        """The degree and steps (m, s) of the Taylor action that takes
        ``size`` entries (k columns or rows of length D) across n gaps dt of
        an uncached ``key``, when that costs fewer multiply-adds than the
        exponential, else None.  Only where D^2 is at least four numpy
        calls' worth of multiply-adds, so that the action's products are
        bound by arithmetic: each of its at most m s products per gap costs
        D^2 times its width (2k float columns when A is real, else k) plus
        a call, against ``_EXPM_PRODUCTS`` D^3 for the exponential and D^2 k
        per gap to apply it.  The cost of a non-finite or huge
        ||A||_1 dt is not finite, which never takes the action."""
        if self._exponent is None or key in self._cache:
            return None
        d = len(self._exponent)
        if d * d < 4 * _CALL_MACS:
            return None
        a, _, norm = self._shifted
        k = size // d
        width = 2 * k if np.isrealobj(a) else k
        with np.errstate(over="ignore"):
            steps = np.maximum(np.ceil(norm * dt / _TAYLOR_THETA), 1.0)
        best = np.argmin(_TAYLOR_DEGREES * steps)  # the first of a tie
        m, s = _TAYLOR_DEGREES[best], steps[best]
        action = n * m * s * (d * d * width + _CALL_MACS)
        dense = (_EXPM_PRODUCTS * d + n * k) * d * d
        return (int(m), int(s)) if action < dense else None  # NaN fails

    def _act(self, run: np.ndarray, x: np.ndarray, dt: float, plan,
             rows: bool) -> None:
        """run[j] = x taken across j + 1 gaps dt by :func:`_taylor_step`
        with A and mu of :attr:`_shifted`.  Columns are changed into the
        exponent's basis once, by T, and each gap's result back by T^dag;
        readout rows are stepped as the columns of their transpose under
        A^T, changed by conj(T) and T^T.  A complex block is stepped as
        float pairs when A is real, so each term is one real product."""
        a, mu, _ = self._shifted
        d = len(a)
        if rows:
            a, x = a.T, x.reshape(-1, d).T
        if self._basis is None:
            y = np.array(x, dtype=complex, order="C")
        else:  # (T, T^dag) for columns, (conj(T), T^T) for rows
            into, back = self._basis[rows::2]
            y = gathered(x, into)
        real = np.isrealobj(a)
        for entry in run:
            y = _taylor_step(a, mu, y.view(float) if real else y, dt, *plan)
            y = y.view(complex) if real else y
            cols = y if self._basis is None else gathered(y, back)
            entry[...] = cols.T.reshape(entry.shape) if rows else cols

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


# the Taylor degrees m and the 1-norms theta_m up to which m terms of
# exp(A) b meet double precision (Al-Mohy & Higham, "Computing the action of
# the matrix exponential", SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1,
# and Higham, "Functions of Matrices", Table A.3)
_TAYLOR_DEGREES = np.array(list(range(1, 31)) + [35, 40, 45, 50, 55])
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08,
    3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9])

# D^3 multiply-adds of one dense exponential where the action can win
# (degree-13 Pade: five products, a solve and a squaring or two)
_EXPM_PRODUCTS = 8


def _taylor_step(a: np.ndarray, mu, b: np.ndarray, dt: float, m: int,
                 s: int) -> np.ndarray:
    """exp((a + mu I) dt) b as s steps of at most m Taylor terms of
    exp(a dt / s), each step scaled by exp(mu dt / s), a term stopping its
    step early once it and the one before fall below 2^-53 of the sum
    (Al-Mohy & Higham 2011, Algorithm 3.2, with the largest entry as the
    norm of a block)."""
    eta = np.exp(mu * dt / s)
    f = b
    for _ in range(s):
        b, f = f, f.copy()
        c1 = np.abs(b).max()
        for j in range(1, m + 1):
            b = a @ b
            b *= dt / (s * j)
            f += b
            c2 = np.abs(b).max()
            if c1 + c2 <= 2.0 ** -53 * np.abs(f).max():
                break
            c1 = c2
        f *= eta
    return f


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
        _rk4_span(self.model, out, v, t0, times, self.step)


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


# entries in one RK4 stack of stage generators, which keeps its memory small:
# 256 kB of float64 at 2^15, the 511 stage times of 255 substeps in the four
# 4 x 4 Pauli blocks of the stacked depolarizing model, so that five unit
# gaps at step 0.02 (505 stage times) share one stack
_RK4_STACK_ENTRIES = 2 ** 15

# most substeps one RK4 gap may take, about two minutes of stepping a pair
# of states at D = 16 (2 cores, OpenBLAS); the longest gap in the tests and
# CLI defaults takes 7,500.  A longer gap is refused before any stepping.
_RK4_MAX_SUBSTEPS = 10 ** 7


# a substep far too long overflows to non-finite columns, which the callers'
# trace and tensor checks report
@np.errstate(over="ignore", invalid="ignore")
def _rk4_span(model, out: np.ndarray, v: np.ndarray, t0: float,
              times: np.ndarray, step: Optional[float] = None) -> None:
    """out[i] = the D x k columns ``v`` integrated by fixed-step RK4 from t0
    to times[i]; each gap takes the fewest equal substeps of at most
    ``step``, and a zero gap copies.

    The generators come in the block form of ``assemble_generator``, so the
    columns are changed once into its basis by a gather and each stack of
    results back.  A substep from t to t + h needs the generator at t,
    t + h/2 and t + h, and its end is the next substep's start, so a gap of
    m substeps has 2 m + 1 distinct stage times; they are one running sum
    ``t += h`` from the gap's start, bit for bit.  A run of gaps with one
    substep count shares one ``assemble_generator`` call, as many gaps as
    keep the stack within ``_RK4_STACK_ENTRIES`` entries (255 substeps in
    the stacked depolarizing model's blocks, 15 in its full ones, 63 in one
    block at D = 16); a gap longer than that takes a stack per part.  A
    stack lists each gap's substep ends before its midpoints, so that the
    three stages are contiguous slices of it.
    With G1, G2, G3 the generators at t, t + h/2, t + h, a substep is
    v -> S v with

        K2 = G2 (I + (h/2) G1),   K3 = G2 (I + (h/2) K2),   K4 = G3 (I + h K3),
        S = I + (h/6) (G1 + 2 (K2 + K3) + K4),

    built for the whole stack with three batched products, each identity
    added on a diagonal view and the sum accumulated in place; each gap's
    product S_{m-1} ... S_0 (:func:`_ordered_product`) then steps the
    columns once.  That reorders the roundings only: the result is within
    1e-13 (relative) of the substep-by-substep columns.  A gap of more than
    ``_RK4_MAX_SUBSTEPS`` substeps raises InvariantViolation before any
    stepping.
    """
    if step is None:
        step = default_rk4_step(model)
    starts = np.concatenate(([t0], times[:-1]))
    gaps = times - starts
    spans = gaps / step
    bad = np.flatnonzero(~(spans <= _RK4_MAX_SUBSTEPS))  # NaN fails
    if bad.size:
        i = bad[0]
        raise InvariantViolation(
            f"span {starts[i]:g} to {times[i]:g} needs {spans[i]:.3g} RK4 "
            f"substeps of {step:g}, more than {_RK4_MAX_SUBSTEPS:g}")
    counts = np.where(gaps == 0, 0, np.maximum(1, np.ceil(spans - 1e-12)))
    h = gaps / np.maximum(counts, 1)
    nb, into, back = models.block_basis(model)
    d, k = v.shape
    y = (v if into is None else gathered(v, into)).reshape(nb, -1, k)
    stack_times = _RK4_STACK_ENTRIES // (d * d // nb)
    block = max(1, (stack_times - 1) // 2)  # substeps one stack holds
    for first, stop in _runs(counts):
        n = int(counts[first])
        if n == 0:
            out[first:stop] = out[first - 1] if first else v
            continue
        per = max(1, stack_times // (2 * n + 1))
        for lo in range(first, stop, per):
            hi = min(stop, lo + per)
            hh = h[lo:hi, None]
            w = hh[:, :, None, None, None]  # h of each gap, against the stack
            t = starts[lo:hi]
            ys = np.empty((hi - lo,) + y.shape, dtype=complex)
            for done in range(0, n, block):
                m = min(block, n - done)
                # per gap, the m + 1 ends of its substeps, then the m midpoints
                stage = np.empty((hi - lo, 2 * m + 1))
                ends = stage[:, :m + 1]
                ends[:, 0], ends[:, 1:] = t, hh
                np.add.accumulate(ends, axis=1, out=ends)
                np.add(ends[:, :-1], 0.5 * hh, out=stage[:, m + 1:])
                t = ends[:, -1]
                gens = models.assemble_generator(model, stage, blocks=True)
                g1, g2, g3 = gens[:, :m], gens[:, m + 1:], gens[:, 1:m + 1]
                # ``lhs`` holds I + (h/2) G1, I + (h/2) K2, I + h K3 in turn
                lhs = _add_identity(np.multiply(g1, 0.5 * w))
                k2 = g2 @ lhs
                k3 = g2 @ _add_identity(np.multiply(k2, 0.5 * w, out=lhs))
                _add_identity(np.multiply(k3, w, out=lhs))
                steps = k2  # G1 + 2 (K2 + K3) + K4, accumulated in place
                steps += k3
                steps *= 2.0
                steps += g1
                steps += np.matmul(g3, lhs, out=k3)
                steps *= w / 6.0
                for j, p in enumerate(_ordered_product(_add_identity(steps))):
                    y = ys[j] = p @ y
            cols = ys.reshape(hi - lo, d, k)
            out[lo:hi] = cols if back is None else gathered(cols, back)


def _add_identity(stack: np.ndarray) -> np.ndarray:
    """``stack`` with I added to each of its matrices in place, through a
    flat view of the diagonals; ``stack`` must be C-contiguous."""
    n = stack.shape[-1]
    stack.reshape(-1, n * n)[:, ::n + 1] += 1.0
    return stack


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """The products ``mats[i, m-1] @ ... @ mats[i, 0]`` of a (g, m, ...)
    stack, reduced pairwise along its axis 1 with one batched product per
    level; an odd one out is copied into the last slot of the next level."""
    while mats.shape[1] > 1:
        half, odd = divmod(mats.shape[1], 2)
        pairs = np.empty(mats.shape[:1] + (half + odd,) + mats.shape[2:],
                         dtype=mats.dtype)
        np.matmul(mats[:, 1::2], mats[:, 0:2 * half:2], out=pairs[:, :half])
        if odd:
            pairs[:, half] = mats[:, -1]
        mats = pairs
    return mats[:, 0]


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
    backwards or are not finite raise InvariantViolation before any
    stepping.  The stored series is then re-symmetrized in place and
    checked, a block of times at a time: trace drift of any state beyond
    1e-8 (or a non-finite trace) raises, naming the first such time.
    States are never re-normalized."""
    times = np.asarray(times, dtype=float)
    if not (np.isfinite(t0) and np.isfinite(times).all()
            and np.all(np.diff(times, prepend=t0) >= 0)):
        raise InvariantViolation(
            f"times from t0={t0:g} must be finite and must not decrease")
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


# with x, y, z, 1 as 0-3, sigma_k sigma_m is sigma_r, r = 3 ^ k ^ m, times a phase
_PAULI_PRODUCT = 3 ^ np.arange(4)[:, None] ^ np.arange(4)


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
