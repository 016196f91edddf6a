"""Non-Markovianity diagnostics.

Two witnesses are provided.  The distinguishability witness propagates
two system preparations on one initial environment as one pair of states,
tracks the trace distance between them, flags revivals, and evaluates the
triangle-inequality bound that splits a revival into an environment-change
term plus two system-environment correlation terms.

The operational witness correlates the outcomes of three successive
projective measurements (past, present, future).  In the deterministic
scheme the conditional environment state after the intermediate
measurement is kept; in the random scheme the intermediate system state is
resampled from a stochastic policy and the environment is left
unconditioned.  A nonzero random-scheme correlation certifies that the
environment actually responds to the system.

Both witnesses evaluate a whole grid at once: the loops only step state
columns, and the trace distances, tensor checks and correlations run on
the stacked results.  One engine, ``_cpf_tensors``, computes the joint
tensors P[z, y, x] = Re Tr[Pi_z Phi_tau R_y Phi_t (Pi_x (x) rho_E)] on a
product grid of (t, tau) or on the equal-time diagonal; the single-point,
product-grid and equal-time functions are thin wrappers around it.  It
steps the past states once along the ts and builds the relays of a block
of ts at once.  When the stepper carries readout rows (a time-independent
model), outcome z at (t, tau) is (rows @ Phi(tau)) . relay(t): the rows
conj(flatten(Pi_z (x) 1_E)) are carried across the taus, each run of
equal gaps from powers of its propagator, and one matrix product per block
reads the product grid and the diagonal alike, with no exponential per t.
The RK4 stepper of modulated rates steps each t's relays across its taus
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models
from .evolve import (TimeGrid, _propagate_through, propagate, series,
                     stepping_cache)
from .qcore import (
    InvariantViolation,
    NumericalDriftError,
    check_increasing,
    check_probabilities,
    projector,
    random_unitary,
    trace_distance,
    validate_density_matrix,
)

TENSOR_NEGATIVITY_TOL = 1e-10
TENSOR_NORM_TOL = 1e-9
UNDEFINED_CONDITIONAL_TOL = 1e-12
REVIVAL_TOL = 1e-6


@dataclass(frozen=True)
class MeasurementSpec:
    """Projective measurement: orthonormal basis columns with real outcomes."""

    vectors: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=complex)
        outcomes = np.array(self.outcomes, dtype=float)
        vectors.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "outcomes", outcomes)
        if vectors.ndim != 2 or not vectors.shape[1]:
            raise InvariantViolation("basis must be a (dim, n) column matrix "
                                     "of one or more vectors")
        n = vectors.shape[1]
        if outcomes.size != n:
            raise InvariantViolation("one outcome value per basis vector required")
        if not np.all(np.isfinite(outcomes)):
            raise InvariantViolation("outcome values must be finite")
        with np.errstate(invalid="ignore", over="ignore"):
            gram = vectors.conj().T @ vectors
            off = np.abs(gram - np.eye(n)).max()
        if not off <= 1e-10:  # NaN fails
            raise InvariantViolation("basis is not orthonormal within 1e-10")

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[1]

    def ket(self, i: int) -> np.ndarray:
        return self.vectors[:, i]

    def projector(self, i: int) -> np.ndarray:
        return projector(self.vectors[:, i])

    @classmethod
    def z_basis(cls) -> "MeasurementSpec":
        """Qubit computational basis with outcomes +1 (up) and -1 (down)."""
        return cls(vectors=np.eye(2, dtype=complex), outcomes=(1.0, -1.0))

    @classmethod
    def from_unitary(cls, u: np.ndarray, outcomes=None) -> "MeasurementSpec":
        d = u.shape[0]
        if outcomes is None:
            outcomes = d - 1 - 2 * np.arange(d)
        return cls(vectors=u, outcomes=outcomes)


def random_measurement(rng: np.random.Generator, dim: int = 2) -> MeasurementSpec:
    return MeasurementSpec.from_unitary(random_unitary(rng, dim))


def tilted_measurement(theta: float) -> MeasurementSpec:
    """Qubit basis rotated by ``theta`` about the y axis, outcomes +1 / -1.

    Bases away from the poles and the equator resolve conditional rotations
    whose sense depends on the environment branch; the computational basis
    is blind to them.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    vectors = np.array([[c, -s], [s, c]], dtype=complex)
    return MeasurementSpec(vectors=vectors, outcomes=(1.0, -1.0))


@dataclass(frozen=True)
class RandomSchemePolicy:
    """Stochastic matrix p(resampled | past outcome), rows indexed by past."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2:
            raise InvariantViolation("policy must be a matrix")
        check_probabilities(matrix, "policy rows")

    @classmethod
    def uniform(cls, n_past: int, n_mid: int) -> "RandomSchemePolicy":
        return cls(np.full((n_past, n_mid), 1.0 / n_mid))


def random_policy(rng: np.random.Generator, n_past: int,
                  n_mid: int) -> RandomSchemePolicy:
    m = rng.uniform(size=(n_past, n_mid)) + 0.1
    return RandomSchemePolicy(m / m.sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class TdTrace:
    """Trace-distance series with revival flags and optional bound terms."""

    times: np.ndarray
    values: np.ndarray
    revivals: np.ndarray
    env_terms: Optional[np.ndarray] = None
    corr_rho: Optional[np.ndarray] = None
    corr_sigma: Optional[np.ndarray] = None

    def has_revival(self) -> bool:
        return bool(self.revivals.any())


@dataclass(frozen=True)
class BoundTerms:
    """One evaluation of the revival bound between t and t + tau."""

    increment: float
    env_term: float
    corr_rho: float
    corr_sigma: float

    @property
    def slack(self) -> float:
        return self.env_term + self.corr_rho + self.corr_sigma - self.increment


@dataclass(frozen=True)
class CpfResult:
    """Past-future correlations on a (t, tau) grid.

    ``values`` has shape (n_mid, nt, ntau) with NaN marking conditionals of
    negligible probability; ``tensors`` has shape (nt, ntau, nz, ny, nx).
    """

    ts: np.ndarray
    taus: np.ndarray
    scheme: str
    values: np.ndarray
    tensors: np.ndarray

    def max_abs(self) -> float:
        vals = self.values[~np.isnan(self.values)]
        return float(np.abs(vals).max()) if vals.size else 0.0


def reference_measurements() -> tuple[np.ndarray, tuple]:
    """Frozen qubit configuration: plus-state preparation, all measurements
    in the computational basis with outcomes +1 / -1."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    z = MeasurementSpec.z_basis()
    return projector(plus), (z, z, z)


# ---------------------------------------------------------------------------
# trace-distance witness
# ---------------------------------------------------------------------------

def _bound_terms(model, r, s) -> np.ndarray:
    """Rows: system trace distance, environment term and the two correlation
    terms of the pairs of bipartite states along the leading axis."""
    sys_r, sys_s = models.sys_marginal(model, r), models.sys_marginal(model, s)
    env_r, env_s = models.env_marginal(model, r), models.env_marginal(model, s)
    prod_r = models.product_with_env(model, sys_r, env_r)
    prod_s = models.product_with_env(model, sys_s, env_s)
    return np.array([trace_distance(sys_r, sys_s), trace_distance(env_r, env_s),
                     models.bipartite_trace_distance(model, r, prod_r),
                     models.bipartite_trace_distance(model, s, prod_s)])


def trace_distance_series(model, rho0s, sigma0s, env0=None,
                          grid: TimeGrid = None,
                          with_bound_terms: bool = False,
                          stepper: str = "auto") -> TdTrace:
    """Distinguishability of two system preparations over a time grid.

    Both preparations share the initial environment ``env0`` (the model
    default when omitted) and are propagated together as one pair.  A time
    is flagged as a revival when the next value rises by more than 1e-6.
    """
    if grid is None:
        raise InvariantViolation("a TimeGrid is required")
    pair = np.array([models.initial_state(model, rho0s, env0),
                     models.initial_state(model, sigma0s, env0)])
    series = propagate(model, pair, grid, stepper=stepper)
    series_r, series_s = series[:, 0], series[:, 1]
    if with_bound_terms:
        values, env_terms, corr_r, corr_s = _bound_terms(model, series_r, series_s)
    else:
        values = trace_distance(models.sys_marginal(model, series_r),
                                models.sys_marginal(model, series_s))
        env_terms = corr_r = corr_s = None
    revivals = np.zeros(values.size, dtype=bool)
    revivals[:-1] = np.diff(values) > REVIVAL_TOL
    return TdTrace(times=np.array(grid.times), values=values, revivals=revivals,
                   env_terms=env_terms, corr_rho=corr_r, corr_sigma=corr_s)


def trace_distance_bound(model, rho0s, sigma0s, env0, t: float, tau: float,
                         step: Optional[float] = None) -> BoundTerms:
    """Evaluate the revival bound between times t and t + tau."""
    # written so that NaN fails; a finite t + tau keeps both finite
    if not (0 <= t and 0 < tau and t + tau < np.inf):
        raise InvariantViolation("need finite t >= 0 and tau > 0")
    pair = np.array([models.initial_state(model, rho0s, env0),
                     models.initial_state(model, sigma0s, env0)])
    pair_t, pair_tt = _propagate_through(model, pair, [t, t + tau], step=step)
    d_t, env_term, corr_rho, corr_sigma = _bound_terms(model, pair_t[:1],
                                                       pair_t[1:])[:, 0]
    d_tt = trace_distance(*models.sys_marginal(model, pair_tt))
    return BoundTerms(increment=d_tt - d_t, env_term=env_term,
                      corr_rho=corr_rho, corr_sigma=corr_sigma)


# ---------------------------------------------------------------------------
# past-future correlation witness
# ---------------------------------------------------------------------------

def _check_tensor(p: np.ndarray) -> np.ndarray:
    """Joint tensors P[z, y, x] along any leading axes: no entry below
    -1e-10, every tensor summing to one within 1e-9."""
    # written so that a NaN entry fails both comparisons
    low = p.min(initial=np.inf)
    if not low >= -TENSOR_NEGATIVITY_TOL:
        raise NumericalDriftError(
            f"joint probability {low:.2e} below -{TENSOR_NEGATIVITY_TOL:g}"
        )
    off = np.abs(p.sum(axis=(-3, -2, -1)) - 1.0).max(initial=0.0)
    if not off <= TENSOR_NORM_TOL:
        raise NumericalDriftError(
            f"joint tensor normalization off by {off:.2e}"
        )
    return p


# entries of the per-t intermediates one block of times holds in the CPF
# engine (the system-environment products behind the relays, the relays and
# their readouts), which keeps each at about 64 kB: 15 times of the stacked
# depolarizing diagonal.  A block holds at least one time, so a unitary
# model takes one per block from de = 16 on, and its intermediates then
# grow as (ds de)^2 per outcome pair, 1 MB at de = 64; its propagators are
# N x N unitaries, so no (ds de)^2-square superoperator sits beside them
_CPF_BLOCK_ENTRIES = 2 ** 12


def _effects(rows: np.ndarray, taus: np.ndarray, stepper) -> np.ndarray:
    """The readout rows carried to every tau, rows @ Phi(tau), shape
    taus.shape + rows.shape, for taus that run through increasing values:
    each run of equal gaps is filled from powers of its propagator."""
    out = np.empty((taus.size,) + rows.shape, dtype=complex)
    stepper.carry_rows(out, rows, taus.ravel())
    return out.reshape(taus.shape + rows.shape)


def _relays(model, past: np.ndarray, scheme: str, spec_y) -> np.ndarray:
    """Flattened relays of past states given as rows, shape (k, nx, D), as
    the columns of shape (k, D, nx * ny), column ix * ny + iy holding
    outcomes (x, y): one ``env_after_projection`` per intermediate outcome
    (or one ``env_marginal``) and one ``product_with_env``."""
    states = models.unflatten_state(model, past)
    ny = spec_y.n_outcomes
    if scheme == "r":
        env_mid = models.env_marginal(model, states)[:, :, None]
    else:
        env_mid = np.stack([models.env_after_projection(
            model, states, spec_y.ket(iy)) for iy in range(ny)], axis=2)
    proj_y = np.array([spec_y.projector(iy) for iy in range(ny)])
    relays = models.flatten_state(model, models.product_with_env(
        model, proj_y, env_mid))
    return relays.reshape(len(past), -1, relays.shape[-1]).swapaxes(1, 2)


def _cpf_tensors(model, rho0s, env0, specs, ts, taus, scheme, policy,
                 step) -> np.ndarray:
    """Joint tensors P[z, y, x] at the pairs (ts[i], taus[i or 0, j]),
    shape (nt, ntau, nz, ny, nx).  ``taus`` is (1, ntau), the product grid,
    or (nt, 1), one tau per t; either way it runs through increasing values.

    The nx conditioned past states are stepped along ts as flattened-state
    columns, and the relays of a block of times are built at once.  The row
    conj(flatten(Pi_z (x) 1_E)) reads outcome z out of a relay.  A stepper
    with ``carry_rows`` carries the rows instead, once across the gaps of
    the taus, and the effects rows @ Phi(tau) read every (t, tau) of a
    block with one matrix product.  The RK4 stepper steps each t's relays
    across its taus, since its stages sit at absolute times.
    Each readout is weighted by the policy (random scheme) or by one
    (deterministic scheme).
    """
    validate_density_matrix(rho0s)
    spec_x, spec_y, spec_z = specs
    nx, ny, nz = spec_x.n_outcomes, spec_y.n_outcomes, spec_z.n_outcomes
    if scheme == "d":
        weights = np.ones((nx, ny))
    elif scheme == "r":
        if policy is None:
            policy = RandomSchemePolicy.uniform(nx, ny)
        if policy.matrix.shape != (nx, ny):
            raise InvariantViolation("policy shape does not match the specs")
        weights = policy.matrix
    else:
        raise InvariantViolation(f"unknown scheme {scheme!r}")
    ts = np.asarray(ts, dtype=float)
    taus = np.asarray(taus, dtype=float)
    check_increasing(ts, "ts")
    check_increasing(taus, "taus")
    stepper = stepping_cache(model, step=step)
    carries = hasattr(stepper, "carry_rows")
    kets_x = spec_x.vectors.T
    pxs = np.array([(ket.conj() @ rho0s @ ket).real for ket in kets_x])
    rows = models.flatten_state(model, models.product_with_env(
        model, np.array([spec_z.projector(iz) for iz in range(nz)]),
        np.eye(model.env_dim))).conj()
    past = np.stack([models.flatten_state(model, models.initial_state(
        model, projector(ket), env0)) for ket in kets_x], axis=1)
    nt, ntau, dim = ts.size, taus.shape[1], rows.shape[1]
    effects = _effects(rows, taus, stepper) if carries else None
    taus_of = np.broadcast_to(taus, (nt, ntau))
    ds, de = models.dims(model)
    per_t = nx * ny * ((ds * de) ** 2 + ntau * (nz if carries else dim))
    block = max(1, _CPF_BLOCK_ENTRIES // per_t)
    readouts = np.empty((nt, ntau, nz, nx * ny))
    prev_t = 0.0
    for first in range(0, nt, block):
        times = ts[first:first + block]
        pasts = series(stepper, past, times, prev_t)
        past, prev_t = pasts[-1], times[-1]
        relays = _relays(model, pasts.swapaxes(1, 2), scheme, spec_y)
        if carries:
            part = effects[first:first + block] if len(effects) > 1 else effects
            readout = part @ relays[:, None]
        else:
            readout = rows @ np.array([
                series(stepper, r, t + taus_of[first + i], t)
                for i, (t, r) in enumerate(zip(times, relays))])
        readouts[first:first + block] = readout.real
    # relay columns run over (ix, iy); the tensor is indexed [z, y, x]
    readouts = readouts.reshape(nt, ntau, nz, nx, ny).swapaxes(-1, -2)
    return _check_tensor(pxs * (readouts * weights.T))


def cpf_joint_deterministic(model, rho0s, env0, specs, t: float, tau: float,
                            step: Optional[float] = None) -> np.ndarray:
    """Joint outcome tensor P[z, y, x]; the intermediate measurement
    conditions both the system and the environment."""
    return _cpf_tensors(model, rho0s, env0, specs, [t], [[tau]], "d",
                        None, step)[0, 0]


def cpf_joint_random(model, rho0s, env0, specs,
                     policy: Optional[RandomSchemePolicy],
                     t: float, tau: float,
                     step: Optional[float] = None) -> np.ndarray:
    """Joint outcome tensor of the resampling scheme; the intermediate
    environment state is left unconditioned on the measured outcome."""
    return _cpf_tensors(model, rho0s, env0, specs, [t], [[tau]], "r",
                        policy, step)[0, 0]


def cpf_correlation(tensor: np.ndarray, specs) -> np.ndarray:
    """Conditional past-future covariance per intermediate outcome, shape
    (..., ny) for joint tensors P[z, y, x] along any leading axes.

    Entries with conditional probability below 1e-12 are reported as NaN,
    never coerced to zero.
    """
    spec_x, _, spec_z = specs
    zvals = np.asarray(spec_z.outcomes, dtype=float)
    xvals = np.asarray(spec_x.outcomes, dtype=float)
    py = tensor.sum(axis=(-3, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        pzx = tensor / py[..., None, :, None]
    pz, px = pzx.sum(axis=-1), pzx.sum(axis=-3)
    cov = np.einsum("z,...zyx,x->...y", zvals,
                    pzx - pz[..., None] * px[..., None, :, :], xvals)
    # written so that a NaN probability gives NaN
    return np.where(py >= UNDEFINED_CONDITIONAL_TOL, cov, np.nan)


def markov_factorization_gap(tensor: np.ndarray) -> float:
    """Largest deviation of the joint tensor from conditional factorization.

    Compares P[z, y, x] against P(z|y) P(y|x) P(x); vanishing conditionals
    contribute zero to the product.
    """
    p = np.asarray(tensor, dtype=float)
    px = p.sum(axis=(0, 1))
    pyx = p.sum(axis=0)
    py = p.sum(axis=(0, 2))
    pzy = p.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        y_given_x = np.where(px > 0, pyx / px, 0.0)
        z_given_y = np.where(py > 0, pzy / py, 0.0)
    product = np.einsum("zy,yx,x->zyx", z_given_y, y_given_x, px)
    return float(np.abs(p - product).max())


def _cpf_result(ts, taus, scheme, tensors, specs) -> CpfResult:
    values = np.moveaxis(cpf_correlation(tensors, specs), -1, 0)
    return CpfResult(ts=ts, taus=taus, scheme=scheme, values=values,
                     tensors=tensors)


def _time_axis(times, label: str) -> np.ndarray:
    """``times`` as a one-dimensional float array; any other shape raises."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise InvariantViolation(f"{label} must be a one-dimensional sequence "
                                 "of times")
    return times


def cpf_grid(model, rho0s, env0, specs, ts, taus, scheme: str = "d",
             policy: Optional[RandomSchemePolicy] = None,
             step: Optional[float] = None) -> CpfResult:
    """Past-future correlations over the product grid of ts and taus."""
    ts = _time_axis(ts, "ts")
    taus = _time_axis(taus, "taus")
    tensors = _cpf_tensors(model, rho0s, env0, specs, ts, taus[None],
                           scheme, policy, step)
    return _cpf_result(ts, taus, scheme, tensors, specs)


def cpf_equal_times(model, rho0s, env0, specs, ts, scheme: str = "d",
                    policy: Optional[RandomSchemePolicy] = None,
                    step: Optional[float] = None) -> CpfResult:
    """Correlations on the diagonal grid tau = t, for any increasing ts."""
    ts = _time_axis(ts, "ts")
    tensors = _cpf_tensors(model, rho0s, env0, specs, ts, ts[:, None],
                           scheme, policy, step)
    return _cpf_result(ts, np.array(ts), scheme, tensors, specs)
