"""Non-Markovianity diagnostics.

Two witnesses are provided.  The distinguishability witness tracks the
trace distance between two system states evolved from different initial
conditions (same initial environment), flags revivals, and evaluates the
triangle-inequality bound that splits a revival into an environment-change
term plus two system-environment correlation terms.

The operational witness correlates the outcomes of three successive
projective measurements (past, present, future).  In the deterministic
scheme the conditional environment state after the intermediate
measurement is kept; in the random scheme the intermediate system state is
resampled from a stochastic policy and the environment is left
unconditioned.  A nonzero random-scheme correlation certifies that the
environment actually responds to the system.

One engine, ``_cpf_tensors``, computes the joint tensors
P[z, y, x] = Re Tr[Pi_z Phi_tau R_y Phi_t (Pi_x (x) rho_E)] for any set of
(t, tau) pairs; the single-point, product-grid and equal-time functions are
thin wrappers around it.  It carries the past states and the relays as
matrices of flattened-state columns and reads every outcome with one
matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models
from .evolve import (TimeGrid, advance, propagate, propagate_interval,
                     stepping_cache)
from .qcore import (
    InvariantViolation,
    NumericalDriftError,
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
        if vectors.ndim != 2:
            raise InvariantViolation("basis must be a (dim, n) column matrix")
        n = vectors.shape[1]
        if outcomes.size != n:
            raise InvariantViolation("one outcome value per basis vector required")
        gram = vectors.conj().T @ vectors
        if np.abs(gram - np.eye(n)).max() > 1e-10:
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
        if matrix.ndim != 2 or matrix.min() < 0:
            raise InvariantViolation("policy must be a non-negative matrix")
        if np.abs(matrix.sum(axis=1) - 1.0).max() > 1e-12:
            raise InvariantViolation("policy rows must sum to one")

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

def _bound_terms(model, r, s) -> tuple:
    """System trace distance, environment term and the two correlation terms
    of one pair of bipartite states."""
    sys_r, sys_s = models.sys_marginal(model, r), models.sys_marginal(model, s)
    env_r, env_s = models.env_marginal(model, r), models.env_marginal(model, s)
    return (
        trace_distance(sys_r, sys_s),
        trace_distance(env_r, env_s),
        models.bipartite_trace_distance(
            model, r, models.product_with_env(model, sys_r, env_r)),
        models.bipartite_trace_distance(
            model, s, models.product_with_env(model, sys_s, env_s)),
    )


def trace_distance_series(model, rho0s, sigma0s, env0=None,
                          grid: TimeGrid = None,
                          revival_tol: float = REVIVAL_TOL,
                          with_bound_terms: bool = False,
                          stepper: str = "auto") -> TdTrace:
    """Distinguishability of two system preparations over a time grid.

    Both preparations share the initial environment state ``env0`` (the
    model default when omitted).
    """
    if grid is None:
        raise InvariantViolation("a TimeGrid is required")
    validate_density_matrix(rho0s)
    validate_density_matrix(sigma0s)
    state_r = models.initial_state(model, rho0s, env0)
    state_s = models.initial_state(model, sigma0s, env0)
    cache = stepping_cache(model, stepper)
    series_r = propagate(model, state_r, grid, stepper=stepper, cache=cache)
    series_s = propagate(model, state_s, grid, stepper=stepper, cache=cache)
    pairs = zip(series_r, series_s)
    if with_bound_terms:
        terms = np.array([_bound_terms(model, r, s) for r, s in pairs])
        values, env_terms, corr_r, corr_s = terms.T
    else:
        values = np.array([trace_distance(models.sys_marginal(model, r),
                                          models.sys_marginal(model, s))
                           for r, s in pairs])
        env_terms = corr_r = corr_s = None
    revivals = np.zeros(values.size, dtype=bool)
    revivals[:-1] = np.diff(values) > revival_tol
    return TdTrace(times=np.array(grid.times), values=values, revivals=revivals,
                   env_terms=env_terms, corr_rho=corr_r, corr_sigma=corr_s)


def trace_distance_bound(model, rho0s, sigma0s, env0, t: float, tau: float,
                         step: Optional[float] = None) -> BoundTerms:
    """Evaluate the revival bound between times t and t + tau."""
    if tau <= 0 or t < 0:
        raise InvariantViolation("need t >= 0 and tau > 0")
    state_r = models.initial_state(model, rho0s, env0)
    state_s = models.initial_state(model, sigma0s, env0)
    cache = stepping_cache(model)
    r_t = propagate_interval(model, state_r, 0.0, t, step, cache)
    s_t = propagate_interval(model, state_s, 0.0, t, step, cache)
    r_tt = propagate_interval(model, r_t, t, t + tau, step, cache)
    s_tt = propagate_interval(model, s_t, t, t + tau, step, cache)
    d_t, env_term, corr_rho, corr_sigma = _bound_terms(model, r_t, s_t)
    d_tt = trace_distance(models.sys_marginal(model, r_tt),
                          models.sys_marginal(model, s_tt))
    return BoundTerms(increment=d_tt - d_t, env_term=env_term,
                      corr_rho=corr_rho, corr_sigma=corr_sigma)


# ---------------------------------------------------------------------------
# past-future correlation witness
# ---------------------------------------------------------------------------

def _check_tensor(p: np.ndarray) -> np.ndarray:
    # written so that a NaN entry fails both comparisons
    if not p.min() >= -TENSOR_NEGATIVITY_TOL:
        raise NumericalDriftError(
            f"joint probability {p.min():.2e} below -{TENSOR_NEGATIVITY_TOL:g}"
        )
    total = p.sum()
    if not abs(total - 1.0) <= TENSOR_NORM_TOL:
        raise NumericalDriftError(
            f"joint tensor normalization off by {abs(total-1.0):.2e}"
        )
    return p


def _cpf_tensors(model, rho0s, env0, specs, ts, taus_per_t, scheme, policy,
                 step) -> np.ndarray:
    """Joint tensors P[z, y, x] at every (t, tau) pair, shape
    (nt, ntau, nz, ny, nx); row ``it`` of ``taus_per_t`` holds the taus of
    ``ts[it]``.

    The nx conditioned past states are carried from one t to the next and
    the nx * ny relays from one tau to the next as flattened-state columns,
    so each propagation spans one gap of the grid.  The row
    conj(flatten(Pi_z (x) 1_E)) reads outcome z out of every relay; each
    readout is weighted by the policy (random scheme) or by one
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
    taus_per_t = np.asarray(taus_per_t, dtype=float)
    # written so that NaN fails the check
    if not (np.all(ts >= 0) and np.all(taus_per_t >= 0)):
        raise InvariantViolation("times t and tau must be non-negative")
    cache = stepping_cache(model)
    tensors = np.empty((ts.size, taus_per_t.shape[1], nz, ny, nx))
    kets_x = spec_x.vectors.T
    pxs = np.array([(ket.conj() @ rho0s @ ket).real for ket in kets_x])
    rows = np.array([models.flatten_state(model, models.product_with_env(
        model, spec_z.projector(iz), np.eye(model.env_dim))).conj()
        for iz in range(nz)])
    columns = lambda states: np.stack(
        [models.flatten_state(model, s) for s in states], axis=1)
    past = columns(models.initial_state(model, projector(ket), env0)
                   for ket in kets_x)
    prev_t = 0.0
    for it, t in enumerate(ts):
        past = advance(model, past, prev_t, t, step, cache)
        prev_t = t
        relays = []
        for ix in range(nx):
            state_t = models.unflatten_state(model, past[:, ix])
            if scheme == "r":
                env_free = models.env_marginal(model, state_t)
            for ket_y in spec_y.vectors.T:
                env_mid = (env_free if scheme == "r" else
                           models.env_after_projection(model, state_t, ket_y))
                relays.append(models.product_with_env(
                    model, projector(ket_y), env_mid))
        relays = columns(relays)
        prev_tau = 0.0
        for itau, tau in enumerate(taus_per_t[it]):
            relays = advance(model, relays, t + prev_tau, t + tau, step, cache)
            prev_tau = tau
            # relay columns run over (ix, iy); the tensor is indexed [z, y, x]
            readout = (rows @ relays).real.reshape(nz, nx, ny).swapaxes(1, 2)
            tensors[it, itau] = _check_tensor(pxs * (readout * weights.T))
    return tensors


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
    """Conditional past-future covariance per intermediate outcome.

    Entries with conditional probability below 1e-12 are reported as NaN,
    never coerced to zero.
    """
    spec_x, _, spec_z = specs
    zvals = np.asarray(spec_z.outcomes, dtype=float)
    xvals = np.asarray(spec_x.outcomes, dtype=float)
    ny = tensor.shape[1]
    out = np.full(ny, np.nan)
    for iy in range(ny):
        block = tensor[:, iy, :]
        py = block.sum()
        if py < UNDEFINED_CONDITIONAL_TOL:
            continue
        pzx = block / py
        pz = pzx.sum(axis=1)
        px = pzx.sum(axis=0)
        out[iy] = float(zvals @ (pzx - np.outer(pz, px)) @ xvals)
    return out


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


def _check_increasing(values: np.ndarray, label: str) -> None:
    if values.size and values[0] < 0:
        raise InvariantViolation(f"{label} must be non-negative")
    if values.size > 1 and np.diff(values).min() <= 0:
        raise InvariantViolation(f"{label} must increase strictly")


def _cpf_result(ts, taus, scheme, tensors, specs) -> CpfResult:
    nt, ntau, _, ny, _ = tensors.shape
    values = np.full((ny, nt, ntau), np.nan)
    for it in range(nt):
        for itau in range(ntau):
            values[:, it, itau] = cpf_correlation(tensors[it, itau], specs)
    return CpfResult(ts=ts, taus=taus, scheme=scheme, values=values,
                     tensors=tensors)


def cpf_grid(model, rho0s, env0, specs, ts, taus, scheme: str = "d",
             policy: Optional[RandomSchemePolicy] = None,
             step: Optional[float] = None) -> CpfResult:
    """Past-future correlations over the product grid of ts and taus."""
    ts = np.asarray(ts, dtype=float)
    taus = np.asarray(taus, dtype=float)
    _check_increasing(ts, "ts")
    _check_increasing(taus, "taus")
    tensors = _cpf_tensors(model, rho0s, env0, specs, ts,
                           np.broadcast_to(taus, (ts.size, taus.size)),
                           scheme, policy, step)
    return _cpf_result(ts, taus, scheme, tensors, specs)


def cpf_equal_times(model, rho0s, env0, specs, ts, scheme: str = "d",
                    policy: Optional[RandomSchemePolicy] = None,
                    step: Optional[float] = None) -> CpfResult:
    """Correlations on the diagonal grid tau = t (uniform ts required)."""
    ts = np.asarray(ts, dtype=float)
    _check_increasing(ts, "ts")
    if ts.size > 1:
        gaps = np.diff(ts)
        if np.abs(gaps - gaps[0]).max() > 1e-9:
            raise InvariantViolation("equal-times evaluation needs a uniform grid")
    tensors = _cpf_tensors(model, rho0s, env0, specs, ts, ts[:, None],
                           scheme, policy, step)
    return _cpf_result(ts, np.array(ts), scheme, tensors, specs)
