"""System-environment model classes reduced to a common generator form.

Two internal representations are used:

* "stacked": classical environments carry no coherences between their
  labels, so the joint state is a stack of (unnormalized) system blocks,
  one per environment label, shape ``(nc, ds, ds)``.  The generator acts
  on the concatenation of the column-stacked blocks.
* "full": quantum environments use the bipartite density matrix, shape
  ``(ds*de, ds*de)``, with the generator acting on its vectorization.

The state operations read both through one view, the environment blocks
``<e|rho|f>`` of shape ``(..., de, de, ds, ds)``, in which a stacked state
fills only the diagonal blocks; only the layout helpers know which
representation a model uses.  States may carry leading batch axes.

The depolarizing model writes its six jumps once, as the general class of
its representation: a stochastic environment when undriven (stacked), a
quantum bystander when driven (full).  Its generator is the affine form
gamma(t) P_gamma + phi(t) P_phi (+ omega P_omega when driven), whose parts
are those classes' generators at unit rates, built once per representation.

Models are immutable after construction and all helpers are pure.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .qcore import (
    PROPAGATION_TOL,
    InvariantViolation,
    NumericalDriftError,
    PAULI_OPS,
    check_hermitian,
    check_kraus,
    check_probabilities,
    check_rate,
    check_rate_pair,
    conjugation_superop,
    dag,
    hermiticity_preservation_residual,
    hermitize,
    kraus_superoperator,
    kron,
    lift_env_superop,
    lift_system_superop,
    lindblad_superoperator,
    matrix_exp,
    random_density_matrix,
    random_hermitian,
    trace_distance,
    trace_preservation_residual,
    validate_density_matrix,
)

MODEL_FORMAT = "qflow-model/1"

BYSTANDER_TOL = 1e-9
COMMUTATOR_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _freeze_real(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_finite(a: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(a)):
        raise InvariantViolation(f"{label} has non-finite entries")


def _check_system_dim(ds: int) -> None:
    """One level has no pair of preparations and no traceless operator."""
    if ds < 2:
        raise InvariantViolation(f"system dimension {ds} must be at least 2")


def _check_generator(gen: np.ndarray, dim: int, label: str) -> None:
    """Raise unless ``gen`` is a finite, trace- and Hermiticity-preserving
    generator on dim x dim operators."""
    if gen.shape != (dim * dim, dim * dim):
        raise InvariantViolation(f"{label} generator must act on {dim}x{dim} "
                                 "operators")
    _check_finite(gen, f"{label} generator")
    if not trace_preservation_residual(gen, dim) <= PROPAGATION_TOL:
        raise InvariantViolation(f"{label} generator is not trace preserving")
    if not hermiticity_preservation_residual(gen, dim) <= PROPAGATION_TOL:
        raise InvariantViolation(f"{label} generator does not preserve "
                                 "Hermiticity")


@dataclass(frozen=True)
class EnvJump:
    """Classical environment transition src -> dst at a given rate.

    ``kraus`` lists the Kraus operators of the trace-preserving system
    transformation applied when the jump fires.
    """

    src: int
    dst: int
    rate: float
    kraus: tuple

    def __post_init__(self):
        object.__setattr__(self, "kraus", tuple(_freeze(k) for k in self.kraus))
        check_rate(self.rate, "jump rate")
        if self.src == self.dst:
            raise InvariantViolation("jump must change the environment label")
        check_kraus(self.kraus)


@dataclass(frozen=True)
class StochasticEnvModel:
    """System driven by stochastic classical environment transitions."""

    lindblads: tuple
    jumps: tuple
    populations0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lindblads", tuple(_freeze(g) for g in self.lindblads))
        object.__setattr__(self, "jumps", tuple(self.jumps))
        object.__setattr__(self, "populations0", _freeze_real(self.populations0))
        nc = len(self.lindblads)
        check_probabilities(self.populations0, "initial populations")
        if self.populations0.shape != (nc,):
            raise InvariantViolation("one initial population per label required")
        ds = self.ds
        _check_system_dim(ds)
        for i, g in enumerate(self.lindblads):
            _check_generator(g, ds, f"label {i}")
        for j in self.jumps:
            if not (0 <= j.src < nc and 0 <= j.dst < nc):
                raise InvariantViolation("jump label out of range")
            if j.kraus[0].shape != (ds, ds):
                raise InvariantViolation("jump Kraus must act on the system")

    @property
    def ds(self) -> int:
        return int(round(np.sqrt(self.lindblads[0].shape[0])))

    @property
    def env_dim(self) -> int:
        return len(self.lindblads)

    def rate_matrix(self) -> np.ndarray:
        """Classical rate matrix r[dst, src] of the label populations."""
        nc = self.env_dim
        r = np.zeros((nc, nc))
        for j in self.jumps:
            r[j.dst, j.src] += j.rate
        return r


class ClassicalMixtureModel(StochasticEnvModel):
    """Static mixture of Markovian system evolutions, one per environment
    label: the stochastic environment with no jumps.

    ``lindblads[c]`` is a trace-preserving system generator active under
    environment label ``c``; ``weights[c]`` is the (time independent)
    probability of that label, held as ``populations0``.
    """

    def __init__(self, lindblads: tuple, weights: np.ndarray):
        super().__init__(lindblads=lindblads, jumps=(), populations0=weights)

    @property
    def weights(self) -> np.ndarray:
        return self.populations0


@dataclass(frozen=True)
class Collision:
    """Environment transition operator with an attached system kick."""

    op: np.ndarray
    rate: float
    kraus: tuple

    def __post_init__(self):
        object.__setattr__(self, "op", _freeze(self.op))
        object.__setattr__(self, "kraus", tuple(_freeze(k) for k in self.kraus))
        check_rate(self.rate, "collision rate")
        _check_finite(self.op, "collision operator")
        check_kraus(self.kraus)


@dataclass(frozen=True)
class QuantumBystanderModel:
    """Quantum environment with self-contained marginal dynamics.

    The environment evolves under ``le`` plus the dissipators of the
    collision operators alone; the system feels the collisions through
    the attached Kraus kicks.
    """

    ls: np.ndarray
    le: np.ndarray
    collisions: tuple
    env0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ls", _freeze(self.ls))
        object.__setattr__(self, "le", _freeze(self.le))
        object.__setattr__(self, "collisions", tuple(self.collisions))
        object.__setattr__(self, "env0", _freeze(validate_density_matrix(self.env0)))
        _check_system_dim(self.ds)
        _check_generator(self.ls, self.ds, "system")
        _check_generator(self.le, self.env_dim, "environment")
        for c in self.collisions:
            if c.op.shape != (self.env_dim, self.env_dim):
                raise InvariantViolation("collision operator must act on the environment")
            if c.kraus[0].shape != (self.ds, self.ds):
                raise InvariantViolation("collision Kraus must act on the system")

    @property
    def ds(self) -> int:
        return int(round(np.sqrt(self.ls.shape[0])))

    @property
    def env_dim(self) -> int:
        return int(round(np.sqrt(self.le.shape[0])))

    def env_generator(self) -> np.ndarray:
        """Marginal environment generator (self-dynamics plus collisions)."""
        zero = np.zeros((self.env_dim, self.env_dim))
        return self.le + lindblad_superoperator(
            zero, [(c.op, c.rate) for c in self.collisions])


@dataclass(frozen=True)
class UnitaryModel:
    """Closed bipartite dynamics under a total Hamiltonian."""

    hs: np.ndarray
    he: np.ndarray
    hi: np.ndarray
    env0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hs", _freeze(self.hs))
        object.__setattr__(self, "he", _freeze(self.he))
        object.__setattr__(self, "hi", _freeze(self.hi))
        object.__setattr__(self, "env0", _freeze(validate_density_matrix(self.env0)))
        for name, h in (("hs", self.hs), ("he", self.he), ("hi", self.hi)):
            check_hermitian(h, name)
        _check_system_dim(self.ds)
        if self.hi.shape != (self.ds * self.env_dim,) * 2:
            raise InvariantViolation("interaction must act on the joint space")

    @property
    def ds(self) -> int:
        return self.hs.shape[0]

    @property
    def env_dim(self) -> int:
        return self.he.shape[0]

    def total_hamiltonian(self) -> np.ndarray:
        ds, de = self.ds, self.env_dim
        return (kron(self.hs, np.eye(de)) + kron(np.eye(ds), self.he) + self.hi)


@dataclass(frozen=True)
class DepolarizingModel:
    """Qubit coupled to a four-state exchange environment.

    Transitions 4 -> k at rate gamma/3 and k -> 4 at rate phi (k = 1, 2, 3)
    each kick the qubit with the matching Pauli conjugation.  Optional
    ingredients: a slow rate modulation ``gamma(t) = gamma*(1 + b(t))``,
    ``phi(t) = phi*(1 - b(t))``, and a coherent environment drive of
    frequency ``omega`` coupling the 4-th level to the other three.

    ``modulation`` receives an array of times and must act elementwise,
    returning ``b`` at each of them (a scalar time is a 0-d array).
    """

    gamma: float
    phi: float
    populations0: np.ndarray = None
    omega: float = 0.0
    modulation: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        check_rate_pair(self.gamma, self.phi)
        check_rate(self.omega, "drive frequency")
        pops = self.populations0
        if pops is None:
            gp = self.gamma + self.phi
            pops = [self.gamma / (3 * gp)] * 3 + [self.phi / gp]
        pops = _freeze_real(pops)
        object.__setattr__(self, "populations0", pops)
        check_probabilities(pops, "populations0")
        if pops.shape != (4,):
            raise InvariantViolation("populations0 must hold 4 weights")

    @property
    def ds(self) -> int:
        return 2

    @property
    def env_dim(self) -> int:
        return 4

    def rates_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Rates ``(gamma(t), phi(t))`` elementwise over a time or an array
        of times, calling the modulation once on the array."""
        t = np.asarray(t, dtype=float)
        if self.modulation is None:
            b = np.zeros(t.shape)
        else:
            try:
                b = np.asarray(self.modulation(t), dtype=float)
                if b.shape != t.shape:
                    b = np.broadcast_to(b, t.shape)
            except (TypeError, ValueError) as exc:
                raise InvariantViolation(
                    f"modulation must act elementwise on an array of times: {exc}"
                ) from exc
            outside = ~(np.abs(b) < 1.0)  # NaN is outside
            if outside.any():
                i = np.flatnonzero(outside)[0]
                raise InvariantViolation(f"|b({t.flat[i]})| = {abs(b.flat[i])} "
                                         "must stay below 1")
        return self.gamma * (1.0 + b), self.phi * (1.0 - b)


BipartiteModel = Union[
    ClassicalMixtureModel,
    StochasticEnvModel,
    QuantumBystanderModel,
    UnitaryModel,
    DepolarizingModel,
]


def uses_stacked(model: BipartiteModel) -> bool:
    """Whether the model evolves in the stacked classical representation."""
    if isinstance(model, StochasticEnvModel):
        return True
    if isinstance(model, DepolarizingModel):
        return model.omega == 0.0
    return False


def is_time_dependent(model: BipartiteModel) -> bool:
    return isinstance(model, DepolarizingModel) and model.modulation is not None


def dims(model: BipartiteModel) -> tuple[int, int]:
    return model.ds, model.env_dim


def _depolarizing_general(gamma: float, phi: float, omega: float, stacked: bool):
    """The depolarizing model at fixed rates as a general class: a
    stochastic environment when ``stacked`` (the drive is dropped), else a
    quantum bystander driven at ``omega``.  Its initial populations are
    uniform; only its generators are read."""
    # 4 -> k at gamma/3 and k -> 4 at phi, each kicking the qubit with sigma_k
    jumps = [(src, dst, rate, (PAULI_OPS[k],)) for k in range(3)
             for src, dst, rate in ((3, k, gamma / 3.0), (k, 3, phi))]
    zero, eye = np.zeros((4, 4)), np.eye(4)
    if stacked:
        return StochasticEnvModel(lindblads=(zero,) * 4,
                                  jumps=tuple(EnvJump(*j) for j in jumps),
                                  populations0=np.full(4, 0.25))
    he = np.zeros((4, 4), dtype=complex)  # drive (omega/2)(|k><4| + h.c.)
    he[:3, 3] = he[3, :3] = omega / 2.0
    # the label jump src -> dst is the collision operator |dst><src|
    collisions = tuple(Collision(np.outer(eye[dst], eye[src]), rate, kick)
                       for src, dst, rate, kick in jumps)
    return QuantumBystanderModel(ls=zero, le=lindblad_superoperator(he),
                                 collisions=collisions, env0=eye / 4.0)


@functools.cache
def _depolarizing_parts(stacked: bool) -> tuple:
    """Generators at unit gamma, unit phi and, in the full representation,
    unit omega, to combine affinely.  The stacked ones are real (a Pauli
    conjugation superoperator has no imaginary part), so a modulated stack
    of them is stepped in real arithmetic."""
    units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))[:2 if stacked else 3]
    parts = [_generator(_depolarizing_general(*rates, stacked), np.asarray(0.0))
             for rates in units]
    return tuple(_freeze_real(p.real) if stacked else _freeze(p) for p in parts)


@functools.cache
def _depolarizing_rows(stacked: bool) -> np.ndarray:
    """The parts flattened, one row each, so that a stack of generators is
    the rates (one row per time) times these rows."""
    parts = _depolarizing_parts(stacked)
    rows = np.stack(parts).reshape(len(parts), -1)
    rows.setflags(write=False)
    return rows


def assemble_generator(model: BipartiteModel, t=0.0) -> np.ndarray:
    """Generator acting on the flattened representation at time ``t``.

    An array of times gives the stack of generators, shape
    ``t.shape + (D, D)``; a modulation is called once, on the array.  A
    time-independent model returns a read-only broadcast view of its one
    generator.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim and not is_time_dependent(model):
        gen = _generator(model, np.asarray(0.0))
        return np.broadcast_to(gen, t.shape + gen.shape)
    return _generator(model, t)


def _generator(model: BipartiteModel, t: np.ndarray) -> np.ndarray:
    if isinstance(model, StochasticEnvModel):
        ds, nc = model.ds, model.env_dim
        n = ds * ds
        gen = np.zeros((nc * n, nc * n), dtype=complex)
        for c in range(nc):
            gen[c * n:(c + 1) * n, c * n:(c + 1) * n] = model.lindblads[c]
        for j in model.jumps:
            src = slice(j.src * n, (j.src + 1) * n)
            dst = slice(j.dst * n, (j.dst + 1) * n)
            gen[src, src] -= j.rate * np.eye(n)
            gen[dst, src] += j.rate * kraus_superoperator(j.kraus)
        return gen
    if isinstance(model, DepolarizingModel):
        gamma_t, phi_t = model.rates_at(t)
        if not (np.all(gamma_t > 0) and np.all(phi_t > 0)):  # NaN fails
            raise InvariantViolation("modulated rates must stay positive")
        stacked = uses_stacked(model)
        rates = [gamma_t, phi_t] + ([] if stacked else [np.full(t.shape, model.omega)])
        # one product: a row of rates per time times the flattened parts
        gen = np.stack(rates, axis=-1) @ _depolarizing_rows(stacked)
        return gen.reshape(t.shape + _depolarizing_parts(stacked)[0].shape)
    if isinstance(model, QuantumBystanderModel):
        ds, de = dims(model)
        d = ds * de
        gen = lift_system_superop(model.ls, ds, de) + lift_env_superop(model.le, ds, de)
        eye = np.eye(d)
        for c in model.collisions:
            n_env = kron(np.eye(ds), dag(c.op) @ c.op)
            jump = sum(conjugation_superop(kron(k, c.op)) for k in c.kraus)
            gen += c.rate * (jump - 0.5 * np.kron(eye, n_env)
                             - 0.5 * np.kron(n_env.T, eye))
        return gen
    if isinstance(model, UnitaryModel):
        return lindblad_superoperator(model.total_hamiltonian())
    raise InvariantViolation(f"unknown model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# bipartite state helpers (only the layout helpers see the representation)
# ---------------------------------------------------------------------------

def default_env_state(model: BipartiteModel) -> np.ndarray:
    """Model-owned initial environment as a matrix, diagonal when classical."""
    if isinstance(model, (StochasticEnvModel, DepolarizingModel)):
        return np.diag(model.populations0)
    return np.array(model.env0)


def initial_state(model: BipartiteModel, rho0s: np.ndarray, env0=None):
    """Separable initial bipartite state in the model representation; a
    classical environment takes populations or a diagonal density matrix."""
    validate_density_matrix(rho0s)
    env0 = np.asarray(default_env_state(model) if env0 is None else env0)
    if uses_stacked(model):
        if env0.ndim == 2:
            if env0.shape != (model.env_dim,) * 2:
                raise InvariantViolation("a classical environment state must "
                                         "be one population per label")
            with np.errstate(invalid="ignore"):
                coherence = np.abs(env0 - np.diag(np.diag(env0))).max()
            if not coherence <= 1e-12:  # NaN fails
                raise InvariantViolation("classical environments cannot carry "
                                         "coherences; pass diagonal populations")
            env0 = np.diag(env0)
        pops = env0.real
        if pops.shape != (model.env_dim,):
            raise InvariantViolation("a classical environment state must be "
                                     "one population per label")
        check_probabilities(pops, "environment populations")
        env0 = np.diag(pops)
    else:
        env0 = validate_density_matrix(np.asarray(env0, dtype=complex))
    return product_with_env(model, np.asarray(rho0s, dtype=complex), env0)


def _state_shape(model: BipartiteModel) -> tuple:
    ds, de = dims(model)
    return (de, ds, ds) if uses_stacked(model) else (ds * de, ds * de)


def _env_blocks(model: BipartiteModel, state: np.ndarray) -> np.ndarray:
    """Environment blocks <e|state|f>, shape (..., de, de, ds, ds): a view
    of a full state; a stack fills only the diagonal blocks."""
    ds, de = dims(model)
    state = np.asarray(state)
    if uses_stacked(model):
        # environment axes innermost in memory, where the block traces and
        # products run several times faster
        blocks = np.einsum("...acef->...efac", np.zeros(
            state.shape[:-3] + (ds, ds, de, de), dtype=state.dtype))
        np.einsum("...eeab->...eab", blocks)[...] = state
        return blocks
    split = state.reshape(state.shape[:-2] + (ds, de, ds, de))
    return np.einsum("...aecf->...efac", split)


def _from_env_blocks(model: BipartiteModel, blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_env_blocks`; a stack keeps the diagonal blocks."""
    if uses_stacked(model):
        return np.einsum("...eeab->...eab", blocks)
    state = np.einsum("...efac->...aecf", blocks)
    return state.reshape(blocks.shape[:-4] + _state_shape(model))


def _batch_shape(model: BipartiteModel, state: np.ndarray) -> tuple:
    """Leading batch axes of states in the model representation."""
    return state.shape[:state.ndim - len(_state_shape(model))]


def flatten_state(model: BipartiteModel, state: np.ndarray) -> np.ndarray:
    """Column-stacked state; a stack of blocks is the concatenation of the
    column-stacked blocks.  Leading batch axes are kept."""
    state = np.asarray(state)
    return state.swapaxes(-1, -2).reshape(_batch_shape(model, state) + (-1,))


def unflatten_state(model: BipartiteModel, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    return v.reshape(v.shape[:-1] + _state_shape(model)).swapaxes(-1, -2)


def state_trace(model: BipartiteModel, state: np.ndarray):
    """Trace of each state along the leading batch axes: the sum of the
    diagonals of its one matrix or of its stack of blocks."""
    state = np.asarray(state)
    diagonal = np.einsum("...aa->...a", state)
    return diagonal.reshape(_batch_shape(model, state) + (-1,)).sum(-1).real


def sys_marginal(model: BipartiteModel, state: np.ndarray) -> np.ndarray:
    return np.einsum("...eeab->...ab", _env_blocks(model, state))


def env_marginal(model: BipartiteModel, state: np.ndarray) -> np.ndarray:
    """Environment marginal as a density matrix (diagonal when classical)."""
    return np.einsum("...aa->...", _env_blocks(model, state))


def env_after_projection(model: BipartiteModel, state: np.ndarray,
                         ket: np.ndarray) -> np.ndarray:
    """Unnormalized environment state conditioned on the system projector."""
    return ket.conj() @ _env_blocks(model, state) @ ket


def product_with_env(model: BipartiteModel, sys_state: np.ndarray,
                     env_state: np.ndarray) -> np.ndarray:
    """Bipartite state with the given factors (env may be unnormalized)."""
    sys_state = np.asarray(sys_state, dtype=complex)
    env_state = np.asarray(env_state, dtype=complex)
    product = sys_state[..., None, None] * env_state[..., None, None, :, :]
    return _from_env_blocks(model, np.einsum("...acef->...efac", product))


def expect_system_projector(model: BipartiteModel, state: np.ndarray,
                            ket: np.ndarray) -> float:
    return float((ket.conj() @ sys_marginal(model, state) @ ket).real)


def bipartite_trace_distance(model: BipartiteModel, a: np.ndarray, b: np.ndarray):
    """Trace distance of each pair of bipartite states along the leading
    batch axes; a stacked state is block diagonal in the environment labels,
    so the distances of its blocks add."""
    a = np.asarray(a)
    out = np.asarray(trace_distance(a, b))
    out = out.reshape(_batch_shape(model, a) + (-1,)).sum(-1)
    return float(out) if out.ndim == 0 else out


def resymmetrized(model: BipartiteModel, state: np.ndarray) -> np.ndarray:
    return hermitize(state)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _traceless_basis(d: int) -> np.ndarray:
    """|i><j| for i != j, then |i><i| - |i+1><i+1|, along the first axis."""
    eye = np.eye(d)
    off = [np.outer(eye[i], eye[j]) for i in range(d) for j in range(d) if i != j]
    diag = [np.diag(eye[i] - eye[i + 1]) for i in range(d - 1)]
    return np.array(off + diag, dtype=complex)


def check_bystander(model: BipartiteModel) -> tuple[bool, float]:
    """Whether the environment marginal evolves independently of the system.

    Algebraic test: the composed map X -> Tr_s(L[X]) must annihilate every
    bipartite operator with vanishing system-partial trace.  Returns the
    verdict (below 1e-9) and the worst-case residual over that kernel basis,
    the traceless system basis times every environment operator the
    representation holds (populations |c><c| when classical, every |i><j|
    otherwise).  A closed model takes L[X] = -i[H, X] as batched N x N
    products, one environment row |i><j|, j = 1..de, at a time, and never
    builds its superoperator.  A non-finite residual raises.
    """
    ds, de = dims(model)
    basis, eye = _traceless_basis(ds), np.eye(de)
    residuals = []
    if isinstance(model, UnitaryModel):
        h = model.total_hamiltonian()
        for i in range(de):
            # the basis times |i><j| for every j
            row = eye[i][:, None] * eye[:, None]
            x = product_with_env(model, basis[:, None], row)
            image = -1j * (h @ x - x @ h)
            residuals.append(np.abs(env_marginal(model, image)).max())
    else:
        gen = assemble_generator(model)
        pairs = ([(c, c) for c in range(de)] if uses_stacked(model)
                 else [(i, j) for i in range(de) for j in range(de)])
        for i, j in pairs:
            env_op = np.outer(eye[i], eye[j])
            x = flatten_state(model, product_with_env(model, basis, env_op))
            image = unflatten_state(model, (gen @ x.T).T)
            residuals.append(np.abs(env_marginal(model, image)).max())
    worst = float(np.max(residuals))
    if not np.isfinite(worst):
        raise NumericalDriftError(f"bystander residual is {worst}")
    return worst < BYSTANDER_TOL, worst


def interaction_commutes(model: UnitaryModel) -> bool:
    """Whether the environment Hamiltonian commutes with the interaction,
    every commutator entry below 1e-10."""
    he_full = kron(np.eye(model.ds), model.he)
    comm = he_full @ model.hi - model.hi @ he_full
    return bool(np.abs(comm).max() < COMMUTATOR_TOL)


def random_unitary_decomposition(model: UnitaryModel):
    """Mixture of environment-conditioned system propagators.

    Valid when the joint propagator is block diagonal in the environment
    basis; this is always verified numerically (within 1e-9 at t = 0.5, 1,
    2), since a vanishing commutator of the environment Hamiltonian with the
    interaction guarantees it only for nondegenerate environment spectra.
    Returns ``[(weight, family), ...]`` where ``family(t)`` is the system
    superoperator conditioned on the basis state.
    """
    de, ht = model.env_dim, model.total_hamiltonian()

    def joint_unitary(t: float) -> np.ndarray:
        return matrix_exp(-1j * t * ht)

    off_block = ~np.eye(de, dtype=bool)
    worst = max(np.abs(_env_blocks(model, joint_unitary(float(t)))[off_block])
                .max(initial=0.0) for t in (0.5, 1.0, 2.0))
    if not worst <= PROPAGATION_TOL:  # NaN fails
        raise InvariantViolation(
            "joint propagator is not block diagonal in the environment basis "
            f"(off-block residual {worst:.2e} exceeds {PROPAGATION_TOL:g})"
        )

    weights = [float(model.env0[e, e].real) for e in range(de)]

    def make_family(e: int):
        return lambda t: conjugation_superop(
            _env_blocks(model, joint_unitary(float(t)))[e, e])

    return [(weights[e], make_family(e)) for e in range(de)]


def born_markov_model(system_generator: np.ndarray,
                      env_state: np.ndarray) -> QuantumBystanderModel:
    """Product-form control dynamics: frozen environment, Markovian system."""
    de = np.asarray(env_state).shape[0]
    return QuantumBystanderModel(
        ls=system_generator,
        le=np.zeros((de * de, de * de), dtype=complex),
        collisions=(),
        env0=env_state,
    )


# ---------------------------------------------------------------------------
# randomized instances for property suites (seeded, reproducible)
# ---------------------------------------------------------------------------

def random_lindblad_generator(rng: np.random.Generator, dim: int,
                              n_jumps: int = 1) -> np.ndarray:
    jumps = [
        (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
         float(rng.uniform()))
        for _ in range(n_jumps)
    ]
    return lindblad_superoperator(random_hermitian(rng, dim), jumps)


def random_cptp_kraus(rng: np.random.Generator, dim: int, n_ops: int = 2):
    """Random Kraus set normalized to exact completeness."""
    ks = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
          for _ in range(n_ops)]
    m = sum(dag(k) @ k for k in ks)
    w, v = np.linalg.eigh(m)
    m_inv_sqrt = v @ np.diag(w ** -0.5) @ dag(v)
    return tuple(k @ m_inv_sqrt for k in ks)


def random_classical_mixture(rng: np.random.Generator, ds: int = 2,
                             nc: int = 2) -> ClassicalMixtureModel:
    weights = rng.uniform(size=nc) + 0.1
    weights /= weights.sum()
    return ClassicalMixtureModel(
        lindblads=tuple(random_lindblad_generator(rng, ds) for _ in range(nc)),
        weights=weights,
    )


def random_stochastic_env(rng: np.random.Generator, ds: int = 2,
                          nc: int = 2) -> StochasticEnvModel:
    jumps = []
    for src in range(nc):
        for dst in range(nc):
            if src != dst:
                jumps.append(EnvJump(src=src, dst=dst, rate=float(rng.uniform()),
                                     kraus=random_cptp_kraus(rng, ds)))
    pops = rng.uniform(size=nc) + 0.1
    pops /= pops.sum()
    return StochasticEnvModel(
        lindblads=tuple(random_lindblad_generator(rng, ds) for _ in range(nc)),
        jumps=tuple(jumps),
        populations0=pops,
    )


def random_quantum_bystander(rng: np.random.Generator, ds: int = 2,
                             de: int = 2, n_collisions: int = 2
                             ) -> QuantumBystanderModel:
    collisions = tuple(
        Collision(
            op=rng.normal(size=(de, de)) + 1j * rng.normal(size=(de, de)),
            rate=float(rng.uniform()),
            kraus=random_cptp_kraus(rng, ds),
        )
        for _ in range(n_collisions)
    )
    return QuantumBystanderModel(
        ls=random_lindblad_generator(rng, ds),
        le=random_lindblad_generator(rng, de),
        collisions=collisions,
        env0=random_density_matrix(rng, de),
    )


def random_unitary_model(rng: np.random.Generator, ds: int = 2,
                         de: int = 2) -> UnitaryModel:
    return UnitaryModel(
        hs=random_hermitian(rng, ds),
        he=random_hermitian(rng, de),
        hi=random_hermitian(rng, ds * de),
        env0=random_density_matrix(rng, de),
    )


# ---------------------------------------------------------------------------
# named presets
# ---------------------------------------------------------------------------

def exchange_preset(coupling: float = 1.0, splitting: float = 0.5) -> UnitaryModel:
    """Resonant qubit pair exchanging excitations, mixed environment start."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sp = dag(sm)
    hi = coupling * (kron(sp, sm) + kron(sm, sp))
    sz = PAULI_OPS[2]
    return UnitaryModel(
        hs=splitting * sz,
        he=splitting * sz,
        hi=hi,
        env0=np.diag([0.75, 0.25]).astype(complex),
    )


def commuting_interaction_preset(coupling: float = 1.0,
                                 field: float = 0.7,
                                 env_freq: float = 0.5) -> UnitaryModel:
    """Dephasing-coupled pair whose environment Hamiltonian commutes with
    the interaction; a transverse system field keeps the dynamics rich."""
    sx = PAULI_OPS[0]
    sz = PAULI_OPS[2]
    return UnitaryModel(
        hs=field * sx,
        he=env_freq * sz,
        hi=coupling * kron(sz, sz),
        env0=np.diag([0.75, 0.25]).astype(complex),
    )


# ---------------------------------------------------------------------------
# model definition files ("qflow-model/1")
# ---------------------------------------------------------------------------

def _matrix_to_json(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InvariantViolation("matrices must be nested [re, im] pairs")
    # the model checks reject non-finite entries with one message
    with np.errstate(invalid="ignore"):
        return arr[..., 0] + 1j * arr[..., 1]


def model_to_dict(model: BipartiteModel) -> dict:
    doc = {"format": MODEL_FORMAT, "ds": model.ds, "de_or_nc": model.env_dim}
    # ahead of the stochastic environment, of which a mixture is a subclass
    if isinstance(model, ClassicalMixtureModel):
        doc["class"] = "classical_mixture"
        doc["parameters"] = {
            "generators": [_matrix_to_json(g) for g in model.lindblads],
        }
        doc["initial_env"] = [float(w) for w in model.weights]
    elif isinstance(model, StochasticEnvModel):
        doc["class"] = "stochastic_env"
        doc["parameters"] = {
            "generators": [_matrix_to_json(g) for g in model.lindblads],
            "jumps": [
                {
                    "src": j.src,
                    "dst": j.dst,
                    "rate": j.rate,
                    "kraus": [_matrix_to_json(k) for k in j.kraus],
                }
                for j in model.jumps
            ],
        }
        doc["initial_env"] = [float(p) for p in model.populations0]
    elif isinstance(model, QuantumBystanderModel):
        doc["class"] = "quantum_bystander"
        doc["parameters"] = {
            "system_generator": _matrix_to_json(model.ls),
            "env_generator": _matrix_to_json(model.le),
            "collisions": [
                {
                    "op": _matrix_to_json(c.op),
                    "rate": c.rate,
                    "kraus": [_matrix_to_json(k) for k in c.kraus],
                }
                for c in model.collisions
            ],
        }
        doc["initial_env"] = _matrix_to_json(model.env0)
    elif isinstance(model, UnitaryModel):
        doc["class"] = "unitary"
        doc["parameters"] = {
            "h_system": _matrix_to_json(model.hs),
            "h_env": _matrix_to_json(model.he),
            "h_interaction": _matrix_to_json(model.hi),
        }
        doc["initial_env"] = _matrix_to_json(model.env0)
    elif isinstance(model, DepolarizingModel):
        doc["class"] = "depolarizing"
        params = {"gamma": model.gamma, "phi": model.phi, "omega": model.omega}
        if model.modulation is not None:
            spec = getattr(model.modulation, "json_spec", None)
            if spec is None:
                raise InvariantViolation(
                    "only sine_modulation(...) callables are serializable"
                )
            params["modulation"] = spec
        doc["parameters"] = params
        doc["initial_env"] = [float(p) for p in model.populations0]
    else:
        raise InvariantViolation(f"unknown model type {type(model).__name__}")
    return doc


def sine_modulation(amplitude: float, frequency: float):
    """Serializable slow-drive profile b(t) = amplitude * sin(frequency * t),
    elementwise over an array of times."""
    if not 0 <= amplitude < 1:
        raise InvariantViolation("modulation amplitude must lie in [0, 1)")
    if not np.isfinite(frequency):
        raise InvariantViolation("modulation frequency must be finite")

    def b(t):
        return amplitude * np.sin(frequency * t)

    b.json_spec = {"type": "sine", "amplitude": amplitude, "frequency": frequency}
    return b


def model_from_dict(doc: dict) -> BipartiteModel:
    """Model from a ``qflow-model/1`` document; any malformed document
    raises :class:`InvariantViolation`."""
    if not isinstance(doc, dict):
        raise InvariantViolation("model document must be a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise InvariantViolation(
            f"unsupported model format {doc.get('format')!r}; expected {MODEL_FORMAT}"
        )
    try:
        return _model_from_document(doc)
    except InvariantViolation:
        raise
    except KeyError as exc:
        raise InvariantViolation(f"model document lacks the key {exc}") from exc
    except (AttributeError, IndexError, OverflowError, TypeError,
            ValueError) as exc:
        raise InvariantViolation(f"malformed model document: {exc}") from exc


def _model_from_document(doc: dict) -> BipartiteModel:
    cls = doc.get("class")
    params = doc.get("parameters", {})
    env = doc.get("initial_env")
    if cls == "classical_mixture":
        return ClassicalMixtureModel(
            lindblads=tuple(_matrix_from_json(g) for g in params["generators"]),
            weights=np.asarray(env, dtype=float),
        )
    if cls == "stochastic_env":
        jumps = tuple(
            EnvJump(src=int(j["src"]), dst=int(j["dst"]), rate=float(j["rate"]),
                    kraus=tuple(_matrix_from_json(k) for k in j["kraus"]))
            for j in params.get("jumps", [])
        )
        return StochasticEnvModel(
            lindblads=tuple(_matrix_from_json(g) for g in params["generators"]),
            jumps=jumps,
            populations0=np.asarray(env, dtype=float),
        )
    if cls == "quantum_bystander":
        collisions = tuple(
            Collision(op=_matrix_from_json(c["op"]), rate=float(c["rate"]),
                      kraus=tuple(_matrix_from_json(k) for k in c["kraus"]))
            for c in params.get("collisions", [])
        )
        return QuantumBystanderModel(
            ls=_matrix_from_json(params["system_generator"]),
            le=_matrix_from_json(params["env_generator"]),
            collisions=collisions,
            env0=_matrix_from_json(env),
        )
    if cls == "unitary":
        return UnitaryModel(
            hs=_matrix_from_json(params["h_system"]),
            he=_matrix_from_json(params["h_env"]),
            hi=_matrix_from_json(params["h_interaction"]),
            env0=_matrix_from_json(env),
        )
    if cls == "depolarizing":
        modulation = None
        mod_spec = params.get("modulation")
        if mod_spec is not None:
            if mod_spec.get("type") != "sine":
                raise InvariantViolation(
                    f"unknown modulation type {mod_spec.get('type')!r}"
                )
            modulation = sine_modulation(float(mod_spec["amplitude"]),
                                         float(mod_spec["frequency"]))
        return DepolarizingModel(
            gamma=float(params["gamma"]),
            phi=float(params["phi"]),
            populations0=np.asarray(env, dtype=float),
            omega=float(params.get("omega", 0.0)),
            modulation=modulation,
        )
    raise InvariantViolation(f"unknown model class {cls!r}")


def save_model(model: BipartiteModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> BipartiteModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InvariantViolation(f"{path} is not a JSON document: {exc}") from exc
    return model_from_dict(doc)
