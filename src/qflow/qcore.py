"""Dense complex linear algebra and quantum primitives.

Conventions fixed repo-wide:

* Vectorization is column-stacking: ``vec(A X B) = (B.T kron A) vec(X)``,
  so ``vec`` maps a matrix to the concatenation of its columns
  (``X.flatten(order="F")``).
* Tensor products order the system factor first, the environment second.

Every function here is pure; no shared mutable state.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
PROPAGATION_TOL = 1e-9
TRACE_DRIFT_TOL = 1e-8


class InvariantViolation(ValueError):
    """A construction-time contract was violated (shape, hermiticity, ...)."""


class NumericalDriftError(RuntimeError):
    """A propagated quantity drifted beyond its allowed tolerance."""


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

#: Pauli channel operators in the label order used throughout: x, y, z, identity.
PAULI_OPS = (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2 of each trailing square block."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| for a normalized vector."""
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def basis_ket(dim: int, index: int) -> np.ndarray:
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return ket


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for a dim x dim matrix."""
    return np.asarray(v).reshape((dim, dim), order="F")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the system factor first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    rho : square array of size ds*de
    dims : (ds, de) factor dimensions, system first
    keep : "system"/"s" keeps the first factor, "environment"/"e" the second
    """
    ds, de = dims
    rho = np.asarray(rho)
    if rho.shape != (ds * de, ds * de):
        raise InvariantViolation(
            f"operator shape {rho.shape} does not match dims {ds}x{de}"
        )
    r = rho.reshape(ds, de, ds, de)
    if keep in ("system", "s"):
        return np.einsum("abcb->ac", r)
    if keep in ("environment", "e"):
        return np.einsum("abad->bd", r)
    raise InvariantViolation(f"unknown keep flag {keep!r}")


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the Hermitian difference of two states; a
    stack of square blocks counts as their block-diagonal sum."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise InvariantViolation(
            f"dimension mismatch: {rho.shape} vs {sigma.shape}"
        )
    eigs = np.linalg.eigvalsh(hermitize(rho - sigma))
    return 0.5 * float(np.abs(eigs).sum(axis=-1).sum())


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with Pade approximants."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m.view(float))):
        raise InvariantViolation("matrix_exp requires finite entries")
    return scipy.linalg.expm(m)


def conjugation_superop(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Superoperator of X -> A X B^dag; B defaults to A."""
    if b is None:
        b = a
    return np.kron(b.conj(), a)


def kraus_superoperator(kraus, require_cptp: bool = False,
                        tol: float = PROPAGATION_TOL) -> np.ndarray:
    """Superoperator sum_i K_i X K_i^dag from a list of Kraus operators."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    if not kraus:
        raise InvariantViolation("empty Kraus list")
    d = kraus[0].shape[0]
    if require_cptp:
        comp = sum(dag(k) @ k for k in kraus)
        if np.abs(comp - np.eye(d)).max() > tol:
            raise InvariantViolation(
                "Kraus completeness residual "
                f"{np.abs(comp - np.eye(d)).max():.2e} exceeds {tol:g}"
            )
    return sum(conjugation_superop(k) for k in kraus)


def lindblad_superoperator(h: np.ndarray, jumps=()) -> np.ndarray:
    """Generator of -i[H, .] + sum_a r_a (L X L^dag - {L^dag L, X}/2).

    ``jumps`` is an iterable of (operator, rate) pairs with rate >= 0.
    The result acts on column-stacked operators.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    if h.shape != (d, d):
        raise InvariantViolation("Hamiltonian must be square")
    if np.abs(h - dag(h)).max() > HERMITIAN_TOL:
        raise InvariantViolation("Hamiltonian is not Hermitian within 1e-10")
    eye = np.eye(d)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jumps:
        if rate < 0:
            raise InvariantViolation(f"negative jump rate {rate}")
        op = np.asarray(op, dtype=complex)
        n = dag(op) @ op
        gen = gen + rate * (
            conjugation_superop(op)
            - 0.5 * np.kron(eye, n)
            - 0.5 * np.kron(n.T, eye)
        )
    return gen


def apply_superop(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a superoperator matrix to an operator."""
    x = np.asarray(x, dtype=complex)
    d = x.shape[0]
    if s.shape != (d * d, d * d):
        raise InvariantViolation(
            f"superoperator shape {s.shape} incompatible with operator dim {d}"
        )
    return unvec(s @ vec(x), d)


def lift_system_superop(m: np.ndarray, ds: int, de: int) -> np.ndarray:
    """Embed a system-space superoperator into the bipartite operator space."""
    m4 = np.asarray(m, dtype=complex).reshape(ds, ds, ds, ds)
    eye = np.eye(de)
    full = np.einsum("ABCD,ab,cd->AaBcCbDd", m4, eye, eye)
    d2 = (ds * de) ** 2
    return full.reshape(d2, d2)


def lift_env_superop(m: np.ndarray, ds: int, de: int) -> np.ndarray:
    """Embed an environment-space superoperator into the bipartite space."""
    m4 = np.asarray(m, dtype=complex).reshape(de, de, de, de)
    eye = np.eye(ds)
    full = np.einsum("abcd,AC,BD->AaBbCcDd", m4, eye, eye)
    d2 = (ds * de) ** 2
    return full.reshape(d2, d2)


def trace_preservation_residual(s: np.ndarray, dim: int,
                                generator: bool = True) -> float:
    """Residual of the left trace functional under the adjoint map.

    For a generator the functional must be annihilated; for a propagator it
    must be a fixed point.
    """
    tvec = vec(np.eye(dim, dtype=complex)).conj()
    image = tvec @ s
    if generator:
        return float(np.abs(image).max())
    return float(np.abs(image - tvec).max())


def validate_density_matrix(rho: np.ndarray,
                            herm_tol: float = HERMITIAN_TOL,
                            trace_tol: float = TRACE_TOL,
                            psd_tol: float = POSITIVITY_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the input."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if rho.ndim != 2 or rho.shape != (d, d):
        raise InvariantViolation("density matrix must be square")
    if not np.all(np.isfinite(rho.view(float))):
        raise InvariantViolation("density matrix has non-finite entries")
    if np.abs(rho - dag(rho)).max() > herm_tol:
        raise InvariantViolation("density matrix not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise InvariantViolation(f"trace {np.trace(rho):.12g} differs from 1")
    if np.linalg.eigvalsh(hermitize(rho)).min() < -psd_tol:
        raise InvariantViolation("density matrix has a negative eigenvalue")
    return rho


def random_density_matrix(rng: np.random.Generator, dim: int,
                          pure: bool = False) -> np.ndarray:
    """Random state: Haar ket projector or normalized Wishart matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if pure:
        ket = g[:, 0] / np.linalg.norm(g[:, 0])
        return projector(ket)
    rho = g @ dag(g)
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary from the QR-corrected Ginibre ensemble."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(g)
