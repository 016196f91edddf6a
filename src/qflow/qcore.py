"""Dense complex linear algebra and quantum primitives.

Conventions fixed repo-wide:

* Vectorization is column-stacking: ``vec(A X B) = (B.T kron A) vec(X)``,
  so ``vec`` maps a matrix to the concatenation of its columns
  (``X.flatten(order="F")``).
* Tensor products order the system factor first, the environment second.

Every function here is pure; no shared mutable state.  The checks of the
invariants that several modules share (probability vectors, rates, Kraus
completeness, Hermiticity, increasing times) live here, one each, and every
one of them fails on NaN.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
PROPAGATION_TOL = 1e-9
TRACE_DRIFT_TOL = 1e-8
PROBABILITY_TOL = 1e-12


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

# a qubit's column-stacked entries (X00, X10, X01, X11) into its Pauli
# components (X00 + X11, X01 + X10, X10 - X01, X00 - X11), which are x_0,
# x_x, i x_y and x_z: each goes to plus or minus itself under every
# sigma_k X sigma_k, and the way back is the transpose halved
PAULI_CHANGE = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                         [0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
PAULI_CHANGE.setflags(write=False)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def check_probabilities(p: np.ndarray, label: str) -> None:
    """Raise unless ``p`` holds non-negative weights summing to one within
    1e-12 along its last axis; a NaN, empty or 0-d ``p`` fails."""
    if not (p.ndim and p.size and np.all(p >= 0)
            and np.all(np.abs(p.sum(axis=-1) - 1.0) <= PROBABILITY_TOL)):
        raise InvariantViolation(f"{label} must be non-negative and sum to one")


def check_rate(rate: float, label: str) -> None:
    """Raise unless ``rate`` is finite and non-negative."""
    if not 0 <= rate < np.inf:  # NaN fails
        raise InvariantViolation(f"{label} {rate} must be finite and non-negative")


def check_rate_pair(gamma: float, phi: float) -> None:
    """Raise unless both rates are finite and positive with a finite sum."""
    if not (0 < gamma < np.inf and 0 < phi < np.inf
            and gamma + phi < np.inf):  # NaN fails
        raise InvariantViolation(f"rates gamma={gamma:g}, phi={phi:g} must be "
                                 "finite and positive with a finite sum")


def check_kraus(kraus) -> None:
    """Raise unless the Kraus operators, one or more square matrices of one
    size, satisfy sum K^dag K = 1 within 1e-9 entrywise; no superoperator
    is built, and a non-finite entry fails."""
    try:
        k = np.asarray(kraus, dtype=complex)
        square = k.ndim == 3 and len(k) and k.shape[1] == k.shape[2]
    except ValueError:  # operators of different shapes
        square = False
    if not square:
        raise InvariantViolation("Kraus operators must be one or more square "
                                 "matrices of one size")
    with np.errstate(invalid="ignore", over="ignore"):
        comp = (k.conj().swapaxes(1, 2) @ k).sum(axis=0)
        residual = np.abs(comp - np.eye(k.shape[1])).max()
    if not residual <= PROPAGATION_TOL:
        raise InvariantViolation(f"Kraus completeness residual {residual:.2e} "
                                 f"exceeds {PROPAGATION_TOL:g}")


def check_hermitian(h: np.ndarray, label: str) -> None:
    """Raise unless ``h`` is a square matrix equal to its adjoint within
    1e-10; a non-finite entry fails."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvariantViolation(f"{label} must be a square matrix")
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(h - dag(h)).max()
    if not asymmetry <= HERMITIAN_TOL:
        raise InvariantViolation(f"{label} is not Hermitian within 1e-10")


def check_increasing(times: np.ndarray, label: str) -> None:
    """Raise unless ``times`` are finite, non-negative and increase strictly
    along the last axis."""
    if not np.all((0 <= times) & (times < np.inf)):
        raise InvariantViolation(f"{label} must be finite and non-negative")
    if not np.all(np.diff(times) > 0):
        raise InvariantViolation(f"{label} must increase strictly")


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2 of each trailing square block, built in
    one new array."""
    a = np.asarray(a)
    out = np.conjugate(a.swapaxes(-1, -2), dtype=np.result_type(a, 0.5))
    out += a
    out *= 0.5
    return out


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


def gathered(x: np.ndarray, gather) -> np.ndarray:
    """A x over the axis -2 of ``x``, for the A whose row k holds the
    weights ``weight[:, k]`` at the columns ``index[:, k]``, ``gather =
    (index, weight)``."""
    (i0, i1), (w0, w1) = gather
    return x[..., i0, :] * w0[:, None] + x[..., i1, :] * w1[:, None]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the system factor first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    rho : square array of size ds*de
    dims : (ds, de) factor dimensions, system first
    keep : "system" keeps the first factor, "environment" the second
    """
    ds, de = dims
    rho = np.asarray(rho)
    if rho.shape != (ds * de, ds * de):
        raise InvariantViolation(
            f"operator shape {rho.shape} does not match dims {ds}x{de}"
        )
    r = rho.reshape(ds, de, ds, de)
    if keep == "system":
        return np.einsum("abcb->ac", r)
    if keep == "environment":
        return np.einsum("abad->bd", r)
    raise InvariantViolation(f"unknown keep flag {keep!r}")


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """Half the trace norm of the Hermitian difference of two states: a float
    for two matrices, one value per pair along the leading axes of two
    stacks, from one batched ``eigvalsh``."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise InvariantViolation(
            f"dimension mismatch: {rho.shape} vs {sigma.shape}"
        )
    eigs = np.linalg.eigvalsh(hermitize(rho - sigma))
    out = 0.5 * np.abs(eigs).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _pade_rows(b):
    """Weights of the even powers I, A^2, A^4, ... in p_o and p_e, where
    p(A) = A p_o(A^2) + p_e(A^2).  Degree 13 stops at A^6 and adds the two
    rows of weights whose sums A^6 multiplies (Higham 2005, eq. 2.11)."""
    if len(b) < 14:
        return np.array([b[1::2], b[::2]])
    return np.array([b[1:8:2], b[:8:2], (0.0,) + b[9::2], (0.0,) + b[8::2]])


# (theta_m, weights of b_0..b_m): the diagonal Pade approximant
# r_m(A) = p(A)/p(-A), p(x) = sum_k b_k x^k, meets double precision for
# 1-norms up to theta_m (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
# (2005), Table 2.3); m = 3, 5, 7, 9, 13.
_PADE = tuple((theta, _pade_rows(b)) for theta, b in (
    (1.495585217958292e-2, (120., 60., 12., 1.)),
    (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200., 25200.,
                            1512., 56., 1.)),
    (2.097847961257068e0, (17643225600., 8821612800., 2075673600., 302702400.,
                           30270240., 2162160., 110880., 3960., 90., 1.)),
    (5.371920351148152e0, (64764752532480000., 32382376266240000.,
                           7771770303897600., 1187353796428800.,
                           129060195264000., 10559470521600., 670442572800.,
                           33522128640., 1323241920., 40840800., 960960.,
                           16380., 182., 1.)),
))


def _pade_exp(a: np.ndarray, norm: float) -> np.ndarray:
    """exp(a) for a finite matrix of 1-norm ``norm``: the lowest-degree
    approximant whose theta_m covers the norm, else degree 13 on a / 2^s
    squared s times."""
    for theta, rows in _PADE:
        if norm <= theta:
            break
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    if s:
        a = a * math.ldexp(1.0, -s)
    n, k = a.shape[0], rows.shape[1]
    powers = np.empty((k, n, n), dtype=a.dtype)  # I, A^2, ..., A^(2k-2)
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    for j in range(2, k):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    # (p_o, p_e), plus at degree 13 the pair that A^6 multiplies
    parts = (rows @ powers.reshape(k, n * n)).reshape(-1, 2, n, n)
    odd, even = parts[0] if len(parts) == 1 else parts[0] + powers[3] @ parts[1]
    u = a @ odd
    x = np.linalg.solve(even - u, even + u)
    for _ in range(s):
        x = x @ x
    return x


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring over diagonal Pade
    approximants of degree 3, 5, 7, 9 or 13, chosen by the 1-norm against
    the theta_m bounds of Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005); ``scipy.linalg.expm`` is the reference in the tests.  A matrix
    with no imaginary part is exponentiated in real arithmetic; the result
    is always complex.  Non-finite entries raise InvariantViolation, an
    exponential that overflows NumericalDriftError."""
    m = np.asarray(m, dtype=complex)
    a = m if m.imag.any() else m.real.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        # the 1-norm is not finite when an entry is not, or when it overflows
        norm = float(np.abs(a).sum(axis=0).max())
        if not norm < np.inf and not np.isfinite(m).all():
            raise InvariantViolation("matrix_exp requires finite entries")
        x = _pade_exp(a, norm) if norm < np.inf else None
    if x is None or not np.isfinite(x).all():
        raise NumericalDriftError(
            f"matrix exponential overflows (1-norm {norm:.3g})")
    return x.astype(complex)


def conjugation_superop(a: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X A^dag.  This is ``np.kron(a.conj(), a)``,
    entry for entry, as one broadcast product."""
    m, n = a.shape
    return (a.conj()[:, None, :, None] * a[None, :, None, :]).reshape(m * m, n * n)


def kraus_superoperator(kraus) -> np.ndarray:
    """Superoperator sum_i K_i X K_i^dag of a non-empty list of Kraus
    operators (see :func:`check_kraus`)."""
    return sum(conjugation_superop(np.asarray(k, dtype=complex)) for k in kraus)


def lindblad_superoperator(h: np.ndarray, jumps=()) -> np.ndarray:
    """Generator of -i[H, .] + sum_a r_a (L X L^dag - {L^dag L, X}/2).

    ``jumps`` is an iterable of (operator, rate) pairs with rate >= 0.
    The result acts on column-stacked operators.
    """
    h = np.asarray(h, dtype=complex)
    check_hermitian(h, "Hamiltonian")
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jumps:
        check_rate(rate, "jump rate")
        op = np.asarray(op, dtype=complex)
        n = dag(op) @ op
        gen = gen + rate * (
            conjugation_superop(op)
            - 0.5 * np.kron(eye, n)
            - 0.5 * np.kron(n.T, eye)
        )
    return gen


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


def trace_preservation_residual(s: np.ndarray, dim: int) -> float:
    """Residual of the left trace functional under the adjoint of a
    generator, which must annihilate it."""
    tvec = vec(np.eye(dim, dtype=complex)).conj()
    return float(np.abs(tvec @ s).max())


def hermiticity_preservation_residual(s: np.ndarray, dim: int) -> float:
    """Residual of S[X^dag] = S[X]^dag for a generator acting on
    column-stacked dim x dim operators: with P the transpose permutation,
    the largest entry of S P - P conj(S).  A non-finite entry gives a
    non-finite residual, with no numpy warning."""
    swap = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    s = np.asarray(s)
    with np.errstate(invalid="ignore"):
        return float(np.abs(s[:, swap] - s[swap].conj()).max())


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the input."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if rho.ndim != 2 or rho.shape != (d, d):
        raise InvariantViolation("density matrix must be square")
    if not np.isfinite(rho).all():
        raise InvariantViolation("density matrix has non-finite entries")
    if np.abs(rho - dag(rho)).max() > HERMITIAN_TOL:
        raise InvariantViolation("density matrix not Hermitian within 1e-10")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
        raise InvariantViolation(f"trace {trace:.12g} differs from 1")
    if np.linalg.eigvalsh(hermitize(rho)).min() < -POSITIVITY_TOL:
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
