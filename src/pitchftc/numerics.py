"""Numerical kernels shared by the control and diagnosis stack.

Everything here is plain linear algebra with no knowledge of turbines:

- square-root recursive least squares with exponential forgetting, each
  block absorbed in place by one triangular-pentagonal QR (LAPACK
  ``dtpqrt``, through scipy's wrapper) of a persistent column-major
  triangle,
- a stabilizing discrete Riccati solve with a closed-loop check: the
  generalized-Schur algorithm of ``scipy.linalg.solve_discrete_are`` on
  direct LAPACK calls, which gives its bits without its per-call wrapper
  overhead (scipy's solver stays the reference in the tests),
- zero-order-hold discretization of a second-order lag with a lead zero,
- averaged-periodogram power spectral density estimation,
- lengths of unbroken runs in a boolean stream, carried across chunks,
- one BLAS thread for the length of a run, so its bits do not depend on
  the thread count the process started with.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy import signal
from scipy.linalg import lapack

log = logging.getLogger(__name__)

__all__ = [
    "StateSpaceModel",
    "RlsEstimator",
    "DareError",
    "solve_dare",
    "discretize_second_order",
    "psd_estimate",
    "run_lengths",
    "single_blas_thread",
]


@dataclass
class StateSpaceModel:
    """Discrete-time LTI model x+ = A x + B u, y = C x + D u sampled at Ts."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Ts: float

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B row count must match A")
        if self.C.shape[1] != n:
            raise ValueError("C column count must match A")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ValueError("D shape must be (outputs, inputs)")
        if self.Ts <= 0:
            raise ValueError("Ts must be positive")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]


#: column block size of the triangular-pentagonal QR, capped at the column
#: count (d + 1) because LAPACK requires it.  At the run shape (41 columns,
#: 125 rows, one BLAS thread on a Xeon vCPU) 4, 8 and 16 each took 48-54 us
#: per call and 32 took 65 us (best of 30 runs of 500 calls).  The block
#: size changes the bits (4, 8 and 16 give different triangles), so it stays
#: at 16, the size every recorded run was computed with
TPQRT_BLOCK = 16


class RlsEstimator:
    """Recursive least squares kept in square-root (QR) form.

    The normal-equation information matrix is never formed.  The state is an
    upper-triangular factor ``R`` and transformed right-hand side ``z`` such
    that the current estimate ``w`` solves ``R w = z``.  Absorbing a block
    scales the prior by sqrt(forgetting) per sample and takes one
    triangular-pentagonal QR (LAPACK ``dtpqrt``) of the prior triangle
    ``[R z]`` over the weighted new rows ``[phi y]``: the orthogonal
    transform touches only the triangle and the new rows, never the zeros
    below the diagonal, and is numerically equivalent to the classic
    Givens-rotation update sequence.

    ``[R z]`` lives in one persistent column-major (dim+1) x (dim+1) array
    that ``dtpqrt`` overwrites in place; ``factor`` and ``rhs`` read copies
    of its blocks and assign into them.

    The factor is initialized to ``INIT_SCALE * I`` so the first solves are
    well posed without meaningfully biasing long-run estimates.
    """

    #: relative diagonal collapse below which the factor is flagged degenerate
    DEGENERATE_RTOL = 1e-12
    #: diagonals of the initial factor and of the factor :meth:`reseed` leaves
    INIT_SCALE = 1e-4
    RESEED_CONFIDENCE = 1e-2

    def __init__(self, dim: int, forgetting: float = 1.0):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        self.dim = int(dim)
        self.forgetting = float(forgetting)
        # [R z] over a last row that holds only the residual norm in its corner
        self._tri = np.zeros((self.dim + 1, self.dim + 1), order="F")
        np.fill_diagonal(self._tri[: self.dim, : self.dim], self.INIT_SCALE)
        self.degenerate = False

    @property
    def factor(self) -> np.ndarray:
        """Copy of the triangular factor R (dim x dim)."""
        return self._tri[: self.dim, : self.dim].copy(order="F")

    @factor.setter
    def factor(self, value: np.ndarray) -> None:
        self._tri[: self.dim, : self.dim] = value

    @property
    def rhs(self) -> np.ndarray:
        """Copy of the transformed right-hand side z (dim,)."""
        return self._tri[: self.dim, self.dim].copy()

    @rhs.setter
    def rhs(self, value: np.ndarray) -> None:
        self._tri[: self.dim, self.dim] = value

    @property
    def estimate(self) -> np.ndarray:
        """Current least-squares solution (row vector of length dim)."""
        d = self.dim
        # the first d columns are column-major with leading dimension d + 1,
        # so LAPACK solves on the stored triangle without a copy
        w, info = lapack.dtrtrs(self._tri[:, :d], self._tri[:d, d])
        if info > 0:
            raise sla.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
        return w

    def residual(self, regressors: np.ndarray, observations: np.ndarray) -> np.ndarray:
        """Observations less their prediction by the current estimate, (n,)."""
        return observations - regressors @ self.estimate

    def update_block(self, regressors: np.ndarray, observations: np.ndarray) -> np.ndarray:
        """Absorb a block of rows in chronological order; returns its a-priori residual.

        Equivalent to absorbing the rows one at a time: sample i of a block
        of length B carries weight forgetting**(B-1-i) and the prior is
        scaled by forgetting**B.  Column-major regressors are copied fastest.
        The (B,) residual is :meth:`residual` of the block against the
        estimate held before it.
        """
        phi = np.asarray(regressors, dtype=float)
        y = np.asarray(observations, dtype=float).reshape(-1)
        if phi.ndim != 2 or phi.shape[1] != self.dim:
            raise ValueError(f"regressors must be (n, {self.dim})")
        if phi.shape[0] != y.shape[0]:
            raise ValueError("row count mismatch between regressors and observations")
        b = phi.shape[0]
        if b == 0:
            return np.zeros(0)
        residual = self.residual(phi, y)

        d, lam, tri = self.dim, self.forgetting, self._tri
        # dtpqrt reads and writes only the upper triangle, so the zeros
        # below the diagonal stay zero.  The corner tri[d, d] carries the
        # forgotten residual norm: a column's reflector touches only its own
        # row of the triangle, so the corner never reaches R or z.
        tri *= lam ** (0.5 * b)
        rows = np.empty((b, d + 1), order="F")
        w = lam ** (0.5 * (b - 1 - np.arange(b)))
        np.multiply(w[:, None], phi, out=rows[:, :d])
        np.multiply(w, y, out=rows[:, d])

        out, _, _, info = lapack.dtpqrt(
            0, min(TPQRT_BLOCK, d + 1), tri, rows, overwrite_a=1, overwrite_b=1
        )
        if info != 0 or out is not tri:
            raise RuntimeError(f"dtpqrt did not update the triangle in place (info {info})")
        # One triangular factor per information matrix; fix signs so the
        # diagonal is positive and the factor is unique.
        diag = np.diagonal(tri)[:d]
        tri[np.flatnonzero(diag < 0.0)] *= -1.0

        adiag = np.abs(diag)
        if adiag.min() < self.DEGENERATE_RTOL * adiag.max():
            self.degenerate = True
        return residual

    def reseed(self, estimate: np.ndarray) -> None:
        """Reset the factor around a given estimate, weighted by ``RESEED_CONFIDENCE``."""
        w = np.asarray(estimate, dtype=float).reshape(-1)
        if w.shape[0] != self.dim:
            raise ValueError(f"estimate must have length {self.dim}")
        self._tri[:] = 0.0
        np.fill_diagonal(self._tri[: self.dim, : self.dim], self.RESEED_CONFIDENCE)
        self._tri[: self.dim, self.dim] = self.RESEED_CONFIDENCE * w
        self.degenerate = False


class DareError(RuntimeError):
    """The Riccati equation has no stabilizing solution, or its gain does not stabilize."""


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.max(np.abs(M - M.T)) > 1e-10 * max(1.0, np.max(np.abs(M))):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (M + M.T)


def _lapack_call(name: str, routine, *args, **kwargs) -> tuple:
    """One LAPACK call through its scipy wrapper, with a workspace query first.

    The query sizes the workspace as scipy's own wrappers do, so the
    blocked and unblocked code paths, and with them the bits, are theirs.
    """
    work = routine(*args, lwork=-1, **kwargs)[-2]
    result = routine(*args, lwork=int(work[0]), **kwargs)
    if result[-1] < 0:
        raise ValueError(f"illegal value in argument {-result[-1]} of {name}")
    return result


def _iuc(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues alpha/beta strictly inside the unit circle."""
    inside = np.zeros(alpha.shape, dtype=bool)
    finite = beta != 0
    inside[finite] = abs(alpha[finite] / beta[finite]) < 1.0
    return inside


def _stabilizing_solution(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """Stabilizing Riccati solution by the generalized-Schur method.

    The algorithm of ``scipy.linalg.solve_discrete_are``, step for step on
    its LAPACK routines: the extended symplectic pencil with Benner's
    symmetric balancing (``dgebal``), deflation of the input columns
    (``dgeqrf``/``dorgqr``), the QZ decomposition (``dgges``) reordered to
    put the eigenvalues inside the unit circle first (``dtgsen``), and the
    LU solve of the stable basis (``dgetrf``, ``dtrtrs``).  Its conditioning
    and symmetry checks raise ``DareError`` where scipy raises.
    """
    n, m = B.shape
    H = np.zeros((2 * n + m, 2 * n + m))
    H[:n, :n] = A
    H[:n, 2 * n :] = B
    H[n : 2 * n, :n] = -Q
    H[n : 2 * n, n : 2 * n] = np.eye(n)
    H[2 * n :, 2 * n :] = R
    J = np.zeros_like(H)
    J[:n, :n] = np.eye(n)
    J[n : 2 * n, n : 2 * n] = A.T
    J[2 * n :, n : 2 * n] = -B.T

    # balance |H| + |J| without its diagonal, then impose diag(D, D^-1) on
    # the state blocks so the pencil stays symplectic; the scalings are
    # powers of two, so "not all one" is scipy's allclose test
    M = np.abs(H) + np.abs(J)
    np.fill_diagonal(M, 0.0)
    _, lo, hi, pivscale, info = lapack.dgebal(M, scale=1, permute=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgebal")
    sca = np.ones(2 * n + m)
    sca[lo : hi + 1] = pivscale[lo : hi + 1]
    rescaled = bool(np.any(sca != 1.0))
    if rescaled:
        sca = np.log2(sca)
        s = np.round((sca[n : 2 * n] - sca[:n]) / 2)
        sca = 2 ** np.r_[s, -s, sca[2 * n :]]
        elwisescale = sca[:, None] * np.reciprocal(sca)
        H *= elwisescale
        J *= elwisescale

    # deflate the pencil by the R columns
    qr, tau, _, _ = _lapack_call("dgeqrf", lapack.dgeqrf, H[:, -m:])
    full = np.empty((2 * n + m, 2 * n + m), order="F")
    full[:, :m] = qr
    q_of_qr, _, _ = _lapack_call("dorgqr", lapack.dorgqr, full, tau, overwrite_a=1)
    H = q_of_qr[:, m:].T.dot(H[:, : 2 * n])
    J = q_of_qr[:, m:].T.dot(J[:, : 2 * n])

    def no_sort(alphar, alphai, beta):
        return None

    AA, BB, _, alphar, alphai, beta, Q_, Z_, _, info = _lapack_call(
        "dgges", lapack.dgges, no_sort, H, J, overwrite_a=1, overwrite_b=1, sort_t=0
    )
    if 0 < info <= 2 * n:
        warnings.warn(
            "The QZ iteration failed. (a,b) are not in Schur form, but ALPHAR(j), "
            f"ALPHAI(j), and BETA(j) should be correct for J={info - 1},...,N",
            sla.LinAlgWarning,
            stacklevel=3,
        )
    elif info > 2 * n:
        raise DareError("no stabilizing solution: QZ iteration failed")
    select = _iuc(alphar + alphai * 1.0j, beta)
    *_, u, _, _, _, _, info = lapack.dtgsen(
        select, AA, BB, Q_, Z_, ijob=0, lwork=8 * n + 16, liwork=1
    )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtgsen")
    if info == 1:
        raise DareError("no stabilizing solution: the eigenvalue reordering failed")

    if not np.isfinite(u[:, :n]).all():
        raise DareError("no stabilizing solution: the stable basis is not finite")
    u00 = u[:n, :n]
    u10 = u[n:, :n]
    lu, piv, _ = lapack.dgetrf(u00)
    if 1 / np.linalg.cond(np.triu(lu)) < np.spacing(1.0):
        raise DareError("no stabilizing solution: failed to find a finite solution")
    # x = u10 u00^-1 through the transposed factors: U^T and L^T (unit diagonal)
    lu_t = lu.T.copy(order="F")
    y, info = lapack.dtrtrs(lu_t, u10.T, lower=1)
    if info == 0:
        y, info = lapack.dtrtrs(lu_t, y, unitdiag=1)
    if info > 0:
        raise DareError(f"no stabilizing solution: singular basis at diagonal {info - 1}")
    order = np.arange(n)
    for i, j in enumerate(piv):
        order[i], order[j] = order[j], order[i]
    # the row permutation as a matrix product, as scipy applies it: the
    # product, unlike indexing, turns a -0.0 entry into +0.0
    perm = np.zeros((n, n))
    perm[order, np.arange(n)] = 1.0
    x = y.T.dot(perm.T)
    if rescaled:
        x *= sca[:n, None] * sca[:n]

    # the Lagrangian basis of a stabilizing solution is symmetric: u00' u10 = u10' u00
    u_sym = u00.T.dot(u10)
    sym_threshold = max(np.spacing(1000.0), 0.1 * np.abs(u_sym).sum(axis=0).max())
    if np.abs(u_sym - u_sym.T).sum(axis=0).max() > sym_threshold:
        raise DareError(
            "no stabilizing solution: the symplectic pencil has eigenvalues "
            "too close to the unit circle"
        )
    return (x + x.T) / 2


def _check_weights(Q: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checks ``solve_dare`` makes on its weights; returns them symmetrized.

    Q must be finite, symmetric and positive semidefinite, R finite,
    symmetric and positive definite.  A caller with constant weights checks
    them once here and then calls ``_solve_dare`` on every solve.
    """
    Q = _check_symmetric(Q, "Q")
    R = _check_symmetric(R, "R")
    if not (np.isfinite(Q).all() and np.isfinite(R).all()):
        raise ValueError("A, B, Q and R must be finite")
    if np.any(np.linalg.eigvalsh(Q) < -1e-10 * max(1.0, np.max(np.abs(Q)))):
        raise ValueError("Q must be positive semidefinite")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise ValueError("R must be positive definite") from exc
    return Q, R


def solve_dare(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Returns (P, K) with K = (R + B'PB)^-1 B'PA, where P is the stabilizing
    solution of ``scipy.linalg.solve_discrete_are``'s algorithm (run here on
    direct LAPACK calls) and A - BK is checked to have spectral radius below
    one.  Invalid weights raise ValueError; a pair with no stabilizing
    solution raises ``DareError``.
    """
    return _solve_dare(A, B, *_check_weights(Q, R))


def _solve_dare(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``solve_dare`` for weights that ``_check_weights`` returned: checks A and B only."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = B.shape
    if A.shape != (n, n) or Q.shape != (n, n) or R.shape != (m, m):
        raise ValueError("A and Q must be n x n, B n x m and R m x m")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("A, B, Q and R must be finite")

    P = _stabilizing_solution(A, B, Q, R)
    BtP = B.T @ P
    K = np.linalg.solve(R + BtP @ B, BtP @ A)
    closed = A - B @ K
    rho = np.max(np.abs(np.linalg.eigvals(closed)))
    if rho >= 1.0:
        raise DareError(f"closed loop not stable, spectral radius {rho:.6f}")
    return P, K


def discretize_second_order(omega: float, damping: float, Ts: float) -> StateSpaceModel:
    """Zero-order-hold discretization of (b s + 1) / (a^2 s^2 + b s + 1).

    ``a = 1/omega`` and ``b = 2 damping / omega``, so the poles sit at
    -damping*omega +- j omega sqrt(1 - damping^2) and the DC gain is one.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    # controllable canonical form of (2*damping*omega s + omega^2) / (s^2 + 2*damping*omega s + omega^2)
    w2 = omega * omega
    two_bw = 2.0 * damping * omega
    Ac = np.array([[0.0, 1.0], [-w2, -two_bw]])
    Bc = np.array([[0.0], [1.0]])
    Cc = np.array([[w2, two_bw]])
    Dc = np.array([[0.0]])
    Ad, Bd, Cd, Dd, _ = signal.cont2discrete((Ac, Bc, Cc, Dc), Ts, method="zoh")
    return StateSpaceModel(Ad, Bd, Cd, Dd, Ts)


def psd_estimate(
    x: np.ndarray, fs: float, segment: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged-periodogram PSD with cosine taper and 50% segment overlap.

    ``segment`` is the per-segment length in samples; by default an eighth of
    the record.  The record must cover at least two (overlapping) segments.
    The density scaling keeps Parseval consistency: integrating the returned
    PSD over frequency recovers the signal variance to within taper bias.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if segment is None:
        segment = max(x.shape[0] // 8, 16)
    segment = int(segment)
    if x.shape[0] < segment + segment // 2:
        raise ValueError("signal too short for the requested segment length")
    freqs, power = signal.welch(
        x,
        fs=fs,
        window="hann",
        nperseg=segment,
        noverlap=segment // 2,
        detrend="constant",
        scaling="density",
    )
    return freqs, power


def run_lengths(mask: np.ndarray, carry=0) -> np.ndarray:
    """Length of the unbroken run of True ending at each sample (0 where False).

    ``mask`` is (n,) or (n, m) with time along axis 0; ``carry`` is the run
    length each column brought in from the previous chunk, so a stream cut
    into chunks gives the same lengths as the whole stream.
    """
    mask = np.asarray(mask, dtype=bool)
    count = np.arange(1, mask.shape[0] + 1).reshape((-1,) + (1,) * (mask.ndim - 1))
    last_quiet = np.maximum.accumulate(np.where(mask, 0, count), axis=0)
    return count - last_quiet + np.where(last_quiet == 0, carry, 0)


class _Openblas(NamedTuple):
    """Thread controls of one bundled OpenBLAS library."""

    package: str
    library: str
    corename: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


#: symbol spellings of the scipy-openblas wheels; numpy's ILP64 build adds ``64_``
_OPENBLAS_SYMBOLS = ("scipy_openblas{}64_", "scipy_openblas{}")


@functools.cache
def _openblas_libraries() -> tuple[tuple[_Openblas, ...], tuple[str, ...]]:
    """numpy's and scipy's OpenBLAS from their ``<package>.libs``; the packages not found."""
    from pathlib import Path

    import scipy

    found, missing = [], []
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        paths = sorted(libs.glob("lib*openblas*.so*")) if libs.is_dir() else []
        calls = {}
        if paths:
            lib = ctypes.CDLL(str(paths[0]))
            for stem, restype, argtypes in (
                ("_get_num_threads", ctypes.c_int, []),
                ("_set_num_threads", None, [ctypes.c_int]),
                ("_get_corename", ctypes.c_char_p, []),
            ):
                for pattern in _OPENBLAS_SYMBOLS:
                    fn = getattr(lib, pattern.format(stem), None)
                    if fn is not None:
                        fn.restype, fn.argtypes = restype, argtypes
                        calls[stem] = fn
                        break
        if len(calls) < 3:
            log.warning("no OpenBLAS thread control found for %s", package.__name__)
            missing.append(package.__name__)
            continue
        found.append(
            _Openblas(
                package=package.__name__,
                library=paths[0].name,
                corename=calls["_get_corename"]().decode(),
                get_threads=calls["_get_num_threads"],
                set_threads=calls["_set_num_threads"],
            )
        )
    return tuple(found), tuple(missing)


@contextmanager
def single_blas_thread():
    """Run the body with one thread in each bundled OpenBLAS, then restore the counts.

    The counts in effect on entry come back on exit, also when the body
    raises.  They are process-wide: bodies running in concurrent threads
    share them.  The libraries are looked up on first use, not at import.
    Yields the telemetry of the pin: the thread count, each library's file
    name and CPU kernel (``corename``, which can still change bits across
    machines), and the packages whose library was not found.
    """
    libraries, missing = _openblas_libraries()
    before = [lib.get_threads() for lib in libraries]
    for lib in libraries:
        lib.set_threads(1)
    try:
        yield {
            "blas_threads": 1,
            "blas_libraries": {
                lib.package: {"library": lib.library, "corename": lib.corename}
                for lib in libraries
            },
            "blas_missing": list(missing),
        }
    finally:
        for lib, count in zip(libraries, before):
            lib.set_threads(count)
