"""Symmetric eigen-computation kernels.

Householder tridiagonalization feeds a Sturm-sequence pivot count that
returns exact eigenvalue counts on half-open intervals [lo, hi) without a
full diagonalization; the dense eigensolver stays available as the
cross-checking slow path.  The reduction runs LAPACK outside the interpreter
lock, so trial workers overlap: dsytrd from scipy's LAPACK below
_TWO_STAGE_MIN_N, and from that size on the two-stage dsytrd_2stage that the
bundled OpenBLAS exports, which does most of its work in matrix-matrix
products.  Also: empirical Stieltjes transforms and the Schur-complement identity
for resolvent diagonal entries at complex z, and eigenvector sup-norms.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, MissingVectors, NonConvergence, OutOfRange, frozen_array, spectral_points, write_csv

_TINY = np.finfo(np.float64).tiny
# tridiagonalize reduces in two stages from this size on: at one BLAS thread
# dsytrd_2stage loses to dsytrd up to n = 800, draws about even at 1000 and
# wins from 1200 on (BENCH_two_stage_reduction.json)
_TWO_STAGE_MIN_N = 1200


@dataclass(frozen=True)
class TridiagonalForm:
    """Orthogonal reduction of a symmetric matrix to tridiagonal shape."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag, offdiag = frozen_array(self, "diag"), frozen_array(self, "offdiag")
        if diag.ndim != 1 or diag.size < 1 or offdiag.shape != (diag.size - 1,):
            raise InvalidSpec("need length-n diag and length-(n-1) offdiag, n >= 1")

    @property
    def n(self) -> int:
        return self.diag.size


@dataclass(frozen=True)
class SpectrumSummary:
    """Sorted eigenvalues and, optionally, the sup-norm of each unit eigenvector."""

    eigenvalues: np.ndarray
    inf_norms: np.ndarray | None = None

    def __post_init__(self):
        vals = frozen_array(self, "eigenvalues")
        if vals.ndim != 1 or vals.size < 1:
            raise InvalidSpec("eigenvalues must be a nonempty 1-d array")
        if np.any(np.diff(vals) < 0):
            raise InvalidSpec("eigenvalues must be sorted ascending")
        if self.inf_norms is not None and frozen_array(self, "inf_norms").shape != vals.shape:
            raise InvalidSpec("inf_norms must hold one sup-norm per eigenvalue")

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def _as_array(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidSpec(f"expected a square matrix, got shape {a.shape}")
    return a


@functools.cache
def bundled_openblas() -> tuple:
    """(library, symbol suffix) of each OpenBLAS build that the scipy and numpy
    wheels bundle in <site-packages>/scipy.libs and numpy.libs, scipy's first;
    empty for any other BLAS (MKL, Accelerate, a system library).  The suffix
    is "64_" for a build with 64-bit LAPACK integers and "" otherwise.

    scipy is imported here, not with this module, so that `import speclaw`
    loads no scipy module; a campaign first calls this when it opens its map."""
    import scipy

    found = []
    for module in (scipy, np):
        root = Path(module.__file__).parent
        for lib in sorted(root.parent.glob(f"{root.name}.libs/*openblas*")):
            try:
                dll = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for suffix in ("64_", ""):
                if all(hasattr(dll, f"scipy_openblas_{op}_num_threads{suffix}") for op in ("get", "set")):
                    found.append((dll, suffix))
                    break
    return tuple(found)


@functools.cache
def _lapack_dsytrd():
    """dsytrd of scipy's LAPACK as a ctypes function: unlike f2py, ctypes releases the interpreter lock."""
    from scipy.linalg import cython_lapack

    int_p, ptr = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    capsule = cython_lapack.__pyx_capi__["dsytrd"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ptr, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", ctypes.pythonapi))
    # (uplo, n, a, lda, d, e, tau, work, lwork, info)
    signature = ctypes.CFUNCTYPE(None, ctypes.c_char_p, int_p, ptr, int_p, ptr, ptr, ptr, ptr, int_p, int_p)
    return signature(pointer(capsule, name(capsule)))


@functools.cache
def _lapack_dsytrd_2stage():
    """(dsytrd_2stage, its integer type) from the bundled OpenBLAS, or None
    when no bundled build exports it (cython_lapack does not)."""
    for dll, suffix in bundled_openblas():
        function = getattr(dll, f"scipy_dsytrd_2stage_{suffix}", None)
        if function is not None:
            integer = ctypes.c_int64 if suffix else ctypes.c_int
            int_p, ptr = ctypes.POINTER(integer), ctypes.c_void_p
            # (vect, uplo, n, a, lda, d, e, tau, hous2, lhous2, work, lwork, info, len(vect), len(uplo))
            function.argtypes = [ctypes.c_char_p, ctypes.c_char_p, int_p, ptr, int_p, ptr, ptr, ptr,
                                 ptr, int_p, ptr, int_p, int_p, ctypes.c_size_t, ctypes.c_size_t]
            function.restype = None
            return function, integer
    return None


def _reduce(a: np.ndarray, two_stage: bool) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of a square C-order float64 array, which the kernel overwrites, read from its upper
    triangle: Fortran reads C order as the transpose, whose lower triangle (uplo "L") is the caller's
    upper.  two_stage calls dsytrd_2stage (dense to band to tridiagonal), which needs
    _lapack_dsytrd_2stage(); otherwise scipy's dsytrd runs."""
    n = a.shape[0]
    d, e, tau = np.empty(n), np.empty(n), np.empty(n)
    function, integer = _lapack_dsytrd_2stage() if two_stage else (_lapack_dsytrd(), ctypes.c_int)

    def call(spaces: list, lengths: list) -> None:  # a length of -1 queries that workspace's size
        info = integer(0)
        args = [b"L", integer(n), a.ctypes.data, integer(max(n, 1)), d.ctypes.data, e.ctypes.data, tau.ctypes.data]
        args += [x for space, length in zip(spaces, lengths) for x in (space.ctypes.data, integer(length))]
        function(*([b"N", *args, info, 1, 1] if two_stage else [*args, info]))
        if info.value != 0:
            raise NonConvergence(f"tridiagonal reduction failed (info={info.value})")

    # (hous, work) or (work,); the queried workspace runs the blocked reduction, about 1.7x faster at n = 2000
    queries = [np.empty(1) for _ in range(1 + two_stage)]
    call(queries, [-1] * len(queries))
    lengths = [int(query[0]) for query in queries]
    call([np.empty(length) for length in lengths], lengths)
    return d, e[: max(n - 1, 0)]


def tridiagonalize(m: np.ndarray, *, overwrite_a: bool = False) -> TridiagonalForm:
    """Orthogonal reduction Q^T A Q = T of the symmetric matrix that the upper triangle of `m` defines.

    From n = _TWO_STAGE_MIN_N on, and when the bundled OpenBLAS exports it,
    LAPACK's two-stage dsytrd_2stage reduces A to a band and the band to T,
    mostly in matrix-matrix products; below that size, or without the symbol,
    dsytrd's Householder reduction does.  Both run outside the interpreter
    lock.  The two give T up to rounding, so eigenvalue counts agree except
    where an eigenvalue lies within rounding of a shift.

    Both reduce a C-order copy of `m`.  With overwrite_a=True they reduce a
    writeable C-order float64 `m` in place instead, destroying it; T is bit
    for bit the same, and the lower triangle is never read.
    """
    a = _as_array(m)
    if not (overwrite_a and a.flags.c_contiguous and a.flags.writeable):
        a = np.array(a, order="C")
    d, e = _reduce(a, a.shape[0] >= _TWO_STAGE_MIN_N and _lapack_dsytrd_2stage() is not None)
    return TridiagonalForm(diag=d, offdiag=e)


def eigenvalue_counts_below(t, shifts: np.ndarray) -> np.ndarray:
    """Vectorized #{eigenvalues < shift} for an array of shifts; +-inf counts, NaN raises InvalidSpec.

    `t` is one TridiagonalForm, which gives one count per shift, or a sequence
    of forms of one size, which gives a forms x shifts array from one sweep
    over the stack, each row equal to that form's own counts.
    An exactly zero pivot is replaced by the smallest positive normal float,
    which counts it for a shift just below: an eigenvalue on the shift is not
    counted.  The pivot after it may overflow to -inf; that one counts as
    negative and adds -0 to the next.  A form of norm below 1 is first scaled
    up by a power of two, which is exact, so that squaring a coupling cannot
    underflow unless the coupling is below rounding of the norm.
    """
    forms = [t] if isinstance(t, TridiagonalForm) else list(t)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=np.float64))
    if np.isnan(shifts).any():  # its pivots are never negative, so it would count 0
        raise InvalidSpec(f"Sturm shift {int(np.flatnonzero(np.isnan(shifts))[0])} is NaN")
    if len({form.n for form in forms}) != 1:
        raise InvalidSpec(f"need one or more forms of one size, got sizes {[form.n for form in forms]}")
    diag, off = np.array([form.diag for form in forms]), np.array([form.offdiag for form in forms])
    top = np.maximum(np.abs(diag).max(axis=1), np.abs(off).max(axis=1, initial=0.0))
    # per form, a far shift may overflow to +-inf, which counts the same
    k = np.where((0.0 < top) & (top < 1.0), -np.frexp(top)[1], 0)[:, None]
    with np.errstate(divide="ignore", over="ignore"):
        diag, off, shifts = np.ldexp(diag, k), np.ldexp(off, k), np.ldexp(shifts, k)
        off2 = off * off
        piv = diag[:, :1] - shifts
        piv[piv == 0.0] = _TINY
        counts = (piv < 0.0).astype(np.int64)
        for i in range(1, diag.shape[1]):
            piv = (diag[:, i, None] - shifts) - off2[:, i - 1, None] / piv
            piv[piv == 0.0] = _TINY
            counts += piv < 0.0
    return counts[0] if isinstance(t, TridiagonalForm) else counts


def count_in_interval(t: TridiagonalForm, lo: float, hi: float) -> int:
    """Exact eigenvalue count on the half-open interval [lo, hi).

    Computed as two Sturm pivot counts; an eigenvalue landing exactly on a
    shift counts as lying above it.
    """
    if not lo <= hi:
        raise OutOfRange(f"need lo <= hi, got [{lo}, {hi})")
    below = eigenvalue_counts_below(t, np.array([lo, hi]))
    return int(below[1] - below[0])


def eigen_full(m: np.ndarray, want_vectors: bool = False) -> SpectrumSummary:
    """Full symmetric eigendecomposition, eigenvalues ascending; with want_vectors,
    the sup-norm of each eigenvector is kept and the vectors are dropped."""
    a = _as_array(m)
    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(a)
            norms = np.abs(vecs, out=vecs).max(axis=0)
        else:
            vals, norms = np.linalg.eigvalsh(a), None
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(a).all():  # checked only on failure, so a finite matrix pays nothing
            raise InvalidSpec("matrix entries must be finite") from exc
        raise NonConvergence(f"dense eigensolver failed: {exc}") from exc
    return SpectrumSummary(eigenvalues=vals, inf_norms=norms)


def stieltjes_empirical(s: SpectrumSummary, zs) -> np.ndarray:
    """s_n(z) = (1/n) sum_i 1/(lambda_i - z) at each point of the array zs."""
    return np.mean(1.0 / (s.eigenvalues - spectral_points(zs)[..., None]), axis=-1)


def eigvec_inf_norms(s: SpectrumSummary) -> np.ndarray:
    """Sup-norm of each unit eigenvector; always within [1/sqrt(n), 1]."""
    if s.inf_norms is None:
        raise MissingVectors("summary holds no eigenvectors")
    return s.inf_norms


def schur_resolvent_check(m: np.ndarray, k: int, z: complex) -> tuple[complex, complex]:
    """k-th resolvent diagonal entry, by direct solve and by Schur complement.

    direct = [(W - z)^{-1}]_{kk};  schur = 1/(W_kk - z - a_k^T (W_k - z)^{-1} a_k)
    with W_k the k-th principal minor and a_k the k-th column without its k-th
    entry.  The two agree to solver accuracy for any z off the real axis.
    """
    a = _as_array(m)
    n = a.shape[0]
    if not 0 <= k < n:
        raise InvalidSpec(f"index k={k} out of range for n={n}")
    if not np.isfinite(a).all():
        raise InvalidSpec("matrix entries must be finite")
    z = complex(spectral_points(z))
    direct = complex(np.linalg.solve(a - z * np.eye(n), np.eye(n)[k])[k])
    keep = np.arange(n) != k
    minor = a[np.ix_(keep, keep)]
    col = a[keep, k].astype(np.complex128)
    y = complex(col @ np.linalg.solve(minor - z * np.eye(n - 1), col))  # 0 for n = 1: both are empty
    schur = 1.0 / (a[k, k] - z - y)
    return direct, schur


def spectrum_to_csv(s: SpectrumSummary, path) -> None:
    """One row per eigenvalue; the inf_norm column is empty without vectors."""
    norms = s.inf_norms if s.inf_norms is not None else [None] * s.n
    write_csv(path, ["index", "eigenvalue", "inf_norm"], zip(range(s.n), s.eigenvalues, norms))


def bulk_indices(s: SpectrumSummary, intervals) -> np.ndarray:
    """Indices of eigenvalues lying inside any of the given bulk intervals."""
    mask = np.zeros(s.n, dtype=bool)
    for itv in intervals:
        mask |= (s.eigenvalues >= itv.lo) & (s.eigenvalues <= itv.hi)
    return np.nonzero(mask)[0]


def normalized_deloc_ratios(norms: np.ndarray, scale: float) -> np.ndarray:
    """Delocalization ratios ||u_i||_inf/sqrt(scale) of eigenvector sup-norms; scale: verify.local_law_scale."""
    return norms / math.sqrt(scale)
