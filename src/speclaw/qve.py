"""Self-consistent spectral-density predictions for variance profiles.

Solves the quadratic vector equation

    -1/g_k = z + (S g)_k,      (S g)_k = (1/n) * sum_l s_kl g_l

on the upper half plane, where S is an n x n variance profile, or its
block-weighted reduction

    -1/g_k = z + sum_l alpha_l c_kl g_l

for a d-class profile with class weights alpha.  The weighted average m(z)
of the solution is the Stieltjes transform of a probability density rho
supported in [-2, 2]; rho is recovered as Im m(x + i*eta)/pi for small eta.

One solver does every solve: an undamped Anderson iteration on the map
g -> -1/(z + S g), batched over complex points z, which runs at each target
z from the start (for Im z > 0 the solution is the map's unique fixed point
in the upper half plane, Ajanki, Erdos & Kruger 2015) and stops each point
once max_k |1/g_k + z + (S g)_k| <= tol.  Its mixing weights come from small
normal equations over a Gram matrix that grows by one row per sweep, a sweep
works in place on the columns still active, S g is one real matrix product
for the real and imaginary parts, a best defect that stops improving ends it
early, and quadrature reuses the curve's solutions.  `extract_density`
starts only every _COARSE_STRIDE-th grid point cold and the others from a
cubic interpolant of their neighbours' solutions, as quadrature does (m is
analytic in x in the bulk, so most such starts already sit near tol).  Points
share nothing but the product with S, so every batch goes through
`_solve_blocks`, in fixed column blocks for large profiles, on a pool's map.
It solves z and its mirror -conj z once (m(-conj z) = -conj m(z), rho is
even), and `default_grid` is antisymmetric, so the density solves half its points.
A point is a complex number z = x + i*eta, `solve_qve`'s one or a batch's
array, and every solve checks its points with `errors.spectral_points`.

Both profile classes are untagged JSON records (`errors.record`), {"n",
"entries"} and {"d", "weights", "coeffs"}; `read_json(Profile, path)` tells
them apart by their fields.  Campaign reports cite a full profile by its n
and `profile_fingerprint` instead of its entries.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, NonConvergence, frozen_array, record, spectral_points, within, write_csv

DEFAULT_ETA = 1e-6
# a column without a warm start starts at g_k = -1/(Re z + i*max(Im z, ETA_START))
ETA_START = 1.0
DEFAULT_GRID = (-3.0, 3.0, 601)
# stop at a defect max_k |1/g_k + z + (S g)_k| <= DEFAULT_TOL, after at most
# _MAX_ITER map evaluations per solve
DEFAULT_TOL = 1e-10
_MAX_ITER = 10_000

# iterates mixed per Anderson step
_ANDERSON_DEPTH = 6
# a column whose best defect has not improved for this many sweeps has stalled
# (a converging column goes at most 5 sweeps without a new best)
_STALL_SWEEPS = 50
# integrate_density refines until the trapezoid changes sum to this, relative
_QUAD_REL_TOL = 1e-6
# profiles of dimension >= _BLOCK_MIN_DIM are solved in blocks of at most
# _BLOCK_COLUMNS abscissas; for smaller ones the extra batches cost more than
# the smaller working set saves.  Keep both fixed: near a spectral edge, a
# warm-started column's solution depends at about 1e-12 relative on the row
# count of its block, through OpenBLAS rounding of the W g product (seen at
# n = 60, 90 and 100), so another value moves report floats.  Reports are the
# same at any worker count because the layout does not depend on that count
_BLOCK_MIN_DIM = 200
_BLOCK_COLUMNS = 50
# extract_density starts every _COARSE_STRIDE-th grid point only cold
_COARSE_STRIDE = 10


@record()
@dataclass(frozen=True)
class VarianceProfile:
    """Symmetric n x n matrix of entry variances, bounded in (0, 1] (a lower bound c > 0 is assumed)."""

    n: int = within(1, math.inf)
    entries: np.ndarray = within(0, 1, "(]")

    def __post_init__(self):
        entries = frozen_array(self, "entries")
        if entries.shape != (self.n, self.n):
            raise InvalidSpec(f"entries must be {self.n}x{self.n}, got {entries.shape}")
        if not np.array_equal(entries, entries.T):
            raise InvalidSpec("profile must be exactly symmetric")

    @property
    def dim(self) -> int:
        return self.n

    # W^T, C-contiguous: the right operand of _solve_batch's product, built once per profile;
    # W = entries / n with (S g)_k = (W g)_k is exactly symmetric, so it is its own transpose
    _weight_t = functools.cached_property(lambda self: np.divide(self.entries, self.n, order="C"))

    @classmethod
    def constant(cls, n: int) -> "VarianceProfile":
        return cls(n=n, entries=np.broadcast_to(1.0, (n, n)))  # frozen_array's copy is the one n x n array


@record()
@dataclass(frozen=True)
class BlockProfile:
    """d-class reduction of a block-constant profile: weights alpha, coefficients c_kl."""

    d: int = within(1, math.inf)
    weights: np.ndarray = within(0, 1, "(]")
    coeffs: np.ndarray = within(0, 1, "(]")

    def __post_init__(self):
        weights, coeffs = frozen_array(self, "weights"), frozen_array(self, "coeffs")
        if weights.shape != (self.d,):
            raise InvalidSpec(f"weights must have length {self.d}")
        if coeffs.shape != (self.d, self.d):
            raise InvalidSpec(f"coeffs must be {self.d}x{self.d}")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise InvalidSpec(f"class weights must sum to 1, got {float(weights.sum())!r}")
        if not np.array_equal(coeffs, coeffs.T):
            raise InvalidSpec("block coefficients must be exactly symmetric")

    @property
    def dim(self) -> int:
        return self.d

    # the cached W^T of W_kl = c_kl alpha_l, with (S g)_k = (W g)_k
    _weight_t = functools.cached_property(lambda self: np.multiply(self.weights[:, None], self.coeffs, order="C"))


Profile = VarianceProfile | BlockProfile


@dataclass(frozen=True)
class QveSolution:
    """Converged solution vector g at one spectral point, with its defect."""

    g: np.ndarray
    m: complex
    residual: float
    iterations: int


@dataclass(frozen=True)
class DensityCurve:
    """Tabulated predicted density rho(x_i) on a strictly increasing grid, with the
    profile solved (`source`) and its dim x len(grid) solution vectors at eta_used."""

    grid: np.ndarray
    values: np.ndarray
    eta_used: float
    profile_hash: str
    source: Profile | None = field(default=None, repr=False, compare=False)
    solution: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        grid, values = frozen_array(self, "grid"), frozen_array(self, "values")
        if grid.ndim != 1 or grid.size < 2:
            raise InvalidSpec("grid must be a 1-d array with at least two points")
        if not np.all(np.diff(grid) > 0):
            raise InvalidSpec("grid must be strictly increasing")
        if values.shape != grid.shape:
            raise InvalidSpec("values must match the grid")
        if values.min() < 0:
            raise InvalidSpec("density values must be nonnegative")
        if not 0.0 < self.eta_used < math.inf:
            raise InvalidSpec(f"eta_used must be positive and finite, got {self.eta_used}")
        if self.solution is not None and (np.ndim(self.solution) != 2 or np.shape(self.solution)[1] != grid.size):
            raise InvalidSpec("solution must have one column per grid point")

    def mass(self) -> float:
        """Trapezoid mass of the tabulated curve."""
        return float(np.trapezoid(self.values, self.grid))


@dataclass(frozen=True)
class BulkInterval:
    """Grid-aligned interval on which the tabulated density stays >= the bulk threshold."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidSpec(f"bulk interval must have lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# profile utilities


def profile_fingerprint(profile: Profile) -> str:
    """Stable short identifier of a profile's exact contents: the shapes and
    little-endian float64 bytes of its arrays."""
    arrays = (profile.entries,) if isinstance(profile, VarianceProfile) else (profile.weights, profile.coeffs)
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(repr(a.shape).encode())
        digest.update(np.ascontiguousarray(a, dtype="<f8"))
    return digest.hexdigest()[:16]


def block_labels(block: BlockProfile, n: int) -> np.ndarray:
    """Class of each of n rows, classes in order as contiguous runs.

    Class sizes are alpha_k * n rounded by largest remainder; every class must
    receive at least one row.
    """
    raw = block.weights * n
    sizes = np.floor(raw).astype(int)
    short = n - sizes.sum()
    if short > 0:
        order = np.argsort(-(raw - sizes))
        sizes[order[:short]] += 1
    if sizes.min() < 1:
        raise InvalidSpec(f"n={n} too small to give every class at least one row")
    return np.repeat(np.arange(block.d), sizes)


def expand_block_profile(block: BlockProfile, n: int) -> VarianceProfile:
    """Materialize a block profile as a block-constant n x n variance profile."""
    labels = block_labels(block, n)
    return VarianceProfile(n=n, entries=block.coeffs[labels[:, None], labels[None, :]])


def reduce_profile(profile: Profile) -> Profile:
    """The exact block form of a variance profile, or the profile unchanged.

    Classes are the maximal runs of identical consecutive rows.  A symmetric
    matrix is constant on the blocks of such runs, so the BlockProfile with
    weights sizes/n and the runs' coefficients is returned whenever it has
    fewer classes than rows and block_labels gives back the same sizes, i.e.
    whenever expand_block_profile(block, n) equals the entries exactly (same
    predicted density, far cheaper to solve).  A block profile whose classes
    are not contiguous runs of rows is solved at full dimension.
    """
    if isinstance(profile, BlockProfile):
        return profile
    entries, n = profile.entries, profile.n
    starts = np.flatnonzero(np.append(True, (entries[1:] != entries[:-1]).any(axis=1)))
    if starts.size == n:
        return profile
    sizes = np.diff(np.append(starts, n))
    block = BlockProfile(d=starts.size, weights=sizes / n, coeffs=entries[np.ix_(starts, starts)])
    if not np.array_equal(np.bincount(block_labels(block, n)), sizes):
        return profile
    return block


# ---------------------------------------------------------------------------
# solver


def _mixing_coeffs(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares Anderson weights pinv(A) @ fa of a batch x dim x depth history A,
    from its Gram matrices gram = A^H A and right-hand sides rhs = A^H fa.

    Solves (A^H A + 1e-14 tr(A^H A) I) y = A^H fa, gamma = D y, where D scales
    A's nonzero columns to unit length: the shift keeps collinear histories
    solvable, and the scaling stops it damping the short columns of late sweeps.
    """
    diag = np.arange(gram.shape[1])
    norms = np.sqrt(gram[:, diag, diag].real)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)[:, :, None]
    gram = gram * (scale * scale.transpose(0, 2, 1))
    gram[:, diag, diag] += 1e-14 * diag.size  # 1e-14 tr(A^H A) when no column is zero
    return scale * np.linalg.solve(gram, scale * rhs)


def _solve_batch(
    profile: Profile, zs: np.ndarray, tol: float = DEFAULT_TOL, initial: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the equation at the complex points zs, one column per point, all at once.

    Returns (g, residual, iterations): the dim x len(zs) solution vectors, the
    final defect max_k |1/g_k + z + (W g)_k| of each column and the number of
    map evaluations it took.  Each column runs an undamped Anderson iteration
    (Walker & Ni 2011) on the map g -> -1/(z + W g), mixing the last
    _ANDERSON_DEPTH iterates by a least-squares fit of their residuals; a
    column stops once its defect is <= tol, and the rest keep iterating
    as one matrix product.  A mixed step that leaves the upper half plane is
    replaced by the plain map step, which stays in it.  Im z enters only
    Im(z + W g) and, without a warm start, the cold start g_k = -1/(Re z +
    i*max(Im z, ETA_START)); either way a column iterates at its own z in
    one pass.  Raises NonConvergence for the worst column when the solve
    uses up _MAX_ITER, or once a column's best defect has not improved for
    _STALL_SWEEPS sweeps; and for the first column whose defect turns
    non-finite, at once and without numpy floating-point warnings.  A defect
    already non-finite at the first iterate (a point whose -1/z over- or
    underflows) raises InvalidSpec instead: no iteration can start there, nor
    at a point off the upper half plane (`errors.spectral_points`).

    The sweep touches only the columns still active, which it keeps as the
    leading rows of buffers allocated once per call: when columns converge,
    the last active rows move into their places, with each column's index
    in `idx` and its z in `zc`.  The Anderson history is a ring of
    _ANDERSON_DEPTH slots whose Gram matrix gains one row and column per
    sweep, and W g is one real matrix product over the stacked real and
    imaginary parts of g.  A column's arithmetic does not depend on the rest
    of the batch, up to how the BLAS rounds one row of a product.
    """
    zs = spectral_points(zs)  # every solve passes here
    with np.errstate(all="ignore"):  # a non-finite defect raises instead
        wt = profile._weight_t
        num, dim = zs.size, profile.dim
        zc = np.empty((num, 2, 1))  # Re z and Im z of each row, moved with it
        zc[:, 0, 0], zc[:, 1, 0] = zs.real, zs.imag
        depth = min(_ANDERSON_DEPTH, dim)
        # per column, one row each: the iterate, its defect's z + W g, the residual
        # f = map(g) - g and plain step map(g) of this sweep (f[k % 2]) and the last,
        # their differences in the history ring, and the ring's Gram matrix
        ga, denom = np.empty((num, dim), dtype=np.complex128), np.empty((num, dim), dtype=np.complex128)
        ga[:] = -1.0 / (zc[:, 0] + 1j * np.maximum(zc[:, 1], ETA_START)) if initial is None else np.asarray(initial).T
        f, step = np.empty((2, num, dim), dtype=np.complex128), np.empty((2, num, dim), dtype=np.complex128)
        df, dstep = np.empty((num, depth, dim), dtype=np.complex128), np.empty((num, depth, dim), dtype=np.complex128)
        gram = np.empty((num, depth, depth), dtype=np.complex128)
        planes, wg = np.empty((num, 2, dim)), np.empty((num, 2, dim))  # real and imaginary parts of ga and W ga
        g, residual, iterations = np.empty_like(ga), np.full(num, np.inf), np.zeros(num, dtype=np.int64)
        idx, a = np.arange(num), num
        best, stale = np.full(num, np.inf), np.zeros(num, dtype=np.int64)
        for k in range(_MAX_ITER + 1):
            cur = k % 2
            planes[:a, 0], planes[:a, 1] = ga[:a].real, ga[:a].imag
            np.matmul(planes[:a].reshape(2 * a, dim), wt, out=wg[:a].reshape(2 * a, dim))
            np.add(wg[:a, 0], zc[:a, 0], out=denom[:a].real)
            np.add(wg[:a, 1], zc[:a, 1], out=denom[:a].imag)
            res = np.abs(1.0 / ga[:a] + denom[:a]).max(axis=1)
            if not np.isfinite(res).all():
                bad = idx[:a][~np.isfinite(res)].min()
                x, eta = zs[bad].real.item(), zs[bad].imag.item()
                if k == 0:  # no iteration can start here: a bad input, not a failed solve
                    raise InvalidSpec(f"first defect not finite at x={x!r}, eta={eta!r}: -1/z over- or underflows")
                raise NonConvergence(f"defect not finite at z={x:g}+{eta:g}i",
                                     x=x, eta=eta, residual=math.inf, iterations=int(iterations[bad]))
            cols = idx[:a]
            stale[cols] = np.where(res < best[cols], 0, stale[cols] + 1)
            best[cols] = np.minimum(best[cols], res)
            done = res <= tol
            if done.any():
                pos = np.flatnonzero(done)
                g[idx[pos]], residual[idx[pos]] = ga[pos], res[pos]
                a -= pos.size
                holes, movers = pos[pos < a], a + np.flatnonzero(~done[a:])
                for rows in (idx, zc, ga, denom, f[1 - cur], step[1 - cur], df, dstep, gram):
                    rows[holes] = rows[movers]
            if a == 0:
                break
            cols = idx[:a]
            stuck = stale[cols] >= _STALL_SWEEPS
            stalled = stuck.any()
            if stalled or k == _MAX_ITER:
                cause = np.sort(cols[stuck] if stalled else cols)  # ties go to the lowest column
                worst = cause[np.argmax(best[cause])]
                x, eta = zs[worst].real.item(), zs[worst].imag.item()
                why = f"(stalled: no new best in {_STALL_SWEEPS} sweeps)" if stalled else f"after {_MAX_ITER} iterations"
                raise NonConvergence(
                    f"fixed point not below tol={tol:g} {why} at z={x:g}+{eta:g}i (best residual {best[worst]:.3g})",
                    x=x, eta=eta, residual=float(best[worst]), iterations=int(iterations[worst]),
                )
            iterations[cols] += 1
            # the plain map step, mixed below once there is history
            st, fa = np.divide(-1.0, denom[:a], out=step[cur, :a]), f[cur, :a]
            np.subtract(st, ga[:a], out=fa)
            if k == 0:
                ga[:a] = st
                continue
            slot, used = (k - 1) % depth, min(k, depth)
            new = np.subtract(fa, f[1 - cur, :a], out=df[:a, slot])
            np.subtract(st, step[1 - cur, :a], out=dstep[:a, slot])
            row = np.vecdot(new[:, None, :], df[:a, :used])  # row slot of A^H A
            gram[:a, slot, :used], gram[:a, :used, slot] = row, row.conj()
            gamma = _mixing_coeffs(gram[:a, :used, :used], np.vecdot(df[:a, :used], fa[:, None, :])[:, :, None])
            mixed = np.subtract(st, (gamma.transpose(0, 2, 1) @ dstep[:a, :used])[:, 0], out=ga[:a])
            left = ~(mixed.imag > 0).all(axis=1)  # mixed steps that left the half plane
            mixed[left] = st[left]
        return g.T, residual, iterations


def _m_of(profile: Profile, g: np.ndarray) -> np.ndarray:
    if isinstance(profile, VarianceProfile):
        return g.mean(axis=0)
    return profile.weights @ g


def complex_points(xs, etas) -> np.ndarray:
    """The points x + i*eta of the broadcast xs and etas, set part by part: x + 1j*eta would
    drop the sign of a zero eta and make an infinite one nan + inf*i."""
    zs = np.empty(np.broadcast_shapes(np.shape(xs), np.shape(etas)), dtype=np.complex128)
    zs.real, zs.imag = xs, etas
    return zs


def solve_qve(profile: Profile, z: complex, tol: float = DEFAULT_TOL) -> QveSolution:
    """Solve the quadratic vector equation at one point z of the upper half plane.

    A batch of one for _solve_batch: Anderson iteration at z from a cold
    start until the defect max_k |1/g_k + z + (S g)_k| is <= tol.
    Raises NonConvergence when the solve runs out of _MAX_ITER iterations or its
    best defect, still above tol, has not improved for _STALL_SWEEPS sweeps.
    """
    if not tol >= 0.0:
        raise InvalidSpec(f"tol must be a nonnegative number, got {tol}")
    g, residual, iterations = _solve_batch(profile, np.array([z]), tol)
    g = g[:, 0]
    g.setflags(write=False)
    return QveSolution(g=g, m=complex(_m_of(profile, g)), residual=float(residual[0]), iterations=int(iterations[0]))


def stieltjes_batch(profile: Profile, zs: np.ndarray, mapper=map) -> np.ndarray:
    """m(z) at an array of points z in the upper half plane, from cold starts in `_solve_blocks`."""
    return _m_of(profile, _solve_blocks(profile, zs, mapper))


def density_batch(profile: Profile, xs: np.ndarray, eta: float = DEFAULT_ETA) -> np.ndarray:
    """Im m(x + i*eta)/pi for an array of abscissas, solved simultaneously."""
    return stieltjes_batch(profile, complex_points(xs, eta)).imag / math.pi


def _solve_blocks(profile: Profile, zs: np.ndarray, mapper=map, known=None, g_known=None) -> np.ndarray:
    """The solver's one batched path: solutions at the points zs, each mirror pair solved once,
    in blocks of at most _BLOCK_COLUMNS columns (one below _BLOCK_MIN_DIM) through `mapper`, from
    cold starts or, given solutions g_known at the nondecreasing abscissas `known`, from the cubic
    Lagrange interpolant in Re z through each point's two known neighbours on either side (the four
    nearest at the ends of `known`), or the linear one of its two neighbours where the four knots
    are not distinct or the cubic start leaves the upper half plane; a knot starts from its solution.
    The solution and the solver's arithmetic are mirror-exact, g(-conj z) = -conj g(z), so each folded
    point |Re z| + i*Im z solves once, at its first point in input order (the point a failure names),
    and its mirror reads -conj of that solution."""
    zs = spectral_points(np.atleast_1d(zs))
    _, first, inverse = np.unique(complex_points(np.abs(zs.real), zs.imag), return_index=True, return_inverse=True)
    reps, rep_of = np.sort(first), first[inverse.ravel()]  # the solved points; each point's one of them
    start, xs = None, zs.real[reps]
    if known is not None:
        right = np.clip(np.searchsorted(known, xs, side="right"), 1, known.size - 1)
        width = known[right] - known[right - 1]  # 0 in a mesh cell narrower than its midpoint's rounding
        t = np.divide(xs - known[right - 1], width, out=np.zeros_like(xs), where=width > 0)
        start = g_known[:, right - 1] * (1.0 - t) + g_known[:, right] * t
        if known.size >= 4:  # Lagrange weights prod_{i != j} (x - x_i)/(x_j - x_i) of the knots x_j
            nodes = np.clip(right - 2, 0, known.size - 4)[:, None] + np.arange(4)
            knots, other = known[nodes], ~np.eye(4, dtype=bool)
            num = np.where(other, xs[:, None, None] - knots[:, None, :], 1.0).prod(axis=2)
            den = np.where(other, knots[:, :, None] - knots[:, None, :], 1.0).prod(axis=2)
            distinct = (den != 0).all(axis=1)
            weights = np.divide(num, den, out=np.zeros_like(num), where=distinct[:, None])
            cubic = sum(g_known[:, nodes[:, j]] * weights[:, j] for j in range(4))
            use = distinct & (cubic.imag > 0).all(axis=0)
            start[:, use] = cubic[:, use]
    blocks = np.array_split(np.arange(xs.size), -(-xs.size // _BLOCK_COLUMNS) or 1 if profile.dim >= _BLOCK_MIN_DIM else 1)
    # the first failing block raises; stacked, rows selected, then transposed, g has one batch's layout,
    # in which _m_of rounds
    solved = mapper(lambda c: _solve_batch(profile, zs[reps[c]], initial=None if start is None else start[:, c])[0].T,
                    blocks)
    g = np.concatenate(list(solved))[np.searchsorted(reps, rep_of)]
    mirrored = np.signbit(zs.real) != np.signbit(zs.real[rep_of])
    g[mirrored] = -g[mirrored].conj()
    return g.T


def extract_density(profile: Profile, grid: np.ndarray, eta: float = DEFAULT_ETA, mapper=map) -> DensityCurve:
    """Tabulate the predicted density on a strictly increasing grid.

    Block-constant profiles are reduced to their block form first (identical
    prediction, far cheaper); the reduced profile is kept as the curve's source
    and its solution vectors at every grid point as the curve's solution.

    Continuation in x: every _COARSE_STRIDE-th grid point and the last start cold,
    then the others start from the cubic interpolant of their four nearest coarse
    neighbours' solutions, or the linear one of their two nearest (`_solve_blocks`).
    Both phases run in fixed column blocks through `mapper`, a mirror pair once.
    """
    grid = np.asarray(grid, dtype=np.float64)
    zs = spectral_points(complex_points(grid, eta))  # first, so that a NaN abscissa is named as such
    if math.ulp(eta) > DEFAULT_TOL:  # Im of a defect moves in steps of ulp(eta), so none reaches tol
        raise InvalidSpec(f"eta={eta:g} is too large: its float spacing {math.ulp(eta):.3g} exceeds tol={DEFAULT_TOL:g}")
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise InvalidSpec("grid must be strictly increasing with at least two points")
    solver_profile = reduce_profile(profile)
    coarse = (np.arange(grid.size) % _COARSE_STRIDE == 0) | (np.arange(grid.size) == grid.size - 1)
    g = np.empty((grid.size, solver_profile.dim), dtype=np.complex128).T  # one batch's memory layout
    g[:, coarse] = _solve_blocks(solver_profile, zs[coarse], mapper)
    g[:, ~coarse] = _solve_blocks(solver_profile, zs[~coarse], mapper, known=grid[coarse], g_known=g[:, coarse])
    values = _m_of(solver_profile, g).imag / math.pi
    return DensityCurve(grid, values, eta, profile_fingerprint(profile), source=solver_profile, solution=g)


def linear_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """np.linspace(lo, hi, count), or if lo == -hi the exactly antisymmetric hi * j/(count - 1), j = 1 - count,
    3 - count, ..., count - 1, whose mirror pairs `_solve_blocks` solves once (the default grid: k/100 rounded).
    Raises InvalidSpec for a count numpy cannot allocate."""
    try:
        np.empty(count)  # untouched, so it commits no memory; past 2**63 points arange would wrap around
    except (MemoryError, ValueError) as exc:  # no room for count doubles; their bytes overflow an intp, or count < 0
        raise InvalidSpec(f"cannot allocate a grid of {count} points") from exc
    if lo != -hi or not math.isfinite(hi * (count - 1)):  # hi * j would overflow
        return np.linspace(lo, hi, count)
    grid = hi * np.arange(1 - count, count, 2) / (count - 1)
    grid[[0, -1]] = lo, hi
    return grid


def default_grid() -> np.ndarray:
    """linear_grid(*DEFAULT_GRID), the campaigns' grid: 601 points on [-3, 3], antisymmetric."""
    return linear_grid(*DEFAULT_GRID)


def integrate_density(curve: DensityCurve, lo: float, hi: float) -> float:
    """Adaptive trapezoid integral of the predicted density over [lo, hi].

    The mesh starts as lo, the grid points inside (their solutions read from the
    curve) and hi; lo and hi are solved at eta_used from the cubic interpolant of
    their grid neighbours' solutions (or the linear one, `_solve_blocks`).  Halving a cell solves its midpoint that
    way from the nearest points of the current mesh, and each half keeps half
    the cell's trapezoid change.  Every cell is halved until the changes
    sum to at most _QUAD_REL_TOL relative (1e-12 absolute), then only cells whose
    change exceeds their width's share of it, so a square-root spectral edge
    whose change cancels the bulk's cannot end the refinement early.
    """
    if not (curve.grid[0] <= lo and hi <= curve.grid[-1]):
        raise InvalidSpec(f"[{lo}, {hi}] exceeds the tabulated span [{curve.grid[0]}, {curve.grid[-1]}]")
    if not lo <= hi:
        raise InvalidSpec(f"need lo <= hi, got [{lo}, {hi}]")
    if curve.source is None or curve.solution is None:
        raise InvalidSpec("curve lacks its source profile or solution; cannot refine")
    profile, grid, table, eta = curve.source, curve.grid, curve.solution, curve.eta_used

    inside = (grid > lo) & (grid < hi)
    xs = np.concatenate(([lo], grid[inside], [hi]))
    g = np.empty((xs.size, profile.dim), dtype=np.complex128).T  # one batch's memory layout, in which _m_of rounds
    g[:, [0, -1]] = _solve_blocks(profile, complex_points([lo, hi], eta), known=grid, g_known=table)
    g[:, 1:-1] = table[:, inside]
    vals = _m_of(profile, g).imag / math.pi
    change = np.zeros(xs.size - 1)  # per cell: its share of the trapezoid change of the last halving
    cells, uniform = np.arange(xs.size - 1), True
    for _ in range(24):
        mids = (xs[cells] + xs[cells + 1]) / 2.0
        g_mid = _solve_blocks(profile, complex_points(mids, eta), known=xs, g_known=g)
        mid_vals = _m_of(profile, g_mid).imag / math.pi
        half = (xs[cells + 1] - xs[cells]) / 8.0 * (2.0 * mid_vals - vals[cells] - vals[cells + 1])
        change[cells] = half
        change = np.insert(change, cells + 1, half)
        xs, vals = np.insert(xs, cells + 1, mids), np.insert(vals, cells + 1, mid_vals)
        g = np.insert(g, cells + 1, g_mid, axis=1)
        total = float(np.trapezoid(vals, xs))
        tol = max(_QUAD_REL_TOL * abs(total), 1e-12)
        uniform = uniform and abs(change.sum()) > tol
        cells = np.arange(change.size) if uniform else np.flatnonzero(np.abs(change) * (hi - lo) > tol * np.diff(xs))
        if cells.size == 0:
            return total
    raise NonConvergence(f"quadrature over [{lo}, {hi}] did not settle after 24 refinements", x=lo, eta=eta)


def detect_bulk(curve: DensityCurve, eps: float) -> list[BulkInterval]:
    """Maximal grid-aligned intervals on which the tabulated density >= eps.

    Values below the eta-smoothing noise floor eta_used**(2/3) are treated as
    zero, so leakage of the regularized transform outside the true support
    cannot masquerade as bulk; runs shorter than two grid points are dropped.
    """
    if not eps > 0:
        raise InvalidSpec("eps must be positive")
    mask = np.concatenate(([False], curve.values >= max(eps, curve.eta_used ** (2.0 / 3.0)), [False]))
    edges = np.flatnonzero(mask[1:] != mask[:-1])  # run starts and (exclusive) ends, alternating
    return [BulkInterval(lo=float(curve.grid[a]), hi=float(curve.grid[b - 1]))
            for a, b in zip(edges[::2], edges[1::2]) if b - a >= 2]


def density_to_csv(curve: DensityCurve, path) -> None:
    write_csv(path, ["x", "rho"], zip(curve.grid, curve.values))
