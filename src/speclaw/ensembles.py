"""Seedable samplers for random symmetric matrices with variance profiles.

Two ensembles, as in the paper: sparse Wigner-type matrices (independent
bounded entries, entry (i,j) scaled to variance s_ij and kept with
probability p, the dense case being p = 1), and stochastic-block-model
adjacency matrices.  All entries derive from the counter-based streams in
`rng`, so a spec plus a seed pins the matrix bit for bit.  A Wigner-type spec
keeps its profile in canonical form, the exact block form when there is one
(`qve.reduce_profile`), and samples entry (i,j) with variance
coeffs[labels[i], labels[j]].  `sample` draws the raw matrix once, by strips
of rows into one n x n buffer.  `normalized_sample`, the matrix the
predictions address, is that sample scaled by 1/sqrt(n p) in place, or for
block models centered and scaled in place by `center_and_scale_sbm`.

Specs are JSON records (`errors.record`) tagged by "kind": "wigner" or
"sbm"; `read_json(EnsembleSpec, path)` reads either.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidSpec, frozen_array, record, within
from .qve import BlockProfile, Profile, VarianceProfile, block_labels, reduce_profile

LAW_KINDS = ("rademacher", "uniform_bounded", "scaled_bernoulli_centered")
_SQRT3 = math.sqrt(3.0)
# `fill_symmetric` draws strips of at most _STRIP_ROWS rows and about _STRIP_ENTRIES entries; a
# strip hashes both triangles of its diagonal square, so the row cap keeps small n from hashing
# each counter twice in one strip, and n >= 2048 is held to the entry cap (32 rows at n = 4000)
_STRIP_ENTRIES, _STRIP_ROWS = 2**17, 64


@record()
@dataclass(frozen=True)
class EntryLaw:
    """Mean-zero, unit-variance entry distribution bounded by `bound`.

    rademacher: +/-1 (bound 1).  uniform_bounded: uniform on
    [-sqrt(3), sqrt(3)] (bound sqrt(3)).  scaled_bernoulli_centered: takes
    value K with probability 1/(1+K^2) and -1/K otherwise, so the bound K
    itself parameterizes the law, finite and >= 1.  A bound of None (absent
    or null in JSON) takes the law's default.  The profile later multiplies
    samples by sqrt(s_ij) to give entry variance s_ij.
    """

    kind: str
    bound: float | None = None

    def __post_init__(self):
        if self.kind not in LAW_KINDS:
            raise InvalidSpec(f"unknown entry law {self.kind!r}, expected one of {LAW_KINDS}")
        default = {"rademacher": 1.0, "uniform_bounded": _SQRT3, "scaled_bernoulli_centered": 3.0}[self.kind]
        bound = default if self.bound is None else float(self.bound)
        if self.kind == "scaled_bernoulli_centered" and not 1.0 <= bound < math.inf:
            raise InvalidSpec(f"scaled centered Bernoulli needs a finite bound >= 1, got {bound}")
        if self.kind != "scaled_bernoulli_centered" and not abs(bound - default) <= 1e-12:
            raise InvalidSpec(f"unit-variance {self.kind} entries have bound {default:.12g}, got {bound}")
        object.__setattr__(self, "bound", bound)

    def sample(self, key: np.uint64, counters: np.ndarray) -> np.ndarray:
        if self.kind == "rademacher":
            return rng.rademacher(key, counters)
        if self.kind == "uniform_bounded":
            return (2.0 * rng.uniforms(key, counters) - 1.0) * _SQRT3
        k = self.bound
        q = 1.0 / (1.0 + k * k)
        hit = rng.uniforms(key, counters) < q
        return np.where(hit, k, -1.0 / k)


@record("wigner")
@dataclass(frozen=True)
class WignerSpec:
    """Wigner-type ensemble, each entry kept with probability p (1 is dense);
    `profile` is stored as reduce_profile of the one given."""

    n: int = within(1, 2**32)  # pair counters hold 32-bit indices
    profile: Profile
    law: EntryLaw
    seed: int
    p: float = within(0, 1, "(]", default=1.0)

    def __post_init__(self):
        if not isinstance(self.profile, (VarianceProfile, BlockProfile)):
            raise InvalidSpec("Wigner-type ensembles need a variance profile")
        if isinstance(self.profile, VarianceProfile) and self.profile.n != self.n:
            raise InvalidSpec(f"profile is {self.profile.n}x{self.profile.n} but n={self.n}")
        profile = reduce_profile(self.profile)
        if isinstance(profile, BlockProfile):
            block_labels(profile, self.n)  # every class gets at least one row
        object.__setattr__(self, "profile", profile)


@record("sbm")
@dataclass(frozen=True)
class SbmSpec:
    d: int
    sizes: tuple[int, ...] = within(1, math.inf)
    probs: np.ndarray = within(0, 1)
    seed: int

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        probs = frozen_array(self, "probs")
        if self.d < 1 or len(sizes) != self.d:
            raise InvalidSpec(f"need d >= 1 class sizes, got d={self.d}, sizes={sizes}")
        if sum(sizes) >= 2**32:
            raise InvalidSpec(f"n={sum(sizes)} must be below 2**32: pair counters hold 32-bit indices")
        if probs.shape != (self.d, self.d):
            raise InvalidSpec(f"probs must be {self.d}x{self.d}")
        if not np.array_equal(probs, probs.T):
            raise InvalidSpec("edge probabilities must be exactly symmetric")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def p_max(self) -> float:
        return float(self.probs.max())

    @property
    def sigma_squared(self) -> float:
        """max_kl p_kl(1 - p_kl), the largest block variance: p_max(1 - p_max) while
        p_max <= 1/2, but a block nearer 1/2 has the larger one above that."""
        sigma2 = float((self.probs * (1.0 - self.probs)).max())
        if sigma2 == 0.0:  # probabilities lie in [0, 1), so sigma vanishes only when all are 0
            raise InvalidSpec("all block probabilities are 0 or 1; sigma vanishes")
        return sigma2

    def block_labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.d), self.sizes)


EnsembleSpec = WignerSpec | SbmSpec


def fill_symmetric(n: int, entries) -> np.ndarray:
    """The n x n symmetric matrix drawn by strips of min(_STRIP_ROWS, _STRIP_ENTRIES // n) rows
    [i0, i1) over columns [i0, n), each written into the one result with its transpose.  entries(rows,
    cols, counters) gives a strip's values from its indices and pair counters (min(i, j) << 32) |
    max(i, j), symmetric in (i, j), so the matrix is bit-identical to one fill of its upper triangle."""
    out, height = np.empty((n, n)), max(1, min(_STRIP_ROWS, _STRIP_ENTRIES // n))
    for i0 in range(0, n, height):
        i1 = min(i0 + height, n)
        rows, cols = np.arange(i0, i1), np.arange(i0, n)
        counters = rng.pair_counters(rows[:, None], cols)
        square = counters[:, : i1 - i0]
        np.minimum(square, square.T, out=square)  # below the diagonal, (j << 32) | i is the smaller
        strip = entries(rows, cols, counters)
        out[i0:i1, i0:], out[i1:, i0:i1] = strip, strip[:, i1 - i0:].T
    return out


def sample(spec: EnsembleSpec) -> np.ndarray:
    """The raw symmetric sample of any ensemble, one draw of its upper triangle.

    Wigner-type entry (i,j) has mean 0 and variance s_ij = coeffs[labels[i], labels[j]]
    (a full profile is n classes of one row).  At p < 1 those values are multiplied
    by a Bernoulli(p) mask from an independent stream on the same counters, so kept
    entries equal the dense ones bit for bit; at p = 1 the mask stream is not drawn.
    Block models draw {0,1} edges with probability p_kl and a zero diagonal.  Profiles
    and edge probabilities are exactly symmetric, so strips gather them by (row, column).
    """
    if isinstance(spec, SbmSpec):
        labels, edges = spec.block_labels(), rng.stream_key(spec.seed, rng.TAG_EDGES)

        def entries(rows, cols, counters):
            p_edge = spec.probs[labels[rows]][:, labels[cols]] * (rows[:, None] != cols)  # no edge on the diagonal
            return (rng.uniforms(edges, counters) < p_edge).astype(np.float64)

        return fill_symmetric(spec.n, entries)
    if isinstance(spec.profile, VarianceProfile):
        labels, coeffs = np.arange(spec.n), spec.profile.entries
    else:
        labels, coeffs = block_labels(spec.profile, spec.n), spec.profile.coeffs
    values, mask = rng.stream_key(spec.seed, rng.TAG_VALUES), rng.stream_key(spec.seed, rng.TAG_MASK)

    def entries(rows, cols, counters):
        # sqrt rounds correctly, so the root of a gathered coefficient is the gathered root
        vals = spec.law.sample(values, counters) * np.sqrt(coeffs[labels[rows]][:, labels[cols]])
        return vals * (rng.uniforms(mask, counters) < spec.p) if spec.p < 1.0 else vals

    return fill_symmetric(spec.n, entries)


# per-kind aliases of `sample`, kept only because perfbench's tracer patches these names
sample_wigner = sample_sparse = sample_sbm = sample


def normalized_sample(spec: EnsembleSpec) -> np.ndarray:
    """The matrix the predictions refer to: the raw `sample` scaled in place by
    1/sqrt(n p_eff), or for block models centered in place by `center_and_scale_sbm`."""
    if isinstance(spec, SbmSpec):
        return center_and_scale_sbm(sample(spec), spec)
    matrix = sample(spec)
    n, _, p_eff = ensemble_parameters(spec)
    matrix *= 1.0 / math.sqrt(n * p_eff)
    return matrix


def center_and_scale_sbm(adj, spec: SbmSpec) -> np.ndarray:
    """(A - E A~)/(sqrt(n) sigma) of a raw adjacency sample A: in place when A is a
    writeable float64 array, as `normalized_sample` hands it over, else in a copy.

    E A~ carries p_kl on every entry of block (k,l), diagonal included; class k's rows
    subtract the length-n row p_{k, labels}, so the mean is never expanded to n x n.
    sigma^2 = `SbmSpec.sigma_squared`, the largest block variance.
    """
    if np.shape(adj) != (spec.n, spec.n):
        raise InvalidSpec(f"adjacency has shape {np.shape(adj)} but spec has n={spec.n}")
    scale = math.sqrt(spec.n) * math.sqrt(spec.sigma_squared)
    adj, labels = np.require(adj, np.float64, "W"), spec.block_labels()
    for k, (lo, size) in enumerate(zip(np.cumsum((0, *spec.sizes)), spec.sizes)):
        adj[lo:lo + size] -= spec.probs[k, labels]
    return np.divide(adj, scale, out=adj)


def effective_profile(spec: EnsembleSpec) -> Profile:
    """The profile whose predicted density matches the normalized ensemble.

    Wigner-type ensembles keep their stored, already reduced profile (the
    1/sqrt(np) rescaling undoes the mask's variance thinning); block models
    reduce to class weights alpha_i = N_i/n and coefficients
    c_kl = sigma_kl^2/sigma^2, at most 1 since sigma^2 is the largest sigma_kl^2.
    """
    if isinstance(spec, WignerSpec):
        return spec.profile
    coeffs = spec.probs * (1.0 - spec.probs) / spec.sigma_squared
    if coeffs.min() <= 0.0:
        raise InvalidSpec("some block has zero variance (p_kl in {0,1}); no valid block profile")
    return BlockProfile(d=spec.d, weights=np.divide(spec.sizes, spec.n), coeffs=coeffs)


def ensemble_parameters(spec: EnsembleSpec) -> tuple[int, float, float]:
    """(n, K, p_eff) for interval-length and delocalization normalizations."""
    if isinstance(spec, WignerSpec):
        return spec.n, spec.law.bound, spec.p
    return spec.n, 1.0, spec.p_max


def with_seed(spec: EnsembleSpec, seed: int) -> EnsembleSpec:
    """Copy of the spec with its sampling seed replaced.

    The seed needs no validation and the rest of the spec is already validated
    (its profile reduced), so the copy does not re-run __post_init__.
    """
    out = copy.copy(spec)
    object.__setattr__(out, "seed", seed)
    return out


# ---------------------------------------------------------------------------
# matrix export


def save_matrix_binary(matrix: np.ndarray, path) -> None:
    """Row-major float64 dump of a square matrix with an 8-byte little-endian size header."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", len(matrix)))
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def load_matrix_binary(path) -> np.ndarray:
    """Read a save_matrix_binary file; the size header must match the file length."""
    with open(path, "rb") as fh:
        raw = fh.read()
    n = struct.unpack_from("<q", raw)[0] if len(raw) >= 8 else 0
    if n < 1 or len(raw) != 8 + 8 * n * n:
        raise InvalidSpec(f"{path}: {len(raw)} bytes is not an 8-byte header n >= 1 plus n*n float64 values")
    return np.frombuffer(raw, dtype="<f8", offset=8).reshape(n, n).astype(np.float64)


def save_matrix_market(matrix: np.ndarray, path) -> None:
    import scipy.io  # loaded here, not at import: only `sample --format mm` writes Matrix Market

    scipy.io.mmwrite(str(path), matrix, symmetry="symmetric")
