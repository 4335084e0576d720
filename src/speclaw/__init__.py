"""Spectral density prediction and local-law verification for random matrices."""

from .ensembles import (
    EntryLaw,
    SbmSpec,
    SparseSpec,
    WignerSpec,
    center_and_scale_sbm,
    effective_profile,
    sample_sbm,
    sample_sparse,
    sample_wigner,
)
from .errors import (
    AssertionFailure,
    DegenerateVariance,
    EmptyBulk,
    InvalidProfile,
    InvalidSpec,
    MissingVectors,
    NonConvergence,
    OutOfRange,
    SpecLawError,
)
from .qve import (
    BlockProfile,
    BulkInterval,
    DensityCurve,
    QveSolution,
    SpectralPoint,
    VarianceProfile,
    detect_bulk,
    extract_density,
    integrate_density,
    solve_qve,
)
from .spectra import (
    SpectrumSummary,
    TridiagonalForm,
    count_in_interval,
    eigen_full,
    eigvec_inf_norms,
    schur_resolvent_check,
    stieltjes_empirical,
    tridiagonalize,
)
from .verify import (
    DelocReport,
    LocalLawConfig,
    LocalLawReport,
    ProjectionTestSpec,
    interlacing_test,
    projection_concentration_test,
    verify_delocalization,
    verify_local_law,
    verify_stieltjes_closeness,
)

__version__ = "0.1.0"
