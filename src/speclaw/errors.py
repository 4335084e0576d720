"""Exception types shared across the package."""


class SpecLawError(Exception):
    """Base class for all speclaw errors."""


class InvalidProfile(SpecLawError):
    """A variance profile violates its invariants (symmetry, bounds, finiteness)."""


class InvalidSpec(SpecLawError):
    """An ensemble or campaign description is internally inconsistent."""


class NonConvergence(SpecLawError):
    """The self-consistent solver did not reach the requested residual.

    Carries the target abscissa x and eta, the best residual reached and the
    iterations spent, when the raising code knows them.
    """

    def __init__(self, message, *, x=None, eta=None, residual=None, iterations=None):
        super().__init__(message)
        self.x = x
        self.eta = eta
        self.residual = residual
        self.iterations = iterations


class NoConvergence(SpecLawError):
    """The dense eigensolver failed to converge (pathological input)."""


class DegenerateVariance(SpecLawError):
    """All block probabilities are 0 or 1, so the noise scale sigma vanishes."""


class OutOfRange(SpecLawError):
    """A requested interval exceeds the tabulated grid span."""


class MissingVectors(SpecLawError):
    """An operation needs eigenvectors but the summary holds none."""


class EmptyBulk(SpecLawError):
    """No bulk interval exists at the requested density threshold."""


class AssertionFailure(SpecLawError):
    """A verification assertion failed; carries the counterexample."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
