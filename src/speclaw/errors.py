"""Exception types shared across the package, and the JSON checks that raise them.

Each exception class carries its CLI exit code and the fields of its JSON
error record: {"error": kind, "message": ...} plus the class's context.
"""

import numpy as np


class SpecLawError(Exception):
    """Base class for all speclaw errors: bad input, exit code 1."""

    exit_code = 1
    kind = "config"
    context: tuple[str, ...] = ()

    def record(self) -> dict:
        """The machine-readable error record the CLI prints on stderr."""
        return {"error": self.kind, "message": str(self), **{key: getattr(self, key) for key in self.context}}


class InvalidProfile(SpecLawError):
    """A variance profile violates its invariants (symmetry, bounds, finiteness)."""


class InvalidSpec(SpecLawError):
    """An ensemble or campaign description, or an argument, is invalid or inconsistent."""


class NonConvergence(SpecLawError):
    """A numerical kernel did not converge: the vector-equation solver, the
    quadrature, the tridiagonal reduction or the dense eigensolver.

    Carries the target abscissa x and eta, the best residual reached and the
    iterations spent; each is None where the raising code does not know it.
    """

    exit_code = 2
    kind = "non_convergence"
    context = ("x", "eta", "residual", "iterations")

    def __init__(self, message, *, x=None, eta=None, residual=None, iterations=None):
        super().__init__(message)
        self.x = x
        self.eta = eta
        self.residual = residual
        self.iterations = iterations


class DegenerateVariance(SpecLawError):
    """All block probabilities are 0 or 1, so the noise scale sigma vanishes."""


class OutOfRange(SpecLawError):
    """A requested interval has lo > hi or exceeds the tabulated grid span."""


class MissingVectors(SpecLawError):
    """An operation needs eigenvectors but the summary holds none."""


class EmptyBulk(SpecLawError):
    """No bulk interval exists at the requested density threshold."""


class AssertionFailure(SpecLawError):
    """A verification assertion failed; carries the counterexample."""

    exit_code = 3
    kind = "assertion_failure"
    context = ("counterexample",)

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", int: "an integer", float: "a number"}


def json_value(value, kind: type, where: str, error: type = InvalidSpec):
    """`value` if it is JSON of type `kind`, else raise `error` naming `where`.

    An integer passes as a float (and comes back as one), a boolean as
    neither; kind `object` accepts anything.
    """
    if isinstance(value, kind) and not (isinstance(value, bool) and kind in (int, float)):
        return value
    if kind is float and type(value) is int:
        return float(value)
    got = next((name for t, name in _JSON_TYPES.items() if isinstance(value, t)), "null")
    raise error(f"{where} must be {_JSON_TYPES[kind]}, got {got}")


def json_object(data, where: str, kinds: dict, optional=(), error: type = InvalidSpec) -> dict:
    """The JSON object `data`, each value checked by json_value against kinds[key].

    Every key of `kinds` not in `optional` must be present, and no other key.
    """
    json_value(data, dict, where, error)
    missing = [key for key in kinds if key not in data and key not in optional]
    unknown = sorted(data.keys() - kinds.keys())
    if missing or unknown:
        raise error(f"{where}: {'missing' if missing else 'unknown'} field {(missing or unknown)[0]!r}")
    return {key: json_value(value, kinds[key], f"{where}.{key}", error) for key, value in data.items()}


def json_array(value, where: str, error: type = InvalidSpec) -> np.ndarray:
    """The JSON array of numbers `value` (arrays of arrays for a matrix) as a numpy array."""
    try:
        array = np.asarray(json_value(value, list, where, error))
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise error(f"{where} must be an array of numbers")
    return array
