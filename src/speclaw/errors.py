"""Exception types shared across the package, the one JSON codec and the CSV writer.

Every float array a value type stores is a read-only float64 copy made by
`frozen_array`, which rejects anything but an array of finite real numbers:
InvalidProfile for the two profile classes, InvalidSpec for the rest (README
lists the fields).

Each exception class carries its CLI exit code and the fields of its JSON
error record: {"error": kind, "message": ...} plus the class's context, where
a non-finite float is written as null.

Every JSON record of the package (profile, entry law, ensemble, campaign
config, report) gets its to_dict/from_dict/to_json from the `record` class
decorator, driven by its dataclass fields, and is read back by `read_json`.
All are written in one byte form, `report_json_bytes`: sorted keys, indent
2, and strict JSON, so a NaN or infinity raises ValueError.  Input that is
not a JSON object of the declared fields and types raises InvalidSpec naming
the field.  When read, an array field need only be a JSON array: its record's
constructor then checks the elements with `frozen_array`, so a bad element
gets that function's error and message.
"""

import csv
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, fields

import numpy as np


class SpecLawError(Exception):
    """Base class for all speclaw errors: bad input, exit code 1."""

    exit_code = 1
    kind = "config"
    context: tuple[str, ...] = ()

    def record(self) -> dict:
        """The machine-readable error record the CLI prints on stderr."""
        context = {key: getattr(self, key) for key in self.context}
        finite = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in context.items()}
        return {"error": self.kind, "message": str(self), **finite}


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


def _holds_bool(items) -> bool:
    """Whether a nested list or tuple holds a boolean, which numpy would read as 0 or 1."""
    kinds = set(map(type, items))
    nested = kinds & {list, tuple}
    return bool(kinds & {bool, np.bool_}) or bool(nested) and any(_holds_bool(v) for v in items if type(v) in nested)


def frozen_array(obj, name: str, error: type[SpecLawError] = InvalidSpec) -> np.ndarray:
    """Replace field `name` of the frozen dataclass `obj` by a read-only float64
    copy and return it; raise `error` naming Class.name unless the field is an
    array of real numbers, every one finite (a complex value is not cast, nor a boolean read as 0 or 1)."""
    where, value = f"{type(obj).__name__}.{name}", getattr(obj, name)
    try:
        array = np.array(value)
    except ValueError:  # ragged nesting
        array = np.array(None)
    if array.dtype.kind not in "iuf" or isinstance(value, (list, tuple)) and _holds_bool(value):
        raise error(f"{where} must be an array of real numbers")
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise error(f"{where} must be finite")
    array.setflags(write=False)
    object.__setattr__(obj, name, array)
    return array


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", int: "an integer", float: "a number"}


def json_value(value, kind: type, where: str):
    """`value` if it is JSON of type `kind`, else raise InvalidSpec naming `where`.

    An integer in the float range passes as a float (and comes back as one),
    an integer field takes int64 values only, and a boolean is neither.
    """
    if isinstance(value, kind) and not (isinstance(value, bool) and kind in (int, float)):
        if kind is int and not -(2**63) <= value < 2**63:
            raise InvalidSpec(f"{where} is an integer beyond the int64 range")
        return value
    if kind is float and type(value) is int:
        if abs(value) > sys.float_info.max:
            raise InvalidSpec(f"{where} is an integer too large for a float")
        return float(value)
    got = next((name for t, name in _JSON_TYPES.items() if isinstance(value, t)), "null")
    raise InvalidSpec(f"{where} must be {_JSON_TYPES[kind]}, got {got}")


def report_json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def write_json(payload: dict, path) -> None:
    """Write report_json_bytes(payload), the one byte form of every JSON artifact."""
    with open(path, "wb") as fh:
        fh.write(report_json_bytes(payload))


def write_csv(path, header: list[str], rows) -> None:
    """The one CSV form: the csv module's default dialect (CRLF), floats as repr(float), None as ''."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_json(kind, path):
    """The record of type `kind`, a record class or a union of them, stored at `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an integer literal past int()'s digit limit
            raise InvalidSpec(str(exc)) from exc
    return _decode(kind, data, str(path))


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


def _holds(member, data: dict) -> bool:
    """Whether JSON object `data` is a `member` record: its tag, else all its required fields."""
    if member.tag is not None:
        return data.get("kind") == member.tag
    return all(f.name in data for f in fields(member) if f.default is MISSING)


def _decode(kind, value, where: str):
    """`value` read from JSON as the annotation `kind`, or InvalidSpec naming `where`.

    For `X | None`, JSON null gives None; a union of records gives the member
    whose tag the object's "kind" names, or else whose required fields it holds.
    """
    if hasattr(kind, "from_dict"):
        return kind.from_dict(value)
    if kind is np.ndarray:  # the record's constructor checks the elements, through frozen_array
        return json_value(value, list, where)
    args, origin = typing.get_args(kind), typing.get_origin(kind)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:
            return _decode(members[0], value, where)
        data = json_value(value, dict, where)
        member = next((m for m in members if _holds(m, data)), None)
        if member is None:
            raise InvalidSpec(f"{where} is none of {', '.join(m.__name__ for m in members)}")
        return member.from_dict(data)
    if origin in (list, tuple):
        items = [_decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(json_value(value, list, where))]
        return items if origin is list else tuple(items)
    if origin is dict:  # JSON keys are strings; dict[int, ...] parses them back
        return {
            _decode(args[0], int(k) if args[0] is int and str(k).isdigit() else k, f"{where} key"):
            _decode(args[1], v, f"{where}[{k!r}]")
            for k, v in json_value(value, dict, where).items()
        }
    return json_value(value, kind, where)


def record(tag: str | None = None):
    """Class decorator giving a dataclass to_dict, from_dict and to_json driven by its fields.

    to_dict encodes nested records, arrays, lists and tuples (as lists);
    from_dict requires every field without a default and no other key,
    decodes each field by its annotation, leaves absent defaulted fields to
    their defaults, and raises InvalidSpec naming the field otherwise.  A
    tagged class writes "kind": tag first and requires it on read.  The
    methods are set on the class itself, one function object per class.
    """

    def decorate(cls):
        hints = typing.get_type_hints(cls)
        kinds = {f.name: hints[f.name] for f in fields(cls)}
        optional = {f.name for f in fields(cls) if f.default is not MISSING}
        head = {} if tag is None else {"kind": tag}
        names = [*head, *kinds]

        def to_dict(self) -> dict:
            return {**head, **{name: _encode(getattr(self, name)) for name in kinds}}

        def from_dict(owner, data: dict):
            data = dict(json_value(data, dict, cls.__name__))
            missing = [key for key in names if key not in data and key not in optional]
            unknown = sorted(data.keys() - set(names))
            if missing or unknown:
                raise InvalidSpec(f"{cls.__name__}: {'missing' if missing else 'unknown'} field {(missing or unknown)[0]!r}")
            if tag is not None and (found := data.pop("kind")) != tag:
                raise InvalidSpec(f"{cls.__name__}.kind must be {tag!r}, got {found!r}")
            return owner(**{k: _decode(kinds[k], v, f"{cls.__name__}.{k}") for k, v in data.items()})

        def to_json(self, path) -> None:
            write_json(self.to_dict(), path)

        cls.tag, cls.to_dict, cls.from_dict, cls.to_json = tag, to_dict, classmethod(from_dict), to_json
        return cls

    return decorate
