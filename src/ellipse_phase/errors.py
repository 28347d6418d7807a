"""Exception types shared across the package, each with its CLI exit code, and
the base of its immutable value classes.

The value classes (`Lattice`, `LogValue`, the specs, the reports) derive from
`Value`, which every command loads, and not from `dataclasses`: importing that
pulls `inspect`, `ast`, `dis` and `tokenize` into each CLI process's start-up.
"""

#: Sets a field of a `Value` in its `__init__`.  Bound once here: looking up
#: object.__setattr__ in each call makes a LogValue ~1.6x as dear to build.
set_field = object.__setattr__


class Value:
    """Immutable value semantics from `__slots__`.

    A subclass names its fields, in order, in `__slots__`, and `__init__`
    binds its arguments to them as the signature `(field1, field2, ...)`
    would: positional arguments first, then keywords, with a TypeError naming
    the class for one too many, a missing, an unknown or a repeated field.
    `RenderSpec`, `GridSpec` and `QuadratureSpec` keep explicit signatures for
    their defaults and validation, and end in `super().__init__`.  `LogValue`
    sets its two fields itself: one is built per `sigma` and `eval_f` call,
    and through the generic loop it takes ~2.3x as long to build.

    Equality (same class, equal fields), hash and repr read the fields in
    `_compared`, which is all of `__slots__` unless the class body names
    fewer; assigning or deleting a field raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls, fields = self.__class__.__name__, self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} fields but {len(args)} were given")
        for name in kwargs:
            if name not in fields[len(args):]:
                problem = "multiple values for" if name in fields else "an unexpected"
                raise TypeError(f"{cls}() got {problem} field {name!r}")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{cls}() missing field {name!r}")
            set_field(self, name, kwargs[name])

    def __init_subclass__(cls):
        cls._compared = cls.__dict__.get("_compared", cls.__slots__)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")


class EllipsePhaseError(Exception):
    """Base class for all package-specific errors; exit 1 is a validation error."""

    exit_code = 1


class DegenerateLattice(EllipsePhaseError):
    """The periods are non-finite, too short, or too close to collinear to span a lattice."""


class AccuracyNotMet(EllipsePhaseError):
    """The evaluator cannot certify the requested relative error."""

    exit_code = 2


class PoleOrZeroHit(EllipsePhaseError):
    """A sample point landed on a zero or pole."""

    exit_code = 2


class UnbalancedDivisor(EllipsePhaseError):
    """Zero and pole counts differ, so no doubly periodic phase exists."""


class AbelViolation(EllipsePhaseError):
    """Divisor sums are not lattice-congruent; no periodic sigma quotient exists."""


class IllConditioned(EllipsePhaseError):
    """The period pair is too close to collinear for a stable solve."""


class ContourTooClose(EllipsePhaseError):
    """No contour offset kept the required distance from zeros and poles."""

    exit_code = 2


class IoFailure(EllipsePhaseError):
    """An output file could not be written."""

    exit_code = 3
