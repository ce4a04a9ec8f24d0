"""Exception types shared across the package, and `Value`, the base of its
value classes, with `immutable`, the refusal they make on assignment."""

from operator import attrgetter


def immutable(self, name, *value):
    """`__setattr__` and `__delattr__` of an immutable value class: its
    `__init__` sets its fields in its `__dict__`, and any later assignment
    or deletion raises AttributeError."""
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


class Value:
    """Base of the package's value classes: immutable, with equality, the
    hash and the repr read from the fields a class lists.

    A subclass lists the fields its repr shows, in `__init__` order, as
    `_fields`, and its `__init__` sets its fields through `self.__dict__`.
    Equality and the hash read `_compared`, `_fields` unless the class
    names a subset: two values are equal when they are of one class and
    agree on those fields, and the hash is that of the tuple of them.  A
    mutable subclass restores `object.__setattr__` and `object.__delattr__`
    and sets `__hash__` to None.
    """

    _fields: tuple[str, ...] = ()
    __setattr__ = __delattr__ = immutable

    def __init_subclass__(cls):
        cls._key = attrgetter(*getattr(cls, "_compared", cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Kn3Error(Exception):
    """Base class for all domain errors raised by this package."""


class OddOrder(Kn3Error):
    """The requested vertex count is odd; only even orders are supported."""


class InvalidParameter(Kn3Error, ValueError):
    """An argument outside its domain: an order, multiplicity, vertex or pairing."""


class UnsupportedCase(Kn3Error):
    """A parameter combination outside the supported constructions."""


class MismatchedAmbient(Kn3Error):
    """Two circuits live in different ambient graphs (n or m differ)."""


class VertexAbsent(Kn3Error):
    """A queried vertex does not occur in the circuit."""


class NotAnEmbeddingSet(Kn3Error):
    """A circuit family failed embedding-set validation."""


class NotQuadrilateral(Kn3Error):
    """A scheme has a face of length other than 4."""


class Disconnected(Kn3Error):
    """The underlying graph of a scheme is not connected."""


class GraphMismatch(Kn3Error):
    """A scheme does not fit a labelled graph.

    Two schemes are defined on different labelled graphs, or a rotation
    misses, repeats or adds an edge of its scheme's graph.
    """


class NoCommonTransition(Kn3Error):
    """The multi-edge splice found no shared transition (indicates a bug)."""


class CopyResolutionError(Kn3Error):
    """`fileio.format_set`, its only raiser, got a family without copy labels
    for m > 1; the family checks report such a circuit as not Eulerian."""


class FormatError(Kn3Error):
    """A text file does not conform to one of the package formats."""

    def __init__(self, message, line=None):
        self.reason = message  # the message without its line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
