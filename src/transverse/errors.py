"""Exception types and the record base shared across the package.

Every module of the package loads this one before it runs (``fields``
imports it too), so the record base here adds no module to any import
graph.
"""

from operator import attrgetter

# sets a field, also of an immutable record past its refusing __setattr__
_set = object.__setattr__


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AlgebraError):
    """Vector, matrix, or exponent lengths do not line up."""


class RingMismatchError(AlgebraError):
    """Operands belong to different rings."""


class DomainError(AlgebraError):
    """Input is outside an operation's mathematical domain."""


class ExactnessError(AlgebraError):
    """A complex that was required to be exact has nonzero homology."""


class CertificationError(AlgebraError):
    """An internal consistency certificate failed."""


class ParseError(AlgebraError):
    """Malformed textual input (monomials, job documents)."""


class Record:
    """Base of the package's record classes.

    A subclass names its fields in ``_fields``.  Unless it defines its own
    ``__init__``, which takes the fields in that order, the base gives it
    one: exactly ``len(_fields)`` positional arguments, in ``_fields``
    order, each stored with ``object.__setattr__``, so that it also builds
    the immutable records.  Two records are equal when they are of the
    same class and their field tuples are equal; any other operand gets
    ``NotImplemented``.  The repr is ``Name(field=value, ...)``.  Because
    this class defines ``__eq__``, a record is unhashable unless its class
    defines ``__hash__``; the immutable ones do, on the field tuple, and set
    ``__setattr__`` and ``__delattr__`` to :meth:`_immutable`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # reads the fields in one C call: the tuple of them, or the value of
        # a lone field, which compares as its 1-tuple does for every value
        # equal to itself
        cls._values = attrgetter(*cls._fields)
        if cls.__init__ is object.__init__:
            cls.__init__ = _constructor(cls.__qualname__, cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _immutable(self, name, value=None):
        raise AttributeError(
            f"cannot assign to or delete {name!r}: "
            f"{type(self).__qualname__} is immutable"
        )


def _constructor(name: str, fields: tuple[str, ...]):
    """The ``__init__`` that :class:`Record` gives a subclass with none."""
    n = len(fields)

    def __init__(self, *values):
        if len(values) != n:
            raise TypeError(
                f"{name}() takes {n} positional arguments "
                f"but {len(values)} were given"
            )
        for field, value in zip(fields, values):
            _set(self, field, value)

    return __init__
