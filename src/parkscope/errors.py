"""Shared exception and report types, and the record base and integer
check of both record layers.

A validator returns a :class:`Report`; a gate that refuses a check words
its ``ValueError`` with :meth:`Report.first_three`.  Error taxonomy used
across the package:

* ``ValueError`` -- malformed arguments (wrong sizes, ids that do not
  resolve, words that are not permutations).  Raised eagerly.
* ``NonRealizableError`` -- structurally well-formed input that cannot be
  completed to the geometric object it claims to describe (critical-value
  counts that force no genus, an Euler characteristic that no closed
  surface has, a surface of another genus than the counts force).
* ``ResourceLimitError`` -- the request exceeds the configured search
  bounds; nothing was computed.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any


class NonRealizableError(Exception):
    """Input is valid data but describes no realizable surface.

    When the rejection comes from a genus check, the figures behind it
    are kept as attributes: ``euler_characteristic`` of the surface the
    park would close to, its ``built_genus`` and the ``forced_genus`` of
    the critical-value count.  Each is ``None`` when not computed.
    Extraction's check reads the counts alone, the characteristic being
    ``2d - 2t - s - D`` with ``D`` the corners whose element moves four
    whites, so it raises before any cell is built.
    """

    def __init__(
        self,
        *args: object,
        euler_characteristic: int | None = None,
        built_genus: int | None = None,
        forced_genus: int | None = None,
    ):
        super().__init__(*args)
        self.euler_characteristic = euler_characteristic
        self.built_genus = built_genus
        self.forced_genus = forced_genus


class ResourceLimitError(Exception):
    """Requested computation exceeds the configured bounds."""


def _require_int(value: object, what: str) -> int:
    """``value`` when it is an ``int`` and not a ``bool``; ``ValueError``
    naming ``what`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _read_only(record: object, *args: object) -> None:
    raise AttributeError(f"{type(record).__name__} is read-only")


class _Record:
    """Base of the package's record types.

    A subclass's fields are the names its own body annotates, in order,
    and a class attribute of a field's name is that field's default.  The
    one ``__init__`` takes the fields by position or keyword, sets each in
    field order (so instances share their dict keys) and runs
    ``__post_init__``, where a record checks and coerces its input.  Two
    records are equal when they are of one type with equal fields, and the
    ``repr`` is ``Name(field=value, ...)``.  A subclass declared with
    ``frozen=True`` has read-only fields and hashes by them; any other is
    unhashable.  Library code makes the records whose fields it built
    itself through :func:`_trusted`.
    """

    def __init_subclass__(cls, frozen: bool = False, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        cls._fields = cls.__match_args__ = names
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        # the field values as a tuple, which attrgetter of one name is not
        if len(names) == 1:
            one = attrgetter(names[0])
            cls._values = staticmethod(lambda record: (one(record),))
        else:
            cls._values = staticmethod(attrgetter(*names))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _read_only
            cls.__hash__ = _Record._hash
        else:
            cls.__hash__ = None

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self._fields
        given = dict(zip(names, args))
        if len(args) > len(names) or not given.keys().isdisjoint(kwargs):
            raise TypeError(
                f"{type(self).__name__}() takes each of the fields {', '.join(names)} once: "
                f"{len(args)} given by position, {list(kwargs)} by keyword"
            )
        values = {**self._defaults, **given, **kwargs}
        if values.keys() != set(names):
            missing = [name for name in names if name not in values]
            unknown = [name for name in values if name not in names]
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(names)}: "
                f"missing {missing}, unknown {unknown}"
            )
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def _hash(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))
        )
        return f"{type(self).__qualname__}({fields})"


def _trusted(cls: type, **fields: Any) -> Any:
    """An instance of the record type ``cls`` with every field set as given,
    in field order, and no ``__post_init__`` run.  Only for records the
    library built itself, whose fields are already the tuples, ints and
    read-only maps the checked constructor would make; a missing field
    raises ``KeyError``."""
    record = object.__new__(cls)
    for name in cls._fields:
        object.__setattr__(record, name, fields[name])
    return record


class Report:
    """Outcome of a validator, read-only: ``violations`` pairs a label or
    rule code with a detail string, ``ok`` holds exactly when there are
    none, and truthiness equals ``ok``."""

    __slots__ = ("violations",)

    def __init__(self, violations) -> None:
        object.__setattr__(self, "violations", tuple(violations))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Report is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Report is read-only")

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return f"Report(ok={self.ok}, violations={self.violations!r})"

    def first_three(self) -> str:
        """The first three violations as ``label: detail``, joined by ``; ``."""
        return "; ".join(f"{label}: {detail}" for label, detail in self.violations[:3])
