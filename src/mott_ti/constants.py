"""Physical constants and the plain-text constants file format.

Energies are MeV, lengths fm. The public kinematic API takes keV and
converts internally; cross sections are reported in fm^2/sr and barn/sr
(1 barn = 100 fm^2).
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterator

from .errors import DomainError

BARN_PER_FM2 = 0.01  # 1 barn = 100 fm^2


class Record:
    """Base of the package's immutable records: slotted and compared by value.

    A record names its fields in ``__slots__``; its ``__init__`` checks its
    arguments and passes them to ``_store`` once.  Afterwards assigning or
    deleting an attribute raises AttributeError.  Equality, hash and repr
    go over the fields in ``__slots__`` order, and copy and pickle rebuild
    a record by passing them to ``__init__`` by position.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _store(self, *values: object) -> None:
        """Fill the fields in ``__slots__`` order; a wrong count raises ValueError."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple[object, ...]:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({text})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), self._fields()


class PhysicalConstants(Record):
    """Constants used by every kinematic and cross-section formula."""

    __slots__ = ("hbar_c", "e_squared", "amu", "nucleon_mass", "r0")

    def __init__(
        self,
        hbar_c: float = 197.3269804,     # MeV fm
        e_squared: float = 1.4399645,    # MeV fm (fine-structure constant x hbar_c)
        amu: float = 931.49410,          # MeV (atomic mass unit)
        nucleon_mass: float = 938.9187,  # MeV (proton/neutron average)
        r0: float = 1.4,                 # fm (nuclear radius parameter)
    ) -> None:
        self._store(hbar_c, e_squared, amu, nucleon_mass, r0)
        for name in self.__slots__:
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # also false for nan
                raise DomainError(f"constant {name} must be finite and positive, got {value}")
        alpha = e_squared / hbar_c
        if not (1.0 / 137.5 <= alpha <= 1.0 / 136.5):
            raise DomainError(
                f"e_squared/hbar_c = {alpha:.6g} is not a fine-structure constant"
            )

    def fingerprint(self) -> str:
        """Short hash identifying the constant set in output metadata."""
        # imported here, so only commands that render a document pay for it, and
        # from CPython's lean builtin SHA-256, as random.py does for SHA-512:
        # hashlib loads OpenSSL's _hashlib, ~2.5 ms more per process.  The
        # version picks the module, so no call repeats a failing import
        try:
            if sys.version_info >= (3, 12):
                from _sha2 import sha256
            else:
                from _sha256 import sha256
        except ImportError:  # an interpreter built without it
            from hashlib import sha256

        text = ",".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return sha256(text.encode()).hexdigest()[:12]


DEFAULT_CONSTANTS = PhysicalConstants()


def table_rows(path: str | os.PathLike[str], source: str,
               shape: str) -> Iterator[tuple[str, list[str]]]:
    """(``source:line``, fields) of each row of the plain-text table in file `path`.

    ``#`` starts a comment; blank lines are skipped.  `shape` names the
    fields, e.g. ``'name value'``; a row with another field count raises
    ValueError.
    """
    with open(path) as file:
        text = file.read()
    width = len(shape.split())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != width:
            raise ValueError(f"{source}:{lineno}: expected {shape!r}, got {raw!r}")
        yield f"{source}:{lineno}", tokens


def load_constants(path: str | os.PathLike[str]) -> PhysicalConstants:
    """Read constants from a plain-text table (one ``name value`` per line).

    Names absent from the file keep their default values; every value must
    be finite and positive.
    """
    overrides: dict[str, float] = {}
    for where, (name, value) in table_rows(path, str(path), "name value"):
        if name not in PhysicalConstants.__slots__:
            raise ValueError(f"{where}: unknown constant {name!r}")
        overrides[name] = float(value)
    return PhysicalConstants(**overrides)
