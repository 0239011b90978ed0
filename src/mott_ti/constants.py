"""Physical constants and the plain-text constants file format.

Energies are MeV, lengths fm. The public kinematic API takes keV and
converts internally; cross sections are reported in fm^2/sr and barn/sr
(1 barn = 100 fm^2).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import DomainError

BARN_PER_FM2 = 0.01  # 1 barn = 100 fm^2


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants used by every kinematic and cross-section formula."""

    hbar_c: float = 197.3269804      # MeV fm
    e_squared: float = 1.4399645     # MeV fm (fine-structure constant x hbar_c)
    amu: float = 931.49410           # MeV (atomic mass unit)
    nucleon_mass: float = 938.9187   # MeV (proton/neutron average)
    r0: float = 1.4                  # fm (nuclear radius parameter)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value < math.inf:  # also false for nan
                raise DomainError(f"constant {f.name} must be finite and positive, got {value}")
        alpha = self.e_squared / self.hbar_c
        if not (1.0 / 137.5 <= alpha <= 1.0 / 136.5):
            raise DomainError(
                f"e_squared/hbar_c = {alpha:.6g} is not a fine-structure constant"
            )

    def fingerprint(self) -> str:
        """Short hash identifying the constant set in output metadata."""
        import hashlib  # ~4 ms to import: paid only by commands that render a document

        text = ",".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


DEFAULT_CONSTANTS = PhysicalConstants()

_FIELD_NAMES = {f.name for f in fields(PhysicalConstants)}


def table_rows(text: str, source: str, shape: str) -> Iterator[tuple[str, list[str]]]:
    """(``source:line``, fields) of each row of a plain-text table.

    ``#`` starts a comment; blank lines are skipped.  `shape` names the
    fields, e.g. ``'name value'``; a row with another field count raises
    ValueError.
    """
    width = len(shape.split())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != width:
            raise ValueError(f"{source}:{lineno}: expected {shape!r}, got {raw!r}")
        yield f"{source}:{lineno}", tokens


def load_constants(path: str | Path) -> PhysicalConstants:
    """Read constants from a plain-text table (one ``name value`` per line).

    Names absent from the file keep their default values; every value must
    be finite and positive.
    """
    overrides: dict[str, float] = {}
    for where, (name, value) in table_rows(Path(path).read_text(), str(path), "name value"):
        if name not in _FIELD_NAMES:
            raise ValueError(f"{where}: unknown constant {name!r}")
        overrides[name] = float(value)
    return replace(DEFAULT_CONSTANTS, **overrides)
