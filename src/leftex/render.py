"""Space-time diagram rasters: PBM (P1), PGM (P2) and ASCII.

PBM is the canonical golden-file format: textual, diffable, bit-exact.
Any alphabet renders to PBM by thresholding (symbol > 0 becomes 1), matching
the usual black-nonzero depiction of diagrams.  PGM maps symbols through a
gray palette, evenly spaced by default.  Rows are streamed from
rules.columns, given the row count, so memory stays bounded by one raster
row plus one stepped state (at most about twice the size of a canonical
configuration) or, once columns maps the light cone of the remaining rows
instead, that cone: no wider than the last stepped state's input and at
most width + rows*(m+n) symbols.  A long walk of a rule that is not
bit-sliced (every ECA is) adds the rule's block tables, at most
8 * min(2^10 * the rule's table, 10^7) bytes (rules._block_rows).
Each row is formatted by one bytes.translate (ASCII), one bytes.translate
written into every other byte of a copy of a blank row (PBM), or one join
over per-symbol gray labels (PGM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, Optional

from .configuration import Configuration
from .errors import EmptyInterval, OutOfRange, PaletteIncomplete
from .rules import Automaton, columns

FORMATS = ("ascii", "pbm", "pgm")

_ASCII_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class RenderSpec:
    """What to draw: row count, spatial window, format, optional palette."""

    rows: int
    col_lo: int
    col_hi: int
    format: str = "ascii"
    palette: Optional[Mapping[int, int]] = None

    def __post_init__(self):
        if self.rows < 1:
            raise OutOfRange("need at least one row")
        if self.col_lo > self.col_hi:
            raise EmptyInterval(f"empty column window [{self.col_lo}, {self.col_hi}]")
        if self.format not in FORMATS:
            raise OutOfRange(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.palette is not None and self.format != "pgm":
            raise OutOfRange(f"a palette applies to pgm only, not to {self.format}")


def default_palette(alphabet_size: int) -> dict[int, int]:
    """Evenly spaced gray levels, 0 black ... n-1 white."""
    if alphabet_size == 1:
        return {0: 0}
    return {s: s * 255 // (alphabet_size - 1) for s in range(alphabet_size)}


def _gray_map(alphabet_size: int, palette: Optional[Mapping[int, int]]) -> list[int]:
    if palette is None:
        palette = default_palette(alphabet_size)
    missing = [s for s in range(alphabet_size) if s not in palette]
    if missing:
        raise PaletteIncomplete(f"palette lacks symbols {missing}")
    levels = [palette[s] for s in range(alphabet_size)]
    if any(not 0 <= g <= 255 for g in levels):
        raise OutOfRange("gray levels must be in 0..255")
    return levels


def _ascii_char(symbol: int, alphabet_size: int) -> str:
    if symbol == 0:
        return " "
    if alphabet_size == 2:
        return "#"
    if symbol < len(_ASCII_DIGITS):
        return _ASCII_DIGITS[symbol]
    return "#"


def render_to(out: IO[str], automaton: Automaton, x: Configuration, spec: RenderSpec) -> None:
    """Stream the raster for rows t = 0 .. rows-1, row t being
    F^t(x)[col_lo .. col_hi].  Invalid input raises before anything is
    written."""
    width = spec.col_hi - spec.col_lo + 1
    size = automaton.alphabet.size
    rows = columns(automaton, x, spec.col_lo, spec.col_hi, spec.rows)
    if spec.format == "pgm":
        labels = [str(level) for level in _gray_map(size, spec.palette)]
        out.write(f"P2\n{width} {spec.rows}\n255\n")
        line = lambda row: " ".join(map(labels.__getitem__, row))
    elif spec.format == "pbm":
        chars = b"0" + b"1" * 255
        blank = b" " * (2 * width - 1)
        out.write(f"P1\n{width} {spec.rows}\n")

        def line(row: bytes) -> str:
            text = bytearray(blank)
            text[::2] = row.translate(chars)
            return text.decode("ascii")
    else:
        chars = "".join(_ascii_char(s, size) for s in range(256)).encode("ascii")
        line = lambda row: row.translate(chars).decode("ascii")
    for row in rows:
        out.write(line(row))
        out.write("\n")
