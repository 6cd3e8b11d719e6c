import io
from fractions import Fraction

import pytest

from leftex import (
    Alphabet,
    Configuration,
    MulSpec,
    columns,
    eca,
    fractional_multiplication_rule,
    rational_to_config,
)
from leftex.render import RenderSpec, default_palette, render_to
from leftex.errors import AlphabetMismatch, EmptyInterval, OutOfRange, PaletteIncomplete
from oracles import pbm_row_oracle

A2 = Alphabet(2)
ONE = Configuration.single(A2, 1)


def render(automaton, x, spec):
    """The raster render_to streams, as bytes."""
    buf = io.StringIO()
    render_to(buf, automaton, x, spec)
    return buf.getvalue().encode("ascii")


def test_render_spec_validation():
    with pytest.raises(EmptyInterval):
        RenderSpec(3, 5, 4)
    with pytest.raises(OutOfRange):
        RenderSpec(0, 0, 4)
    with pytest.raises(OutOfRange):
        RenderSpec(3, 0, 4, "png")
    for fmt in ("ascii", "pbm"):  # a palette applies to pgm only
        with pytest.raises(OutOfRange):
            RenderSpec(3, 0, 4, fmt, {0: 255, 1: 0})


def test_pbm_exact_bytes_for_rule0():
    got = render(eca(0), ONE, RenderSpec(3, -1, 1, "pbm"))
    assert got == b"P1\n3 3\n0 1 0\n0 0 0\n0 0 0\n"


def test_pbm_thresholds_nonbinary_symbols():
    x = rational_to_config(1, 6)
    mul = fractional_multiplication_rule(MulSpec(3, 2))
    lines = render(mul, x, RenderSpec(2, -2, 2, "pbm")).decode().splitlines()
    # t=1 holds digits 1 and 3: both render as 1
    assert lines[3] == "0 1 1 0 0"


@pytest.mark.parametrize("automaton, x", [
    (eca(30), Configuration(A2, -3, b"\x01\x01\x00", b"\x01\x00\x00\x01", b"\x00\x01")),
    # base-6 digits 0..5 of 13/11, thresholded
    (fractional_multiplication_rule(MulSpec(3, 2)), rational_to_config(Fraction(13, 11), 6)),
])
def test_pbm_rows_match_the_joined_formatter(automaton, x):
    rows = 3
    for width in range(1, 601):
        lo = -(width // 2)
        words = list(columns(automaton, x, lo, lo + width - 1, rows))
        want = f"P1\n{width} {rows}\n" + "".join(pbm_row_oracle(w) + "\n" for w in words)
        assert render(automaton, x, RenderSpec(rows, lo, lo + width - 1, "pbm")) == want.encode()
    assert max(words[-1]) == automaton.alphabet.size - 1  # the widest rows hold every symbol


def test_ascii_binary_and_base6():
    got = render(eca(30), ONE, RenderSpec(2, -2, 2, "ascii")).decode().splitlines()
    assert got == ["  #  ", " ### "]
    mul = fractional_multiplication_rule(MulSpec(3, 2))
    got = render(mul, rational_to_config(1, 6), RenderSpec(2, -2, 2, "ascii")).decode().splitlines()
    assert got == [" 1   ", " 13  "]


def test_default_palette_even_spacing():
    assert default_palette(2) == {0: 0, 1: 255}
    pal = default_palette(6)
    assert pal[0] == 0 and pal[5] == 255
    assert all(pal[s] <= pal[s + 1] for s in range(5))


def test_pgm_uses_palette():
    got = render(eca(30), ONE, RenderSpec(1, -1, 1, "pgm"))
    assert got == b"P2\n3 1\n255\n0 255 0\n"
    custom = render(eca(30), ONE, RenderSpec(1, -1, 1, "pgm", {0: 7, 1: 99}))
    assert custom == b"P2\n3 1\n255\n7 99 7\n"


def test_pgm_palette_incomplete():
    with pytest.raises(PaletteIncomplete):
        render(eca(30), ONE, RenderSpec(1, 0, 1, "pgm", {0: 0}))


def test_invalid_input_leaves_the_stream_empty():
    three = Configuration.single(Alphabet(3), 2)
    for fmt in ("ascii", "pbm", "pgm"):
        buf = io.StringIO()
        with pytest.raises(AlphabetMismatch):
            render_to(buf, eca(30), three, RenderSpec(3, 0, 1, fmt))
        assert buf.getvalue() == "", fmt


def test_render_is_deterministic():
    spec = RenderSpec(16, -16, 16, "pbm")
    assert render(eca(30), ONE, spec) == render(eca(30), ONE, spec)
