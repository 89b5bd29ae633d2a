"""The `Fraction`-based reader that `rationals.parse_ratio` replaced, kept
word for word as the tests' reference and as their way to build exact
endpoints from ints, strings and Fractions.  It reads what the running
Python's `Fraction` reads, so on Python 3.10 and 3.11 it refuses
underscores or blanks beside "/" that the pinned grammar accepts."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(value) -> Fraction:
    """Parse "p/q", decimal strings like "2.5", or integers, exactly.

    Floats are rejected: callers must hand us a string if the value is not
    integral, so nothing is blurred by binary floating point.  Exponent
    forms like "1e9" are rejected too: their cost grows with the
    exponent's value, not with the length of the text.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and not ("e" in value or "E" in value):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")
