"""Exact rational parsing and writing for interchange documents.

Documents mostly hold plain "p" and "p/q" text, so `parse_ratio` reads
those with `int` alone and `format_ratio` writes them with `gcd`; only
other text (decimals, whitespace, a leading "+") takes the `Fraction`
parser, and both give exactly what `Fraction` would.  Only that parser
imports `fractions`.
"""

from __future__ import annotations

from math import gcd


def parse_rational(value) -> Fraction:
    """Parse "p/q", decimal strings like "2.5", or integers, exactly.

    Floats are rejected: callers must hand us a string if the value is not
    integral, so nothing is blurred by binary floating point.  Exponent
    forms like "1e9" are rejected too: their cost grows with the
    exponent's value, not with the length of the text.
    """
    from fractions import Fraction

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


def parse_ratio(value) -> tuple[int, int]:
    """`parse_rational` as a reduced (numerator, denominator) pair, with
    the denominator positive.  JSON integers and "p", "-p", "p/q" and
    "-p/q" in ASCII digits are read with `int`; anything else, and a zero
    denominator, goes to `parse_rational`, so the value and every error
    are the same."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.removeprefix("-").partition("/")
        if num.isdigit() and (den.isdigit() and den.strip("0") or not slash):
            try:
                p, q = lowest(int(num), int(den or 1))
            except ValueError:  # past the interpreter's digit limit
                pass
            else:
                return (-p if value[0] == "-" else p), q
    f = parse_rational(value)
    return f.numerator, f.denominator


def lowest(numerator: int, denominator: int) -> tuple[int, int]:
    """numerator/denominator (denominator positive) in lowest terms."""
    g = gcd(numerator, denominator)
    return numerator // g, denominator // g


def format_ratio(numerator: int, denominator: int) -> str:
    """The text of numerator/denominator (denominator positive) that `str`
    of the `Fraction` gives: "p/q" in lowest terms, or "p" when integral."""
    p, q = lowest(numerator, denominator)
    return str(p) if q == 1 else f"{p}/{q}"
