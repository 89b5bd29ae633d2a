"""Exact rational parsing and writing for interchange documents.

A value is a JSON integer, or text made of optional blanks and a sign,
then "p", "p/q" (blanks allowed around the slash) or a decimal "p.d",
".d" or "p.", with digits grouped by single underscores, then optional
blanks.  That is what `Fraction` reads on Python 3.12 and later, less
exponents, whose cost grows with their value rather than with the text.
`parse_ratio` reads it with `int` alone, the canonical "p", "-p" and
"p/q" in ASCII digits directly and any other text through one regular
expression first, so every supported Python reads a document the same
way, and `format_ratio` writes "p" or "p/q" in lowest terms; neither
imports `fractions`.  A decimal whose reduced pair has more digits than
`str` writes is refused, so every value read can be written back.
"""

from __future__ import annotations

import re
import sys
from math import gcd

# 0, no limit, where the interpreter predates the limit
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
# `\s` matches what `str.strip` strips and `\d` the digits `int` reads;
# "_" is left to `int`, which refuses it leading, trailing or doubled
_RATIONAL = re.compile(r"\s*([-+]?)(?=\.?\d)([\d_]*)(?:\s*/\s*([\d_]+)|\.([\d_]*))?\s*").fullmatch


def parse_ratio(value) -> tuple[int, int]:
    """A JSON integer or rational text as a reduced (numerator,
    denominator) pair, with the denominator positive.  Anything else (JSON
    true, a float, a zero denominator, digits past the interpreter's
    limit, in the text or in the reduced pair) raises ValueError."""
    if type(value) is int:
        return value, 1
    # what `format_ratio` writes, "p", "-p" or "p/q" in ASCII digits, skips the
    # expression; 640 characters are within any digit limit one can set
    if type(value) is str and len(value) <= 640 and value.isascii():
        num, slash, den = value.removeprefix("-").partition("/")
        if num.isdigit() and (den.isdigit() or not slash) and (q := int(den or 1)):
            g = gcd(p := int(num), q)
            return (-p // g if value[0] == "-" else p // g), q // g
    match = _RATIONAL(value) if isinstance(value, str) else None
    if match:
        sign, num, den, decimals = match.groups()
        try:
            # the digits are read before any power of ten is built for them
            p, q, d = int(num or 0), int(den or 1), int(decimals or 0)
        except ValueError as exc:
            raise _refusal(value) from exc
        if decimals:
            q = 10 ** len(decimals.replace("_", ""))
            p = p * q + d
        if q:
            p, q = lowest(p, q)
            # "p/q" reduces to no more digits than it has; a decimal may not
            if not decimals or _writable(p, q, len(num) + len(decimals)):
                return (-p if sign == "-" else p), q
    raise _refusal(value)


def _writable(p: int, q: int, digits: int) -> bool:
    """Whether `str` writes both p and q, read from a decimal of `digits`
    digits and underscores in all (so p has at most `digits` digits and q
    at most `digits` + 1): neither has more than the interpreter's limit."""
    limit = _max_str_digits()
    return not limit or digits < limit or max(p, q) < 10**limit


def _refusal(value) -> ValueError:
    """The error for a value that is not a rational, quoting at most the
    first 40 characters of a text, and a bounded repr of anything else."""
    if isinstance(value, str):
        shown = repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
    else:
        from reprlib import repr as bounded

        shown = bounded(value)
    return ValueError(f"not a rational: {shown}")


def lowest(numerator: int, denominator: int) -> tuple[int, int]:
    """numerator/denominator (denominator positive) in lowest terms."""
    g = gcd(numerator, denominator)
    return numerator // g, denominator // g


def format_ratio(numerator: int, denominator: int) -> str:
    """The text of numerator/denominator (denominator positive) that `str`
    of the `Fraction` gives: "p/q" in lowest terms, or "p" when integral."""
    p, q = lowest(numerator, denominator)
    return str(p) if q == 1 else f"{p}/{q}"
