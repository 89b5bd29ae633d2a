"""The pinned grammar of rational text, as a table: each text with the
reduced (numerator, denominator) pair `parse_ratio` reads from it, or
None where it refuses the text, always with the message "not a rational:
" and the text's repr, or for a text of more than 40 characters the repr
of its first 40 and its length.  Every supported Python must give exactly these,
whatever its own `Fraction` reads: `Fraction` took underscores from 3.11
on and blanks beside "/" from 3.12 on.  The table imports nothing but the
library, so it also runs as a script on interpreters without pytest:

    PYTHONPATH=src python tests/rational_table.py
"""

from __future__ import annotations

import sys

HOSTILE = [
    "0", "-0", "+0", "0/0", "1/0", "-1/00", "0/5", "-0/5", "00012/0006", "-12/8",
    "--1", "-+1", "+-1", "-", "/", "-/1", "1/", "/1", "1/-2", "1//2", "1/2/3",
    " 1/2 ", "\t-3\n", "1 /2", "1/ 2", "- 1", "\xa07", "7\u2003", "\x1c5",
    "٣", "٣/٤", "-٣", "\xb2", "1\xb2", "\xbd", "１２",
    "1e3", "1E3", "-2e-1", "1/2e3", "inf", "nan", "Infinity",
    "1_000", "1_0/2", "3.5", "-.5", "5.", ".", "1.2/3", "0x10", "0b1",
    "1" * 5000, "1/" + "7" * 5000, "-" + "9" * 400 + "/" + "3" * 400,
]

_READ = {
    "0": (0, 1), "-0": (0, 1), "+0": (0, 1), "0/5": (0, 1), "-0/5": (0, 1),
    "00012/0006": (2, 1), "-12/8": (-3, 2), " 1/2 ": (1, 2), "\t-3\n": (-3, 1),
    "1 /2": (1, 2), "1/ 2": (1, 2), "\xa07": (7, 1), "7\u2003": (7, 1), "\x1c5": (5, 1),
    "٣": (3, 1), "٣/٤": (3, 4), "-٣": (-3, 1), "１２": (12, 1),
    "1_000": (1000, 1), "1_0/2": (5, 1), "3.5": (7, 2), "-.5": (-1, 2), "5.": (5, 1),
    "-" + "9" * 400 + "/" + "3" * 400: (-3, 1),
}

# texts that Python 3.10, 3.11 and 3.12's `Fraction` read differently, and
# the edges of the grammar: signs, blanks, underscores, decimals, digits
CROSS_VERSION = {
    "1 / 2": (1, 2), "1/ 2": (1, 2), "1 /2": (1, 2), "1_000": (1000, 1),
    "1_000/3": (1000, 3), "0.1_5": (3, 20), "1__0": None, "3.d": None, "3.": (3, 1),
    ".5": (1, 2), "+1": (1, 1), " 2/4 ": (1, 2), "٣": (3, 1), "١/٢": (1, 2),
    "1/0": None, "\t-1_2 \n/\xa03_4\u3000": (-6, 17), "-1_2.5_0": (-25, 2), "1_": None,
    "_1": None, "1/_2": None, "1_/2": None, "1._5": None, "1.5_": None, "1_.5": None,
    "1 _0": None, "1 2": None, "+ 1": None, "1. 5": None, "1 .5": None, ".": None,
    "-.": None, "+.5": (1, 2), "0.0": (0, 1), "-0.000": (0, 1), "1.2_5/3": None,
    "٣.٥": (7, 2), "1\u2028/\u20282": (1, 2), "1/2 ": (1, 2), "": None, " ": None,
    "1\x00": None, "1/0_0": None, "0_0/1": (0, 1), "1" * 4300: (int("1" * 4300), 1),
    "1" * 4301: None, "1_" * 4299 + "1": (int("1" * 4300), 1), "." + "5" * 4301: None,
    # a decimal whose reduced pair has more digits than `str` writes is
    # refused; one that reduces to fewer loads
    "1" * 3000 + "." + "1" * 3000: None, "1." + "5" + "0" * 4299: (3, 2),
    "." + "1" * 4300: None, "." + "5" * 4300: (int("1" * 4300), 2 * 10**4299),
}

TABLE = [(text, _READ.get(text)) for text in HOSTILE] + list(CROSS_VERSION.items())


def refusal(text) -> str:
    if len(text) > 40:
        return f"not a rational: {text[:40]!r}... ({len(text)} characters)"
    return f"not a rational: {text!r}"


def mismatches(parse_ratio) -> list:
    """(text, pinned, got) for each text that `parse_ratio` reads other
    than the table says, with a refusal given as its message."""
    found = []
    for text, value in TABLE:
        try:
            got = parse_ratio(text)
        except ValueError as exc:
            got = str(exc)
        pinned = refusal(text) if value is None else value
        if got != pinned:
            found.append((text, pinned, got))
    return found


def _shown(value) -> str:
    try:
        return str(value)[:60]
    except ValueError:  # a pair holding an int past the digit limit
        return "a pair with more digits than str writes"


if __name__ == "__main__":
    from intervalcubes.rationals import parse_ratio

    wrong = mismatches(parse_ratio)
    for text, pinned, got in wrong:
        print(f"{text[:40]!r}: pinned {_shown(pinned)}, got {_shown(got)}")
    version, right = sys.version.split()[0], len(TABLE) - len(wrong)
    print(f"Python {version}: {right} of {len(TABLE)} texts as pinned")
    sys.exit(1 if wrong else 0)
