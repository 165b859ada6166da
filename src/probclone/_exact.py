"""Small exact-arithmetic helpers shared across the package.

Rational parsing, exact square roots and surd text; the exact route of
the feasibility matrix computes in integers (``feasibility``), so no
symbolic-algebra dependency is needed.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import isqrt, lcm

_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")
_PLAIN = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "-1", "0.25" (and similar) into an exact Fraction.

    Plain ``[-+]?digits[/digits]`` text in ASCII digits, once outer
    whitespace is stripped, takes a fast path: two ``int`` calls and one
    ``Fraction(n, d)``. Everything else (decimals, exponents, underscores,
    other digits, inner spaces) goes to ``Fraction(text)``. Both paths
    reject a zero denominator, or a digit string past the int-string digit
    limit, with the same error. A decimal exponent past that limit (4,300
    by default) is rejected before 10**exponent is built: work on it has
    no bound.
    """
    plain = _PLAIN.fullmatch(text.strip())
    if not plain:
        exponent = _EXPONENT.search(text)
        digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ValueError(f"exponent of {text!r} exceeds {limit} in magnitude")
    try:
        if plain:
            return Fraction(int(plain[1]), int(plain[2] or 1))
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def exact_sqrt(x: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational, or None when irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


#: the largest trial divisor ``surd_text`` tries on its radicand
SURD_TRIAL_BOUND = 1000


def surd_text(p: Fraction, disc: Fraction, r: Fraction) -> str:
    """(p - sqrt(disc)) / r for rationals, as exact text.

    A fraction when disc is a perfect square, else "(A-B*sqrt(d))/C" with
    integers A, B, C and d: disc = n/m in lowest terms gives
    sqrt(disc) = k*sqrt(d)/m, where n*m = k^2 * d. Trial division up to
    ``SURD_TRIAL_BOUND`` moves square factors of n*m into k, and then the
    cofactor, whose prime factors all exceed the bound, if it is a square.
    The text is exact for every input; d is squarefree when that cofactor
    has at most two prime factors, as it has whenever n*m < bound**3.
    """
    k, d, rest = 1, 1, disc.numerator * disc.denominator
    for f in range(2, min(SURD_TRIAL_BOUND, isqrt(rest)) + 1):
        while rest % (f * f) == 0:
            rest, k = rest // (f * f), k * f
        if rest % f == 0:
            rest, d = rest // f, d * f
    if isqrt(rest) ** 2 == rest:
        k, rest = k * isqrt(rest), 1
    a, b = p / r, Fraction(k, disc.denominator) / r     # sqrt(disc) = k*sqrt(d*rest)/m
    if d * rest == 1:
        return str(a - b)
    den = lcm(a.denominator, b.denominator)
    return f"({a * den}-{b * den}*sqrt({d * rest}))/{den}"
