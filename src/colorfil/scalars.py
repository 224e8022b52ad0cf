"""Exact scalar helpers shared across the package.

All coefficients in the library are exact: Python ints where possible,
fractions.Fraction otherwise.  Floats are rejected at the boundary so
rounding error can never leak into a rank or dimension.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction

Coeff = int | Fraction


def as_coeff(value) -> Coeff:
    """Coerce a user-supplied value to an exact scalar.

    Accepts ints, Fractions and strings ("7", "-3/4", "0.5"); integral
    Fractions are collapsed back to int.  Exponent notation is refused:
    `Fraction` would expand the 11 bytes "1e10000000" into a
    33-million-bit integer.  So is "_", which 3.11's `Fraction` reads.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation in scalar {reprlib.repr(value)}")
        if "_" in value:
            raise ValueError(f"digit separator in scalar {reprlib.repr(value)}")
        try:
            return as_coeff(Fraction(value))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {reprlib.repr(value)}") from None
        except ValueError:  # the parser's own message quotes the whole string
            raise ValueError(f"Invalid literal for Fraction: {reprlib.repr(value)}") from None
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}: {reprlib.repr(value)}")


def as_int(value, name: str) -> int:
    """An integer field of outside input; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


def coeff_to_json(value: Coeff):
    """Encode a scalar for JSON: int when integral, else a "p/q" string."""
    value = as_coeff(value)
    return value if isinstance(value, int) else f"{value.numerator}/{value.denominator}"


def add_into(acc: dict, key, value: Coeff) -> None:
    """acc[key] += value, dropping the key when the sum cancels to zero."""
    new = acc.get(key, 0) + value
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)
