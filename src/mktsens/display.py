"""Display rounding helpers.

All user-facing tables and diagrams round through these functions so that the
same value always prints the same way.  Binary floats are routed through
``Decimal(str(v))`` before quantizing, which keeps e.g. 2.675 rounding on its
printed digits rather than on its binary representation.  Each quantize
runs in a context wide enough for every digit of its result, so any number
of decimals works, and the formatters print that decimal itself rather than
the nearest binary float, whose expansion shows past about 17 digits.
"""

from __future__ import annotations

import math
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal, localcontext
from typing import Callable, TypeVar

T = TypeVar("T")


# Largest integer not exceeding a float, exact at any size; NaN and
# infinities raise.  The builtin itself, so ``map`` over many stays in C.
floor_int = math.floor


def _quantize(value: float, decimals: int, rounding: str) -> Decimal:
    """``value``'s decimal rendering at ``decimals`` places."""
    digits = Decimal(str(value))
    with localcontext() as context:
        # Its integer digits (at least one), one more for a carry, and the
        # decimals.
        context.prec = max(digits.adjusted(), 0) + decimals + 2
        return digits.quantize(Decimal(1).scaleb(-decimals), rounding=rounding)


def round_half_up(value: float, decimals: int = 0) -> float:
    """Round with ties going away from zero on the decimal rendering."""
    return float(_quantize(value, decimals, ROUND_HALF_UP))


def round_half_up_int(value: float) -> int:
    """Round to the nearest integer, ties away from zero."""
    return int(_quantize(value, 0, ROUND_HALF_UP))


def fmt_fixed(value: float, decimals: int) -> str:
    """Format a half-up rounded value with exactly ``decimals`` places."""
    return f"{_quantize(value, decimals, ROUND_HALF_UP):.{decimals}f}"


def fmt_truncated(value: float, decimals: int) -> str:
    """Format a truncated value with exactly ``decimals`` places."""
    return f"{_quantize(value, decimals, ROUND_DOWN):.{decimals}f}"


def once_per_value(function: Callable[[float], T]) -> Callable[[float], T]:
    """``function``, run once for each distinct value and remembered by the
    value's ``repr``, which keeps -0.0 and 0.0, and NaN, apart."""
    memo: dict[str, T] = {}

    def remembered(value: float) -> T:
        text = repr(value)
        if text not in memo:
            memo[text] = function(value)
        return memo[text]

    return remembered
