"""Refusing settings and counts by name.

A setting or count of the wrong type or range fails where it is given, with
a ValueError naming it (the CLI's usage error), rather than later inside
numpy. This module imports nothing from the package, so any module can use
it.
"""

from __future__ import annotations

import numbers

import numpy as np


def check_count(name: str, value, least: int = 1) -> int:
    """Refuse by name a count that is not an integer (bools are not) or is below
    least; return it as a Python int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def check_widths(name: str, widths, each: str) -> tuple:
    """Refuse by name a list of layer widths that is not one, or a width in it
    (called `each` in the message) that is not a count; return the widths as
    a tuple of ints."""
    if not isinstance(widths, (list, tuple, np.ndarray)) or np.ndim(widths) != 1:
        raise ValueError(f"{name} must be a list of layer widths, got {widths!r}")
    return tuple(check_count(each, w) for w in widths)


def check_between(name: str, value, lo: float, hi: float) -> float:
    """Refuse by name a setting that is not a real number in (lo, hi); return it
    as a Python float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not lo < value < hi:
        raise ValueError(f"{name} must be a number in ({lo:g}, {hi:g}), got {value!r}")
    return float(value)


def check_states(name: str, shape: tuple, dim: int, single: bool = True) -> None:
    """Refuse by name a shape that is not (batch, dim), or with single (dim,)
    either, naming the shapes it takes."""
    if len(shape) not in ((1, 2) if single else (2,)) or shape[-1] != dim:
        takes = f"a state of dimension {dim} or a " if single else "a "
        raise ValueError(f"{name} must be {takes}(batch, {dim}) array, got shape {shape}")
