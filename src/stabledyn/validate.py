"""Refusing settings, counts and states by name.

A setting or count of the wrong type or range fails where it is given, with
a ValueError naming it (the CLI's usage error), rather than later inside
numpy. So does a state array: check_states is the one rule every entry that
takes states applies, converting them to float64 and refusing, by the
argument's name, a wrong shape and, where the entry needs finite states, a
NaN or an infinity by its rows. This module imports nothing from the
package, so any module can use it.
"""

from __future__ import annotations

import numbers

import numpy as np

_F64 = np.dtype(np.float64)


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


def check_states(name: str, x, dim: int, single: bool = True, finite: bool = False):
    """The one rule for a state array the library takes: x as float64, its
    (batch, dim) view, and whether x was a single state.

    Refuses by name a shape that is not (batch, dim), or with single (dim,)
    either, naming the shapes it takes; with finite, also a state holding a
    NaN or an infinity, naming its rows. An x that is already a float64
    array is not copied or converted.
    """
    if type(x) is not np.ndarray or x.dtype is not _F64:
        x = np.asarray(x, dtype=np.float64)
    if x.ndim not in ((1, 2) if single else (2,)) or x.shape[-1] != dim:
        takes = f"a state of dimension {dim} or a " if single else "a "
        raise ValueError(f"{name} must be {takes}(batch, {dim}) array, got shape {x.shape}")
    X = x[None, :] if x.ndim == 1 else x
    if finite and not np.isfinite(X).all():
        rows = np.flatnonzero(~np.isfinite(X).all(axis=1)).tolist()
        raise ValueError(f"{name} must hold finite states; rows {rows} are not")
    return X, x.ndim == 1
