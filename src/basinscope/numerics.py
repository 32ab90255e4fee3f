"""Low-level numerics: the argument rules.

Storage convention for the toolkit: tensors are row-major float32, all
reductions (dots, norms, losses) accumulate in float64.

Public entry points check arguments by these rules, raising DomainError:

- a count is an int, at least its bound when given (``_as_int``);
- a real is a finite float (``_as_real``), with any of three bounds: at
  least ``least`` (x >= least), greater than ``above`` (x > above) and less
  than ``below`` (x < below). The library uses x > 0 for rates, ε, δ, σ and
  radii, x >= 0 for weight decay, a standard deviation and a radius that may
  be zero, and 0 <= x < 1 for momentum;
- a grid is a non-empty, strictly increasing 1-D vector of them, each entry
  greater than ``above`` when given (``_as_grid``), and a vector a 1-D
  finite one (``_as_vector``); either raises SizeError if it is not 1-D;
- a flag is a bool (``_as_flag``);
- a choice is a str equal to one of its choices (``_as_choice``): a domain,
  a split, an init kind, a noise mode, a metric, a curve's dataset or key,
  a mistake grouping.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import DomainError, SizeError


def _as_int(value, what: str, least: int | None = None) -> int:
    """``value`` as a Python int, at least ``least`` when given; numpy
    integers are accepted, bools and non-integers are not."""
    if isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{what} must be at least {least}")
    return value


def _as_real(value, what: str, *, least=None, above=None, below=None) -> float:
    """``value`` as a finite Python float; ints and numpy reals are accepted,
    bools, strings, other non-numbers, NaN and +-inf are not.

    Each bound that is given must hold: x >= ``least``, x > ``above``,
    x < ``below``. Momentum's [0, 1) is ``least=0, below=1``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise DomainError(f"{what} must be a finite real number, got {value!r}")
    value = float(value)
    if least is not None and value < least:
        raise DomainError(f"{what} must be at least {least}, got {value!r}")
    if above is not None and value <= above:
        raise DomainError(f"{what} must be greater than {above}, got {value!r}")
    if below is not None and value >= below:
        raise DomainError(f"{what} must be less than {below}, got {value!r}")
    return value


def _as_flag(value, what: str) -> bool:
    """``value`` as a Python bool; numpy bools are accepted, anything else
    (ints and strings such as ``"False"`` included) is not."""
    if not isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{what} must be a bool, got {value!r}")
    return bool(value)


def _as_vector(values, what: str) -> np.ndarray:
    """``values`` as a 1-D (else SizeError), finite float64 array."""
    vector = np.asarray(values, dtype=np.float64)
    if vector.ndim != 1:
        raise SizeError(f"{what} must be 1-D, got shape {vector.shape}")
    if not np.all(np.isfinite(vector)):
        raise DomainError(f"{what} must be finite")
    return vector


def _as_grid(values, what: str, *, above=None) -> np.ndarray:
    """``values`` as a non-empty, strictly increasing ``_as_vector``, every
    entry greater than ``above`` when given."""
    grid = _as_vector(values, what)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise DomainError(f"{what} must be non-empty and strictly increasing")
    # the grid increases, so its first entry is its least
    _as_real(grid[0], f"every {what} entry", above=above)
    return grid


def _as_choice(value, what: str, choices) -> str:
    """``value`` as a Python str equal to one of ``choices`` (any container
    of str); numpy strings are accepted, other types (unhashable ones
    included) are not."""
    if not (isinstance(value, str) and value in choices):
        raise DomainError(f"{what} must be one of {', '.join(choices)}; got {value!r}")
    return str(value)

