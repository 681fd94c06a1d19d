"""Input validation helpers shared across the library.

These raise consistent, descriptive errors early so misuse of the public API
fails at the boundary rather than deep inside a kernel.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np


def check_array(
    x,
    *,
    name: str = "array",
    dtype=None,
    ndim: Optional[int] = None,
    allow_empty: bool = True,
) -> np.ndarray:
    """Convert ``x`` to an ndarray and validate its dimensionality.

    Parameters
    ----------
    x:
        Array-like input.
    name:
        Name used in error messages.
    dtype:
        If given, the result is cast to this dtype.
    ndim:
        If given, the array must have exactly this many dimensions.
    allow_empty:
        If ``False``, zero-sized arrays are rejected.
    """
    arr = np.asarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.issubdtype(arr.dtype, np.number) and not np.issubdtype(arr.dtype, np.bool_):
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
    return arr


def check_positive(value, *, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative when ``strict=False``)."""
    v = float(value)
    if strict and v <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and v < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return v


def check_in_range(
    value,
    low: float,
    high: float,
    *,
    name: str = "value",
    inclusive: Tuple[bool, bool] = (True, True),
) -> float:
    """Validate that ``low <= value <= high`` (bounds optionally exclusive)."""
    v = float(value)
    lo_ok = v >= low if inclusive[0] else v > low
    hi_ok = v <= high if inclusive[1] else v < high
    if not (lo_ok and hi_ok):
        lo_b = "[" if inclusive[0] else "("
        hi_b = "]" if inclusive[1] else ")"
        raise ValueError(f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value}")
    return v


def check_triples(
    triples,
    *,
    n_entities: Optional[int] = None,
    n_relations: Optional[int] = None,
    name: str = "triples",
) -> np.ndarray:
    """Validate a ``(M, 3)`` integer array of ``(head, relation, tail)`` triples.

    Index bounds are checked against ``n_entities`` / ``n_relations`` when
    provided.  Returns a contiguous ``int64`` array.
    """
    arr = np.asarray(triples)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must have shape (M, 3), got {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.allclose(arr, np.round(arr)):
            raise TypeError(f"{name} must contain integer indices")
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    if arr.size == 0:
        return arr
    if arr.min() < 0:
        raise ValueError(f"{name} contains negative indices")
    heads, rels, tails = arr[:, 0], arr[:, 1], arr[:, 2]
    if n_entities is not None:
        bad = max(heads.max(initial=-1), tails.max(initial=-1))
        if bad >= n_entities:
            raise ValueError(
                f"{name} references entity index {bad} but only {n_entities} entities exist"
            )
    if n_relations is not None and rels.size and rels.max() >= n_relations:
        raise ValueError(
            f"{name} references relation index {rels.max()} but only "
            f"{n_relations} relations exist"
        )
    return arr


def check_same_shape(a: np.ndarray, b: np.ndarray, *, names: Sequence[str] = ("a", "b")) -> None:
    """Raise if two arrays do not share the same shape."""
    if a.shape != b.shape:
        raise ValueError(
            f"{names[0]} and {names[1]} must have the same shape, "
            f"got {a.shape} and {b.shape}"
        )


def check_choice(value, choices: Iterable, *, name: str = "value"):
    """Validate that ``value`` is one of ``choices``."""
    options = list(choices)
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value


def check_json_types(payload: Mapping[str, object], section: str, *,
                     bools: Iterable[str] = (), ints: Iterable[str] = (),
                     floats: Iterable[str] = (), int_lists: Iterable[str] = (),
                     nullable: Iterable[str] = ()) -> None:
    """Reject a spec section's values whose JSON type is not the field's.

    ``bools`` take only ``true``/``false`` (``"false"`` would be truthy),
    ``ints`` and the entries of ``int_lists`` only integers (``12.7`` would
    truncate, and ``true`` is not a count), ``floats`` any number but a
    boolean; ``nullable`` keys may also be ``null``.  Absent keys keep their
    defaults.  Raises ``ValueError`` naming the section and the key.
    """
    def is_int(value) -> bool:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)

    def is_float(value) -> bool:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)

    def fail(key: str, kind: str) -> None:
        raise ValueError(
            f"{section} section key {key!r} must be {kind}, got {payload[key]!r}")

    for key in bools:
        if key in payload and not isinstance(payload[key], bool):
            fail(key, "a JSON boolean (true or false)")
    for key in ints:
        value = payload.get(key)
        if key in payload and not (is_int(value) or (value is None and key in nullable)):
            fail(key, "an integer")
    for key in floats:
        if key in payload and not is_float(payload[key]):
            fail(key, "a number")
    for key in int_lists:
        value = payload.get(key)
        if key in payload and not (isinstance(value, (list, tuple))
                                   and all(map(is_int, value))):
            fail(key, "a list of integers")
