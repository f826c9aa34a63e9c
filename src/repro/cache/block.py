"""Compact addressing of matrix blocks.

The simulator manipulates ``q × q`` coefficient blocks, identified by
the matrix they belong to (``A``, ``B`` or ``C``) and their block
coordinates.  To keep the hot path fast, a block id is a single Python
``int``::

    key = (matrix << 56) | (row << 28) | col

which is hashable, comparable and avoids tuple allocation in the inner
simulation loops.  Rows and columns must fit in 28 bits — ample for any
realistic block count (the paper stops at order 1100).

Row/column conventions follow the paper: ``A`` is ``m × z`` (block of
``A`` at ``(i, k)``), ``B`` is ``z × n`` (block at ``(k, j)``) and ``C``
is ``m × n`` (block at ``(i, j)``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

#: Matrix tags embedded in block keys.
MAT_A = 0
MAT_B = 1
MAT_C = 2

#: Human-readable names indexed by matrix tag.
MATRIX_NAMES = ("A", "B", "C")

_ROW_SHIFT = 28
_MAT_SHIFT = 56
_COORD_MASK = (1 << 28) - 1
_MAX_COORD = _COORD_MASK


def block_key(matrix: int, row: int, col: int) -> int:
    """Encode ``(matrix, row, col)`` into a single integer key.

    ``matrix`` must be one of :data:`MAT_A`, :data:`MAT_B`,
    :data:`MAT_C`; coordinates must be non-negative and fit in 28 bits.
    """
    if not 0 <= matrix <= 2:
        raise ValueError(f"matrix tag must be 0 (A), 1 (B) or 2 (C), got {matrix}")
    if not (0 <= row <= _MAX_COORD and 0 <= col <= _MAX_COORD):
        raise ValueError(f"block coordinates out of range: ({row}, {col})")
    return (matrix << _MAT_SHIFT) | (row << _ROW_SHIFT) | col


def decode_key(key: int) -> Tuple[int, int, int]:
    """Invert :func:`block_key`, returning ``(matrix, row, col)``."""
    return key >> _MAT_SHIFT, (key >> _ROW_SHIFT) & _COORD_MASK, key & _COORD_MASK


def matrix_of(key: int) -> int:
    """Matrix tag of a block key (0 = A, 1 = B, 2 = C)."""
    return key >> _MAT_SHIFT


def shifted(keys: Iterable[int], shift: Sequence[int]) -> List[int]:
    """``keys`` in order, each moved by ``shift[M]`` for its matrix ``M``.

    Shifts are signed offsets of whole keys, e.g. ``1 << ROW_SHIFT``
    for one row down; the caller keeps coordinates in range.
    """
    return [key + shift[key >> _MAT_SHIFT] for key in keys]


def key_name(key: int) -> str:
    """Debug-friendly rendering, e.g. ``'B[3,7]'``."""
    mat, row, col = decode_key(key)
    return f"{MATRIX_NAMES[mat]}[{row},{col}]"


# Pre-shifted matrix tags so call sites can build keys with pure integer
# arithmetic (``A_BASE | (i << ROW_SHIFT) | k``) without a function call
# in the innermost loops.
A_BASE = MAT_A << _MAT_SHIFT
B_BASE = MAT_B << _MAT_SHIFT
C_BASE = MAT_C << _MAT_SHIFT
ROW_SHIFT = _ROW_SHIFT
MAT_SHIFT = _MAT_SHIFT
