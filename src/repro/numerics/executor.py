"""Numeric interpretation of algorithm schedules.

:class:`NumericContext` executes every ``compute`` of a schedule as real
block arithmetic on :class:`~repro.numerics.blockmatrix.BlockMatrix`
operands.  :func:`verify_schedule` is the proof obligation every
algorithm must meet: running its schedule numerically yields exactly
``A @ B``, for any machine and any (possibly ragged) dimensions.

The context also enforces the *accumulation discipline*: an elementary
compute must name blocks whose coordinates are consistent
(``C[i,j] += A[i,k] · B[k,j]``) and each ``(i, j, k)`` triple must occur
exactly once — double-emitted or skipped updates are schedule bugs that
plain numeric comparison might miss on special matrices, so they raise
:class:`~repro.exceptions.ScheduleError` immediately.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.cache.block import MAT_A, MAT_B, MAT_C, decode_key, key_name
from repro.exceptions import ScheduleError
from repro.numerics.blockmatrix import BlockMatrix
from repro.numerics.kernels import block_fma


class NumericContext(ExecutionContext):
    """Interpret a schedule as actual block arithmetic."""

    def __init__(self, p: int, a: BlockMatrix, b: BlockMatrix) -> None:
        super().__init__(p)
        if a.cols != b.rows or a.q != b.q:
            raise ScheduleError(
                f"incompatible operands {a.shape_blocks} and {b.shape_blocks}"
            )
        self.a = a
        self.b = b
        self.c = BlockMatrix(a.rows, b.cols, a.q)
        self.seen: Set[Tuple[int, int, int]] = set()

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        mat_a, i_a, k_a = decode_key(akey)
        mat_b, k_b, j_b = decode_key(bkey)
        mat_c, i_c, j_c = decode_key(ckey)
        if (mat_a, mat_b, mat_c) != (MAT_A, MAT_B, MAT_C):
            raise ScheduleError(
                "compute expects operands from A, B and C, got "
                f"{key_name(akey)}, {key_name(bkey)}, {key_name(ckey)}"
            )
        if i_a != i_c or k_a != k_b or j_b != j_c:
            raise ScheduleError(
                f"inconsistent coordinates: C[{i_c},{j_c}] += "
                f"A[{i_a},{k_a}] · B[{k_b},{j_b}]"
            )
        triple = (i_c, j_c, k_a)
        if triple in self.seen:
            raise ScheduleError(f"update (i={i_c}, j={j_c}, k={k_a}) emitted twice")
        self.seen.add(triple)
        block_fma(self.c.block(i_c, j_c), self.a.block(i_a, k_a), self.b.block(k_b, j_b))
        self.comp[core] += 1

    def assert_complete(self) -> None:
        """Verify every (i, j, k) update was emitted exactly once."""
        expected = self.a.rows * self.b.cols * self.a.cols
        if len(self.seen) != expected:
            raise ScheduleError(
                f"schedule emitted {len(self.seen)} distinct updates, "
                f"expected {expected}"
            )


def execute_numeric(
    alg: MatmulAlgorithm, a: BlockMatrix, b: BlockMatrix
) -> BlockMatrix:
    """Run a schedule numerically and return the computed ``C``."""
    ctx = NumericContext(alg.machine.p, a, b)
    alg.run(ctx)
    ctx.assert_complete()
    return ctx.c


def verify_schedule(
    alg: MatmulAlgorithm,
    q: int = 4,
    seed: Optional[int] = 0,
    rtol: float = 1e-9,
) -> BlockMatrix:
    """Prove a schedule computes ``A @ B`` on random matrices.

    Draws random ``A`` (``m×z`` blocks) and ``B`` (``z×n``), executes
    the schedule numerically, checks completeness and compares against
    numpy's product.  Returns the computed ``C`` (handy for follow-up
    assertions).  Raises :class:`~repro.exceptions.ScheduleError` on any
    discrepancy.
    """
    a = BlockMatrix.random(alg.m, alg.z, q, seed=seed)
    b = BlockMatrix.random(alg.z, alg.n, q, None if seed is None else seed + 1)
    c = execute_numeric(alg, a, b)
    reference = a @ b
    if not c.allclose(reference, rtol=rtol, atol=rtol):
        raise ScheduleError(
            f"{alg.name} schedule computed a wrong product for "
            f"m={alg.m}, n={alg.n}, z={alg.z}"
        )
    return c
