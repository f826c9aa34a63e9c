"""Exact fast-forward of declared loops on the step engine.

:class:`~repro.sim.contexts.LRUContext` and an unchecked
:class:`~repro.sim.contexts.IdealContext` skip the rest of a declared
loop once the hierarchy state at one iteration boundary is the state one
boundary earlier with every key shifted.  The oracle here is the same
context with the base-class ``loop`` (a test-local subclass), which
iterates plainly: every counter, write-back, per-matrix split,
multiply-add count, IDEAL peak and the final state must agree.  A
synthetic periodic schedule with random per-iteration touches covers
what the six schedules alone do not, and an engagement test makes sure
the declarations in the shipped schedules actually match.
"""

from typing import List, Tuple, Union
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm, Shift
from repro.algorithms.registry import get_algorithm
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.exceptions import ConfigurationError, ParameterError, ScheduleError
from repro.model.machine import MulticoreMachine, preset
from repro.sim import contexts
from repro.sim.contexts import IdealContext, LRUContext
from repro.sim.runner import run_experiment
from repro.sim.settings import get_setting

SIX = (
    "shared-opt",
    "distributed-opt",
    "tradeoff",
    "outer-product",
    "shared-equal",
    "distributed-equal",
)


class PlainLRU(LRUContext):
    loop = ExecutionContext.loop


class PlainIdeal(IdealContext):
    loop = ExecutionContext.loop


Context = Union[LRUContext, IdealContext]


def _contexts(mode: str, p: int, cs: int, cd: int, inclusive: bool) -> List[Context]:
    """A fast-forwarding context and its plain oracle over fresh hierarchies."""
    if mode == "ideal":
        return [
            cls(IdealHierarchy(p, cs, cd, check=False))
            for cls in (IdealContext, PlainIdeal)
        ]
    return [
        cls(LRUHierarchy(p, cs, cd, policy=mode, inclusive=inclusive))
        for cls in (LRUContext, PlainLRU)
    ]


def _fast_and_plain(
    alg: MatmulAlgorithm, mode: str, p: int, cs: int, cd: int, inclusive: bool
) -> List[Tuple[object, ...]]:
    """The outcomes of ``alg`` on a fast-forwarding context and its oracle."""
    outcomes = []
    for ctx in _contexts(mode, p, cs, cd, inclusive):
        alg.run(ctx)
        outcomes.append(_outcome(ctx))
    return outcomes


def _outcome(ctx: Context) -> Tuple[object, ...]:
    """Everything a run leaves behind: counters, multiply-adds, state."""
    hierarchy = ctx.hierarchy
    out: Tuple[object, ...] = (hierarchy.snapshot(), list(ctx.comp), hierarchy.state())
    if isinstance(hierarchy, IdealHierarchy):
        out += (
            hierarchy.peak_shared,
            list(hierarchy.peak_dist),
            hierarchy.redundant_loads,
        )
    return out


@st.composite
def _cells(draw):
    """A schedule on a small machine, a hierarchy mode and a shape."""
    name = draw(st.sampled_from(SIX))
    p = draw(st.sampled_from((1, 4, 4, 9)))
    cd = draw(st.integers(3, 24))
    cs = p * cd + draw(st.integers(0, 120))
    # The simulated caches may exceed what the schedule plans for, as
    # under LRU-50, where the slack is where LRU state outlives a tile.
    slack = draw(st.sampled_from((1, 1, 2)))
    mode = draw(st.sampled_from(("ideal", "lru", "fifo")))
    inclusive = draw(st.booleans())
    shape = tuple(draw(st.integers(1, 26)) for _ in range(3))
    return name, p, cs, cd, slack, mode, inclusive, shape


class TestSchedules:
    @given(_cells())
    @settings(max_examples=150, deadline=None)
    def test_fast_forward_matches_plain_iteration(self, cell):
        name, p, cs, cd, slack, mode, inclusive, (m, n, z) = cell
        machine = MulticoreMachine(p=p, cs=cs, cd=cd, q=8)
        try:
            alg = get_algorithm(name)(machine, m, n, z)
        except (ConfigurationError, ParameterError):
            assume(False)
        fast, plain = _fast_and_plain(alg, mode, p, slack * cs, slack * cd, inclusive)
        assert fast == plain
        assert sum(fast[1]) == m * n * z

    @pytest.mark.parametrize("name", SIX)
    @pytest.mark.parametrize("setting", ["lru-50", "lru", "ideal"])
    def test_ragged_paper_machine_cells(self, name, setting):
        """A ragged shape on a paper preset, past several full tiles."""
        machine, s = preset("q64"), get_setting(setting)
        m, n, z = 41, 37, 45
        alg = get_algorithm(name)(s.declared(machine), m, n, z)
        simulated = s.simulated(machine)
        mode = "ideal" if s.is_ideal else "lru"
        fast, plain = _fast_and_plain(alg, mode, 4, simulated.cs, simulated.cd, False)
        assert fast == plain


# ----------------------------------------------------------------------
# A synthetic periodic schedule with random per-iteration touches
# ----------------------------------------------------------------------
_BASES = (A_BASE, B_BASE, C_BASE)
_SHIFTS = (0, 1, 2, 1 << ROW_SHIFT, (1 << ROW_SHIFT) + 1)

#: One operation: (kind, core, three keys).  A key is (matrix, row,
#: col), moved by ``step × shift`` inside the loop; a compute takes the
#: keys as (C, A, B), a directive acts on the first.  Few distinct keys
#: make repeated loads and hits likely.
_key = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
_op = st.tuples(
    st.sampled_from(
        ("compute", "compute", "load_shared", "load_dist", "evict_dist", "evict_shared")
    ),
    st.integers(0, 1),
    st.tuples(_key, _key, _key),
)


def _key_of(offset: Tuple[int, int, int], step: int, shift: Shift) -> int:
    mat, row, col = offset
    # Offset by one so that step -1 still names a block of the matrix.
    return _BASES[mat] + ((row + 1) << ROW_SHIFT) + col + 1 + step * shift[mat]


def _emit(ctx: Context, ops, step: int, shift: Shift) -> None:
    for kind, core, offsets in ops:
        keys = [_key_of(offset, step, shift) for offset in offsets]
        if kind == "compute":
            ctx.compute(core, *keys)
        elif kind.endswith("shared"):
            getattr(ctx, kind)(keys[0])
        else:
            getattr(ctx, kind)(core, keys[0])


class TestSyntheticLoop:
    @given(
        prologue=st.lists(_op, max_size=30) | st.just([]),
        body=st.lists(_op, min_size=1, max_size=12),
        epilogue=st.lists(_op, max_size=30),
        shift=st.tuples(*(st.sampled_from(_SHIFTS) for _ in range(3))),
        count=st.integers(2, 40),
        mode=st.sampled_from(("ideal", "lru", "fifo")),
        inclusive=st.booleans(),
        caches=st.tuples(st.integers(1, 12), st.integers(1, 4)),
        tidy=st.sampled_from((None, 0, 1)),
        work=st.sampled_from((0, contexts._WORK_PER_KEY)),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_periodic_loop(
        self,
        prologue,
        body,
        epilogue,
        shift,
        count,
        mode,
        inclusive,
        caches,
        tidy,
        work,
    ):
        """Residue before the loop, random touches in it, touches after it.

        The prologue writes keys the loop later reaches, so states can
        agree in key order but not in their dirty sets; the epilogue
        touches the state the loop ends in, so a wrong relabel shows in
        its counters.  Unless ``tidy`` is None, each iteration evicts
        what the body loads and writes in iteration ``step - tidy``, as
        the shipped IDEAL schedules do, so IDEAL states repeat too, and
        with ``tidy`` 1 they hold shifting keys at every boundary.
        ``work`` 0 compares at every boundary rather than as amortized.
        """
        # A directive's key and a compute's written key are both its first.
        evictions = [
            (level, core, keys)
            for level, kinds in (
                ("evict_dist", ("load_dist", "compute")),
                ("evict_shared", ("load_shared", "compute")),
            )
            for kind, core, keys in body
            if kind in kinds and tidy is not None
        ]
        outcomes = []
        with mock.patch.object(contexts, "_WORK_PER_KEY", work):
            for ctx in _contexts(mode, 2, caches[0], caches[1], inclusive):
                _emit(ctx, prologue, 0, (0, 0, 0))
                for step in ctx.loop(range(count), shift):
                    _emit(ctx, body, step, shift)
                    _emit(ctx, evictions, step - (tidy or 0), shift)
                _emit(ctx, epilogue, 0, (0, 0, 0))
                outcomes.append(_outcome(ctx))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# The declarations in the shipped schedules engage
# ----------------------------------------------------------------------
def _counting(base):
    class Counting(base):
        simulated = 0

        def compute(self, core, ckey, akey, bkey):
            self.simulated += 1
            base.compute(self, core, ckey, akey, bkey)

    return Counting


@pytest.mark.parametrize("name", SIX)
@pytest.mark.parametrize("setting", ["lru-50", "ideal"])
def test_declared_loops_skip_most_multiply_adds(name, setting):
    """At order 64 on q32 at most a fifth of the multiply-adds simulate.

    A declaration that never matches (a wrong shift, a body that is no
    translate) leaves every multiply-add simulated; it stays exact, so
    only this count shows it.
    """
    machine, s = preset("q32"), get_setting(setting)
    order = 64
    alg = get_algorithm(name)(s.declared(machine), order, order, order)
    simulated = s.simulated(machine)
    if s.is_ideal:
        ctx = _counting(IdealContext)(
            IdealHierarchy(4, simulated.cs, simulated.cd, check=False)
        )
    else:
        ctx = _counting(LRUContext)(LRUHierarchy(4, simulated.cs, simulated.cd))
    alg.run(ctx)
    assert ctx.comp_total == order**3
    assert ctx.simulated <= 0.2 * order**3


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_a_ragged_tile_row_that_idles_cores_skips_too(policy):
    """Tradeoff plans α = 8 on q64, so a 12-row product has one full tile
    row and one 4 rows high, whose rows only half the cores own.  The
    idle cores' caches keep what the full row left them; they must stay
    put rather than refute every repeat of the ragged row's loops."""
    machine, s = preset("q64"), get_setting("lru-50")
    m, n, z = 12, 96, 96
    alg = get_algorithm("tradeoff")(s.declared(machine), m, n, z)
    assert alg.alpha == 8
    simulated = s.simulated(machine)
    ctx = _counting(LRUContext)(
        LRUHierarchy(4, simulated.cs, simulated.cd, policy=policy)
    )
    alg.run(ctx)
    assert ctx.comp_total == m * n * z
    assert ctx.simulated <= 0.2 * m * n * z


def test_checked_ideal_and_set_associative_iterate_plainly():
    iterations = range(10)
    shift = (1, 1 << ROW_SHIFT, 0)
    checked = IdealContext(IdealHierarchy(1, 8, 4, check=True))
    assoc = LRUContext(LRUHierarchy(1, 8, 4, policy="assoc2"))
    plru = LRUContext(LRUHierarchy(1, 8, 4, policy="plru"))
    for ctx in (checked, assoc, plru):
        assert ctx.loop(iterations, shift) is iterations
    assert LRUContext(LRUHierarchy(1, 8, 4, policy="fifo", inclusive=True)).loop(
        iterations, shift
    ) is not iterations


class _OverDeclared(MatmulAlgorithm):
    """Declares its ragged last ``k0`` slab as if it were full."""

    name = "over-declared"
    supports_ideal = False

    def run(self, ctx: ExecutionContext) -> None:
        for k0 in ctx.loop(range(0, self.z, 2), (2, 2 << ROW_SHIFT, 0)):
            for k in range(k0, min(k0 + 2, self.z)):
                for i in range(self.m):
                    for j in range(self.n):
                        ctx.compute(
                            0,
                            C_BASE | (i << ROW_SHIFT) | j,
                            A_BASE | (i << ROW_SHIFT) | k,
                            B_BASE | (k << ROW_SHIFT) | j,
                        )


def test_verify_comp_catches_a_declared_ragged_tail():
    """Skipping counts the ragged slab as full: the multiply-add check fires."""
    machine = MulticoreMachine(p=1, cs=6, cd=3, q=8)
    with pytest.raises(ScheduleError, match="multiply-adds"):
        run_experiment(_OverDeclared, machine, 2, 2, 21, "lru", engine="step")
    result = run_experiment(
        _OverDeclared, machine, 2, 2, 21, "lru", engine="step", verify_comp=False
    )
    assert result.comp_total > 2 * 2 * 21
