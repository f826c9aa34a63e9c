"""Exact fast-forward of declared loops on the step engine.

:class:`~repro.sim.contexts.LRUContext` and
:class:`~repro.sim.contexts.IdealContext` skip the rest of a declared
loop once the hierarchy state at one iteration boundary is the state one
boundary earlier with every key shifted.  The oracle here is the same
context with the base-class ``loop`` (a test-local subclass), which
iterates plainly: every counter, write-back, per-matrix split,
multiply-add count, IDEAL peak and the final state must agree.  A
synthetic periodic schedule with random per-iteration touches covers
what the six schedules alone do not, and an engagement test makes sure
the declarations in the shipped schedules actually match.  A recording
context checks each declaration itself: every iteration must emit the
one before it, moved by the declared shift.
"""

from typing import Iterable, Iterator, List, Sequence, Tuple, Union
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm, Shift
from repro.algorithms.nested import NestedMaxReuse
from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT, shifted
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


def _contexts(
    mode: str,
    p: int,
    cs: int,
    cd: int,
    inclusive: bool,
    middle: Sequence[Tuple[int, int]] = (),
) -> List[Context]:
    """A fast-forwarding context and its plain oracle over fresh hierarchies
    (``middle`` levels apply to LRU modes only)."""
    if mode == "ideal":
        return [cls(IdealHierarchy(p)) for cls in (IdealContext, PlainIdeal)]
    return [
        cls(LRUHierarchy(p, cs, cd, policy=mode, inclusive=inclusive, middle=middle))
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


#: Per core count, the cache counts of the middle levels of 3- and
#: 4-level trees (their capacities are drawn).
_TREES = {4: ((1,), (2,), (1, 2), (2, 4)), 16: ((4,), (2, 8), (4, 16))}


@st.composite
def _tree_cells(draw):
    """Any registered schedule on a cache tree of 4 or 16 cores."""
    name = draw(st.sampled_from(algorithm_names(include_extras=True)))
    p = draw(st.sampled_from(sorted(_TREES)))
    cd = draw(st.integers(3, 24))
    cs = p * cd + draw(st.integers(0, 120))
    middle = tuple(
        (count, draw(st.integers(1, cs))) for count in draw(st.sampled_from(_TREES[p]))
    )
    policy = draw(st.sampled_from(("lru", "fifo")))
    shape = tuple(draw(st.integers(1, 16)) for _ in range(3))
    return name, p, cs, cd, middle, policy, draw(st.booleans()), shape


@given(_tree_cells())
@settings(max_examples=60, deadline=None)
def test_fast_forward_matches_plain_iteration_on_trees(cell):
    """Middle levels take part in the fast-forward like the other caches:
    every cache's counters, key order and dirty set agree.  States are
    compared at every boundary, so that small cells jump too."""
    name, p, cs, cd, middle, policy, inclusive, (m, n, z) = cell
    try:
        alg = get_algorithm(name)(MulticoreMachine(p=p, cs=cs, cd=cd, q=8), m, n, z)
    except (ConfigurationError, ParameterError):
        assume(False)
    outcomes = []
    with mock.patch.object(contexts, "_WORK_PER_KEY", 0):
        for cls in (LRUContext, PlainLRU):
            tree = LRUHierarchy(
                p, cs, cd, policy=policy, inclusive=inclusive, middle=middle
            )
            ctx = cls(tree)
            alg.run(ctx)
            outcomes.append((tree.counters(), tree.state(), list(ctx.comp)))
    assert outcomes[0] == outcomes[1]
    assert sum(outcomes[0][2]) == m * n * z


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
    """Emit ``ops``; directives reach only a context that has them."""
    d = ctx.directives
    for kind, core, offsets in ops:
        keys = [_key_of(offset, step, shift) for offset in offsets]
        if kind == "compute":
            ctx.compute(core, *keys)
        elif d is None:
            continue
        elif kind.endswith("shared"):
            getattr(d, kind)(keys[0])
        else:
            getattr(d, kind)(core, keys[0])


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
        middle=st.sampled_from(((), (), ((1, 3),), ((2, 2),), ((1, 6), (2, 2)))),
    )
    # Core 0 idles in the loop, but under back-invalidation a shared
    # eviction there can empty its cache: an inclusive hierarchy must
    # not keep an idle core's cache in place across a jump.
    @example(
        prologue=[("compute", 0, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))] * 10
        + [
            ("compute", 0, ((2, 1, 0), (0, 0, 0), (0, 0, 0))),
            ("compute", 1, ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
        ],
        body=[("compute", 1, ((0, 0, 0), (0, 0, 0), (2, 0, 0)))],
        epilogue=[],
        shift=(0, 0, 1 << ROW_SHIFT),
        count=4,
        mode="lru",
        inclusive=True,
        caches=(3, 1),
        tidy=None,
        work=0,
        middle=(),
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
        middle,
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
        LRU hierarchies may have middle levels, where core 0 idling
        leaves a middle cache of its own in place.
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
            for ctx in _contexts(mode, 2, caches[0], caches[1], inclusive, middle):
                _emit(ctx, prologue, 0, (0, 0, 0))
                for step in ctx.loop(range(count), shift):
                    _emit(ctx, body, step, shift)
                    _emit(ctx, evictions, step - (tidy or 0), shift)
                _emit(ctx, epilogue, 0, (0, 0, 0))
                outcomes.append(_outcome(ctx))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# The split: once the core caches repeat, the shared cache replays alone
# ----------------------------------------------------------------------
_MOVES = _SHIFTS[1:]


def _run_loop(ctx: Context, prologue, body, shift: Shift, count: int) -> Context:
    _emit(ctx, prologue, 0, (0, 0, 0))
    for step in ctx.loop(range(count), shift):
        _emit(ctx, body, step, shift)
    return ctx


def _splits_recorded(ctx: Context, run):
    """Run ``run(ctx)``, noting each split as (shift, whether it finished
    the loop, multiply-adds it replayed)."""
    splits = []
    split = LRUContext._split

    def noted(self, iteration, times, shift):
        replayed = self.replayed
        finished = yield from split(self, iteration, times, shift)
        splits.append((shift, finished, self.replayed - replayed))
        return finished

    with mock.patch.object(LRUContext, "_split", noted):
        run(ctx)
    return splits


class TestSplit:
    @given(
        body=st.lists(
            st.tuples(
                st.just("compute"), st.integers(0, 1), st.tuples(_key, _key, _key)
            ),
            min_size=1,
            max_size=4,
        ),
        shift=st.tuples(*(st.sampled_from(_MOVES) for _ in range(3))),
        count=st.integers(24, 48),
        cd=st.integers(1, 3),
        work=st.sampled_from((0, 1)),
    )
    @settings(max_examples=150, deadline=None)
    def test_replay_while_the_shared_cache_fills(self, body, shift, count, cd, work):
        """Every key moves, so each iteration brings the shared cache a
        block it has not held, and it is too large to fill: the whole
        state never repeats.  A core cache holds only blocks of its last
        few iterations, so the core caches do repeat, and the rest of the
        loop replays the shared cache alone.  ``work`` 1 compares more
        rarely than every boundary, so that replays run several
        iterations between comparisons."""
        fast, plain = _contexts("lru", 2, 3 * len(body) * count, cd, False)
        with mock.patch.object(contexts, "_WORK_PER_KEY", work):
            for ctx in (fast, plain):
                _run_loop(ctx, [], body, shift, count)
        assert _outcome(fast) == _outcome(plain)
        assert fast.replayed > 0
        assert fast.jumped == 0

    def test_no_replay_after_a_nested_fast_forward(self):
        """The outer loop's core caches repeat over an iteration in which
        the inner loop ran plainly, so it records the next one; but the
        inner loop replays there, and the shared events it replayed are
        missing from the log.  The outer loop must then run on rather than
        replay what it recorded."""
        outer = (8 << ROW_SHIFT, 8, 8 << ROW_SHIFT)
        inner = (0, 0, 1)

        def run(ctx: Context) -> None:
            for o in ctx.loop(range(5), outer):
                moved = [base + o * d for base, d in zip(_BASES, outer)]
                ctx.compute(
                    0, moved[2] | (3 << ROW_SHIFT) | 1, moved[0] | 2, moved[1] | 1
                )
                for k in ctx.loop(range(6), inner):
                    ctx.compute(
                        1,
                        moved[2] + k + ((3 << ROW_SHIFT) | 1),
                        moved[0] | (3 << ROW_SHIFT) | 2,
                        moved[1] | 1,
                    )

        fast, plain = _contexts("lru", 2, 112, 1, False)
        splits = _splits_recorded(fast, run)
        run(plain)
        assert _outcome(fast) == _outcome(plain)
        # The inner split ends within the outer's recorded iteration.
        assert [split[:2] for split in splits] == [(inner, True), (outer, False)]
        assert fast.replayed == splits[0][2] > 0

    def test_an_idle_core_stays_put(self):
        """Core 0 fills its cache before the loop and idles in it.  Its
        cache must keep its keys, in order, and its dirty blocks across the
        replay and the catch-up of the working core's cache."""
        prologue = [("compute", 0, ((2, r, 0), (0, r, 1), (1, 1, r))) for r in range(3)]
        body = [("compute", 1, ((2, 0, 0), (0, 0, 0), (1, 0, 0)))]
        shift = (1, 1 << ROW_SHIFT, 1)
        fast, plain = _contexts("lru", 2, 400, 3, False)
        _run_loop(fast, prologue, [], shift, 0)
        idle = fast.hierarchy.core_state()[2:4]
        for ctx in (fast, plain):
            _run_loop(ctx, prologue if ctx is plain else [], body, shift, 40)
        assert _outcome(fast) == _outcome(plain)
        assert fast.replayed > 0
        assert fast.hierarchy.core_state()[2:4] == idle

    def test_a_write_back_after_the_shared_copy_left(self):
        """Core 0 reads ``C[i + 1, 5]`` an iteration before it writes it,
        so a block it dirties stays in its cache for three iterations,
        while core 1's new blocks flush the 16-block shared cache faster.
        The write-back of ``C[0, 5]`` (iteration 3) still finds its shared
        copy; from iteration 4 on none does.  The whole state repeats only
        after that, so the replay runs such a write-back, and must drop it
        rather than mark or load a block.  Every boundary compares, so the
        one replayed iteration ends in a jump."""
        shift = (1 << ROW_SHIFT, 0, 1 << ROW_SHIFT)

        def c(row: int, col: int) -> int:
            return C_BASE | (row << ROW_SHIFT) | col

        def run(ctx: Context) -> None:
            for i in ctx.loop(range(12), shift):
                ctx.compute(1, c(i, 1), A_BASE | (i << ROW_SHIFT), c(i + 1, 0))
                ctx.compute(0, c(i, 5), c(i + 1, 5), A_BASE | (i << ROW_SHIFT) | 5)

        lost = []
        replay = LRUHierarchy.replay

        def one_by_one(self, events, shift, times):
            """Replay an event at a time, noting each write-back of a block
            the shared cache no longer holds."""
            for _ in range(times):
                events = [
                    ~shifted([~e], shift)[0] if e < 0 else shifted([e], shift)[0]
                    for e in events
                ]
                for event in events:
                    if event < 0 and ~event not in self.shared:
                        lost.append(~event)
                    replay(self, [event], (0, 0, 0), 1)
            return events

        fast, plain = _contexts("lru", 2, 16, 6, False)
        with mock.patch.object(contexts, "_WORK_PER_KEY", 0):
            with mock.patch.object(LRUHierarchy, "replay", one_by_one):
                run(fast)
            run(plain)
        assert _outcome(fast) == _outcome(plain)
        assert fast.replayed > 0 and fast.jumped > 0
        assert lost

    @pytest.mark.parametrize(
        "policy, inclusive, middle",
        [("fifo", False, ()), ("lru", True, ()), ("lru", False, ((1, 64),))],
    )
    def test_only_plain_two_level_lru_splits(self, policy, inclusive, middle):
        """FIFO, inclusive and cache-tree hierarchies fast-forward only on a
        whole repeat, as before the split."""
        hierarchy = LRUHierarchy(2, 400, 3, policy, inclusive, middle)
        assert not hierarchy.splits
        ctx = LRUContext(hierarchy)
        body = [("compute", 1, ((2, 0, 0), (0, 0, 0), (1, 0, 0)))]
        _run_loop(ctx, [], body, (1, 1 << ROW_SHIFT, 1), 40)
        assert ctx.replayed == 0

# ----------------------------------------------------------------------
# The declarations in the shipped schedules engage
# ----------------------------------------------------------------------
def _simulated(ctx: Context) -> int:
    """The multiply-adds a counting context ran, whichever way (one
    ``compute`` or a whole row): those neither jumped nor replayed."""
    return ctx.comp_total - ctx.jumped - ctx.replayed


def _run_counted(name: str, setting: str, order: int) -> int:
    """The multiply-adds a square q32 cell simulates."""
    machine, s = preset("q32"), get_setting(setting)
    alg = get_algorithm(name)(s.declared(machine), order, order, order)
    simulated = s.simulated(machine)
    ctx: Context
    if s.is_ideal:
        ctx = IdealContext(IdealHierarchy(4))
    else:
        ctx = LRUContext(LRUHierarchy(4, simulated.cs, simulated.cd))
    alg.run(ctx)
    assert ctx.comp_total == order**3
    return _simulated(ctx)


@pytest.mark.parametrize("name", SIX)
@pytest.mark.parametrize("setting", ["lru-50", "ideal"])
def test_declared_loops_skip_most_multiply_adds(name, setting):
    """At order 64 on q32 at most a fifth of the multiply-adds simulate.

    A declaration that never matches (a wrong shift, a body that is no
    translate) leaves every multiply-add simulated; it stays exact, so
    only this count shows it.
    """
    assert _run_counted(name, setting, 64) <= 0.2 * 64**3


@pytest.mark.parametrize(
    "setting, order, share", [("ideal", 128, 0.001), ("lru-50", 256, 0.004)]
)
def test_outer_product_skips_within_a_k_step(setting, order, share):
    """Outer Product's per-tile ``i`` loop is declared too.  Without it a
    ``k`` step of the outer loop repeats only as a whole, after a full
    sweep of ``C`` has simulated (0.78% of the multiply-adds of both
    cells; 0.01% and 0.25% with it)."""
    assert _run_counted("outer-product", setting, order) <= share * order**3


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
    ctx = LRUContext(LRUHierarchy(4, simulated.cs, simulated.cd, policy=policy))
    alg.run(ctx)
    assert ctx.comp_total == m * n * z
    assert _simulated(ctx) <= 0.2 * m * n * z


def test_a_cache_tree_skips_too():
    """Distributed Opt. on the nested extension's three-level tree: its
    declared loops repeat there as well, so most references never reach
    :meth:`LRUHierarchy.touch`."""
    machine = MulticoreMachine(p=16, cs=400, cd=21, q=8)
    tree = NestedMaxReuse(machine, 32, 32, 32).default_tree()
    touches = 0
    touch = tree.touch

    def counted(core: int, key: int, write: bool = False) -> bool:
        nonlocal touches
        touches += 1
        return touch(core, key, write)

    tree.touch = counted
    ctx = LRUContext(tree)
    get_algorithm("distributed-opt")(machine, 32, 32, 32).run(ctx)
    assert ctx.comp_total == 32**3
    assert touches < 0.6 * 3 * 32**3


def test_nested_skips_on_its_tree():
    """Nested Max Reuse declares its lockstep ``k`` loop, which repeats
    on the tree the schedule is sized for.  Comparisons are amortized
    over the whole tree's state, so the share simulated falls with the
    order: 52% at order 32, 35% at 48, 26% at 64."""
    machine = MulticoreMachine(p=16, cs=400, cd=21, q=8)
    alg = NestedMaxReuse(machine, 48, 48, 48)
    ctx = LRUContext(alg.default_tree())
    alg.run(ctx)
    assert ctx.comp_total == 48**3
    assert _simulated(ctx) < 0.5 * 48**3


@pytest.mark.parametrize("setting", ["lru-50", "ideal"])
def test_cannon_skips_within_a_band(setting):
    """Cannon declares the ``k`` loop over each core's band of a step."""
    assert _run_counted("cannon", setting, 64) < 0.5 * 64**3


def test_a_middle_cache_moves_unless_all_its_cores_idle():
    """Core 0 idles in the loop and shares its middle cache with core 1,
    which works.  Core 1's first iteration hits ``A(1)`` there, already
    that cache's most recent key, so the cache looks unchanged across
    it; the next iteration misses on ``A(2)``.  A cache stays in place
    only when all of its cores idle; keeping it when any of them idles
    would jump to the wrong counters and state."""
    outcomes = []
    for ctx in _contexts("lru", 4, 64, 3, False, ((2, 16),)):
        ctx.compute(1, C_BASE, A_BASE, B_BASE)
        ctx.compute(0, C_BASE | 1, A_BASE, B_BASE | 1)
        ctx.compute(0, C_BASE | 1, A_BASE | 1, B_BASE | 1)
        for step in ctx.loop(range(6), (1, 0, 0)):
            ctx.compute(1, C_BASE, A_BASE | (1 + step), B_BASE)
        outcomes.append(_outcome(ctx))
    assert outcomes[0] == outcomes[1]


def test_set_associative_iterate_plainly():
    iterations = range(10)
    shift = (1, 1 << ROW_SHIFT, 0)
    assoc = LRUContext(LRUHierarchy(1, 8, 4, policy="assoc2"))
    plru = LRUContext(LRUHierarchy(1, 8, 4, policy="plru"))
    for ctx in (assoc, plru):
        assert ctx.loop(iterations, shift) is iterations
    for ctx in (
        IdealContext(IdealHierarchy(1)),
        LRUContext(LRUHierarchy(1, 8, 4, policy="fifo", inclusive=True)),
    ):
        assert ctx.loop(iterations, shift) is not iterations


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
    ctx = LRUContext(LRUHierarchy(1, 6, 3))
    _OverDeclared(machine, 2, 2, 21).run(ctx)
    assert ctx.comp_total > 2 * 2 * 21


# ----------------------------------------------------------------------
# Every declaration is a translate
# ----------------------------------------------------------------------
class DeclarationCheck(ExecutionContext):
    """Checks the promise of every declared loop instead of simulating.

    It records each multiply-add, and each directive when it has
    ``directives``.  Each iteration of a declared loop, nested loops
    included, must emit exactly what the one before it emitted, in
    order, with every key moved by the loop's shift
    (:meth:`ExecutionContext.loop`); a breach fails an assert.
    """

    def __init__(self, p: int, directives: bool) -> None:
        super().__init__(p)
        self._records_directives = directives
        self.ops: List[Tuple[object, ...]] = []
        self.compared = 0

    @property
    def directives(self):
        return self if self._records_directives else None

    def load_shared(self, key: int) -> None:
        self.ops.append(("load_shared", None, key))

    def evict_shared(self, key: int) -> None:
        self.ops.append(("evict_shared", None, key))

    def load_dist(self, core: int, key: int) -> None:
        self.ops.append(("load_dist", core, key))

    def evict_dist(self, core: int, key: int) -> None:
        self.ops.append(("evict_dist", core, key))

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self.ops.append(("compute", core, ckey, akey, bkey))
        self.comp[core] += 1

    def loop(self, iterations: range, shift: Shift) -> Iterable[int]:
        return self._checked(iterations, shift)

    def _checked(self, iterations: range, shift: Shift) -> Iterator[int]:
        ops = self.ops
        previous = None
        for i in iterations:
            start = len(ops)
            yield i
            emitted = ops[start:]
            if previous is not None:
                moved = [op[:2] + tuple(shifted(op[2:], shift)) for op in previous]
                assert emitted == moved, (
                    f"iteration {i} of a loop declared with shift {shift} "
                    "is no translate of the iteration before it"
                )
                self.compared += 1
            previous = emitted


@st.composite
def _declaring_cells(draw):
    """Any registered schedule on a small machine, with or without directives."""
    name = draw(st.sampled_from(algorithm_names(include_extras=True)))
    p = draw(st.sampled_from((1, 4, 9)))
    cd = draw(st.integers(3, 24))
    cs = p * cd + draw(st.integers(0, 120))
    shape = tuple(draw(st.integers(1, 30)) for _ in range(3))
    return name, p, cs, cd, shape, draw(st.booleans())


@given(_declaring_cells())
@settings(max_examples=150, deadline=None)
def test_every_declared_loop_is_a_translate(cell):
    """The fast-forward properties cannot see a wrong declaration: a shift
    that never matches is still exact.  This checks each one directly."""
    name, p, cs, cd, (m, n, z), directives = cell
    try:
        alg = get_algorithm(name)(MulticoreMachine(p=p, cs=cs, cd=cd, q=8), m, n, z)
    except (ConfigurationError, ParameterError):
        assume(False)
    check = DeclarationCheck(p, directives)
    alg.run(check)
    assert check.comp_total == m * n * z
    # The directives must be checked too, not only the multiply-adds.
    emitted = any(op[0] != "compute" for op in check.ops)
    assert emitted == (directives and alg.supports_ideal)


class _FirstLoopOneRowOff(DeclarationCheck):
    """Reads the first loop a schedule declares one row further than it is."""

    first = True

    def loop(self, iterations: range, shift: Shift) -> Iterable[int]:
        if self.first:
            self.first = False
            a, b, c = shift
            shift = (a + (1 << ROW_SHIFT), b, c + (1 << ROW_SHIFT))
        return super().loop(iterations, shift)


@pytest.mark.parametrize("directives", [False, True])
def test_a_super_round_declared_one_row_off_is_reported(directives):
    """Distributed Equal's super-rounds (here one tile row of ``t = 1``
    each, three of them) with a shift one row off.  Fast-forward stays
    exact under it, so only the engagement test would notice, as a lost
    speed-up; the check reports it."""
    machine = MulticoreMachine(p=4, cs=100, cd=3, q=8)
    alg = get_algorithm("distributed-equal")(machine, 3, 4, 5)
    assert alg.t == 1
    check = DeclarationCheck(4, directives)
    alg.run(check)
    assert check.compared > 0
    with pytest.raises(AssertionError, match="no translate"):
        alg.run(_FirstLoopOneRowOff(4, directives))
