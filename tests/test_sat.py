import hashlib
import importlib
import itertools
import os
import random
import shlex
import shutil
import subprocess
import sysconfig
import time

import pytest

from qexpand import _cdcl_py, cli, expand, oracle, proof, sat
from qexpand.formula import EXISTS, FORALL, Qbf
from qexpand.sat import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    TraceUnavailable,
)

KERNELS = ["pure"] + (["compiled"] if sat.COMPILED else [])


@pytest.fixture(params=KERNELS)
def kernel(request):
    return request.param


def brute_sat(clauses, nv):
    for bits in itertools.product([False, True], repeat=nv):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return not clauses


def random_cnf(rng, max_vars=8, max_clauses=26):
    nv = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(3, nv))
        vs = rng.sample(range(1, nv + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses, nv


def test_unit_propagation(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    s.add_clause([-1])
    out = s.solve()
    assert out.status == SAT
    assert out.model[1] is False and out.model[2] is True


def test_empty_clause(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1])
    s.add_clause([])
    out = s.solve()
    assert out.status == UNSAT
    assert s.proof_core() == ([1], [])


def test_taut_and_duplicate_clause(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, -1])
    s.add_clause([2, 2, -3])
    s.add_clause([2, -3])
    out = s.solve()
    assert out.status == SAT


def test_default_phase_is_false(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2, 3])
    out = s.solve()
    # fixed phase False: decisions walk variables negatively, so the
    # clause is satisfied by propagation only where forced
    assert out.status == SAT
    assert sum(1 for v in (1, 2, 3) if out.model[v]) == 1


def test_brute_force_agreement(kernel):
    rng = random.Random(101)
    for _ in range(300):
        clauses, nv = random_cnf(rng)
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        for c in clauses:
            s.add_clause(c)
        out = s.solve()
        expect = brute_sat(clauses, nv)
        assert out.status == (SAT if expect else UNSAT)
        if expect:
            for c in clauses:
                assert any(out.model[abs(l)] == (l > 0) for l in c)


def test_incremental_adds(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    assert s.solve().status == SAT
    s.add_clause([-1])
    assert s.solve().status == SAT
    s.add_clause([-2])
    assert s.solve().status == UNSAT
    assert s.solve().status == UNSAT  # stays unsat


def test_assumptions(kernel):
    # solve takes no assumptions: a non-empty list, a generator included,
    # raises ValueError before any state changes, fresh, on a kept trail
    # and once UNSAT; the next solve answers as if it had not been made
    for setup in ([], [[-1, 2], [-2, 3]], [[1], [-1]]):
        s = Solver(kernel=kernel)
        for c in setup:
            s.add_clause(c)
        if setup:
            s.solve()
        k = s._k
        before = (k.nvars, k.num_clauses, k.last_status, k.model, s.decisions, s.conflicts)
        for bad in ([1], [1, -3], (l for l in (1,)), [0]):
            with pytest.raises(ValueError, match="no assumptions"):
                s.solve(bad)
            assert (k.nvars, k.num_clauses, k.last_status, k.model, s.decisions,
                    s.conflicts) == before
        out = s.solve([])
        assert s.decisions == before[4]  # went on from the kept trail
        assert out.status == (UNSAT if setup[-1:] == [[-1]] else SAT)


def test_contradictory_assumptions(kernel):
    # literals to hold are added as unit clauses; two that contradict each
    # other end the search at level 0, and the core names both of them
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    assert s.solve().status == SAT
    s.add_clause([3])
    s.add_clause([-3])
    assert s.solve().status == UNSAT
    assert s.proof_core() == ([1, 2], [])


def test_failed_assumptions_random(kernel):
    # the core takes the place of failed assumptions: random literals added
    # as units after a first answer, on its kept trail; an UNSAT core names
    # clauses unsatisfiable alone, and a SAT model holds every unit
    rng = random.Random(102)
    unsat = 0
    for _ in range(120):
        clauses, nv = random_cnf(rng, max_vars=7, max_clauses=18)
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        for c in clauses:
            s.add_clause(c)
        s.solve()
        vs = rng.sample(range(1, nv + 1), rng.randint(1, nv))
        units = [[v if rng.random() < 0.5 else -v] for v in vs]
        for c in units:
            s.add_clause(c)
        added = clauses + units
        out = s.solve()
        if out.status == UNSAT:
            unsat += 1
            ordinals, _ = s.proof_core()
            assert not brute_sat([added[i] for i in ordinals], nv)
        else:
            for (l,) in units:
                assert out.model[abs(l)] == (l > 0)
    assert unsat > 30


def test_kept_decision_does_not_satisfy_a_new_clause(kernel):
    # the first solve decides 1 and 2 False and keeps its trail; -1 is
    # true there only by a decision, not at level 0
    s = Solver(kernel=kernel)
    s.ensure_vars(2)
    assert s.solve().model[1:] == [False, False]
    s.add_clause([-1, 2])
    # a clause the kept trail leaves two literals free in is watched on
    # them, and the next solve goes on from the kept trail: 3 is decided
    # False, so 4 follows
    s.add_clause([1, 3, 4])
    out = s.solve()
    assert out.status == SAT and out.model[1:] == [False, False, False, True]
    assert s.decisions == 3
    # a unit cancels to level 0, and (-1, 2) was kept: 2 follows from 1
    s.add_clause([1])
    out = s.solve()
    assert out.status == SAT and out.model[1:] == [True, True, False, False]


def test_kept_level_0_trail_finds_the_conflict(kernel):
    # the trail kept after the first solve is level 0 alone; the units
    # added next propagate into a conflict there, which is the answer
    s = Solver(kernel=kernel)
    s.add_clause([1])
    assert s.solve().status == SAT
    for c in ([-2, 3], [-3, -1], [-1, 2]):
        s.add_clause(c)
    assert s.solve().status == UNSAT
    assert s.proof_trace()[-1] == ()


def test_kept_trail_interleaving_random(kernel):
    # clauses, units among them, arrive between solves; each answer is
    # checked against the clauses added so far
    rng = random.Random(106)
    sat_after_sat = 0
    for _ in range(150):
        pool, nv = random_cnf(rng, max_vars=8, max_clauses=30)
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        added = []
        status = None
        while pool:
            for _ in range(rng.randint(0, 4)):
                if pool:
                    added.append(pool.pop())
                    s.add_clause(added[-1])
            sat_after_sat += status == SAT
            out = s.solve()
            status = out.status
            if out.status == SAT:
                for c in added:
                    assert any(out.model[abs(l)] == (l > 0) for l in c)
            else:
                assert out.status == UNSAT
                assert not brute_sat(added, nv)
                break
    assert sat_after_sat > 150


def test_fast_path_conflict_is_learned(kernel):
    # 1 and 2 are kept False by decisions; (3, 2) implies 3 on top of the
    # kept trail, which propagates 4 into a conflict with 1 False, at
    # level 2.  It is counted and learned as (-3, 1), which backjumps to
    # level 1 and makes 2 true by (3, 2)
    s = Solver(kernel=kernel)
    s.ensure_vars(2)
    assert s.solve().model[1:] == [False, False]
    clauses = [[-3, 4], [-3, -4, 1], [3, 2]]
    for c in clauses:
        s.add_clause(c)
    out = s.solve()
    assert out.status == SAT and s.conflicts == 1
    assert out.model[1:] == [False, True, False, False]
    s.add_clause([3])
    s.add_clause([-1])
    assert s.solve().status == UNSAT
    assert s.proof_trace()[0] == (-3, 1)


def test_fast_solve_that_restarts_answers_as_fresh(kernel):
    # pigeonhole(7) added on the kept trail of a SAT answer: the solve
    # restarts, and answers as a fresh solver does, with a core of
    # pigeonhole clauses alone
    steps = pigeonhole_after_sat_steps()
    s = Solver(kernel=kernel)
    fresh = Solver(kernel=kernel)
    for clauses, _ in steps[:2]:
        for h in (s, fresh):
            for c in clauses:
                h.add_clause(c)
        restarts, conflicts = s.restarts, s.conflicts
        out = s.solve()
    assert s.restarts > restarts and s.conflicts - conflicts >= 100
    want = fresh.solve()
    assert out.status == want.status == UNSAT
    for h in (s, fresh):
        assert min(h.proof_core()[0]) >= len(steps[0][0])


BAD_LITERALS = ([0], [1.0], ["1"], [None], [1, 0])


def kernel_handle(kernel, direct):
    """A kernel object itself (direct) or a sat.Solver over one; returns
    (handle, kernel object)."""
    if not direct:
        s = Solver(kernel=kernel)
        return s, s._k
    mod = _cdcl_py if kernel == "pure" else importlib.import_module("qexpand._cdcl")
    k = mod.Kernel()
    return k, k


@pytest.mark.parametrize("direct", [True, False], ids=["kernel", "solver"])
def test_bad_literals_rejected(kernel, direct):
    # the kernels check literals themselves, before any state changes,
    # also once the solver is UNSAT; sat.Solver hands them straight on
    for setup in ([], [[1, 2]], [[1], [-1]]):  # fresh, SAT, UNSAT
        h, k = kernel_handle(kernel, direct)
        for c in setup:
            h.add_clause(c)
        if setup:
            h.solve()
        before = (k.nvars, k.num_clauses, k.last_status, k.model)
        for bad in BAD_LITERALS:
            with pytest.raises(ValueError, match="^literals must be nonzero ints$"):
                h.add_clause(bad)
            assert (k.nvars, k.num_clauses, k.last_status, k.model) == before


@pytest.mark.parametrize("direct", [True, False], ids=["kernel", "solver"])
def test_generator_clause_added_whole(kernel, direct):
    h, k = kernel_handle(kernel, direct)
    h.add_clause(l for l in (1, 2))
    h.add_clause(l for l in (-1,))
    h.solve()
    assert (k.nvars, k.num_clauses, k.last_status) == (2, 2, 1)
    assert k.model[2] is True
    h.add_clause(l for l in (-2,))
    h.solve()
    assert k.last_status == -1


def test_pure_kernel_exception_leaves_level_0(monkeypatch):
    # an exception out of a pure solve cancels to level 0, as the C
    # kernel's error exit does; the next solve answers as a fresh one
    clauses = [[-1, 2, 3], [-2, -4], [1, 4, -5], [5, -3, 2], [-2, 3, 6]]
    pick = _cdcl_py.Kernel._pick_branch
    calls = []

    def failing_pick(k):
        calls.append(len(k._trail_lim))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return pick(k)

    s = Solver(kernel="pure")
    for c in clauses:
        s.add_clause(c)
    monkeypatch.setattr(_cdcl_py.Kernel, "_pick_branch", failing_pick)
    with pytest.raises(KeyboardInterrupt):
        s.solve()
    monkeypatch.setattr(_cdcl_py.Kernel, "_pick_branch", pick)
    assert calls[-1] == 2  # raised with two decision levels open
    assert s._k._trail_lim == [] and s._k.last_status == _cdcl_py.UNKNOWN
    fresh = Solver(kernel="pure")
    for c in clauses:
        fresh.add_clause(c)
    out, want = s.solve(), fresh.solve()
    assert out.status == want.status == SAT and out.model == want.model


def test_determinism(kernel):
    rng = random.Random(103)
    clauses, nv = random_cnf(rng, max_vars=8, max_clauses=20)
    runs = []
    for _ in range(2):
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        for c in clauses:
            s.add_clause(c)
        out = s.solve()
        runs.append((out.status, out.model, s.conflicts, s.decisions, s.propagations))
    assert runs[0] == runs[1]


def pigeonhole(n):
    """n pigeons into n - 1 holes: unsatisfiable, many conflicts."""
    holes = range(1, n)

    def var(p, h):
        return (p - 1) * (n - 1) + h

    clauses = [[var(p, h) for h in holes] for p in range(1, n + 1)]
    for h in holes:
        for p1 in range(1, n + 1):
            for p2 in range(p1 + 1, n + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def observe(kernel, nv, steps):
    """Play steps on a fresh solver over nv variables; return all a
    caller can see.

    Each step is (clauses to add, then solve(deadline=deadline)).  A step
    whose add_clause raises ValueError is seen as its message.
    """
    s = Solver(kernel=kernel)
    s.ensure_vars(nv)
    seen = []
    for clauses, deadline in steps:
        try:
            for c in clauses:
                s.add_clause(c)
        except ValueError as e:
            seen.append(("ValueError", str(e), s.num_vars, s.num_clauses))
            continue
        o = s.solve(deadline=deadline)
        try:
            trace = s.proof_trace()
        except TraceUnavailable:
            trace = None
        seen.append(
            (o.status, o.model and list(o.model), trace, s.num_vars,
             s.num_clauses, s.conflicts, s.decisions, s.propagations,
             s.restarts)
        )
    return seen


def random_steps(rng, clauses, nv):
    """Split clauses over up to four solves, sometimes with a deadline
    already past, each after up to two random units.  Some clauses get a
    repeated or a complementary literal."""
    clauses = [c + [rng.choice([1, -1]) * rng.choice(c)] if rng.random() < 0.2 else c
               for c in clauses]
    cuts = sorted(rng.randint(0, len(clauses)) for _ in range(rng.randint(0, 3)))
    steps = []
    for lo, hi in zip([0] + cuts, cuts + [len(clauses)]):
        vs = rng.sample(range(1, nv + 1), rng.randint(0, min(2, nv)))
        units = [[v if rng.random() < 0.5 else -v] for v in vs]
        deadline = rng.choice([None, None, time.monotonic() - 1.0])
        steps.append((clauses[lo:hi] + units, deadline))
    return steps


def pigeonhole_copies_steps():
    """Nine copies of pigeonhole(7) on fresh variables, one per solve,
    each guarded by its own variable 1-9, which is decided False before
    any pigeonhole variable: each solve refutes its copy on the kept
    trail, restarts, learns its guard and answers SAT.  About 7,000
    conflicts, past the activity rescale."""
    php = pigeonhole(7)
    return [
        ([[l + 9 + 42 * i if l > 0 else l - 9 - 42 * i for l in c] + [1 + i] for c in php], None)
        for i in range(9)
    ]


def group_steps(rng, nv=9):
    """Clause groups added between solves, as the forall abstraction adds
    them, over a random 3-CNF on nv variables.  The first solve takes
    half the clauses.  Each later group copies every clause with most
    variables renamed to fresh ones, so it can conflict with the kept
    trail; it is guarded by a fresh variable, a clause literal that a
    decision may set False, or now and then added plain."""
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nv + 1), 3)]
        for _ in range(25)
    ]
    steps = [(clauses[: len(clauses) // 2], None)]
    top = nv
    for _ in range(rng.randint(1, 6)):
        fresh = {}
        for v in rng.sample(range(1, nv + 1), nv * 7 // 10):
            top += 1
            fresh[v] = top
        group = [[fresh.get(abs(l), abs(l)) * (1 if l > 0 else -1) for l in c] for c in clauses]
        if rng.random() < 0.8:
            top += 1
            group = [c + [top] for c in group]
        steps.append((group, None))
    return steps


def pigeonhole_after_sat_steps():
    """A SAT answer on a few clauses, then pigeonhole(7) on fresh
    variables added on its kept trail: the solve restarts after 100
    conflicts."""
    php = [[l + 10 if l > 0 else l - 10 for l in c] for c in pigeonhole(7)]
    return [
        ([[1, 2, -3], [-1, 4], [3, -4, 5]], None),
        (php, None),
        ([], None),
    ]


@pytest.fixture
def kept_trail_cases(monkeypatch):
    """Count, on the pure kernel, what solves that go on from a kept trail
    above level 0 meet before they restart: conflicts ("conflict") and
    restarts ("restart")."""
    counts = {"conflict": 0, "restart": 0}
    # on_kept: the running solve began above level 0; restarts: its count
    # when the solve began
    state = {"on_kept": False, "restarts": 0}
    kernel = _cdcl_py.Kernel
    solve, handle = kernel.solve, kernel._handle_conflict

    def counted_solve(k, *args, **kwargs):
        state["on_kept"] = bool(k._trail_lim)
        state["restarts"] = k.restarts
        try:
            return solve(k, *args, **kwargs)
        finally:
            if state["on_kept"] and k.restarts > state["restarts"]:
                counts["restart"] += 1
            state["on_kept"] = False

    def counted_handle(k, confl):
        if state["on_kept"] and k.restarts == state["restarts"]:
            counts["conflict"] += 1
        return handle(k, confl)

    monkeypatch.setattr(kernel, "solve", counted_solve)
    monkeypatch.setattr(kernel, "_handle_conflict", counted_handle)
    return counts


def search_sat(clauses):
    """Decide clauses by splitting on literals with unit propagation: an
    exhaustive search that shares no code with the kernels."""
    clauses = [set(c) for c in clauses]
    while True:
        if any(not c for c in clauses):
            return False
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        (l,) = unit
        clauses = [c - {-l} for c in clauses if l not in c]
    if not clauses:
        return True
    l = next(iter(clauses[0]))
    return search_sat(clauses + [{l}]) or search_sat(clauses + [{-l}])


def assert_answer(out, clauses):
    """A SAT model satisfies clauses; an UNSAT is confirmed by search."""
    if out.status == SAT:
        for c in clauses:
            assert any(out.model[abs(l)] == (l > 0) for l in c)
    else:
        assert out.status == UNSAT
        assert not search_sat(clauses)


def test_guarded_groups_answer_right(kernel, kept_trail_cases):
    # every answer of solves that go on from a kept trail, checked
    # against the clauses added so far; the last sequence restarts
    rng = random.Random(107)
    sequences = [group_steps(rng) for _ in range(150)]
    for steps in sequences + [pigeonhole_after_sat_steps()]:
        s = Solver(kernel=kernel)
        s.ensure_vars(9)
        added = []
        for clauses, _ in steps:
            for c in clauses:
                s.add_clause(c)
            added += clauses
            out = s.solve()
            assert_answer(out, added)
            if out.status == UNSAT:
                break
    if kernel == "pure":
        assert all(kept_trail_cases.values()), kept_trail_cases


@pytest.mark.skipif(not sat.COMPILED, reason="compiled kernel not built")
def test_pure_and_compiled_agree(kept_trail_cases):
    rng = random.Random(104)
    cases = []
    for _ in range(150):
        clauses, nv = random_cnf(rng, max_vars=9, max_clauses=30)
        cases.append((nv, [(clauses, None)]))
        cases.append((nv, random_steps(rng, clauses, nv)))
        # clause groups added between solves: conflicts on the kept trail
        cases.append((9, group_steps(rng)))
    # a past deadline (checked every 64 conflicts), then solving on to
    # the end, and clauses added after an UNKNOWN; then nine guarded
    # copies of a pigeonhole formula, one per solve on the kept trail:
    # restarts, and about 7,000 conflicts, past the activity rescale (1e100)
    php = pigeonhole(7)
    past = time.monotonic() - 1.0
    cases.append((42, [(php, past), ([], None)]))
    cases.append((42, [(php, past), ([[1, 2], [-1]], None)]))
    cases.append((0, pigeonhole_copies_steps()))
    # a solve on a kept trail that restarts
    cases.append((5, pigeonhole_after_sat_steps()))
    # a zero literal is rejected, and the solver still answers after it
    cases.append((3, [([[1, 2], [0]], None), ([[-1]], None)]))
    # a bad clause after an UNSAT step is rejected too
    cases.append(
        (3, [([[1], [-1]], None), ([[2, 0]], None), ([[2, None]], None), ([[2]], None)])
    )
    statuses = set()
    for nv, steps in cases:
        pure = observe("pure", nv, steps)
        assert observe("compiled", nv, steps) == pure
        statuses.update(seen[0] for seen in pure)
    assert statuses == {SAT, UNSAT, UNKNOWN, "ValueError"}
    assert all(kept_trail_cases.values()), kept_trail_cases


def growing_batches(rng):
    """Batches of 3-clauses over a growing variable pool, as the forall
    abstraction adds instantiations with fresh copies: each clause has
    a variable new in its batch, so a batch added on a kept trail holds
    clauses that the trail leaves one literal free in.  The pool grows
    slower than the clauses, so most sequences end UNSAT."""
    nv = rng.randint(5, 10)
    out = []
    for _ in range(40):
        fresh = list(range(nv + 1, nv + 1 + rng.randint(1, 3)))
        nv += len(fresh)
        batch = []
        for _ in range(rng.randint(3, 14)):
            vs = set(rng.sample(range(1, nv + 1), 2)) | {rng.choice(fresh)}
            while len(vs) < 3:
                vs.add(rng.randint(1, nv))
            batch.append([v if rng.random() < 0.5 else -v for v in vs])
        out.append(batch)
    return out


def split_batches(rng, clauses):
    """clauses shuffled and cut into up to 13 batches."""
    clauses = list(clauses)
    rng.shuffle(clauses)
    cuts = sorted(rng.sample(range(1, len(clauses)), min(len(clauses) - 1, rng.randint(1, 12))))
    return [clauses[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(clauses)])]


def core_cases():
    """Clause batches to add between solves: growing pools, random
    3-CNF past the threshold, and pigeonhole(5-7)."""
    rng = random.Random(108)
    cases = [growing_batches(rng) for _ in range(120)]
    for _ in range(60):
        nv = rng.randint(8, 20)
        cnf = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nv + 1), 3)]
               for _ in range(int(nv * rng.uniform(4.5, 7)))]
        cases.append(split_batches(rng, cnf))
    cases += [split_batches(rng, pigeonhole(n)) for n in (5, 6, 7)]
    return cases


def solve_batches(kernel, batches):
    """Add each batch and solve after it, up to the first UNSAT; return
    the clauses added, the proof trace, and proof_core() (None when the
    last answer is SAT)."""
    s = Solver(kernel=kernel)
    added = []
    for batch in batches:
        for c in batch:
            s.add_clause(c)
        added += batch
        out = s.solve()
        if out.status == UNSAT:
            return added, s.proof_trace(), s.proof_core()
        assert_answer(out, added)
    return added, s._k.get_trace(), None


def assert_reasons_hold(k):
    """On a pure kernel: every literal on the trail with a reason comes
    after every other literal of that clause, all false; every lazy
    clause has c[0] true and c[1] false."""
    where = {p >> 1: i for i, p in enumerate(k._trail)}
    for i, p in enumerate(k._trail):
        r = k._reason[p >> 1]
        if r >= 0:
            others = [q for q in k._clauses[r] if q != p]
            assert len(others) == len(k._clauses[r]) - 1
            assert all(k._value(q) == 2 and where[q >> 1] < i for q in others)
    for ci in k._lazy:
        c = k._clauses[ci]
        assert k._value(c[0]) == 1 and k._value(c[1]) == 2


@pytest.fixture
def lazy_cases(monkeypatch):
    """Count, on the pure kernel, the lazy clauses add_clause makes that
    imply their literal ("imply"), the literals implied again after a
    backtrack ("reimply"), the lazy clauses dropped once their false
    watch was undone ("drop"), and learned clauses found false after
    the backjump because a lazy clause implied their literal again
    ("falsified").  After each of the first two the reasons must hold."""
    counts = {"imply": 0, "reimply": 0, "drop": 0, "falsified": 0}
    kernel = _cdcl_py.Kernel
    add_lazy, recheck, handle = kernel._add_lazy, kernel._recheck_lazy, kernel._handle_conflict

    def counted_add_lazy(k, ci):
        implied = len(k._trail)
        add_lazy(k, ci)
        counts["imply"] += len(k._trail) - implied
        assert_reasons_hold(k)

    def counted_recheck(k):
        lazy, implied = len(k._lazy), len(k._trail)
        recheck(k)
        counts["drop"] += lazy - len(k._lazy)
        counts["reimply"] += len(k._trail) - implied
        assert_reasons_hold(k)

    def counted_handle(k, confl):
        falsified = handle(k, confl)
        counts["falsified"] += falsified >= 0
        return falsified

    monkeypatch.setattr(kernel, "_add_lazy", counted_add_lazy)
    monkeypatch.setattr(kernel, "_recheck_lazy", counted_recheck)
    monkeypatch.setattr(kernel, "_handle_conflict", counted_handle)
    return counts


def test_core_is_exact(kernel, lazy_cases):
    # the clauses the core names are unsatisfiable alone, and its steps
    # replay on them alone; every learned clause, core or not, follows
    # from the clauses added before it and the steps before it
    unsat = 0
    for batches in core_cases():
        added, trace, core = solve_batches(kernel, batches)
        db = proof.ClauseDatabase(added)
        for step in trace:
            assert proof.rup_check(db, step)
            db.add(step)
        if core is None:
            continue
        unsat += 1
        ordinals, positions = core
        assert ordinals == sorted(set(ordinals)) and positions == sorted(set(positions))
        axioms = [added[i] for i in ordinals]
        fresh = Solver()
        for c in axioms:
            fresh.add_clause(c)
        assert fresh.solve().status == UNSAT
        db = proof.ClauseDatabase(axioms)
        for t in positions:
            assert proof.rup_check(db, trace[t])
            db.add(trace[t])
        assert trace[-1] == () and proof.rup_check(db, ())
    assert unsat > 120
    if kernel == "pure":
        assert all(lazy_cases.values()), lazy_cases


@pytest.mark.skipif(not sat.COMPILED, reason="compiled kernel not built")
def test_pure_and_compiled_cores_agree():
    for batches in core_cases():
        assert solve_batches("compiled", batches) == solve_batches("pure", batches)


def test_core_names_add_clause_calls(kernel):
    # ordinals count every add_clause call, the dropped ones too: (1, -1)
    # is a tautology, (3) is satisfied at level 0 by the unit before it
    s = Solver(kernel=kernel)
    for c in ([1, -1], [3], [3, 2], [-2, 4], [-4, -3], [2, 5], [-5, 6]):
        s.add_clause(c)
    assert s.solve().status == SAT
    s.add_clause([-6])  # 2 is False at level 0, so 5 and 6 are True there
    assert s.solve().status == UNSAT
    assert s.proof_core() == ([1, 3, 4, 5, 6, 7], [])


def test_core_unavailable(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    s.solve()
    with pytest.raises(TraceUnavailable):
        s.proof_core()
    # nor after an UNKNOWN answer
    for c in pigeonhole(7):
        s.add_clause(c)
    assert s.solve(deadline=time.monotonic() - 1.0).status == UNKNOWN
    with pytest.raises(TraceUnavailable):
        s.proof_core()


def equality(n):
    """Exists x, forall u, exists t with x = u: false for every n."""
    xs = list(range(1, n + 1))
    us = list(range(n + 1, 2 * n + 1))
    ts = list(range(2 * n + 1, 3 * n + 1))
    clauses = [[-t for t in ts]]
    for x, u, t in zip(xs, us, ts):
        clauses += [[x, u, t], [-x, -u, t]]
    return Qbf([(EXISTS, xs), (FORALL, us), (EXISTS, ts)], clauses)


# sha256 over cli.json_stats_lines, one line per iteration and run, by
# reset period: of oracle.random_pcnf seeds 0-199 at periods 0 and 1,
# and of Equality n=7 at the default period 64, where it resets 5 times
# (no random_pcnf run reaches 64 iterations); and over repr(observe) on
# the guarded pigeonhole copies and one last solve with nothing added.
PINNED_STATS = {
    0: "d288817f53d1190f553f3cf11dd25ee9ac5052253cf9747b614b873577258aaa",
    1: "bca4358d410960f777a486f09bf9fc30facf39dee8a9654ee45cee30349b2ea9",
    64: "5f9cdda53a6cc630919016d6f895b2b045093bb050a37d60ec9b020d23a77ccd",
}
PINNED_PIGEONHOLE = "c184ed4f2bc7b8f8fb3807e4019b23cdec2aa32f8e3b5979664109414bf9c38e"


@pytest.mark.parametrize("period", [0, 1, 64])
def test_search_is_pinned(kernel, period):
    # without a C compiler nothing else would notice a changed search
    if period == 64:
        formulas = [equality(7)]
    else:
        formulas = map(oracle.random_pcnf, range(200))
    h = hashlib.sha256()
    for q in formulas:
        result = expand.solve(q, expand.SolveConfig(reset_period=period, kernel=kernel))
        for line in cli.json_stats_lines(result):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == PINNED_STATS[period]


def test_pure_kernel_order_contract(monkeypatch):
    """Each pick is the maximum of (activity, -index) over the unassigned
    variables, and stale entries never leave the order queue
    longer than 2 * nvars + 64 after a solve."""
    pick = _cdcl_py.Kernel._pick_branch
    solve = _cdcl_py.Kernel.solve
    picks = []
    rescaled = []

    def checked_pick(k):
        free = [v for v in range(1, k.nvars + 1) if k._assigns[v] == 0]
        want = max(free, key=lambda v: (k._act[v], -v), default=0)
        v = pick(k)
        assert v == want
        picks.append(v)
        return v

    def checked_solve(k, *args, **kwargs):
        out = solve(k, *args, **kwargs)
        assert len(k._queue) <= 2 * k.nvars + 64
        # without a rescale var_inc is at least DECAY ** (conflicts - 1)
        rescaled.append(k._var_inc < _cdcl_py._ACT_BUMP_DECAY ** (k.conflicts - 1))
        return out

    monkeypatch.setattr(_cdcl_py.Kernel, "_pick_branch", checked_pick)
    monkeypatch.setattr(_cdcl_py.Kernel, "solve", checked_solve)
    # then a solve with nothing added goes on from the kept trail
    seen = observe("pure", 0, pigeonhole_copies_steps() + [([], None)])
    assert [step[0] for step in seen] == [SAT] * 10
    assert picks and rescaled[-1]
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == PINNED_PIGEONHOLE


def test_pure_kernel_rescale_reorders_queue():
    # right after a rescale a variable is bumped past one that was above
    # it; entries keyed by the old activities would still put it second
    k = _cdcl_py.Kernel()
    k.ensure_vars(3)
    k._bump(3)
    k._var_inc = 0.6e100
    k._bump(2)
    k._bump(2)  # past 1e100: every activity scales by 1e-100
    assert k._var_inc < 1.0
    for _ in range(3):
        k._bump(3)
    assert [k._pick_branch() for _ in range(4)] == [3, 2, 1, 0]


def test_c_kernel_compiles_without_warnings(tmp_path):
    source = os.path.join(os.path.dirname(sat.__file__), "_cdcl.c")
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if not shutil.which(cc[0]):
        pytest.skip("no C compiler: %s" % cc[0])
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no Python.h in %s" % include)
    proc = subprocess.run(
        cc
        + ["-O2", "-Wall", "-Wextra", "-Wpedantic", "-std=c99", "-Werror"]
        + ["-I", include, "-c", source, "-o", str(tmp_path / "_cdcl.o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_conflict_budget_unknown(kernel):
    # the only budget is the deadline, checked every 64 conflicts
    s = Solver(kernel=kernel)
    for c in pigeonhole(7):
        s.add_clause(c)
    out = s.solve(deadline=time.monotonic() - 1.0)
    assert out.status == UNKNOWN
    assert s.conflicts == 64


def test_trace_recording(kernel):
    s = Solver(kernel=kernel)
    for c in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
        s.add_clause(c)
    out = s.solve()
    assert out.status == UNSAT
    trace = s.proof_trace()
    assert trace[-1] == ()
    assert all(isinstance(c, tuple) for c in trace)


def test_trace_unavailable(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1])
    s.solve()
    with pytest.raises(TraceUnavailable):
        s.proof_trace()


def test_instance_independence(kernel):
    a = Solver(kernel=kernel)
    b = Solver(kernel=kernel)
    a.add_clause([1])
    b.add_clause([-1])
    assert a.solve().status == SAT
    assert b.solve().status == SAT
    a.add_clause([-1])
    assert a.solve().status == UNSAT
    assert b.solve().status == SAT


def test_stats_accumulate(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    s.solve()
    s.add_clause([-1])
    s.solve()
    assert s.num_vars == 2
    assert s.num_clauses == 2
    assert s.propagations > 0
