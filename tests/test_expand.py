import random
import tracemalloc

import pytest

from qexpand import annotate, cli, expand, oracle, proof, qdimacs, sat
from qexpand.expand import (
    FALSE,
    TRUE,
    UNKNOWN,
    ExpansionState,
    InvariantViolation,
    SolveConfig,
    check_completion,
    initial_alphas,
    solve,
)
from qexpand.formula import EXISTS, FORALL, Assignment, Qbf


def alternating_true_qbf():
    return Qbf(
        [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4])],
        [[2, 1, 4], [-2, -1, 4], [-4, 3]],
    )


def switch_false_qbf():
    return Qbf(
        [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4, 5])],
        [
            [-5, 1],
            [-5, 3],
            [-5, -2],
            [-5, -4],
            [5, -1],
            [5, 2],
            [5, -3, 4],
            [5, 3, -4],
        ],
    )


def xor_true_qbf():
    # exists x must track not-u, so both candidate values are needed
    return Qbf([(FORALL, [1]), (EXISTS, [2])], [[1, 2], [-1, -2]])


def equality(n, scale=1):
    """Exists x, forall u, exists t with x = u: false; ids times scale."""
    xs = [i * scale for i in range(1, n + 1)]
    us = [i * scale for i in range(n + 1, 2 * n + 1)]
    ts = [i * scale for i in range(2 * n + 1, 3 * n + 1)]
    clauses = [[-t for t in ts]]
    for x, u, t in zip(xs, us, ts):
        clauses += [[x, u, t], [-x, -u, t]]
    return Qbf([(EXISTS, xs), (FORALL, us), (EXISTS, ts)], clauses)


KERNELS = ["pure"] + (["compiled"] if sat.COMPILED else [])


def verdict_of(value):
    return TRUE if value else FALSE


def test_true_example():
    r = solve(alternating_true_qbf())
    assert r.verdict == TRUE
    assert r.iterations >= 1
    assert len(r.witness) == len(r.state.sigmas)
    assert r.state.verdict == TRUE


def test_false_example():
    r = solve(switch_false_qbf())
    assert r.verdict == FALSE
    assert r.witness == []
    assert r.state.core
    for lits, idx, alpha in r.state.core:
        assert 0 <= idx < len(r.state.q.matrix)
        assert alpha in r.state.alphas


def test_empty_matrix_is_true():
    q = Qbf([(FORALL, [1]), (EXISTS, [2])], [])
    r = solve(q)
    assert r.verdict == TRUE
    assert r.iterations == 1


def test_empty_clause_is_false():
    q = Qbf([(FORALL, [1]), (EXISTS, [2])], [[1, 2], []])
    r = solve(q)
    assert r.verdict == FALSE
    assert r.iterations == 1
    assert any(lits == () for lits, idx, alpha in r.state.core)


def test_no_universals():
    assert solve(Qbf([(EXISTS, [1, 2])], [[1, 2], [-1]])).verdict == TRUE
    assert solve(Qbf([(EXISTS, [1])], [[1], [-1]])).verdict == FALSE


def test_no_existentials():
    r = solve(Qbf([(FORALL, [1])], [[1]]))
    assert r.verdict == FALSE
    r = solve(Qbf([(FORALL, [1, 2])], [[1, -1, 2]]))
    assert r.verdict == TRUE


def test_initial_alphas_per_block():
    q = alternating_true_qbf()
    out = initial_alphas(q)
    assert len(out) == 2
    assert out[0].as_dict() == {1: False, 3: True}
    assert out[1].as_dict() == {1: True, 3: False}
    out = initial_alphas(Qbf([(EXISTS, [1])], [[1]]))
    assert len(out) == 1 and out[0].count() == 0


def test_xor_needs_two_iterations():
    r = solve(xor_true_qbf(), SolveConfig(verify_invariants=True))
    assert r.verdict == TRUE
    assert r.iterations == 2
    assert len(r.state.sigmas) == 2
    assert len(r.state.alphas) == 2


def test_unknown_on_max_iterations():
    r = solve(xor_true_qbf(), SolveConfig(max_iterations=1))
    assert r.verdict == UNKNOWN
    assert r.iterations == 1


def test_unknown_on_time_limit():
    r = solve(xor_true_qbf(), SolveConfig(time_limit=0.0))
    assert r.verdict == UNKNOWN
    assert r.iterations == 0


def test_verdicts_match_oracle():
    for seed in range(200):
        q = oracle.random_pcnf(seed)
        want = verdict_of(oracle.decide_semantic(q))
        r = solve(q, SolveConfig(reset_period=0, verify_invariants=True))
        assert r.verdict == want, "seed %d" % seed
        assert r.state.resets == 0
        for rec in r.stats[:-1]:
            assert rec["new_sigmas"] >= 1
            assert rec["new_alphas"] >= 1


def test_iteration_bound_without_resets():
    for seed in range(120):
        q = oracle.random_pcnf(seed)
        r = solve(q, SolveConfig(reset_period=0))
        nu = len(q.universals)
        ne = len(q.existentials)
        assert r.iterations <= min(2 ** nu, 2 ** ne) + 1


def test_reset_verdicts_match():
    resets = 0
    for period in (1, 2):
        for seed in range(80):
            q = oracle.random_pcnf(seed)
            base = solve(q, SolveConfig(reset_period=0)).verdict
            r = solve(
                q, SolveConfig(reset_period=period, verify_invariants=True)
            )
            assert r.verdict == base, "seed %d period %d" % (seed, period)
            resets += r.state.resets
            for rec in r.stats[:-1]:
                assert rec["new_sigmas"] >= 1
                # a reset iteration counts distinct strips missing from
                # the alphas it replaces, so it grows too
                assert 1 <= rec["new_alphas"] <= rec["size_a"]
    assert resets > 0


def test_memory_threshold_triggers_reset(monkeypatch):
    monkeypatch.setattr(expand, "RESET_MEMORY_THRESHOLD", 0)
    q = xor_true_qbf()
    r = solve(q, SolveConfig(reset_period=0))
    assert r.verdict == TRUE
    assert r.state.resets >= 1


def test_stats_shape():
    r = solve(alternating_true_qbf(), SolveConfig(reset_period=0))
    assert len(r.stats) == r.iterations
    for rec in r.stats:
        for key in (
            "iteration",
            "forall_status",
            "exists_status",
            "new_sigmas",
            "new_alphas",
            "size_a",
            "size_s",
            "reset",
            "live_clauses",
            "live_literals",
            "forall_conflicts",
            "exists_conflicts",
            "forall_time",
            "strip_time",
        ):
            assert key in rec, key
    assert r.stats[-1]["exists_status"] == "unsat"
    sizes = [rec["size_s"] for rec in r.stats]
    assert sizes == sorted(sizes)


def test_deterministic_runs():
    def strip_times(stats):
        return [
            {k: v for k, v in rec.items() if not k.endswith("_time")}
            for rec in stats
        ]

    for seed in (3, 17, 40):
        q = oracle.random_pcnf(seed)
        r1 = solve(q, SolveConfig())
        r2 = solve(q, SolveConfig())
        assert r1.verdict == r2.verdict
        assert strip_times(r1.stats) == strip_times(r2.stats)


def test_hook_observes_every_iteration():
    q = alternating_true_qbf()
    seen = []

    def hook(state):
        seen.append(state.iteration)

    r = solve(q, SolveConfig(), on_iteration=hook)
    assert r.verdict == TRUE
    # called after every iteration but the one that decides
    assert seen == list(range(1, r.iterations))
    assert cli.json_stats_lines(r) == cli.json_stats_lines(solve(q))
    # a hook that returns anything but None is refused, not ignored
    for value in ([[3, -3, 1]], [], 0):
        with pytest.raises(ValueError, match="on_iteration"):
            solve(q, SolveConfig(), on_iteration=lambda state: value)


def test_strip_once_per_distinct_prefix(monkeypatch):
    q = equality(4)
    real_strip = annotate.strip
    cut = {
        kind: annotate.strip_cut(q, annotate.InternTable(kind))
        for kind in ("universal", "existential")
    }
    calls = []  # (iteration, table kind, the source bytes strip reads)
    iteration = [1]

    def counting_strip(model, source, table):
        calls.append((iteration[0], table.kind, source.values[: cut[table.kind]]))
        return real_strip(model, source, table)

    monkeypatch.setattr(annotate, "strip", counting_strip)
    sources = []  # sigmas stripped against per iteration

    def hook(state):
        # the counter model was stripped against exactly these sigmas
        prefixes = {s.values[: cut["existential"]] for s in state.sigmas}
        done = [c for c in calls if c[:2] == (iteration[0], "existential")]
        assert len(done) == len(prefixes)
        sources.append(len(state.sigmas))
        iteration[0] = state.iteration + 1

    r = solve(q, SolveConfig(verify_invariants=True), on_iteration=hook)
    assert r.verdict == FALSE and r.state.resets == 0
    assert len(calls) == len(set(calls))
    # sigmas that agree on x share one strip
    assert sum(1 for c in calls if c[1] == "existential") < sum(sources)


@pytest.mark.parametrize("period", [1, 64])
def test_origin_holds_the_added_clauses(period):
    def hook(state):
        fa = state.forall_abs
        live = {}
        for alpha in state.alphas:
            for _, lits in annotate.instantiate(state.q, alpha, fa.table):
                live[lits] = len(lits)
        assert fa.assumptions() == ()
        # one add_clause per distinct clause, and none of an alpha a
        # reset dropped
        assert list(fa.origin) == list(live)
        assert fa.solver._k.num_clauses <= len(fa.origin) == fa.live_clauses
        assert fa.live_literals == sum(live.values())

    for seed in range(200):
        q = oracle.random_pcnf(seed)
        r = solve(q, SolveConfig(reset_period=period), on_iteration=hook)
        if r.verdict == FALSE:
            # a core clause was added since the last reset, by the alpha
            # that first produced it
            hook(r.state)
            fa = r.state.forall_abs
            for lits, idx, alpha in r.state.core:
                assert fa.origin[lits] == (idx, alpha), "seed %d" % seed
                assert alpha in r.state.alphas
                assert (idx, lits) in annotate.instantiate(q, alpha, fa.table)


@pytest.mark.parametrize("kernel", KERNELS)
def test_seed_25492_certifies(kernel):
    # at period 0 a lazy clause of the forall solver must be re-checked
    # at the backtrack itself, before an add_clause unit is assigned:
    # re-checked at the next propagate instead, it leaves a reason clause
    # with an unassigned literal, and the walk that names the core fails
    q = oracle.random_pcnf(25492)
    r = solve(q, SolveConfig(reset_period=0, kernel=kernel))
    assert r.verdict == FALSE
    assert proof.check_certificate(q, proof.extract_certificate(r.state)).ok


@pytest.fixture
def recorded_clauses(monkeypatch):
    """Record every solver's add_clause calls on the solver, as
    solver.recorded: a list of literal lists."""
    add_clause = sat.Solver.add_clause

    def recording_add_clause(self, lits):
        lits = list(lits)
        self.__dict__.setdefault("recorded", []).append(lits)
        add_clause(self, lits)

    monkeypatch.setattr(sat.Solver, "add_clause", recording_add_clause)


def unsat_with_units(clauses, units, kernel="auto"):
    """clauses plus the unit clauses units are UNSAT on a fresh solver."""
    s = sat.Solver(kernel=kernel)
    for c in clauses:
        s.add_clause(c)
    for l in units:
        s.add_clause([l])
    return s.solve().status == sat.UNSAT


def test_counter_selector_is_recorded_with_its_implications(recorded_clauses):
    # 2=3=False falsifies (3), so the first negation adds nothing; the
    # second must not reuse a selector for the instantiated clause (1)
    # that has no implications
    q = Qbf([(FORALL, [1]), (EXISTS, [2, 3])], [[1, 2], [3]])
    ea = expand.ExistsAbstraction(q, sat.Solver())
    ea.add_negation(Assignment.from_pairs(q, {2: False, 3: False}))
    assert ea.selector == {} and len(ea.table) == 0
    ea.add_negation(Assignment.from_pairs(q, {2: False, 3: True}))
    x = ea.table.forward[(1, b"")]
    assert unsat_with_units(ea.solver.recorded, [x])


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("period", [1, 64])
def test_counter_selectors_imply_their_clause_false(period, kernel, recorded_clauses):
    rng = random.Random(period)

    def hook(state):
        ea = state.exists_abs
        sels = list(ea.selector.items())
        assert len({d for _, d in sels}) == len(sels)
        for key, d in rng.sample(sels, min(3, len(sels))):
            for l in key:
                assert unsat_with_units(ea.solver.recorded, [d, l], kernel), (key, d, l)

    for seed in range(200):
        q = oracle.random_pcnf(seed)
        solve(q, SolveConfig(reset_period=period, kernel=kernel), on_iteration=hook)


def _traced_solve(q, kernel):
    tracemalloc.start()
    try:
        r = solve(q, SolveConfig(kernel=kernel))
        return r, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", KERNELS)
def test_sparse_ids_solve_like_dense(kernel):
    dense, dense_peak = _traced_solve(equality(5), kernel)
    q = equality(5, 10_000)
    r, peak = _traced_solve(q, kernel)
    assert (r.verdict, r.iterations) == (dense.verdict, dense.iterations)
    assert cli.json_stats_lines(r) == cli.json_stats_lines(dense)
    assert proof.check_certificate(q, proof.extract_certificate(r.state)).ok
    for a in list(r.state.alphas) + list(r.state.sigmas):
        assert len(a.key()) == q.num_vars
    # nothing is sized by the largest id (150,000 here)
    assert peak < 1.5 * dense_peak


@pytest.mark.parametrize("kernel", KERNELS)
def test_sparse_ids_through_cli(tmp_path, capsys, kernel):
    f = tmp_path / "sparse.qdimacs"
    f.write_text(qdimacs.write(equality(5, 10_000)))
    cert = tmp_path / "sparse.cert"
    assert cli.main(["solve", str(f), "--kernel", kernel, "--cert", str(cert)]) == 20
    capsys.readouterr()
    assert cli.main(["check", str(f), str(cert)]) == 0
    assert "certificate valid" in capsys.readouterr().out


def test_check_completion_reports_violation():
    q = xor_true_qbf()
    state = ExpansionState(q, SolveConfig())
    state.alphas.add(Assignment.from_pairs(q, {1: False}))
    state.sigmas.add(Assignment.from_pairs(q, {2: False}))
    report = check_completion(state, s_side=True, a_side=False)
    assert report.violations == [
        ("s-completes-a", next(iter(state.alphas)), None)
    ]
    report = check_completion(state, s_side=False, a_side=True)
    assert report.violations == []
    # {2: True} covers {1: False}, but no alpha falsifies it
    uncovered = Assignment.from_pairs(q, {2: True})
    state.sigmas.add(uncovered)
    report = check_completion(state, s_side=True, a_side=False)
    assert report.violations == []
    report = check_completion(state, s_side=False, a_side=True)
    assert report.violations == [("a-completes-s", uncovered, None)]


def test_check_completion_clean_after_true_run():
    r = solve(alternating_true_qbf(), SolveConfig(reset_period=0))
    report = check_completion(r.state, s_side=True, a_side=False)
    assert report.violations == []


@pytest.mark.parametrize(
    "kind, message",
    [
        ("universal", "extracted candidate does not satisfy its source"),
        ("existential", "extracted universal does not falsify its source"),
    ],
    ids=["sigma", "alpha"],
)
def test_verify_invariants_catches_bad_strips(monkeypatch, kind, message):
    # on xor every strip assigns one variable, and flipping it turns a
    # sigma strip against its alpha, or an alpha strip toward its sigma
    real_strip = annotate.strip

    def flipping_strip(model, source, table):
        cand = real_strip(model, source, table)
        if table.kind != kind:
            return cand
        return Assignment.from_pairs(cand.qbf, {abs(l): l < 0 for l in cand.literals()})

    monkeypatch.setattr(annotate, "strip", flipping_strip)
    with pytest.raises(InvariantViolation, match=message):
        solve(xor_true_qbf(), SolveConfig(reset_period=0, verify_invariants=True))


@pytest.mark.parametrize(
    "lost, direction",
    [({2: True}, "s-completes-a"), ({1: True}, "a-completes-s")],
    ids=["sigma", "alpha"],
)
def test_verify_invariants_catches_lost_strips(monkeypatch, lost, direction):
    # add reports the first strip of one side as new but never stores it
    q = xor_true_qbf()
    lost = Assignment.from_pairs(q, lost)
    real_add = expand.AssignmentSet.add

    def lossy_add(self, a):
        return True if a == lost else real_add(self, a)

    monkeypatch.setattr(expand.AssignmentSet, "add", lossy_add)
    with pytest.raises(
        InvariantViolation, match=r"completion violated \(%s\) at iteration 1" % direction
    ):
        solve(q, SolveConfig(reset_period=0, verify_invariants=True))


def test_stall_without_resets_is_a_bug(monkeypatch):
    # every sigma strip reads {2: False}, so some refinement step must
    # find nothing new; that is a bug whether or not a reset came first
    q = xor_true_qbf()
    real_strip = annotate.strip
    pinned = Assignment.from_pairs(q, {2: False})

    def pinned_strip(model, source, table):
        if table.kind == "universal":
            return pinned
        return real_strip(model, source, table)

    monkeypatch.setattr(annotate, "strip", pinned_strip)

    def seed_with(value):
        monkeypatch.setattr(
            expand,
            "initial_alphas",
            lambda q: [Assignment.from_pairs(q, {1: value})],
        )

    seed_with(False)
    with pytest.raises(InvariantViolation):
        solve(q, SolveConfig(reset_period=0))
    # seeded with {1: True}, iteration 1 adds {1: False} and resets onto
    # it, iteration 2's forall model wants {2: True} and is refused
    seed_with(True)
    resets = []
    with pytest.raises(InvariantViolation):
        solve(
            q,
            SolveConfig(reset_period=1),
            on_iteration=lambda state: resets.append(state.resets),
        )
    assert resets == [1]


def test_negative_counts_rejected():
    # n % -1 == 0 would reset every iteration, and a negative
    # iteration limit would stop before the first one
    q = xor_true_qbf()
    with pytest.raises(ValueError, match="reset_period"):
        solve(q, SolveConfig(reset_period=-1))
    with pytest.raises(ValueError, match="max_iterations"):
        solve(q, SolveConfig(max_iterations=-2))


def test_bad_time_limit_rejected():
    # a negative limit used to end as UNKNOWN before the first
    # iteration, and NaN compares false, so it used to mean no limit
    q = xor_true_qbf()
    for bad in (-5.0, float("nan")):
        with pytest.raises(ValueError, match="time_limit"):
            solve(q, SolveConfig(time_limit=bad))
    assert solve(q, SolveConfig(time_limit=0)).verdict == UNKNOWN
    assert solve(q, SolveConfig(time_limit=0)).iterations == 0
    assert solve(q, SolveConfig(time_limit=float("inf"))).verdict == TRUE


