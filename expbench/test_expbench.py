"""Self-tests of the expansion benchmark.

Run from the repository root:

    python3 -m pytest -q expbench

Small members of every family are decided by oracle.decide_semantic,
before and after renaming; the gates are checked against plain
evaluation; tracing must leave the search unchanged.
"""

import itertools
import json
import os
import random

import pytest

import families
import gates
import layers
import run
import tracing
from qexpand import expand, oracle, proof, qdimacs
from qexpand.formula import Qbf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared(kind):
    """Names of the entries BENCHMARK.json declares under kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def semantic(blocks, clauses):
    return oracle.decide_semantic(Qbf(blocks, clauses))


def parsed(blocks, clauses):
    q, _ = qdimacs.parse(families.to_qdimacs(blocks, clauses))
    return q


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equality_is_false(n):
    blocks, clauses = families.equality(n)
    assert len(clauses) == 2 * n + 1
    assert semantic(blocks, clauses) is False
    for seed in range(3):
        assert semantic(*families.rename(random.Random(seed), blocks, clauses)) is False


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_qparity_is_false(n):
    blocks, clauses = families.qparity(n)
    assert len(clauses) == 4 * n
    assert semantic(blocks, clauses) is False
    for seed in range(3):
        assert semantic(*families.rename(random.Random(seed), blocks, clauses)) is False


def test_qparity_is_true_without_the_universal():
    # dropping the two z clauses leaves a satisfiable parity chain, so
    # falsity comes from z alone
    blocks, clauses = families.qparity(5)
    assert semantic(blocks, clauses[:-2]) is True


def test_chen_interian_shape_and_renaming():
    verdicts = set()
    for seed in range(30):
        rng = random.Random(seed)
        blocks, clauses = families.chen_interian(rng, 4, 10, 15)
        assert [q for q, _ in blocks] == [families.FORALL, families.EXISTS]
        for c in clauses:
            assert len({abs(l) for l in c}) == 3
            assert sum(1 for l in c if abs(l) <= 4) == 1
        truth = semantic(blocks, clauses)
        verdicts.add(truth)
        assert semantic(*families.rename(rng, blocks, clauses)) == truth
        result = expand.solve(parsed(blocks, clauses))
        assert result.verdict == (expand.TRUE if truth else expand.FALSE)
    assert verdicts == {True, False}


def test_rename_changes_ids_but_keeps_shape():
    blocks, clauses = families.equality(4)
    nb, nc = families.rename(random.Random(1), blocks, clauses)
    assert [q for q, _ in nb] == [q for q, _ in blocks]
    assert [len(vs) for _, vs in nb] == [len(vs) for _, vs in blocks]
    assert sorted(len(c) for c in nc) == sorted(len(c) for c in clauses)
    assert (nb, nc) != (blocks, clauses)


def test_seeded_rng_is_stable():
    a = families.seeded_rng("ci2qbf", 3, 7).random()
    assert a == families.seeded_rng("ci2qbf", 3, 7).random()
    assert a != families.seeded_rng("ci2qbf", 3, 8).random()


def test_check_parse_catches_a_changed_matrix():
    blocks, clauses = families.qparity(4)
    q = parsed(blocks, clauses)
    gates.check_parse(q, blocks, clauses)
    with pytest.raises(gates.GateFailure):
        gates.check_parse(q, blocks, clauses[:-1] + [[1, 2]])
    with pytest.raises(gates.GateFailure):
        gates.check_parse(q, list(reversed(blocks)), clauses)


def covers_by_evaluation(blocks, clauses, sigma):
    """Every universal assignment joined with sigma satisfies the matrix."""
    universals = blocks[0][1]
    value = {abs(l): l > 0 for l in sigma}
    for bits in itertools.product((False, True), repeat=len(universals)):
        value.update(zip(universals, bits))
        if not all(any(value[abs(l)] == (l > 0) for l in c) for c in clauses):
            return False
    return True


def test_witness_gate_matches_evaluation():
    checked = 0
    for seed in range(40):
        blocks, clauses = families.chen_interian(random.Random(seed), 4, 10, 15)
        result = expand.solve(parsed(blocks, clauses))
        if result.verdict != expand.TRUE:
            continue
        sigmas = [s.literals() for s in result.witness]
        gates.check_witness(blocks, clauses, sigmas)
        for sigma in sigmas:
            if covers_by_evaluation(blocks, clauses, sigma):
                gates.check_witness(blocks, clauses, [sigma])
            else:
                with pytest.raises(gates.GateFailure):
                    gates.check_witness(blocks, clauses, [sigma])
                checked += 1
        with pytest.raises(gates.GateFailure):
            gates.check_witness(blocks, clauses, [])
    assert checked > 0


def test_witness_gate_rejects_a_partial_sigma():
    blocks, clauses = families.chen_interian(random.Random(0), 2, 3, 2)
    with pytest.raises(gates.GateFailure):
        gates.check_witness(blocks, clauses, [(3, 4)])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tracing_does_not_change_the_search(name):
    workload = run.WORKLOADS[name]
    inst = run.renamed(workload.warm, 0, workload.expect, "test")
    plain = run.solve_instance(inst)
    tracer = tracing.Tracer()
    originals = {attr: owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS}
    with tracer.installed():
        tracer.instance = 0
        traced = run.solve_instance(inst, on_iteration=tracer.on_iteration)
    assert {attr: owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS} == originals
    run.same_counts(plain, traced, name)
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs) > -1e-9
    roots = [s for s in tracer.spans if s[tracing.PARENT] < 0]
    covered = sum(s[tracing.END] - s[tracing.START] for s in roots)
    assert sum(selfs) == pytest.approx(covered)
    metrics = tracing.layer_metrics(tracer, [traced])
    assert metrics["expand.iterations"] == traced["iterations"]
    assert metrics["annotate.strip_calls"] > 0
    assert set(metrics) | {"trace.overhead"} == declared("per_layer")


def test_layer_map_covers_every_declared_metric():
    assert declared("workloads") == set(run.WORKLOADS)
    assert set(layers.MAP) == declared("per_layer")
    for moves, _ in layers.MAP.values():
        assert set(moves.split()) <= declared("end_to_end") or moves.startswith("none")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_main_prints_every_metric(capsys, trace):
    argv = ["--workload", "equality", "--seed", "2", "--seconds", "0.01", "--trace", trace]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    # a single instance has no tail percentile
    want = declared("per_layer" if trace == "1" else "end_to_end") - {"verdict_s.tail"}
    assert set(result["metrics"]) == want
    units = run.declared_units()
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]


EQUALITY_RUN = ["--workload", "equality", "--seed", "1", "--seconds", "0.01"]


def test_rejected_certificate_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(
        proof, "check_certificate", lambda q, cert: proof.CheckResult(False, "tampered")
    )
    assert run.main(EQUALITY_RUN) == 1
    out = capsys.readouterr()
    assert "metrics" not in out.out and "certificate rejected" in out.err


def test_wrong_verdict_fails_the_run(monkeypatch, capsys):
    real = expand.solve

    def flipped(q, config=None, on_iteration=None):
        result = real(q, config, on_iteration)
        result.verdict = expand.TRUE
        return result

    monkeypatch.setattr(expand, "solve", flipped)
    assert run.main(EQUALITY_RUN) == 1
    out = capsys.readouterr()
    assert "metrics" not in out.out and "expected FALSE" in out.err


@pytest.mark.parametrize("error", [proof.CertificateError, proof.CertificateUnavailable])
def test_unextractable_certificate_fails_the_run(monkeypatch, capsys, error):
    # a solver that wrongly reports FALSE leaves a satisfiable core, and
    # extract_certificate raises rather than returning a certificate
    def broken(state):
        raise error("failed clause core is satisfiable")

    monkeypatch.setattr(proof, "extract_certificate", broken)
    assert run.main(EQUALITY_RUN) == 1
    out = capsys.readouterr()
    assert "metrics" not in out.out and "no valid certificate" in out.err
