import argparse
import hashlib
import json
import pathlib
import re

import pytest

from qexpand import expand, oracle, proof, qdimacs, sat
from qexpand.cli import build_parser, main
from qexpand.formula import EXISTS, FORALL, Qbf

TRUE_FILE = """\
p cnf 4 3
a 1 0
e 2 0
a 3 0
e 4 0
2 1 4 0
-2 -1 4 0
-4 3 0
"""

FALSE_FILE = """\
p cnf 5 8
a 1 0
e 2 0
a 3 0
e 4 5 0
-5 1 0
-5 3 0
-5 -2 0
-5 -4 0
5 -1 0
5 2 0
5 -3 4 0
5 3 -4 0
"""


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_solve_true(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "t.qdimacs", TRUE_FILE)])
    out = capsys.readouterr().out
    assert code == 10
    assert out.strip().splitlines()[-1] == "s cnf 1"
    assert "c done verdict=TRUE" in out


def test_solve_false(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "f.qdimacs", FALSE_FILE)])
    out = capsys.readouterr().out
    assert code == 20
    assert out.strip().splitlines()[-1] == "s cnf 0"


def test_solve_unknown_on_timeout(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    code = main(["solve", f, "--timeout", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "s cnf -1"


def test_quiet(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    code = main(["solve", f, "--quiet"])
    out = capsys.readouterr().out
    assert code == 10
    assert out.strip() == "s cnf 1"


def test_stats_json_deterministic(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    assert main(["solve", f, "--stats", "json"]) == 10
    first = capsys.readouterr().out
    assert main(["solve", f, "--stats", "json"]) == 10
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[-1] == "s cnf 1"
    records = [json.loads(x) for x in lines[:-1]]
    assert records[-1]["verdict"] == "TRUE"
    for rec in records:
        for key in rec:
            assert not key.endswith("_time")


def test_stats_human_times(tmp_path, capsys):
    # forall solve + exists solve + strip; the deciding iteration strips
    # only the forall model
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    assert main(["solve", f]) == 10
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("c iter=")]
    assert lines
    for line in lines:
        assert re.search(r" time=\d+\.\d{3}\+\d+\.\d{3}\+\d+\.\d{3}$", line), line


def test_stats_file(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    stats = tmp_path / "stats.jsonl"
    assert main(["solve", f, "--stats-file", str(stats)]) == 10
    capsys.readouterr()
    lines = stats.read_text().strip().splitlines()
    assert json.loads(lines[-1])["verdict"] == "TRUE"
    assert json.loads(lines[0])["iteration"] == 1


def test_cert_roundtrip(tmp_path, capsys):
    f = write(tmp_path, "f.qdimacs", FALSE_FILE)
    cert = tmp_path / "out.cert"
    assert main(["solve", f, "--cert", str(cert)]) == 20
    capsys.readouterr()
    assert main(["check", f, str(cert)]) == 0
    assert "certificate valid" in capsys.readouterr().out


def test_check_rejects_tampering(tmp_path, capsys):
    f = write(tmp_path, "f.qdimacs", FALSE_FILE)
    cert = tmp_path / "out.cert"
    main(["solve", f, "--cert", str(cert), "--quiet"])
    capsys.readouterr()
    lines = cert.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("a "):
            parts = line.split()
            parts[1] = str((int(parts[1]) + 1) % 8)
            lines[i] = " ".join(parts)
            break
    cert.write_text("\n".join(lines) + "\n")
    assert main(["check", f, str(cert)]) == 1
    assert "invalid" in capsys.readouterr().out


def test_check_rejects_old_format_and_bad_hints(tmp_path, capsys):
    f = write(tmp_path, "f.qdimacs", FALSE_FILE)
    cert = tmp_path / "out.cert"
    main(["solve", f, "--cert", str(cert), "--quiet"])
    capsys.readouterr()
    lines = cert.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("r "))
    own = first + 1  # the step's id: lines count from 1, axioms first
    clause = lines[first].split(" 0 ")[0]
    for hints, problem in [
        (None, "trace line needs a clause and its hints"),  # the old format
        ("-2", "hint ids must be positive"),
        (str(own), "hint id %d names no earlier line" % own),
        (str(own + 1), "hint id %d names no earlier line" % (own + 1)),
    ]:
        bad = list(lines)
        bad[first] = clause + " 0" if hints is None else "%s 0 %s 0" % (clause, hints)
        cert.write_text("\n".join(bad) + "\n")
        assert main(["check", f, str(cert)]) == 1
        err = capsys.readouterr().err
        assert problem in err and "(line %d)" % own in err, err
    # hints that name earlier clauses but do not derive the step
    bad = list(lines)
    bad[first] = "%s 0 1 0" % clause
    cert.write_text("\n".join(bad) + "\n")
    assert main(["check", f, str(cert)]) == 1
    assert "trace clause 0 is not derivable by its hints" in capsys.readouterr().out


def test_cert_notice_on_true(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    cert = tmp_path / "none.cert"
    assert main(["solve", f, "--cert", str(cert)]) == 10
    assert "no certificate" in capsys.readouterr().out
    assert not cert.exists()


def test_parse_error_exit(tmp_path, capsys):
    f = write(tmp_path, "bad.qdimacs", "p cnf x 1\n1 0\n")
    assert main(["solve", f]) == 1
    err = capsys.readouterr().err
    assert "c error:" in err and "line 1" in err


def test_negative_counts_exit(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    assert main(["solve", f, "--reset-period", "-1"]) == 1
    assert "c error:" in capsys.readouterr().err
    assert main(["solve", f, "--max-iterations", "-2"]) == 1
    assert "c error:" in capsys.readouterr().err


def test_bad_timeout_exit(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    for bad in ("-5", "nan"):
        assert main(["solve", f, "--timeout", bad]) == 1
        captured = capsys.readouterr()
        assert "c error:" in captured.err and "time_limit" in captured.err
        assert captured.out == ""


def test_missing_file(capsys):
    assert main(["solve", "/nonexistent/foo.qdimacs"]) == 1
    assert "c error:" in capsys.readouterr().err


def test_directory_as_input(tmp_path, capsys):
    f = write(tmp_path, "f.qdimacs", FALSE_FILE)
    for argv in (["solve", str(tmp_path)], ["check", f, str(tmp_path)]):
        assert main(argv) == 1
        assert "c error:" in capsys.readouterr().err


def test_directory_as_stats_file(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    assert main(["solve", f, "--stats-file", str(tmp_path)]) == 1
    assert "c error:" in capsys.readouterr().err


def test_free_variable_warning(tmp_path, capsys):
    f = write(tmp_path, "free.qdimacs", "p cnf 2 1\na 1 0\n1 2 0\n")
    assert main(["solve", f]) == 10
    assert "c warning:" in capsys.readouterr().out
    assert main(["solve", f, "--quiet"]) == 10
    assert "warning" not in capsys.readouterr().out


def fuzz_digest(out):
    """The sha256 on the last line of a fuzz --certify run."""
    last = out.splitlines()[-1]
    assert re.search(r", sha256 [0-9a-f]{64}$", last), last
    return last.rsplit(" ", 1)[1]


def test_fuzz(capsys):
    assert main(["fuzz", "--count", "25", "--certify"]) == 0
    out = capsys.readouterr().out
    assert "fuzz ok: 25 instances" in out
    assert "certificates checked" in out
    # the digest is over the certificate texts, in seed order
    texts = []
    for seed in range(25):
        q = oracle.random_pcnf(seed)
        r = expand.solve(q, expand.SolveConfig(verify_invariants=True))
        if r.verdict == expand.FALSE:
            texts.append(proof.format_certificate(proof.extract_certificate(r.state)))
    assert "%d certificates checked" % len(texts) in out
    assert fuzz_digest(out) == hashlib.sha256("".join(texts).encode()).hexdigest()


@pytest.mark.parametrize(
    "garble, reason",
    [
        # a step whose hint is the empty clause before it: derived, but last
        (
            lambda text: text + "r 1 0 %d 0\n" % len(text.splitlines()),
            "trace does not end in the empty clause",
        ),
        (lambda text: text.replace("r ", "x ", 1), "unknown line kind 'x'"),
    ],
)
def test_fuzz_checks_the_text(monkeypatch, capsys, garble, reason):
    # solve --cert and check pass a certificate on as text, so fuzz
    # checks what comes back from it
    fmt = proof.format_certificate
    monkeypatch.setattr(proof, "format_certificate", lambda cert: garble(fmt(cert)))
    assert main(["fuzz", "--count", "10", "--certify"]) == 1
    out = capsys.readouterr().out
    assert "fuzz failed: 10 instances" in out
    assert "bad certificate: " + reason in out


def test_fuzz_kernel(capsys):
    assert main(["fuzz", "--count", "20", "--certify", "--kernel", "pure"]) == 0
    out = capsys.readouterr().out
    assert "fuzz ok: 20 instances on the pure kernel" in out
    # a compiled run never falls back to the pure kernel, and writes the
    # pure kernel's certificates, hints included, byte for byte
    code = main(["fuzz", "--count", "20", "--certify", "--kernel", "compiled"])
    captured = capsys.readouterr()
    if sat.COMPILED:
        assert code == 0 and "on the compiled kernel" in captured.out
        assert fuzz_digest(captured.out) == fuzz_digest(out)
    else:
        assert code == 1 and "compiled kernel not available" in captured.err
        assert "fuzz ok" not in captured.out
    with pytest.raises(SystemExit) as e:
        main(["fuzz", "--kernel", "fast"])
    assert e.value.code == 2
    capsys.readouterr()


def test_fuzz_negative_count_exit(capsys):
    assert main(["fuzz", "--count", "-3"]) == 1
    captured = capsys.readouterr()
    assert "c error:" in captured.err and "--count" in captured.err
    assert "fuzz ok" not in captured.out


def test_oracle_command(tmp_path, capsys):
    t = write(tmp_path, "t.qdimacs", TRUE_FILE)
    f = write(tmp_path, "f.qdimacs", FALSE_FILE)
    assert main(["oracle", t]) == 10
    assert main(["oracle", f]) == 20
    assert main(["oracle", t, "--method", "expansion"]) == 10
    capsys.readouterr()
    big = Qbf(
        [(EXISTS, list(range(1, 26)))],
        [[v] for v in range(1, 26)],
    )
    bigf = tmp_path / "big.qdimacs"
    bigf.write_text(qdimacs.write(big))
    assert main(["oracle", str(bigf)]) == 1
    assert "c error:" in capsys.readouterr().err


def test_solver_options_accepted(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    code = main(
        [
            "solve",
            f,
            "--reset-period",
            "1",
            "--verify-invariants",
            "--kernel",
            "pure",
            "--quiet",
        ]
    )
    assert code == 10
    capsys.readouterr()


def test_compiled_kernel_flag(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    code = main(["solve", f, "--kernel", "compiled", "--quiet"])
    capsys.readouterr()
    if sat.COMPILED:
        assert code == 10
    else:
        assert code == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "qexpand" in capsys.readouterr().out


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("solve", "check", "fuzz", "oracle")


def _subcommand_options():
    """Option strings of every subcommand, --help left out."""
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def _readme_section(title):
    text = README.read_text()
    start = text.index("\n## %s\n" % title)
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def _documented_options():
    """(command or None, option) for every --option in the command line
    and statistics sections; an option belongs to the command named
    last before it in its section, as `qexpand solve` or `solve`."""
    mentions = re.compile(
        r"(?:qexpand |`)(%s)\b|(--[a-z][a-z0-9-]*)" % "|".join(COMMANDS)
    )
    found = []
    for title in ("Command line", "Statistics"):
        command = None
        for m in mentions.finditer(_readme_section(title)):
            if m.group(1):
                command = m.group(1)
            else:
                found.append((command, m.group(2)))
    return found


def test_readme_options_match_parser():
    # every option the README names exists where it names it, and every
    # option of every subcommand is named for that subcommand
    options = _subcommand_options()
    assert set(COMMANDS) == set(options)
    documented = _documented_options()
    for command, opt in documented:
        if command is None:
            assert any(opt in opts for opts in options.values()), opt
        else:
            assert opt in options[command], "%s %s" % (command, opt)
    for command, opts in options.items():
        named = {opt for c, opt in documented if c in (command, None)}
        assert opts <= named, "%s: undocumented %s" % (command, sorted(opts - named))


def test_removed_solve_options_rejected(tmp_path, capsys):
    f = write(tmp_path, "t.qdimacs", TRUE_FILE)
    removed = (("--backend", "bundled"), ("--init-mode", "per-block"), ("--seed", "1"))
    for opt, value in removed:
        with pytest.raises(SystemExit) as e:
            main(["solve", f, opt, value])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
