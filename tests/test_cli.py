import json

import pytest

from qexpand import qdimacs, sat
from qexpand.cli import main
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


def test_missing_file(capsys):
    assert main(["solve", "/nonexistent/foo.qdimacs"]) == 1
    assert "c error:" in capsys.readouterr().err


def test_free_variable_warning(tmp_path, capsys):
    f = write(tmp_path, "free.qdimacs", "p cnf 2 1\na 1 0\n1 2 0\n")
    assert main(["solve", f]) == 10
    assert "c warning:" in capsys.readouterr().out
    assert main(["solve", f, "--quiet"]) == 10
    assert "warning" not in capsys.readouterr().out


def test_fuzz(capsys):
    assert main(["fuzz", "--count", "25", "--certify"]) == 0
    out = capsys.readouterr().out
    assert "fuzz ok: 25 instances" in out
    assert "certificates checked" in out


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
            "--init-mode",
            "all-true",
            "--verify-invariants",
            "--seed",
            "3",
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


def test_external_backend_cli(tmp_path, capsys):
    import qexpand

    src = qexpand.__path__[0].rsplit("/qexpand", 1)[0]
    stub = tmp_path / "stub_solver.py"
    stub.write_text(
        "#!/usr/bin/env python3\n"
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from qexpand import _cdcl_py\n"
        "lits, clauses, nv = [], [], 0\n"
        "for line in open(sys.argv[1]):\n"
        "    t = line.split()\n"
        "    if not t or t[0] in ('c', 'p'):\n"
        "        if t and t[0] == 'p':\n"
        "            nv = int(t[2])\n"
        "        continue\n"
        "    for x in map(int, t):\n"
        "        if x == 0:\n"
        "            clauses.append(tuple(lits)); lits = []\n"
        "        else:\n"
        "            lits.append(x)\n"
        "k = _cdcl_py.Kernel()\n"
        "k.ensure_vars(nv)\n"
        "for c in clauses:\n"
        "    k.add_clause(c)\n"
        "if k.solve() == _cdcl_py.SAT:\n"
        "    print('s SATISFIABLE')\n"
        "    print('v ' + ' '.join(str(v if k.model[v] else -v)\n"
        "          for v in range(1, nv + 1)) + ' 0')\n"
        "    sys.exit(10)\n"
        "print('s UNSATISFIABLE')\n"
        "sys.exit(20)\n" % src
    )
    stub.chmod(0o755)
    f = write(tmp_path, "f.qdimacs", FALSE_FILE)
    cert = tmp_path / "ext.cert"
    code = main(
        ["solve", f, "--backend", "external:%s" % stub, "--cert", str(cert)]
    )
    capsys.readouterr()
    assert code == 20
    assert main(["check", f, str(cert)]) == 0
    capsys.readouterr()


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "qexpand" in capsys.readouterr().out
