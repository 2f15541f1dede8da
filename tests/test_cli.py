import os
import shutil
import subprocess
import sys

import pytest

import smithy
from smithy import FieldSpec, SparseMatrix, write_matrix
from smithy.cli import EXIT_PARSE, main

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture30x40.sms")
FIXTURE_RANK = 29  # dense-oracle rank of the frozen 30x40 sample


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_report(out):
    d = {}
    for line in out.splitlines():
        k, _, v = line.partition(": ")
        d[k] = v
    return d


def write_circle(dirpath, p=7):
    spec = FieldSpec(p)
    d5 = os.path.join(dirpath, "d5.in.sms")
    d4 = os.path.join(dirpath, "d4.in.sms")
    write_matrix(SparseMatrix(1, 3, spec), d5)
    write_matrix(SparseMatrix.from_dense(
        [[p - 1, 1, 0], [0, p - 1, 1], [1, 0, p - 1]], spec), d4)
    return d5, d4


def write_column(path, values, p=7):
    rows = [[v % p] for v in values]
    write_matrix(SparseMatrix.from_dense(rows, FieldSpec(p)), path)


def test_snf_fixture(tmp_path, capsys):
    wd = str(tmp_path / "wd")
    code, out, _ = run(capsys, "snf", FIXTURE, "--workdir", wd,
                       "--emit-p", "--emit-q")
    assert code == 0
    rep = parse_report(out)
    assert rep["m"] == "30" and rep["n"] == "40"
    assert rep["rank"] == str(FIXTURE_RANK)
    assert rep["nnz"] == "86"
    assert int(rep["peakActive"]) >= 86
    assert os.path.exists(os.path.join(wd, "d.sms"))
    assert os.path.exists(rep["pTranscript"])
    assert os.path.exists(rep["qTranscript"])
    assert "diskEchelonAt" not in rep


def test_snf_tau_and_fill_log(tmp_path, capsys):
    wd = str(tmp_path / "wd")
    fill = str(tmp_path / "fill.txt")
    code, out, _ = run(capsys, "snf", FIXTURE, "--workdir", wd,
                       "--tau", "5", "--fill-log", fill)
    assert code == 0
    rep = parse_report(out)
    assert rep["rank"] == str(FIXTURE_RANK)
    assert "diskEchelonAt" in rep
    counts = [int(x) for x in open(fill).read().split()]
    assert counts[-1] == 0


def test_snf_deterministic_report(tmp_path, capsys):
    keys = ("m", "n", "rank", "nnz", "peakActive")
    reports = []
    for tag in ("a", "b"):
        code, out, _ = run(capsys, "snf", FIXTURE,
                           "--workdir", str(tmp_path / tag))
        assert code == 0
        rep = parse_report(out)
        reports.append(tuple(rep[k] for k in keys))
    assert reports[0] == reports[1]


def test_snf_prime_mismatch(tmp_path, capsys):
    code, _, err = run(capsys, "snf", FIXTURE, "--prime", "7",
                       "--workdir", str(tmp_path / "wd"))
    assert code == 3
    assert "parse error" in err


def test_snf_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "snf", str(tmp_path / "nope.sms"),
                       "--workdir", str(tmp_path / "wd"))
    assert code == 3


def test_snf_malformed_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.sms"
    bad.write_text("2 2 7\n1 1 junk\n0 0 0\n")
    code, _, err = run(capsys, "snf", str(bad),
                       "--workdir", str(tmp_path / "wd"))
    assert code == 3
    assert "line 2" in err


def test_cohomology_and_reduce_workflow(tmp_path, capsys):
    d5, d4 = write_circle(str(tmp_path))
    wd = str(tmp_path / "ws")
    code, out, _ = run(capsys, "cohomology", d5, d4, "--workdir", wd)
    assert code == 0
    rep = parse_report(out)
    assert rep == {"n5": "3", "rho5": "0", "rhoEta": "2", "h5": "1",
                   "h6": "1"}

    ws = smithy.load_workspace(wd)
    z1 = ws.basis_column(0)
    zfile = str(tmp_path / "z1.sms")
    write_column(zfile, z1)
    code, out, _ = run(capsys, "reduce", wd, zfile)
    assert code == 0
    assert parse_report(out) == {"s1": "1"}

    cfile = str(tmp_path / "cob.sms")
    write_column(cfile, [6, 1, 0])  # coboundary of (1, 0, 0)
    code, out, _ = run(capsys, "reduce", wd, cfile)
    assert code == 0
    assert parse_report(out) == {"s1": "0"}

    short = str(tmp_path / "short.sms")
    write_column(short, [1, 0])
    code, _, err = run(capsys, "reduce", wd, short)
    assert code == 4
    assert "shape error" in err


def test_cohomology_requires_workdir(tmp_path, capsys):
    d5, d4 = write_circle(str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", d5, d4])
    assert exc.value.code == 2


def test_cohomology_rejects_small_primes(tmp_path, capsys):
    d5, d4 = write_circle(str(tmp_path), p=5)
    code, _, err = run(capsys, "cohomology", d5, d4,
                       "--workdir", str(tmp_path / "ws"))
    assert code == 3
    assert "2, 3, 5" in err


def test_cohomology_not_a_complex(tmp_path, capsys):
    spec = FieldSpec(7)
    d5 = str(tmp_path / "t.sms")
    d4 = str(tmp_path / "b.sms")
    write_matrix(SparseMatrix.from_dense([[1, 1]], spec), d5)
    write_matrix(SparseMatrix.from_dense([[1], [0]], spec), d4)
    code, _, err = run(capsys, "cohomology", d5, d4,
                       "--workdir", str(tmp_path / "ws"))
    assert code == 5
    assert "not a complex" in err


def test_cohomology_shape_mismatch(tmp_path, capsys):
    spec = FieldSpec(7)
    d5 = str(tmp_path / "t.sms")
    d4 = str(tmp_path / "b.sms")
    write_matrix(SparseMatrix(2, 3, spec), d5)
    write_matrix(SparseMatrix(4, 2, spec), d4)
    code, _, err = run(capsys, "cohomology", d5, d4,
                       "--workdir", str(tmp_path / "ws"))
    assert code == 4


def test_reduce_not_a_cocycle(tmp_path, capsys):
    spec = FieldSpec(7)
    d5 = str(tmp_path / "t.sms")
    d4 = str(tmp_path / "b.sms")
    write_matrix(SparseMatrix.from_dense([[1, 0]], spec), d5)
    write_matrix(SparseMatrix(2, 1, spec), d4)
    wd = str(tmp_path / "ws")
    code, _, _ = run(capsys, "cohomology", d5, d4, "--workdir", wd)
    assert code == 0
    yfile = str(tmp_path / "y.sms")
    write_column(yfile, [1, 0])
    code, _, err = run(capsys, "reduce", wd, yfile)
    assert code == 6
    assert "not a cocycle" in err


def test_reduce_incomplete_workspace(tmp_path, capsys):
    d5, d4 = write_circle(str(tmp_path))
    wd = str(tmp_path / "ws")
    code, _, _ = run(capsys, "cohomology", d5, d4, "--workdir", wd)
    assert code == 0
    zfile = str(tmp_path / "z1.sms")
    write_column(zfile, smithy.load_workspace(wd).basis_column(0))
    spec = FieldSpec(7)
    bad = smithy.ComplexSlice(SparseMatrix.from_dense([[1, 1, 0]], spec),
                              SparseMatrix.from_dense([[1], [0], [0]], spec))
    with pytest.raises(smithy.NotAComplexError):
        smithy.compute_h5(bad, wd, validate=False)
    code, _, err = run(capsys, "reduce", wd, zfile)
    assert code == EXIT_PARSE
    assert "io error" in err


def test_predict_prime(capsys):
    code, out, _ = run(capsys, "predict", "53")
    assert code == 0
    rep = parse_report(out)
    assert rep["p3Size"] == "151740"
    assert (rep["n6Est"], rep["n5Est"], rep["n4Est"]) == \
        ("1581", "15174", "52688")
    assert rep["dimP3"] == "5"
    assert rep["dimP3G"] == "5"
    assert rep["dimP3nG"] == "0"


def test_predict_composite(capsys):
    code, out, _ = run(capsys, "predict", "210")
    assert code == 0
    rep = parse_report(out)
    assert rep["p3Size"] == "37440000"
    assert "dimP3" not in rep


def test_predict_bad_level(capsys):
    code, _, _ = run(capsys, "predict", "1")
    assert code == 3


def test_check_table_bundled(capsys):
    code, out, _ = run(capsys, "check-table")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 26
    assert all(l.endswith("pass") for l in lines[:-1])
    assert lines[-1] == "result: 25/25 pass"


def test_check_table_mismatch(tmp_path, capsys):
    bad = tmp_path / "t.csv"
    bad.write_text("N,s2,s4_0,sl3,pnG,h5\n83,7,7,0,0,22\n89,7,8,2,1,28\n")
    code, out, _ = run(capsys, "check-table", str(bad))
    assert code == 1
    rep = parse_report(out)
    assert rep["row83"].startswith("FAIL predicted 21")
    assert rep["row89"] == "pass"
    assert rep["result"] == "1/2 pass"


def test_check_table_malformed(tmp_path, capsys):
    bad = tmp_path / "t.csv"
    bad.write_text("wrong,header\n1,2\n")
    code, _, _ = run(capsys, "check-table", str(bad))
    assert code == 3


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def declared_script(name):
    """The entry string of ``name`` in pyproject's [project.scripts].

    Parsed from the text: ``tomllib`` is not in Python 3.10.
    """
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pyproject.toml")
    in_table = False
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table:
                key, sep, value = line.partition("=")
                if sep and key.strip() == name:
                    return value.strip().strip('"')
    return None


def test_console_script(tmp_path):
    entry = declared_script("smithy")
    assert entry == "smithy.cli:main"
    module, _, attr = entry.partition(":")
    # What the generated `smithy` wrapper runs, in a fresh interpreter
    # that finds the package under test whether or not it is installed.
    wrapper = [sys.executable, "-c",
               f"import sys; from {module} import {attr}; sys.exit({attr}())"]
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(smithy.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, env.get("PYTHONPATH")]))
    commands = [wrapper]
    installed = shutil.which("smithy")
    if installed:
        commands.append([installed])
    for cmd in commands:
        out = subprocess.run(cmd + ["predict", "53"], capture_output=True,
                             text=True, cwd=tmp_path, env=env)
        assert out.returncode == 0, (cmd, out.stderr)
        assert "p3Size: 151740" in out.stdout
        # main()'s return value becomes the process's exit status.
        out = subprocess.run(cmd + ["predict", "1"], capture_output=True,
                             text=True, cwd=tmp_path, env=env)
        assert out.returncode == EXIT_PARSE, (cmd, out.stderr)
