import ast
import os
import shutil
import subprocess
import sys
import tempfile
import zlib

import pytest

import smithy
from smithy import FieldSpec, SparseMatrix, write_matrix
from smithy.cli import EXIT_PARSE, main

from conftest import trn_chunk, trn_header, trn_resigned, trn_signed

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
    assert rep["searchedPivots"] == str(smithy.snf(smithy.read_matrix(FIXTURE)).searched)
    assert os.path.exists(os.path.join(wd, "d.sms"))
    assert os.path.exists(rep["pTranscript"])
    assert os.path.exists(rep["qTranscript"])
    assert "diskEchelonAt" not in rep


def test_snf_default_workdir(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code, out, _ = run(capsys, "snf", FIXTURE)
    assert code == 0
    wd = parse_report(out)["workdir"]
    assert os.path.dirname(wd) == str(tmp_path)
    assert os.listdir(wd) == ["d.sms"]


def test_snf_tau_and_fill_log(tmp_path, capsys):
    wd = str(tmp_path / "wd")
    fill = str(tmp_path / "fill.txt")
    code, out, _ = run(capsys, "snf", FIXTURE, "--workdir", wd,
                       "--tau", "5", "--fill-log", fill)
    assert code == 0
    rep = parse_report(out)
    assert rep["rank"] == str(FIXTURE_RANK)
    assert "diskEchelonAt" in rep
    # the run's counts, one line per pivot plus one, ending at 0
    res = smithy.snf(smithy.read_matrix(FIXTURE), smithy.SnfOptions(tau=5))
    with open(fill, newline="") as f:
        assert f.read() == "".join("%d\n" % active for active in res.fill_log)
    assert len(res.fill_log) == FIXTURE_RANK + 1 and res.fill_log[-1] == 0
    assert rep["peakActive"] == str(max(res.fill_log))


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
    # a negative dimension is the header's parse error, not a shape error
    bad.write_text("-1 2 7\n0 0 0\n")
    code, _, err = run(capsys, "snf", str(bad),
                       "--workdir", str(tmp_path / "wd"))
    assert code == 3
    assert "line 1: negative dimension" in err
    # a byte that is not UTF-8 is a parse error at its line
    bad.write_bytes(b"2 2 7\n1 1 \xff\n0 0 0\n")
    code, _, err = run(capsys, "snf", str(bad),
                       "--workdir", str(tmp_path / "wd"))
    assert code == 3
    assert "parse error: line 2" in err
    # a modulus of 61 bits is refused by its width, at once
    bad.write_text("3 3 2305843009213693951\n0 0 0\n")
    code, _, err = run(capsys, "snf", str(bad),
                       "--workdir", str(tmp_path / "wd"))
    assert code == 3
    assert "parse error: line 1: modulus must be below 2**15" in err


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


def test_reduce_many_cocycles(tmp_path, capsys):
    d5, d4 = write_circle(str(tmp_path))
    wd = str(tmp_path / "ws")
    assert run(capsys, "cohomology", d5, d4, "--workdir", wd)[0] == 0
    z1 = smithy.load_workspace(wd).basis_column(0)
    cob = [6, 1, 0]  # coboundary of (1, 0, 0)
    cols = [z1, cob, [(2 * z + c) % 7 for z, c in zip(z1, cob)]]
    three = str(tmp_path / "three.sms")
    write_matrix(SparseMatrix.from_dense([list(r) for r in zip(*cols)],
                                         FieldSpec(7)), three)
    code, out, _ = run(capsys, "reduce", wd, three)
    assert code == 0
    assert out == "c1.s1: 1\nc2.s1: 0\nc3.s1: 2\n"

    for m, k in ((2, 3), (3, 0)):
        bad = str(tmp_path / ("bad%dx%d.sms" % (m, k)))
        write_matrix(SparseMatrix(m, k, FieldSpec(7)), bad)
        code, out, err = run(capsys, "reduce", wd, bad)
        assert (code, out) == (4, "")
        assert "shape error" in err


def test_reduce_many_refuses_one_non_cocycle(tmp_path, capsys):
    spec = FieldSpec(7)
    d5, d4 = str(tmp_path / "t.sms"), str(tmp_path / "b.sms")
    write_matrix(SparseMatrix.from_dense([[1, 0]], spec), d5)
    write_matrix(SparseMatrix(2, 1, spec), d4)
    wd = str(tmp_path / "ws")
    assert run(capsys, "cohomology", d5, d4, "--workdir", wd)[0] == 0
    yfile = str(tmp_path / "y.sms")
    write_matrix(SparseMatrix.from_dense([[0, 1, 0], [1, 0, 3]], spec), yfile)
    code, out, err = run(capsys, "reduce", wd, yfile)
    assert (code, out) == (6, "")
    assert "not a cocycle" in err


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


def f7_workspace(tmp_path, capsys):
    """The workspace of the F7 slice d5 = [[1, 1, 0]], d4 = [[1], [6], [0]]
    and a file holding its cocycle (1, 6, 3), which reduces to s1: 3."""
    d5, d4 = str(tmp_path / "d5.sms"), str(tmp_path / "d4.sms")
    spec = FieldSpec(7)
    write_matrix(SparseMatrix.from_dense([[1, 1, 0]], spec), d5)
    write_matrix(SparseMatrix.from_dense([[1], [6], [0]], spec), d4)
    wd = str(tmp_path / "ws")
    assert run(capsys, "cohomology", d5, d4, "--workdir", wd)[0] == 0
    zfile = str(tmp_path / "z.sms")
    write_column(zfile, [1, 6, 3])
    assert run(capsys, "reduce", wd, zfile)[:2] == (0, "s1: 3\n")
    return wd, zfile


def test_cohomology_refused_tau_leaves_the_workspace(tmp_path, capsys):
    """A negative --tau is refused (exit 3) before the workdir is touched:
    a complete workspace keeps every file byte for byte and still reduces."""
    wd, zfile = f7_workspace(tmp_path, capsys)

    def files():
        return {path.name: path.read_bytes() for path in (tmp_path / "ws").iterdir()}

    before = files()
    assert "meta" in before
    code, out, err = run(capsys, "cohomology", str(tmp_path / "d5.sms"),
                         str(tmp_path / "d4.sms"), "--workdir", wd, "--tau", "-1")
    assert (code, out) == (EXIT_PARSE, "")
    assert "tau must be nonnegative" in err
    assert files() == before
    assert run(capsys, "reduce", wd, zfile)[:2] == (0, "s1: 3\n")


@pytest.mark.parametrize("old,new", [
    ("h6: 0\n", ""),  # a key missing
    ("p: 7\n", "p: 7\np: 7\n"),  # a key repeated
    ("rhoEta: 1\n", "rhoEta: 2\n"),  # h5 != n5 - rho5 - rhoEta
    ("rhoEta: 1\n", "rhoEta: 0\n"),  # likewise, and every shape still fits
    ("n4: 1\n", "n4: -1\n"),  # a negative value
    ("n4: 1\n", "n4: 99999\n"),  # d4.sms has 1 column
], ids=["missing", "repeated", "rhoEta-high", "rhoEta-low", "negative", "n4-vs-d4"])
def test_reduce_refuses_bad_meta(tmp_path, capsys, old, new):
    wd, zfile = f7_workspace(tmp_path, capsys)
    meta = os.path.join(wd, "meta")
    with open(meta) as f:
        text = f.read()
    assert old in text
    with open(meta, "w") as f:
        f.write(text.replace(old, new))
    code, out, err = run(capsys, "reduce", wd, zfile)
    assert (code, out) == (EXIT_PARSE, "")
    assert "invalid input: meta" in err


def grown(data, field):
    """data, a matrix or transcript file, with its header's field (0-based)
    one more."""
    header, _, rest = data.partition(b"\n")
    fields = header.split()
    fields[field] = b"%d" % (int(fields[field]) + 1)
    return b" ".join(fields) + b"\n" + rest


# each names a workspace file and gives it a shape meta does not describe
BAD_SHAPE = {
    "d5-row": ("d5.sms", lambda data: grown(data, 0)),
    "peta-dim": ("peta.trn", lambda data: trn_resigned(grown(data, 2))),
    "basis-column": ("basis.sms", lambda data: grown(data, 1)),
}


@pytest.mark.parametrize("name,damage", BAD_SHAPE.values(), ids=list(BAD_SHAPE))
def test_reduce_refuses_a_file_shaped_unlike_meta(tmp_path, capsys, name, damage):
    wd, zfile = f7_workspace(tmp_path, capsys)
    path = os.path.join(wd, name)
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(damage(data))
    with pytest.raises(ValueError, match="%s does not match meta" % name):
        smithy.load_workspace(wd)
    code, out, err = run(capsys, "reduce", wd, zfile)
    assert (code, out) == (EXIT_PARSE, "")
    assert "%s does not match meta" % name in err


# each takes q5.trn's header line and its one chunk, and the number of
# records, and gives a q5.trn that load_workspace must refuse; the cases of
# the text layout's blank, unknown and D lines map to an empty chunk, text
# bytes and a scalar >= p, and a negative index to the 2**32 - 1 it wraps to
BAD_Q5 = {
    "cut": lambda h, c, n: trn_signed(h + c, n)[:-3],
    "crc": lambda h, c, n: trn_signed(h + c, n)[:-4]
    + (zlib.crc32(h + c) ^ 1).to_bytes(4, "little"),
    "count": lambda h, c, n: trn_signed(h + c, n + 1),
    "after-trailer": lambda h, c, n: trn_signed(h + c, n) + trn_chunk([(0, 1, 0)]),
    "blank-line": lambda h, c, n: trn_signed(h + bytes(4) + c, n),
    "unknown-line": lambda h, c, n: trn_signed(h + c + b"X 0 1\n", n + 1),
    "into-trailer": lambda h, c, n: trn_signed(h + (n + 1).to_bytes(4, "little") + c[4:], n),
    "swap-high": lambda h, c, n: trn_signed(h + c + trn_chunk([(0, 3, 0)]), n + 1),
    "swap-negative": lambda h, c, n: trn_signed(
        h + c + trn_chunk([(2**32 - 1, 0, 0)]), n + 1),
    "write-high": lambda h, c, n: trn_signed(h + c + trn_chunk([(3, 0, 1)]), n + 1),
    "write-negative": lambda h, c, n: trn_signed(
        h + c + trn_chunk([(2**32 - 1, 0, 1)]), n + 1),
    "dilation": lambda h, c, n: trn_signed(h + c + trn_chunk([(0, 1, 7)]), n + 1),
    "row": lambda h, c, n: trn_signed(trn_header("ROW", 3, 7) + c, n),
    "dim": lambda h, c, n: trn_signed(trn_header("COL", 4, 7) + c, n),
    "modulus": lambda h, c, n: trn_signed(trn_header("COL", 3, 11) + c, n),
    "text": lambda h, c, n: b"COL 3 7\nS 0 1\nE 1 %d\n" % zlib.crc32(b"COL 3 7\nS 0 1\n"),
}


@pytest.mark.parametrize("damage", BAD_Q5)
def test_reduce_refuses_bad_q5(tmp_path, capsys, damage):
    """q5.trn is refused by trace_lines, exit 3."""
    wd, zfile = f7_workspace(tmp_path, capsys)
    q5 = os.path.join(wd, "q5.trn")
    with open(q5, "rb") as f:
        data = f.read()
    header = trn_header("COL", 3, 7)
    n = len(smithy.Transcript.open(q5))
    assert data.startswith(header) and 0 < n and int.from_bytes(data[-12:-4], "little") == n
    bad = BAD_Q5[damage](header, data[len(header):-16], n)
    with open(q5, "wb") as f:
        f.write(bad)
    with pytest.raises(ValueError):
        smithy.load_workspace(wd)
    code, out, err = run(capsys, "reduce", wd, zfile)
    assert (code, out) == (EXIT_PARSE, "")
    if damage == "text":
        assert "recompute it" in err


def test_reduce_refuses_q5_short_of_a_huge_n5(tmp_path, capsys):
    """meta and the header of d4.sms agree on an n5 far too large to hold a
    line map for, and q5.trn's header does not: refused by that header
    before anything of size n5 is allocated."""
    wd, zfile = f7_workspace(tmp_path, capsys)
    huge = 10 ** 15
    meta, d4 = os.path.join(wd, "meta"), os.path.join(wd, "d4.sms")
    with open(meta) as f:
        text = f.read()
    assert "n5: 3\n" in text and "h5: 1\n" in text
    with open(meta, "w") as f:
        f.write(text.replace("n5: 3\n", "n5: %d\n" % huge)
                .replace("h5: 1\n", "h5: %d\n" % (huge - 2)))
    with open(d4) as f:
        lines = f.readlines()
    assert lines[0] == "3 1 7\n"
    with open(d4, "w") as f:
        f.writelines(["%d 1 7\n" % huge] + lines[1:])
    with pytest.raises(smithy.TranscriptError):
        smithy.load_workspace(wd)
    code, out, err = run(capsys, "reduce", wd, zfile)
    assert (code, out) == (EXIT_PARSE, "")
    assert "header says COL 3" in err


@pytest.mark.parametrize("argv,stdout", [
    (["cohomology", "d5.sms", "d4.sms", "--workdir", "ws2"],
     "n5: 3\nrho5: 1\nrhoEta: 1\nh5: 1\nh6: 0\n"),
    (["reduce", "ws", "z.sms"], "s1: 3\n"),
    (["snf", "d5.sms", "--tau", "0", "--emit-q", "--workdir", "sw"],
     "m: 1\nn: 3\nrank: 1\nsearchedPivots: 0\nnnz: 2\npeakActive: 2\nworkdir: sw\n"
     "qTranscript: sw/q.trn\ndiskEchelonAt: 0\n"),
], ids=["cohomology", "reduce", "snf-spill"])
def test_reduce_closes_its_files(tmp_path, capsys, argv, stdout):
    """smithy cohomology, smithy reduce and smithy snf through the disk
    echelon (its spill written and read back) on the files of f7_workspace,
    in dev mode, where a file left open is reported."""
    f7_workspace(tmp_path, capsys)
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(smithy.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "smithy.cli",
         *argv], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, stdout, "")


def test_reduce_truncated_transcript(tmp_path, capsys):
    d5, d4 = write_circle(str(tmp_path))
    wd = str(tmp_path / "ws")
    code, _, _ = run(capsys, "cohomology", d5, d4, "--workdir", wd)
    assert code == 0
    zfile = str(tmp_path / "z1.sms")
    write_column(zfile, smithy.load_workspace(wd).basis_column(0))
    peta = os.path.join(wd, "peta.trn")
    assert len(smithy.Transcript.open(peta)) > 1
    with open(peta, "rb") as f:
        data = f.read()
    with open(peta, "wb") as f:
        f.write(data[:-16])  # cut at a chunk boundary: no trailer
    code, out, err = run(capsys, "reduce", wd, zfile)
    assert code == EXIT_PARSE
    assert out == ""
    assert "transcript error" in err


def test_reduce_cut_q5(tmp_path, capsys):
    """reduce no longer replays q5.trn, but still refuses a cut one."""
    spec = FieldSpec(7)
    d5, d4 = str(tmp_path / "t.sms"), str(tmp_path / "b.sms")
    write_matrix(SparseMatrix.from_dense([[1, 1, 0]], spec), d5)
    write_matrix(SparseMatrix.from_dense([[1, 0], [6, 0], [0, 1]], spec), d4)
    wd = str(tmp_path / "ws")
    code, _, _ = run(capsys, "cohomology", d5, d4, "--workdir", wd)
    assert code == 0
    zfile = str(tmp_path / "z1.sms")
    write_column(zfile, [1, 6, 0])
    assert run(capsys, "reduce", wd, zfile)[0] == 0
    q5 = os.path.join(wd, "q5.trn")
    assert [v != 0 for _, _, v in smithy.Transcript.open(q5).records()] == [True]
    with open(q5, "rb") as f:
        data = f.read()
    with open(q5, "wb") as f:
        f.write(data[:-16])
    with pytest.raises(smithy.TranscriptError):
        smithy.load_workspace(wd)
    code, out, err = run(capsys, "reduce", wd, zfile)
    assert code == EXIT_PARSE
    assert out == ""
    assert "transcript error" in err


def test_predict_prime(capsys):
    """The whole report: every key, its value and the order of the lines."""
    code, out, _ = run(capsys, "predict", "53")
    assert code == 0
    assert out.splitlines() == [
        "N: 53", "p3Size: 151740",
        "n6Est: 1581", "n5Est: 15174", "n4Est: 52688",
        "dimP3: 5", "dimP3G: 5", "dimP3nG: 0"]


def test_predict_composite(capsys):
    """A composite level gets the size estimates and no dimensions."""
    code, out, _ = run(capsys, "predict", "210")
    assert code == 0
    assert out.splitlines() == [
        "N: 210", "p3Size: 37440000",
        "n6Est: 390000", "n5Est: 3744000", "n4Est: 13000000"]


def test_predict_bad_level(capsys):
    code, out, err = run(capsys, "predict", "1")
    assert code == 3
    assert out == "" and "level must be at least 2" in err


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


def test_check_table_without_rows(tmp_path, capsys):
    """A table of only its header checks nothing, so it is refused rather
    than reported as 0/0 pass."""
    empty = tmp_path / "t.csv"
    empty.write_text("# no levels yet\nN,s2,s4_0,sl3,pnG,h5\n\n")
    code, out, err = run(capsys, "check-table", str(empty))
    assert code == 3
    assert "pass" not in out
    assert "no rows" in err


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


NO_NUMPY_RUN = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.path.insert(0, sys.argv[1])
from smithy import (ComplexSlice, FieldSpec, SnfOptions, SparseMatrix,
                    compute_h5, reduce_cocycle, snf)
spec = FieldSpec(7)
rows = [[0, 2, 1, 0], [3, 0, 0, 1], [3, 2, 1, 1]]
a = SparseMatrix.from_dense(rows, spec)
res = snf(a, SnfOptions(emit_p=True, emit_q=True, workdir="snf"))
res.q.apply_mat_right(a)
print(res.rank, res.p.apply_mat_left(a).to_dense() == rows)
circle = SparseMatrix.from_dense([[6, 1, 0], [0, 6, 1], [1, 0, 6]], spec)
ws = compute_h5(ComplexSlice(SparseMatrix(1, 3, spec), circle), "ws")
print(ws.h5, reduce_cocycle(ws, ws.basis_column(0)))
"""


def test_library_runs_without_numpy(tmp_path):
    """numpy is a test dependency only: the library runs with it
    unimportable, and pyproject does not require it at run time."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path) as f:
        project = f.read().partition("\n[project]\n")[2].partition("\n[")[0]
    assert "numpy" not in project
    pkg_root = os.path.dirname(os.path.dirname(smithy.__file__))
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_RUN, pkg_root],
                         capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2", "True", "1", "[1]"]


def test_library_imports_no_numpy():
    """Importing the command line, and through the package every library
    module, loads no numpy even where numpy is installed."""
    pkg_root = os.path.dirname(os.path.dirname(smithy.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import smithy.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))", pkg_root],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]"]


def test_core_modules_import_no_level_arithmetic():
    """The reduction core imports nothing from predict, the level
    arithmetic above it; primality lives in gfp, and predict and the
    package export that one function."""
    src = os.path.dirname(smithy.__file__)
    for name in ("gfp", "sparse", "transcript", "reduce", "cohomo"):
        with open(os.path.join(src, name + ".py")) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]  # from . import predict
                assert "predict" not in {n.split(".")[-1] for n in names}, name
    assert smithy.is_prime is smithy.predict.is_prime is smithy.gfp.is_prime


def test_star_import_binds_all():
    """from smithy import * binds exactly smithy.__all__, each name once,
    and each resolves."""
    ns = {}
    exec("from smithy import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(set(smithy.__all__)) == sorted(smithy.__all__)
    assert all(ns[name] is getattr(smithy, name) for name in smithy.__all__)
