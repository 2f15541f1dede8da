"""The four workloads: how each writes its inputs, runs its timed job and
checks the job's outputs.

``setup(inputs, seed)`` runs in the benchmark's parent process and writes
every input file under ``inputs``.  ``run(inputs, work, lib)`` is the timed
job; it runs in a fresh process and returns a state dict for ``check``,
which runs untimed afterwards and returns a list of failure messages.
``lib`` holds the library modules; jobs call through module attributes so
the traced run sees them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

from gen import PRIME, Torus, apply_perm, write_columns, write_skinny

# name -> (rows m of each m x 3m matrix, number of matrices, tau).  At
# 1,000 x 3,000 the disk echelon's work (entries out of axpy) varies
# threefold between seeds, so skinny-echelon reduces 32 matrices of
# 200 x 600, whose summed work varies by about a tenth.
SKINNY = {"skinny-snf": (10_000, 1, None), "skinny-echelon": (200, 32, 0)}
TORUS_D, TORUS_K = 3, 6
TORUS_H5, TORUS_H6 = 3, 1
# 64 coboundaries make a torus-hecke job about 4 s long at the nominal host
# speed: long enough to average the host's short phases, and short enough
# for about five jobs in a run, whose median over seeds spread by 0.06;
# with 128 (6 s, three or four jobs a run) it spread by 0.09-0.13.  Each
# is d4 x for an x on COBOUNDARY_EDGES random edges, so the batch stays
# small in memory and peak RSS still reflects the replay.
COBOUNDARIES = 64
COBOUNDARY_EDGES = 32


class Lib:
    """The library modules, imported only in the processes that run jobs."""

    def __init__(self):
        from smithy import cohomo, reduce, sparse
        self.cohomo, self.reduce, self.sparse = cohomo, reduce, sparse


def _mat_vec(a, x: list[int]) -> list[int]:
    p, k, mask = a.spec.p, a.spec.k, a.spec.mask
    out = [0] * a.m
    for j, xj in enumerate(x):
        if xj:
            for e in a.cols[j]:
                out[e >> k] = (out[e >> k] + (e & mask) * xj) % p
    return out


def _matmul(a, b, p):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) % p for j in range(n)]
            for i in range(n)]


# -- skinny-snf, skinny-echelon ------------------------------------------------

def _skinny_paths(name: str, inputs: str) -> list[str]:
    return [os.path.join(inputs, "a-%d.sms" % t) for t in range(SKINNY[name][1])]


def setup_skinny(name: str, inputs: str, seed: int) -> None:
    m = SKINNY[name][0]
    for t, path in enumerate(_skinny_paths(name, inputs)):
        write_skinny(path, m, 3 * m, "%d.%d" % (seed, t))


def run_skinny(name: str, inputs: str, work: str, lib: Lib) -> dict:
    tau = SKINNY[name][2]
    results = []
    for t, path in enumerate(_skinny_paths(name, inputs)):
        a = lib.sparse.read_matrix(path)
        opts = lib.reduce.SnfOptions(
            emit_p=True, emit_q=True, tau=tau, workdir=os.path.join(work, "snf-%d" % t),
            spill_dir=os.path.join(work, "spill"))
        results.append(lib.reduce.snf(a, opts))
    return {"results": results}


def check_skinny(name: str, inputs: str, seed: int, state: dict, lib: Lib) -> list[str]:
    """A x = P D Q x on two random vectors per matrix.  The transcripts hold
    only elementary operations, so P and Q are invertible and this
    certifies the rank as well as the factorization."""
    bad = []
    rng = random.Random("check:%s:%d" % (name, seed))
    for path, res in zip(_skinny_paths(name, inputs), state["results"]):
        a = lib.sparse.read_matrix(path)
        m, n, p = a.m, a.n, a.spec.p
        tag = os.path.basename(path)
        if res.fill_log[-1] != 0:
            bad.append("%s: fill_log ends at %d, not 0" % (tag, res.fill_log[-1]))
        if (res.hnf_stats is not None) != (SKINNY[name][2] is not None):
            bad.append("%s: hnf_stats present=%s" % (tag, res.hnf_stats is not None))
        if res.rank != len(res.diag) or not all(res.diag) or res.rank > min(m, n):
            bad.append("%s: diagonal of length %d with rank %d" % (tag, len(res.diag), res.rank))
        for _ in range(2):
            x = [rng.randrange(p) for _ in range(n)]
            y = res.q.apply_vec(list(x))
            dy = [d * yi % p for d, yi in zip(res.diag, y)] + [0] * (m - res.rank)
            if res.p.apply_vec(dy) != _mat_vec(a, x):
                bad.append("%s: A x != P D Q x" % tag)
    return bad


def fingerprint_skinny(state: dict) -> dict:
    return {"rank": [r.rank for r in state["results"]],
            "diag": [hash(tuple(r.diag)) for r in state["results"]],
            "fill_sum": [sum(r.fill_log) for r in state["results"]],
            "records": [(len(r.p), len(r.q)) for r in state["results"]]}


# -- torus-h5 ----------------------------------------------------------------

def _torus(seed: int) -> Torus:
    return Torus(TORUS_D, TORUS_K, seed)


def setup_torus_h5(inputs: str, seed: int) -> Torus:
    """C^1 -> C^2 -> C^3 of the torus: d4 = delta_1, d5 = delta_2."""
    t = _torus(seed)
    t.write_coboundary(os.path.join(inputs, "d4.sms"), 1)
    t.write_coboundary(os.path.join(inputs, "d5.sms"), 2)
    return t


def run_torus_h5(inputs: str, work: str, lib: Lib) -> dict:
    read = lib.sparse.read_matrix
    d5 = read(os.path.join(inputs, "d5.sms"))
    d4 = read(os.path.join(inputs, "d4.sms"))
    slice_ = lib.cohomo.ComplexSlice(d5, d4)
    return {"ws": lib.cohomo.compute_h5(slice_, os.path.join(work, "ws"), validate=True)}


def _basis(ws) -> list[list[int]]:
    return [ws.basis_column(j) for j in range(ws.h5)]


def check_torus_h5(inputs: str, seed: int, state: dict, lib: Lib) -> list[str]:
    ws = state["ws"]
    if (ws.h5, ws.h6) != (TORUS_H5, TORUS_H6):
        return ["(h5, h6) = (%d, %d), want (%d, %d)" % (ws.h5, ws.h6, TORUS_H5, TORUS_H6)]
    bad = []
    d5 = lib.sparse.read_matrix(os.path.join(inputs, "d5.sms"))
    for j, z in enumerate(_basis(ws)):
        if any(_mat_vec(d5, z)):
            bad.append("basis column %d is not a cocycle" % j)
        e = [1 if t == j else 0 for t in range(ws.h5)]
        if lib.cohomo.reduce_cocycle(ws, z) != e:
            bad.append("basis column %d does not reduce to e_%d" % (j, j))
    return bad


def fingerprint_torus_h5(state: dict) -> dict:
    ws = state["ws"]
    return {"rho5": ws.rho5, "rho_eta": ws.rho_eta, "h5": ws.h5, "h6": ws.h6,
            "basis": hash(tuple(tuple(c) for c in ws.basis.cols))}


# -- torus-hecke ---------------------------------------------------------------

def setup_torus_hecke(inputs: str, seed: int) -> None:
    """The torus-h5 inputs, the workspace written by the command line's
    cohomology step in its own process, the pull-back permutations of
    2-cochains and a seeded batch of coboundaries."""
    t = setup_torus_h5(inputs, seed)
    maps = [t.pullback(2, t.translate(v)) for v in t.unit_translations()]
    maps.append(t.pullback(2, t.rotate()))
    rng = random.Random("coboundaries:%d" % seed)
    d4 = t.coboundary_columns(1, PRIME)
    cobs = []
    for _ in range(COBOUNDARIES):
        y = [0] * t.size(2)
        for j in rng.sample(range(len(d4)), COBOUNDARY_EDGES):
            xj = rng.randrange(1, PRIME)
            for i, v in d4[j]:
                y[i] = (y[i] + v * xj) % PRIME
        cobs.append([(i, v) for i, v in enumerate(y) if v])
    write_columns(os.path.join(inputs, "coboundaries.sms"), t.size(2), COBOUNDARIES,
                  PRIME, cobs)
    with open(os.path.join(inputs, "maps.json"), "w") as f:
        json.dump(maps, f)
    cli = subprocess.run(
        [sys.executable, "-m", "smithy.cli", "cohomology",
         os.path.join(inputs, "d5.sms"), os.path.join(inputs, "d4.sms"),
         "--workdir", os.path.join(inputs, "ws")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=150)
    if cli.returncode != 0:
        raise RuntimeError("cohomology step exited %d: %s" % (cli.returncode, cli.stderr))


def run_torus_hecke(inputs: str, work: str, lib: Lib) -> dict:
    cohomo = lib.cohomo
    with open(os.path.join(inputs, "maps.json")) as f:
        maps = json.load(f)
    ws = cohomo.load_workspace(os.path.join(inputs, "ws"))
    basis = _basis(ws)
    mats = [cohomo.hecke_matrix(ws, [apply_perm(perm, z) for z in basis])
            for perm in maps]
    cob = lib.sparse.read_matrix(os.path.join(inputs, "coboundaries.sms"), ws.basis.spec)
    k, mask = cob.spec.k, cob.spec.mask
    reduced = []
    for col in cob.cols:
        y = [0] * ws.n5
        for e in col:
            y[e >> k] = e & mask
        reduced.append(cohomo.reduce_cocycle(ws, y))
    return {"ws": ws, "mats": mats, "reduced": reduced}


def check_torus_hecke(inputs: str, seed: int, state: dict, lib: Lib) -> list[str]:
    """Translations are homotopic to the identity, so they act as I; the
    coordinate rotation has order 3 and permutes the three 2-forms
    dx_i ^ dx_j cyclically, so its matrix T has T^3 = I and trace 0."""
    ws, mats = state["ws"], [m.to_dense() for m in state["mats"]]
    p = ws.basis.spec.p
    h = ws.h5
    eye = [[1 if i == j else 0 for j in range(h)] for i in range(h)]
    bad = []
    if h != TORUS_H5:
        return ["h5 = %d, want %d" % (h, TORUS_H5)]
    for t, m in enumerate(mats[:-1]):
        if m != eye:
            bad.append("translation %d acts as %r, not I" % (t, m))
    rot = mats[-1]
    if _matmul(_matmul(rot, rot, p), rot, p) != eye:
        bad.append("rotation T has T^3 != I")
    if sum(rot[i][i] for i in range(h)) % p:
        bad.append("rotation T has nonzero trace")
    if any(any(s) for s in state["reduced"]):
        bad.append("a coboundary reduced to a nonzero class")
    return bad


def fingerprint_torus_hecke(state: dict) -> dict:
    return {"mats": [m.to_dense() for m in state["mats"]],
            "reduced": state["reduced"]}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[str, int], object]
    run: Callable[[str, str, Lib], dict]
    check: Callable[[str, int, dict, Lib], list[str]]
    fingerprint: Callable[[dict], dict]
    # the workload whose job makes the same library calls as this one's
    # set-up; a traced run traces it once, so set-up's layers show too
    traced_setup: str | None = None


WORKLOADS = {w.name: w for w in (
    Workload("skinny-snf",
             partial(setup_skinny, "skinny-snf"), partial(run_skinny, "skinny-snf"),
             partial(check_skinny, "skinny-snf"), fingerprint_skinny),
    Workload("skinny-echelon",
             partial(setup_skinny, "skinny-echelon"), partial(run_skinny, "skinny-echelon"),
             partial(check_skinny, "skinny-echelon"), fingerprint_skinny),
    Workload("torus-h5",
             setup_torus_h5, run_torus_h5, check_torus_h5, fingerprint_torus_h5),
    Workload("torus-hecke",
             setup_torus_hecke, run_torus_hecke, check_torus_hecke,
             fingerprint_torus_hecke, traced_setup="torus-h5"),
)}
