"""Per-layer spans recorded from outside the library.

The library has no instrumentation of its own, so the traced run replaces
public names with timing wrappers at the place each caller looks them up:
module globals (``smithy.reduce.axpy``, ``smithy.cohomo.snf``, ...) and
class attributes (``Transcript.apply_vec``, ``ComplexSlice.validate``, ...).

Spans nest on a stack.  A span's self time is its duration minus the time
covered by its child spans.  Leaf spans that fire per element (``axpy``,
one decoded transcript record) are aggregated per name instead of stored
one by one, so tracing a run with a million records stays small.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

_clock = time.perf_counter_ns


def _wchar() -> int:
    """Bytes this process has passed to write(2), from /proc/self/io."""
    try:
        with open("/proc/self/io") as f:
            for line in f:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    def __init__(self):
        self.enabled = False
        self._stack: list[list[int]] = []  # child nanoseconds of each open span
        self.total: dict[str, int] = defaultdict(int)
        self.self_: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._pending_bytes: set[str] = set()

    # -- primitives ----------------------------------------------------------

    def _close(self, name: str, dt: int, child: int) -> None:
        self.total[name] += dt
        self.self_[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += dt

    def wrap(self, name: str, fn):
        """fn with a span named name around every call while enabled."""
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                self._close(name, dt, frame[0])

        return traced

    def timed_iter(self, name: str, it):
        """Yield from it, with the time spent inside each next() as a span."""
        it = iter(it)
        try:
            while True:
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    self._close(name, _clock() - t0, 0)
                    self.calls[name] -= 1  # the exhausted next() decoded nothing
                    return
                self._close(name, _clock() - t0, 0)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace the library's public names with traced wrappers, for the
        rest of the process."""
        from smithy import cohomo, reduce, sparse, transcript

        counts = self.counts

        axpy = self.wrap("sparse.axpy", sparse.axpy)

        def counted_axpy(dst, src, s, spec):
            out = axpy(dst, src, s, spec)
            if self.enabled:
                counts["sparse.axpy_out_entries"] += len(out)
            return out

        read = self.wrap("sparse.read_matrix", sparse.read_matrix)

        def counted_read(*args, **kwargs):
            a = read(*args, **kwargs)
            if self.enabled:
                counts["sparse.entries_parsed"] += a.nnz
            return a

        write = self.wrap("sparse.write_matrix", sparse.write_matrix)
        snf = self.wrap("reduce.snf", reduce.snf)

        def counted_snf(a, opts=None):
            if not self.enabled:
                return snf(a, opts)
            w0 = _wchar()
            res = snf(a, opts)
            counts["reduce.io_write_bytes"] += _wchar() - w0
            counts["reduce.pivots"] += res.rank
            counts["reduce.fill_sum"] += sum(res.fill_log)
            counts["reduce.peak_active_nnz"] = max(
                counts["reduce.peak_active_nnz"], max(res.fill_log))
            if res.hnf_stats is not None:
                counts["reduce.hnf_echelon_columns"] += res.hnf_stats.echelon_columns
                counts["reduce.hnf_peak_echelon_nnz"] = max(
                    counts["reduce.hnf_peak_echelon_nnz"],
                    res.hnf_stats.peak_echelon_nnz)
            return res

        for mod in (sparse, reduce, cohomo):
            setattr(mod, "axpy", counted_axpy)
        for mod in (sparse, cohomo):
            setattr(mod, "read_matrix", counted_read)
            setattr(mod, "write_matrix", write)
        for mod in (reduce, cohomo):
            setattr(mod, "snf", counted_snf)
        for name in ("build_eta", "compute_h5", "load_workspace",
                     "reduce_cocycle", "hecke_matrix"):
            setattr(cohomo, name, self.wrap("cohomo." + name, getattr(cohomo, name)))
        setattr(cohomo.ComplexSlice, "validate",
                    self.wrap("cohomo.validate", cohomo.ComplexSlice.validate))

        tr = transcript.Transcript
        create = tr.__dict__["create"].__func__
        finalize = tr.finalize
        pending = self._pending_bytes

        def traced_create(cls, path, *args, **kwargs):
            t = create(cls, path, *args, **kwargs)
            if self.enabled:
                pending.add(t.path)
            return t

        def traced_finalize(t):
            out = finalize(t)
            if t.path in pending:
                pending.discard(t.path)
                counts["transcript.bytes_written"] += os.path.getsize(t.path)
            return out

        records, records_reversed = tr.records, tr.records_reversed
        setattr(tr, "create", classmethod(traced_create))
        setattr(tr, "finalize", traced_finalize)
        setattr(tr, "open", classmethod(
            self.wrap("transcript.open", tr.__dict__["open"].__func__)))
        setattr(tr, "append", self.wrap("transcript.append", tr.append))
        setattr(tr, "records", lambda t: self.timed_iter(
            "transcript.decode", records(t)))
        setattr(tr, "records_reversed", lambda t: self.timed_iter(
            "transcript.decode", records_reversed(t)))
        for name in ("apply_vec", "apply_mat_left", "apply_mat_right"):
            setattr(tr, name, self.wrap("transcript.apply", getattr(tr, name)))

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float | int]:
        s = 1e-9
        tot, slf, calls, counts = self.total, self.self_, self.calls, self.counts
        return {
            "sparse.read_matrix_s": tot["sparse.read_matrix"] * s,
            "sparse.write_matrix_s": tot["sparse.write_matrix"] * s,
            "sparse.entries_parsed": counts["sparse.entries_parsed"],
            "sparse.axpy_s": tot["sparse.axpy"] * s,
            "sparse.axpy_calls": calls["sparse.axpy"],
            "sparse.axpy_out_entries": counts["sparse.axpy_out_entries"],
            "reduce.snf_s": tot["reduce.snf"] * s,
            "reduce.snf_self_s": slf["reduce.snf"] * s,
            "reduce.pivots": counts["reduce.pivots"],
            "reduce.peak_active_nnz": counts["reduce.peak_active_nnz"],
            "reduce.fill_sum": counts["reduce.fill_sum"],
            "reduce.hnf_echelon_columns": counts["reduce.hnf_echelon_columns"],
            "reduce.hnf_peak_echelon_nnz": counts["reduce.hnf_peak_echelon_nnz"],
            "reduce.io_write_bytes": counts["reduce.io_write_bytes"],
            "transcript.append_s": tot["transcript.append"] * s,
            "transcript.records_written": calls["transcript.append"],
            "transcript.bytes_written": counts["transcript.bytes_written"],
            "transcript.open_s": tot["transcript.open"] * s,
            "transcript.decode_s": tot["transcript.decode"] * s,
            "transcript.records_decoded": calls["transcript.decode"],
            "transcript.apply_s": slf["transcript.apply"] * s,
            "cohomo.validate_s": tot["cohomo.validate"] * s,
            "cohomo.build_eta_s": tot["cohomo.build_eta"] * s,
            "cohomo.compute_h5_self_s": slf["cohomo.compute_h5"] * s,
            "cohomo.load_workspace_s": tot["cohomo.load_workspace"] * s,
            "cohomo.reduce_cocycle_s": tot["cohomo.reduce_cocycle"] * s,
            "cohomo.reductions": calls["cohomo.reduce_cocycle"],
            "cohomo.hecke_matrix_s": tot["cohomo.hecke_matrix"] * s,
            "trace.unattributed_s": slf["job"] * s,
        }


# metrics that count work rather than time; they must repeat exactly
EXACT_COUNTS = (
    "sparse.entries_parsed", "sparse.axpy_calls", "sparse.axpy_out_entries",
    "reduce.pivots", "reduce.peak_active_nnz", "reduce.fill_sum",
    "reduce.hnf_echelon_columns", "reduce.hnf_peak_echelon_nnz",
    "reduce.io_write_bytes", "transcript.records_written",
    "transcript.bytes_written", "transcript.records_decoded",
    "cohomo.reductions",
)
# exact counts that are a maximum rather than a sum
PEAK_COUNTS = ("reduce.peak_active_nnz", "reduce.hnf_peak_echelon_nnz")
