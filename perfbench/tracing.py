"""Outside-in layer tracing for the benchmark's traced runs.

``Tracer.installed()`` replaces cycbar's public functions, wherever a
module has bound them, with wrappers that record one span per call and
read counts from the call's inputs and return value; leaving the block
puts the originals back.  Nothing under ``src/`` knows about it.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until ``write``.  Counting
runs after its span has closed and is itself recorded as a
``trace.count`` span under the same parent, so it is charged to no
layer's self time.
"""

import json
from contextlib import contextmanager
from time import perf_counter

import cycbar
import cycbar.cli
import cycbar.cyclic_bar
import cycbar.homology
import cycbar.monoid
import cycbar.tate_tp

MODULES = (cycbar, cycbar.cli, cycbar.cyclic_bar, cycbar.homology, cycbar.monoid, cycbar.tate_tp)

TIMED_LAYERS = (
    "cli",
    "homology.verify",
    "homology.reduce",
    "homology.snf",
    "homology.build",
    "homology.dd",
    "cyclic_bar.enumerate",
    "cyclic_bar.identities",
    "cyclic_bar.closure",
    "tate_tp.verdict",
    "tate_tp.exponent_sup",
    "tate_tp.relative_tp",
    "monoid.construct",
)

COUNTS = (
    "homology.snf.calls",
    "homology.snf.dense_entries",
    "homology.snf.nnz",
    "homology.snf.max_side",
    "homology.snf.nonunit_factors",
    "homology.build.nnz",
    "homology.build.faces",
    "cyclic_bar.enumerate.calls",
    "cyclic_bar.enumerate.cells",
    "cyclic_bar.identities.simplices",
    "cyclic_bar.closure.cells",
    "tate_tp.relative_tp.factors",
    "cli.output_bytes",
)


def _count_snf(c, args, out):
    (matrix,) = args
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    c["homology.snf.calls"] += 1
    c["homology.snf.dense_entries"] += rows * cols
    c["homology.snf.nnz"] += sum(cols - row.count(0) for row in matrix)
    c["homology.snf.max_side"] = max(c["homology.snf.max_side"], rows, cols)
    c["homology.snf.nonunit_factors"] += sum(1 for d in out if d > 1)


def _count_build(c, args, out):
    c["homology.build.nnz"] += sum(len(b) for b in out.boundaries)
    # every face of every l-simplex, l >= 1, is one attempt at a nonzero
    c["homology.build.faces"] += sum((l + 1) * len(b) for l, b in enumerate(out.bases) if l)


def _count_enumerate(c, args, out):
    c["cyclic_bar.enumerate.calls"] += 1
    c["cyclic_bar.enumerate.cells"] += sum(out.degree_counts())


def _count_identities(c, args, out):
    c["cyclic_bar.identities.simplices"] += out[0]


def _count_closure(c, args, out):
    c["cyclic_bar.closure.cells"] += sum(out.degree_counts())


def _count_relative_tp(c, args, out):
    c["tate_tp.relative_tp.factors"] += len(out.factors)


# (owner, attribute, span name, counter); owners that a module no longer
# has are skipped, so the tracer keeps working when the program changes
TARGETS = (
    (cycbar.cli, "main", "cli", None),
    (cycbar.homology, "verify_weight_piece", "homology.verify", None),
    (cycbar.homology, "homology_groups", "homology.reduce", None),
    (cycbar.homology, "smith_normal_form", "homology.snf", _count_snf),
    (cycbar.homology, "chain_complex", "homology.build", _count_build),
    (cycbar.homology.ChainComplex, "boundary_composes_to_zero", "homology.dd", None),
    (cycbar.cyclic_bar.CyclicBar, "enumerate_weight_component", "cyclic_bar.enumerate", _count_enumerate),
    (cycbar.cyclic_bar.CyclicBar, "generated_cyclic_subset", "cyclic_bar.closure", _count_closure),
    (cycbar.cyclic_bar, "identity_report", "cyclic_bar.identities", _count_identities),
    (cycbar.tate_tp, "nil_invariance_report", "tate_tp.verdict", None),
    (cycbar.tate_tp, "exponent_sup", "tate_tp.exponent_sup", None),
    (cycbar.tate_tp, "relative_tp", "tate_tp.relative_tp", _count_relative_tp),
    (cycbar.monoid, "truncated_monoid", "monoid.construct", None),
)


def _ratio(a, b):
    return a / b if b else 0.0


def count_metrics(c):
    """The reported counts and ratios, as name: (value, unit)."""
    out = {name: (c[name], "count") for name in COUNTS if name not in ("homology.snf.nnz", "homology.build.faces")}
    out["cli.output_bytes"] = (c["cli.output_bytes"], "bytes")
    out["homology.snf.density"] = (_ratio(c["homology.snf.nnz"], c["homology.snf.dense_entries"]), "ratio")
    out["homology.build.face_yield"] = (_ratio(c["homology.build.nnz"], c["homology.build.faces"]), "ratio")
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), None, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                t0 = perf_counter()
                count(counts, args, out)
                spans.append(["trace.count", t0, perf_counter(), parent])
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target wherever it is bound; restore on exit."""
        saved = []
        for owner, attr, name, count in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            wrapped = self._wrap(fn, name, count)
            holders = [owner] + [m for m in MODULES if m is not owner and getattr(m, attr, None) is fn]
            for holder in holders:
                saved.append((holder, attr, fn))
                setattr(holder, attr, wrapped)
        try:
            yield self
        finally:
            for holder, attr, fn in reversed(saved):
                setattr(holder, attr, fn)

    def self_times(self):
        """Seconds per span name, each span less the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(TIMED_LAYERS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            if name in out:
                out[name] += end - start - covered
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
