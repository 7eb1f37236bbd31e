"""Command line front end.

Commands:

* ``homology``: basis sizes and integral homology of weight components.
  The basis sizes are counted (``cell_counts``) and the groups are read
  off the two critical cells of the a_0 Morse matching
  (``morse_homology``), so no simplex is listed and no matrix reduced.
  A range whose counts fill more than ``HOMOLOGY_COUNT_BUDGET`` entries,
  and a weight whose walk takes more than ``MORSE_FLOW_BUDGET`` faces,
  are refused.
* ``verify``: computed homology of every weight 1..max_i against the
  closed form (Z in degrees 2d, 2d+1, or Z/k in degree 2d+1 when k | i),
  plus the operator-identity and alternating-count suites.  It stays
  exhaustive: it enumerates every simplex and reduces every boundary
  matrix, and refuses, before any of that, a range whose cells weigh
  more than ``VERIFY_WORK_BUDGET``, (l + 1)**3 per cell of degree l.
* ``tp``: the factor table of one degree of the relative periodic
  theory, with truncation notice and verdicts.
* ``verdict``: nil-invariance verdicts for one pair (p, k).
* ``selftest``: the built-in property suite on a fixed small range.

Each handler checks its input and computes its report once, as a JSON
tree, and prints nothing; a text generator bound beside it yields the
text lines from the finished tree, one joined block of rows per 1,024
weights for ``tp``'s table.  ``tp``'s ``factors`` is the one part left
unmade: a ``_FactorTable`` that makes its records from the exponent
rule 1,024 weights at a time while they are written, so no command
holds the table.  ``main`` adds the ``tool`` and ``command``
fields, renders only the format asked for, writes it to stdout or
``--out`` (opened only once the report is ready), and picks the exit
code.  ``--format json`` prints the bytes of
``json.dumps(tree, indent=2, sort_keys=True)`` (sorted keys, so
identical inputs give identical bytes): one ``json.dumps`` call per
top-level value, and one per shape ``(exponent, k | i)`` of ``tp``'s
records, whose text each record of that shape repeats around its weight
in both formats.  Each block of 1,024 records, as JSON or as text rows,
and each other text line is written as it is made.  Exit codes: 0 on
success, 1 when the report's ``ok`` is false (a mathematical check
failed), 2 for usage or validation errors, and for a failed write to
stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import chain
from math import inf

from .cyclic_bar import CyclicBar, cell_counts, weight_identity_violations
from .homology import MORSE_FLOW_BUDGET, ZERO_GROUP, AbelianGroup, chain_complex, morse_homology, verify_weight_piece
from .tate_tp import _exponent, _require_table, nil_invariance_report

__all__ = ["main", "UsageError"]


class UsageError(ValueError):
    """Bad command line input; maps to exit code 2."""


# the most work verify takes on, weighed before any cell is listed: a cell of degree l
# weighs (l + 1)**3, since its identity suite takes ~l**2 faces of l + 1 entries each
VERIFY_WORK_BUDGET = 100_000_000
# the most entries homology's counts fill: cell_counts(k, i) fills (i + 1)**2
HOMOLOGY_COUNT_BUDGET = 2_000_000


def _parse_weight_range(text):
    """A single weight '7' or an inclusive range '1..12'."""
    raw = text.strip()
    try:
        if ".." in raw:
            lo_text, hi_text = raw.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(raw)
    except ValueError:
        raise UsageError(f"cannot parse weight range {text!r}; use N or A..B") from None
    if lo < 0:
        raise UsageError(f"weights must be nonnegative, got {lo}")
    if hi < lo:
        raise UsageError(f"empty weight range {text!r}")
    return lo, hi


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cycbar",
        description="homology of cyclic bar weight components of truncated "
        "polynomial monoids, and the closed-form relative periodic theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt",
            help="report format (default: text)",
        )
        sp.add_argument("--out", default=None, help="write the report to this file")

    sp = sub.add_parser(
        "homology",
        help="homology of weight components, from the two critical cells of the a_0 Morse matching",
        description="Basis sizes of weight components, counted by a recurrence, and their "
        "integral homology, read off the two critical cells of the a_0 Morse matching with one "
        "flow per weight: no simplex is listed and no matrix reduced.  A range of more than "
        f"{HOMOLOGY_COUNT_BUDGET} count entries, (i + 1)**2 per weight, and a weight whose flow "
        f"takes more than {MORSE_FLOW_BUDGET} faces are refused.  verify stays exhaustive.",
    )
    sp.add_argument("--k", type=int, required=True, help="truncation order, >= 2")
    sp.add_argument("--i", required=True, help="weight or inclusive range A..B")
    common(sp)
    sp.set_defaults(handler=cmd_homology, lines=_homology_lines)

    sp = sub.add_parser(
        "verify",
        help="check homology against the closed form, enumerating every simplex and reducing "
        f"every boundary (cells weighing at most {VERIFY_WORK_BUDGET}, (l + 1)**3 each in degree l)",
    )
    sp.add_argument("--k", type=int, required=True, help="truncation order, >= 2")
    sp.add_argument("--max-i", type=int, required=True, help="largest weight checked")
    sp.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for independent weights, at most one per CPU (default: 1)",
    )
    common(sp)
    sp.set_defaults(handler=cmd_verify, lines=_verify_lines)

    sp = sub.add_parser("tp", help="factor table of the relative periodic theory")
    sp.add_argument("--p", type=int, required=True, help="prime")
    sp.add_argument("--k", type=int, required=True, help="truncation order, >= 2")
    sp.add_argument("--j", type=int, required=True, help="degree")
    sp.add_argument("--truncate", type=int, required=True, help="largest weight listed")
    common(sp)
    sp.set_defaults(handler=cmd_tp, lines=_tp_lines)

    sp = sub.add_parser("verdict", help="nil-invariance verdicts")
    sp.add_argument("--p", type=int, required=True, help="prime")
    sp.add_argument("--k", type=int, required=True, help="truncation order, >= 2")
    common(sp)
    sp.set_defaults(handler=cmd_verdict, lines=_verdict_report_lines)

    sp = sub.add_parser("selftest", help="run the built-in property suite")
    common(sp)
    sp.set_defaults(handler=cmd_selftest, lines=_selftest_lines)

    return parser


def _check_args(args):
    """Refuse out-of-range values in a fixed order; parse --i into i_lo, i_hi.

    Each subcommand has only its own options, so an absent one passes.
    """
    given = vars(args)
    if given.get("jobs", 1) < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if given.get("k", 2) < 2:
        raise UsageError(f"--k must be >= 2, got {args.k}")
    if "i" in given:
        lo, hi = args.i_lo, args.i_hi = _parse_weight_range(args.i)
        # the sum of (i + 1)**2 over lo..hi, as 1 + 4 + ... + m**2 = m(m+1)(2m+1)/6
        entries = ((hi + 1) * (hi + 2) * (2 * hi + 3) - lo * (lo + 1) * (2 * lo + 1)) // 6
        if entries > HOMOLOGY_COUNT_BUDGET:
            raise UsageError(
                f"homology --k {args.k} --i {args.i} would fill more than {HOMOLOGY_COUNT_BUDGET} "
                f"count entries: the sum of (i + 1)**2 over its weights is {entries}"
            )
    if given.get("max_i", 1) < 1:
        raise UsageError(f"--max-i must be >= 1, got {args.max_i}")
    if given.get("p", 2) < 2:
        raise UsageError(f"--p must be a prime >= 2, got {args.p}")
    if given.get("truncate", 1) < 1:
        raise UsageError(f"--truncate must be >= 1, got {args.truncate}")


def _group_node(group):
    return {"rank": group.rank, "torsion": list(group.torsion), "name": str(group)}


def _homology_entry(k, i):
    groups = morse_homology(k, i)
    return {
        "i": i,
        "degrees": [
            {"degree": l, "basis_size": size, "homology": _group_node(groups[l])}
            for l, size in enumerate(cell_counts(k, i))
        ],
    }


def _verify_entry(cx):
    rep = verify_weight_piece(cx)
    shown = sorted(
        l
        for l in set(rep.computed) | set(rep.expected)
        if not rep.computed.get(l, ZERO_GROUP).is_trivial
        or not rep.expected.get(l, ZERO_GROUP).is_trivial
    )
    return {
        "i": rep.i,
        "match": rep.matches,
        "mismatched_degrees": list(rep.mismatched_degrees),
        "degrees": [
            {
                "degree": l,
                "computed": _group_node(rep.computed.get(l, ZERO_GROUP)),
                "expected": _group_node(rep.expected.get(l, ZERO_GROUP)),
            }
            for l in shown
        ],
    }


def _weight_check(k, i, dd=False):
    """Every per-weight check at (k, i), from one enumeration and one complex.

    The only place the per-weight rules live.  Weight i >= 1 gets a
    closed-form ``piece`` and an ``euler`` node; ``dd`` is checked only
    when asked for.  The record holds no simplices and no matrices, since
    ``--jobs`` ships it between processes.
    """
    bar = CyclicBar(k)
    wc = bar.enumerate_weight_component(i)
    cx = chain_complex(wc)
    count = wc.alternating_count()
    return {
        "cells": sum(wc.degree_counts()),
        "violations": weight_identity_violations(bar, wc),
        "piece": _verify_entry(cx) if i >= 1 else None,
        "euler": {"i": i, "alternating_count": count, "ok": count == 0} if i >= 1 else None,
        "dd": cx.boundary_composes_to_zero() if dd else None,
    }


def _worker_count(jobs, n_items):
    """Worker processes for n_items independent items; at most one per CPU the process may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(jobs, n_items, cpus or 1)


def _run_jobs(fn, items, jobs):
    items = list(items)
    workers = _worker_count(jobs, len(items))
    if workers > 1:
        # imported on first use: at module level it adds about a quarter to
        # the time a fresh interpreter takes to import this module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _verdict_node(v):
    return {
        "p": v.p,
        "k": v.k,
        "integral_iso": v.integral_iso,
        "p_inverted_iso": v.p_inverted_iso,
        "witness_weight": v.witness_weight,
        "witness_exponent": v.witness_exponent,
        "exponent_sup": "infinity" if v.exponent_sup is inf else v.exponent_sup,
        "remark": v.remark,
    }


def _verdict_lines(node):
    yes_no = {True: "yes", False: "no"}
    return [
        f"  integral isomorphism:  {yes_no[node['integral_iso']]} "
        f"(weight {node['witness_weight']} contributes "
        f"Z/{node['p']}^{node['witness_exponent']})",
        f"  after inverting p:     {yes_no[node['p_inverted_iso']]}",
        f"  exponent supremum:     {node['exponent_sup']}",
        f"  remark: {node['remark']}",
    ]


def cmd_homology(args):
    return {
        "config": {"k": args.k, "i_min": args.i_lo, "i_max": args.i_hi},
        "components": [_homology_entry(args.k, i) for i in range(args.i_lo, args.i_hi + 1)],
    }


def _homology_lines(tree):
    for entry in tree["components"]:
        yield f"weight component k={tree['config']['k']}, i={entry['i']}"
        yield "  degree  basis  homology"
        for row in entry["degrees"]:
            yield (
                f"  {row['degree']:>6} {row['basis_size']:>6}  "
                f"{row['homology']['name']}"
            )


def cmd_verify(args):
    work = 0
    for i in range(args.max_i + 1):
        work += sum(c * (l + 1) ** 3 for l, c in enumerate(cell_counts(args.k, i)))
        if work > VERIFY_WORK_BUDGET:
            raise UsageError(
                f"verify --k {args.k} --max-i {args.max_i} would check more than "
                f"{VERIFY_WORK_BUDGET}: the cells of weights 0..{i} weigh {work}, "
                "(l + 1)**3 each in degree l"
            )
    records = _run_jobs(partial(_weight_check, args.k), range(args.max_i + 1), args.jobs)
    entries = [r["piece"] for r in records if r["piece"]]
    euler = [r["euler"] for r in records if r["euler"]]
    violations = [v for r in records for v in r["violations"]]
    return {
        "config": {"k": args.k, "max_i": args.max_i},
        "weight_pieces": entries,
        "euler": euler,
        "identities": {
            "simplices_checked": sum(r["cells"] for r in records),
            "violations": violations,
        },
        "ok": (
            all(e["match"] for e in entries)
            and all(e["ok"] for e in euler)
            and not violations
        ),
    }


def _verify_lines(tree):
    config, euler, identities = tree["config"], tree["euler"], tree["identities"]
    yield f"verify k={config['k']} for weights 1..{config['max_i']}"
    yield "  sphere-smash closed form:"
    for e in tree["weight_pieces"]:
        if e["match"]:
            # one group per weight in the closed form: Z twice, or Z/k once
            group = e["degrees"][0]["expected"]["name"]
            degs = ", ".join(str(r["degree"]) for r in e["degrees"])
            shown = f"{group} at degree{'s' * (len(e['degrees']) > 1)} {degs}"
            yield f"    i={e['i']:>2}: match  ({shown})"
        else:
            yield f"    i={e['i']:>2}: MISMATCH"
            for r in e["degrees"]:
                yield (
                    f"      degree {r['degree']}: computed "
                    f"{r['computed']['name']}, expected {r['expected']['name']}"
                )
    bad_euler = [e for e in euler if not e["ok"]]
    yield (
        f"  alternating counts: {len(euler)} weights, "
        + ("all zero" if not bad_euler else f"{len(bad_euler)} NONZERO")
    )
    yield (
        f"  operator identities: {identities['simplices_checked']} simplices, "
        f"{len(identities['violations'])} violations"
    )
    yield f"overall: {'PASS' if tree['ok'] else 'FAIL'}"


# weights per chunk: one chunk for the whole table would be a string of
# ~12 MB at --truncate 100000
_RECORD_BLOCK = 1024


class _FactorTable:
    """``tp``'s factor table of an odd degree, made as it is read.

    Iterating yields weights 1..truncate from tate_tp's exponent rule,
    one list of ``(i, shape)`` pairs per ``_RECORD_BLOCK`` weights, so the
    whole table never exists at once.  A record differs from the others
    of its shape ``(exponent, k | i)`` only in its weight, and a table has
    at most 2 * (log_p(truncate) + 1) shapes.  A shape is made once, at
    its first weight: the record's JSON before and after the weight's
    value, and the text row after the weight.
    """

    def __init__(self, p, k, truncate):
        self.p, self.k, self.truncate = p, k, truncate

    def _shape(self, e, divides):
        order = self.p**e
        group = str(AbelianGroup.cyclic(order))
        record = {"i": 0, "k_divides_i": divides, "exponent": e, "order": order, "group": group}
        # a record sits at depth 2 of the report; '"i": 0' occurs once, as
        # the weight's item, since a string value escapes its quotes
        head, tail = json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n    ").split('"i": 0')
        return head + '"i": ', tail, f"  {'yes' if divides else ' no'}  {group} (exponent {e})"

    def __iter__(self):
        p, k, stop = self.p, self.k, self.truncate + 1
        shapes = {}
        for start in range(1, stop, _RECORD_BLOCK):
            block = []
            for i in range(start, min(start + _RECORD_BLOCK, stop)):
                key = _exponent(p, k, i), i % k == 0
                if key not in shapes:
                    shapes[key] = self._shape(*key)
                block.append((i, shapes[key]))
            yield block


def cmd_tp(args):
    """The factor table of degree j, checked now and made only as it is written.

    Every check runs before the report is returned, so nothing can fail
    once writing has started.  Even degrees have an empty table.
    """
    p, k, j, truncate = args.p, args.k, args.j, args.truncate
    _require_table(p, k, j, truncate)
    odd = j % 2 == 1
    return {
        "config": {"p": p, "k": k, "j": j, "truncate": truncate},
        "parity": "odd" if odd else "even",
        "truncated": odd,
        "factors": _FactorTable(p, k, truncate) if odd else [],
        "verdicts": _verdict_node(nil_invariance_report(p, k)),
    }


def _tp_lines(tree):
    config = tree["config"]
    yield (
        f"relative periodic theory for p={config['p']}, k={config['k']}, "
        f"degree j={config['j']}"
    )
    if tree["factors"]:
        yield "  weight  k|i  factor"
        for block in tree["factors"]:
            yield "\n".join([f"  {i:>6}{row}" for i, (_, _, row) in block])
        yield (
            f"  truncated at weight {config['truncate']}; higher weights follow the "
            "same two-case exponent rule"
        )
    else:
        yield "  the group vanishes in even degrees (no factors)"
    yield "verdicts:"
    yield from _verdict_lines(tree["verdicts"])


def cmd_verdict(args):
    return {
        "config": {"p": args.p, "k": args.k},
        "verdicts": _verdict_node(nil_invariance_report(args.p, args.k)),
    }


def _verdict_report_lines(tree):
    config = tree["config"]
    yield f"nil-invariance verdicts for p={config['p']}, k={config['k']}"
    yield from _verdict_lines(tree["verdicts"])


SELFTEST_K = (2, 3, 4)
SELFTEST_MAX_WEIGHT = 10


def cmd_selftest(args):
    """Fold ``_weight_check`` over each (k, i) of the fixed grid.

    A failed check reports its first failing (k, i), k outer and i inner;
    the identities check reports the violation total of the first
    failing k.
    """
    ids, dd, euler, sphere = (
        "operator identities",
        "boundary squares to zero",
        "alternating counts vanish",
        "homology matches the closed form",
    )
    grid = {
        (k, i): _weight_check(k, i, dd=True)
        for k in SELFTEST_K
        for i in range(SELFTEST_MAX_WEIGHT + 1)
    }
    records = grid.values()
    failed = {}
    for (k, i), r in grid.items():
        at = f"at k={k}, i={i}"
        if not r["dd"]:
            failed.setdefault(dd, f"boundary fails to square to zero {at}")
        if r["euler"] and not r["euler"]["ok"]:
            count = r["euler"]["alternating_count"]
            failed.setdefault(euler, f"alternating count {count} {at}")
        if r["piece"] and not r["piece"]["match"]:
            failed.setdefault(sphere, f"homology mismatch {at}")
    for k in SELFTEST_K:
        violations = sum(len(r["violations"]) for (kk, _), r in grid.items() if kk == k)
        if violations:
            failed.setdefault(ids, f"k={k}: {violations} violations")
    passed = {
        ids: f"{sum(r['cells'] for r in records)} simplices checked",
        dd: f"{len(grid)} complexes checked",
        euler: f"{sum(1 for r in records if r['euler'])} weights checked",
        sphere: f"{sum(1 for r in records if r['piece'])} weight pieces matched",
    }
    return {
        "config": {"k_values": list(SELFTEST_K), "max_i": SELFTEST_MAX_WEIGHT},
        "checks": [
            {"name": name, "ok": name not in failed, "detail": failed.get(name, detail)}
            for name, detail in passed.items()
        ],
        "ok": not failed,
    }


def _selftest_lines(tree):
    for r in tree["checks"]:
        yield f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']} ({r['detail']})"
    yield f"selftest: {'all checks passed' if tree['ok'] else 'CHECKS FAILED'}"


def _json_chunks(report):
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte, in chunks.

    ``report`` is a nonempty dict with text keys.  Each value is one
    ``json.dumps`` call, moved one level in: the encoder escapes every
    newline inside a string, so each raw newline starts a line.  A
    ``_FactorTable`` goes out one chunk per block, each record its shape's
    cached JSON around the weight, so no chunk holds ``tp``'s table and no
    record calls the encoder.
    """
    lead = "{\n  "
    for key in sorted(report):
        value = report[key]
        yield lead + json.dumps(key) + ": "
        if type(value) is _FactorTable:
            sep = "[\n    "
            for block in value:
                # made inside the yield, so no local holds this text while the next block is made
                yield sep + ",\n    ".join([f"{head}{i}{tail}" for i, (head, tail, _) in block])
                sep = ",\n    "
            yield "\n  ]"
        else:
            yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        lead = ",\n  "
    yield "\n}"


def _write_report(args, report):
    """Render ``report`` in the format asked for, writing it to stdout or ``--out`` as it is made.

    JSON goes out chunk by chunk, text line by line, with ``tp``'s table
    rows a block at a time.  A failed write or flush on either output is
    a ``UsageError``.
    """
    if args.fmt == "json":
        chunks = chain(_json_chunks({"tool": "cycbar", "command": args.command, **report}), ["\n"])
    else:
        chunks = (line + "\n" for line in args.lines(report))
    try:
        if args.out:
            # opened only now, so a refused run leaves an existing file as it was
            with open(args.out, "w") as out:
                out.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # the interpreter flushes stdout again at exit; pointing the
            # descriptor at devnull keeps that flush from failing too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise UsageError(f"cannot write {'--out' if args.out else 'stdout'}: {exc}") from None


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        report = args.handler(args)
        _write_report(args, report)
    except ValueError as exc:
        # UsageError and validation errors from the library both land here
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
