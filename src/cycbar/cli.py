"""Command line front end.

Commands:

* ``homology``: basis sizes and integral homology of weight components.
  The basis sizes are counted (``cell_counts``) and the groups are read
  off the two critical cells of the a_0 Morse matching
  (``morse_homology``), so no simplex is listed and no matrix reduced.
  A run takes at most ``MORSE_FLOW_BUDGET`` steps, one per count entry
  or walked face, and lists at most ``HOMOLOGY_ROW_LIMIT`` degrees: the
  counts and rows are charged first, so a range they pass starts
  nothing, and each weight's walk draws on what is left.
* ``verify``: computed homology of every weight 1..max_i against the
  closed form (Z in degrees 2d, 2d+1, or Z/k in degree 2d+1 when k | i),
  plus the operator-identity and alternating-count suites.  It stays
  exhaustive: it enumerates every simplex and reduces every boundary
  matrix, and refuses, before any of that, a range whose cells weigh
  more than ``VERIFY_WORK_BUDGET``, (l + 1)**3 per cell of degree l.
  Without ``--jobs``, a range weighing at least ``VERIFY_FAN_OUT_WORK``
  fans its weights out, one worker process per usable CPU, heaviest
  weight first; a lighter one, or a platform where no pool starts, runs
  serially.  Either way the bytes are those of ``--jobs 1``.
* ``tp``: the factor table of one degree of the relative periodic
  theory, with truncation notice and verdicts, to at most
  ``TP_TRUNCATE_LIMIT`` weights.
* ``verdict``: nil-invariance verdicts for one pair (p, k).
* ``selftest``: the built-in property suite on a fixed small range.

Each handler checks its input and computes its report once, as a JSON
tree, and prints nothing; a text generator bound beside it yields the
text lines from the finished tree, one joined block of rows per 1,024
weights for ``tp``'s table.  ``tp``'s ``factors`` is the one part left
unmade: a ``_FactorTable`` that makes its records 1,024 weights at a
time while they are written, each block's keys from
``tate_tp._exponent_block`` by p-adic striding, so no command holds the
table and no weight costs a Python call.  ``main`` adds the ``tool``
and ``command`` fields, renders only the format asked for, writes it
to stdout or ``--out`` (opened only once the report is ready), and
picks the exit code.  ``--format json`` prints the bytes of
``json.dumps(tree, indent=2, sort_keys=True)`` (sorted keys, so
identical inputs give identical bytes): dicts a key at a time, a
weight's rows 1,024 per ``json.dumps`` call, and one call per shape
``(exponent, k | i)`` of ``tp``'s records, whose text each record of
that shape repeats around its weight in both formats.  Each block of
1,024 records or rows, as JSON or as text, and each other chunk or
text line is written as it is made.  Exit codes: 0 on
success, 1 when the report's ``ok`` is false (a mathematical check
failed), 2 for usage or validation errors, and for a failed write to
stdout or ``--out``.
"""

import argparse
import json
import os
import sys
from functools import partial
from itertools import chain, repeat
from math import inf

from .cyclic_bar import CyclicBar, cell_counts, weight_identity_violations
from .homology import MORSE_FLOW_BUDGET, ZERO_GROUP, AbelianGroup, _morse_walk, chain_complex, verify_weight_piece
from .tate_tp import _exponent_block, _nil_invariance, _require_table, nil_invariance_report

__all__ = ["main", "UsageError"]


class UsageError(ValueError):
    """Bad command line input; maps to exit code 2."""


# the most degree rows one homology run lists: at k=2, where each degree holds one
# count entry, 50,000 rows take ~0.7 s and ~110 MB as JSON, and the steps would admit 30x more
HOMOLOGY_ROW_LIMIT = 50_000

# the largest tp --truncate: at 10**7, tp --format json takes ~3.3 s and writes ~1.2 GB
TP_TRUNCATE_LIMIT = 10_000_000

# the most work verify takes on, weighed before any cell is listed: a cell of degree l
# weighs (l + 1)**3, since its identity suite takes ~l**2 faces of l + 1 entries each
VERIFY_WORK_BUDGET = 100_000_000

# the least work verify fans out over its CPUs when --jobs is not given.  Fresh runs, serial
# against two workers, median of 9 (Python 3.11, 2-vCPU Xeon): k=3 at work 3.6e5 0.103 s
# against 0.107 s and at 7.5e5 0.143 against 0.134 s; k=5 at 4.0e5 0.146 against 0.131 s;
# k=2, a few cells each heavy, at 8.4e5 0.087 against 0.104 s and at 3.4e6 0.156 against 0.140 s
VERIFY_FAN_OUT_WORK = 500_000


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
        description="Basis sizes of weight components, counted, and their integral homology, read "
        "off the two critical cells of the a_0 Morse matching: nothing is listed or reduced.  A "
        f"run of more than {MORSE_FLOW_BUDGET} steps is refused: one per count entry, "
        "min(i, l(k - 1)) - l + 1 in degree l of weight i, all charged first, and one per face a "
        f"walk takes.  So is a run listing more than {HOMOLOGY_ROW_LIMIT} degrees.  verify stays exhaustive.",
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
        "--jobs", type=int, default=None,
        help="worker processes for independent weights, at most one per CPU and heaviest weight "
        f"first (default: one per CPU when the cells weigh at least {VERIFY_FAN_OUT_WORK}, else 1)",
    )
    common(sp)
    sp.set_defaults(handler=cmd_verify, lines=_verify_lines)

    sp = sub.add_parser("tp", help="factor table of the relative periodic theory")
    sp.add_argument("--p", type=int, required=True, help="prime")
    sp.add_argument("--k", type=int, required=True, help="truncation order, >= 2")
    sp.add_argument("--j", type=int, required=True, help="degree")
    sp.add_argument("--truncate", type=int, required=True, help=f"largest weight listed, at most {TP_TRUNCATE_LIMIT}")
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
    """Refuse out-of-range values in a fixed order; ``homology`` parses --i itself.

    Each subcommand has only its own options, so an absent one passes.
    """
    given = vars(args)
    if given.get("jobs") is not None and args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if given.get("k", 2) < 2:
        raise UsageError(f"--k must be >= 2, got {args.k}")
    if given.get("max_i", 1) < 1:
        raise UsageError(f"--max-i must be >= 1, got {args.max_i}")
    if given.get("p", 2) < 2:
        raise UsageError(f"--p must be a prime >= 2, got {args.p}")
    if given.get("truncate", 1) < 1:
        raise UsageError(f"--truncate must be >= 1, got {args.truncate}")
    if given.get("truncate", 1) > TP_TRUNCATE_LIMIT:
        raise UsageError(f"--truncate must be at most {TP_TRUNCATE_LIMIT}, got {args.truncate}")


def _group_node(group):
    return {"rank": group.rank, "torsion": list(group.torsion), "name": str(group)}


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
    the pool ships it between processes.  The identity suite runs first,
    so its image caches and the complex are never held at once.
    """
    bar = CyclicBar(k)
    wc = bar.enumerate_weight_component(i)
    violations = weight_identity_violations(bar, wc)
    cx = chain_complex(wc)
    count = wc.alternating_count()
    return {
        "cells": sum(wc.degree_counts()),
        "violations": violations,
        "piece": _verify_entry(cx) if i >= 1 else None,
        "euler": {"i": i, "alternating_count": count, "ok": count == 0} if i >= 1 else None,
        "dd": cx.boundary_composes_to_zero() if dd else None,
    }


def _worker_count(jobs, n_items):
    """Worker processes for n_items independent items; at most one per CPU the process may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(jobs, n_items, cpus or 1)


def _run_jobs(fn, items, jobs):
    """``[fn(x) for x in items]``, over up to ``jobs`` worker processes.

    The pool takes the items last first, so the heaviest of ``verify``'s
    weights starts at once instead of running alone at the end; the
    records still come back in item order.  Where no pool can be made (no
    working semaphores or no ``fork``), the items run here, one by one.
    """
    items = list(items)
    workers = _worker_count(jobs, len(items))
    if workers > 1:
        # imported on first use: at module level it would add ~34 ms, over
        # three times the ~10 ms a fresh interpreter takes to import cycbar
        # and this module (Python 3.11, 2-vCPU Xeon)
        from concurrent.futures import ProcessPoolExecutor

        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, NotImplementedError):
            pass
        else:
            with pool:
                return list(pool.map(fn, reversed(items)))[::-1]
    return [fn(x) for x in items]


def _verdict_node(v):
    node = dict(zip(v.__match_args__, v._astuple))  # the keys are the field names: renaming one changes the JSON
    return {**node, "exponent_sup": "infinity"} if v.exponent_sup is inf else node


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


def _count_entries(k, i):
    """The entries ``cell_counts(k, i)`` fills, its bands summed in closed form.

    The band of degree l holds min(i, l(k-1)) - l + 1 entries: l(k-2) + 1
    for the degrees l <= i // (k-1), and i - l + 1 for the ones above.
    """
    full = i // (k - 1)
    return (k - 2) * full * (full + 1) // 2 + full + 1 + (i - full) * (i - full + 1) // 2


def cmd_homology(args):
    """Counts and groups of the weights of --i, in at most ``MORSE_FLOW_BUDGET`` steps in all."""
    k, (lo, hi), left = args.k, _parse_weight_range(args.i), MORSE_FLOW_BUDGET
    command = f"homology --k {k} --i {args.i}"
    refused = f"{command} takes more than its {MORSE_FLOW_BUDGET} steps"
    rows = 0
    for i in range(lo, hi + 1):  # every count and every row is charged before any walk
        left -= _count_entries(k, i)
        if left < 0:
            raise UsageError(f"{refused}: count entries alone pass them at weight {i}")
        rows += i + 1
        if rows > HOMOLOGY_ROW_LIMIT:
            raise UsageError(f"{command} lists more than {HOMOLOGY_ROW_LIMIT} degrees: they pass it at weight {i}")
    components = []
    for i in range(lo, hi + 1):
        nonzero, left = _morse_walk(k, i, left)
        if nonzero is None:
            raise UsageError(f"{refused}: count entries and walked faces pass them at weight {i}")
        degrees = [
            {"degree": l, "basis_size": size, "homology": _group_node(nonzero.get(l, ZERO_GROUP))}
            for l, size in enumerate(cell_counts(k, i))
        ]
        components.append({"i": i, "degrees": degrees})
    return {"config": {"k": k, "i_min": lo, "i_max": hi}, "components": components}


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
    # without --jobs, one worker per usable CPU once the work pays for the pool's start
    jobs = args.jobs or (inf if work >= VERIFY_FAN_OUT_WORK else 1)
    records = _run_jobs(partial(_weight_check, args.k), range(args.max_i + 1), jobs)
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

    Iterating yields weights 1..truncate, one list of ``(i, shape)`` pairs
    per ``_RECORD_BLOCK`` weights, so the whole table never exists at
    once.  A record differs from the others of its shape
    ``(exponent, k | i)`` only in its weight, and a table has at most
    2 * (log_p(truncate) + 1) shapes.  Each block's shape keys come from
    ``_exponent_block``, which strides over the multiples of p, p^2, ...
    and k, so no weight costs a Python call.  A shape is made once, in the
    first block that has it: the record's JSON before and after the
    weight's value, and the text row after the weight.
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
            end = min(start + _RECORD_BLOCK, stop)
            keys = _exponent_block(p, k, start, end)
            for key in set(keys) - shapes.keys():
                shapes[key] = self._shape(*key)
            yield list(zip(range(start, end), map(shapes.__getitem__, keys)))


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
        "verdicts": _verdict_node(_nil_invariance(p, k)),
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


def _json_chunks(value, pad="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, in chunks.

    ``pad`` is a newline and the indent of the line ``value`` starts on.
    The encoder escapes every newline inside a string, so each raw newline
    starts a line, and a nested value's own text is moved in by putting
    ``pad`` for each.  A nonempty dict goes out a key at a time.  A
    nonempty list whose first item is a dict holding a list (a weight of
    ``homology`` or ``verify``) goes out an item at a time, each one as a
    dict, so no chunk holds a weight's rows; any other nonempty list goes
    out ``_RECORD_BLOCK`` items per ``json.dumps`` call.  A ``_FactorTable``
    goes out one chunk per block, each record its shape's cached JSON
    around the weight, so no chunk holds ``tp``'s table and no record calls
    the encoder.
    """
    inner = pad + "  "
    if type(value) is dict and value:
        lead = "{" + inner
        for key in sorted(value):
            yield lead + json.dumps(key) + ": "
            lead = "," + inner
            yield from _json_chunks(value[key], inner)
        yield pad + "}"
        return
    if type(value) is list and value and type(value[0]) is dict and list in map(type, value[0].values()):
        lead = "[" + inner
        for item in value:
            yield lead
            lead = "," + inner
            yield from _json_chunks(item, inner)
        yield pad + "]"
        return
    if type(value) is _FactorTable:
        items = (("," + inner).join([f"{head}{i}{tail}" for i, (head, tail, _) in block]) for block in value)
    elif type(value) is list and value:
        # the text of a list of the block's items, less its "[", "]" and first indent
        items = (
            json.dumps(value[n : n + _RECORD_BLOCK], indent=2, sort_keys=True)[4:-2].replace("\n", pad)
            for n in range(0, len(value), _RECORD_BLOCK)
        )
    else:
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)
        return
    # each block's text is made inside the map, so no local holds it while the next is made
    yield from map(str.__add__, chain(["[" + inner], repeat("," + inner)), items)
    yield pad + "]"


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
