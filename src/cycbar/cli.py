"""Command line front end.

Commands:

* ``homology``: basis sizes and integral homology of weight components.
* ``verify``: computed homology of every weight 1..max_i against the
  closed form (Z in degrees 2d, 2d+1, or Z/k in degree 2d+1 when k | i),
  plus the operator-identity and alternating-count suites.
* ``tp``: the factor table of one degree of the relative periodic
  theory, with truncation notice and verdicts.
* ``verdict``: nil-invariance verdicts for one pair (p, k).
* ``selftest``: the built-in property suite on a fixed small range.

Each handler checks its input and computes its report once, as a JSON
tree, and prints nothing; a text generator bound beside it yields the
text lines from the finished tree.  ``tp``'s ``factors`` is the one
part left unmade: a ``_RecordTable`` that makes its records from the
exponent rule 1,024 weights at a time while they are written, so no
command holds the table.  ``main`` adds the ``tool`` and ``command``
fields, renders only the format asked for, writes it to stdout or
``--out`` (opened only once the report is ready), and picks the exit
code.  ``--format json`` prints the bytes of
``json.dumps(tree, indent=2, sort_keys=True)`` (stable field names,
sorted keys, so identical inputs give identical bytes), made by
``_json_chunks`` through the C encoder: one call per container of
scalars, and one per block of records for a record table such as
``tp``'s ``factors`` or ``verify``'s ``euler``.  Each chunk, and each
text line, is written as it is made, so no command holds its rendered
output.  Exit codes: 0 on success, 1 when the report's ``ok`` is false
(a mathematical check failed), 2 for usage or validation errors, an
unwritable ``--out`` included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from math import inf

from .cyclic_bar import CyclicBar, weight_identity_violations
from .homology import ZERO_GROUP, AbelianGroup, chain_complex, homology_groups, verify_weight_piece
from .tate_tp import _exponent, _require_table, nil_invariance_report

__all__ = ["main", "UsageError"]


class UsageError(ValueError):
    """Bad command line input; maps to exit code 2."""


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

    def jobs(sp):
        sp.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for independent weights, at most one per CPU "
            "(default: 1)",
        )

    sp = sub.add_parser("homology", help="homology of weight components")
    sp.add_argument("--k", type=int, required=True, help="truncation order, >= 2")
    sp.add_argument("--i", required=True, help="weight or inclusive range A..B")
    common(sp)
    jobs(sp)
    sp.set_defaults(handler=cmd_homology, lines=_homology_lines)

    sp = sub.add_parser("verify", help="check homology against the closed form")
    sp.add_argument("--k", type=int, required=True, help="truncation order, >= 2")
    sp.add_argument("--max-i", type=int, required=True, help="largest weight checked")
    common(sp)
    jobs(sp)
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
        args.i_lo, args.i_hi = _parse_weight_range(args.i)
    if given.get("max_i", 1) < 1:
        raise UsageError(f"--max-i must be >= 1, got {args.max_i}")
    if given.get("p", 2) < 2:
        raise UsageError(f"--p must be a prime >= 2, got {args.p}")
    if given.get("truncate", 1) < 1:
        raise UsageError(f"--truncate must be >= 1, got {args.truncate}")


def _group_node(group):
    return {"rank": group.rank, "torsion": list(group.torsion), "name": str(group)}


def _homology_entry(k, i):
    cx = chain_complex(CyclicBar(k).enumerate_weight_component(i))
    groups = homology_groups(cx)
    return {
        "i": i,
        "degrees": [
            {
                "degree": l,
                "basis_size": cx.dimension(l),
                "homology": _group_node(groups[l]),
            }
            for l in range(cx.top_degree + 1)
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
    """Worker processes for n_items independent items; at most one per CPU."""
    return min(jobs, n_items, os.cpu_count() or 1)


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
    weights = range(args.i_lo, args.i_hi + 1)
    return {
        "config": {"k": args.k, "i_min": args.i_lo, "i_max": args.i_hi},
        "components": _run_jobs(partial(_homology_entry, args.k), weights, args.jobs),
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


def _factor_block(p, k):
    """The ``tp`` factor records of a range of weights, from tate_tp's exponent rule."""
    # order and name depend on the exponent alone, and there are at most
    # log_p(truncate) + 1 distinct exponents
    named = {}

    def block(weights):
        records = []
        for i in weights:
            e = _exponent(p, k, i)
            if e not in named:
                named[e] = p**e, str(AbelianGroup.cyclic(p**e))
            order, group = named[e]
            records.append(
                {"i": i, "k_divides_i": i % k == 0, "exponent": e, "order": order, "group": group}
            )
        return records

    return block


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
        "factors": _RecordTable(range(1, truncate + 1) if odd else range(0), _factor_block(p, k)),
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
            for f in block:
                yield (
                    f"  {f['i']:>6}  {'yes' if f['k_divides_i'] else ' no'}  "
                    f"{f['group']} (exponent {f['exponent']})"
                )
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


# exact types: a subclass, or anything else, takes the recursive route,
# which is right for every input, only slower
_SCALARS = frozenset((str, int, float, bool, type(None)))


@lru_cache(maxsize=None)
def _flat_encoder(depth):
    """Encoder for a container of scalars whose items sit at ``depth + 1``.

    The newline and the items' indent live in the item separator, and
    ``indent`` stays None, so the stdlib picks its C encoder.
    """
    pad = "\n" + "  " * (depth + 1)
    return json.JSONEncoder(sort_keys=True, separators=("," + pad, ": ")).encode


# records per encoder call: one call for a whole 100k-record table is no
# faster, and its output string raises the peak memory
_RECORD_BLOCK = 1024


class _RecordTable:
    """A record table made one block of records at a time, as it is read.

    Iterating yields ``block(keys)`` for each run of ``_RECORD_BLOCK``
    consecutive ``keys``, a list of the records for those keys, so the
    whole table never exists at once.
    """

    def __init__(self, keys, block):
        self.keys, self.block = keys, block

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        for start in range(0, len(self.keys), _RECORD_BLOCK):
            yield self.block(self.keys[start:start + _RECORD_BLOCK])


def _record_blocks(blocks, depth):
    """The items of a record table at ``depth``, one chunk per block of records.

    A record table is a sequence of nonempty dicts of scalars, given here
    as its blocks: nonempty lists of at most ``_RECORD_BLOCK`` records,
    from a ``_RecordTable`` or as slices of a list.  The block's encoder
    puts each record's keys at ``depth + 2``, so only the
    boundaries between records need the outer indent.  The C encoder
    escapes every newline inside a string, so a raw newline comes from a
    separator.  Inside a record, the character before a separator ends a
    scalar and the one after it opens a key, so ``},`` + inner + ``{`` is
    exactly a boundary between two records.  Every chunk but the first
    starts with the separator from the block before it.
    """
    outer = "\n" + "  " * (depth + 1)
    inner = outer + "  "
    encode = _flat_encoder(depth + 1)
    boundary, fixed = "}," + inner + "{", outer + "}," + outer + "{" + inner
    lead = ""
    for block in blocks:
        yield lead + "{" + inner + encode(block)[2:-2].replace(boundary, fixed) + outer + "}"
        lead = "," + outer


def _json_chunks(node, depth=0):
    """``json.dumps(node, indent=2, sort_keys=True)``, byte for byte, in chunks.

    ``node`` is a tree of dicts with text keys, lists and JSON scalars,
    rendered as if it sat ``depth`` levels deep.  A container of scalars
    is one call of a cached C encoder, yielded between its indented
    brackets.  A record table, a list of flat dicts or a ``_RecordTable``
    made block by block as it is read, yields one chunk per block of
    records (``_record_blocks``).  Other containers recurse.  So no chunk is much
    longer than a block, and the caller writes each one as it comes
    without ever holding the whole text.  The pure-Python encoder that
    ``indent`` selects is slower and, for a large tree, holds one small
    chunk string per token until it joins them.
    """
    if isinstance(node, dict):
        values, brackets = node.values(), "{}"
    elif isinstance(node, (list, tuple, _RecordTable)):
        values, brackets = node, "[]"
    else:
        yield json.dumps(node)
        return
    if not node:
        yield brackets
        return
    pad = "\n" + "  " * (depth + 1)
    yield brackets[0] + pad
    if type(node) is _RecordTable:
        yield from _record_blocks(node, depth)
    elif all(type(v) in _SCALARS for v in values):
        yield _flat_encoder(depth)(node)[1:-1]
    elif type(node) is list and all(
        type(r) is dict and r and _SCALARS.issuperset(map(type, r.values())) for r in node
    ):
        slices = (node[s:s + _RECORD_BLOCK] for s in range(0, len(node), _RECORD_BLOCK))
        yield from _record_blocks(slices, depth)
    elif isinstance(node, dict):
        for n, key in enumerate(sorted(node)):
            yield ("," + pad if n else "") + json.dumps(key) + ": "
            yield from _json_chunks(node[key], depth + 1)
    else:
        for n, v in enumerate(node):
            if n:
                yield "," + pad
            yield from _json_chunks(v, depth + 1)
    yield pad[:-2] + brackets[1]


def _write_report(out, args, report):
    """Render ``report`` in the format asked for, writing it to ``out`` as it is made.

    JSON goes out chunk by chunk, text line by line.
    """
    if args.fmt == "json":
        out.writelines(_json_chunks({"tool": "cycbar", "command": args.command, **report}))
        out.write("\n")
    else:
        for line in args.lines(report):
            out.write(line + "\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        report = args.handler(args)
        if args.out:
            # opened only now, so a refused run leaves an existing file as it was
            try:
                with open(args.out, "w") as out:
                    _write_report(out, args, report)
            except OSError as exc:
                raise UsageError(f"cannot write --out: {exc}") from None
        else:
            _write_report(sys.stdout, args, report)
    except ValueError as exc:
        # UsageError and validation errors from the library both land here
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
