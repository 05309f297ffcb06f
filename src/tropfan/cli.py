"""Command-line interface.

Subcommands: balance, homology, cohomology, tpd, local-tpd, euler, dim1,
star-export, bergman, star-row. Exit codes: 0 = verdict true or computation
done, 1 = verdict false, 2 = input error. With --json a machine-readable
report {command, inputs, results, witnesses} is emitted instead of tables.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as tfio
from .complexes import bm_chain_complex, compact_cochain_complex, plain_cochain_complex, star_row_complex
from .duality import (
    FAILS,
    HOLDS,
    UnbalancedFanError,
    balancing_failure,
    cap_q0,
    classify_dim1,
    euler_criterion,
    is_local_tpd,
    is_tpd,
    is_uniquely_balanced,
)
from .exact import RingTag
from .io import InputError
from .matroids import bergman_fan


def _build_parser():
    top = argparse.ArgumentParser(prog="tropfan", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_, fan=True, matroid=False, needs_p=False, needs_face=False, out=False):
        p = sub.add_parser(name, help=help_)
        if fan:
            p.add_argument("--fan", required=True, help="path to a fan document")
        if matroid:
            p.add_argument("--matroid", required=True, help="path to a matroid document")
        p.add_argument("--ring", help="override the document ring (Z, Q, Fp:<p>)")
        if needs_p:
            p.add_argument("--p", type=int, help="coefficient degree (default: all)")
        if needs_face:
            p.add_argument("--face", type=int, required=name == "star-export", help="face id")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("-o", "--output", help="write the report or document to a file")
        return p

    add("balance", "check the balancing condition")
    add("homology", "Borel-Moore homology tables", needs_p=True)
    add("cohomology", "cohomology and compact-support cohomology tables", needs_p=True)
    add("tpd", "certify tropical Poincare duality")
    add("local-tpd", "certify duality at every face star")
    add("euler", "field Euler-characteristic duality criterion", needs_p=True)
    add("dim1", "one-dimensional duality classification")
    add("star-export", "export the star of a face as a standalone document", needs_face=True)
    add("bergman", "build the Bergman fan of a matroid", fan=False, matroid=True)
    add("star-row", "exactness of the star top-homology row", needs_p=True)
    return top


def _emit(text, args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report(args, results, witnesses=None, inputs=None):
    return json.dumps(
        {
            "command": args.command,
            "inputs": inputs or _inputs(args),
            "results": results,
            "witnesses": witnesses or {},
        },
        sort_keys=True,
        indent=1,
    )


def _inputs(args):
    out = {}
    for key in ("fan", "matroid", "ring", "p", "face"):
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
    return out


def _with_ring_override(wf, args):
    if not args.ring:
        return wf
    try:
        return wf.with_ring(RingTag.parse(args.ring))
    except ValueError as e:
        raise InputError(str(e)) from None


def _degrees(args, d):
    if getattr(args, "p", None) is None:
        return list(range(d + 1))
    if not 0 <= args.p <= d:
        raise InputError(f"--p must be between 0 and {d}")
    return [args.p]


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (InputError, OSError, UnbalancedFanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "bergman":
        m = tfio.parse_matroid(args.matroid)
        try:
            wf = bergman_fan(m)
        except ValueError as e:
            raise InputError(str(e)) from None
        _emit(tfio.serialize_fan(_with_ring_override(wf, args)), args)
        return 0

    wf = _with_ring_override(tfio.parse_fan(args.fan), args)
    fan = wf.fan
    d = fan.dim

    if cmd == "balance":
        beta = balancing_failure(wf)
        balanced = beta is None
        unique = is_uniquely_balanced(wf) if balanced else False
        if args.json:
            _emit(
                _report(
                    args,
                    {"balanced": balanced, "uniquely_balanced": unique},
                    {"facet": beta} if beta is not None else {},
                ),
                args,
            )
        else:
            lines = [f"balanced: {'yes' if balanced else 'no'}"]
            if beta is not None:
                lines.append(f"witness facet: {beta} {fan.describe_face(beta)['rays']}")
            else:
                lines.append(f"uniquely balanced: {'yes' if unique else 'no'}")
            _emit("\n".join(lines), args)
        return 0 if balanced else 1

    if cmd == "homology":
        rows = []
        results = {}
        for p in _degrees(args, d):
            table = bm_chain_complex(fan, p, wf.ring).homology()
            for q in sorted(table.entries, reverse=True):
                rows.append(f"H_{q}^BM(F_{p}) = {table.group(q)}")
                results[f"H_{q}^BM(F_{p})"] = str(table.group(q))
        _emit(_report(args, results) if args.json else "\n".join(rows), args)
        return 0

    if cmd == "cohomology":
        rows = []
        results = {}
        for p in _degrees(args, d):
            plain = plain_cochain_complex(fan, p, wf.ring).homology()
            compact = compact_cochain_complex(fan, p, wf.ring).homology()
            for q in sorted(plain.entries):
                rows.append(f"H^{q}(F^{p}) = {plain.group(q)}")
                results[f"H^{q}(F^{p})"] = str(plain.group(q))
            for q in sorted(compact.entries):
                rows.append(f"H_c^{q}(F^{p}) = {compact.group(q)}")
                results[f"H_c^{q}(F^{p})"] = str(compact.group(q))
        _emit(_report(args, results) if args.json else "\n".join(rows), args)
        return 0

    if cmd == "tpd":
        report = is_tpd(wf)
        if args.json:
            _emit(_report(args, report.to_dict()), args)
        else:
            rows = [
                f"(p={e.p}, q={e.q}) {e.kind}: {'ok' if e.ok else 'FAIL ' + e.witness}"
                for e in report.entries
            ]
            for p in range(d + 1):
                cap = cap_q0(wf, p)
                rows.append(
                    f"cap p={p}: H^0(F^{p}) rank {cap.domain_rank}"
                    f" -> H_{d}^BM(F_{d - p}) rank {cap.kernel_basis.cols}"
                )
            rows.append(f"verdict: {'TPD holds' if report.verdict else 'TPD fails'}")
            _emit("\n".join(rows), args)
        return 0 if report.verdict else 1

    if cmd == "local-tpd":
        report = is_local_tpd(wf)
        if args.json:
            _emit(_report(args, report.to_dict()), args)
        else:
            rows = []
            for fid in sorted(report.per_face):
                sub = report.per_face[fid]
                desc = fan.describe_face(fid)
                status = "ok" if sub.verdict else "FAIL"
                rows.append(f"star of face {fid} (dim {desc['dim']}, rays {desc['rays']}): {status}")
            rows.append(f"verdict: {'local TPD holds' if report.verdict else 'local TPD fails'}")
            _emit("\n".join(rows), args)
        return 0 if report.verdict else 1

    if cmd == "euler":
        if not wf.ring.is_field:
            raise InputError("the Euler criterion needs a field ring (use --ring Q or Fp:<p>)")
        statuses = {}
        for p in _degrees(args, d):
            statuses[p] = euler_criterion(wf, p)
        ok = all(v == HOLDS for v in statuses.values())
        if args.json:
            _emit(_report(args, {str(p): s for p, s in statuses.items()}), args)
        else:
            rows = [f"p={p}: {s}" for p, s in statuses.items()]
            rows.append(f"verdict: {'holds for all requested p' if ok else 'not established'}")
            _emit("\n".join(rows), args)
        return 0 if ok else 1

    if cmd == "dim1":
        if d != 1:
            raise InputError("dim1 applies to one-dimensional fans")
        verdict = classify_dim1(wf)
        if args.json:
            _emit(_report(args, {"tpd": verdict}), args)
        else:
            _emit(f"verdict: {'TPD holds' if verdict else 'TPD fails'}", args)
        return 0 if verdict else 1

    if cmd == "star-export":
        if not 0 <= args.face < fan.face_count():
            raise InputError(f"face id {args.face} out of range")
        _emit(tfio.star_export_document(wf, args.face), args)
        return 0

    if cmd == "star-row":
        if d < 2:
            raise InputError("star-row needs a fan of dimension >= 2")
        results = {}
        rows = []
        all_ok = True
        for p in _degrees(args, d):
            table = star_row_complex(wf, p, wf.ring).homology()
            exact = table.is_trivial_except([d])
            all_ok = all_ok and exact
            results[str(p)] = "exact-except-rightmost" if exact else "not-exact"
            rows.append(f"p={p}: {results[str(p)]}")
            if not exact:
                rows.append(f"  homology in degrees {table.nonzero_degrees()}")
        rows.append(f"verdict: {'exact except rightmost' if all_ok else 'exactness fails'}")
        _emit(_report(args, results) if args.json else "\n".join(rows), args)
        return 0 if all_ok else 1

    raise InputError(f"unknown command {cmd}")


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
