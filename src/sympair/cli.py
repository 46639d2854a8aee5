"""Command-line front end.

    sympair analyze CODE.json [--strategy auto] [--budget N] [--out R.json]
    sympair construct mds_3p_6 --p 5 [--out CODE.json]
    sympair verify [--only NAME ...]
    sympair search --q 5 --n 15 [--max-codes N] [--budget N]

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exhausted (a partial JSON report is still emitted).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import verify as verify_mod
from ._version import __version__
from .constructions import mds_3p_6, mds_3p_7, mds_3p_8, mds_n_6, search_optimal_cyclic
from .errors import BudgetExceededError, SymPairError
from .report import AnalysisReport, analyze, code_spec_dict, load_code_spec, save_code_spec

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

_FAMILIES = {
    "mds_3p_7": (mds_3p_7, ("p",)),
    "mds_3p_8": (mds_3p_8, ("p",)),
    "mds_3p_6": (mds_3p_6, ("p",)),
    "mds_n_6": (mds_n_6, ("q", "n")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympair",
        description="constacyclic codes under the symbol-pair metric: "
                    "exact distances, bounds, constructions")
    parser.add_argument("--version", action="version", version=f"sympair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, strategy: bool = False) -> None:
        if strategy:
            p.add_argument("--strategy", default="auto",
                           choices=["auto", "exhaustive", "bounded", "dependency", "castagnoli"],
                           help="distance certification strategy (default: auto)")
        p.add_argument("--budget", type=int, default=None, metavar="N",
                       help="abort after N encodings and column reductions (exit code 3)")
        p.add_argument("--out", type=Path, default=None, metavar="PATH",
                       help="also write the JSON report to PATH")
        p.add_argument("--json", action="store_true",
                       help="print JSON instead of the human summary")

    p = sub.add_parser("analyze", help="certify distances and bounds for a code spec file")
    p.add_argument("spec", type=Path, help="code spec JSON (generator or defining-set form)")
    common(p, strategy=True)

    p = sub.add_parser("construct", help="build a family instance and certify it")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("--p", type=int, help="prime for the 3p families")
    p.add_argument("--q", type=int, help="field size for mds_n_6")
    p.add_argument("--n", type=int, help="length for mds_n_6")
    common(p, strategy=True)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--only", action="append", default=None, metavar="NAME",
                   help="run only the named check (repeatable)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="scan all cyclic codes of one length for "
                                      "pair-Singleton-optimal ones")
    p.add_argument("--q", type=int, required=True, help="field size (prime power)")
    p.add_argument("--n", type=int, required=True, help="code length")
    p.add_argument("--max-codes", type=int, default=None, metavar="N")
    common(p)
    return parser


# ----------------------------------------------------------------------
# output helpers

def _emit(payload: dict, args, human: str) -> None:
    text = json.dumps(payload, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text if args.json else human)


def _work(result) -> str:
    unit = {"dependency": "column reductions",
            "castagnoli": "encodings and column reductions on residue codes",
            }.get(result.method, "encodings")
    return f"{result.method}, {result.enumeration_count} {unit}"


def _human_report(report: AnalysisReport) -> str:
    code = report.code
    b = report.bounds
    lines = [
        f"[{code.n},{code.k}] lambda={code.lam} over {code.field!r}, generator {code.g}",
        f"  d_hamming = {report.d_hamming.value}  ({_work(report.d_hamming)})",
        f"  d_pair    = {report.d_pair.value}  ({_work(report.d_pair)})",
        f"  MDS (Hamming): {'yes' if report.mds_hamming else 'no'}    "
        f"MDS (pair): {'yes' if report.mds_pair else 'no'}",
        f"  pair-Singleton max d_p = {b.singleton_pair_max_dp}",
    ]
    if b.constacyclic_floor.applicable:
        kind = "exact" if b.constacyclic_floor.exact else "lower bound"
        lines.append(f"  pair floor: {b.constacyclic_floor.lower_bound} ({kind})")
    if b.repeated_root_floor.applicable:
        lines.append(f"  repeated-root pair floor: {b.repeated_root_floor.lower_bound} "
                     f"(condition {b.repeated_root_floor.condition_used})")
    if b.castagnoli_d_hamming is not None:
        lines.append(f"  product-formula d_hamming: {b.castagnoli_d_hamming}")
    if b.bch is not None:
        lines.append(f"  BCH >= {b.bch}, Hartmann-Tzeng >= {b.hartmann_tzeng}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    code = load_code_spec(args.spec)
    try:
        report = analyze(code, args.strategy, budget=args.budget)
    except BudgetExceededError as exc:
        _emit(exc.partial, args, f"budget exhausted: {exc}")
        return EXIT_BUDGET
    _emit(report.to_dict(), args, _human_report(report))
    return EXIT_OK


def _cmd_construct(args) -> int:
    func, wanted = _FAMILIES[args.family]
    params = []
    for name in wanted:
        value = getattr(args, name)
        if value is None:
            raise SymPairError(f"construct {args.family} requires --{name}")
        params.append(value)
    for name in ("p", "q", "n"):
        if name not in wanted and getattr(args, name) is not None:
            raise SymPairError(f"construct {args.family} does not take --{name}")
    result = func(*params, "bounds")
    code = result.code
    if args.out is not None:
        save_code_spec(code, args.out)  # spec file, directly consumable by analyze
    try:
        report = analyze(code, args.strategy, budget=args.budget)
    except BudgetExceededError as exc:
        print(json.dumps(exc.partial, indent=2) if args.json
              else f"budget exhausted: {exc}")
        return EXIT_BUDGET
    payload = {"family": result.family.to_dict(), "code_spec": code_spec_dict(code),
               "report": report.to_dict()}
    human = (f"{args.family}({', '.join(map(str, params))}) -> expected "
             f"[{result.family.expected_n},{result.family.expected_k}] "
             f"d_p={result.family.expected_d_pair}\n" + _human_report(report))
    print(json.dumps(payload, indent=2) if args.json else human)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verify_mod.run_checks(only=args.only)
    if args.json:
        print(json.dumps([{
            "name": r.name, "passed": r.passed,
            "expected": r.expected, "computed": r.computed,
            "seconds": round(r.seconds, 3),
        } for r in results], indent=2))
    else:
        for r in results:
            print(r.summary())
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


def _search_payload(entries, q: int, n: int, truncated: bool) -> dict:
    rows = sorted(entries, key=lambda e: (-e.d_pair.value, -e.code.k))
    return {
        "version": __version__, "q": q, "n": n,
        "truncated": truncated,
        "entries": [{
            "generator": list(e.code.g.coeffs),
            "k": e.code.k,
            "d_hamming": e.d_hamming.value,
            "d_pair": e.d_pair.value,
            "is_mds_pair": e.is_mds_pair,
        } for e in rows],
    }


def _human_search(payload: dict) -> str:
    lines = [f"cyclic codes of length {payload['n']} over GF({payload['q']})"
             + (" (truncated by budget)" if payload["truncated"] else "")]
    lines.append(f"{'k':>4} {'d_H':>4} {'d_p':>4}  {'MDS-pair':<8}  generator")
    for e in payload["entries"]:
        lines.append(f"{e['k']:>4} {e['d_hamming']:>4} {e['d_pair']:>4}  "
                     f"{'yes' if e['is_mds_pair'] else 'no':<8}  {e['generator']}")
    return "\n".join(lines)


def _cmd_search(args) -> int:
    try:
        entries = search_optimal_cyclic(args.q, args.n, max_codes=args.max_codes,
                                        budget=args.budget)
    except BudgetExceededError as exc:
        payload = _search_payload(exc.partial, args.q, args.n, truncated=True)
        _emit(payload, args, _human_search(payload) + f"\nbudget exhausted: {exc}")
        return EXIT_BUDGET
    payload = _search_payload(entries, args.q, args.n, truncated=False)
    _emit(payload, args, _human_search(payload))
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SymPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
