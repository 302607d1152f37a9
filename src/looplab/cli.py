"""Batch command line driver for the cross checking suites.

Each invocation runs one suite and writes one report: exit status 0
when every item passed, 1 when anything failed, 2 on usage errors.
The default output is a TSV of verdict rows (or, for the integral
comparison, the graded group table itself); --format json emits a
single run report object carrying the command, its parameters, the
verdicts, pass/fail/skip counts, the wall time, and run statistics (the
process's peak resident memory, the hits and misses of the homology
caches, and the wall seconds of the parse, run and render stages).

``main`` first freezes the heap that importing the package left behind
(``gc.freeze``).  That heap lives until the process ends, so no
collection needs to walk it; without the freeze, the final collection
at interpreter exit walks and frees it, which takes longer than most
short jobs compute.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from .algebra import GradingSpec
from .closedform import loop_module, main1_dims
from .ez import run_trials
from .homology import cache_stats, homology_dim, koszul_dim
from .steenrod import check_adem, check_cartan, check_instability, module_iso
from .thom import (
    abelian_tsv,
    loop_dictionary,
    model_homology_z,
    model_module_f2,
    reference_loop_homology,
    space,
)

__all__ = ["main", "build_parser"]


def _exponent(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("the truncation exponent must be at least 1")
    return value


def _weight(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("the generator degree must be at least 2")
    return value


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _space_arg(text: str):
    try:
        return space(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument("--out", metavar="FILE", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looplab",
        description="Cross checks for free loop space homology computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)

    main1 = suites.add_parser(
        "main1", help="closed form dimensions against two chain level computations"
    )
    main1.add_argument("--n", type=_exponent, required=True)
    main1.add_argument("--m", type=_weight, required=True)
    main1.add_argument("--max-level", type=_nonneg, default=3)
    main1.add_argument("--max-degree", type=_nonneg, default=None)
    _add_output_flags(main1)

    steenrod = suites.add_parser(
        "steenrod", help="operation axioms on both module descriptions of one space"
    )
    steenrod.add_argument("--space", type=_space_arg, required=True)
    steenrod.add_argument("--max-degree", type=_nonneg, default=80)
    steenrod.add_argument("--max-sq", type=_positive, default=16)
    _add_output_flags(steenrod)

    ez = suites.add_parser(
        "ez", help="seeded random trials of the chain level product identities"
    )
    ez.add_argument("--n", type=_exponent, required=True)
    ez.add_argument("--m", type=_weight, required=True)
    ez.add_argument("--max-level", type=_positive, default=3)
    ez.add_argument("--trials", type=_positive, default=200)
    ez.add_argument("--seed", type=_nonneg, default=0)
    _add_output_flags(ez)

    compare = sub.add_parser(
        "compare", help="wedge model against the loop side in one coefficient system"
    )
    compare.add_argument("--space", type=_space_arg, required=True)
    compare.add_argument("--coeff", choices=("f2", "z"), required=True)
    compare.add_argument("--max-degree", type=_nonneg, default=120)
    compare.add_argument("--max-sq", type=_positive, default=16)
    _add_output_flags(compare)

    return parser


def _group_text(value: tuple[int, tuple[int, ...]]) -> str:
    free, torsion = value
    shown = ",".join(str(t) for t in torsion) if torsion else "-"
    return f"free={free} torsion={shown}"


def _counts(verdicts, skipped: int = 0) -> dict:
    return {
        "pass": sum(1 for v in verdicts if v["status"] == "pass"),
        "fail": sum(1 for v in verdicts if v["status"] == "fail"),
        "skipped": skipped,
    }


def _run_main1(args):
    spec = GradingSpec(args.n, args.m)
    t_max = args.max_degree
    if t_max is None:
        t_max = 3 * (spec.n + 1) * spec.m
    params = {"n": spec.n, "m": spec.m, "maxLevel": args.max_level, "maxDegree": t_max}

    def check(q, t):
        chain = homology_dim(spec, q, t)
        closed = main1_dims(spec, q, t)
        resolution = koszul_dim(spec, q, t)
        status = "pass" if chain == closed == resolution else "fail"
        return {
            "item": f"q={q},t={t}",
            "status": status,
            "detail": f"chain={chain} closed={closed} resolution={resolution}",
        }

    verdicts = [check(q, t) for q in range(args.max_level + 1) for t in range(t_max + 1)]
    return params, verdicts, _counts(verdicts), None


def _check_verdict(side: str, report: dict) -> dict:
    detail = f"checked={report['checked']} skipped={report['skipped']}"
    if report["failures"]:
        detail += " " + "; ".join(report["failures"][:3])
    return {
        "item": f"{side}:{report['check']}",
        "status": "pass" if report["pass"] else "fail",
        "detail": detail,
        "skipped": report["skipped"],
    }


def _run_steenrod(args):
    sp = args.space
    params = {"space": sp.name, "maxDegree": args.max_degree, "maxSq": args.max_sq}
    store = 2 * args.max_sq
    loop = loop_module(sp.n, sp.r, args.max_degree, store, sq_one=sp.odd_op)
    model = model_module_f2(sp, args.max_degree, store)
    jobs = [
        ("loop", loop, check_instability),
        ("loop", loop, check_cartan),
        ("loop", loop, check_adem),
        ("model", model, check_instability),
        ("model", model, check_adem),
    ]
    verdicts = [
        _check_verdict(side, checker(module, args.max_sq)) for side, module, checker in jobs
    ]
    skipped = sum(v.pop("skipped") for v in verdicts)
    return params, verdicts, _counts(verdicts, skipped), None


def _run_ez(args):
    spec = GradingSpec(args.n, args.m)
    params = {
        "n": spec.n,
        "m": spec.m,
        "maxLevel": args.max_level,
        "trials": args.trials,
        "seed": args.seed,
    }
    outcome = run_trials(spec, args.max_level, args.trials, args.seed)
    # A sweep whose checks are mostly vacuous has checked next to nothing.
    mostly_vacuous = outcome["vacuous"] >= outcome["passed"]
    verdicts = [
        {
            "item": "trials",
            "status": "fail" if outcome["failures"] or mostly_vacuous else "pass",
            "detail": (
                f"trials={outcome['trials']} passed={outcome['passed']}"
                f" vacuous={outcome['vacuous']}"
                + (" (no more passed than vacuous)" if mostly_vacuous else "")
            ),
        }
    ]
    for failure in outcome["failures"]:
        verdicts.append({"item": "trial", "status": "fail", "detail": failure})
    counts = {
        "pass": outcome["passed"],
        "fail": len(outcome["failures"]) + mostly_vacuous,
        "skipped": outcome["vacuous"],
    }
    return params, verdicts, counts, None


def _run_compare(args):
    sp = args.space
    params = {
        "space": sp.name,
        "coeff": args.coeff,
        "maxDegree": args.max_degree,
    }
    if args.coeff == "z":
        model = model_homology_z(sp, args.max_degree)
        reference = reference_loop_homology(sp, args.max_degree)

        def per_degree(deg):
            got = model.get(deg, (0, ()))
            want = reference.get(deg, (0, ()))
            if got == want:
                return {"item": f"degree={deg}", "status": "pass", "detail": _group_text(got)}
            return {
                "item": f"degree={deg}",
                "status": "fail",
                "detail": f"model {_group_text(got)} reference {_group_text(want)}",
            }

        verdicts = [per_degree(deg) for deg in range(args.max_degree + 1)]
        return params, verdicts, _counts(verdicts), abelian_tsv(model, args.max_degree)

    params["maxSq"] = args.max_sq
    model = model_module_f2(sp, args.max_degree, args.max_sq)
    loop = loop_module(sp.n, sp.r, args.max_degree, args.max_sq, sq_one=sp.odd_op)
    model_dims, loop_dims = model.dims(), loop.dims()

    def per_degree(deg):
        got = model_dims.get(deg, 0)
        want = loop_dims.get(deg, 0)
        status = "pass" if got == want else "fail"
        return {
            "item": f"degree={deg}",
            "status": status,
            "detail": f"model={got} loop={want}",
        }

    verdicts = [per_degree(deg) for deg in range(args.max_degree + 1)]
    iso = module_iso(model, loop, loop_dictionary(sp, args.max_degree), args.max_sq)
    verdicts.append(_check_verdict("dictionary", iso))
    skipped = verdicts[-1].pop("skipped")
    return params, verdicts, _counts(verdicts, skipped), None


def _dispatch(args):
    if args.command == "compare":
        name = "compare"
        result = _run_compare(args)
    elif args.suite == "main1":
        name = "verify main1"
        result = _run_main1(args)
    elif args.suite == "steenrod":
        name = "verify steenrod"
        result = _run_steenrod(args)
    else:
        name = "verify ez"
        result = _run_ez(args)
    return (name, *result)


def _stats(parse_s: float, run_s: float) -> dict:
    # ru_maxrss is in kilobytes on Linux.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "peakRssMb": round(peak_kb / 1024, 1),
        "caches": cache_stats(),
        # _render fills in the render time once the report text is encoded.
        "stages": {"parse": round(parse_s, 6), "run": round(run_s, 6), "render": None},
    }


def _render(name, params, verdicts, counts, table, fmt, parse_s, run_s) -> str:
    if fmt == "json":
        started = time.perf_counter()
        report = {
            "command": name,
            "parameters": params,
            "verdicts": verdicts,
            "counts": counts,
            "wallTime": round(run_s, 6),
            "stats": _stats(parse_s, run_s),
        }
        text = json.dumps(report, indent=2) + "\n"
        # The render time covers encoding the text that carries it, so it
        # replaces the placeholder left as the report's last value.
        head, _, tail = text.rpartition('"render": null')
        return f'{head}"render": {round(time.perf_counter() - started, 6)!r}{tail}'
    if table is not None:
        return table
    lines = ["item\tstatus\tdetail"]
    lines += [f"{v['item']}\t{v['status']}\t{v['detail']}" for v in verdicts]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    # The import-time heap lives until the process ends, so no collection
    # needs to walk it, and freeing it at exit costs more than most jobs
    # compute.  What the job itself allocates stays collectable.
    gc.freeze()
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    parsed = time.perf_counter()
    name, params, verdicts, counts, table = _dispatch(args)
    ran = time.perf_counter()
    text = _render(
        name, params, verdicts, counts, table, args.format, parsed - started, ran - parsed
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if counts["fail"]:
        for verdict in verdicts:
            if verdict["status"] == "fail":
                print(f"looplab: FAIL {verdict['item']}: {verdict['detail']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
