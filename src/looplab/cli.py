"""Batch command line driver for the cross checking suites.

Each invocation runs one suite and writes one report: exit status 0
when every item passed, 1 when anything failed, 2 on usage errors (an
--out that cannot be opened among them).  The default output is a TSV
of verdict rows (or, for the integral comparison, the graded group table
itself); --format json emits a single run report object carrying the
command, its parameters, the verdicts, pass/fail/skip counts, the wall
time, and run statistics: the process's peak resident memory, the hits
and misses of the homology caches, the stats the suite's runner returns
(the barcode's blocks for verify main1, the sweep's draws and workers
for verify ez), and the wall seconds of the parse, run and render stages.

``main`` first freezes the heap that importing the package left behind
(``gc.freeze``).  That heap lives until the process ends, so no
collection needs to walk it; without the freeze, the final collection
at interpreter exit walks and frees it, which takes longer than most
short jobs compute.

The command line is one fixed grammar, the table ``GRAMMAR``, walked by
``parse_args``; a suite is one row of it, which names its runner.
argparse is not used: importing it and building its parsers (with their
message catalogue lookups) cost a short job about as much as its
computation, and ``json`` loads only for --format json.

Beyond the modules that interpreter start-up already holds, importing
this module loads only the package, ``gc`` and ``__future__``.  The
package's value classes are NamedTuples or plain slotted classes, not
data classes: the standard library's data class module pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, and each short job paid
to load them and to tear them down at exit.  ``resource``, read only for
the peak memory of a JSON report, loads in that branch next to ``json``.
"""

from __future__ import annotations

import gc
import sys
import time
from types import SimpleNamespace

from .algebra import GradingSpec
from .closedform import loop_module, main1_dims
from .ez import run_trials, trial_workers
from .homology import block_stats, cache_stats, homology_dim, koszul_dim
from .steenrod import check_adem, check_cartan, check_instability, module_iso
from .thom import (
    abelian_tsv,
    loop_dictionary,
    model_homology_z,
    model_module_f2,
    reference_loop_homology,
    space,
)

__all__ = ["main", "parse_args"]


def _at_least(low: int, message: str):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if value < low:
            raise ValueError(message)
        return value

    return convert


_exponent = _at_least(1, "the truncation exponent must be at least 1")
_weight = _at_least(2, "the generator degree must be at least 2")
_nonneg = _at_least(0, "must not be negative")
_positive = _at_least(1, "must be positive")


def _choice(*options: str):
    def convert(text: str) -> str:
        if text not in options:
            shown = ", ".join(repr(o) for o in options)
            raise ValueError(f"invalid choice: {text!r} (choose from {shown})")
        return text

    convert.options = options
    return convert


_HELP = ("-h", "--help")
# The trials draw every degree below 2(n+1)m + 1 and every level below
# max_level + 1 from one 64-bit word, and take their seed as one.
_DRAW_SPAN = 1 << 64


def _next_words(path: tuple) -> list:
    """The command words that may follow path, in table order."""
    depth = len(path)
    return list(dict.fromkeys(k[depth] for k in GRAMMAR if k[:depth] == path and len(k) > depth))


def _flag(name: str, convert) -> str:
    """An option as usage shows it, with a placeholder for its value."""
    options = getattr(convert, "options", None)
    value = "{" + ",".join(options) + "}" if options else name[2:].upper().replace("-", "_")
    return f"{name} {value}"


def _usage(path: tuple) -> str:
    head = " ".join(("usage: looplab", *path))
    if path not in GRAMMAR:
        return f"{head} [-h] {{{','.join(_next_words(path))}}} ..."
    shown = [
        _flag(name, convert) if default is REQUIRED else f"[{_flag(name, convert)}]"
        for name, (convert, default) in GRAMMAR[path][1].items()
    ]
    return f"{head} [-h] {' '.join(shown)}"


def _help(path: tuple):
    lines = [_usage(path), ""]
    if path in GRAMMAR:
        summary, options, _ = GRAMMAR[path]
        lines += [summary, "", "options:"]
        rows = []
        for name, (convert, default) in options.items():
            note = "required" if default is REQUIRED else f"default {default}"
            rows.append((_flag(name, convert), "" if default is None else note))
    else:
        lines += ["Cross checks for free loop space homology computations.", "", "commands:"]
        rows = [(" ".join(k), GRAMMAR[k][0]) for k in GRAMMAR if k[: len(path)] == path]
    width = max(len(left) for left, _ in rows)
    lines += [f"  {left.ljust(width)}  {right}".rstrip() for left, right in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _fail(path: tuple, message: str):
    sys.stderr.write(f"{_usage(path)}\nlooplab: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv) -> SimpleNamespace:
    """Parse argv against GRAMMAR; a usage error exits 2, help exits 0.

    Options take exact names only, as "--name value" or "--name=value",
    each at most once; "-h" or "--help" at any level prints that level's
    usage.
    """
    rest = list(argv)
    path = ()
    while path not in GRAMMAR:
        words = _next_words(path)
        if not rest:
            _fail(path, f"expected one of: {', '.join(words)}")
        word = rest.pop(0)
        if word in _HELP:
            _help(path)
        if word not in words:
            _fail(path, f"invalid choice: {word!r} (choose from {', '.join(words)})")
        path += (word,)
    options = GRAMMAR[path][1]
    given = {}
    while rest:
        token = rest.pop(0)
        if token in _HELP:
            _help(path)
        name, eq, text = token.partition("=")
        if name not in options:
            _fail(path, f"unrecognized argument: {token}")
        if name in given:
            _fail(path, f"argument {name}: given more than once")
        if not eq:
            if not rest or rest[0].startswith("--"):
                _fail(path, f"argument {name}: expected one value")
            text = rest.pop(0)
        try:
            given[name] = options[name][0](text)
        except ValueError as err:
            _fail(path, f"argument {name}: {err}")
    missing = [
        name for name, (_, default) in options.items() if default is REQUIRED and name not in given
    ]
    if missing:
        _fail(path, f"the following arguments are required: {', '.join(missing)}")
    fields = dict(zip(("command", "suite"), path))
    for name, (_, default) in options.items():
        fields[name[2:].replace("-", "_")] = given.get(name, default)
    args = SimpleNamespace(**fields)
    if path == ("verify", "ez"):
        if 2 * (args.n + 1) * args.m + 1 > _DRAW_SPAN:
            _fail(path, "arguments --n, --m: the degree bound 2(n+1)m + 1 must not exceed 2^64")
        if args.max_level + 1 > _DRAW_SPAN:
            _fail(path, "argument --max-level: the level bound max_level + 1 must not exceed 2^64")
        if args.seed >= _DRAW_SPAN:
            _fail(path, "argument --seed: the seed must be below 2^64")
    return args


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

    homology_dim(spec, args.max_level, t_max)  # builds the barcode once, to the corner
    verdicts = [check(q, t) for q in range(args.max_level + 1) for t in range(t_max + 1)]
    return params, verdicts, _counts(verdicts), None, {"blocks": block_stats()}


def _check_verdict(side: str, report: dict) -> dict:
    detail = f"checked={report['checked']} skipped={report['skipped']}"
    if report["failures"]:
        detail += " " + "; ".join(report["failures"][:3])
    return {
        "item": f"{side}:{report['check']}",
        "status": "pass" if report["pass"] else "fail",
        "detail": detail,
    }


def _f2_modules(args) -> tuple:
    """The loop module and wedge model of --space, and --max-sq capped at
    the window: no Sq^k with k past --max-degree stays in it."""
    sp = args.space
    loop = loop_module(sp.n, sp.r, args.max_degree, sq_one=sp.odd_op)
    model = model_module_f2(sp, args.max_degree)
    return loop, model, min(args.max_sq, max(args.max_degree, 1))


def _run_steenrod(args):
    params = {"space": args.space.name, "maxDegree": args.max_degree, "maxSq": args.max_sq}
    loop, model, k_max = _f2_modules(args)
    jobs = [
        ("loop", loop, check_instability),
        ("loop", loop, check_cartan),
        ("loop", loop, check_adem),
        ("model", model, check_instability),
        ("model", model, check_adem),
    ]
    reports = [(side, checker(module, k_max)) for side, module, checker in jobs]
    verdicts = [_check_verdict(side, report) for side, report in reports]
    skipped = sum(report["skipped"] for _, report in reports)
    return params, verdicts, _counts(verdicts, skipped), None, {}


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
    stats = {"draws": outcome["draws"], "workers": trial_workers(args.trials)}
    return params, verdicts, counts, None, stats


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
        return params, verdicts, _counts(verdicts), abelian_tsv(model, args.max_degree), {}

    params["maxSq"] = args.max_sq
    loop, model, k_max = _f2_modules(args)
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
    iso = module_iso(model, loop, loop_dictionary(sp, args.max_degree), k_max)
    verdicts.append(_check_verdict("dictionary", iso))
    return params, verdicts, _counts(verdicts, iso["skipped"]), None, {}


# A default that marks an option every invocation must give.
REQUIRED = object()

_OUTPUT = {"--format": (_choice("tsv", "json"), "tsv"), "--out": (str, None)}

# The whole command line: each command path maps to its one-line summary,
# its options (each name to (converter, default or REQUIRED)) and its runner.
# A parsed option is the attribute named after it ("--max-level" becomes
# max_level); the command words are "command" and, under verify, "suite".
# A runner returns (parameters, verdicts, counts, table, stats): table is
# the text printed in place of the verdict TSV, or None, and stats are the
# suite's own entries of the JSON report's stats.
GRAMMAR = {
    ("verify", "main1"): (
        "closed form dimensions against two chain level computations",
        {
            "--n": (_exponent, REQUIRED),
            "--m": (_weight, REQUIRED),
            "--max-level": (_nonneg, 3),
            "--max-degree": (_nonneg, None),
            **_OUTPUT,
        },
        _run_main1,
    ),
    ("verify", "steenrod"): (
        "operation axioms on both module descriptions of one space",
        {
            "--space": (space, REQUIRED),
            "--max-degree": (_nonneg, 80),
            "--max-sq": (_positive, 16),
            **_OUTPUT,
        },
        _run_steenrod,
    ),
    ("verify", "ez"): (
        "seeded random trials of the chain level product identities",
        {
            "--n": (_exponent, REQUIRED),
            "--m": (_weight, REQUIRED),
            "--max-level": (_positive, 3),
            "--trials": (_positive, 200),
            "--seed": (_nonneg, 0),
            **_OUTPUT,
        },
        _run_ez,
    ),
    ("compare",): (
        "wedge model against the loop side in one coefficient system",
        {
            "--space": (space, REQUIRED),
            "--coeff": (_choice("f2", "z"), REQUIRED),
            "--max-degree": (_nonneg, 120),
            "--max-sq": (_positive, 16),
            **_OUTPUT,
        },
        _run_compare,
    ),
}


def _render(name, result, fmt, parse_s, run_s) -> str:
    params, verdicts, counts, table, stats = result
    if fmt == "json":
        import json
        import resource

        started = time.perf_counter()
        # ru_maxrss is in kilobytes on Linux.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        stats = {"peakRssMb": round(peak_kb / 1024, 1), "caches": cache_stats(), **stats}
        # Filled in below, once the report text is encoded.
        stats["stages"] = {"parse": round(parse_s, 6), "run": round(run_s, 6), "render": None}
        report = {
            "command": name,
            "parameters": params,
            "verdicts": verdicts,
            "counts": counts,
            "wallTime": round(run_s, 6),
            "stats": stats,
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
    args = parse_args(sys.argv[1:] if argv is None else argv)
    fields = vars(args)
    path = tuple(fields[word] for word in ("command", "suite") if word in fields)
    # Opened before the run: a report that cannot be written is a usage error.
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as err:
        _fail(path, f"argument --out: can't open {args.out!r}: {err.strerror}")
    try:
        parsed = time.perf_counter()
        result = GRAMMAR[path][2](args)
        ran = time.perf_counter()
        out.write(_render(" ".join(path), result, args.format, parsed - started, ran - parsed))
    finally:
        if args.out:
            out.close()
    _, verdicts, counts, _, _ = result
    if counts["fail"]:
        for verdict in verdicts:
            if verdict["status"] == "fail":
                print(f"looplab: FAIL {verdict['item']}: {verdict['detail']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
