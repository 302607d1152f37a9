"""looplab benchmark: fixed lists of CLI jobs, one fresh process per job.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload slices|modules|trials \
        --seed N --seconds S --trace 0|1

Users run looplab as a batch verifier, one CLI job to its verdict, so the
benchmark is a closed loop with one client: it runs the jobs of a
workload one after another, each in a new interpreter (job.py) with
``PYTHONPATH=src`` and ``LOOPLAB_THREADS`` unset.  A fresh process per
job matters: ``homology._pipeline`` is a process-wide cache, and
repeating a job in one process would time cache reads.

A pass runs every job of the workload once.  Passes repeat until the
next one would end after ``--seconds``, but an untraced run takes at
least 18 job samples.  ``trials`` passes ``--seed`` to its jobs;
``slices`` and ``modules`` are fixed grids that ignore it.

The machine this runs on is a share of a busy host whose speed drifts
by 10-40% over tens of seconds, far more than a run's own medians vary.
So this script also times fixed pure-Python kernels (``speed_probe``)
before every job and after the last one of each pass, and multiplies
every end-to-end timing of the run by ``REF_PROBE_S`` over the
interquartile mean of the run's probe times.  The timings are therefore
seconds at a reference speed: what the jobs would take on a machine
that runs the probe in ``REF_PROBE_S``.  The probe runs no looplab
code, so a change to looplab moves them in full.  The unscaled values
and the probe's mean are printed above the result line.

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json), all
timings scaled as above:

* ``setup_s``: process start through ``import looplab.cli``, median
  over every job of the run;
* ``run_s``: the jobs' times after set-up, summed over a pass, median
  over passes;
* ``job_p50_s``: median job time after set-up;
* ``job_tail_s``: job time at the highest percentile with at least ten
  samples beyond it in the fewest samples a run takes (p41 on slices
  and trials, p74 on modules); the percentile and sample count are
  printed;
* ``peak_rss_mb``: largest peak RSS of any job process (``wait4``);
* ``job_ok_share``: jobs that passed their check over jobs attempted.

A workload's jobs are distinct computations whose times differ by more
than their noise, so a single order statistic jumps from one job's time
to another's between runs.  Both percentiles are therefore
Harrell-Davis estimates, a weighted mean of all the sorted samples.

A job fails on a non-zero exit, a ``fail`` verdict row, or stdout whose
sha256 differs from the one pinned in digests.json (``slices`` and
``modules``).  ``trials`` counts depend on the seed; those jobs must
show ``passed > vacuous`` instead.  Every run first checks that
corrupted copies of a real output count as failed.

``--trace 1`` runs each pass twice, untraced and traced (tracer.py),
requires byte-identical stdout from both, and prints the per-layer
metrics: span self times, call counts and sizes, the useful-work ratios
read from the verdict rows, and the tracing overhead.
interactions.json records which end-to-end metric each layer metric
should move, on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SIZES, TARGETS, load as load_trace  # noqa: E402

SPACES = ("cp1", "cp2", "cp3", "cp4", "hp1", "hp2", "hp3", "cayley", "s2", "s3", "s4", "s5", "s6")
GRID_PAIRS = ((1, 2), (1, 3), (2, 2), (2, 4), (3, 2), (3, 4), (4, 2))
TAIL_BEYOND = 10
# An untraced run takes at least this many job samples (two slices passes).
MIN_JOB_SAMPLES = 18
HARD_LIMIT_S = 160.0
# Nominal time of speed_probe(); end-to-end timings are scaled to it.
REF_PROBE_S = 0.0085
# Inputs of speed_probe(), the same in every run.
_PROBE_RNG = random.Random(0)
PROBE_ROWS = [_PROBE_RNG.getrandbits(3000) for _ in range(300)]
PROBE_TERMS = [tuple(_PROBE_RNG.randrange(5) for _ in range(4)) for _ in range(50)]
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, *_ in TARGETS))


def workload_jobs(workload: str, seed: int) -> list[list[str]]:
    if workload == "slices":
        # GF(2) elimination: two deep (2,2) jobs, wide matrices at L=3 and
        # more faces per slice at L=4, plus the acceptance grid (odd and even n).
        deep = [
            "verify main1 --n 2 --m 2 --max-level 3 --max-degree 30",
            "verify main1 --n 2 --m 2 --max-level 4 --max-degree 24",
        ]
        grid = [f"verify main1 --n {n} --m {m} --max-level 3" for n, m in GRID_PAIRS]
        lines = deep + grid
    elif workload == "modules":
        # Operation modules (check_cartan dominates); many short jobs make
        # set-up, cli and thom visible, and no job calls gf2.
        lines = []
        for name in SPACES:
            lines += [
                f"verify steenrod --space {name} --max-degree 80 --max-sq 16",
                f"compare --space {name} --coeff f2 --max-degree 100 --max-sq 16",
                f"compare --space {name} --coeff z --max-degree 120",
            ]
    else:
        # Form arithmetic and many cached normalized-basis reads.
        lines = [
            f"verify ez --n {n} --m 2 --max-level 3 --trials 1000 --seed {seed}"
            for n in (1, 2, 3)
        ]
    return [line.split() for line in lines]


@dataclass
class Job:
    argv: list[str]
    code: int
    stdout: bytes
    stderr: bytes
    setup_s: float
    job_s: float
    rss_mb: float
    trace: dict | None


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LOOPLAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_job(argv: list[str], tmp: Path, traced: bool, deadline: float) -> Job:
    """Run one job to its end; the process is killed at the run's deadline."""
    out_path, err_path, trace_path = tmp / "stdout", tmp / "stderr", tmp / "trace.bin"
    trace_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), str(trace_path) if traced else "-", *argv],
            stdout=out,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
        )
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    ready = re.match(rb"perfbench-ready (\S+)\n", stderr)
    ready_t = float(ready.group(1)) if ready else end
    trace = None
    if traced and trace_path.exists():
        trace = load_trace(trace_path)
    return Job(
        argv=argv,
        code=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        setup_s=ready_t - start,
        job_s=end - ready_t,
        rss_mb=usage.ru_maxrss / 1024.0,
        trace=trace,
    )


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def check_output(
    workload: str, argv: list[str], code: int, stdout: bytes, digests: dict
) -> str | None:
    """Why a job failed, or None when it passed."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.decode("utf-8", "replace").splitlines()
    if lines and lines[0] == "item\tstatus\tdetail":
        rows = [line.split("\t") for line in lines[1:]]
        if any(len(row) != 3 or row[1] != "pass" for row in rows):
            return "a verdict row is not a pass"
    if workload != "trials":
        if hashlib.sha256(stdout).hexdigest() != digests.get(job_key(argv)):
            return "stdout differs from the pinned digest"
        return None
    counts = trial_counts(stdout)
    if counts is None:
        return "no trials row"
    passed, vacuous = counts
    if passed <= vacuous:
        return f"passed={passed} is not above vacuous={vacuous}"
    return None


def trial_counts(stdout: bytes) -> tuple[int, int] | None:
    found = re.search(rb"^trials\tpass\ttrials=\d+ passed=(\d+) vacuous=(\d+)$", stdout, re.M)
    return (int(found.group(1)), int(found.group(2))) if found else None


def negative_control(workload: str, job: Job, digests: dict) -> None:
    """Corrupted copies of a passing output must count as failed."""
    if check_output(workload, job.argv, job.code, job.stdout, digests) is not None:
        return
    lines = job.stdout.splitlines(keepends=True)
    corrupted = [b"".join(lines[:-1])]
    if b"\tpass\t" in job.stdout:
        corrupted.append(job.stdout.replace(b"\tpass\t", b"\tfail\t", 1))
    else:
        corrupted.append(job.stdout[:-2] + bytes([job.stdout[-2] ^ 1]) + job.stdout[-1:])
    for bad in corrupted:
        if check_output(workload, job.argv, 0, bad, digests) is None:
            sys.exit("perfbench: negative control failed: a corrupted output passed the check")
    print(f"negative control: {len(corrupted)} corrupted copies of {job_key(job.argv)!r} failed")


def speed_probe() -> float:
    """Seconds the machine takes, now, for three fixed kernels (about
    9 ms together), one per kind of work in the workloads: dict reads and
    writes on small ints, row reduction of 3000-bit ints (GF(2)
    elimination) and a product of tuple-keyed dicts (Form and module
    arithmetic).  No single kernel's speed tracked all three workloads'."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        table[(i * 7) & 1023] = table.get((i * 13) & 1023, 0) ^ i
    rows, rank = list(PROBE_ROWS), 0
    for col in range(0, 3000, 75):
        bit = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    product: dict[tuple, int] = {}
    for a in PROBE_TERMS:
        for b in PROBE_TERMS:
            key = tuple(sorted(a + b))
            product[key] = product.get(key, 0) ^ 1
    return time.perf_counter() - start


def hygiene(label: str) -> None:
    """Print the interpreter, core count, load and the speed probe's time."""
    with open("/proc/loadavg", encoding="ascii") as handle:
        load = handle.read().strip()
    cores = len(os.sched_getaffinity(0))
    print(
        f"{label}: python {sys.version.split()[0]}, nproc {cores}, loadavg {load},"
        f" speed probe {1000 * speed_probe():.3f} ms",
        flush=True,
    )


def warm_up() -> None:
    """Import the package once untimed (compiles bytecode) and check it comes from src."""
    probe = subprocess.run(
        [sys.executable, "-c", "import looplab.cli; print(looplab.cli.__file__)"],
        capture_output=True,
        env=child_env(),
        cwd=ROOT,
        timeout=60,
        text=True,
    )
    where = probe.stdout.strip()
    if probe.returncode != 0 or not Path(where).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: cannot import looplab from {ROOT / 'src'}: {probe.stderr.strip()}")


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the sorted samples
    weighted by the Beta((n+1)q, (n+1)(1-q)) mass of each 1/n slice of
    [0, 1], integrated numerically."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = max(1, 4000 // n)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_quantile(workload: str) -> float:
    """The highest quantile that leaves TAIL_BEYOND samples beyond it in
    the fewest samples a run takes.  Fixing it by that count keeps it the
    same however many passes fit."""
    n_min = min_passes(workload) * len(workload_jobs(workload, 0))
    return (n_min - TAIL_BEYOND - 1) / (n_min - 1)


def min_passes(workload: str) -> int:
    return math.ceil(MIN_JOB_SAMPLES / len(workload_jobs(workload, 0)))


def run_passes(workload, seed, seconds, traced, tmp, deadline, digests, failures, probes):
    """Run passes until the next would end after `seconds`.  Returns a list
    of (untraced jobs, traced jobs or None) per pass; appends to `probes`
    the speed_probe() times taken around the untraced jobs."""
    started = time.perf_counter()
    passes = []
    fewest = 1 if traced else min_passes(workload)
    jobs_argv = workload_jobs(workload, seed)
    while True:
        t0 = time.perf_counter()
        plain = []
        probes.append(speed_probe())
        for argv in jobs_argv:
            plain.append(run_job(argv, tmp, False, deadline))
            probes.append(speed_probe())
        if not passes:
            negative_control(workload, plain[0], digests)
        for job in plain:
            why = check_output(workload, job.argv, job.code, job.stdout, digests)
            if why:
                last = job.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                failures.append(f"{job_key(job.argv)}: {why} {last}")
        shadow = None
        if traced:
            shadow = [run_job(argv, tmp, True, deadline) for argv in jobs_argv]
            for before, after in zip(plain, shadow):
                if after.stdout != before.stdout or after.code != before.code:
                    failures.append(f"{job_key(after.argv)}: traced output differs")
                elif after.trace is None:
                    failures.append(f"{job_key(after.argv)}: traced job wrote no trace")
        passes.append((plain, shadow))
        now = time.perf_counter()
        took = now - t0
        if now + took > deadline or len(passes) >= 1000:
            break
        if len(passes) >= fewest and now + took > started + seconds:
            break
    return passes


def end_to_end(workload, passes, probes, failures) -> dict[str, float]:
    jobs = [job for plain, _ in passes for job in plain]
    q = tail_quantile(workload)
    print(
        f"job_tail_s is p{100 * q:.0f} of {len(jobs)} job samples"
        f" (at least {TAIL_BEYOND} beyond it)"
    )
    times = {
        "setup_s": statistics.median(j.setup_s for j in jobs),
        "run_s": statistics.median(sum(j.job_s for j in plain) for plain, _ in passes),
        "job_p50_s": quantile([j.job_s for j in jobs], 0.5),
        "job_tail_s": quantile([j.job_s for j in jobs], q),
    }
    # The mean tracks the share of time the host ran slow, which a median
    # does not; dropping the outer quarters keeps one stalled probe out.
    ordered = sorted(probes)
    cut = len(ordered) // 4
    probe_s = statistics.fmean(ordered[cut : len(ordered) - cut])
    print(
        f"speed probe interquartile mean {1000 * probe_s:.3f} ms over {len(probes)} probes"
        f" (reference {1000 * REF_PROBE_S:g} ms); unscaled: "
        + ", ".join(f"{k} {v:.4f} s" for k, v in times.items())
    )
    scale = REF_PROBE_S / probe_s
    return {
        **{k: v * scale for k, v in times.items()},
        "peak_rss_mb": max(j.rss_mb for j in jobs),
        "job_ok_share": 1.0 - len(failures) / len(jobs),
    }


def self_times(trace: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time (duration minus child spans) and calls."""
    names = trace["names"]
    spans = list(zip(trace["ids"], trace["parents"], trace["starts"], trace["ends"]))
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (nid, _, start, end), inner in zip(spans, child):
        name = names[nid]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        calls[name] = calls.get(name, 0) + 1
    return self_s, calls


def pass_layers(plain: list[Job], shadow: list[Job]) -> dict[str, float]:
    """Per-layer values of one traced pass, summed (or maxed) over its jobs."""
    out: dict[str, float] = {}
    for name, _, _, kind in TARGETS:
        out[name + ".calls"] = 0
        if kind == "span":
            out[name + ".self_s"] = 0.0
    out.update(dict.fromkeys(SIZES, 0))
    hits = lookups = 0
    checked = skipped = passed = vacuous = 0
    missing = set()
    for job in shadow:
        trace = job.trace
        if trace is None:  # already counted as a failed job
            continue
        missing.update(trace["missing"])
        self_s, calls = self_times(trace)
        for name, value in self_s.items():
            out[name + ".self_s"] += value
        for name, value in calls.items():
            out[name + ".calls"] += value
        for key, value in trace["counts"].items():
            if key.startswith("gf2.max_"):
                out[key] = max(out[key], value)
            else:
                out[key] += value
        if trace["cache"] is not None:
            hits += trace["cache"][0]
            lookups += trace["cache"][0] + trace["cache"][1]
        for c, s in re.findall(rb"\tchecked=(\d+) skipped=(\d+)", job.stdout):
            checked, skipped = checked + int(c), skipped + int(s)
        counts = trial_counts(job.stdout)
        if counts is not None:
            passed, vacuous = passed + counts[0], vacuous + counts[1]
    for name in sorted(missing):
        print(f"note: traced target {name} not found; its metrics read 0")
    traced_run = sum(j.job_s for j in shadow)
    for layer in LAYERS:
        layer_self = sum(
            v for k, v in out.items() if k.startswith(layer + ".") and k.endswith(".self_s")
        )
        out[f"{layer}.self_share"] = layer_self / traced_run
    out["homology.cache_hit_share"] = hits / lookups if lookups else 0.0
    out["steenrod.checked_share"] = checked / (checked + skipped) if checked + skipped else 0.0
    out["ez.passed_share"] = passed / (passed + vacuous) if passed + vacuous else 0.0
    out["trace.run_s"] = traced_run
    out["trace.overhead_s"] = traced_run - sum(j.job_s for j in plain)
    return out


def per_layer(passes) -> dict[str, float]:
    values = [pass_layers(plain, shadow) for plain, shadow in passes]
    return {key: statistics.median_low(v[key] for v in values) for key in values[0]}


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("slices", "modules", "trials"), required=True)
    parser.add_argument("--seed", type=_nonneg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = time.perf_counter()
    # On SIGTERM, unwind so the running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    groups = json.loads((HERE / "interactions.json").read_text(encoding="utf-8"))["groups"]
    mapped = sorted(n for g in groups for n in g["per_layer"])
    if mapped != sorted(m["name"] for m in spec["per_layer"]):
        sys.exit("perfbench: interactions.json and BENCHMARK.json list different per-layer metrics")
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    hygiene("start")
    warm_up()

    failures: list[str] = []
    probes: list[float] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        passes = run_passes(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            Path(tmp),
            begun + HARD_LIMIT_S,
            digests,
            failures,
            probes,
        )
    for line in failures:
        print(f"FAILED {line}")
    attempted = sum(len(plain) + len(shadow or ()) for plain, shadow in passes)
    computed = per_layer(passes) if args.trace else end_to_end(args.workload, passes, probes, failures)
    unknown = [m["name"] for m in wanted if m["name"] not in computed]
    if unknown:
        sys.exit(f"perfbench: BENCHMARK.json names metrics this script does not compute: {unknown}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    hygiene("end")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
