"""Driver behaviour: arguments, formats, exit codes, determinism."""

import itertools
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from support import build_parser, reference_nondegenerate_basis

from looplab import cli, homology
from looplab.algebra import GradingSpec
from looplab.ez import run_trials, trial_workers
from looplab.rng import SplitMix


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "main1", "--n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--space", "nope", "--coeff", "z"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--space", "cp2", "--coeff", "q"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "main1", "--n", "0", "--m", "2"])
    assert exc.value.code == 2


def test_main1_rows_and_exit(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "main1", "--n", "1", "--m", "2", "--max-level", "1", "--max-degree", "7"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "item\tstatus\tdetail"
    assert lines[1] == "q=0,t=0\tpass\tchain=1 closed=1 resolution=1"
    assert len(lines) == 1 + 2 * 8
    assert all("\tpass\t" in line for line in lines[1:])


def test_main1_json_report(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "main1", "--n", "2", "--m", "2", "--max-level", "1",
         "--max-degree", "8", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "verify main1"
    assert report["parameters"] == {"n": 2, "m": 2, "maxLevel": 1, "maxDegree": 8}
    assert set(report["counts"]) == {"pass", "fail", "skipped"}
    assert report["counts"]["fail"] == 0
    assert report["counts"]["pass"] == len(report["verdicts"])
    assert report["wallTime"] >= 0
    caches = report["stats"]["caches"]
    assert (
        report["stats"]["peakRssMb"] > 0
        and set(caches["normalized"]) == {"hits", "misses"}
        and caches["barcode"]["misses"] > 0
    )
    stages = report["stats"]["stages"]
    assert set(stages) == {"parse", "run", "render"} and min(stages.values()) >= 0


def test_main1_json_report_counts_the_ranked_blocks(capsys):
    # The barcode's corner holds levels 0 .. 4 (level 4 for the boundaries
    # into level 3) up to t = 12: 51 generators, 24 of them cleared; the
    # largest boundary maps the 6 level 4 generators of w = 2 onto 9.  A
    # rerun finds the corner built and reduces nothing more.
    argv = ["verify", "main1", "--n", "1", "--m", "2", "--max-level", "3"]
    homology.clear_caches()
    _, tsv, _ = run_cli(capsys, argv)
    homology.clear_caches()
    for _ in range(2):
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        blocks = json.loads(out)["stats"]["blocks"]
        assert blocks == {"reduced": 27, "cleared": 24, "largest": [9, 6]}
    _, again, _ = run_cli(capsys, argv)
    assert again == tsv
    homology.clear_caches()
    assert homology.block_stats() == {"reduced": 0, "cleared": 0, "largest": [0, 0]}
    code, out, _ = run_cli(capsys, ["compare", "--space", "cp1", "--coeff", "z",
                                    "--max-degree", "4", "--format", "json"])
    assert code == 0 and "blocks" not in json.loads(out)["stats"]


def test_main1_json_report_ranks_each_block_key_once(capsys):
    # At (2, 2) the corner holds levels 0 .. 4 up to t = 30.  Each of its
    # generators, an x-free nondegenerate monomial, has its column either
    # reduced once or cleared, as the pivot row of a column one level up;
    # the widest boundary maps 50 generators onto 60.
    argv = ["verify", "main1", "--n", "2", "--m", "2", "--max-level", "3",
            "--max-degree", "30", "--format", "json"]
    homology.clear_caches()
    code, out, _ = run_cli(capsys, argv)
    homology.clear_caches()
    assert code == 0
    blocks = json.loads(out)["stats"]["blocks"]
    assert blocks == {"reduced": 234, "cleared": 173, "largest": [60, 50]}
    spec = GradingSpec(2, 2)
    generators = sum(
        1
        for q in range(5)
        for t in range(31)
        for w in range(q + 2)
        for mono in reference_nondegenerate_basis(q, spec, t, w)
        if mono.x == 0
    )
    assert blocks["reduced"] + blocks["cleared"] == generators == 407


def test_ez_is_deterministic(capsys):
    argv = ["verify", "ez", "--n", "1", "--m", "2", "--max-level", "2",
            "--trials", "12", "--seed", "5"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, second, _ = run_cli(capsys, argv)
    assert code == 0
    assert first == second
    assert first.splitlines()[1].startswith("trials\tpass\ttrials=12")


def test_ez_json_report_counts_the_zero_draws(capsys):
    # The three jobs of the benchmark's trials workload: most normalized
    # factors are zero, and most passed checks were handed a zero form.
    # The report names how many processes checked the trials.
    expect = {1: (6492, 5000), 2: (6485, 5238), 3: (6493, 5392)}
    for n, (normalized, zero) in expect.items():
        code, out, _ = run_cli(
            capsys,
            ["verify", "ez", "--n", str(n), "--m", "2", "--max-level", "3",
             "--trials", "1000", "--seed", "0", "--format", "json"],
        )
        report = json.loads(out)
        draws = report["stats"]["draws"]
        assert code == 0 and draws["normalized"] == normalized and draws["zero"] == zero
        assert report["stats"]["workers"] == trial_workers(1000) >= 1
        assert report["counts"]["pass"] / 2 < draws["passedOnZero"] <= report["counts"]["pass"]
    # The TSV carries no draw counts.
    tsv = run_cli(capsys, ["verify", "ez", "--n", "1", "--m", "2", "--trials", "20"])[1]
    assert "zero" not in tsv and len(tsv.splitlines()) == 2


def test_mostly_vacuous_trials_exit_one(capsys, monkeypatch):
    def vacuous(spec, max_level, trials, seed):
        draws = {"normalized": 0, "zero": 0, "passedOnZero": 0}
        return {"trials": trials, "passed": 4, "vacuous": 4, "failures": [], "draws": draws}

    monkeypatch.setattr(cli, "run_trials", vacuous)
    code, out, err = run_cli(
        capsys, ["verify", "ez", "--n", "1", "--m", "2", "--max-level", "2", "--trials", "3"]
    )
    assert code == 1
    assert out.splitlines()[1].startswith("trials\tfail\ttrials=3 passed=4 vacuous=4")
    assert "FAIL trials" in err


def test_compare_z_emits_the_group_table(capsys):
    code, out, _ = run_cli(
        capsys, ["compare", "--space", "cp2", "--coeff", "z", "--max-degree", "12"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree\tfreeRank\ttorsion"
    assert lines[1] == "0\t1\t-"
    assert lines[5] == "4\t1\t3"
    assert len(lines) == 14


def test_compare_z_failure_exits_one(capsys, monkeypatch):
    def wrong(sp, deg_max):
        return {0: (2, ())}

    monkeypatch.setattr(cli, "reference_loop_homology", wrong)
    code, out, err = run_cli(
        capsys, ["compare", "--space", "cp1", "--coeff", "z", "--max-degree", "4"]
    )
    assert code == 1
    assert "FAIL" in err
    assert out.splitlines()[0] == "degree\tfreeRank\ttorsion"


def test_compare_f2_reports_the_dictionary(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compare", "--space", "s4", "--coeff", "f2", "--max-degree", "24", "--max-sq", "4"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("dictionary:module_iso\tpass")
    assert all("\tfail\t" not in line for line in lines)


def test_steenrod_runs_both_sides(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "steenrod", "--space", "cp2", "--max-degree", "30", "--max-sq", "4"],
    )
    assert code == 0
    items = [line.split("\t")[0] for line in out.splitlines()[1:]]
    assert items == [
        "loop:instability",
        "loop:cartan",
        "loop:adem",
        "model:instability",
        "model:adem",
    ]


def test_out_flag_writes_the_file(capsys, tmp_path):
    target = tmp_path / "report.tsv"
    code, out, _ = run_cli(
        capsys,
        ["compare", "--space", "s2", "--coeff", "z", "--max-degree", "6",
         "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "degree\tfreeRank\ttorsion"


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_an_unwritable_out_is_a_usage_error_before_the_run(where, tmp_path, capsys, monkeypatch):
    def no_run(args):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(cli.GRAMMAR, ("compare",), (*cli.GRAMMAR[("compare",)][:2], no_run))
    target = tmp_path / "missing" / "x" if where == "missing" else tmp_path
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--space", "s2", "--coeff", "z", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: looplab compare")
    assert error.startswith(f"looplab: error: argument --out: can't open {str(target)!r}: ")
    result = subprocess.run(
        [sys.executable, "-m", "looplab.cli", "verify", "main1", "--n", "1", "--m", "2",
         "--max-level", "1", "--max-degree", "4", "--out", str(target)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert "Traceback" not in result.stderr and "argument --out:" in result.stderr


@pytest.mark.parametrize("fails", [0, 2])
def test_a_grammar_row_is_a_whole_suite(fails, capsys, monkeypatch):
    # One more row and its runner make a command: main prints the runner's
    # rows, names the report after the path, puts the runner's stats after
    # the caches, and exits by its fail count.
    def run_demo(args):
        verdicts = [
            {"item": f"k={k}", "status": "fail" if k < fails else "pass", "detail": f"k={k}"}
            for k in range(args.size)
        ]
        counts = {"pass": args.size - fails, "fail": fails, "skipped": 0}
        return {"size": args.size}, verdicts, counts, None, {"demo": {"seen": args.size}}

    options = {"--size": (int, 3), **cli._OUTPUT}
    monkeypatch.setitem(cli.GRAMMAR, ("verify", "demo"), ("a demo suite", options, run_demo))
    code, out, err = run_cli(capsys, ["verify", "demo"])
    assert code == (1 if fails else 0)
    assert out == "item\tstatus\tdetail\n" + "".join(
        f"k={k}\t{'fail' if k < fails else 'pass'}\tk={k}\n" for k in range(3)
    )
    assert err.count("looplab: FAIL") == fails
    code, out, _ = run_cli(capsys, ["verify", "demo", "--size", "4", "--format", "json"])
    assert code == (1 if fails else 0)
    report = json.loads(out)
    assert report["command"] == "verify demo" and report["parameters"] == {"size": 4}
    assert list(report["stats"]) == ["peakRssMb", "caches", "demo", "stages"]
    assert report["stats"]["demo"] == {"seen": 4}


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "looplab.cli", "verify", "main1",
         "--n", "1", "--m", "2", "--max-level", "1", "--max-degree", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("item\tstatus\tdetail")


COMPARE_CP2 = ["compare", "--space", "cp2", "--coeff", "z", "--max-degree", "120"]


def test_a_separate_process_writes_the_whole_report(capsys, tmp_path):
    # The CLI process freezes its heap and skips freeing it at exit; what it
    # wrote must still reach the pipe and the file byte for byte.
    code, expected, _ = run_cli(capsys, COMPARE_CP2)
    assert code == 0
    piped = subprocess.run(
        [sys.executable, "-m", "looplab.cli", *COMPARE_CP2], capture_output=True
    )
    assert piped.returncode == 0
    assert piped.stdout == expected.encode()
    target = tmp_path / "report.tsv"
    written = subprocess.run(
        [sys.executable, "-m", "looplab.cli", *COMPARE_CP2, "--out", str(target)],
        capture_output=True,
    )
    assert written.returncode == 0 and written.stdout == b""
    assert target.read_bytes() == expected.encode()


def test_main_freezes_the_import_time_heap(tmp_path):
    child = (
        "import gc, sys\n"
        "from looplab import cli\n"
        "before = gc.get_freeze_count()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, before, gc.get_freeze_count())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child, *COMPARE_CP2, "--out", str(tmp_path / "out.tsv")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    code, before, after = map(int, result.stdout.split())
    assert (code, before) == (0, 0) and after > 0


# --- the grammar table against the argparse parser it replaced ---

README_COMMANDS = [
    "verify main1 --n 2 --m 2 --max-level 3 --max-degree 24",
    "verify steenrod --space cp2 --max-degree 60 --max-sq 8",
    "verify ez --n 1 --m 2 --max-level 3 --trials 100 --seed 7",
    "compare --space hp2 --coeff z --max-degree 80",
    "compare --space s4 --coeff f2 --max-degree 60 --max-sq 8",
]

# A valid value for every option.
SAMPLE_VALUES = {
    "--n": "2", "--m": "4", "--max-level": "5", "--max-degree": "17", "--max-sq": "8",
    "--trials": "9", "--seed": "11", "--space": "hp2", "--coeff": "f2",
    "--format": "json", "--out": "report.txt",
}


def _benchmark_jobs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    workload_jobs = runpy.run_path(str(path))["workload_jobs"]
    return [argv for w in ("slices", "modules", "trials") for argv in workload_jobs(w, 3)]


def _valid_grid():
    grid = [line.split() for line in README_COMMANDS] + _benchmark_jobs()
    for path, (_, options, _) in cli.GRAMMAR.items():
        required = [name for name, (_, d) in options.items() if d is cli.REQUIRED]
        optional = [name for name in options if name not in required]
        for size in range(len(optional) + 1):
            for chosen in itertools.combinations(optional, size):
                names = required + list(chosen)
                grid.append([*path, *(t for n in names for t in (n, SAMPLE_VALUES[n]))])
                grid.append([*path, *(f"{n}={SAMPLE_VALUES[n]}" for n in reversed(names))])
    return grid


def test_the_grammar_parses_like_the_argparse_parser(monkeypatch):
    # Loading the benchmark's job lists puts its directory on sys.path.
    monkeypatch.setattr(sys, "path", sys.path[:])
    reference = build_parser()
    grid = _valid_grid()
    assert len(grid) > 150
    for argv in grid:
        assert vars(cli.parse_args(argv)) == vars(reference.parse_args(argv)), argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify"],
        ["verify", "main2", "--n", "1", "--m", "2"],
        ["verify", "main1", "--n", "1"],
        ["compare", "--space", "cp2"],
        ["verify", "main1", "--n", "two", "--m", "2"],
        ["verify", "ez", "--n", "1", "--m", "2", "--trials", "1.5"],
        ["verify", "main1", "--n", "0", "--m", "2"],
        ["verify", "main1", "--n", "1", "--m", "1"],
        ["verify", "main1", "--n", "1", "--m", "2", "--max-level", "-1"],
        ["verify", "ez", "--n", "1", "--m", "2", "--max-level", "0"],
        ["verify", "steenrod", "--space", "cp2", "--max-sq", "0"],
        ["compare", "--space", "cp2", "--coeff", "q"],
        ["compare", "--space", "cp2", "--coeff", "z", "--format", "xml"],
        ["compare", "--space", "nope", "--coeff", "z"],
        ["verify", "steenrod", "--space", "cp9"],
    ],
)
def test_both_parsers_refuse_the_same_usage_errors(argv, capsys):
    for parse in (cli.parse_args, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main1", "--n", "1", "--m", "2", "--max-l", "1"],
        ["compare", "--space", "cp2", "--coe", "z"],
        ["verify", "main1", "--n", "1", "--m", "2", "--n", "3"],
        ["verify", "ez", "--n", "1", "--m", "2", "--seed=1", "--seed", "2"],
    ],
)
def test_abbreviations_and_repeats_are_refused(argv, capsys):
    # argparse took the prefix of a unique name and kept the last repeat.
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    assert "looplab: error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main1", "--n", "1", "--m"],
        ["verify", "main1", "--n", "1", "--m", "2", "--out"],
        ["verify", "main1", "--n", "1", "--m", "2", "--out", "--format", "json"],
    ],
)
def test_a_flag_without_its_value_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    assert "expected one value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path", [(), ("verify",), ("verify", "main1"), ("verify", "steenrod"), ("verify", "ez"),
             ("compare",)]
)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_at_each_level_exits_zero(path, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([*path, flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(("usage: looplab", *path)))
    if path in cli.GRAMMAR:
        assert all(name in out for name in cli.GRAMMAR[path][1])


def test_importing_the_cli_loads_no_parser_or_json_modules():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    show = "import sys; print(' '.join(sys.modules))"

    def loaded(code):
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        return set(result.stdout.split())

    added = loaded("import looplab.cli; " + show) - loaded(show)
    assert "looplab.cli" in added
    assert not {m.split(".")[0] for m in added} & {
        "argparse", "gettext", "locale", "json", "dataclasses", "inspect", "resource"
    }


def test_ez_refuses_a_degree_bound_past_the_sampler():
    result = subprocess.run(
        [sys.executable, "-m", "looplab.cli", "verify", "ez", "--n", "18446744073709551616",
         "--m", "2", "--max-level", "1", "--trials", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    usage, error = result.stderr.splitlines()
    assert usage.startswith("usage: looplab verify ez")
    assert error.startswith("looplab: error:") and "2^64" in error
    # The largest bound a spec can reach below 2^64 is 2^64 - 1, at n = 6.
    m = (2**63 - 1) // 7
    args = cli.parse_args(["verify", "ez", "--n", "6", "--m", str(m)])
    assert 2 * (args.n + 1) * args.m + 1 == 2**64 - 1
    assert SplitMix(0).below(2 * (args.n + 1) * args.m + 1) >= 0
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["verify", "ez", "--n", "6", "--m", str(m + 1)])
    assert exc.value.code == 2


def test_ez_refuses_a_level_bound_past_the_sampler():
    # Only parsed and refused: a sweep at such a level would build forms
    # with that many slots.
    result = subprocess.run(
        [sys.executable, "-m", "looplab.cli", "verify", "ez", "--n", "1", "--m", "2",
         "--max-level", str(2**64), "--trials", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert "Traceback" not in result.stderr
    usage, error = result.stderr.splitlines()
    assert usage.startswith("usage: looplab verify ez")
    assert error == (
        "looplab: error: argument --max-level: the level bound max_level + 1 must not exceed 2^64"
    )
    args = cli.parse_args(["verify", "ez", "--n", "1", "--m", "2", "--max-level", str(2**64 - 1)])
    assert args.max_level + 1 == 2**64
    assert SplitMix(0).below(args.max_level + 1) >= 0


def test_ez_refuses_a_seed_past_the_sampler():
    # SplitMix reads its seed mod 2^64, so 2^64 + 1 would replay seed 1.
    result = subprocess.run(
        [sys.executable, "-m", "looplab.cli", "verify", "ez", "--n", "1", "--m", "2",
         "--max-level", "1", "--trials", "1", "--seed", str(2**64 + 1)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert "Traceback" not in result.stderr
    usage, error = result.stderr.splitlines()
    assert usage.startswith("usage: looplab verify ez")
    assert error == "looplab: error: argument --seed: the seed must be below 2^64"
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["verify", "ez", "--n", "1", "--m", "2", "--seed", str(2**64)])
    assert exc.value.code == 2
    args = cli.parse_args(["verify", "ez", "--n", "1", "--m", "2", "--seed", str(2**64 - 1)])
    assert args.seed == 2**64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="seed"):
            run_trials(GradingSpec(1, 2), 1, 1, seed)


def test_a_bound_past_the_window_checks_what_the_window_holds(capsys):
    # Every operation past deg_max is skipped, so raising --max-sq from the
    # window's own size to a million changes only the skipped counts.
    for command in (["verify", "steenrod", "--space", "cp2"],
                    ["compare", "--space", "hp3", "--coeff", "f2"]):
        checked = []
        for bound in ("40", "1000000"):
            code, out, _ = run_cli(capsys, [*command, "--max-degree", "40", "--max-sq", bound])
            assert code == 0
            checked.append([field for field in out.split() if field.startswith("checked=")])
        assert checked[0] == checked[1] and len(checked[0]) > 0, command


def test_a_bound_past_the_window_is_capped_at_the_window(capsys):
    # Every Sq^k with k past --max-degree leaves the window, so the bound
    # the checkers get is capped there and a million prints what 40 prints;
    # the JSON parameters still report the bound as given.
    for command in (["verify", "steenrod", "--space", "cp2"],
                    ["compare", "--space", "hp3", "--coeff", "f2"]):
        outs = [
            run_cli(capsys, [*command, "--max-degree", "40", "--max-sq", bound])[1]
            for bound in ("40", "1000000")
        ]
        assert outs[0] == outs[1] and "skipped=" in outs[0], command
        code, out, _ = run_cli(capsys, [*command, "--max-degree", "40", "--max-sq", "1000000",
                                        "--format", "json"])
        assert code == 0 and json.loads(out)["parameters"]["maxSq"] == 1000000
    # a window of degree 0 still checks from Sq^1, every operation skipped
    code, out, _ = run_cli(capsys, ["verify", "steenrod", "--space", "cp2", "--max-degree", "0"])
    assert code == 0 and "checked=0" in out
