"""Driver behaviour: arguments, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from looplab import cli


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
        and set(caches["pipeline"]) == {"hits", "misses"}
        and caches["quotientLevel"]["misses"] > 0
    )
    stages = report["stats"]["stages"]
    assert set(stages) == {"parse", "run", "render"} and min(stages.values()) >= 0


def test_ez_is_deterministic(capsys):
    argv = ["verify", "ez", "--n", "1", "--m", "2", "--max-level", "2",
            "--trials", "12", "--seed", "5"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, second, _ = run_cli(capsys, argv)
    assert code == 0
    assert first == second
    assert first.splitlines()[1].startswith("trials\tpass\ttrials=12")


def test_mostly_vacuous_trials_exit_one(capsys, monkeypatch):
    def vacuous(spec, max_level, trials, seed):
        return {"trials": trials, "passed": 4, "vacuous": 4, "failures": []}

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
