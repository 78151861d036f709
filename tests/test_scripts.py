"""The scripts under `scripts/`, run with their benchmark and `bankworld`
calls replaced by canned results."""

import json
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import Mock

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PAIRS = 10

# Per metric, ten parent and ten change values (lower is better, bound 25%).
CANNED = {
    "gain": ([10.0 + 0.01 * k for k in range(PAIRS)], [9.0 + 0.01 * k for k in range(PAIRS)]),
    "flat": ([10.0 + 0.01 * k for k in range(PAIRS)], [10.0 + 0.01 * k for k in range(PAIRS)]),
    "wide": ([5.0, 15.0] * (PAIRS // 2), [10.0] * PAIRS),
    "worse": ([10.0] * PAIRS, [20.0] * PAIRS),
}


def bench_pairs():
    return runpy.run_path(str(SCRIPTS / "bench_pairs.py"))


class TestBenchPairs:
    def run_script(self, tmp_path, capsys, *argv, failed=(0, 0)):
        """The script's summary lines by first word, its stderr, and the
        run length that each run was given; each run of the parent and of
        the change fails ``failed[0]`` and ``failed[1]`` of its 3 checks."""
        bench = {"command": ["true"], "run_seconds": 12, "workloads": [{"name": "w"}],
                 "end_to_end": [{"name": name, "unit": "s", "better": "lower", "bound": 0.25}
                                for name in CANNED]}
        sides = {tmp_path / "parent": 0, tmp_path / "change": 1}
        for checkout in sides:
            checkout.mkdir()
        (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(bench))
        calls = {checkout: 0 for checkout in sides}
        seconds = []

        def run_once(checkout, command, args):
            seconds.append(args.seconds)
            k = calls[checkout]
            calls[checkout] += 1
            return {"failed": failed[sides[checkout]], "attempted": 3, "batches": 5 + sides[checkout] + k % 2,
                    "metrics": {name: {"value": values[sides[checkout]][k]}
                                for name, values in CANNED.items()}}

        script = bench_pairs()
        script["main"].__globals__["run_once"] = run_once
        assert script["main"](["--parent", str(tmp_path / "parent"), "--change",
                               str(tmp_path / "change"), "--workload", "w",
                               "--pairs", str(PAIRS), "--seed", "1", *argv]) == 0
        out, err = capsys.readouterr()
        return {line.split()[0]: line for line in out.splitlines()[1:]}, err, seconds

    def test_verdict_per_metric(self, tmp_path, capsys):
        lines, *_ = self.run_script(tmp_path, capsys)
        assert lines["gain"].endswith("change better in 10 of 10; gain shown")
        assert lines["flat"].endswith("change better in 0 of 10; gain not shown")
        assert lines["wide"].endswith("gain not shown; unresolved: parent spread exceeds bound")
        assert lines["worse"].endswith("gain not shown; worse beyond bound")

    @pytest.mark.parametrize("failed, verdict", [
        ((0, 0), "parent 0.0%, change 0.0%; no larger share failed"),
        ((0, 1), "parent 0.0%, change 33.3%; the change fails a larger share"),
        ((1, 1), "parent 33.3%, change 33.3%; no larger share failed"),
        ((2, 1), "parent 66.7%, change 33.3%; no larger share failed"),
    ], ids=["none", "change-more", "equal", "parent-more"])
    def test_failed_share_verdict(self, tmp_path, capsys, failed, verdict):
        lines, err, _ = self.run_script(tmp_path, capsys, failed=failed)
        assert lines["failed"].endswith(verdict)
        assert f"pair 0 change: failed checks {failed[1]} of 3," in err

    def test_batch_counts_per_run_and_per_side(self, tmp_path, capsys):
        lines, err, _ = self.run_script(tmp_path, capsys)
        assert lines["parent:"].endswith("batches per run 5 6 5 6 5 6 5 6 5 6")
        assert lines["change:"].endswith("batches per run 6 7 6 7 6 7 6 7 6 7")
        assert "pair 0 parent: failed checks 0 of 3, batches 5, " in err
        assert "pair 0 change: failed checks 0 of 3, batches 6, " in err

    @pytest.mark.parametrize("argv, seconds", [((), 12.0), (("--seconds", "2"), 2.0)])
    def test_run_length_defaults_to_run_seconds(self, tmp_path, capsys, argv, seconds):
        _, _, given = self.run_script(tmp_path, capsys, *argv)
        assert given == [seconds] * (2 * PAIRS)

    def test_run_once_reads_the_batch_count(self, tmp_path):
        stdout = ("perfbench w seed=1 trace=0 batches=12 nproc=2 python=3.11.7\n"
                  '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n')
        run_once = bench_pairs()["run_once"]
        run_once.__globals__["subprocess"] = SimpleNamespace(
            run=lambda argv, **kw: subprocess.CompletedProcess(argv, 0, stdout, ""))
        args = SimpleNamespace(workload="w", seed=1, seconds=1.0)
        assert run_once(tmp_path, ["true"], args) == {
            "correct": True, "attempted": 3, "failed": 0, "metrics": {}, "batches": 12}


def comparisons(scale, seed):
    """The argv lists of the desk and full-scale scripts that `run_experiments.py` replaced."""
    flags = {"desk": "--grid 7x7 --agents 2 --gems 2 --episodes 2000 --steps 300",
             "full": "--grid 11x11 --agents 2 --gems 3 --episodes 6000 --steps 1000"}[scale]
    return [f"compare-{c} {flags} --seed {seed} --out runs/{scale}-{c}-s{seed}".split()
            for c in ("methods", "planner")]


class TestRunExperiments:
    @pytest.mark.parametrize("argv, seed", [
        (["desk"], 1), (["desk", "5"], 5), (["full"], 0), (["full", "5"], 5)])
    @pytest.mark.parametrize("codes", [(0, 0), (3,), (0, 4)],
                             ids=["ok", "methods-fail", "planner-fail"])
    def test_issues_the_replaced_scripts_argv(self, monkeypatch, argv, seed, codes):
        """Both comparisons, or only the methods one when it fails; the
        script exits with the last one's code."""
        main = Mock(side_effect=codes)
        monkeypatch.setattr("bankworld.cli.main", main)
        monkeypatch.setattr(sys, "argv", ["run_experiments.py", *argv])
        with pytest.raises(SystemExit) as exit:
            runpy.run_path(str(SCRIPTS / "run_experiments.py"), run_name="__main__")
        assert exit.value.code == codes[-1]
        assert [c.args[0] for c in main.call_args_list] == comparisons(argv[0], seed)[:len(codes)]
