"""The process entry ``fogcache.cli.run``: outputs, exit codes, stderr.

The subprocess cases run ``python -m fogcache.cli`` with stdout on a pipe
and without ``PYTHONUNBUFFERED``, so stdout is block-buffered and a missing
flush before the process ends would lose bytes.
"""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fogcache
from fogcache import cli
from fogcache.cli import main

SRC = Path(fogcache.__file__).resolve().parents[1]

REFERENCE_DOC = {
    "library": {"F": 20, "alpha": 0.6},
    "cluster": {"capacities": [2.0, 3.0, 5.0]},
    "traffic": {"lambda": 4.0, "mu_e": 8.0, "mu_b": 6.0},
}


def _cli(argv, cwd):
    """Run ``python -m fogcache.cli argv`` in ``cwd``; stdout and stderr as bytes."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fogcache.cli", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
    )


@pytest.fixture
def scenario_dir(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(REFERENCE_DOC))
    return tmp_path


def test_heuristic_writes_what_main_writes(scenario_dir, capsys, monkeypatch):
    argv = ["heuristic", "--scenario", "scenario.json", "--out"]
    proc = _cli(argv + ["process"], scenario_dir)
    assert proc.returncode == 0
    assert proc.stderr == b""

    monkeypatch.chdir(scenario_dir)
    assert main(argv + ["in_process"]) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    for name in ("placement.json", "report.json"):
        written = (scenario_dir / "process" / name).read_bytes()
        assert written == (scenario_dir / "in_process" / name).read_bytes()
    assert len(json.loads(written)) > 0


def test_simulate_prints_the_bytes_it_would_write(scenario_dir):
    placement = _cli(["heuristic", "--scenario", "scenario.json", "--out", "."], scenario_dir)
    assert placement.returncode == 0
    argv = ["simulate", "--scenario", "scenario.json", "--placement", "placement.json",
            "--arrivals", "20000"]
    printed = _cli(argv, scenario_dir)
    written = _cli(argv + ["--out", "sim.csv"], scenario_dir)
    assert printed.returncode == written.returncode == 0
    assert printed.stderr == written.stderr == written.stdout == b""
    assert printed.stdout == (scenario_dir / "sim.csv").read_bytes()
    assert printed.stdout.count(b"\n") == 4  # the header and three stations


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["solve", "--scenario", "scenario.json", "--max-iter", "1", "--out", "run"],
         1, rb"^solver=admm .* iterations=1 converged=False out=run\n$", rb"^$"),
        (["solve", "--scenario", "scenario.json", "--tol", "inf", "--out", "run"],
         2, rb"^$", rb"^error: tol must be positive and finite, got inf\n$"),
        (["solve", "--scenario", "missing.json", "--out", "run"],
         2, rb"^$", rb"^error: \[Errno 2\] No such file or directory: 'missing.json'\n$"),
        (["solve", "--out", "run"],
         2, rb"^$", rb"error: the following arguments are required: --scenario\n$"),
    ],
    ids=["unconverged", "bad-flag", "missing-file", "usage"],
)
def test_exit_codes_and_messages(scenario_dir, argv, code, stdout, stderr):
    proc = _cli(argv, scenario_dir)
    assert proc.returncode == code
    assert re.search(stdout, proc.stdout), proc.stdout
    assert re.search(stderr, proc.stderr), proc.stderr
    assert b"Traceback" not in proc.stderr


def _spans(spans, name):
    return [span for span in spans if span[0] == name]


@pytest.mark.parametrize("solver", ["admm", "pgd"])
def test_the_benchmark_tracer_runs_solve(scenario_dir, solver):
    # The benchmark's per-layer run wraps these names in bench/traced_cli.py;
    # a solver change that leaves one unreached, or renamed, shows here.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SRC.parent / "bench" / "traced_cli.py"), "spans.json",
         "solve", "--scenario", "scenario.json", "--solver", solver, "--out", "run"],
        cwd=scenario_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((scenario_dir / "spans.json").read_text())["spans"]
    run = "admm.solve" if solver == "admm" else "baselines.projected_gradient_solve"
    (solve,) = _spans(spans, run)
    iterations = json.loads((scenario_dir / "run" / "report.json").read_text())["iterations"]
    assert solve[4] == {"iterations": iterations}
    projections = _spans(spans, "admm.project_feasible")
    assert len(projections) == iterations
    assert all(span[4]["cycles"] >= 1 for span in projections)
    if solver == "admm":
        assert len(_spans(spans, "admm.p_update")) == iterations
    # The solvers build the one-node system of the pooled problem: an F x F
    # ``a``, ``a_u`` and a 1 x F ``b`` of F entries each, and one capacity.
    (build,) = _spans(spans, "admm.ConstraintSystem.build")
    assert build[4] == {"bytes": 8 * (20 * 20 + 20 + 20 + 1)}


def test_run_ends_the_process_with_mains_code(monkeypatch):
    ended = []

    def end(code):
        ended.append(code)
        raise SystemExit(code)

    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(cli.os, "_exit", end)
    with pytest.raises(SystemExit):
        cli.run()
    assert ended == [1]


def test_run_exits_the_usual_way_when_a_flush_fails(monkeypatch):
    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    def end(code):
        raise AssertionError("skipped teardown after a failed flush")

    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(cli.os, "_exit", end)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0


def test_the_console_script_is_the_process_entry():
    # A text check: Python 3.10 has no tomllib.
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    script = re.search(r'^fogcache = "fogcache\.cli:(\w+)"$', pyproject, re.MULTILINE)
    source = Path(cli.__file__).read_text()
    entry = re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)\n\Z', source, re.MULTILINE)
    assert script and entry
    assert script.group(1) == entry.group(1) == "run"
