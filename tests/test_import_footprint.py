"""Each command imports only the fogcache modules it runs.

Every case runs in a fresh interpreter and lists the ``fogcache`` modules
it left in ``sys.modules``, so the check holds without timing anything.
The list also names ``concurrent.futures``, the simulator's thread pool,
when it was imported: only ``simulate`` needs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fogcache
from fogcache.cli import main

SRC = str(Path(fogcache.__file__).resolve().parents[1])

PROBE = """
import json, sys
{body}
print(json.dumps(sorted(
    name for name in sys.modules
    if name.startswith("fogcache") or name == "concurrent.futures"
)))
"""

REFERENCE_DOC = {
    "library": {"F": 20, "alpha": 0.6},
    "cluster": {"capacities": [2.0, 3.0, 5.0]},
    "traffic": {"lambda": 4.0, "mu_e": 8.0, "mu_b": 6.0},
}


def _loaded(body, cwd):
    """The ``fogcache`` modules, and ``concurrent.futures`` if it was
    imported, after running ``body``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("fogcache.") for name in json.loads(proc.stdout.splitlines()[-1])}


def _run(argv):
    return f"from fogcache.cli import main\nif main({argv!r}) != 0:\n    sys.exit(3)"


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(REFERENCE_DOC))
    (tmp_path / "sweep.json").write_text(
        json.dumps({"parameter": "lambda", "values": [3.0, 4.0], "base": "scenario.json"})
    )
    # placement.json for the simulate case.
    scenario = str(tmp_path / "scenario.json")
    assert main(["heuristic", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    return tmp_path


def test_the_package_imports_no_module(tmp_path):
    assert _loaded("import fogcache", tmp_path) == {"fogcache"}


def test_the_cli_imports_only_the_model(tmp_path):
    assert _loaded("import fogcache.cli", tmp_path) == {"fogcache", "cli", "errors", "model"}


def test_the_simulator_imports_only_the_model(tmp_path):
    assert _loaded("import fogcache.queuesim", tmp_path) == {
        "fogcache", "queuesim", "model", "concurrent.futures"
    }


COMMANDS = {
    "heuristic": (
        ["heuristic", "--scenario", "scenario.json"],
        {"admm", "baselines", "queuesim", "concurrent.futures"},
    ),
    "sweep-closed-form": (
        ["sweep", "--scenario", "sweep.json", "--solver", "heuristic,csl-only",
         "--out", "sweep.csv"],
        {"admm", "baselines", "queuesim", "concurrent.futures"},
    ),
    "simulate": (
        ["simulate", "--scenario", "scenario.json", "--placement", "placement.json",
         "--arrivals", "2000", "--out", "simulate.csv"],
        {"admm", "baselines", "heuristic", "_roots"},
    ),
    "solve-admm": (
        ["solve", "--scenario", "scenario.json", "--out", "admm"],
        {"queuesim", "baselines", "concurrent.futures"},
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_leaves_out_the_modules_it_does_not_run(inputs, command):
    argv, unused = COMMANDS[command]
    assert not _loaded(_run(argv), inputs) & unused
