"""Tests of the benchmark itself: its reference, its failure checks, its
inputs and its metric tables.  Run with ``python -m pytest bench/tests``."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import workloads
from fogcache import Scenario, grid_bruteforce, heuristic_solve
from layers import RoundTotals, round_metrics, self_seconds
from reference import Problem

BENCH = Path(__file__).resolve().parents[1]

#: The package's documented reference scenario: 20 Zipf(0.6) contents, node
#: capacities 2/3/5, lam 4, mu_e 8, mu_b 6.
REFERENCE_DOC = {
    "library": {"F": 20, "alpha": 0.6},
    "cluster": {"capacities": [2.0, 3.0, 5.0]},
    "traffic": {"lambda": 4.0, "mu_e": 8.0, "mu_b": 6.0},
}


def test_reference_does_not_import_fogcache():
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import reference, workloads; " \
        "print(any(name.startswith('fogcache') for name in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reference_optimum_agrees_with_heuristic_and_grid():
    problem = Problem.from_dict(REFERENCE_DOC)
    h_csl, h_cpl, h_star, adt_star = problem.optimum()
    scenario = Scenario.from_dict(REFERENCE_DOC)
    heuristic = heuristic_solve(scenario)
    assert h_csl == pytest.approx(heuristic.h_csl, abs=1e-12)
    assert h_cpl == pytest.approx(heuristic.h_cpl, abs=1e-12)
    assert h_star == pytest.approx(heuristic.h_star, abs=1e-12)
    h_grid, adt_grid = grid_bruteforce(scenario, 1e-5)
    assert abs(h_grid - h_star) <= 1e-5
    assert adt_star <= adt_grid <= adt_star * (1 + 1e-9)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["ladder", "catalog", "simulate"])
def test_reference_agrees_with_heuristic_on_every_input(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    for file_name in {op.inputs["scenario"] for op in workload.ops}:
        doc = workload.files[file_name]
        h_star = Problem.from_dict(doc).optimum()[2]
        assert h_star == pytest.approx(heuristic_solve(Scenario.from_dict(doc)).h_star, abs=1e-9)


def test_reference_placement_is_feasible_and_hits_its_target():
    problem = Problem.from_dict(REFERENCE_DOC)
    for h in (0.0, 0.3, problem.optimum()[2], problem.h_csl()):
        matrix = problem.placement(h)
        assert reference.feasibility_violations(matrix, problem) == []
        assert problem.hit_ratio(matrix) == pytest.approx(h, abs=1e-12)


def write_solve_outputs(directory, problem, matrix, exit_code=0):
    h = problem.hit_ratio(matrix)
    (directory / "placement.json").write_text(json.dumps({"matrix": matrix.tolist()}))
    report = {"echr": h, "adt": problem.adt(h), "iterations": 2, "converged": exit_code == 0}
    (directory / "report.json").write_text(json.dumps(report))
    (directory / "trace.csv").write_text("k,objective,primal_residual,dual_residual\n1,0,0,0\n2,0,0,0\n")


@pytest.fixture
def optimal(tmp_path):
    problem = Problem.from_dict(REFERENCE_DOC)
    matrix = problem.placement(problem.optimum()[2])
    write_solve_outputs(tmp_path, problem, matrix)
    return problem, matrix, tmp_path


def test_check_passes_an_optimal_placement(optimal):
    problem, _, directory = optimal
    assert reference.check_solve(0, directory, problem) == ([], False)


def test_check_flags_a_perturbed_infeasible_placement(optimal):
    problem, matrix, directory = optimal
    node = int(np.argmax(matrix.sum(axis=1)))
    spare = int(np.argmin(matrix[node]))
    perturbed = matrix.copy()
    perturbed[node, spare] += problem.capacities[node] - matrix[node].sum() + 1e-6
    write_solve_outputs(directory, problem, perturbed)
    reasons, silent = reference.check_solve(0, directory, problem)
    assert any("capacity" in reason for reason in reasons)
    assert silent


def test_check_flags_a_nonzero_exit(optimal):
    problem, matrix, directory = optimal
    write_solve_outputs(directory, problem, matrix, exit_code=1)
    reasons, silent = reference.check_solve(1, directory, problem)
    assert reasons == ["exit code 1"]
    assert not silent


def test_check_flags_an_over_tolerance_adt(optimal):
    problem, _, directory = optimal
    h_star, adt_star = problem.optimum()[2:]
    h = h_star - 0.05
    assert problem.adt(h) > adt_star * (1 + reference.ADT_REL_TOL)
    write_solve_outputs(directory, problem, problem.placement(h))
    reasons, silent = reference.check_solve(0, directory, problem)
    assert any("above the optimum" in reason for reason in reasons)
    assert silent


def test_check_flags_a_missing_output(optimal):
    problem, _, directory = optimal
    (directory / "report.json").unlink()
    reasons, silent = reference.check_solve(0, directory, problem)
    assert reasons and "malformed output" in reasons[0]
    assert silent


def test_simulate_check_flags_a_wrong_analytic_column(tmp_path):
    problem = Problem.from_dict(workloads.simulate(0).files["stations.json"])
    matrix = np.zeros(problem.shape)
    expected = problem.per_station_adt(0.0)
    rows = [",".join(reference.SIMULATE_HEADER)]
    for station, value in enumerate(expected):
        rows.append(f"{station + 1},0,,{value:.12g},{value:.12g},0.01,{value:.12g},0")
    path = tmp_path / "sim.csv"
    path.write_text("\n".join(rows) + "\n")
    assert reference.check_simulate(0, path, problem, matrix)[:2] == ([], False)
    path.write_text("\n".join(rows[:-1] + [rows[-1].replace(f"{expected[-1]:.12g},0", "1,0")]) + "\n")
    reasons, silent, _ = reference.check_simulate(0, path, problem, matrix)
    assert any("analytic_adt" in reason for reason in reasons)
    assert silent


def test_seed_zero_reproduces_the_roadmap_ladder():
    ladder = workloads.ladder(0)
    shapes = []
    for op in ladder.ops[:4]:
        doc = ladder.files[op.inputs["scenario"]]
        contents, capacities = doc["library"]["F"], doc["cluster"]["capacities"]
        shapes.append((contents, len(capacities)))
        assert doc["library"]["alpha"] == 0.6
        assert doc["traffic"] == {"lambda": 4.0, "mu_e": 8.0, "mu_b": 6.0}
        assert capacities == [0.1 * contents] * len(capacities)
        assert op.argv[0] == "solve" and "--rho" not in op.argv
    assert shapes == [(20, 3), (200, 3), (1000, 10), (2000, 20)]
    assert ladder.ops[4].argv[:3] == ["solve", "--solver", "pgd"]
    assert ladder.ops[4].inputs["scenario"] == "f20n3.json"


def test_other_seeds_split_the_same_capacity_unevenly():
    for seed in (1, 2):
        for name, doc in workloads.ladder(seed).files.items():
            contents, capacities = doc["library"]["F"], doc["cluster"]["capacities"]
            assert sum(capacities) == pytest.approx(0.1 * contents * len(capacities))
            assert max(capacities) > min(capacities)
    assert workloads.ladder(1).files == workloads.ladder(1).files
    assert workloads.ladder(1).files != workloads.ladder(2).files


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
    ]
    assert self_seconds(spans) == [6.0, 2.0, 1.0, 1.0]


def test_pgd_projections_are_kept_out_of_the_admm_figures():
    spans = [
        ["admm.solve", 0.0, 4.0, -1, None],
        ["admm.project_feasible", 1.0, 2.0, 0, {"cycles": 3}],
        ["baselines.projected_gradient_solve", 5.0, 9.0, -1, {"iterations": 2}],
        ["admm.project_feasible", 6.0, 7.0, 2, {"cycles": 50}],
        ["admm.project_feasible", 7.0, 8.0, 2, {"cycles": 70}],
    ]
    totals = RoundTotals()
    totals.add(spans, 2.0)
    metrics = round_metrics(totals, {})
    assert metrics["admm.project_feasible.calls"] == 1
    assert metrics["admm.project_feasible.self_s"] == 2.0
    assert metrics["admm.dykstra_cycles.max"] == 3
    assert metrics["baselines.project_calls"] == 2
    assert metrics["baselines.armijo_accept_ratio"] == 1.0
    assert metrics["baselines.self_s"] == 4.0


def test_failed_ratio_weighs_every_operation_alike():
    records = [{"op": "a", "reasons": []}, {"op": "b", "reasons": ["exit code 1"]},
               {"op": "a", "reasons": []}]
    assert run.failed_ratio(records) == 0.5


def test_round_count_depends_on_seconds_not_on_timing(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for name, make in workloads.WORKLOADS.items():
        workload = make(1)
        plain = run.Run(tmp_path, workload, 1, False).rounds(spec["run_seconds"])
        traced = run.Run(tmp_path, workload, 1, True).rounds(spec["run_seconds"])
        assert plain >= traced >= 1
        assert plain == round(spec["run_seconds"] / workload.round_s) or plain == 1
    assert run.Run(tmp_path, workloads.ladder(0), 0, False).rounds(0.1) == 1


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
