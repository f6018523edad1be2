"""End-to-end tests of the command-line interface.

Every test drives ``main(argv)`` the way a shell would and checks exit
codes, file outputs, and stdout.
"""

import json
import re

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Placement,
    Scenario,
    SolverConfig,
    TrafficProfile,
    adt_curve,
    heuristic_solve,
    model,
    projected_gradient_solve,
    solve,
)
from fogcache import admm, baselines, cli
from fogcache.admm import IterationRecord
from fogcache.cli import (
    SIMULATE_HEADER,
    SWEEP_HEADER,
    SweepSpec,
    _build_parser,
    _dump_placement,
    _load_placement,
    main,
)
from fogcache.errors import NumericalError
from fogcache.heuristic import echr_csl
from fogcache.model import validate_placement, zipf_popularity
from fogcache.queuesim import mm1_sojourn_times

from conftest import ADT_OPT, H_CPL, H_CSL, LAMBDA_STAR, bounded

REFERENCE_DOC = {
    "library": {"F": 20, "alpha": 0.6},
    "cluster": {"capacities": [2.0, 3.0, 5.0]},
    "traffic": {"lambda": 4.0, "mu_e": 8.0, "mu_b": 6.0},
}


#: Two stations with per-station arrival rates so light that the stationary
#: point of the download time lies far above 1.
LIGHT_HETERO_DOC = {
    "library": {"F": 20, "alpha": 0.6},
    "cluster": {"capacities": [2.0, 3.0]},
    "traffic": {"lambda": [1e-6, 2e-6], "mu_e": 8.0, "mu_b": 6.0},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(REFERENCE_DOC))
    return path


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSolveCommand:
    def test_writes_the_three_outputs(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "run"
        out.mkdir()
        code = main(["solve", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        placement_doc = json.loads((out / "placement.json").read_text())
        matrix = np.asarray(placement_doc["matrix"])
        assert matrix.shape == (3, 20)
        report = json.loads((out / "report.json").read_text())
        assert report["solver"] == "admm"
        assert report["converged"] is True
        assert report["adt"] == pytest.approx(ADT_OPT, abs=1e-8)
        assert report["echr"] == pytest.approx(H_CPL, abs=1e-5)
        assert report["adt_report"]["overall"] == pytest.approx(report["adt"], abs=1e-12)
        header, rows = _read_csv(out / "trace.csv")
        assert tuple(header) == IterationRecord._fields
        assert [row[0] for row in rows] == [str(k) for k in range(1, len(rows) + 1)]
        summary = capsys.readouterr().out
        assert "converged" in summary

    def test_solved_placement_is_feasible(self, tmp_path, scenario_file):
        from fogcache import Scenario

        out = tmp_path / "run"
        out.mkdir()
        main(["solve", "--scenario", str(scenario_file), "--out", str(out)])
        scenario = Scenario.load(scenario_file)
        matrix = np.asarray(json.loads((out / "placement.json").read_text())["matrix"])
        validate_placement(matrix, scenario.library, scenario.cluster)

    def test_pgd_solver(self, tmp_path, scenario_file):
        out = tmp_path / "run"
        out.mkdir()
        code = main(
            [
                "solve",
                "--scenario", str(scenario_file),
                "--solver", "pgd",
                "--max-iter", "4000",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solver"] == "pgd"
        assert report["adt"] == pytest.approx(ADT_OPT, abs=1e-8)

    @pytest.mark.parametrize("solver", ["admm", "pgd"])
    def test_defaults_are_the_solver_configs(self, tmp_path, scenario_file, solver):
        # Flags left out, each solver runs at the default SolverConfig, its
        # own default too.
        out = tmp_path / "run"
        out.mkdir()
        code = main(
            ["solve", "--scenario", str(scenario_file), "--solver", solver, "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        run = solve if solver == "admm" else projected_gradient_solve
        expected = run(Scenario.load(scenario_file))
        assert report["iterations"] == expected.iterations
        assert report["adt"] == expected.adt
        assert report["adt"] == pytest.approx(ADT_OPT, abs=1e-8)

    @pytest.mark.parametrize("lam", [5.999999, 5.99999999, 5.9999999999])
    def test_pgd_next_to_saturation(self, tmp_path, lam):
        # lam just below mu_b: the slope at h = 0 reaches 1e6 to 1e20, so a
        # unit first trial would leave the box by as much and project to a
        # point far from the optimum.  The first trial is scaled by the
        # gradient instead, and PGD must still land on the exact optimum.
        doc = dict(REFERENCE_DOC, traffic={"lambda": lam, "mu_e": 8.0, "mu_b": 6.0})
        path = tmp_path / "saturated.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        out.mkdir()
        code = main(["solve", "--scenario", str(path), "--solver", "pgd", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        scenario = Scenario.from_dict(doc)
        expected = adt_curve(heuristic_solve(scenario).h_star, scenario.traffic)
        assert report["adt"] == pytest.approx(expected, rel=1e-9)

    def test_nonconvergence_exits_one(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "run"
        out.mkdir()
        code = main(
            ["solve", "--scenario", str(scenario_file), "--max-iter", "3", "--out", str(out)]
        )
        assert code == 1
        # Outputs are still written so the partial run can be inspected.
        assert (out / "placement.json").exists()

    def test_missing_scenario_exits_two(self, tmp_path):
        code = main(["solve", "--scenario", str(tmp_path / "absent.json")])
        assert code == 2

    def test_malformed_scenario_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--scenario", str(path)]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tol", "inf"], "tol must be positive and finite, got inf"),
            (["--tol", "nan"], "tol must be positive and finite, got nan"),
            (["--tol", "0"], "tol must be positive and finite, got 0.0"),
            # Each solver's config checks the field that the flag names.
            (["--solver", "pgd", "--tol", "inf"], "tol must be positive and finite, got inf"),
        ],
    )
    def test_a_tolerance_that_is_not_finite_exits_two(
        self, tmp_path, scenario_file, capsys, flags, message
    ):
        out = tmp_path / "run"
        code = main(["solve", "--scenario", str(scenario_file), *flags, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_capped_run_reports_the_iterations_it_ran(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "run"
        code = main(
            ["solve", "--scenario", str(scenario_file), "--max-iter", "12", "--out", str(out)]
        )
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        _, rows = _read_csv(out / "trace.csv")
        assert report["iterations"] == len(rows) == 12
        assert report["converged"] is False
        # The best iterate, the eighth, is the placement written.
        assert float(rows[7][1]) == min(float(row[1]) for row in rows) < float(rows[-1][1])
        assert report["adt"] == report["adt_report"]["overall"]
        assert "iterations=12 converged=False" in capsys.readouterr().out

    def test_numerical_failure_exits_one(self, tmp_path, scenario_file, capsys, monkeypatch):
        def fail(*args):
            raise NumericalError("no sign change")

        monkeypatch.setattr(admm, "solve", fail)
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(scenario_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no sign change\n"
        assert not out.exists()

    def test_unknown_solver_is_an_argparse_error(self, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--scenario", str(scenario_file), "--solver", "simplex"])
        assert exc.value.code == 2


class TestHeuristicCommand:
    def test_prints_the_summary_json(self, scenario_file, capsys):
        assert main(["heuristic", "--scenario", str(scenario_file)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["h_csl"] == pytest.approx(H_CSL, abs=1e-14)
        assert summary["h_cpl"] == pytest.approx(H_CPL, abs=1e-14)
        assert summary["h_star"] == pytest.approx(H_CPL, abs=1e-14)
        assert summary["lambda_star"] == pytest.approx(LAMBDA_STAR, abs=1e-12)
        assert summary["regime"] == "CPL"
        assert summary["adt"] == pytest.approx(ADT_OPT, abs=1e-14)

    def test_optional_output_directory(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "heur"
        out.mkdir()
        assert main(["heuristic", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        placement_doc = json.loads((out / "placement.json").read_text())
        assert np.asarray(placement_doc["matrix"]).shape == (3, 20)
        report = json.loads((out / "report.json").read_text())
        assert report["regime"] == "CPL"
        assert report["adt"] == pytest.approx(ADT_OPT, abs=1e-14)
        assert report["adt_report"]["overall"] == pytest.approx(ADT_OPT, abs=1e-14)

    def test_ascending_popularity_is_the_same_scenario(self, tmp_path, scenario_file, capsys):
        path = tmp_path / "ascending.json"
        library = {"popularity": zipf_popularity(20, 0.6)[::-1].tolist()}
        path.write_text(json.dumps({**REFERENCE_DOC, "library": library}))
        assert main(["heuristic", "--scenario", str(path)]) == 0
        ascending = json.loads(capsys.readouterr().out)
        assert main(["heuristic", "--scenario", str(scenario_file)]) == 0
        zipf = json.loads(capsys.readouterr().out)
        for key in ("h_csl", "h_cpl", "h_star", "lambda_star", "regime"):
            assert ascending[key] == zipf[key], key
        for key in ("echr", "adt"):
            assert ascending[key] == pytest.approx(zipf[key], abs=1e-12), key

    def test_storage_binds_at_half_a_content_per_node(self, tmp_path, capsys):
        # The reference cluster is provision-limited (h_csl 0.6938 > h_cpl
        # 0.6603); at 0.5 per node storage binds instead.
        path = tmp_path / "small.json"
        path.write_text(_doc("cluster", capacities=[0.5, 0.5, 0.5]))
        out = tmp_path / "heur"
        assert main(["heuristic", "--scenario", str(path), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["regime"] == "CSL"
        assert summary["h_star"] == summary["h_csl"] == pytest.approx(0.2073, abs=1e-4)
        argv = ["simulate", "--scenario", str(path), "--placement", str(out / "placement.json")]
        assert main(argv + ["--arrivals", "20000"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_no_threshold_when_storage_limits_every_stable_rate(self, tmp_path, capsys):
        path = tmp_path / "fast_edge.json"
        traffic = {"lambda": 4.0, "mu_e": 30.0, "mu_b": 6.0}
        path.write_text(json.dumps({**REFERENCE_DOC, "traffic": traffic}))
        assert main(["heuristic", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"lambda_star": null' in out
        assert json.loads(out)["regime"] == "CSL"

    def test_light_heterogeneous_traffic(self, tmp_path, capsys):
        path = tmp_path / "light.json"
        path.write_text(json.dumps(LIGHT_HETERO_DOC))
        assert bounded(main, ["heuristic", "--scenario", str(path)], seconds=10) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["h_cpl"] == 1.0
        assert summary["regime"] == "CSL"


class TestSweepCommand:
    def _write_sweep(self, tmp_path, scenario_file, parameter, values):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"parameter": parameter, "values": values, "base": scenario_file.name})
        )
        return path

    def test_default_solvers_cover_every_value(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "mu_b", [5.0, 6.0, 7.0])
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", str(sweep), "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert tuple(header) == SWEEP_HEADER
        assert len(rows) == 9  # 3 values x (admm, heuristic, csl-only)
        assert {row[1] for row in rows} == {"admm", "heuristic", "csl-only"}
        assert all(row[6] == "ok" for row in rows)

    def test_heuristic_rows_match_the_analytic_optimum(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [4.0])
        out = tmp_path / "sweep.csv"
        main(["sweep", "--scenario", str(sweep), "--solver", "heuristic", "--out", str(out)])
        _, rows = _read_csv(out)
        assert len(rows) == 1
        value, solver, echr_col, adt_col, iterations, _, status = rows[0]
        assert (value, solver, status) == ("4", "heuristic", "ok")
        assert float(echr_col) == pytest.approx(H_CPL, abs=1e-11)
        assert float(adt_col) == pytest.approx(ADT_OPT, abs=1e-11)
        assert iterations == "0"

    def test_closed_form_rows_build_no_placement(self, tmp_path, scenario_file, monkeypatch):
        # lam = 1 is storage-limited, lam = 4 and 5.5 provision-limited.
        values = [1.0, 4.0, 5.5]
        expected, regimes = {}, set()
        for lam in values:
            scenario = Scenario.from_dict(
                dict(REFERENCE_DOC, traffic=dict(REFERENCE_DOC["traffic"], **{"lambda": lam}))
            )
            result = heuristic_solve(scenario)
            regimes.add(result.regime)
            expected[(lam, "heuristic")] = (result.h_star, scenario.traffic)
            expected[(lam, "csl-only")] = (result.h_csl, scenario.traffic)
        assert regimes == {"CSL", "CPL"}

        def refuse(self):
            raise AssertionError("a sweep row built a Placement")

        monkeypatch.setattr(Placement, "__post_init__", refuse)
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", values)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", str(sweep), "--solver", "heuristic,csl-only"]
        assert main(argv + ["--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 6
        for value, solver, echr_col, adt_col, iterations, _, status in rows:
            h, traffic = expected[(float(value), solver)]
            assert (iterations, status) == ("0", "ok")
            assert float(echr_col) == pytest.approx(h, rel=1e-11, abs=0.0)
            assert float(adt_col) == pytest.approx(adt_curve(h, traffic), rel=1e-11, abs=0.0)

    def test_admm_and_pgd_next_to_saturation(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [4.0, 5.999999])
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", str(sweep), "--solver", "admm,pgd", "--out", str(out)])
        assert code == 0
        _, rows = _read_csv(out)
        assert [(row[0], row[1], row[6]) for row in rows] == [
            ("4", "admm", "ok"), ("4", "pgd", "ok"),
            ("5.999999", "admm", "ok"), ("5.999999", "pgd", "ok"),
        ]

    def test_unstable_value_marks_rows_invalid(self, tmp_path, scenario_file):
        # mu_b = 3.9 sits below lam = 4: no stable queue exists there.
        sweep = self._write_sweep(tmp_path, scenario_file, "mu_b", [3.9, 6.0])
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", str(sweep), "--solver", "heuristic", "--out", str(out)])
        assert code == 0
        _, rows = _read_csv(out)
        by_value = {row[0]: row for row in rows}
        assert by_value["3.9"][6] == "invalid"
        assert by_value["3.9"][2] == ""  # metric columns stay empty
        assert by_value["6"][6] == "ok"

    def test_comma_separated_solver_list(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "mu_e", [8.0])
        out = tmp_path / "sweep.csv"
        main(
            ["sweep", "--scenario", str(sweep), "--solver", "heuristic,csl-only", "--out", str(out)]
        )
        _, rows = _read_csv(out)
        assert [row[1] for row in rows] == ["heuristic", "csl-only"]

    def test_csl_only_rows_use_the_storage_bound(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [4.0])
        out = tmp_path / "sweep.csv"
        main(["sweep", "--scenario", str(sweep), "--solver", "csl-only", "--out", str(out)])
        _, rows = _read_csv(out)
        assert float(rows[0][2]) == pytest.approx(H_CSL, abs=1e-11)

    def test_unknown_solver_exits_two(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "mu_b", [6.0])
        assert main(["sweep", "--scenario", str(sweep), "--solver", "magic"]) == 2

    def test_empty_solver_list_exits_two(self, tmp_path, scenario_file, capsys):
        sweep = self._write_sweep(tmp_path, scenario_file, "mu_b", [6.0])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(sweep), "--solver", ",", "--out", str(out)]) == 2
        assert not out.exists()
        assert "empty solver list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "solvers,flags,named",
        [
            ("heuristic", ["--max-iter", "0"], "--max-iter"),
            ("heuristic,csl-only", ["--tol", "1e-3"], "--tol"),
            ("csl-only", ["--tol", "inf", "--max-iter", "3"], "--tol"),
        ],
    )
    def test_a_flag_no_listed_solver_reads_exits_two_before_any_point(
        self, tmp_path, scenario_file, capsys, solvers, flags, named
    ):
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [4.0])
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--scenario", str(sweep), "--solver", solvers, *flags, "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert f"solver flag {named} is not read by {solvers.replace(',', ', ')}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("solver", ["admm", "pgd"])
    def test_bad_flag_of_a_listed_solver_exits_two_before_any_point(
        self, tmp_path, scenario_file, capsys, solver
    ):
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [4.0])
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--scenario", str(sweep), "--solver", solver, "--tol", "inf",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: tol must be positive and finite, got inf\n"

    def test_solver_flags_reach_admm_and_pgd(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [3.0, 4.0])
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--scenario", str(sweep),
                "--solver", "admm,pgd",
                "--max-iter", "3",
                "--tol", "1e-9",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = _read_csv(out)
        assert [row[1] for row in rows] == ["admm", "pgd"] * 2
        for row in rows:
            assert row[6] == "unconverged"
            assert row[4] == "3"

    @pytest.mark.parametrize(
        "solver, module, name",
        [("admm", admm, "solve"), ("pgd", baselines, "projected_gradient_solve")],
    )
    def test_flags_left_out_give_the_one_default_config(
        self, tmp_path, scenario_file, monkeypatch, solver, module, name
    ):
        configs = []

        def recording(scenario, config):
            configs.append(config)
            return original(scenario, config)

        original = getattr(module, name)
        monkeypatch.setattr(module, name, recording)
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [4.0])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(sweep), "--solver", solver, "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert rows[0][6] == "ok"
        assert [(config.max_iter, config.tol) for config in configs] == [(1000, 1e-6)]

    def test_empty_values_are_rejected(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [])
        with pytest.raises(ValueError, match="lambda sweep 'values' must not be empty$"):
            SweepSpec.load(sweep)

    def test_f_sweep_requires_a_zipf_base(self, tmp_path):
        # A base with explicit popularity has no exponent to regenerate from.
        base = tmp_path / "explicit.json"
        base.write_text(
            json.dumps(
                {
                    "library": {"popularity": [0.7, 0.3]},
                    "cluster": {"capacities": [1.0]},
                    "traffic": {"lambda": 2.0, "mu_e": 9.0, "mu_b": 5.0},
                }
            )
        )
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"parameter": "F", "values": [5, 10], "base": "explicit.json"}))
        assert main(["sweep", "--scenario", str(sweep)]) == 2

    @pytest.mark.parametrize("values", [[0, 20], [20, 0]])
    def test_f_sweep_rejects_a_zero_count_in_any_position(
        self, tmp_path, scenario_file, capsys, values
    ):
        sweep = self._write_sweep(tmp_path, scenario_file, "F", values)
        assert main(["sweep", "--scenario", str(sweep), "--solver", "heuristic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: an F sweep takes integer values of at least 1\n"

    def test_f_sweep_keeps_a_uniform_size_at_every_count(self, tmp_path):
        (tmp_path / "sized.json").write_text(_doc("library", sizes=[2.0] * 20))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(_sweep("F", [10, 40], "sized.json")))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", str(sweep), "--solver", "csl-only", "--out", str(out)]
        assert main(argv) == 0
        _, rows = _read_csv(out)
        assert [(row[0], row[6]) for row in rows] == [("10", "ok"), ("40", "ok")]
        for row, count in zip(rows, (10, 40)):
            library = ContentLibrary(zipf_popularity(count, 0.6), [2.0] * count)
            expected = echr_csl(library, FogCluster([2.0, 3.0, 5.0]))
            assert float(row[2]) == pytest.approx(expected, rel=1e-11, abs=0.0)
            # Unit sizes would let the same storage hold twice as many.
            assert expected < echr_csl(ContentLibrary.zipf(count, 0.6), FogCluster([2.0, 3.0, 5.0]))

    def test_numerical_failure_writes_an_error_row_and_goes_on(
        self, tmp_path, scenario_file, monkeypatch
    ):
        def fail_at_four(scenario, config):
            if scenario.traffic.lam[0] == 4.0:
                raise NumericalError("no sign change")
            return original(scenario, config)

        original = baselines.projected_gradient_solve
        monkeypatch.setattr(baselines, "projected_gradient_solve", fail_at_four)
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [4.0, 3.0])
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", str(sweep), "--solver", "pgd,heuristic",
                "--max-iter", "5", "--out", str(out)]
        assert main(argv) == 0
        _, rows = _read_csv(out)
        assert [(row[0], row[1], row[6]) for row in rows] == [
            ("4", "pgd", "error"), ("4", "heuristic", "ok"),
            ("3", "pgd", "unconverged"), ("3", "heuristic", "ok"),
        ]
        assert rows[0][2:6] == ["", "", "", ""]
        assert rows[2][4] == "5"

    def test_f_sweep_regenerates_the_library(self, tmp_path, scenario_file):
        sweep = self._write_sweep(tmp_path, scenario_file, "F", [20, 200, 2000])
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", str(sweep), "--solver", "heuristic,csl-only"]
        assert main(argv + ["--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [(row[0], row[1], row[6]) for row in rows] == [
            (value, solver, "ok") for value in ("20", "200", "2000")
            for solver in ("heuristic", "csl-only")
        ]
        # More contents spread popularity thinner: the same storage captures
        # less mass, so the best download time can only get worse.
        heuristic_adts = [float(row[3]) for row in rows[::2]]
        assert heuristic_adts == sorted(heuristic_adts)

    def test_heuristic_over_light_heterogeneous_traffic(self, tmp_path):
        (tmp_path / "light.json").write_text(json.dumps(LIGHT_HETERO_DOC))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(_sweep("mu_b", [5.0, 6.0], "light.json")))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", str(sweep), "--solver", "heuristic", "--out", str(out)]
        assert bounded(main, argv, seconds=10) == 0
        _, rows = _read_csv(out)
        assert [row[6] for row in rows] == ["ok", "ok"]

    def test_stdout_when_no_output_path(self, tmp_path, scenario_file, capsys):
        sweep = self._write_sweep(tmp_path, scenario_file, "lambda", [4.0])
        main(["sweep", "--scenario", str(sweep), "--solver", "heuristic"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 2


def _doc(section=None, **fields):
    """The reference scenario as JSON text, with ``fields`` replaced inside
    ``section``, or whole sections replaced when ``section`` is None."""
    doc = json.loads(json.dumps(REFERENCE_DOC))
    (doc if section is None else doc[section]).update(fields)
    return json.dumps(doc)


def _sweep(parameter="lambda", values=(4.0,), base="scenario.json"):
    return {"parameter": parameter, "values": list(values), "base": base}


#: 401 digits: a JSON integer too large for a float.
HUGE_INT = 10**400

# (id, scenario text, sweep document or None, text the error must contain).
# Python's json reads ``1e999`` (and the ``Infinity`` it writes) as inf.
MALFORMED = [
    ("library-list", _doc(library=[20, 0.6]), None, "'library'"),
    ("cluster-list", _doc(cluster=[2.0, 3.0, 5.0]), None, "'cluster'"),
    ("traffic-number", _doc(traffic=4.0), None, "'traffic'"),
    ("F-null", _doc("library", F=None), None, "'F'"),
    ("F-overflow", _doc("library", F=0).replace('"F": 0', '"F": 1e999'), None, "'F'"),
    ("F-fraction", _doc("library", F=2.7), None, "'F'"),
    ("F-bool", _doc("library", F=True), None, "'F'"),
    ("alpha-null", _doc("library", alpha=None), None, "'alpha'"),
    ("lambda-object", _doc("traffic", **{"lambda": {"4": 4.0}}), None, "'lambda'"),
    ("capacities-object", _doc("cluster", capacities={"1": 2.0}), None, "capacities"),
    ("sizes-object", _doc("library", sizes={"1": 1.0}), None, "sizes"),
    ("values-number", _doc(), dict(_sweep(), values=4.0), "'values'"),
    ("values-null", _doc(), _sweep(values=[4.0, None]), "'values'"),
    ("F-values-overflow", _doc(), _sweep("F", [10, float("inf")]), "F sweep"),
    ("base-number", _doc(), _sweep(base=5), "'base'"),
    ("F-scalar-sizes", _doc("library", sizes=1.0), _sweep("F", [10]), "'sizes'"),
    ("lambda-bool", _doc("traffic", **{"lambda": True}), None, "'lambda'"),
    ("lambda-string", _doc("traffic", **{"lambda": "4"}), None, "'lambda'"),
    ("capacities-strings", _doc("cluster", capacities=["2", "3", "5"]), None, "capacities"),
    ("sizes-bools", _doc("library", sizes=[True] * 20), None, "sizes"),
    ("lambda-huge-int", _doc("traffic", **{"lambda": HUGE_INT}), None, "'lambda'"),
    ("capacities-huge-int", _doc("cluster", capacities=[2.0, 3.0, HUGE_INT]), None, "capacities"),
    ("alpha-huge-int", _doc("library", alpha=HUGE_INT), None, "'alpha'"),
    ("F-huge-int", _doc("library", F=HUGE_INT), None, "'F'"),
    ("values-huge-int", _doc(), _sweep(values=[4.0, HUGE_INT]), "'values'"),
    ("scenario-list", "[]", None, "error: scenario document must be a JSON object"),
    ("library-neither-form", _doc(library={"F": 20}), None, "either 'popularity' or both 'F'"),
    ("no-capacities", _doc(cluster={}), None, "cluster section is missing 'capacities'"),
    ("no-mu_b", _doc(traffic={"lambda": 4.0, "mu_e": 8.0}), None, "section is missing 'mu_b'"),
    ("sweep-unknown", _doc(), _sweep("alpha"), "unknown sweep parameter 'alpha'"),
    ("sweep-list", _doc(), [_sweep()], "sweep.json: expected a JSON object"),
    ("sweep-no-base", _doc(), {"parameter": "lambda", "values": [4.0]}, "missing sweep key 'base'"),
    ("base-list", "[]", _sweep(), "scenario.json: expected a JSON object"),
    # A rate sweep builds its base before the first row, whatever it varies.
    ("rate-base-library-list", _doc(library=[20, 0.6]), _sweep(), "'library'"),
    (
        "rate-base-no-traffic",
        json.dumps({key: REFERENCE_DOC[key] for key in ("library", "cluster")}),
        _sweep("mu_b", [5.0, 6.0]),
        "'traffic'",
    ),
]


@pytest.mark.parametrize(
    "scenario_text, sweep, field",
    [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, scenario_text, sweep, field):
    (tmp_path / "scenario.json").write_text(scenario_text)
    if sweep is None:
        argv = ["heuristic", "--scenario", str(tmp_path / "scenario.json")]
    else:
        (tmp_path / "sweep.json").write_text(json.dumps(sweep))
        argv = ["sweep", "--scenario", str(tmp_path / "sweep.json"), "--solver", "heuristic"]
    assert main(argv) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr
    assert field in stderr


def _reference_matrix_with(entry, node=1, content=1):
    """An all-zero placement of the reference scenario with ``entry`` at
    (``node``, ``content``), counted from 1."""
    matrix = [[0.0] * 20 for _ in range(3)]
    matrix[node - 1][content - 1] = entry
    return matrix


#: Each malformed matrix, and a part of the error message that must name it.
MALFORMED_MATRICES = {
    "object": ({"a": 1}, "matrix"),
    "list-of-objects": ([{"a": 1}], "matrix"),
    "string-entry": (_reference_matrix_with("0.5"), "matrix"),
    "bool-entry": (_reference_matrix_with(True), "matrix"),
    "deep-bool-entry": (_reference_matrix_with(True, 3, 18), "[2][17]"),
    "huge-int-entry": (_reference_matrix_with(HUGE_INT), "matrix"),
    "ragged": ([[0.0] * 20, [0.0] * 19, [0.0] * 20], "must be a rectangular list of numbers"),
}


@pytest.mark.parametrize(
    ("matrix", "named"), MALFORMED_MATRICES.values(), ids=list(MALFORMED_MATRICES)
)
def test_malformed_placement_file_is_a_usage_error(
    tmp_path, capsys, scenario_file, matrix, named
):
    path = tmp_path / "cached.json"
    path.write_text(json.dumps({"matrix": matrix}))
    argv = ["simulate", "--scenario", str(scenario_file), "--placement", str(path)]
    assert main(argv + ["--arrivals", "1000"]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr
    assert "matrix" in stderr
    assert named in stderr


def test_catalog_scale_placement_loads_without_the_entry_walk(tmp_path, monkeypatch):
    # A valid 50 x 50,000 matrix of ints and floats, as JSON gives it, is
    # checked by its entry types alone: one call for the matrix and one per
    # row, and no entry is walked on its own.
    matrix = [[0.0] * 50_000 for _ in range(50)]
    matrix[3][:4] = [1, 0.25, 0, 1.0]
    path = tmp_path / "placement.json"
    path.write_text(json.dumps({"matrix": matrix}))

    first_non_number = model._first_non_number
    calls = 0

    def counted(values):
        nonlocal calls
        calls += 1
        return first_non_number(values)

    monkeypatch.setattr(model, "_first_non_number", counted)
    placement = _load_placement(path)
    assert calls <= 51
    assert placement.matrix.shape == (50, 50_000)
    assert placement.matrix[3, :4].tolist() == [1.0, 0.25, 0.0, 1.0]
    assert placement.matrix.sum() == 2.25


class TestSimulateCommand:
    @pytest.fixture
    def placement_file(self, tmp_path, scenario_file):
        out = tmp_path / "heur"
        out.mkdir()
        main(["heuristic", "--scenario", str(scenario_file), "--out", str(out)])
        return out / "placement.json"

    def test_csv_schema_and_accuracy(self, tmp_path, scenario_file, placement_file):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--scenario", str(scenario_file),
                "--placement", str(placement_file),
                "--seed", "5",
                "--arrivals", "30000",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert tuple(header) == SIMULATE_HEADER
        assert [row[0] for row in rows] == ["1", "2", "3"]  # stations are 1-based
        for row in rows:
            assert float(row[1]) == pytest.approx(H_CPL, abs=1e-11)
            assert float(row[6]) == pytest.approx(ADT_OPT, abs=1e-11)
            assert float(row[7]) < 0.1  # simulated within 10% at this short run

    def test_byte_identical_reruns(self, tmp_path, scenario_file, placement_file):
        args = [
            "simulate",
            "--scenario", str(scenario_file),
            "--placement", str(placement_file),
            "--seed", "9",
            "--arrivals", "20000",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(args + ["--out", str(first)])
        main(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_the_estimates(self, tmp_path, scenario_file, placement_file):
        base = [
            "simulate",
            "--scenario", str(scenario_file),
            "--placement", str(placement_file),
            "--arrivals", "20000",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(base + ["--seed", "1", "--out", str(first)])
        main(base + ["--seed", "2", "--out", str(second)])
        assert first.read_bytes() != second.read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--arrivals", "0"], "arrivals must be at least 1, got 0"),
            (["--seed", "-1"], "seed must be at least 0, got -1"),
            (["--seed", "-1", "--arrivals", "0"], "seed must be at least 0, got -1"),
        ],
    )
    def test_a_bad_run_length_or_seed_names_the_flag(
        self, tmp_path, scenario_file, placement_file, capsys, flags, message
    ):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--scenario", str(scenario_file), "--placement", str(placement_file),
             *flags, "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "doc, matrix, h",
        [
            (REFERENCE_DOC, np.zeros((3, 20)).tolist(), 0.0),
            (
                {
                    "library": {"F": 5, "alpha": 0.8},
                    "cluster": {"capacities": [10.0]},
                    "traffic": {"lambda": 0.01, "mu_e": 8.0, "mu_b": 6.0},
                },
                [[1.0] * 5],
                1.0,
            ),
        ],
        ids=["nothing-cached", "everything-cached"],
    )
    def test_a_queue_without_traffic_writes_an_empty_column(self, tmp_path, doc, matrix, h):
        # At h = 0 no request reaches an edge queue, at h = 1 none reaches
        # the backhaul: that queue's column is empty, and the download time
        # is the other queue's mean.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        placement = tmp_path / "placement.json"
        placement.write_text(json.dumps({"matrix": matrix}))
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--scenario", str(scenario), "--placement", str(placement),
             "--arrivals", "2000", "--out", str(out)]
        )
        assert code == 0
        header, rows = _read_csv(out)
        queues = ("mean_sojourn_e", "mean_sojourn_b")
        idle, busy = queues if h == 0.0 else queues[::-1]
        assert len(rows) == len(doc["cluster"]["capacities"])
        for row in rows:
            fields = dict(zip(header, row))
            assert float(fields["echr"]) == h
            assert fields[idle] == ""
            assert fields["mean_adt"] == fields[busy] != ""

    def test_a_tiny_hit_ratio_simulates(self, tmp_path, scenario_file, placement_file):
        # Every cached fraction at 1e-306 puts h at 6.9e-307, and each edge
        # queue's utilisation near 3.4e-307.  The run exits 0, and each edge
        # mean is that of customers who all find the queue empty: within its
        # half-width of 1/mu_e.  Without a cap on the gap scale, the run
        # wrote NaN columns.
        matrix = np.array(json.loads(placement_file.read_text())["matrix"])
        matrix[matrix > 0.0] = 1e-306
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps({"matrix": matrix.tolist()}))
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--scenario", str(scenario_file), "--placement", str(tiny),
             "--arrivals", "1000", "--out", str(out)]
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert len(rows) == 3
        for station, row in enumerate(rows):
            fields = dict(zip(header, row))
            h = float(fields["echr"])
            assert 0.0 < h < 1e-306
            # The edge queue's own half-width, from the same child stream.
            edge = np.random.SeedSequence(entropy=0, spawn_key=(station,)).spawn(2)[0]
            mean, ci = mm1_sojourn_times(4.0 * h, 8.0, 1000, np.random.default_rng(edge))
            assert float(fields["mean_sojourn_e"]) == float(format(mean, ".12g"))
            assert abs(mean - 1.0 / 8.0) <= ci

    def test_placement_without_matrix_key_exits_two(self, tmp_path, scenario_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": [[0.0]]}))
        code = main(
            ["simulate", "--scenario", str(scenario_file), "--placement", str(bad)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "matrix,message",
        [
            ([[0.5, 0.5]], "does not match"),
            (np.full((3, 20), 1 / 3).tolist(), "node 1: storage use .* exceeds capacity 2"),
        ],
    )
    def test_mismatched_placement_exits_two(
        self, tmp_path, scenario_file, capsys, matrix, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"matrix": matrix}))
        code = main(
            ["simulate", "--scenario", str(scenario_file), "--placement", str(bad)]
        )
        assert code == 2
        assert re.search(message, capsys.readouterr().err)

    def test_one_run_validates_the_placement_once(
        self, tmp_path, scenario_file, placement_file, monkeypatch
    ):
        import fogcache.objective
        import fogcache.queuesim

        calls = []
        real_validate = model.validate_placement

        def counting_validate(*args):
            calls.append(args)
            return real_validate(*args)

        for module in (model, fogcache.objective, fogcache.queuesim):
            if getattr(module, "validate_placement", None) is real_validate:
                monkeypatch.setattr(module, "validate_placement", counting_validate)
        code = main(
            ["simulate", "--scenario", str(scenario_file), "--placement", str(placement_file),
             "--arrivals", "1000", "--out", str(tmp_path / "sim.csv")]
        )
        assert code == 0
        assert len(calls) == 1


def test_unequal_sizes_run_every_command(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "library": {"popularity": [0.4, 0.3, 0.2, 0.1], "sizes": [3.0, 0.5, 1.5, 2.0]},
                "cluster": {"capacities": [1.5, 2.0]},
                "traffic": {"lambda": 4.0, "mu_e": 8.0, "mu_b": 6.0},
            }
        )
    )
    scenario = Scenario.load(path)
    for command in ("solve", "heuristic"):
        out = tmp_path / command
        out.mkdir()
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
        matrix = np.asarray(json.loads((out / "placement.json").read_text())["matrix"])
        validate_placement(matrix, scenario.library, scenario.cluster)
    sim = tmp_path / "sim.csv"
    code = main(
        [
            "simulate",
            "--scenario", str(path),
            "--placement", str(tmp_path / "solve" / "placement.json"),
            "--arrivals", "20000",
            "--out", str(sim),
        ]
    )
    assert code == 0
    assert len(_read_csv(sim)[1]) == 2


def _heuristic_placement(rng):
    nodes = 10
    scenario = Scenario(
        library=ContentLibrary.zipf(5000, 0.8),
        cluster=FogCluster(rng.uniform(40.0, 60.0, nodes)),
        traffic=TrafficProfile([4.0] * nodes, [8.0] * nodes, [6.0] * nodes),
    )
    return heuristic_solve(scenario).placement.matrix


def _regime_placement(regime):
    """A ``heuristic_solve`` placement at F = 5,000, N = 20 in ``regime``:
    about 0.1 F per node leaves storage slack (CPL), 5 per node binds it."""
    per_node = {"CPL": 500.0, "CSL": 5.0}[regime]

    def build(rng):
        nodes = 20
        scenario = Scenario(
            library=ContentLibrary.zipf(5000, 0.8),
            cluster=FogCluster(rng.uniform(0.8, 1.2, nodes) * per_node),
            traffic=TrafficProfile([4.0] * nodes, [8.0] * nodes, [6.0] * nodes),
        )
        result = heuristic_solve(scenario)
        assert result.regime == regime
        return result.placement.matrix

    return build


def _catalog_row(rng):
    row = np.zeros((1, 50_000))
    row[0, [0, 17, 18, 19, 31_415, 49_998]] = rng.uniform(0.0, 1.0, 6)
    return row


WRITER_MATRICES = {
    "dense": lambda rng: rng.uniform(0.0, 0.3, (3, 7)),
    "sparse": lambda rng: rng.uniform(0.0, 0.3, (3, 7)) * (rng.uniform(size=(3, 7)) < 0.3),
    "zero_rows": lambda rng: np.vstack([np.zeros(7), rng.uniform(0.0, 0.3, 7), np.zeros(7)]),
    "all_zero": lambda rng: np.zeros((3, 7)),
    "special": lambda rng: np.array([[-0.0, 5e-324, 1e-300, 0.1 + 0.2]]),
    "one_by_one": lambda rng: np.array([[0.25]]),
    "heuristic": _heuristic_placement,
    "zero_runs": lambda rng: np.array(
        [
            # Zero runs at the start, in the middle and at the end.
            [0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0],
            # -0.0 inside a zero run, and a stored entry in the last column.
            [0.0, 0.0, -0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.5],
            # Stored entries in the first and last columns only.
            [0.125, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.375],
            # One zero between stored runs, and a lone -0.0 at the end.
            [0.0, 0.1, 0.0, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0, -0.0],
        ]
    ),
    "catalog_row": _catalog_row,
    "heuristic_cpl": _regime_placement("CPL"),
    "heuristic_csl": _regime_placement("CSL"),
}


#: Scenarios whose station count differs from the node count, by
#: (stations, nodes); only the arrival rate is a list, so it alone sets the
#: station count.
DECOUPLED_DOCS = {
    (4, 2): {
        "library": {"F": 20, "alpha": 0.6},
        "cluster": {"capacities": [4.0, 6.0]},
        "traffic": {"lambda": [2.0, 3.0, 4.0, 5.0], "mu_e": 8.0, "mu_b": 6.0},
    },
    (1, 3): REFERENCE_DOC | {"traffic": {"lambda": [4.0], "mu_e": 8.0, "mu_b": 6.0}},
    (5, 1): {
        "library": {"F": 20, "alpha": 0.6},
        "cluster": {"capacities": [10.0]},
        "traffic": {"lambda": [1.0, 2.0, 3.0, 4.0, 5.0], "mu_e": 8.0, "mu_b": 6.0},
    },
}


@pytest.mark.parametrize("layout", sorted(DECOUPLED_DOCS), ids=lambda layout: "%ds%dn" % layout)
def test_stations_apart_from_nodes_run_through_every_command(tmp_path, monkeypatch, layout):
    stations, nodes = layout
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(DECOUPLED_DOCS[layout]))
    tol = SolverConfig().tol

    heuristic_out = tmp_path / "heuristic"
    assert main(["heuristic", "--scenario", str(scenario_file), "--out", str(heuristic_out)]) == 0
    optimum = json.loads((heuristic_out / "report.json").read_text())["adt"]
    for solver in ("admm", "pgd"):
        out = tmp_path / solver
        code = main(
            ["solve", "--scenario", str(scenario_file), "--solver", solver, "--out", str(out)]
        )
        assert code == 0
        assert np.shape(json.loads((out / "placement.json").read_text())["matrix"]) == (nodes, 20)
        report = json.loads((out / "report.json").read_text())
        assert len(report["adt_report"]["per_station"]) == stations
        assert abs(report["adt"] - optimum) <= tol * optimum, solver

    # A swept arrival rate is a scalar, but every point keeps the base's
    # stations: a point with one station per node would differ.
    seen = []
    sweep_point = cli._sweep_point

    def counted(name, scenario, solvers):
        seen.append(scenario.traffic.station_count)
        return sweep_point(name, scenario, solvers)

    monkeypatch.setattr(cli, "_sweep_point", counted)
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(_sweep("lambda", [2.0, 3.5], scenario_file.name)))
    sweep_out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--scenario", str(sweep), "--solver", "admm,pgd,heuristic",
         "--out", str(sweep_out)]
    )
    assert code == 0
    _, rows = _read_csv(sweep_out)
    assert [row[6] for row in rows] == ["ok"] * 6
    assert seen == [stations] * 6

    sim_out = tmp_path / "sim.csv"
    code = main(
        ["simulate", "--scenario", str(scenario_file), "--placement",
         str(heuristic_out / "placement.json"), "--arrivals", "2000", "--out", str(sim_out)]
    )
    assert code == 0
    _, rows = _read_csv(sim_out)
    assert [row[0] for row in rows] == [str(station + 1) for station in range(stations)]


class TestPlacementWriter:
    @pytest.mark.parametrize("name", list(WRITER_MATRICES))
    def test_bytes_match_json_dump(self, tmp_path, name):
        matrix = WRITER_MATRICES[name](np.random.default_rng(2718))
        path = tmp_path / "placement.json"
        _dump_placement(Placement(matrix), path)
        expected = json.dumps({"matrix": matrix.tolist()}, indent=2) + "\n"
        assert path.read_bytes() == expected.encode()
        loaded = _load_placement(path).matrix
        np.testing.assert_array_equal(loaded, matrix)
        np.testing.assert_array_equal(np.signbit(loaded), np.signbit(matrix))


class TestParser:
    def test_no_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2

    def test_solve_and_sweep_share_the_solver_flags(self):
        # A flag left out is None, and SolverConfig's default fills it.
        parser = _build_parser()
        names = ("tol", "max_iter")
        for command in ("solve", "sweep"):
            args = vars(parser.parse_args([command, "--scenario", "x.json"]))
            assert {name: args[name] for name in names} == dict.fromkeys(names)
            flags = ["--tol", "1e-3", "--max-iter", "7"]
            args = vars(parser.parse_args([command, "--scenario", "x.json", *flags]))
            assert {name: args[name] for name in names} == {"tol": 1e-3, "max_iter": 7}

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_solver_flag_help_names_the_config_defaults(self, command, capsys):
        # The parser does not import the solvers, so the help text spells
        # out SolverConfig's defaults; this keeps the two in step.
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = "".join(capsys.readouterr().out.split())
        config = SolverConfig()
        assert f"eithersolverstops(default{config.tol:g})" in text
        assert f"capofeithersolver(default{config.max_iter})" in text

    @pytest.mark.parametrize("flag", [["--rho", "1"], ["--eps-abs", "1e-6"], ["--eps-rel", "1e-4"]])
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_a_removed_solver_flag_exits_two(self, command, flag, capsys):
        # ADMM works its penalty out from the scenario, and both solvers
        # stop on one relative gap, --tol.
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "x.json", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
