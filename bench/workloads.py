"""The benchmark's workloads: seeded input files and a fixed list of CLI
operations each.

Every input is generated here from the workload seed; fogcache is never
called to make one.  Seed 0 reproduces the size ladder of the project's
roadmap exactly (Zipf 0.6, lam 4, mu_e 8, mu_b 6, capacity 0.1*F on every
node).  Any other seed splits the same total capacity unevenly: the node
shares run linearly from 0.8 to 1.2 times the even share, in an order the
seed permutes.  Permuting a fixed profile keeps each seed's solver work the
same, so runs with different seeds measure the same amount of work on
different input files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reference import Problem

ZIPF_ALPHA = 0.6
LAM, MU_E, MU_B = 4.0, 8.0, 6.0
#: Per-node capacity of the roadmap ladder, as a share of the catalog size.
CAPACITY_SHARE = 0.1
LADDER_RUNGS = ((20, 3), (200, 3), (1000, 10), (2000, 20))
CATALOG_SIZE, CATALOG_NODES = 50_000, 50
SWEEP_SIZES = (1000, 2000, 5000, 10_000, 20_000, 50_000)
SWEEP_NODES = 20
SIM_STATIONS, SIM_CONTENTS, SIM_ARRIVALS = 10, 20, 2_000_000


def rung_name(contents, nodes):
    return f"f{contents}n{nodes}"


@dataclass
class Op:
    """One CLI invocation; ``{dir}`` in ``argv`` is the operation's output
    directory.  ``check`` names the reference check and ``inputs`` the file
    names (relative to the input directory) it needs."""

    name: str
    argv: list
    check: str
    inputs: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    #: File name -> JSON document, written to the input directory.
    files: dict
    #: Files that ``setup_s`` loads and validates as scenarios / sweeps.
    scenarios: list
    sweeps: list
    ops: list
    #: Nominal wall seconds of one round of ``ops`` (with their probes and
    #: checks) on the baseline machine; it fixes how many rounds a run of a
    #: given length makes.
    round_s: float


def split_capacity(total, nodes, seed):
    """``total`` spread over ``nodes``: evenly for seed 0, else a fixed
    uneven profile in a seed-chosen order."""
    if seed == 0:
        return [total / nodes] * nodes
    profile = np.linspace(0.8, 1.2, nodes)[np.random.default_rng(seed).permutation(nodes)]
    return (total * profile / profile.sum()).tolist()


def scenario(contents, capacities, lam=LAM):
    return {
        "library": {"F": contents, "alpha": ZIPF_ALPHA},
        "cluster": {"capacities": capacities},
        "traffic": {"lambda": lam, "mu_e": MU_E, "mu_b": MU_B},
    }


def ladder(seed):
    """``solve`` at CLI defaults on each rung, then one PGD cross-check."""
    files, ops = {}, []
    for contents, nodes in LADDER_RUNGS:
        name = rung_name(contents, nodes)
        capacities = split_capacity(CAPACITY_SHARE * contents * nodes, nodes, seed)
        files[f"{name}.json"] = scenario(contents, capacities)
        ops.append(
            Op(
                f"solve.{name}",
                ["solve", "--scenario", f"{name}.json", "--out", "{dir}"],
                "solve",
                {"scenario": f"{name}.json"},
            )
        )
    first = rung_name(*LADDER_RUNGS[0])
    ops.append(
        Op(
            f"pgd.{first}",
            ["solve", "--solver", "pgd", "--scenario", f"{first}.json", "--out", "{dir}"],
            "solve",
            {"scenario": f"{first}.json"},
        )
    )
    return Workload("ladder", files, sorted(files), [], ops, 25.0)


def catalog(seed):
    """The closed-form path at catalog sizes ADMM cannot hold in memory."""
    total = CAPACITY_SHARE * CATALOG_SIZE
    files = {
        # Every node holds 0.1*F: h_csl = 1, so congestion binds (CPL).
        "cpl.json": scenario(
            CATALOG_SIZE, split_capacity(total * CATALOG_NODES, CATALOG_NODES, seed)
        ),
        # The cluster holds 0.1*F in all: h_csl ~ 0.4, so storage binds (CSL).
        "csl.json": scenario(CATALOG_SIZE, split_capacity(total, CATALOG_NODES, seed)),
        # Fixed pooled capacity 2000 across the sweep: CPL at small F, CSL at large F.
        "sweep_base.json": scenario(
            SWEEP_SIZES[0], split_capacity(2000.0, SWEEP_NODES, seed)
        ),
        "sweep.json": {"parameter": "F", "values": list(SWEEP_SIZES), "base": "sweep_base.json"},
    }
    ops = [
        Op(
            f"heuristic.{regime}",
            ["heuristic", "--scenario", f"{regime}.json", "--out", "{dir}"],
            "heuristic",
            {"scenario": f"{regime}.json"},
        )
        for regime in ("cpl", "csl")
    ]
    ops.append(
        Op(
            "sweep.F",
            ["sweep", "--scenario", "sweep.json", "--solver", "heuristic,csl-only",
             "--out", "{dir}/sweep.csv"],
            "sweep",
            {"scenario": "sweep_base.json", "values": list(SWEEP_SIZES)},
        )
    )
    return Workload("catalog", files, ["cpl.json", "csl.json"], ["sweep.json"], ops, 6.5)


def simulate(seed):
    """The queue simulator on ten stations, under an interior and an empty
    placement; the simulator's own seed is the workload seed."""
    lam = np.linspace(1.5, 5.8, SIM_STATIONS).tolist()
    doc = scenario(SIM_CONTENTS, [2.0] * SIM_STATIONS, lam=lam)
    problem = Problem.from_dict(doc)
    interior = problem.placement(problem.optimum()[2])
    files = {
        "stations.json": doc,
        "interior.json": {"matrix": interior.tolist()},
        "empty.json": {"matrix": np.zeros(problem.shape).tolist()},
    }
    ops = [
        Op(
            f"simulate.{which}",
            ["simulate", "--scenario", "stations.json", "--placement", f"{which}.json",
             "--seed", str(seed), "--arrivals", str(SIM_ARRIVALS), "--out", "{dir}/sim.csv"],
            "simulate",
            {"scenario": "stations.json", "placement": f"{which}.json"},
        )
        for which in ("interior", "empty")
    ]
    return Workload("simulate", files, ["stations.json"], [], ops, 4.5)


WORKLOADS = {"ladder": ladder, "catalog": catalog, "simulate": simulate}
