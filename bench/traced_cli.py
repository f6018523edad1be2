"""Run ``fogcache.cli`` with a span around every call into each module.

Usage: ``python traced_cli.py SPANS_JSON CLI_ARG...``, with ``src`` on
``PYTHONPATH``.  Behaves like ``python -m fogcache.cli CLI_ARG...`` and
writes the spans as JSON when the command ends.

fogcache's modules call each other through module-level names looked up at
call time (``from .admm import solve`` binds ``fogcache.cli.solve``).  Every
such name that refers to a traced function is rebound to a wrapper, so the
source is left untouched.  A span is ``[name, start, end, parent, counts]``,
with ``parent`` the index of the enclosing span (-1 at top level) and
``counts`` the per-call counters below, or null:

* ``_roots.increasing_root``: ``evals``, calls of the function it solves;
* ``admm.project_feasible``: ``cycles``, Dykstra cycles, counted as calls of
  ``np.clip`` made through ``fogcache.admm`` (one per cycle);
* ``admm.ConstraintSystem.build``: ``bytes`` of the arrays it returns;
* ``admm.solve`` and ``baselines.projected_gradient_solve``: ``iterations``
  run;
* ``queuesim.mm1_sojourn_times``: ``arrivals``.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from time import perf_counter

TRACED = {
    "fogcache.cli": ("main",),
    "fogcache.admm": ("solve", "p_update", "project_feasible"),
    "fogcache._roots": ("increasing_root",),
    "fogcache.objective": ("adt_curve", "adt_slope", "adt_curvature", "overall_adt"),
    "fogcache.model": ("validate_placement",),
    "fogcache.baselines": ("projected_gradient_solve",),
    "fogcache.heuristic": ("heuristic_solve", "echr_csl", "placement_from_echr"),
    "fogcache.queuesim": ("mm1_sojourn_times", "simulate_station", "simulate_cluster"),
}
TRACED_CLASSMETHODS = {
    "fogcache.admm": (("ConstraintSystem", "build"),),
    "fogcache.model": (("Scenario", "load"),),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.clip_calls = 0

    def wrap(self, name, fn, counter=None):
        """``fn`` inside a span; ``counter(args, kwargs, call)`` may replace
        the call to attach counts (it returns ``(result, counts)``)."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                result, span[4] = counter(args, kwargs, fn)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_clip(self, *args, **kwargs):
        self.clip_calls += 1
        return self._clip(*args, **kwargs)

    def _cycles(self, args, kwargs, fn):
        before = self.clip_calls
        result = fn(*args, **kwargs)
        return result, {"cycles": self.clip_calls - before}

    def install(self):
        """Rebind every module-level reference to a traced function."""
        modules = {name: importlib.import_module(name) for name in TRACED}
        counters = {
            "_roots.increasing_root": _count_evals,
            "admm.project_feasible": self._cycles,
            "admm.ConstraintSystem.build": _count_bytes,
            "admm.solve": _count_iterations,
            "baselines.projected_gradient_solve": _count_iterations,
            "queuesim.mm1_sojourn_times": _count_arrivals,
        }
        wrappers = {}
        for module_name, names in TRACED.items():
            short = module_name.split(".", 1)[1]
            for name in names:
                original = getattr(modules[module_name], name)
                span = f"{short}.{name}"
                wrappers[id(original)] = self.wrap(span, original, counters.get(span))
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("fogcache"):
                for name, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, name, wrappers[id(value)])
        for module_name, pairs in TRACED_CLASSMETHODS.items():
            short = module_name.split(".", 1)[1]
            for class_name, method in pairs:
                cls = getattr(modules[module_name], class_name)
                span = f"{short}.{class_name}.{method}"
                original = cls.__dict__[method].__func__
                setattr(cls, method, classmethod(self.wrap(span, original, counters.get(span))))
        admm = modules["fogcache.admm"]
        numpy_view = types.ModuleType(admm.np.__name__)
        numpy_view.__dict__.update(vars(admm.np))
        self._clip = admm.np.clip
        numpy_view.clip = self._count_clip
        admm.np = numpy_view

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def _count_evals(args, kwargs, fn):
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return func(x)

    func = args[0]
    result = fn(counted, *args[1:], **kwargs)
    return result, {"evals": evals}


def _count_bytes(args, kwargs, fn):
    system = fn(*args, **kwargs)
    arrays = (system.a, system.a_u, system.b, system.b_u)
    return system, {"bytes": int(sum(array.nbytes for array in arrays))}


def _count_iterations(args, kwargs, fn):
    # One trace record per iteration run; an unconverged ADMM result's
    # ``iterations`` is the index of its best iterate.
    result = fn(*args, **kwargs)
    return result, {"iterations": len(result.trace)}


def _count_arrivals(args, kwargs, fn):
    n_arrivals = kwargs["n_arrivals"] if "n_arrivals" in kwargs else args[2]
    return fn(*args, **kwargs), {"arrivals": int(n_arrivals)}


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["fogcache.cli"]
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
