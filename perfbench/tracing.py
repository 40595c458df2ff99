"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each amtrl module from outside
the package, by rebinding the names that ``pipeline``, ``harness`` and
``relevance`` call through. Each span records its name, layer, start, end,
parent span, the strategy run it belongs to and its thread, plus the counts
read off the wrapped call's arguments and result. Spans stay in memory
until the run ends. A thread-local stack gives the parent links, so the
sweep's worker threads each build their own tree.
"""

import functools
import itertools
import os
import threading
import time

# span names that start a strategy run: every span below one shares its run id
RUN_SPANS = {"run_single", "run_known_nu", "run_passive", "run_l1_amtrl",
             "run_l2_amtrl", "run_multistage"}


def _params_arg(args, kwargs):
    params = kwargs.get("params", args[-1] if args else None)
    return params if isinstance(params, dict) else {}


def _sample_attrs(args, kwargs, res):
    return {"n": int(res.n)}


def _fit_attrs(args, kwargs, res):
    return {"iters": int(res.iterations), "converged": bool(res.converged)}


def _lasso_attrs(args, kwargs, res):
    info = res[1]
    return {"sweeps": int(info["sweeps"]), "converged": bool(info["converged"])}


def _lp_attrs(args, kwargs, res):
    return {"pivots": int(res.iterations)}


def _run_attrs(args, kwargs, res):
    p = _params_arg(args, kwargs)
    nominal = p.get("N_tot_phase2", p.get("N_tot"))
    return {"realized": int(res.total_samples - res.target_samples),
            "nominal": None if nominal is None else int(nominal)}


def _run_single_attrs(args, kwargs, res):
    return {"nominal": int(args[3])}


def _csv_attrs(args, kwargs, res):
    return {"bytes": os.path.getsize(args[0])}


def _sweep_attrs(args, kwargs, res):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(out_dir)
                         if e.is_file())}


def wrap_points(amtrl):
    """(module, attribute, layer, span name, attrs function) for every
    wrapped call. The module is the one whose global name the callers look
    up, so rebinding it reroutes the calls through the recorder."""
    pipeline, harness, relevance = amtrl.pipeline, amtrl.harness, amtrl.relevance
    return [
        (pipeline, "sample_task", "instance", "sample_task", _sample_attrs),
        (pipeline, "fit_source", "trainer", "fit_source", _fit_attrs),
        (pipeline, "fit_target_head", "trainer", "head", None),
        (pipeline, "head_for", "trainer", "head", None),
        (pipeline, "excess_risk", "trainer", "risk", None),
        (pipeline, "subspace_distance", "trainer", "risk", None),
        (pipeline, "lasso", "relevance", "lasso", _lasso_attrs),
        (pipeline, "min_l2_solution", "relevance", "min_l2", None),
        (relevance, "min_l2_solution", "relevance", "min_l2", None),
        (relevance, "l1_oracle_lp", "relevance", "lp", None),
        (amtrl.simplex, "solve_lp", "simplex", "solve_lp", _lp_attrs),
        (pipeline, "allocate_fixed_nu", "allocation", "allocate", None),
        (pipeline, "lpnq_allocation", "allocation", "allocate", None),
        (pipeline, "run_known_nu", "pipeline", "run_known_nu", _run_attrs),
        (pipeline, "run_passive", "pipeline", "run_passive", _run_attrs),
        (pipeline, "run_l1_amtrl", "pipeline", "run_l1_amtrl", _run_attrs),
        (pipeline, "run_l2_amtrl", "pipeline", "run_l2_amtrl", _run_attrs),
        (pipeline, "run_multistage", "pipeline", "run_multistage", _run_attrs),
        (harness, "run_single", "harness", "run_single", _run_single_attrs),
        (harness, "write_rows_csv", "harness", "io", _csv_attrs),
        (harness, "run_sweep", "harness", "run_sweep", _sweep_attrs),
    ]


class Tracer:
    """Collects spans in memory; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._run_ids = itertools.count(1)
        self._saved = []

    def _next(self, counter):
        with self._lock:
            return next(counter)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer, name, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            run = parent["run"] if parent else None
            if run is None and name in RUN_SPANS:
                run = self._next(self._run_ids)
            span = {"id": self._next(self._span_ids),
                    "parent": parent["id"] if parent else None,
                    "run": run, "name": name, "layer": layer,
                    "thread": threading.get_ident(),
                    "cpu0": time.process_time()}
            stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                span["cpu"] = time.process_time() - span.pop("cpu0")
                stack.pop()
                self.spans.append(span)
            if attrs_fn is not None:
                span.update(attrs_fn(args, kwargs, res))
            return res
        return traced

    def install(self, amtrl):
        for module, attr, layer, name, attrs_fn in wrap_points(amtrl):
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, layer, name, attrs_fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
