"""In-memory span tracer for the public functions of the ``pacsbo`` package.

Every public function of every ``pacsbo`` module is wrapped once, and the
wrapper is stored under each name a module uses for it, so a call through
``pacsbo_loop.estimate_upper_bound`` or ``safeopt_core.gp_predict`` is
recorded like a call through the defining module. Callers outside the
package (the benchmark itself) must look functions up on their module too,
for example ``harness.scenario_fig3(...)``.

A span is ``[name, start, end, parent, phase, info]``. ``parent`` is the
index of the enclosing span or -1, ``phase`` is whatever the benchmark set
when the span began ("setup", a round number, "check"), and ``info`` holds
counts read from the call's result for the few functions that have them.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import time
import types
from collections import defaultdict


def _estimator_counts(args, kwargs, res):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[7]
    return {"escalated": int(res.escalated),
            "past_budget": max(0, res.q_used - cfg.q_max)}


# counts taken from results; keyed by "<module>.<function>"
HOOKS = {
    "rkhs_function.interpolating_norms":
        lambda a, k, res: {"draws": len(res)},
    "pac_estimator.estimate_upper_bound": _estimator_counts,
    "kernel_gp.gp_predict": lambda a, k, res: {"points": len(res[0])},
    "safeopt_core.expanders": lambda a, k, res: {"found": int(res.sum())},
    "safeopt_core.compute_state":
        lambda a, k, res: {"safe": int(res.safe.sum())},
    "subdomain.partition_masks":
        lambda a, k, res: {"enlarged": res[1].count - res[0].count},
    "predictor.generate_training_data":
        lambda a, k, res: {"rows": res.rows},
}


def package_modules(package_name: str = "pacsbo") -> list:
    """Every submodule of the package, imported."""
    pkg = importlib.import_module(package_name)
    return [importlib.import_module(f"{package_name}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)]


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []

    def install(self, modules) -> None:
        """Wrap every public function defined in ``modules`` under every
        name any of the modules binds it to."""
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    short = mod.__name__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(obj, f"{short}.{obj.__name__}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, extra=None) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        payload = {
            "columns": ["name", "start", "end", "parent", "phase", "info"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                      for s in self.spans],
        }
        if extra:
            payload.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, how); "how" is evaluated on one phase's span summary
ROUND_METRICS = (
    ("rkhs_function.draws", "count",
     lambda s: s.info("rkhs_function.interpolating_norms", "draws")),
    ("rkhs_function.norms_s", "s",
     lambda s: s.total("rkhs_function.interpolating_norms")),
    ("rkhs_function.draws_per_s", "1/s",
     lambda s: _ratio(s.info("rkhs_function.interpolating_norms", "draws"),
                      s.total("rkhs_function.interpolating_norms"))),
    ("pac_estimator.calls", "count",
     lambda s: s.calls("pac_estimator.estimate_upper_bound")),
    ("pac_estimator.self_s", "s", lambda s: s.module_self("pac_estimator")),
    ("pac_estimator.escalated", "count",
     lambda s: s.info("pac_estimator.estimate_upper_bound", "escalated")),
    ("pac_estimator.accepted_share", "ratio",
     lambda s: _ratio(
         s.calls("pac_estimator.estimate_upper_bound")
         - s.info("pac_estimator.estimate_upper_bound", "escalated"),
         s.calls("pac_estimator.estimate_upper_bound"))),
    ("pac_estimator.draws_past_budget", "count",
     lambda s: s.info("pac_estimator.estimate_upper_bound", "past_budget")),
    ("predictor.predict_calls", "count",
     lambda s: s.calls("predictor.predict_norm")),
    ("predictor.predict_s", "s", lambda s: s.total("predictor.predict_norm")),
    ("kernel_gp.fit_calls", "count", lambda s: s.calls("kernel_gp.gp_fit")),
    ("kernel_gp.fit_s", "s", lambda s: s.total("kernel_gp.gp_fit")),
    ("kernel_gp.predict_calls", "count",
     lambda s: s.calls("kernel_gp.gp_predict")),
    ("kernel_gp.predict_points", "count",
     lambda s: s.info("kernel_gp.gp_predict", "points")),
    ("kernel_gp.predict_s", "s", lambda s: s.total("kernel_gp.gp_predict")),
    ("kernel_gp.refit_calls", "count",
     lambda s: s.calls("kernel_gp.posterior_with_observation")),
    ("kernel_gp.refit_s", "s",
     lambda s: s.total("kernel_gp.posterior_with_observation")),
    ("kernel_gp.cov_integral_s", "s",
     lambda s: s.total("kernel_gp.reciprocal_cov_integral")),
    ("safeopt_core.state_calls", "count",
     lambda s: s.calls("safeopt_core.compute_state")),
    ("safeopt_core.state_s", "s",
     lambda s: s.total("safeopt_core.compute_state")),
    ("safeopt_core.bounds_s", "s",
     lambda s: s.total("safeopt_core.confidence_bounds")),
    ("safeopt_core.expanders_s", "s",
     lambda s: s.total("safeopt_core.expanders")),
    ("safeopt_core.expanders_found", "count",
     lambda s: s.info("safeopt_core.expanders", "found")),
    ("safeopt_core.found_per_refit", "ratio",
     lambda s: _ratio(s.info("safeopt_core.expanders", "found"),
                      s.calls("kernel_gp.posterior_with_observation"))),
    ("safeopt_core.safe_points", "count",
     lambda s: s.info("safeopt_core.compute_state", "safe")),
    ("subdomain.masks_s", "s",
     lambda s: s.total("subdomain.partition_masks")),
    ("subdomain.enlarged_points", "count",
     lambda s: s.info("subdomain.partition_masks", "enlarged")),
    ("pacsbo_loop.steps", "count",
     lambda s: s.calls("pacsbo_loop.pacsbo_step")
     + s.calls("pacsbo_loop.safeopt_step")),
    ("pacsbo_loop.step_s", "s",
     lambda s: s.total("pacsbo_loop.pacsbo_step")
     + s.total("pacsbo_loop.safeopt_step")),
    ("pacsbo_loop.self_s", "s", lambda s: s.module_self("pacsbo_loop")),
    ("harness.self_s", "s", lambda s: s.module_self("harness")),
)

SETUP_METRICS = (
    ("predictor.rollout_s", "s",
     lambda s: s.total("predictor.generate_training_data")),
    ("predictor.rows", "count",
     lambda s: s.info("predictor.generate_training_data", "rows")),
    ("predictor.fit_s", "s", lambda s: s.total("predictor.train_mlp")),
)

METRIC_UNITS = {name: unit for name, unit, _ in ROUND_METRICS + SETUP_METRICS}


def _ratio(num, den):
    return num / den if den else 0.0


class PhaseSummary:
    """Totals over the spans of one phase.

    ``total`` sums whole span durations; ``module_self`` sums, over the
    module's spans, each duration minus the durations of its direct
    children, so time spent in another module's functions is excluded and
    time in the module's own helpers is not counted twice.
    """

    def __init__(self, spans, phase):
        child_time = defaultdict(float)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        self._calls = defaultdict(int)
        self._total = defaultdict(float)
        self._self = defaultdict(float)
        self._info = defaultdict(lambda: defaultdict(int))
        for k, s in enumerate(spans):
            if s[4] != phase:
                continue
            name = s[0]
            dur = s[2] - s[1]
            self._calls[name] += 1
            self._total[name] += dur
            self._self[name.split(".", 1)[0]] += dur - child_time[k]
            if s[5]:
                for key, value in s[5].items():
                    self._info[name][key] += value

    def calls(self, name):
        return self._calls[name]

    def total(self, name):
        return self._total[name]

    def module_self(self, module):
        return self._self[module]

    def info(self, name, key):
        return self._info[name][key]


def layer_metrics(spans, rounds: int) -> tuple:
    """Per-layer metrics: the median over rounds for each round metric
    (counts must agree across rounds) and the setup-phase metrics.

    Returns ``(metrics, mismatched)`` where ``mismatched`` names every
    count that differed between rounds.
    """
    per_round = []
    for r in range(rounds):
        summary = PhaseSummary(spans, r)
        per_round.append({name: how(summary)
                          for name, _, how in ROUND_METRICS})
    setup = PhaseSummary(spans, "setup")
    metrics, mismatched = {}, []
    for name, unit, _ in ROUND_METRICS:
        values = [row[name] for row in per_round]
        if unit == "count":
            if len(set(values)) > 1:
                mismatched.append(name)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    for name, _, how in SETUP_METRICS:
        metrics[name] = how(setup)
    return metrics, mismatched
