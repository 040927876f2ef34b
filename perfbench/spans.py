"""Span tracing from outside the program, and per-layer metrics from spans.

A traced run replaces public functions of ``mdlasso`` with timing wrappers,
under the names the calling module looks them up by (``mdlasso.sim.solve``,
``mdlasso.bounds.is_typical``, ``GaussianLinearModel.draw_features``, ...),
so the unmodified call paths record one span per call. Spans stay in memory
and are written out once the run ends. No program code is copied or edited.

A span is ``[name, start, end, parent, trial, note]``: ``parent`` is the
index of the enclosing span (or -1), ``trial`` the trial or draw id current
when the span began (or -1), and ``note`` a small dict of counts read from
the call's arguments or result (solver iterations, typicality, CSV bytes).
"""

import importlib
import os
import statistics
import time


def _solve_note(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _typical_note(args, kwargs, result):
    return {"typical": bool(result)}


def _csv_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _renyi_mc_note(args, kwargs, result):
    samples = kwargs["num_samples"] if "num_samples" in kwargs else args[3]
    return {"samples": int(samples)}


def _trial_of(args):
    return int(args[1])


# (span name, module, attribute path, note, trial id from arguments)
TARGETS = [
    ("cli.parse_config", "mdlasso.cli", "parse_config", None, None),
    ("cli.emit_csv", "mdlasso.cli", "emit_csv", _csv_note, None),
    ("sim.build_model", "mdlasso.sim", "ExperimentConfig.build_model",
     None, None),
    ("sim.run_trial", "mdlasso.sim", "run_trial", None, _trial_of),
    ("lasso.problem", "mdlasso.sim", "LassoProblem", None, None),
    ("lasso.problem", "mdlasso.lasso", "LassoProblem", None, None),
    ("lasso.solve", "mdlasso.sim", "solve", _solve_note, None),
    ("lasso.solve", "mdlasso.bounds", "solve", _solve_note, None),
    ("lasso.solve", "mdlasso.lasso", "solve", _solve_note, None),
    ("bounds.regret_certificate", "mdlasso.sim", "regret_certificate",
     None, None),
    ("bounds.risk_bound_rhs", "mdlasso.bounds", "risk_bound_rhs", None, None),
    ("typical_set.is_typical", "mdlasso.sim", "is_typical",
     _typical_note, None),
    ("typical_set.is_typical", "mdlasso.bounds", "is_typical",
     _typical_note, None),
    ("divergences.bhattacharyya", "mdlasso.sim", "bhattacharyya", None, None),
    ("divergences.hellinger_sq", "mdlasso.sim", "hellinger_sq", None, None),
    ("divergences.renyi_mc", "mdlasso.divergences", "renyi_mc",
     _renyi_mc_note, None),
    # The symmetry check and identity test a model runs on construction.
    ("matops.check_symmetric", "mdlasso.model",
     "GaussianLinearModel.__post_init__", None, None),
    ("model.draw_features", "mdlasso.model",
     "GaussianLinearModel.draw_features", None, None),
    ("model.draw_response", "mdlasso.model",
     "GaussianLinearModel.draw_response", None, None),
]


UNITS = {
    "cli.parse_config_s": "s", "sim.build_model_s": "s",
    "matops.check_symmetric_s": "s",
    "sim.trial_p50_ms": "ms", "sim.trial_p90_ms": "ms",
    "model.draw_s": "s", "lasso.problem_s": "s", "lasso.solve_s": "s",
    "lasso.solve_p50_ms": "ms", "lasso.solve_p90_ms": "ms",
    "lasso.solve_calls": "count", "lasso.iterations_p50": "count",
    "lasso.iterations_p90": "count", "lasso.iterations_sum": "count",
    "lasso.converged_frac": "ratio",
    "bounds.regret_certificate_s": "s", "bounds.risk_bound_rhs_s": "s",
    "typical_set.is_typical_s": "s", "typical_set.is_typical_calls": "count",
    "typical_set.acceptance": "ratio",
    "divergences.closed_form_s": "s", "divergences.renyi_mc_s": "s",
    "divergences.renyi_mc_samples_per_s": "1/s",
    "cli.emit_csv_s": "s", "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


class MissingTargetError(RuntimeError):
    """A function the traced run wraps no longer exists under its name."""


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.trial = -1
        self._stack = []
        self._saved = []

    def install(self):
        """Wrap every target, or none if any is missing."""
        resolved = []
        for name, module, path, note, trial_of in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                raise MissingTargetError(
                    f"traced function {module}.{path} not found")
            resolved.append((owner, attr, name, note, trial_of))
        for owner, attr, name, note, trial_of in resolved:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note, trial_of))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, note, trial_of):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if trial_of is not None:
                self.trial = trial_of(args)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial,
                    None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[i]):
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def layer_metrics(spans):
    """Per-layer metrics of one traced workload instance (one child)."""
    selfs = self_times(spans)
    dur = {}
    notes = {}
    self_sum = {}
    for span, s in zip(spans, selfs):
        name = span[0]
        dur.setdefault(name, []).append(span[2] - span[1])
        notes.setdefault(name, []).append(span[5])
        self_sum[name] = self_sum.get(name, 0.0) + s

    def total(*names):
        return float(sum(sum(dur.get(n, [])) for n in names))

    solves = notes.get("lasso.solve", [])
    iters = [n["iterations"] for n in solves]
    typical = notes.get("typical_set.is_typical", [])
    renyi_s = total("divergences.renyi_mc")
    samples = sum(n["samples"] for n in notes.get("divergences.renyi_mc", []))
    ms = [1e3 * d for d in dur.get("sim.run_trial", [])]
    solve_ms = [1e3 * d for d in dur.get("lasso.solve", [])]
    return {
        "cli.parse_config_s": total("cli.parse_config"),
        "sim.build_model_s": total("sim.build_model"),
        "matops.check_symmetric_s": total("matops.check_symmetric"),
        "sim.trial_p50_ms": percentile(ms, 50),
        "sim.trial_p90_ms": percentile(ms, 90),
        "model.draw_s": float(self_sum.get("model.draw_features", 0.0)
                              + self_sum.get("model.draw_response", 0.0)),
        "lasso.problem_s": total("lasso.problem"),
        "lasso.solve_s": total("lasso.solve"),
        "lasso.solve_p50_ms": percentile(solve_ms, 50),
        "lasso.solve_p90_ms": percentile(solve_ms, 90),
        "lasso.solve_calls": len(solves),
        "lasso.iterations_p50": percentile(iters, 50),
        "lasso.iterations_p90": percentile(iters, 90),
        "lasso.iterations_sum": sum(iters),
        "lasso.converged_frac": (sum(n["converged"] for n in solves)
                                 / len(solves) if solves else 0.0),
        "bounds.regret_certificate_s": total("bounds.regret_certificate"),
        "bounds.risk_bound_rhs_s": total("bounds.risk_bound_rhs"),
        "typical_set.is_typical_s": total("typical_set.is_typical"),
        "typical_set.is_typical_calls": len(typical),
        "typical_set.acceptance": (sum(n["typical"] for n in typical)
                                   / len(typical) if typical else 0.0),
        "divergences.closed_form_s": total("divergences.bhattacharyya",
                                           "divergences.hellinger_sq"),
        "divergences.renyi_mc_s": renyi_s,
        "divergences.renyi_mc_samples_per_s": (samples / renyi_s
                                               if renyi_s > 0 else 0.0),
        "cli.emit_csv_s": total("cli.emit_csv"),
        "cli.csv_bytes": sum(n["bytes"] for n in notes.get("cli.emit_csv", [])),
    }


def median_metrics(per_child):
    """Median over workload instances of each per-layer metric."""
    return {k: statistics.median(m[k] for m in per_child)
            for k in per_child[0]}
