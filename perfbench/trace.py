"""Span tracing of layerforge's public functions, from outside the package.

``Tracer.install()`` replaces each traced function by a wrapper that records
a span: its name, parent span, owning op, start, end and self time (its
duration minus the time covered by its direct child spans), plus counters
read from the call's arguments, result or exception.  A function is patched
in its defining module and under every name a layerforge module re-bound it
with ``from ... import`` (``expansion.build_v1``, ``kink.integrate_kink``,
``kink.eval_program_array``, ``solver.thomas_solve``, ...).  Methods are
patched on their class.  ``uninstall()`` restores every original.

Spans stay in memory until ``write()`` at the end of the run.  The untraced
run never constructs a Tracer, so it runs the unmodified functions.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

import numpy as np


def _kink_steps(args, result, error):
    return None if result is None else {"steps": int(result[4]),
                                        "status": int(result[5])}


def _newton_counts(args, result, error):
    if result is None:
        return {"no_convergence": int(error == "NoConvergence")}
    return {"iterations": int(result.iterations),
            "damped_steps": sum(1 for lam in result.damping if lam < 1.0)}


def _built(args, result, error):
    return {"built": int(error is None)}


def _points(args, result, error):
    # args = (self, x, ...) for every traced evaluator
    return {"points": int(np.size(args[1]))}


def _dumps_bytes(args, result, error):
    return None if result is None else {"bytes": len(result)}


#: (layer, owner, attribute, counter function, record only the outermost
#: call of this layer).  Owners are module names or "module:Class".
LAYERS = (
    ("problem.parse", "layerforge.problem", "problem_from_dict", None, False),
    ("problem.check", "layerforge.problem", "check_assumptions", None, False),
    ("locator.locate", "layerforge.locator", "locate_t0", None, False),
    ("corrections.matching", "layerforge.corrections", "compute_matching",
     None, False),
    ("kink.build", "layerforge.kink", "build_kink", None, False),
    ("kernels.integrate_kink", "layerforge.kernels", "integrate_kink",
     _kink_steps, False),
    ("kernels.eval_program_array", "layerforge.kernels", "eval_program_array",
     None, False),
    ("corrections.aux", "layerforge.corrections", "make_auxiliary", None, False),
    ("corrections.v1", "layerforge.corrections", "build_v1", _built, False),
    ("corrections.v2", "layerforge.corrections", "build_v2", _built, False),
    ("corrections.vstar", "layerforge.corrections", "build_vstar", _built,
     False),
    ("corrections.z", "layerforge.corrections", "build_z", _built, False),
    ("expansion.build", "layerforge.expansion", "build_expansion", None, False),
    ("expansion.perturbed", "layerforge.expansion", "build_perturbed",
     None, False),
    ("expansion.phi", "layerforge.expansion:Expansion", "phi_u_as", None, False),
    ("expansion.phi", "layerforge.expansion:PerturbedExpansion", "phi_beta",
     None, False),
    ("expansion.eval", "layerforge.expansion:Expansion", "u_as", _points, True),
    ("expansion.eval", "layerforge.expansion:Expansion", "truncated",
     _points, True),
    ("expansion.eval", "layerforge.expansion:Expansion", "residual",
     _points, True),
    ("expansion.eval", "layerforge.expansion:PerturbedExpansion", "beta",
     _points, True),
    ("expansion.eval", "layerforge.expansion:PerturbedExpansion",
     "f_beta_centered", _points, True),
    ("expr.eval", "layerforge.problem:ProblemSpec", "b_val", None, False),
    ("expr.eval", "layerforge.problem:ProblemSpec", "phi", None, False),
    ("solver.mesh", "layerforge.solver", "build_mesh", None, False),
    ("solver.newton", "layerforge.solver", "newton_solve", _newton_counts,
     False),
    ("solver.compare", "layerforge.solver", "compare", None, False),
    ("kernels.thomas", "layerforge.kernels", "thomas_solve", None, False),
    ("cli.dumps", "layerforge.cli", "dumps", _dumps_bytes, True),
)

#: per-op counters reported by the traced run: metric -> (layer(s), counter
#: key, unit); a key of None counts the layer's spans
COUNTERS = {
    "kernels.kink_steps": ("kernels.integrate_kink", "steps", "count/op"),
    "corrections.terms_built": (("corrections.v1", "corrections.v2",
                                 "corrections.vstar", "corrections.z"),
                                "built", "count/op"),
    "expansion.points_evaluated": ("expansion.eval", "points", "count/op"),
    "expr.eval_calls": ("expr.eval", None, "count/op"),
    "solver.newton_iterations": ("solver.newton", "iterations", "count/op"),
    "solver.damped_steps": ("solver.newton", "damped_steps", "count/op"),
    "solver.no_convergence": ("solver.newton", "no_convergence", "count/op"),
    "kernels.thomas_calls": ("kernels.thomas", None, "count/op"),
    "cli.bytes_out": ("cli.dumps", "bytes", "B/op"),
}

#: every layer whose self time is reported, in table order
TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    mod = sys.modules[module]
    return getattr(mod, cls) if cls else mod


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # span record: (id, parent id, op id, name, start, end, self, counters,
        # error class name)
        self.spans: list = []
        self._stack: list = []      # open frames: [span id, name, child time]
        self._next_id = 1
        self._patches: list = []    # (owner object, attribute, original)
        self.op_id = None

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer, fn, counters, outermost):
        def traced(*args, **kwargs):
            stack = self._stack
            if outermost and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [self._next_id, layer, 0.0]
            self._next_id += 1
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                extra = counters(args, result, error) if counters else None
                self.spans.append((frame[0], parent[0] if parent else 0,
                                   self.op_id, layer, start, end,
                                   end - start - frame[2], extra, error))

        return traced

    def run(self, name: str, op_id, fn, *args):
        """Run fn(*args) as a root span (an op or a set-up) for `op_id`."""
        self.op_id = op_id
        try:
            return self._wrap(name, fn, None, False)(*args)
        finally:
            self.op_id = None

    # -- patching -----------------------------------------------------------

    def install(self):
        """Patch every traced function, under all its names."""
        modules = [m for n, m in sys.modules.items()
                   if n == "layerforge" or n.startswith("layerforge.")]
        for layer, owner, attr, counters, outermost in LAYERS:
            target = _resolve(owner)
            original = target.__dict__[attr]
            wrapper = self._wrap(layer, original, counters, outermost)
            if isinstance(target, type):
                self._patch(target, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def summary(self, op_ids) -> dict:
        """Self time and counters per layer, summed over the spans of op_ids.

        Root spans (the op or set-up itself) report their self time under
        their own name, which is the time no traced layer accounts for.
        """
        wanted = set(op_ids)
        times: dict = {}
        counts: dict = {}
        for _, _, op, name, _, _, self_s, extra, error in self.spans:
            if op not in wanted:
                continue
            times[name] = times.get(name, 0.0) + self_s
            counts[(name, None)] = counts.get((name, None), 0) + 1
            if extra:
                for key, value in extra.items():
                    counts[(name, key)] = counts.get((name, key), 0) + value
        return {"self_s": times, "counts": counts}

    def write(self, path):
        """Write every span as one JSON line to a gzip file."""
        keys = ("id", "parent", "op", "name", "start", "end", "self_s",
                "counters", "error")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def counter_value(summary: dict, layer, key) -> int:
    layers = layer if isinstance(layer, tuple) else (layer,)
    return sum(summary["counts"].get((name, key), 0) for name in layers)
