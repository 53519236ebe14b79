"""Spans around boolform's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function of the traced layers with a
timing wrapper at every module binding of it (``singular`` imports
``solve_model_series``, ``exhaustive`` and ``complexity`` import
``compute_function`` and ``generate_trees``, ``cli`` imports ``complexity``
under an alias, and the package re-exports them all), so calls between layers
are seen as well as the benchmark's own calls.

Spans are kept in memory. A layer's self time is the time of its spans minus
the time of their child spans. Per-tree helpers (every public function of
``trees``) and the iterators ``generate_trees`` returns are aggregated into a
count and a total instead of one span per call; the iterator's time is the
time spent inside ``next()``, charged to ``exhaustive`` and subtracted from
the function consuming it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("series", "singular", "exhaustive", "trees", "patterns",
          "complexity", "cli")
AGGREGATED_LAYERS = {"trees"}
GENERATOR = "generate_trees.next"

# self-time metrics: metric -> the functions whose self time it sums
SELF_TIME_GROUPS = {
    # the three entry points and the public helpers they solve with
    "series.solve_s": ("solve_model_series", "solve_half_series",
                       "solve_aux_series", "solve_equation", "polya_sum",
                       "log_one_minus_z"),
    "series.sanity_s": ("series_sanity",),
    "singular.singularity_s": ("dominant_singularity",),
    "singular.rates_s": ("w_rates", "probability_true", "probability_literal",
                         "limiting_ratio"),
    "singular.report_s": ("singularity_report",),
    "exhaustive.dp_s": ("distribution", "classifier_counts"),
    "exhaustive.gen_s": ("generate_trees", GENERATOR),
    "exhaustive.count_s": ("count_trees",),
    "trees.compute_function_s": ("compute_function",),
    "patterns.lemmas_s": ("verify_pattern_lemmas",),
    "complexity.search_s": ("complexity",),
    "complexity.expansions_s": ("enumerate_expansions",),
    "complexity.bounds_s": ("lambda_bounds", "lambda_x_bounds",
                            "lambda_t_reference", "probability_vs_bounds"),
}

# functions whose calls are checked for arguments repeating an earlier call
REPEAT_KEYED = {"solve_model_series", "solve_half_series", "solve_aux_series",
                "series_sanity", "dominant_singularity", "complexity"}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_GROUPS},
    "series.calls": "count",
    "series.repeat_calls": "count",
    "singular.singularity_calls": "count",
    "singular.singularity_repeat_calls": "count",
    "singular.ladder_error_max": "1",
    "exhaustive.dp_entries": "count",
    "exhaustive.trees_generated": "count",
    "exhaustive.trees_per_s": "1/s",
    "trees.compute_function_calls": "count",
    "patterns.labellings_checked": "count",
    "patterns.labellings_per_s": "1/s",
    "complexity.search_calls": "count",
    "complexity.repeat_calls": "count",
    "complexity.hit_ratio": "ratio",
    "cli.run_s": "s",
    **{"%s.self_s" % layer: "s" for layer in LAYERS},
    **{"%s.errors" % layer: "count" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span recorder; inactive until `on` is set."""

    def __init__(self):
        self.on = False
        self.job = None
        # one frame per open call: [seconds spent in child calls, span id]
        self.stack: list[list] = []
        self.spans: list[dict] = []
        # function name -> [calls, self seconds, inclusive seconds]
        self.totals: dict = {GENERATOR: [0, 0.0, 0.0]}
        self.repeats: Counter = Counter()      # function name -> repeated calls
        self.errors: Counter = Counter()       # layer -> exceptions raised
        self.layer_of: dict = {GENERATOR: "exhaustive"}
        self.observed = defaultdict(float)
        self.searches: list = []               # (model, n, L, M) per complexity()
        self._seen_args: set = set()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        layers = {layer: importlib.import_module("boolform." + layer)
                  for layer in LAYERS}
        modules = [sys.modules[name] for name in list(sys.modules)
                   if name == "boolform" or name.startswith("boolform.")]
        replacements = {}
        for layer, module in layers.items():
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self.layer_of[name] = layer
                self.totals[name] = [0, 0.0, 0.0]
                wrap = (self._wrap_aggregated if layer in AGGREGATED_LAYERS
                        else self._wrap_span)
                replacements[id(fn)] = functools.wraps(fn)(wrap(fn, layer))
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap_span(self, fn, layer: str):
        name = fn.__name__
        totals = self.totals[name]
        signature = inspect.signature(fn) if name in REPEAT_KEYED else None
        observe = getattr(self, "_observe_" + name, None)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = (name, repr(sorted(bound.arguments.items())))
                if key in tracer._seen_args:
                    tracer.repeats[name] += 1
                tracer._seen_args.add(key)
            stack = tracer.stack
            span = {"id": len(tracer.spans),
                    "parent": stack[-1][1] if stack else None,
                    "job": tracer.job, "layer": layer, "name": name}
            tracer.spans.append(span)
            frame = [0.0, span["id"]]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration
                span.update(start=start, end=end, self=duration - frame[0])
            if observe is not None:
                observe(result)
            if name == "generate_trees":
                return tracer._timed_iter(result)
            return result

        return wrapper

    def _wrap_aggregated(self, fn, layer: str):
        totals = self.totals[fn.__name__]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration

        return wrapper

    def _timed_iter(self, iterator):
        """Yield from a generate_trees iterator, timing each next()."""
        totals = self.totals[GENERATOR]
        stack = self.stack
        while True:
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            except Exception:
                self.errors["exhaustive"] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration
            self.observed["exhaustive.trees_generated"] += 1
            yield item

    # -- observers: counts read from results ------------------------------

    def _observe_limiting_ratio(self, result) -> None:
        err = result.diagnostics.get("error", 0.0)
        self.observed["singular.ladder_error_max"] = max(
            self.observed["singular.ladder_error_max"], err)

    def _observe_distribution(self, result) -> None:
        self.observed["exhaustive.dp_entries"] += len(result.counts)

    def _observe_verify_pattern_lemmas(self, result) -> None:
        self.observed["patterns.labellings_checked"] += result.trees_checked

    def _observe_complexity(self, result) -> None:
        if result.L:
            self.searches.append((result.model, result.f.n, result.L, result.M))

    # -- metrics ---------------------------------------------------------

    def metrics(self, traced_wall_s: float, count_trees) -> dict:
        """Per-layer metrics of the recorded batch; call with the tracer off.

        `count_trees` is boolform's counter, used for the number of trees
        the complexity searches examined.
        """
        calls = {name: t[0] for name, t in self.totals.items()}
        own = {name: t[1] for name, t in self.totals.items()}
        out: dict = {}
        for metric, names in SELF_TIME_GROUPS.items():
            out[metric] = sum(own[name] for name in names)
        layer_names = defaultdict(list)
        for name, layer in self.layer_of.items():
            layer_names[layer].append(name)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(own[n] for n in layer_names[layer])
            out[layer + ".errors"] = self.errors[layer]
        out["series.calls"] = sum(calls[n] for n in layer_names["series"])
        out["series.repeat_calls"] = sum(self.repeats[n]
                                         for n in layer_names["series"])
        out["singular.singularity_calls"] = calls["dominant_singularity"]
        out["singular.singularity_repeat_calls"] = \
            self.repeats["dominant_singularity"]
        out["singular.ladder_error_max"] = \
            self.observed["singular.ladder_error_max"]
        out["exhaustive.dp_entries"] = int(self.observed["exhaustive.dp_entries"])
        generated = int(self.observed["exhaustive.trees_generated"])
        out["exhaustive.trees_generated"] = generated
        out["exhaustive.trees_per_s"] = _rate(generated, out["exhaustive.gen_s"])
        out["trees.compute_function_calls"] = calls["compute_function"]
        checked = int(self.observed["patterns.labellings_checked"])
        out["patterns.labellings_checked"] = checked
        out["patterns.labellings_per_s"] = _rate(checked,
                                                 out["patterns.lemmas_s"])
        out["complexity.search_calls"] = calls["complexity"]
        out["complexity.repeat_calls"] = self.repeats["complexity"]
        examined = sum(count_trees(model, m, n)
                       for model, n, L, _M in self.searches
                       for m in range(1, L + 1))
        found = sum(M for *_rest, M in self.searches)
        out["complexity.hit_ratio"] = found / examined if examined else 0.0
        out["cli.run_s"] = self.totals["run"][2]
        self_sum = sum(out[layer + ".self_s"] for layer in LAYERS)
        out["trace.wall_s"] = traced_wall_s
        out["trace.self_sum_s"] = self_sum
        out["trace.unattributed_s"] = traced_wall_s - self_sum
        out["trace.spans"] = len(self.spans)
        return out


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
