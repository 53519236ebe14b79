"""The function names the benchmark's tracer reads are public functions.

`bench/spans.py` sums self time and counts calls by function name, and a
name that is no longer a public function of its layer raises KeyError in
a traced benchmark run.  The names are checked here without installing
the tracer, which would rewrap the package for the whole session.  So are
the names of its observer hooks, `Tracer._observe_<name>`, and the result
fields that the `limiting_ratio` and `verify_pattern_lemmas` hooks read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from boolform.patterns import verify_pattern_lemmas
from boolform.series import PowerSeries
from boolform.singular import limiting_ratio
from boolform.trees import ModelId

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# names the tracer's metrics read outside its two tables, with their layer
READ_BY_METRICS = {"run": "cli", "compute_function": "trees",
                   "complexity": "complexity",
                   "dominant_singularity": "singular"}


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _public_functions(layer):
    # the functions Tracer.install() wraps
    module = importlib.import_module("boolform." + layer)
    return {name for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__}


def test_traced_names_are_public_functions_of_their_layer():
    spans = _spans()
    public = {layer: _public_functions(layer) for layer in spans.LAYERS}
    missing = []
    for metric, names in spans.SELF_TIME_GROUPS.items():
        layer = metric.split(".")[0]
        missing += [(layer, name) for name in names
                    if name != spans.GENERATOR and name not in public[layer]]
    missing += [("any", name) for name in sorted(spans.REPEAT_KEYED)
                if not any(name in names for names in public.values())]
    missing += [(layer, name) for name, layer in READ_BY_METRICS.items()
                if name not in public[layer]]
    assert not missing


def test_observer_hooks_name_public_functions_of_a_traced_layer():
    # Tracer wraps a public function with its `_observe_<name>` hook, so a
    # hook whose function is gone or private would silently stop observing
    spans = _spans()
    public = set().union(*(_public_functions(layer) for layer in spans.LAYERS))
    hooks = [name[len("_observe_"):] for name in vars(spans.Tracer)
             if name.startswith("_observe_")]
    assert hooks and not [name for name in hooks if name not in public]


def test_limiting_ratio_result_feeds_its_observer():
    # (m + 1)/(m + 2) is not a polynomial in 1/m, so the error is not 0
    result = limiting_ratio(PowerSeries([m + 1 for m in range(65)]),
                            PowerSeries([m + 2 for m in range(65)]))
    error = result.diagnostics["error"]
    assert isinstance(error, float) and error > 0
    tracer = _spans().Tracer()
    tracer._observe_limiting_ratio(result)
    assert tracer.observed["singular.ladder_error_max"] == error


def test_lemma_report_feeds_its_observer():
    # trees_checked counts every leaf labelling, (2n)^s per shape of s
    # leaves, though the verifier indexes few of them one by one
    tracer = _spans().Tracer()
    tracer._observe_verify_pattern_lemmas(verify_pattern_lemmas(ModelId.CATALAN, 4, 2))
    shapes = [1, 2, 8, 40]  # catalan's connective-labelled shapes, sizes 1..4
    assert tracer.observed["patterns.labellings_checked"] == sum(
        c * 4 ** s for s, c in enumerate(shapes, 1))
