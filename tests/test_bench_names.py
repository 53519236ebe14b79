"""The function names the benchmark's tracer reads are public functions.

`bench/spans.py` sums self time and counts calls by function name, and a
name that is no longer a public function of its layer raises KeyError in
a traced benchmark run.  The names are checked here without installing
the tracer, which would rewrap the package for the whole session.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
