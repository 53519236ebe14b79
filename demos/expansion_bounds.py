"""Minimal trees, expansions, and bounds on the probability constant.

Takes a handful of Boolean functions, finds all their minimal trees per
model, tallies the valid T- and X-expansions, and compares the
expansion-formula estimate of the probability constant against the
closed-form bounds.

Run:  python3 demos/expansion_bounds.py
"""

from boolform import (ModelId, complexity, enumerate_expansions,
                      lambda_bounds, probability_vs_bounds)
from boolform.boolfun import BoolFunc, Literal

FUNCTIONS = [
    ("x1", BoolFunc.from_literal(Literal(1, True), 2)),
    ("x1 & x2", BoolFunc(2, 0b1000)),
    ("x1 | (x2 & x3)", BoolFunc.from_string("n:3:ea")),
]

for name, f in FUNCTIONS:
    print("== %s ==" % name)
    for model in ModelId:
        ts = complexity(f, model)
        tally = enumerate_expansions(ts)
        b = lambda_bounds(ts)
        line = ("  %-10s L=%d M=%-2d lambda_T=%-3d lambda_X=%-3d "
                "bounds=[%.5f, %.5f]" % (model.value, ts.L, ts.M,
                                         tally.lambda_T, tally.lambda_X,
                                         b.lower, b.upper))
        if b.restricted:
            line += "  (bounds stated for L>1 only)"
        print(line)
    rep = probability_vs_bounds(f, ModelId.CATALAN)
    print("  catalan extrapolated constant: %.6f (within bounds: %s)"
          % (rep["limit"], rep["within_bounds"]))
    print()
