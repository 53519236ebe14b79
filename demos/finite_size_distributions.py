"""How fast does the finite-size distribution settle toward its limit?

Counts, for each Boolean function, the And/Or trees of size m over n
variables that compute it (by the truth-table dynamic program, without
building a tree), and prints the probability of True and of the literal
x1 as m grows.  The drift toward the asymptotic constants (scaled by n
and n^2) is already visible at tiny sizes.

Run:  python3 demos/finite_size_distributions.py
"""

from boolform import ModelId, distribution
from boolform.boolfun import BoolFunc, Literal

N = 2

for model in ModelId:
    print("== %s, n=%d ==" % (model.value, N))
    true_f = BoolFunc.constant(N, True)
    x1 = BoolFunc.from_literal(Literal(1, True), N)
    for m in range(1, 8):
        d = distribution(model, m, N)
        p_true = d.counts.get(true_f, 0) / d.total
        p_x1 = d.counts.get(x1, 0) / d.total
        print("  m=%d  total=%-12d  n*P(True)=%.4f  n^2*P(x1)=%.4f"
              % (m, d.total, N * p_true, N * N * p_x1))
    print()
