"""From counting series to limiting constants, end to end.

For each tree model this script
  1. solves the exact counting series and checks a few coefficients
     against brute-force enumeration,
  2. locates the dominant singularity,
  3. extrapolates the limiting tautology and literal constants over a
     grid of variable counts,
and prints the computed constants next to the published reference
values.  The two commutative entries of the reference table (641/1024
and 1153/4096) contradict the derivation: the commutative limits are
the binary plane model's 3/4 and 5/16, because the commutative system
without its z^2 terms is the plane system under z -> 2z.  The proof is
in tests/test_comm_limits.py.

Run:  python3 demos/constants_walkthrough.py   (about 10 s)
"""

import mpmath as mp

from boolform import (ModelId, REFERENCE_CONSTANTS, constant_estimate,
                      count_trees, dominant_singularity, solve_model_series)

for model in ModelId:
    print("== %s ==" % model.value)
    s = solve_model_series(model, 2, 6)
    counts = [count_trees(model, m, 2) for m in range(1, 7)]
    assert list(s.coeffs[1:7]) == counts
    print("  series coefficients (n=2):", counts)

    rep = dominant_singularity(model, 100)
    print("  singularity at n=100: rho = %s  (%s)"
          % (mp.nstr(rep.rho, 10), rep.method))

    for target in ("True", "literal"):
        est, err = constant_estimate(model, target)
        ref = REFERENCE_CONSTANTS[(model, target)]()
        flag = "" if abs(est - ref) < 0.01 else "   <-- disagrees"
        print("  %-8s computed %s +- %s   published %s%s"
              % (target, mp.nstr(est, 8), mp.nstr(err, 2),
                 mp.nstr(ref, 8), flag))
    print()
