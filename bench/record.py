"""Record the reference outputs the benchmark's checks compare against.

    python3 bench/record.py asymptotic   # singularity_report digits per (model, n)
    python3 bench/record.py oracle       # L, M and expansion tallies per (fn, model)

Each section of bench/expected.json is rewritten in place; run a section
again only when a deliberate change to the program alters its output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import boolform as bf  # noqa: E402
import workloads  # noqa: E402

EXPECTED = HERE / "expected.json"


def record_asymptotic() -> dict:
    table: dict = {}
    for model in bf.ModelId:
        for n in workloads.ASYMPTOTIC_N_GRID:
            rep = bf.singularity_report(model, n, workloads.PRECISION,
                                        workloads.ORDER)
            table.setdefault(model.value, {})[str(n)] = workloads.report_digits(rep)
            print(model.value, n, flush=True)
    return table


def record_oracle() -> dict:
    table: dict = {}
    for text in workloads.ORACLE_FUNCTIONS:
        f = bf.BoolFunc.from_string(text)
        for model in bf.ModelId:
            ts = bf.complexity(f, model)
            tally = bf.enumerate_expansions(ts)
            table.setdefault(text, {})[model.value] = {
                "L": ts.L, "M": ts.M,
                "lambda_T": tally.lambda_T, "lambda_X": tally.lambda_X}
        print(text, table[text], flush=True)
    return table


def main() -> None:
    section = sys.argv[1]
    recorders = {"asymptotic": record_asymptotic, "oracle": record_oracle}
    table = recorders[section]()
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data[section] = table
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
