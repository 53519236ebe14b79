"""Command-line surface; emits deterministic text, JSON, or CSV reports.

_COMMANDS declares every subcommand with its handler and its flags, and
_FLAGS each flag's argparse arguments; run() turns --model into a ModelId
once, and _emit adds the "command" and "schema" keys to every JSON report.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import mpmath as mp

from .boolfun import BoolFunc
from .errors import InputError, NumericError, ResourceCapError
from .trees import ModelId
from . import exhaustive, patterns, series, singular
from .complexity import probability_vs_bounds as _probability_vs_bounds

SCHEMA = "boolform/v1"

EXIT_USAGE = 64
EXIT_NUMERIC = 70
EXIT_RESOURCE = 75


def _model(name: str) -> ModelId:
    try:
        return ModelId(name)
    except ValueError:
        raise InputError("unknown model %r" % name)


def _emit(args, payload: dict, text: str) -> None:
    if args.out == "json":
        payload["command"] = args.subcommand
        payload["schema"] = SCHEMA
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_count(args) -> None:
    value = exhaustive.count_trees(args.model, args.size, args.vars)
    _emit(args, {"model": args.model.value, "m": args.size, "n": args.vars,
                 "count": str(value)}, str(value))


def _cmd_distribution(args) -> None:
    dist = exhaustive.distribution(args.model, args.size, args.vars)
    if args.out == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["function", "count"])
        writer.writerows(dist.to_csv_rows())
        sys.stdout.write(buf.getvalue())
        return
    lines = ["%s %s" % row for row in dist.to_csv_rows()]
    _emit(args, dist.to_json_dict(), "\n".join(lines))


def _cmd_series(args) -> None:
    if args.kind == "base":
        s = series.solve_model_series(args.model, args.vars, args.order)
    elif args.kind == "half":
        s = series.solve_half_series(args.model, args.vars, args.order)
    else:
        s = series.solve_aux_series(args.model, args.kind, args.vars,
                                    args.order)
    coeffs = s.to_json()
    _emit(args, {"model": args.model.value, "n": args.vars, "kind": args.kind,
                 "order": args.order, "coefficients": coeffs},
          "\n".join(coeffs))


def _cmd_singularity(args) -> None:
    rep = singular.singularity_report(args.model, args.vars, args.precision,
                                      args.order)
    text = "\n".join("%s: %s" % (k, v) for k, v in
                     (("rho", rep["rho"]), ("value_at_rho", rep["value_at_rho"]),
                      ("method", rep["method"]),
                      ("true_const", rep["ratios"]["true_const"]),
                      ("literal_const", rep["ratios"]["literal_const"])))
    _emit(args, rep, text)


def _cmd_ratio(args) -> None:
    rep = singular.singularity_report(args.model, args.vars, args.precision,
                                      args.order)
    w1, w2 = singular.w_rates(args.model, args.vars, args.precision, args.order)
    payload = {"model": args.model.value, "n": args.vars,
               "w1": mp.nstr(w1, 20), "w2": mp.nstr(w2, 20), **rep["ratios"]}
    text = "\n".join("%s: %s" % (k, payload[k])
                     for k in ("w1", "w2", "true_const", "literal_const"))
    _emit(args, payload, text)


def _cmd_constants_table(args) -> None:
    grid = tuple(int(x) for x in args.n_grid.split(","))
    rows = []
    for model in ModelId:
        for target in ("True", "literal"):
            est, err = singular.constant_estimate(model, target, grid,
                                                  args.precision, args.order)
            ref = singular.REFERENCE_CONSTANTS[(model, target)]()
            rows.append({
                "model": model.value, "target": target,
                "computed": mp.nstr(est, 12), "errorbar": mp.nstr(err, 3),
                "published": mp.nstr(ref, 12),
                "agrees": bool(abs(est - ref) < 0.01),
            })
    header = "%-10s %-8s %-16s %-10s %-16s %s" % (
        "model", "target", "computed", "errorbar", "published", "agrees")
    lines = [header] + [
        "%-10s %-8s %-16s %-10s %-16s %s" % (
            r["model"], r["target"], r["computed"], r["errorbar"],
            r["published"], r["agrees"]) for r in rows]
    _emit(args, {"n_grid": list(grid), "rows": rows}, "\n".join(lines))


def _cmd_verify_lemmas(args) -> None:
    rep = patterns.verify_pattern_lemmas(args.model, args.max_size, args.vars)
    status = "PASS" if rep.ok else "FAIL"
    text = "%s trees=%d counterexamples=%d %s" % (
        args.model.value, rep.trees_checked, len(rep.counterexamples), status)
    _emit(args, {"model": args.model.value, "max_size": args.max_size,
                 "n": args.vars, "trees_checked": rep.trees_checked,
                 "counterexamples": len(rep.counterexamples),
                 "status": status}, text)
    if not rep.ok:
        sys.exit(1)


def _cmd_complexity(args) -> None:
    f = BoolFunc.from_string(args.fn)
    if f.is_constant():
        _emit(args, {"model": args.model.value, "fn": args.fn, "L": 0, "M": 0},
              "L: 0 (constant function)")
        return
    # one search and one tally: the report carries L, M and both lambdas
    report = _probability_vs_bounds(f, args.model, n_grid=(args.estimate_n,))
    payload = {
        "model": args.model.value, "fn": args.fn,
        **{k: report[k] for k in ("L", "M", "lambda_T", "lambda_X")},
        "bounds": report["bounds"], "estimate": report["grid"][-1]["estimate"],
        "estimate_n": args.estimate_n,
    }
    text = "\n".join([
        "L: %d" % report["L"], "M: %d" % report["M"],
        "lambda_T: %d" % report["lambda_T"],
        "lambda_X: %d" % report["lambda_X"],
        "bounds: [%.10g, %.10g]%s" % (
            report["bounds"]["lower"], report["bounds"]["upper"],
            " (stated for L>1 only)" if report["bounds"]["restricted"] else ""),
        "estimate(n=%d): %.10g" % (args.estimate_n,
                                   report["grid"][-1]["estimate"]),
    ])
    _emit(args, payload, text)


def _cmd_report(args) -> None:
    rep = singular.singularity_report(args.model, args.vars, args.precision,
                                      args.order)
    sanity = series.series_sanity(args.model, args.vars, min(args.order, 24))
    rep["series_sanity"] = {k: v == 0 for k, v in sanity.checks.items()}
    _emit(args, rep, json.dumps(rep, sort_keys=True, indent=2))


# argparse keyword arguments of each flag
_FLAGS = {
    "model": dict(required=True),
    "size": dict(type=int, required=True),
    "kind": dict(default="base", choices=("base", "half") + series.AUX_KINDS),
    "n-grid": dict(default=",".join(str(n) for n in singular.DEFAULT_N_GRID)),
    "max-size": dict(type=int, required=True),
    "fn": dict(required=True, help="truth table, e.g. n:3:ea"),
    "estimate-n": dict(type=int, default=200),
    "out": dict(choices=("json", "csv", "text"), default="text"),
    "vars": dict(type=int, required=True),
    "order": dict(type=int, default=series.DEFAULT_ORDER),
    "precision": dict(type=int, default=singular.DEFAULT_PRECISION),
}

# every subcommand: its handler and its flags, in --help order
_COMMANDS = {
    "count": (_cmd_count, "model size out vars"),
    "distribution": (_cmd_distribution, "model size out vars"),
    "series": (_cmd_series, "model kind out vars order"),
    "singularity": (_cmd_singularity, "model out vars order precision"),
    "ratio": (_cmd_ratio, "model out vars order precision"),
    "constants-table": (_cmd_constants_table, "n-grid out order precision"),
    "verify-lemmas": (_cmd_verify_lemmas, "model max-size out vars"),
    "complexity": (_cmd_complexity, "model fn estimate-n out"),
    "report": (_cmd_report, "model out vars order precision"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boolform")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags.split():
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "model"):
            args.model = _model(args.model)
        args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ResourceCapError as exc:
        print(json.dumps({"error": "resource", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_RESOURCE
    except NumericError as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # InputError, DomainError, StructureError
        print(json.dumps({"error": "usage", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_USAGE
    return 0


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
