import importlib
import json

import numpy as np
import pytest

from boolform import exhaustive
from boolform.cli import run

# the package re-exports the function complexity() under the module's name
complexity_module = importlib.import_module("boolform.complexity")


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_text(capsys):
    code, out, _ = _capture(capsys, ["count", "--model", "catalan",
                                     "--vars", "1", "--size", "2"])
    assert code == 0
    assert out.strip() == "8"


def test_count_json_schema(capsys):
    code, out, _ = _capture(capsys, ["count", "--model", "catalan",
                                     "--vars", "1", "--size", "2",
                                     "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "boolform/v1"
    assert payload["count"] == "8"


def test_distribution_csv(capsys):
    code, out, _ = _capture(capsys, ["distribution", "--model", "comm",
                                     "--vars", "1", "--size", "2",
                                     "--out", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "function,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 6


def test_series_json(capsys):
    code, out, _ = _capture(capsys, ["series", "--model", "catalan",
                                     "--vars", "1", "--order", "4",
                                     "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["0/1", "2/1", "8/1", "64/1", "640/1"]


def test_verify_lemmas_pass(capsys):
    code, out, _ = _capture(capsys, ["verify-lemmas", "--model", "assoc",
                                     "--max-size", "4", "--vars", "2"])
    assert code == 0
    assert "PASS" in out


def test_complexity_output(capsys, monkeypatch):
    # one search and one expansion tally per command
    calls = {"complexity": 0, "enumerate_expansions": 0}
    for name in calls:
        original = getattr(complexity_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(complexity_module, name, counted)
    code, out, _ = _capture(capsys, ["complexity", "--model", "catalan",
                                     "--fn", "n:2:8", "--out", "json",
                                     "--estimate-n", "50"])
    assert code == 0
    payload = json.loads(out)
    assert payload["L"] == 2 and payload["M"] == 2
    assert payload["lambda_T"] == 24
    assert calls == {"complexity": 1, "enumerate_expansions": 1}


def test_usage_error_exit_code(capsys):
    code, _, err = _capture(capsys, ["count", "--model", "bogus",
                                     "--vars", "1", "--size", "2"])
    assert code == 64
    assert json.loads(err)["error"] == "usage"


def test_missing_flag_is_usage_error(capsys):
    code, _, _ = _capture(capsys, ["count", "--model", "catalan"])
    assert code == 64


@pytest.mark.parametrize("argv", [
    ["series", "--model", "catalan", "--vars", "-1", "--order", "4"],
    ["series", "--model", "assoccomm", "--vars", "1", "--order", "0",
     "--kind", "half"],
    ["series", "--model", "assoccomm", "--vars", "1", "--order", "0"],
    ["series", "--model", "comm", "--vars", "0", "--order", "4",
     "--kind", "g_x"],
    ["singularity", "--model", "catalan", "--vars", "0"],
    ["ratio", "--model", "comm", "--vars", "0", "--order", "8"],
    ["distribution", "--model", "catalan", "--vars", "2", "--size", "-1"],
    ["distribution", "--model", "comm", "--vars", "0", "--size", "3"],
    ["verify-lemmas", "--model", "assoc", "--vars", "1", "--max-size", "0"],
    ["verify-lemmas", "--model", "catalan", "--vars", "0", "--max-size", "3"],
    ["singularity", "--model", "catalan", "--vars", "3", "--precision", "0"],
    ["singularity", "--model", "comm", "--vars", "3", "--precision", "-3"],
    ["ratio", "--model", "assoc", "--vars", "3", "--precision", "1"],
    ["singularity", "--model", "assoc", "--vars", "1", "--order", "-5"],
    ["ratio", "--model", "catalan", "--vars", "1", "--order", "0"],
    ["constants-table", "--n-grid", "5,5,5"],
    ["complexity", "--model", "catalan", "--fn", "n:3:ea", "--estimate-n", "0"],
    # x1 & x2 has no tree on x1 alone
    ["complexity", "--model", "catalan", "--fn", "n:2:8", "--estimate-n", "1"],
])
def test_out_of_range_vars_or_order_is_usage_error(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "usage"


def test_resource_cap_exit_code(capsys):
    code, _, err = _capture(capsys, ["distribution", "--model", "catalan",
                                     "--vars", "8", "--size", "3"])
    assert code == 75
    assert json.loads(err)["error"] == "resource"


def test_numeric_exit_code_when_the_dp_total_is_wrong(capsys, monkeypatch):
    # an int8 DP wraps on catalan (4, 2): its counts sum to -512, not 10240
    monkeypatch.setattr(exhaustive, "_int_type", lambda bound: np.int8)
    code, out, err = _capture(capsys, ["distribution", "--model", "catalan",
                                       "--vars", "2", "--size", "4"])
    assert code == 70
    assert out == ""
    assert json.loads(err)["error"] == "numeric"


def test_deterministic_output(capsys):
    argv = ["ratio", "--model", "catalan", "--vars", "10", "--out", "json",
            "--order", "32", "--precision", "128"]
    _, first, _ = _capture(capsys, argv)
    _, second, _ = _capture(capsys, argv)
    assert first == second


@pytest.mark.parametrize("argv", [
    ["verify-lemmas", "--model", "catalan", "--max-size", "8", "--vars", "2"],
])
def test_resource_cap_fires_before_work(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 75
    assert out == ""
    assert json.loads(err)["error"] == "resource"
