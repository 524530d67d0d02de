import json
import pathlib

import pytest
from click.testing import CliRunner

from stamc.cli import main

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

SMALL = """
int heads = 0;
clock x;
template Coin() {
  init loc wait { inv x <= 1; }
  committed loc flip;
  loc rest;
  wait -> flip { guard x >= 1; }
  flip -> rest { weight 3; update heads := 1; }
  flip -> rest { weight 7; }
}
system Coin;
"""

BAD_WEIGHT = """
template T() { init loc a; a -> a { weight 0; } }
system T;
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small(tmp_path):
    p = tmp_path / "small.sta"
    p.write_text(SMALL)
    return str(p)


def test_validate_ok(runner):
    res = runner.invoke(main, ["validate", str(MODELS / "av.sta")])
    assert res.exit_code == 0
    assert "ok (11 templates, 11 components)" in res.output


def test_validate_reports_issue_code(runner, tmp_path):
    p = tmp_path / "bad.sta"
    p.write_text(BAD_WEIGHT)
    res = runner.invoke(main, ["validate", str(p)])
    assert res.exit_code == 1
    assert "nonpositive weight" in res.output


def test_validate_missing_file(runner):
    res = runner.invoke(main, ["validate", "no/such/file.sta"])
    assert res.exit_code == 2


def test_validate_parse_error(runner, tmp_path):
    p = tmp_path / "junk.sta"
    p.write_text("template {")
    res = runner.invoke(main, ["validate", str(p)])
    assert res.exit_code == 1


def test_check_writes_results_json(runner, small, tmp_path):
    q = tmp_path / "suite.q"
    q.write_text('Q1: Pr[<=5](<> heads == 1) >= 0.1 expect valid;\n'
                 'Q2: Pr[<=5](<> heads == 1);\n')
    out = tmp_path / "out"
    res = runner.invoke(main, ["check", small, str(q), "--seed", "7",
                               "--epsilon", "0.2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "results.json").read_text())
    assert payload["manifest"]["seed"] == 7
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["Q1"]["verdict"] == "valid"
    assert by_name["Q1"]["match"] is True
    assert by_name["Q2"]["verdict"] == "estimate-only"
    assert by_name["Q2"]["match"] is None
    assert 0.0 <= by_name["Q2"]["ci"][0] <= by_name["Q2"]["ci"][1] <= 1.0
    assert "Q1" in res.output and "valid" in res.output


def test_check_expected_mismatch_exits_4(runner, small, tmp_path):
    q = tmp_path / "suite.q"
    q.write_text('Q1: Pr[<=5](<> heads == 1) >= 0.9 expect valid;\n')
    res = runner.invoke(main, ["check", small, str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 4
    assert "mismatch" in res.output


def test_check_query_parse_error_exits_3(runner, small, tmp_path):
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=5](<> heads ==\n")
    res = runner.invoke(main, ["check", small, str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3


def test_check_invalid_model_exits_1(runner, tmp_path):
    m = tmp_path / "bad.sta"
    m.write_text(BAD_WEIGHT)
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=5](<> 1 == 1)\n")
    res = runner.invoke(main, ["check", str(m), str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1


UNDECLARED = """
clock x;
template A() { init loc a { inv y <= 1; } }
system A;
"""


def test_check_names_where_a_validation_error_is(runner, tmp_path):
    m = tmp_path / "undeclared.sta"
    m.write_text(UNDECLARED)
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=5](<> 1 == 1)\n")
    res = runner.invoke(main, ["check", str(m), str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert "error: unknown name: A.a: " in res.output
    assert runner.invoke(main, ["validate", str(m)]).output \
        in res.output


# a rate that steps in time, so only RK4 integrates it
STEPPED = """
clock u;
clock z;
template T() {
  init loc a { rate z = u * u; inv u <= 2; }
  loc b;
  a -> b { guard u >= 2; }
}
system T;
"""


@pytest.mark.parametrize("option,message", [
    (("--h-max", "0"), "need h_max > 0"),
    (("--h-max", "-1"), "need h_max > 0"),
    (("--h-max", "nan"), "need h_max > 0"),
    (("--workers", "0"), "need workers >= 1"),
], ids=["h-max-0", "h-max-negative", "h-max-nan", "workers-0"])
def test_check_rejects_bad_run_options(runner, tmp_path, option, message):
    m = tmp_path / "stepped.sta"
    m.write_text(STEPPED)
    q = tmp_path / "suite.q"
    q.write_text("E[<=5; 2](max: z);\n")
    res = runner.invoke(main, ["check", str(m), str(q), *option,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == f"error: {message}\n"


def test_check_bound_override(runner, small, tmp_path):
    q = tmp_path / "suite.q"
    # heads flips by t = 1; an overridden tiny bound leaves no time for it
    q.write_text("Q1: Pr[<=5](<> heads == 1) >= 0.1;\n")
    out = tmp_path / "o"
    res = runner.invoke(main, ["check", small, str(q), "--bound-override",
                               "0.5", "--out", str(out)])
    assert res.exit_code == 0
    [row] = json.loads((out / "results.json").read_text())["results"]
    assert row["verdict"] == "invalid"


def test_check_expected_histogram_csv(runner, small, tmp_path):
    q = tmp_path / "suite.q"
    q.write_text("H: E[<=5; 20](max: heads);\n")
    out = tmp_path / "o"
    res = runner.invoke(main, ["check", small, str(q), "--out", str(out)])
    assert res.exit_code == 0
    lines = (out / "H_hist.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest: {")
    assert lines[1] == "bin_lo,bin_hi,count"


def test_simulate_inline_query(runner, small, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "simulate", small, "--query", "simulate 2 [<=3] {heads, x}",
        "--sample-step", "1", "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "q0.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest: {")
    assert lines[1] == "run,t,heads,x"
    assert len(lines) > 6  # 2 runs, grid plus event rows


def test_simulate_requires_exactly_one_source(runner, small, tmp_path):
    res = runner.invoke(main, ["simulate", small])
    assert res.exit_code != 0
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=5](<> heads == 1)\n")
    res = runner.invoke(main, ["simulate", small, str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code != 0
    assert "no simulate query" in res.output


# one query of every form that runs a test or an estimate
MIXED = """\
H: Pr[<=50](<> n >= 5) >= 0.3;
C: Pr[<=50](<> n >= 5) >= Pr[<=50](<> n >= 4);
E: E[<=50; 30](max: p);
S: simulate 3 [<=20] {n, p};
K: constraint execution(m=3, k=4, bound=50, lower=1, upper=5) on start=start, stop=stop;
"""


def check_mixed(runner, tmp_path, workers, task_text):
    model, queries = tmp_path / "task.sta", tmp_path / "mixed.q"
    model.write_text(task_text)
    queries.write_text(MIXED)
    out = tmp_path / f"w{workers}"
    res = runner.invoke(main, ["check", str(model), str(queries), "--seed",
                               "3", "--epsilon", "0.1", "--indifference",
                               "0.05", "--workers", str(workers), "--out",
                               str(out)])
    assert res.exit_code == 0, res.output
    rows = json.loads((out / "results.json").read_text())["results"]
    for row in rows:
        row.pop("wall_ms")
    trajectories = (out / "S.csv").read_text().split("\n", 1)[1]
    return rows, trajectories


def test_check_opens_one_pool(runner, tmp_path, pools, task_text):
    check_mixed(runner, tmp_path, 2, task_text)
    [pool] = pools
    assert pool.shut_down


def test_check_rows_do_not_depend_on_workers(runner, tmp_path, task_text):
    rows, trajectories = check_mixed(runner, tmp_path, 1, task_text)
    assert [r["runs"] for r in rows] == [33, 28, 30, 3, 13]
    for workers in (2, 3):
        assert check_mixed(runner, tmp_path, workers, task_text) == \
            (rows, trajectories)


def test_check_engine_error_in_a_worker_exits_3(runner, tmp_path, pools):
    m = tmp_path / "bad_update.sta"
    m.write_text(SMALL.replace("update heads := 1;", "update heads := 2.5;"))
    q = tmp_path / "suite.q"
    q.write_text("Q1: Pr[<=5](<> heads == 1) >= 0.1;\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--workers", "2",
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert "non-integer value 2.5" in res.output
    [pool] = pools
    assert pool.shut_down
