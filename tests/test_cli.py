import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

from stamc import smc
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


def test_check_and_simulate_exit_1_on_a_model_that_does_not_parse(
        runner, tmp_path):
    """The three commands load a model alike: one that does not parse exits
    1 with the one error line that ``validate`` prints."""
    p = tmp_path / "junk.sta"
    p.write_text("template {")
    q = tmp_path / "e.q"
    q.write_text("E[<=5; 3](max: x);\n")

    def errors(res):
        return [line for line in res.output.splitlines()
                if line.startswith("error:")]

    [error] = errors(runner.invoke(main, ["validate", str(p)]))
    out = tmp_path / "out"
    for args in (["check", str(p), str(q)],
                 ["simulate", str(p), "--query", "simulate 1 [<=5] {x}"]):
        res = runner.invoke(main, args + ["--out", str(out)])
        assert res.exit_code == 1, res.output
        assert errors(res) == [error]
    assert not out.exists()


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


def test_unresolvable_names_fail_validation_before_any_run(
        runner, tmp_path, unresolvable):
    code, text = unresolvable
    m = tmp_path / "unresolvable.sta"
    m.write_text(text)
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=10](<> A.b) >= 0.5;\n")
    res = runner.invoke(main, ["validate", str(m)])
    assert res.exit_code == 1
    [line] = res.output.splitlines()
    assert line.startswith(f"error: {code}: A.")
    res = runner.invoke(main, ["check", str(m), str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert res.output == line + "\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_check_query_naming_an_undeclared_value_exits_3(
        runner, small, tmp_path, workers):
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=10](<> foo > 2);\n")
    res = runner.invoke(main, ["check", small, str(q), "--workers",
                               str(workers), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == "error: name 'foo' undeclared\n"


_BAD_CALL = """
int n = 0;
clock x;
template T() {
  init loc a { inv x <= 2; }
  a -> a { %s }
}
system T;
"""


@pytest.mark.parametrize("edge, issue", [
    ("guard x >= 1 && min(n) >= 0;",
     "min takes 2 or more arguments, not 1, in 'min(n)'"),
    ("guard x >= 1; update n := abs(n, 1);",
     "abs takes 1 argument, not 2, in 'abs(n, 1)'"),
], ids=["min", "abs"])
def test_a_call_of_the_wrong_arity_fails_validation_and_check(
        runner, tmp_path, edge, issue):
    """Both exit 1 on the validation error, and check runs nothing."""
    m = tmp_path / "call.sta"
    m.write_text(_BAD_CALL % edge)
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=5](<> n == 1) >= 0.5;\n")
    line = f"error: bad call: T.edge[0] a->a: {issue}\n"
    res = runner.invoke(main, ["validate", str(m)])
    assert (res.exit_code, res.output) == (1, line)
    res = runner.invoke(main, ["check", str(m), str(q),
                               "--out", str(tmp_path / "o")])
    assert (res.exit_code, res.output) == (1, line)
    assert isinstance(res.exception, SystemExit)


def test_check_query_with_a_call_of_the_wrong_arity_exits_3(
        runner, small, tmp_path):
    q = tmp_path / "suite.q"
    q.write_text("E[<=10; 3](max: max(heads));\n")
    res = runner.invoke(main, ["check", small, str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == ("error: max takes 2 or more arguments, not 1, "
                          "in 'max(heads)'\n")


# a ticker on a broadcast channel, next to an unused binary channel
TICKER = """
clock p;
broadcast chan tick;
chan go;
template T() {
  init loc a { inv p <= 2; }
  a -> a { guard p >= 1; sync tick!; update p := 0; }
}
system T;
"""


@pytest.mark.parametrize("bad,message", [
    ("Pr[<=10](<> wvx > 2)", "name 'wvx' undeclared"),
    ("constraint periodic(m=1, k=1, bound=10, lower=1, upper=2)"
     " on occurrence=ghost", "cannot bind observer: unknown channel 'ghost'"),
    ("constraint periodic(m=1, k=1, bound=10, lower=1, upper=2)"
     " on occurrence=go", "observer on binary channel 'go' would perturb"
     " the network; declare it broadcast"),
], ids=["undeclared-name", "unknown-channel", "binary-channel"])
def test_check_fails_a_bad_later_query_before_any_run(
        runner, tmp_path, monkeypatch, bad, message):
    runs = []
    real_run = smc.run

    def counting_run(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(smc, "run", counting_run)
    model = tmp_path / "ticker.sta"
    model.write_text(TICKER)
    q = tmp_path / "suite.q"
    q.write_text(f"Pr[<=10](<> p >= 1);\n{bad};\n")
    res = runner.invoke(main, ["check", str(model), str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == f"error: {message}\n"
    assert runs == []


def test_check_rejects_an_observer_named_after_a_component(runner,
                                                           tmp_path):
    """A second component named Camera would leave a query on Camera
    reading one of the two: Pr[<=300](<> Camera.shoot) read 0.0."""
    q = tmp_path / "suite.q"
    q.write_text("observer Camera endtoend(m=19, k=20, lower=10, upper=30) "
                 "on source=cam_start, target=sign_ready;\n"
                 "Pr[<=300](<> Camera.shoot);\n")
    res = runner.invoke(main, ["check", str(MODELS / "av.sta"), str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == ("error: cannot attach observer 'Camera': the "
                          "instance name is taken\n")


def test_check_rejects_two_observers_of_one_name(runner, tmp_path):
    model = tmp_path / "ticker.sta"
    model.write_text(TICKER)
    q = tmp_path / "suite.q"
    declared = ("observer Obs periodic(m=1, k=1, lower=1, upper=2) "
                "on occurrence=tick;\n")
    q.write_text(declared * 2 + "Pr[<=10](<> Obs.fail);\n")
    res = runner.invoke(main, ["check", str(model), str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == ("error: cannot attach observer 'Obs': the "
                          "instance name is taken\n")


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
    (("--max-runs", "0"), "need max_runs >= 1"),
    (("--indifference", "nan"), "need delta_indiff > 0"),
    (("--indifference", "inf"), "need delta_indiff > 0"),
    (("--seed", "-1"), "need seed >= 0"),
], ids=["h-max-0", "h-max-negative", "h-max-nan", "workers-0", "max-runs-0",
        "indifference-nan", "indifference-inf", "seed-negative"])
def test_check_rejects_bad_run_options(runner, tmp_path, monkeypatch, option,
                                       message):
    runs = []
    monkeypatch.setattr(smc, "run", lambda *args, **kwargs: runs.append(args))
    m = tmp_path / "stepped.sta"
    m.write_text(STEPPED)
    q = tmp_path / "suite.q"
    q.write_text("E[<=5; 2](max: z);\n")
    res = runner.invoke(main, ["check", str(m), str(q), *option,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == f"error: {message}\n"
    assert runs == []


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


BIG = "9" * 400  # reads as inf


@pytest.mark.parametrize("query,column", [
    (f"Pr[<={BIG}](<> heads > 0);", 6),
    ("constraint periodic(m=1, k=1, bound=0, lower=1, upper=2)"
     " on occurrence=tick;", 37),
], ids=["inf-query-bound", "zero-constraint-bound"])
def test_check_names_where_a_bad_bound_is(runner, small, tmp_path, query,
                                          column):
    q = tmp_path / "suite.q"
    q.write_text(query + "\n")
    res = runner.invoke(main, ["check", small, str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output.startswith(f"error: {q}:1:{column}: bound must be ")


@pytest.mark.parametrize("bound", ["nan", "inf", "0", "-1"])
def test_check_rejects_a_bad_bound_override_before_any_run(
        runner, small, tmp_path, monkeypatch, bound):
    runs = []
    monkeypatch.setattr(smc, "run", lambda *a, **k: runs.append(a))
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=5](<> heads == 1) >= 0.1;\n")
    res = runner.invoke(main, ["check", small, str(q), "--bound-override",
                               bound, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == "error: bound must be finite and > 0\n"
    assert runs == []


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


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_simulate_rejects_a_bad_sample_step_before_any_run(
        runner, small, tmp_path, monkeypatch, step):
    runs = []
    monkeypatch.setattr(smc, "run", lambda *a, **k: runs.append(a))
    res = runner.invoke(main, [
        "simulate", small, "--query", "simulate 1 [<=3] {heads}",
        "--sample-step", step, "--out", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert res.output == "error: need sample_step > 0\n"
    assert runs == []


def test_simulate_requires_exactly_one_source(runner, small, tmp_path,
                                              compiles):
    res = runner.invoke(main, ["simulate", small])
    assert res.exit_code != 0
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=5](<> heads == 1)\n")
    res = runner.invoke(main, ["simulate", small, str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "no simulate query" in res.output
    # refused before anything is compiled or written
    assert compiles == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, taken", [
    ("check", None), ("check", "results.json"), ("check", "q0_hist.csv"),
    ("simulate", "q0.csv")],
    ids=["out-is-a-file", "results.json", "q0_hist.csv", "q0.csv"])
def test_an_output_that_cannot_be_written_exits_2(runner, small, tmp_path,
                                                  command, taken):
    """An ``--out`` that is a file, or a directory where an output file
    goes, ends the command with the I/O exit code and one error line."""
    out = tmp_path / "out"
    if taken is None:
        out.write_text("")
    else:
        (out / taken).mkdir(parents=True)
    q = tmp_path / "e.q"
    q.write_text("E[<=5; 20](max: heads);\n")
    source = ([str(q)] if command == "check" else
              ["--query", "simulate 1 [<=3] {heads}"])
    res = runner.invoke(main, [command, small, *source, "--out", str(out)])
    assert res.exit_code == 2
    [line] = res.output.splitlines()
    verb = "create" if taken is None else "write"
    assert line.startswith(f"error: cannot {verb} {out / (taken or '')}")


@pytest.mark.parametrize("text", [
    "q1: E[<=5; 3](max: heads);\nE[<=5; 3](max: heads + 1000);\n",
    "R1: Pr[<=5](<> heads == 1);\nR1: Pr[<=5](<> heads == 0);\n",
], ids=["automatic", "explicit"])
def test_check_rejects_a_repeated_result_name(runner, small, tmp_path,
                                              compiles, text):
    """Two rows of one name would be ambiguous, and the second query's CSV
    would overwrite the first's: the repeat is refused, at its location,
    before anything is compiled or written."""
    q = tmp_path / "suite.q"
    q.write_text(text)
    res = runner.invoke(main, ["check", small, str(q),
                               "--out", str(tmp_path / "o")])
    name = text.split(":")[0]
    assert res.exit_code == 3
    assert res.output == (f"error: {q}:2:1: result name {name!r} is taken "
                          "by the query at 1:1\n")
    assert compiles == []
    assert not (tmp_path / "o").exists()


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


# every form that reads plain runs, all on one bound
ONE_BOUND = """\
H: Pr[<=50](<> n >= 5) >= 0.3;
P: Pr[<=50](<> n >= 4);
C: Pr[<=50](<> n >= 5) >= Pr[<=50](<> n >= 4);
E: E[<=50; 30](max: p);
S: simulate 3 [<=50] {n, p};
"""


def counted_check(runner, tmp_path, monkeypatch, task_text, queries_text):
    """A check of ``queries_text`` on the task model at seed 3 and one
    worker: the rows by name, and (net, bound, seed, run index) of every
    run simulated, in order."""
    runs = []
    real_run = smc.run

    def counting_run(net, bound, rng, *args, **kwargs):
        runs.append((id(net), bound, rng.master_seed, rng.run_index))
        return real_run(net, bound, rng, *args, **kwargs)

    monkeypatch.setattr(smc, "run", counting_run)
    model, queries = tmp_path / "task.sta", tmp_path / "counted.q"
    model.write_text(task_text)
    queries.write_text(queries_text)
    out = tmp_path / "o"
    res = runner.invoke(main, ["check", str(model), str(queries), "--seed",
                               "3", "--epsilon", "0.1", "--indifference",
                               "0.05", "--workers", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len(runs) == len(set(runs))  # no run simulated twice
    rows = {r["name"]: r for r in
            json.loads((out / "results.json").read_text())["results"]}
    return rows, runs


def test_check_simulates_each_run_once(runner, tmp_path, monkeypatch,
                                       task_text):
    rows, runs = counted_check(runner, tmp_path, monkeypatch, task_text,
                               ONE_BOUND)
    # one stream, the seed's, which every query reads, compare's two
    # formulas included: C's pairs are its first runs
    [(_, bound, seed)] = {r[:3] for r in runs}
    assert (bound, seed) == (50, 3)
    assert [r[3] for r in runs] == list(range(185))
    assert max(r["runs"] for r in rows.values()) == 185
    assert rows["C"]["runs"] <= 185


def test_compare_pairs_runs_of_one_seed(runner, tmp_path, monkeypatch,
                                        task_text):
    """Bounds that differ: pair i is the runs to 50 and to 30 from
    ``RngStream(3, i)``."""
    rows, runs = counted_check(
        runner, tmp_path, monkeypatch, task_text,
        "C: Pr[<=50](<> n >= 5) >= Pr[<=30](<> n >= 4);\n")
    n = rows["C"]["runs"]
    assert 0 < n < 100  # the SPRT decides before the budget
    assert {r[2] for r in runs} == {3}
    for bound in (50, 30):
        assert [r[3] for r in runs if r[1] == bound] == list(range(n))
    assert len(runs) == 2 * n


def test_sequential_tests_are_evaluated_first(runner, small, tmp_path,
                                              monkeypatch):
    """An estimate written before an SPRT on one stream: the SPRT runs
    first, so its job judges only the runs it reads and then retires, and
    the rows equal those of the file with the two swapped."""
    judged = []
    add = smc._Monitor.add
    monkeypatch.setattr(smc._Monitor, "add", lambda self, place, judge, net:
                        judged.append(judge.expr) or add(self, place, judge,
                                                         net))
    estimate, test = ("P: Pr[<=5](<> heads == 1);",
                      "H: Pr[<=5](<> heads != 0) >= 0.1;")
    rows = {}
    for order in ((estimate, test), (test, estimate)):
        judged.clear()
        q = tmp_path / "order.q"
        q.write_text("\n".join(order) + "\n")
        out = tmp_path / "o"
        res = runner.invoke(main, ["check", small, str(q), "--seed", "5",
                                   "--epsilon", "0.1", "--workers", "1",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        found = json.loads((out / "results.json").read_text())["results"]
        assert [r["name"] for r in found] == [o[0] for o in order]
        for r in found:
            r.pop("wall_ms")
        rows[order] = sorted(found, key=lambda r: r["name"])
        by_name = {r["name"]: r for r in found}
        assert by_name["H"]["runs"] < by_name["P"]["runs"]
        assert judged.count("heads != 0") == by_name["H"]["runs"]
        assert judged.count("heads == 1") == by_name["P"]["runs"]
    assert rows[estimate, test] == rows[test, estimate]


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("update", [
    "heads := x / 0", "heads := heads % 0",
    "heads := x" + " * 1000000000" * 40], ids=["divide", "modulo", "overflow"])
def test_check_an_arithmetic_fault_in_a_run_exits_3(runner, tmp_path,
                                                     update, workers):
    m = tmp_path / "fault.sta"
    m.write_text(SMALL.replace("update heads := 1;", f"update {update};"))
    q = tmp_path / "suite.q"
    q.write_text("Q1: Pr[<=5](<> heads == 1) >= 0.1;\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--workers",
                               str(workers), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert [line for line in res.output.splitlines()
            if line.startswith("error:")] == [res.output.strip()]
    assert "Traceback" not in res.output


# an emitter and a broadcast receiver that synchronize on `go` at t = 1
SYNCED = """
int n = 0;
clock x;
broadcast chan go;
template E() {
  init loc a { inv x <= 1; }
  loc b;
  a -> b { guard x >= 1; sync go!; update n := %s; }
}
template R() { init loc w; w -> w { sync go?; update n := %s; } }
system E, R;
"""


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("emit,receive,message", [
    ("x / 0", "n + 1", "arithmetic error at t=1.0: ZeroDivisionError: float "
     "division by zero, in the update of edge a->b#0 of E"),
    ("n + 1", "n % 0", "arithmetic error at t=1.0: ZeroDivisionError: float "
     "modulo, in the update of edge w->w#0 of R"),
    ("n + 1", "x" + " * 1000000000" * 40, "non-finite value inf assigned to "
     "an int variable at t=1.0, in the update of edge w->w#0 of R"),
], ids=["emitter", "receiver", "receiver-store"])
def test_check_names_the_edge_whose_update_faults(runner, tmp_path, emit,
                                                  receive, message, workers):
    """A fault in an emitter's update, or in a broadcast receiver's, ends
    the check with exit 3 and one error line that names the component and
    the edge whose update raised."""
    m = tmp_path / "synced.sta"
    m.write_text(SYNCED % (emit, receive))
    q = tmp_path / "suite.q"
    q.write_text("Q1: Pr[<=5](<> n == 1) >= 0.1;\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--workers",
                               str(workers), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert res.output.strip() == f"error: {message}"


# n reaches 1 at the first firing and 2 at the second
COUNTING = """
int n = 0;
clock x;
template T() {
  init loc a { inv x <= 2; }
  a -> a { guard x >= 1; update x := 0, n := n + 1; }
}
system T;
"""


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("queries,text", [
    ("Pr[<=10](<> n >= 3) >= 0.5;\nE[<=10; 5](max: n / (n - 2));\n",
     "n / (n - 2)"),
    ("Pr[<=10]([] 1 / (n - 2) > -5);\n", "(1 / (n - 2)) > (-5)"),
    ("E[<=10; 5](max: n);\nsimulate 2 [<=5] {n, 1 / (n - 1)}\n",
     "1 / (n - 1)"),
    ("Pr[<=10](<> n >= 1) >= 0.5;\nE[<=10; 5](min: 1 / n);\n", "1 / n"),
    ("Pr[<=10](<> n >= 3) >= Pr[<=10]([] 1 / (n - 2) > -5);\n",
     "(1 / (n - 2)) > (-5)"),
    # the <> formula decides at n = 1, and its predicate is not evaluated
    # at n = 2, where it would fault
    ("Pr[<=10](<> 4 / (n - 2) < -3) >= 0.5;\nE[<=10; 5](max: n / (n - 2));\n",
     "n / (n - 2)"),
], ids=["extremum", "path-formula", "simulate", "first-sample", "compare",
        "decided-formula"])
def test_check_names_the_query_expression_that_faults(runner, tmp_path,
                                                      queries, text,
                                                      workers):
    """A query expression that divides by zero during a run ends the check
    with exit 3 and one error line that names it, among the expressions of
    every query that reads the run."""
    m = tmp_path / "counting.sta"
    m.write_text(COUNTING)
    q = tmp_path / "suite.q"
    q.write_text(queries)
    res = runner.invoke(main, ["check", str(m), str(q), "--workers",
                               str(workers), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert re.fullmatch(
        r"error: arithmetic error at t=[0-9.]+: ZeroDivisionError: float "
        rf"division by zero, in the query expression {re.escape(repr(text))}",
        res.output.strip()), res.output


def test_a_faulting_check_simulates_each_run_once(runner, tmp_path,
                                                  monkeypatch):
    """The kernel that evaluates a query expression names it from the state
    that raised: run 0, which faults, is the one run simulated."""
    runs = []
    real_run = smc.run

    def counting_run(net, bound, rng, *args, **kwargs):
        runs.append(rng.run_index)
        return real_run(net, bound, rng, *args, **kwargs)

    monkeypatch.setattr(smc, "run", counting_run)
    m = tmp_path / "counting.sta"
    m.write_text(COUNTING)
    q = tmp_path / "suite.q"
    q.write_text("Pr[<=10](<> n >= 3) >= 0.5;\n"
                 "E[<=10; 5](max: n / (n - 2));\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--workers", "1",
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert res.output.strip().endswith(
        "in the query expression 'n / (n - 2)'"), res.output
    assert runs == [0]


def test_a_constraint_that_binds_two_events_to_one_channel_exits_3(
        runner, tmp_path, task_text):
    """Its two routes would judge different properties: the observer takes
    the second arrival on the channel as a duplicate, while the oracle
    measures it. The parser rejects it at the constraint, before any run."""
    m = tmp_path / "task.sta"
    m.write_text(task_text)
    q = tmp_path / "c.q"
    q.write_text("E[<=50; 5](max: n);\nconstraint endtoend(m=4, k=4, "
                 "bound=50, lower=1, upper=30) on source=stop, target=stop;\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--out",
                               str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert re.fullmatch(r"error: \S*c\.q:2:\d+: two events are bound to "
                        r"one channel", res.output.strip()), res.output


@pytest.mark.parametrize("bindings, event, kind", [
    ("source=start, target=stop, extra=nowhere", "extra", "endtoend"),
    ("start=start, stop=stop, resume=nowhere", "resume", "execution")])
def test_a_constraint_that_binds_an_event_its_kind_does_not_read_exits_3(
        runner, tmp_path, task_text, bindings, event, kind):
    """The binding would be ignored, its channel unchecked, and the check
    would judge the constraint without it. The parser rejects it at the
    constraint, before any run."""
    m = tmp_path / "task.sta"
    m.write_text(task_text)
    q = tmp_path / "c.q"
    q.write_text(f"E[<=50; 5](max: n);\nconstraint {kind}(m=4, k=4, "
                 f"bound=50, lower=1, upper=30) on {bindings};\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--out",
                               str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert re.fullmatch(rf"error: \S*c\.q:2:\d+: event '{event}' is not "
                        rf"read by this {kind} constraint",
                        res.output.strip()), res.output


def test_a_fault_of_the_model_names_no_query_expression(runner, tmp_path):
    m = tmp_path / "guard.sta"
    m.write_text(COUNTING.replace("guard x >= 1", "guard x / n >= 1"))
    q = tmp_path / "suite.q"
    q.write_text("E[<=10; 5](max: n / (n - 2));\n")
    res = runner.invoke(main, ["check", str(m), str(q),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    # the model's guard at fault, not the query's expression
    assert res.output.strip() == ("error: arithmetic error at t=0.0: "
                                  "ZeroDivisionError: float division by "
                                  "zero, in the guard of edge a->a#0 of T")


# a guard whose clock atom divides by n, which its first conjunct keeps
# nonzero: as C's && evaluates nothing past a false operand, the guard is
# false while n is 0, and the other edge fires
SHORT_CIRCUIT = """
int n = 0;
clock x;
template T() {
  init loc a { inv x <= 5; }
  a -> a { guard n > 0 && x / n >= 1; update x := 0; }
  a -> a { guard x >= 2; update x := 0; }
}
system T;
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_a_guard_false_by_its_first_conjunct_searches_no_window(
        runner, tmp_path, workers):
    """The window search of a guard whose clock-free conjunct is false
    evaluates none of its clock atoms, so ``x / n`` at n = 0 faults
    nowhere and the check exits 0."""
    m = tmp_path / "short.sta"
    m.write_text(SHORT_CIRCUIT)
    q = tmp_path / "suite.q"
    q.write_text("E[<=10; 5](max: x);\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--workers",
                               str(workers), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    [row] = json.loads((tmp_path / "o" / "results.json").read_text())[
        "results"]
    assert row["runs"] == 5 and 2.0 <= row["p_hat"] <= 5.0, row


# the same division where the short circuit sits under ||: a guard that is
# true once x reaches 3, and an invariant that holds while n is 0
SHORT_CIRCUIT_UNDER_OR = {
    "guard": """
int n = 0;
clock x;
template T() {
  init loc a { inv x <= 5; }
  a -> a { guard (n > 0 && x / n >= 1) || x >= 3; update x := 0; }
}
system T;
""",
    "invariant": """
int n = 0;
clock x;
template T() {
  init loc a { inv n == 0 || x / n <= 5; }
  a -> a { guard x >= 1; update x := 0; }
}
system T;
"""}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", list(SHORT_CIRCUIT_UNDER_OR))
def test_a_division_that_a_short_circuit_skips_faults_nowhere(
        runner, tmp_path, kind, workers):
    """The window search drops a clock atom that divides by zero, and its
    probes evaluate the guard or invariant with Python's short circuit, so
    ``x / n`` at n = 0 faults nowhere and the check exits 0."""
    m = tmp_path / "short.sta"
    m.write_text(SHORT_CIRCUIT_UNDER_OR[kind])
    q = tmp_path / "suite.q"
    q.write_text("E[<=10; 5](max: x);\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--workers",
                               str(workers), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    [row] = json.loads((tmp_path / "o" / "results.json").read_text())[
        "results"]
    # the guard fires from x = 3 on; the invariant never closes
    low, high = (3.0, 5.0) if kind == "guard" else (1.0, 10.0)
    assert row["runs"] == 5 and low <= row["p_hat"] <= high, row


@pytest.mark.parametrize("workers", [1, 2])
def test_an_extremum_that_is_not_finite_ends_the_check(runner, tmp_path,
                                                       workers):
    """A clock whose literal rate drives it past the largest float has no
    finite maximum: the check exits 3 with one error line that names the
    query expression."""
    m = tmp_path / "inf.sta"
    m.write_text("clock e; template T() { init loc a { rate e = 1"
                 + "0" * 308 + "; } } system T;")
    q = tmp_path / "suite.q"
    q.write_text("E[<=10; 5](max: e);\n")
    res = runner.invoke(main, ["check", str(m), str(q), "--workers",
                               str(workers), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert res.output.strip() == ("error: the max of run 0 is inf, not "
                                  "finite, in the query expression 'e'")


# a check in a fresh process, which then prints the scipy modules it loaded
CHECK_THEN_LIST_SCIPY = """
import sys
from stamc.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_importing_the_cli_leaves_scipy_stats_unloaded(tmp_path, task_text):
    # the statistics need no scipy: a check of every query form, a
    # constraint included, loads no scipy module at all
    model, queries = tmp_path / "task.sta", tmp_path / "every.q"
    model.write_text(task_text)
    queries.write_text("P: Pr[<=50](<> n >= 4);\n" + MIXED)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", CHECK_THEN_LIST_SCIPY, "check", str(model),
         str(queries), "--epsilon", "0.1", "--indifference", "0.05",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "o" / "results.json").read_text())
    assert [r["name"] for r in rows["results"]] == list("PHCESK")
    assert res.stdout.splitlines()[-1] == "[]"
