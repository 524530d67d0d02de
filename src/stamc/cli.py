"""Command-line front end.

Exit codes: 0 success, 1 validation failure, 2 I/O error, 3 parse or
engine or query failure, 4 expected-verdict mismatch.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import click

from . import monitors, parser, smc
from .engine import EngineError, RunConfig
from .model import validate_model
from .parser import ParseError
from .queries import Expected, ObserverDecl, Simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_QUERY = 3
EXIT_MISMATCH = 4


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a check run; embedded verbatim in every
    output file."""

    model: str
    queries: Optional[str]
    seed: int
    alpha: float
    epsilon: float
    indifference: float
    max_runs: int
    workers: int
    bound_override: Optional[float] = None
    sample_step: Optional[float] = None
    h_max: float = 0.05
    out: str = "."

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class _IoFailure(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise _IoFailure(f"cannot read {path}: {exc}")


def _fail(code: int, message: str) -> int:
    click.echo(f"error: {message}", err=True)
    return code


def _issue(level: str, issue) -> str:
    return f"{level}: {issue.code}: {issue.where}: {issue.message}"


def _stat_config(manifest: RunManifest) -> smc.StatConfig:
    return smc.StatConfig(alpha=manifest.alpha, epsilon=manifest.epsilon,
                          delta_indiff=manifest.indifference,
                          max_runs=manifest.max_runs, seed=manifest.seed,
                          workers=manifest.workers)


def _stat_options(fn):
    for opt in reversed([
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--alpha", type=float, default=0.05, show_default=True,
                     help="Significance level for intervals and tests."),
        click.option("--epsilon", type=float, default=0.05, show_default=True,
                     help="Half-width of estimation intervals."),
        click.option("--indifference", type=float, default=0.01,
                     show_default=True,
                     help="Half-width of the test indifference region."),
        click.option("--max-runs", type=int, default=10**6, show_default=True),
        click.option("--bound-override", type=float, default=None,
                     help="Replace every query's time bound."),
        click.option("--sample-step", type=float, default=None,
                     help="Regular sampling grid for trajectory output."),
        click.option("--workers", type=int, default=1, show_default=True),
        click.option("--h-max", type=float, default=0.05, show_default=True,
                     help="RK4 step ceiling, for clock rates that one "
                     "midpoint step cannot integrate exactly."),
        click.option("--out", type=click.Path(), default=".",
                     show_default=True, help="Output directory."),
    ]):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Statistical model checking for stochastic timed automata."""


@main.command()
@click.argument("model_path", type=click.Path())
def validate(model_path):
    """Parse and validate a model file."""
    try:
        text = _read(model_path)
    except _IoFailure as exc:
        sys.exit(_fail(EXIT_IO, str(exc)))
    try:
        model = parser.parse_model(text, model_path)
    except ParseError as exc:
        sys.exit(_fail(EXIT_VALIDATION, str(exc)))
    report = validate_model(model)
    for issue in report.errors:
        click.echo(_issue("error", issue))
    for issue in report.warnings:
        click.echo(_issue("warning", issue))
    if report.ok:
        click.echo(f"{model_path}: ok ({len(model.templates)} templates, "
                   f"{len(model.system)} components)")
        sys.exit(EXIT_OK)
    sys.exit(EXIT_VALIDATION)


def _apply_bound(query, bound):
    if bound is None:
        return query
    for field_name in ("bound", "bound1", "bound2"):
        if hasattr(query, field_name):
            query = dataclasses.replace(query, **{field_name: bound})
    return query


def _result_row(name, result, expected):
    if isinstance(result, smc.ConstraintResult):
        row = _result_row(name, result.observer, expected)
        row["details"]["oracle_fraction"] = result.oracle_fraction
        row["details"]["oracle_verdict"] = result.oracle_verdict
        return row
    match = None if expected is None else (result.verdict == expected)
    details = {k: v for k, v in (result.details or {}).items()
               if k not in ("trajectories", "values")}
    return {"name": name, "verdict": result.verdict, "p_hat": result.p_hat,
            "ci": list(result.ci) if result.ci else None, "runs": result.runs,
            "wall_ms": result.wall_ms, "expected": expected, "match": match,
            "details": details}


def _print_table(rows):
    header = ("Req", "Result", "p_hat", "CI", "runs", "wall-time")
    table = [header]
    for r in rows:
        ci = "-" if not r["ci"] else f"[{r['ci'][0]:.4f}, {r['ci'][1]:.4f}]"
        p = "-" if r["p_hat"] is None else f"{r['p_hat']:.4f}"
        table.append((str(r["name"]), r["verdict"], p, ci, str(r["runs"]),
                      f"{r['wall_ms'] / 1e3:.2f}s"))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        click.echo("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _write_with_manifest(path, manifest, body):
    with open(path, "w") as fh:
        fh.write("# manifest: "
                 + json.dumps(manifest.as_dict(), sort_keys=True) + "\n")
        fh.write(body)


def _run_suite(model, named, manifest: RunManifest, simulate_only=False):
    cfg = _stat_config(manifest)
    run_config = RunConfig(h_max=manifest.h_max)
    os.makedirs(manifest.out, exist_ok=True)
    # observers first: later queries may reference their locations/clocks
    for nq in named:
        if isinstance(nq.query, ObserverDecl):
            model = monitors.attach_observer(model, nq.query.constraint,
                                             nq.query.name)
    queries = []
    for nq in named:
        if isinstance(nq.query, ObserverDecl):
            continue
        query = _apply_bound(nq.query, manifest.bound_override)
        if simulate_only and not isinstance(query, Simulate):
            continue
        if isinstance(query, Simulate) and manifest.sample_step is not None:
            query = dataclasses.replace(query,
                                        sample_step=manifest.sample_step)
        queries.append((nq, query))
    rows = []
    mismatch = False
    # one pool for every query: workers live, and compile each model once,
    # for the whole call
    with smc.RunPool(manifest.workers) as pool:
        for nq, query in queries:
            row = _run_query(model, nq, query, cfg, run_config, manifest,
                             len(rows), pool)
            rows.append(row)
            mismatch = mismatch or row["match"] is False
    return rows, mismatch


def _run_query(model, nq, query, cfg, run_config, manifest, index, pool):
    """Evaluate one query, write its CSV outputs and return its row."""
    result = smc.evaluate_query(model, query, cfg, run_config, name=nq.name,
                                pool=pool)
    base = nq.name or f"q{index}"
    if isinstance(query, Simulate):
        csv = smc.trajectories_to_csv(result.details["trajectories"],
                                      query.exprs)
        _write_with_manifest(os.path.join(manifest.out, f"{base}.csv"),
                             manifest, csv)
    if isinstance(query, Expected) and result.histogram:
        _write_with_manifest(
            os.path.join(manifest.out, f"{base}_hist.csv"), manifest,
            smc.histogram_to_csv(result.histogram))
    return _result_row(base, result, nq.expected)


def _front_end(model_path, query_path, query_text, simulate_only,
               **options):
    """Read, parse and validate the model and the queries, then run them:
    (manifest, rows, mismatch). Exits with the matching code on failure."""
    manifest = RunManifest(model=model_path, queries=query_path, **options)
    try:
        model_text = _read(model_path)
        if query_text is None:
            query_text = _read(query_path)
    except _IoFailure as exc:
        sys.exit(_fail(EXIT_IO, str(exc)))
    try:
        model = parser.parse_model(model_text, model_path)
        report = validate_model(model)
        if not report.ok:
            for issue in report.errors:
                click.echo(_issue("error", issue), err=True)
            sys.exit(EXIT_VALIDATION)
        named = parser.parse_queries(query_text, query_path or "<query>")
        rows, mismatch = _run_suite(model, named, manifest, simulate_only)
    except (ParseError, EngineError, smc.QueryError,
            monitors.MonitorError) as exc:
        sys.exit(_fail(EXIT_QUERY, str(exc)))
    return manifest, rows, mismatch


@main.command()
@click.argument("model_path", type=click.Path())
@click.argument("query_path", type=click.Path())
@_stat_options
def check(model_path, query_path, **options):
    """Run every query in a query file and write results.json."""
    manifest, rows, mismatch = _front_end(model_path, query_path, None,
                                          False, **options)
    payload = {"manifest": manifest.as_dict(), "results": rows}
    with open(os.path.join(manifest.out, "results.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_table(rows)
    for r in rows:
        if r["match"] is False:
            click.echo(f"mismatch: {r['name']} expected {r['expected']}, "
                       f"got {r['verdict']}", err=True)
    sys.exit(EXIT_MISMATCH if mismatch else EXIT_OK)


@main.command()
@click.argument("model_path", type=click.Path())
@click.argument("query_path", type=click.Path(), required=False)
@click.option("--query", "query_text", default=None,
              help="Inline query text instead of a query file.")
@_stat_options
def simulate(model_path, query_path, query_text, **options):
    """Run the Simulate queries of a query file (or an inline query) and
    write trajectory CSVs."""
    if (query_path is None) == (query_text is None):
        raise click.UsageError("give exactly one of QUERY_PATH or --query")
    _, rows, _ = _front_end(model_path, query_path, query_text, True,
                            **options)
    if not rows:
        raise click.UsageError("no simulate query found")
    _print_table(rows)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
