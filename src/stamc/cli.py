"""Command-line front end.

Exit codes: 0 success, 1 a model that does not parse or validate, 2 I/O
error, 3 query parse, engine or query failure, 4 expected-verdict mismatch.
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
from .engine import EngineError, RunConfig, check_bound
from .expr import ExprError
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
    bound_override: Optional[float]
    sample_step: Optional[float]
    h_max: float
    out: str

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


def _issue(issue) -> str:
    return f"error: {issue.code}: {issue.where}: {issue.message}"


def _load_model(path: str, err: bool):
    """The model at ``path``, read, parsed and validated, with each issue
    printed (to stderr if ``err``). Exits 2 if it cannot be read, and 1 if
    it does not parse or validate."""
    try:
        model = parser.parse_model(_read(path), path)
    except _IoFailure as exc:
        sys.exit(_fail(EXIT_IO, str(exc)))
    except ParseError as exc:
        sys.exit(_fail(EXIT_VALIDATION, str(exc)))
    report = validate_model(model)
    if not report.ok:
        for issue in report.errors:
            click.echo(_issue(issue), err=err)
        sys.exit(EXIT_VALIDATION)
    return model


def _stat_config(manifest: RunManifest) -> smc.StatConfig:
    return smc.StatConfig(alpha=manifest.alpha, epsilon=manifest.epsilon,
                          delta_indiff=manifest.indifference,
                          max_runs=manifest.max_runs, seed=manifest.seed,
                          workers=manifest.workers)


def _stat_options(fn):
    stat, run = smc.StatConfig, RunConfig  # the defaults
    for opt in reversed([
        click.option("--seed", type=int, default=stat.seed,
                     show_default=True),
        click.option("--alpha", type=float, default=stat.alpha,
                     show_default=True,
                     help="Significance level for intervals and tests."),
        click.option("--epsilon", type=float, default=stat.epsilon,
                     show_default=True,
                     help="Half-width of estimation intervals."),
        click.option("--indifference", type=float, default=stat.delta_indiff,
                     show_default=True,
                     help="Half-width of the test indifference region."),
        click.option("--max-runs", type=int, default=stat.max_runs,
                     show_default=True),
        click.option("--bound-override", type=float, default=None,
                     help="Replace every query's time bound."),
        click.option("--sample-step", type=float, default=None,
                     help="Regular sampling grid for trajectory output."),
        click.option("--workers", type=int, default=stat.workers,
                     show_default=True),
        click.option("--h-max", type=float, default=run.h_max,
                     show_default=True,
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
    model = _load_model(model_path, err=False)
    click.echo(f"{model_path}: ok ({len(model.templates)} templates, "
               f"{len(model.system)} components)")
    sys.exit(EXIT_OK)


def _apply_bound(query, bound):
    if bound is None:
        return query
    for field_name in ("bound", "bound1", "bound2"):
        if hasattr(query, field_name):
            query = dataclasses.replace(query, **{field_name: bound})
    return query


def _result_row(name, result, expected):
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
    if manifest.bound_override is not None:
        check_bound(manifest.bound_override)
    # observers first: later queries may reference their locations/clocks
    for nq in named:
        if isinstance(nq.query, ObserverDecl):
            model = monitors.attach_observer(model, nq.query.constraint,
                                             nq.query.name)
    queries = []  # (result name, named query, query)
    first = {}  # result name -> the span of the query that took it
    for nq in named:
        if isinstance(nq.query, ObserverDecl):
            continue
        query = _apply_bound(nq.query, manifest.bound_override)
        if simulate_only and not isinstance(query, Simulate):
            continue
        if isinstance(query, Simulate) and manifest.sample_step is not None:
            query = dataclasses.replace(query,
                                        sample_step=manifest.sample_step)
        base = nq.name or f"q{len(queries)}"
        if base in first:
            raise ParseError(
                f"result name {base!r} is taken by the query at "
                f"{first[base].line}:{first[base].column}", nq.span)
        first[base] = nq.span
        queries.append((base, nq, query))
    if simulate_only and not queries:
        raise click.UsageError("no simulate query found")
    os.makedirs(manifest.out, exist_ok=True)
    results = smc.check(model, [(nq.name, query) for _, nq, query in queries],
                        cfg, run_config)
    rows = [_outputs(base, nq, query, result, manifest)
            for (base, nq, query), result in zip(queries, results)]
    return rows, any(row["match"] is False for row in rows)


def _outputs(base, nq, query, result, manifest):
    """Write one query's CSV outputs, named after ``base``, and return its
    row."""
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
    """Load the model, read and parse the queries, then run them:
    (manifest, rows, mismatch). Exits with the matching code on failure."""
    manifest = RunManifest(model=model_path, queries=query_path, **options)
    model = _load_model(model_path, err=True)
    try:
        if query_text is None:
            query_text = _read(query_path)
    except _IoFailure as exc:
        sys.exit(_fail(EXIT_IO, str(exc)))
    try:
        named = parser.parse_queries(query_text, query_path or "<query>")
        rows, mismatch = _run_suite(model, named, manifest, simulate_only)
    except (ParseError, EngineError, ExprError, smc.QueryError,
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
    _print_table(rows)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
