import pathlib

import pytest

from stamc import avmodel
from stamc.avmodel import (AvConfig, av_model_source, build_av_model,
                           requirement_queries, requirement_query_source)
from stamc.engine import RngStream, run
from stamc.model import instantiate, validate_model
from stamc.parser import parse_queries
from stamc.queries import ConstraintQuery, ObserverDecl

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def test_config_rejects_unordered_energy_rates():
    with pytest.raises(ValueError, match="ordered"):
        AvConfig(braking_rate=0.1)


def test_config_rejects_bad_jitter_and_accel():
    with pytest.raises(ValueError, match="jitter"):
        AvConfig(jitter=40.0)
    with pytest.raises(ValueError, match="accel"):
        AvConfig(accel=0)


@pytest.mark.parametrize("refined", [True, False])
def test_both_variants_build_and_validate(refined):
    model = build_av_model(AvConfig(refined=refined))
    assert len(model.templates) == 11
    rep = validate_model(model)
    assert rep.ok, [e.message for e in rep.errors]
    assert len(instantiate(model).components) == 11


def test_shipped_fixtures_match_builders():
    assert (MODELS / "av.sta").read_text() == av_model_source(AvConfig())
    assert (MODELS / "av_unrefined.sta").read_text() == \
           av_model_source(AvConfig(refined=False))
    assert (MODELS / "requirements.q").read_text() == \
           requirement_query_source(AvConfig())


def test_requirement_suite_round_trips_through_parser():
    text = requirement_query_source()
    parsed = parse_queries(text)
    built = requirement_queries()
    assert [q.name for q in parsed] == [q.name for q in built]
    assert [q.expected for q in parsed] == [q.expected for q in built]
    kinds = {q.name: type(q.query).__name__ for q in parsed}
    assert kinds["R46"] == "ConstraintQuery"
    assert kinds["CamToReg"] == "ObserverDecl"


def test_suite_covers_constraint_kinds_and_expectations():
    qs = requirement_queries()
    wh_kinds = {q.query.constraint.kind for q in qs
                if isinstance(q.query, ConstraintQuery)}
    assert wh_kinds == {"execution", "synchronization", "periodic",
                        "endtoend"}
    # the unrefined variant is expected to lose the one-sided-stop guarantee
    r16 = {q.name: q.expected for q in requirement_queries(
        AvConfig(refined=False))}["R16"]
    assert r16 == "invalid"


def test_model_runs_and_stays_sane():
    net = instantiate(build_av_model())
    tr = run(net, 600.0, RngStream(0, 0), watch=["wvl", "wvr", "mode"])
    assert tr.end_reason == "bound_reached"
    assert any(e.channel == "cam_start" for e in tr.events)
    for _, snap in tr.samples():
        assert snap["wvl"] >= -1e-9
        assert snap["wvr"] >= -1e-9
        assert snap["mode"] in range(7)
