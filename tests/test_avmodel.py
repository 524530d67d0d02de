import pathlib

import pytest

from stamc.avmodel import AvConfig
from stamc.engine import RngStream, run
from stamc.model import instantiate, validate_model
from stamc.parser import parse_expression, parse_model, parse_queries
from stamc.queries import ConstraintQuery, ObserverDecl

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def shipped_model(name="av.sta"):
    return parse_model((MODELS / name).read_text(), name)


def shipped_queries():
    return parse_queries((MODELS / "requirements.q").read_text(),
                         "requirements.q")


def edge(tpl, source, target):
    (e,) = [e for e in tpl.edges if (e.source, e.target) == (source, target)]
    return e


@pytest.mark.parametrize("refined", [True, False])
def test_both_variants_build_and_validate(refined):
    model = shipped_model("av.sta" if refined else "av_unrefined.sta")
    assert len(model.templates) == 11
    rep = validate_model(model)
    assert rep.ok, [e.message for e in rep.errors]
    assert len(instantiate(model).components) == 11


def test_config_matches_the_shipped_files():
    cfg, model = AvConfig(), shipped_model()
    suite = {q.name: q.query for q in shipped_queries()}
    expr = parse_expression

    reg_lo, reg_hi = cfg.reg_exec
    reg = model.template("SignReg")
    assert reg.location("work").invariant == expr(f"r <= {reg_hi}")
    assert edge(reg, "work", "write").guard == expr(f"r >= {reg_lo}")
    r46 = suite["R46"].constraint
    assert (r46.lower, r46.upper) == cfg.reg_exec

    cam = model.template("Camera")
    assert cam.location("shoot").invariant == expr(f"e <= {cfg.cam_exec_upper}")
    assert suite["R47"].constraint.upper == cfg.cam_exec_upper
    assert cam.location("wait").invariant == \
        expr(f"p <= {cfg.period + cfg.jitter}")
    assert edge(cam, "wait", "shoot").guard == \
        expr(f"p >= {cfg.period - cfg.jitter}")
    r49 = suite["R49"].constraint
    assert (r49.lower, r49.upper, r49.jitter) == \
        (cfg.period, cfg.period, cfg.jitter)

    for name in ("R50", "CamToReg"):
        c = suite[name].constraint
        assert (c.lower, c.upper) == cfg.e2e

    choices = [e for e in model.template("SignSource").edges
               if e.source == "choose"]
    assert [e.weight for e in choices] == \
        [cfg.weight_straight] + [cfg.weight_other] * 7
    posted = {var: sorted(v.value for e in choices for n, v in e.updates
                          if n == var) for var in ("raw_h", "raw_l")}
    assert posted == {"raw_h": list(cfg.max_limits),
                      "raw_l": list(cfg.min_limits)}

    for wheel, clk, a in (("WheelL", "wvl", "al"), ("WheelR", "wvr", "ar")):
        for loc in ("idle", "send1"):
            rates = dict(model.template(wheel).location(loc).rates)
            assert rates[clk] == expr(f"{cfg.accel} * {a}")

    energy = dict(model.template("Energy").location("track").rates)
    avg = "(wvl + wvr) / 2"
    const, updown = cfg.constspeed_rate, cfg.updown_rate
    turning, braking = cfg.turning_rate, cfg.braking_rate
    assert energy == {
        "Con_en": expr(f"(mode == 0 ? {const} : (mode == 1 || mode == 2 ? "
                       f"{updown} : (mode == 3 || mode == 4 ? {turning} : "
                       f"(mode == 5 ? {braking} : 0)))) * {avg}"),
        "const_en": expr(f"mode == 0 ? {const} * {avg} : 0"),
        "up_en": expr(f"mode == 1 ? {updown} * {avg} : 0"),
        "down_en": expr(f"mode == 2 ? {updown} * {avg} : 0"),
        "turn_en": expr(f"mode == 3 || mode == 4 ? {turning} * {avg} : 0"),
        "braking_en": expr(f"mode == 5 ? {braking} * {avg} : 0"),
    }
    assert cfg.braking_rate > cfg.updown_rate > cfg.turning_rate \
        > cfg.constspeed_rate > 0


def test_requirement_suite_round_trips_through_parser():
    parsed = shipped_queries()
    kinds = {q.name: type(q.query).__name__ for q in parsed}
    assert kinds["R46"] == "ConstraintQuery"
    assert kinds["CamToReg"] == "ObserverDecl"


def test_suite_covers_constraint_kinds_and_expectations():
    qs = shipped_queries()
    wh_kinds = {q.query.constraint.kind for q in qs
                if isinstance(q.query, ConstraintQuery)}
    assert wh_kinds == {"execution", "synchronization", "periodic",
                        "endtoend"}
    expected = {q.name: q.expected for q in qs}
    assert expected["R16"] == expected["R46"] == "valid"
    assert expected["R42"] is None and expected["R51"] is None
    assert any(isinstance(q.query, ObserverDecl) for q in qs)


def test_model_runs_and_stays_sane():
    net = instantiate(shipped_model())
    tr = run(net, 600.0, RngStream(0, 0), watch=["wvl", "wvr", "mode"])
    assert tr.end_reason == "bound_reached"
    assert any(channel == "cam_start" for _, _, _, channel, _, _ in tr.events)
    for _, snap in tr.samples():
        assert snap["wvl"] >= -1e-9
        assert snap["wvr"] >= -1e-9
        assert snap["mode"] in range(7)
