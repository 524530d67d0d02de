"""Autonomous-vehicle case study: network builder and requirement suite.

The vehicle reads traffic signs from a periodically triggered camera and a
sign-recognition stage, then dispatches maneuvers (cruise, speed up or
down, turn left or right, brake to a stop) to wheel dynamics modeled as
clocks with piecewise-constant acceleration.  An energy automaton
integrates per-maneuver consumption through location-dependent clock
rates.

Scale: 1 time unit (tu) = 20 ms, so the standard 3000 tu query bound is a
60 s horizon.  Speeds are m/s, energies Joules.

The energy rate coefficients are calibrated constants: the model only
fixes their ordering (braking > speed change > turning > cruising), and
the shipped defaults were fitted so the expected braking energy per run
lands in the 300 to 600 J band (see tools-style calibration in the test
suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import parser
from .model import Model
from .monitors import EventBinding, WhConstraint
from .queries import ConstraintQuery, Estimate, NamedQuery, ObserverDecl


@dataclass(frozen=True)
class AvConfig:
    max_limits: tuple = (100.0, 120.0)  # posted maximum speeds (m/s as modeled)
    min_limits: tuple = (70.0, 80.0)
    accel: float = 8.0  # wheel acceleration magnitude (m/s per tu)
    weight_straight: int = 30  # sign weights, of 100
    weight_other: int = 10
    period: float = 35.0  # camera period (tu; 700 ms)
    jitter: float = 5.0  # camera jitter (tu; 100 ms)
    cam_exec_upper: float = 5.0  # camera execution <= 100 ms
    reg_exec: tuple = (10.0, 20.0)  # sign recognition 200..400 ms
    sync_tolerance: float = 2.0  # controller input sync window (40 ms)
    e2e: tuple = (10.0, 30.0)  # camera-to-sign-type latency band
    init_speed: float = 100.0
    speed_margin: float = 10.0  # safe distance to a posted limit
    turn_diff: float = 20.0  # inner-wheel slowdown while turning
    turn_duration: tuple = (40.0, 75.0)
    wheel_send_upper: float = 0.8  # speed publication delay after report
    braking_rate: float = 0.72  # J per (m/s * tu), fitted
    updown_rate: float = 0.3
    turning_rate: float = 0.025
    constspeed_rate: float = 0.01
    cam_rate: float = 0.5
    reg_rate: float = 0.2
    refined: bool = True  # finish a turn before honoring a stop sign

    def __post_init__(self):
        if not (self.braking_rate > self.updown_rate > self.turning_rate
                > self.constspeed_rate > 0):
            raise ValueError("energy rates must be ordered "
                             "braking > updown > turning > constspeed > 0")
        if not 0 <= self.jitter < self.period:
            raise ValueError("need 0 <= jitter < period")
        if self.accel <= 0:
            raise ValueError("need accel > 0")


def _fmt(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


def av_model_source(cfg: AvConfig = AvConfig()) -> str:
    """DSL source of the network (the shipped .sta fixtures are exactly
    this text)."""
    f = _fmt
    a = f(cfg.accel)
    max_lo, max_hi = cfg.max_limits
    min_lo, min_hi = cfg.min_limits
    reg_lo, reg_hi = cfg.reg_exec
    turn_lo, turn_hi = cfg.turn_duration
    # cruise target for a posted limit: stay a safety margin inside it
    tgt = (f"(dsign == 1 ? speedh - {f(cfg.speed_margin)}"
           f" : speedl + {f(cfg.speed_margin)})")
    avg = "(wvl + wvr) / 2"
    src = []
    src.append(f"""\
// Sign values: 0 straight, 1 maximum limit, 2 minimum limit,
// 3 turn right, 4 turn left, 5 stop.
// Maneuver modes: 0 cruise, 1 speed up, 2 slow down, 3 turning left,
// 4 turning right, 5 braking, 6 stopped.
int raw_sign = 0;
real raw_h = {f(max_hi)};
real raw_l = {f(min_lo)};
int signType = 0;
real speedh = {f(max_hi)};
real speedl = {f(min_lo)};
int dsign = 0;
int mode = 0;
int prev_mode = 0;
int pending_stop = 0;
real v_target = {f(cfg.init_speed)};
real al = 0;
real ar = 0;
clock wvl = {f(cfg.init_speed)};
clock wvr = {f(cfg.init_speed)};
broadcast chan cam_start;
broadcast chan cam_done;
broadcast chan sig_start;
broadcast chan sig_done;
broadcast chan sign_ready;
broadcast chan report;
broadcast chan up_go;
broadcast chan down_go;
broadcast chan const_go;
broadcast chan stop_go;
broadcast chan left_go;
broadcast chan right_go;
broadcast chan left_done;
broadcast chan right_done;
broadcast chan wv1l;
broadcast chan wv2l;
broadcast chan wv1r;
broadcast chan wv2r;

template SignSource() {{
  init loc idle;
  committed loc choose;
  idle -> choose {{ sync cam_done?; }}
  choose -> idle {{ weight {cfg.weight_straight}; update raw_sign := 0; }}
  choose -> idle {{ weight {cfg.weight_other}; update raw_sign := 1, raw_h := {f(max_lo)}; }}
  choose -> idle {{ weight {cfg.weight_other}; update raw_sign := 1, raw_h := {f(max_hi)}; }}
  choose -> idle {{ weight {cfg.weight_other}; update raw_sign := 2, raw_l := {f(min_lo)}; }}
  choose -> idle {{ weight {cfg.weight_other}; update raw_sign := 2, raw_l := {f(min_hi)}; }}
  choose -> idle {{ weight {cfg.weight_other}; update raw_sign := 3; }}
  choose -> idle {{ weight {cfg.weight_other}; update raw_sign := 4; }}
  choose -> idle {{ weight {cfg.weight_other}; update raw_sign := 5; }}
}}

template Camera() {{
  clock p;
  clock e;
  clock cam_en;
  init loc wait {{ inv p <= {f(cfg.period + cfg.jitter)}; rate cam_en = 0; }}
  loc shoot {{ inv e <= {f(cfg.cam_exec_upper)}; rate cam_en = {f(cfg.cam_rate)}; }}
  wait -> shoot {{ guard p >= {f(cfg.period - cfg.jitter)}; sync cam_start!; update p := 0, e := 0, cam_en := 0; }}
  shoot -> wait {{ sync cam_done!; }}
}}

template SignReg() {{
  clock r;
  clock reg_en;
  int v_sign = 0;
  real v_h = {f(max_hi)};
  real v_l = {f(min_lo)};
  init loc waiting {{ rate reg_en = 0; }}
  committed loc read;
  loc work {{ inv r <= {f(reg_hi)}; rate reg_en = {f(cfg.reg_rate)}; }}
  committed loc write;
  waiting -> read {{ sync cam_done?; }}
  read -> work {{ sync sig_start!; update r := 0, reg_en := 0, v_sign := raw_sign, v_h := raw_h, v_l := raw_l; }}
  work -> write {{ guard r >= {f(reg_lo)}; sync sig_done!; }}
  write -> waiting {{ sync sign_ready!; update signType := v_sign, speedh := v_h, speedl := v_l; }}
}}

template Ctrl() {{
  clock t;
  init loc run;
  committed loc decide;
  committed loc dispatch;""")
    if cfg.refined:
        src.append("  committed loc commit_stop;")
    src.append(f"""\
  run -> decide {{ sync sign_ready?; update t := 0, dsign := signType, prev_mode := mode; }}
  decide -> dispatch {{ sync report!; }}
  dispatch -> run {{ guard mode >= 5; }}
  dispatch -> run {{ guard (mode == 3 || mode == 4) && dsign != 5; }}""")
    if cfg.refined:
        src.append("""\
  dispatch -> run { guard (mode == 3 || mode == 4) && dsign == 5; update pending_stop := 1; }
  run -> commit_stop { guard pending_stop == 1; sync left_done?; }
  run -> commit_stop { guard pending_stop == 1; sync right_done?; }
  commit_stop -> run { sync stop_go!; update mode := 5, pending_stop := 0; }""")
    else:
        src.append("""\
  dispatch -> run { guard (mode == 3 || mode == 4) && dsign == 5; sync stop_go!; update mode := 5; }""")
    src.append(f"""\
  dispatch -> run {{ guard mode <= 2 && dsign == 0; sync const_go!; update mode := 0; }}
  dispatch -> run {{ guard mode <= 2 && (dsign == 1 || dsign == 2) && {avg} < {tgt}; sync up_go!; update mode := 1, v_target := {tgt}; }}
  dispatch -> run {{ guard mode <= 2 && (dsign == 1 || dsign == 2) && {avg} > {tgt}; sync down_go!; update mode := 2, v_target := {tgt}; }}
  dispatch -> run {{ guard mode <= 2 && (dsign == 1 || dsign == 2) && {avg} == {tgt}; sync const_go!; update mode := 0; }}
  dispatch -> run {{ guard mode <= 2 && dsign == 3; sync right_go!; update mode := 4; }}
  dispatch -> run {{ guard mode <= 2 && dsign == 4; sync left_go!; update mode := 3; }}
  dispatch -> run {{ guard mode <= 2 && dsign == 5; sync stop_go!; update mode := 5; }}
}}

template Straight() {{
  init loc cruise;
  loc up {{ inv wvl <= v_target; }}
  loc down {{ inv wvl >= v_target; }}
  cruise -> up {{ sync up_go?; update al := 1, ar := 1; }}
  cruise -> down {{ sync down_go?; update al := -1, ar := -1; }}
  up -> up {{ sync up_go?; }}
  up -> down {{ sync down_go?; update al := -1, ar := -1; }}
  down -> up {{ sync up_go?; update al := 1, ar := 1; }}
  down -> down {{ sync down_go?; }}
  up -> cruise {{ sync const_go?; update al := 0, ar := 0; }}
  down -> cruise {{ sync const_go?; update al := 0, ar := 0; }}
  up -> cruise {{ sync stop_go?; }}
  down -> cruise {{ sync stop_go?; }}
  up -> cruise {{ sync left_go?; update al := 0, ar := 0; }}
  up -> cruise {{ sync right_go?; update al := 0, ar := 0; }}
  down -> cruise {{ sync left_go?; update al := 0, ar := 0; }}
  down -> cruise {{ sync right_go?; update al := 0, ar := 0; }}
  up -> cruise {{ guard wvl >= v_target; update al := 0, ar := 0, wvl := v_target, wvr := v_target, mode := 0; }}
  down -> cruise {{ guard wvl <= v_target; update al := 0, ar := 0, wvl := v_target, wvr := v_target, mode := 0; }}
}}

template Stop() {{
  init loc idle;
  loc braking;
  loc totally_stop;
  idle -> braking {{ sync stop_go?; update al := -1, ar := -1; }}
  braking -> totally_stop {{ guard wvl <= 0 || wvr <= 0; update mode := 6, al := 0, ar := 0; }}
}}

template TurnLeft() {{
  clock tl;
  real entry_speed = 0;
  init loc idle;
  loc turn {{ inv tl <= {f(turn_hi)}; }}
  idle -> turn {{ sync left_go?; update tl := 0, entry_speed := {avg}, wvl := wvl - {f(cfg.turn_diff)}; }}
  turn -> idle {{ guard tl >= {f(turn_lo)}; sync left_done!; update wvl := wvr, mode := 0; }}
  turn -> idle {{ sync stop_go?; }}
}}

template TurnRight() {{
  clock tr;
  real entry_speed = 0;
  init loc idle;
  loc turn {{ inv tr <= {f(turn_hi)}; }}
  idle -> turn {{ sync right_go?; update tr := 0, entry_speed := {avg}, wvr := wvr - {f(cfg.turn_diff)}; }}
  turn -> idle {{ guard tr >= {f(turn_lo)}; sync right_done!; update wvr := wvl, mode := 0; }}
  turn -> idle {{ sync stop_go?; }}
}}

template WheelL() {{
  clock c;
  init loc idle {{ inv wvl >= 0; rate wvl = {a} * al; }}
  loc send1 {{ inv wvl >= 0 && c <= {f(cfg.wheel_send_upper)}; rate wvl = {a} * al; }}
  committed loc send2;
  idle -> idle {{ guard wvl <= 0 && al < 0; update al := 0, wvl := 0; }}
  send1 -> send1 {{ guard wvl <= 0 && al < 0; update al := 0, wvl := 0; }}
  idle -> send1 {{ sync report?; update c := 0; }}
  send1 -> send2 {{ sync wv1l!; }}
  send2 -> idle {{ sync wv2l!; }}
}}

template WheelR() {{
  clock c;
  init loc idle {{ inv wvr >= 0; rate wvr = {a} * ar; }}
  loc send1 {{ inv wvr >= 0 && c <= {f(cfg.wheel_send_upper)}; rate wvr = {a} * ar; }}
  committed loc send2;
  idle -> idle {{ guard wvr <= 0 && ar < 0; update ar := 0, wvr := 0; }}
  send1 -> send1 {{ guard wvr <= 0 && ar < 0; update ar := 0, wvr := 0; }}
  idle -> send1 {{ sync report?; update c := 0; }}
  send1 -> send2 {{ sync wv1r!; }}
  send2 -> idle {{ sync wv2r!; }}
}}

template Energy() {{
  clock Con_en;
  clock const_en;
  clock up_en;
  clock down_en;
  clock turn_en;
  clock braking_en;
  init loc track {{
    rate Con_en = (mode == 0 ? {f(cfg.constspeed_rate)} : (mode == 1 || mode == 2 ? {f(cfg.updown_rate)} : (mode == 3 || mode == 4 ? {f(cfg.turning_rate)} : (mode == 5 ? {f(cfg.braking_rate)} : 0)))) * {avg};
    rate const_en = mode == 0 ? {f(cfg.constspeed_rate)} * {avg} : 0;
    rate up_en = mode == 1 ? {f(cfg.updown_rate)} * {avg} : 0;
    rate down_en = mode == 2 ? {f(cfg.updown_rate)} * {avg} : 0;
    rate turn_en = mode == 3 || mode == 4 ? {f(cfg.turning_rate)} * {avg} : 0;
    rate braking_en = mode == 5 ? {f(cfg.braking_rate)} * {avg} : 0;
  }}
  track -> track {{ sync up_go?; update up_en := 0; }}
  track -> track {{ sync down_go?; update down_en := 0; }}
  track -> track {{ sync left_go?; update turn_en := 0; }}
  track -> track {{ sync right_go?; update turn_en := 0; }}
  track -> track {{ sync stop_go?; update braking_en := 0; }}
}}

system SignSource, Camera, SignReg, Ctrl, Straight, Stop, TurnLeft,
       TurnRight, WheelL, WheelR, energy = Energy();""")
    return "\n".join(src) + "\n"


def build_av_model(cfg: AvConfig = AvConfig()) -> Model:
    return parser.parse_model(av_model_source(cfg), filename="<av>")


BOUND = 3000.0  # 60 s at 20 ms per time unit


def _hyp(name, text, expected="valid"):
    return NamedQuery(name, parser.parse_queries(text)[0].query, expected)


def requirement_queries(cfg: AvConfig = AvConfig()) -> list:
    """The requirement suite as named queries over the built network.

    Comparison query p1 < p2 splits and weakly-hard parameters follow the
    shipped calibration; rows whose verdict depends on unrecoverable
    coefficient choices carry no expected verdict.
    """
    B = int(BOUND)
    m, k = 19, 20  # hypothesis level m/k = 0.95
    qs = []

    # maneuver dispatch: a freshly decided sign (controller back in run,
    # decision clock still 0) must have selected the right maneuver
    def dispatch(name, pre_mode, sign, post_mode):
        return _hyp(name, (
            f"Pr[<={B}]([] ((prev_mode == {pre_mode} && dsign == {sign} && "
            f"Ctrl.run && Ctrl.t == 0) imply mode == {post_mode})) >= 0.95"))

    qs += [dispatch("R1", 0, 4, 3), dispatch("R2", 1, 4, 3),
           dispatch("R3", 2, 4, 3), dispatch("R4", 0, 3, 4),
           dispatch("R5", 1, 3, 4), dispatch("R6", 2, 3, 4),
           dispatch("R7", 0, 5, 5), dispatch("R8", 1, 5, 5),
           dispatch("R9", 2, 5, 5)]

    one_sided = "Stop.totally_stop && wvl == 0 && wvr > 0"
    qs.append(_hyp("R16", f"Pr[<={B}]([] !({one_sided})) >= 0.95",
                   "valid" if cfg.refined else "invalid"))
    other_side = "Stop.totally_stop && wvr == 0 && wvl > 0"
    qs.append(_hyp("R17", f"Pr[<={B}]([] !({other_side})) >= 0.95",
                   "valid" if cfg.refined else None))
    qs.append(_hyp("R24", f"Pr[<={B}]([] (mode == 6 imply wvl == 0 && "
                          "wvr == 0)) >= 0.95",
                   "valid" if cfg.refined else None))
    qs.append(_hyp("R25", f"Pr[<={B}]([] (Stop.totally_stop imply wvl == 0 "
                          "&& wvr == 0)) >= 0.95",
                   "valid" if cfg.refined else None))

    def compare(name, antecedent, low, high, expected):
        return _hyp(name, (
            f"Pr[<={B}]([] ({antecedent} imply wvl <= {_fmt(low)})) >= "
            f"Pr[<={B}]([] ({antecedent} imply wvl > {_fmt(low)} && "
            f"wvl <= {_fmt(high)}))"), expected)

    max_lo, max_hi = cfg.max_limits
    min_lo, min_hi = cfg.min_limits
    mg = cfg.speed_margin
    qs.append(compare("R26", f"speedh == {_fmt(max_lo)}", max_lo - mg,
                      max_lo, "valid"))
    qs.append(compare("R27", f"speedh == {_fmt(max_hi)}", max_hi - mg,
                      max_hi, "valid"))
    # R28 flips the direction: stay above the posted minimum plus margin
    qs.append(_hyp("R28", (
        f"Pr[<={B}]([] (speedl == {_fmt(min_lo)} imply "
        f"wvl >= {_fmt(min_lo + mg)})) >= "
        f"Pr[<={B}]([] (speedl == {_fmt(min_lo)} imply "
        f"wvl > {_fmt(min_lo)} && wvl <= {_fmt(min_lo + mg)}))"), None))
    qs.append(_hyp("R29", (
        f"Pr[<={B}]([] (speedl == {_fmt(min_hi)} imply "
        f"wvl >= {_fmt(min_hi + mg)})) >= "
        f"Pr[<={B}]([] (speedl == {_fmt(min_hi)} imply "
        f"wvl > {_fmt(min_hi)} && wvl <= {_fmt(min_hi + mg)}))"), None))

    qs.append(_hyp("R30", f"Pr[<={B}]([] (TurnLeft.turn imply wvl <= wvr))"
                          " >= 0.95"))
    qs.append(_hyp("R31", f"Pr[<={B}]([] (TurnRight.turn imply wvr <= wvl))"
                          " >= 0.95"))

    qs.append(_hyp("R37", f"Pr[<={B}]([] Camera.cam_en <= 3) >= 0.95"))
    qs.append(_hyp("R38", f"Pr[<={B}]([] SignReg.reg_en <= 5) >= 0.95"))
    qs.append(NamedQuery("R39", parser.parse_queries(
        f"simulate 1 [<={B}] {{signType, (wvl + wvr) / 2, "
        "energy.const_en}")[0].query, None))
    qs.append(_hyp("R40", f"Pr[<={B}]([] energy.turn_en <= 270) >= 0.95"))
    qs.append(_hyp("R41", f"Pr[<={B}]([] energy.turn_en <= 270) >= 0.95"))
    qs.append(NamedQuery("R42", parser.parse_queries(
        f"E[<={B}; 100](max: energy.braking_en)")[0].query, None))
    qs.append(_hyp("R43", f"Pr[<={B}]([] energy.up_en <= 400) >= 0.95"))
    qs.append(_hyp("R44", f"Pr[<={B}]([] energy.down_en <= 400) >= 0.95"))
    qs.append(NamedQuery("R45", parser.parse_queries(
        f"simulate 1 [<={B}] {{(wvl + wvr) / 2, energy.Con_en}}")[0].query,
        None))

    reg_lo, reg_hi = cfg.reg_exec
    e2e_lo, e2e_hi = cfg.e2e
    qs.append(NamedQuery("R46", ConstraintQuery(WhConstraint(
        "execution", m, k, (("start", EventBinding(channel="sig_start")),
                            ("stop", EventBinding(channel="sig_done"))),
        lower=reg_lo, upper=reg_hi), BOUND), "valid"))
    qs.append(NamedQuery("R47", ConstraintQuery(WhConstraint(
        "execution", m, k, (("start", EventBinding(channel="cam_start")),
                            ("stop", EventBinding(channel="cam_done"))),
        lower=0.0, upper=cfg.cam_exec_upper), BOUND), "valid"))
    qs.append(NamedQuery("R48", ConstraintQuery(WhConstraint(
        "synchronization", m, k,
        tuple((f"e{i + 1}", EventBinding(channel=ch)) for i, ch in enumerate(
            ("sign_ready", "wv1l", "wv2l", "wv1r", "wv2r"))),
        tolerance=cfg.sync_tolerance), BOUND), "valid"))
    qs.append(NamedQuery("R49", ConstraintQuery(WhConstraint(
        "periodic", m, k, (("occurrence", EventBinding(channel="cam_start")),),
        lower=cfg.period, upper=cfg.period, jitter=cfg.jitter), BOUND),
        "valid"))
    qs.append(NamedQuery("R50", ConstraintQuery(WhConstraint(
        "endtoend", m, k, (("source", EventBinding(channel="cam_start")),
                           ("target", EventBinding(channel="sign_ready"))),
        lower=e2e_lo, upper=e2e_hi), BOUND), "valid"))

    # dedicated end-to-end observer whose latency clock feeds R51
    qs.append(NamedQuery("CamToReg", ObserverDecl("CamToReg", WhConstraint(
        "endtoend", m, k, (("source", EventBinding(channel="cam_start")),
                           ("target", EventBinding(channel="sign_ready"))),
        lower=e2e_lo, upper=e2e_hi)), None))
    worst = cfg.cam_exec_upper + reg_hi
    qs.append(NamedQuery("R51", Estimate(
        parser.parse_queries(
            f"Pr[<={B}]([] CamToReg.dclk <= {_fmt(worst)})")[0].query.formula,
        BOUND), None))
    return qs


def requirement_query_source(cfg: AvConfig = AvConfig()) -> str:
    """Query-file text for the suite (the shipped .q fixture)."""
    return "\n".join(parser.print_query(q) for q in requirement_queries(cfg)) + "\n"
