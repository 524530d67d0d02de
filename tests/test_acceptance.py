"""End-to-end acceptance checks for the shipped vehicle study.

Each test pins a headline number of the case study (sign distribution,
timing-suite verdicts, worst-case latency, the stop-refinement pair,
braking energy, monitor equivalence, statistical guarantees, integrator
accuracy, determinism) with its runtime budget.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest
import scipy.integrate
from click.testing import CliRunner

from stamc import engine, monitors, smc
from stamc.avmodel import BOUND, AvConfig
from stamc.cli import main as cli_main
from stamc.engine import RngStream, run
from stamc.model import instantiate
from stamc.monitors import WhConstraint
from stamc.parser import parse_model, parse_queries
from stamc.smc import Sprt, StatConfig, chernoff_runs, clopper_pearson

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
CFG = AvConfig()


def shipped_model(name="av.sta"):
    return parse_model((MODELS / name).read_text(), name)


def timed(budget_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            if exc == (None, None, None):
                assert self.elapsed < budget_s, \
                    f"took {self.elapsed:.1f}s, budget {budget_s}s"
    return _Timer()


def query(text):
    [nq] = parse_queries(text)
    return nq.query


# --- 1: sign distribution --------------------------------------------------


def sign_driver_source(cfg):
    """The sign source from the vehicle network, fired once per time unit
    so its choice weights can be sampled in bulk."""
    w, o = cfg.weight_straight, cfg.weight_other
    return f"""
int raw_sign = 0;
real raw_h = {cfg.max_limits[1]};
real raw_l = {cfg.min_limits[0]};
clock x;
broadcast chan cam_done;
template Tick() {{
  init loc a {{ inv x <= 1; }}
  a -> a {{ guard x >= 1; sync cam_done!; update x := 0; }}
}}
template SignSource() {{
  init loc idle;
  committed loc choose;
  idle -> choose {{ sync cam_done?; }}
  choose -> idle {{ weight {w}; update raw_sign := 0; }}
  choose -> idle {{ weight {o}; update raw_sign := 1, raw_h := {cfg.max_limits[0]}; }}
  choose -> idle {{ weight {o}; update raw_sign := 1, raw_h := {cfg.max_limits[1]}; }}
  choose -> idle {{ weight {o}; update raw_sign := 2, raw_l := {cfg.min_limits[0]}; }}
  choose -> idle {{ weight {o}; update raw_sign := 2, raw_l := {cfg.min_limits[1]}; }}
  choose -> idle {{ weight {o}; update raw_sign := 3; }}
  choose -> idle {{ weight {o}; update raw_sign := 4; }}
  choose -> idle {{ weight {o}; update raw_sign := 5; }}
}}
system Tick, SignSource;
"""


def test_sign_distribution():
    n_fires = 10 ** 5
    with timed(10):
        net = instantiate(parse_model(sign_driver_source(CFG)))
        tr = run(net, float(n_fires), RngStream(42, 0))
        counts = {}
        for _, component, edge, _, _, _ in tr.events:
            if component == "SignSource" and edge.startswith("choose"):
                counts[edge] = counts.get(edge, 0) + 1
    total = sum(counts.values())
    assert total >= n_fires
    freqs = {edge: c / total for edge, c in counts.items()}
    assert len(freqs) == 9 - 1  # all eight choice edges taken
    assert 0.29 <= freqs["choose->idle#1"] <= 0.31  # straight
    for i in range(2, 9):
        assert 0.09 <= freqs[f"choose->idle#{i}"] <= 0.11


# --- 2: timing-constraint suite --------------------------------------------


def test_timing_suite_all_valid():
    model = shipped_model()
    suite = {q.name: q for q in parse_queries(
        (MODELS / "requirements.q").read_text(), "requirements.q")}
    cfg = StatConfig(seed=42, delta_indiff=0.03)
    with timed(120):
        for name in ("R46", "R47", "R48", "R49", "R50"):
            res = smc.evaluate_query(model, suite[name].query, cfg,
                                     name=name)
            assert res.verdict == "valid", name
            assert res.details["p0"] == pytest.approx(0.95)
            assert res.details["oracle_verdict"] == "valid", name


# --- 3: worst-case camera-to-recognition latency ---------------------------


def latency_oracle(cutoff):
    """P(camera exposure + recognition time <= cutoff) by convolution:
    exposure ~ Uniform[0, cam upper], recognition ~ Uniform[reg band]."""
    lo, hi = CFG.reg_exec

    def cdf_exposure(x):
        return min(max(x / CFG.cam_exec_upper, 0.0), 1.0)

    val, _ = scipy.integrate.quad(
        lambda y: cdf_exposure(cutoff - y) / (hi - lo), lo, hi)
    return val


def test_latency_bound_r51():
    cutoff = CFG.cam_exec_upper + CFG.reg_exec[1]
    assert latency_oracle(cutoff) == pytest.approx(1.0, abs=1e-9)
    assert latency_oracle(cutoff - 1) < 1.0  # the bound is tight

    c = WhConstraint("endtoend", 19, 20,
                     (("source", "cam_start"), ("target", "sign_ready")),
                     lower=CFG.e2e[0], upper=CFG.e2e[1])
    observed = monitors.attach_observer(shipped_model(), c, "CamToReg")
    res = smc.evaluate_query(
        observed, query(f"Pr[<={int(BOUND)}]([] CamToReg.dclk <= {cutoff})"),
        StatConfig(seed=42, epsilon=0.1))
    assert res.p_hat >= 0.99
    lo, hi = res.ci
    assert 0.9 <= lo <= hi <= 1.0


# --- 4: the one-sided-stop pair --------------------------------------------

ONE_SIDED = "Stop.totally_stop && (wvl > wvr || wvr > wvl)"


def test_unrefined_stops_on_one_side_refined_does_not(tmp_path):
    with timed(60):
        unrefined = shipped_model("av_unrefined.sta")
        res = smc.evaluate_query(
            unrefined, query(f"Pr[<={int(BOUND)}](<> ({ONE_SIDED}))"),
            StatConfig(seed=42, epsilon=0.1))
        assert res.p_hat > 0

        witness = None
        net = instantiate(unrefined)
        for i in range(200):
            tr = run(net, BOUND, RngStream(42, i),
                     watch=["Stop.totally_stop", "wvl", "wvr"])
            for _, snap in tr.samples():
                if snap["Stop.totally_stop"] and snap["wvl"] != snap["wvr"]:
                    witness = tr
                    break
            if witness:
                break
        assert witness is not None
        out = tmp_path / "one_sided_stop.jsonl"
        out.write_text(engine.trace_to_jsonl(witness))
        assert out.stat().st_size > 0

        refined = shipped_model()
        res = smc.evaluate_query(
            refined, query(f"Pr[<={int(BOUND)}]([] !({ONE_SIDED})) >= 0.99"),
            StatConfig(seed=42, delta_indiff=0.005))
        assert res.verdict == "valid"


# --- 5: braking energy -----------------------------------------------------


def test_braking_energy_band():
    with timed(60):
        res = smc.evaluate_query(
            shipped_model(),
            query(f"E[<={int(BOUND)}; 100](max: energy.braking_en)"),
            StatConfig(seed=42))
    assert 300 <= res.p_hat <= 600
    values = res.details["values"]
    in_band = sum(1 for v in values if 300 <= v <= 600)
    assert in_band / len(values) >= 0.55


# --- 6: monitor equivalence ------------------------------------------------

TASK = """
clock p;
clock w;
broadcast chan start;
broadcast chan stop;
template Task() {
  init loc idle { inv p <= 12; }
  loc work { inv w <= 6; }
  idle -> work { guard p >= 8; sync start!; update p := 0, w := 0; }
  work -> idle { guard w >= 1; sync stop!; }
}
system Task;
"""

PAIR = """
clock p;
clock d1;
clock d2;
broadcast chan kick;
broadcast chan a;
broadcast chan b;
template Kick() {
  init loc idle { inv p <= 10; }
  committed loc go;
  idle -> go { guard p >= 10; sync kick!; update p := 0; }
  go -> idle { }
}
template EmitA() {
  init loc w;
  loc armed { inv d1 <= 2; }
  w -> armed { sync kick?; update d1 := 0; }
  armed -> w { sync a!; }
}
template EmitB() {
  init loc w;
  loc armed { inv d2 <= 2; }
  w -> armed { sync kick?; update d2 := 0; }
  armed -> w { sync b!; }
}
system Kick, EmitA, EmitB;
"""

# three emitters: each group's second arrival counts up with cnt := cnt + 1
TRIPLE = PAIR.replace("system Kick, EmitA, EmitB;", """clock d3;
broadcast chan c;
template EmitC() {
  init loc w;
  loc armed { inv d3 <= 2; }
  w -> armed { sync kick?; update d3 := 0; }
  armed -> w { sync c!; }
}
system Kick, EmitA, EmitB, EmitC;""")

# a task that is preempted and resumed, its execution clock w held meanwhile
PREEMPTED = """
clock p;
clock w;
clock q;
broadcast chan start;
broadcast chan stop;
broadcast chan preempt;
broadcast chan resume;
template Task() {
  init loc idle { inv p <= 10; }
  loc work { inv w <= 4; }
  loc held { inv q <= 2; rate w = 0; }
  idle -> work { guard p >= 8; sync start!; update w := 0; }
  work -> held { sync preempt!; update q := 0; }
  held -> work { sync resume!; }
  work -> idle { guard w >= 1; sync stop!; update p := 0; }
}
system Task;
"""


@pytest.mark.parametrize("text,constraint", [
    (TASK, WhConstraint("execution", 1, 1,
                        (("start", "start"), ("stop", "stop")),
                        lower=1, upper=5.7)),
    (PAIR, WhConstraint("synchronization", 1, 1,
                        (("e1", "a"), ("e2", "b")),
                        tolerance=1.7)),
    (TASK, WhConstraint("periodic", 1, 1,
                        (("occurrence", "start"),),
                        lower=9, upper=11, jitter=0.7)),
    (TASK, WhConstraint("endtoend", 1, 1,
                        (("source", "start"), ("target", "stop")),
                        lower=0, upper=5.7)),
    (TRIPLE, WhConstraint("synchronization", 1, 1,
                          (("e1", "a"), ("e2", "b"), ("e3", "c")),
                          tolerance=1.8)),
    (PREEMPTED, WhConstraint("execution", 1, 1,
                             (("start", "start"), ("stop", "stop"),
                              ("preempt", "preempt"), ("resume", "resume")),
                             lower=1.2, upper=3.95)),
], ids=["execution", "synchronization", "periodic", "endtoend",
        "synchronization-of-three", "preemptive-execution"])
def test_observer_equals_trace_oracle_on_1000_runs(text, constraint):
    """The composed observer, its replay over the run's events and the
    trace oracle agree run by run."""
    observed = monitors.attach_observer(parse_model(text), constraint, "Obs")
    net = instantiate(observed)
    outcomes = set()
    for i in range(1000):
        tr = run(net, 100.0, RngStream(13, i))
        obs_fail = tr.locations["Obs"] == "fail"
        oracle_fail = not monitors.check_trace(tr, constraint).wh_holds
        assert obs_fail == oracle_fail, f"disagreement at run {i}"
        assert monitors.observer_failed(tr, constraint) == obs_fail, \
            f"replay disagrees at run {i}"
        outcomes.add(obs_fail)
    assert outcomes == {True, False}  # the band is actually exercised


# --- 7: statistical guarantees ---------------------------------------------


def test_statistics_guarantees():
    with timed(120):
        assert chernoff_runs(0.05, 0.05) == 738

        rng = np.random.default_rng(1)
        n, covered = 500, 0
        for _ in range(200):
            hits = int(rng.binomial(n, 0.3))
            lo, hi = clopper_pearson(hits, n, 0.05)
            covered += lo <= 0.3 <= hi
        assert covered / 200 >= 0.93

        p0 = 0.5
        for truth, right in ((0.55, "valid"), (0.45, "invalid")):
            wrong = 0
            for rep in range(500):
                sprt = Sprt(p0, 0.01, 0.05, 0.05)
                decision = None
                while decision is None:
                    decision = sprt.feed(bool(rng.random() < truth))
                wrong += decision != right
            assert wrong / 500 <= 0.10


def test_paired_compare_guarantees():
    """``compare``'s rule on Bernoulli pairs, with no engine: at
    |p1 - p2| = 2 delta it gives the wrong verdict in at most alpha of the
    repeats, with the two outcomes of a pair anti-correlated, independent
    or correlated."""
    cfg = StatConfig(delta_indiff=0.05)
    q = query("Pr[<=1](<> a == 1) >= Pr[<=1](<> b == 1)")
    budget = chernoff_runs(cfg.alpha, cfg.epsilon)
    rng = np.random.default_rng(2)
    with timed(10):
        for p1, p2, wrong in ((0.4, 0.5, "valid"), (0.5, 0.4, "invalid")):
            sd = math.sqrt(p1 * (1 - p1) * p2 * (1 - p2))
            for rho in (-0.5, 0.0, 0.5):
                both = p1 * p2 + rho * sd
                # Pr of the pairs (1, 1), (1, 0), (0, 1) and (0, 0)
                probs = [both, p1 - both, p2 - both, 1 - p1 - p2 + both]
                misses = 0
                for _ in range(1000):
                    kind = rng.choice(4, size=budget, p=probs)
                    x1, x2 = kind <= 1, kind % 2 == 0
                    res = smc._compare(q, cfg, [iter(x1.tolist()),
                                                iter(x2.tolist())])
                    misses += res.verdict == wrong
                assert misses / 1000 <= cfg.alpha, (p1, p2, rho, misses)


# --- 8: integrator accuracy ------------------------------------------------


def test_affine_energy_integral_matches_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = float(rng.uniform(-5, 5))
        v0 = float(rng.uniform(1, 50))
        dt = float(rng.uniform(0.5, 8))
        text = f"""
clock e;
clock t;
clock x;
template T() {{
  init loc run {{ rate e = 0.1 * ({v0!r} + {a!r} * t); inv x <= {dt!r}; }}
  loc done {{ rate e = 0; }}
  run -> done {{ guard x >= {dt!r}; }}
}}
system T;
"""
        exact = 0.1 * (v0 * dt + a * dt ** 2 / 2)
        for h_max in (0.05, 10.0):
            tr = run(instantiate(parse_model(text)), dt + 1, RngStream(0, 0),
                     watch=["e"], config=engine.RunConfig(h_max=h_max))
            assert tr.final["e"] == pytest.approx(exact, rel=1e-6)


# --- 9: determinism --------------------------------------------------------

MINI_SUITE = """\
A: Pr[<=300](<> mode >= 1) >= 0.05;
B: E[<=300; 20](max: energy.Con_en);
C: constraint periodic(m=19, k=20, bound=300, lower=35, upper=35, jitter=5) on occurrence=cam_start;
"""


def strip_wall(rows):
    out = []
    for r in rows:
        r = dict(r)
        r.pop("wall_ms", None)
        out.append(r)
    return out


def test_check_is_deterministic_across_reruns_and_workers(tmp_path):
    q = tmp_path / "mini.q"
    q.write_text(MINI_SUITE)
    runner = CliRunner()
    payloads = []
    for out_dir, workers in (("d1", 1), ("d2", 1), ("d3", 8)):
        res = runner.invoke(cli_main, [
            "check", str(MODELS / "av.sta"), str(q), "--seed", "42",
            "--indifference", "0.03", "--workers",
            str(workers), "--out", str(tmp_path / out_dir)])
        assert res.exit_code == 0, res.output
        payloads.append(json.loads(
            (tmp_path / out_dir / "results.json").read_text()))
    r1, r2, r3 = (strip_wall(p["results"]) for p in payloads)
    assert r1 == r2 == r3
    m1, m2 = dict(payloads[0]["manifest"]), dict(payloads[1]["manifest"])
    m1.pop("out"), m2.pop("out")
    assert m1 == m2
