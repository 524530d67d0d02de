"""Autonomous-vehicle case study: the constants its oracles check.

The case study itself is the shipped model and query files:
`models/av.sta` (the network), `models/av_unrefined.sta` (the same network
without the finish-the-turn-before-stopping refinement) and
`models/requirements.q` (the requirement suite).  This module records the
numbers in them that tests and benchmarks compare against closed-form
oracles; `tests/test_avmodel.py` pins each one to the files.

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
they were fitted so the expected braking energy per run lands in the 300
to 600 J band, which `test_braking_energy_band` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

BOUND = 3000.0  # 60 s at 20 ms per time unit


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
    e2e: tuple = (10.0, 30.0)  # camera-to-sign-type latency band
    braking_rate: float = 0.72  # J per (m/s * tu), fitted
    updown_rate: float = 0.3
    turning_rate: float = 0.025
    constspeed_rate: float = 0.01
