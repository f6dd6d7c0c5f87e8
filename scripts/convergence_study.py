#!/usr/bin/env python3
"""Integrator order study: RK4 deviation from the closed form under step halving.

Exits 1 when the observed order is outside 4 +/- ORDER_TOL, so the study
doubles as a gate on the oracle's RK4 stepper.
"""
import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spinforge.config import PhysicalConfig
from spinforge.oracle import convergence_study, rabi_period
from spinforge.tensor import basis_state

EXPECTED_ORDER = 4
ORDER_TOL = 0.2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b1", type=float, default=0.05, help="drive amplitude")
    parser.add_argument("--halvings", type=int, default=4, help="at least 1")
    parser.add_argument(
        "--steps", type=int, default=1000, help="steps per period at the coarsest dt"
    )
    args = parser.parse_args()
    if args.halvings < 1:
        parser.error("--halvings must be at least 1")

    cfg = PhysicalConfig.natural_units(b1=args.b1)
    period = rabi_period(cfg)
    base_dt = period / args.steps
    devs = convergence_study(
        cfg, 1, basis_state(1, "0"), period, base_dt, halvings=args.halvings
    )
    print(f"one population cycle: T = {period:.6f} (natural units)")
    print(f"{'dt':>14s} {'max deviation':>16s} {'ratio':>8s}")
    dt = base_dt
    previous = None
    for dev in devs:
        ratio = "" if previous is None else f"{previous / dev:8.2f}"
        print(f"{dt:14.6e} {dev:16.6e} {ratio:>8s}")
        previous = dev
        dt /= 2
    order = math.log2(devs[0] / devs[-1]) / args.halvings
    print(f"observed order: {order:.2f} (expected {EXPECTED_ORDER})")
    if abs(order - EXPECTED_ORDER) > ORDER_TOL:
        print(
            f"observed order {order:.2f} is outside {EXPECTED_ORDER} +/- {ORDER_TOL}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
