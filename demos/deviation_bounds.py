"""Deviation bounds versus observed frequencies.

Two seeded experiments check that the theoretical deviation displays hold
with room to spare at desk scale:

  * Wasserstein-1 loss over a two-cell histogram net containing the truth,
    with the root-n deviation display (2/sqrt(n)) (1 + sqrt(2 xi) + eps/sqrt(n)).
  * TV loss over a Gaussian location grid, with the VC-type display driven
    by the grid's half-line dimension.

For each xi the frequency of {loss <= bound} must be at least 1 - e^{-xi}.

Run:  python3 demos/deviation_bounds.py
"""

import math

import pairfit.sim as sim
from pairfit.losses import LossSpec
from pairfit.measures import GaussianMeasure, UniformMeasure
from pairfit.models import ModelBuilderConfig

XIS = [0.5, 1.0, 2.0]


def show(title: str, table: dict) -> None:
    print(title)
    print(f"{'xi':>5}  {'bound':>10}  {'target':>8}  {'observed':>8}")
    for row in table["rows"]:
        print(
            f"{row['xi']:>5.1f}  {row['bound']:>10.4f}  "
            f"{row['target']:>8.4f}  {row['frequency']:>8.4f}"
        )
    print()


def main() -> None:
    w_scenario = sim.Scenario(
        truth=UniformMeasure(0.0, 1.0),
        model=ModelBuilderConfig(
            family="histogram-net", cells=2, value_grid=(0.5, 1.0, 1.5)
        ),
        loss=LossSpec.wasserstein1(),
        n=200,
        replications=500,
        seed=5,
    )
    show(
        "W loss, histogram net containing the truth (n = 200, 500 reps)",
        sim.deviation_frequency(sim.run_estimation(w_scenario, threads=2), XIS),
    )

    tv_scenario = sim.Scenario(
        truth=GaussianMeasure(0.0, 1.0),
        model=ModelBuilderConfig(
            family="gaussian-location-grid", d=1, lo=-1.0, hi=1.0, step=0.5
        ),
        loss=LossSpec.tv(),
        n=200,
        replications=500,
        seed=6,
    )
    show(
        "TV loss, Gaussian location grid (VC display, n = 200, 500 reps)",
        sim.deviation_frequency(sim.run_estimation(tv_scenario, threads=2), XIS),
    )
    print(f"targets are 1 - e^(-xi); e.g. xi = 1 gives {1 - math.exp(-1):.4f}")
    print("the displays are conservative, so observed frequencies sit at 1")


if __name__ == "__main__":
    main()
