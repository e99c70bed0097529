"""Scenario sweep: three expansion configs through one shared cache.

The staged :class:`~repro.pipeline.PipelineRunner` fingerprints every
stage by (dataset digest, relevant config sections, parent stages), so
a sweep over temporal-coupling values recomputes only the G_Day/G_Hour
community stages — cleaning, HAC condensation, Algorithm 1 and the
network rebuild run once for the whole grid.

Run:  python examples/scenario_sweep.py
"""

from repro import NetworkExpansionOptimiser
from repro.reporting import sweep_summary
from repro.synth import generate_paper_dataset


def main() -> None:
    print("Generating the synthetic Moby Bikes dataset (seed 7)...")
    raw = generate_paper_dataset(seed=7)

    optimiser = NetworkExpansionOptimiser(raw)
    axes = {"temporal.coupling": [0.05, 0.12, 0.30]}
    print(f"Sweeping {axes} — shared stages are computed once...")
    results = optimiser.run_sweep(axes)

    labels = [f"coupling={value}" for value in axes["temporal.coupling"]]
    print()
    print(
        sweep_summary(
            list(zip(labels, results)),
            title="TEMPORAL COUPLING SWEEP (paper default: 0.12)",
        )
    )
    print()
    print(
        "Lower coupling lets the time slices diverge: more, finer "
        "temporal communities and higher modularity — the paper's "
        "G_Basic -> G_Day -> G_Hour trend, now tunable per scenario."
    )


if __name__ == "__main__":
    main()
