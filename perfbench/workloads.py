"""The benchmark's workloads: one `tritail report` config each, built from a seed.

Every workload runs the full report battery on a fixed coefficient law.  The
seed argument becomes ``sim.base_seed`` and is the only input that varies
between runs, so the same seed always gives the same config.  The seeds the
sizes were calibrated with are 7 (demo), 51 (coupled) and 61 (garch); see
README.md for why each workload exists and which layers it stresses.
"""

import os
from dataclasses import dataclass
from typing import Optional

ROOT_HALF = 0.5 ** 0.5


def _independent_law(a1_mu: float, a4_mu: float) -> dict:
    def lognormal(mu, sigma):
        return {"kind": "lognormal", "mu": mu, "sigma": sigma}

    return {
        "mode": "independent",
        "a1": lognormal(a1_mu, ROOT_HALF),
        "a2": lognormal(-0.5, 0.5),
        "a4": lognormal(a4_mu, ROOT_HALF),
        "b1": {"kind": "constant", "value": 1.0},
        "b2": {"kind": "constant", "value": 1.0},
    }


GARCH_LAW = {
    "mode": "garch",
    "alpha0": [0.05, 0.05],
    "alpha11": 0.10,
    "alpha12": 0.05,
    "alpha22": 0.35,
    "beta11": 0.85,
    "beta12": 0.05,
    "beta22": 0.60,
    "rho": 0.5,
}


@dataclass(frozen=True)
class Workload:
    name: str
    law: dict
    n_draws: int
    burn_in: int
    workers: int
    # Layers whose per-layer counters must be nonzero on this workload.
    layers: frozenset

    def config(self, seed: int, output_dir: str, n_draws: Optional[int] = None) -> dict:
        """The experiment config the program receives for this seed."""
        return {
            "name": self.name,
            "pipeline": "full_report",
            "law": self.law,
            "sim": {
                "n_draws": n_draws or self.n_draws,
                "base_seed": seed,
                "burn_in": self.burn_in,
            },
            "workers": min(self.workers, len(os.sched_getaffinity(0))),
            "output_dir": output_dir,
        }

    def sample_bytes(self, n_draws: int) -> int:
        """Computed size of the main sample: float64 arrays of n_draws each.

        Two arrays (w1, w2) for an independent law; six (x1, x2, sigma1^2,
        sigma2^2, z1, z2) for a GARCH path.
        """
        arrays = 6 if self.law["mode"] == "garch" else 2
        return arrays * 8 * n_draws


_INDEPENDENT_LAYERS = frozenset(
    {"laws", "engine", "tailstats", "spectral", "pipelines", "streams", "cli", "config"}
)

WORKLOADS = {
    w.name: w
    for w in (
        # The suite's C4 law (README demo): alpha1=1.5 < alpha2=3, regime A1.
        Workload("demo_report", _independent_law(-0.375, -0.75), 4_000_000, 2000, 1,
                 _INDEPENDENT_LAYERS),
        # The suite's C8 law: alpha1=3 > alpha2=1.5, regime A2.
        Workload("coupled_report", _independent_law(-0.75, -0.375), 4_000_000, 2000, 2,
                 _INDEPENDENT_LAYERS | {"renewal"}),
        # The README GARCH law.
        Workload("garch_report", GARCH_LAW, 10_000_000, 1000, 1,
                 frozenset({"laws", "engine", "tailstats", "renewal", "garch",
                            "pipelines", "streams", "cli", "config"})),
    )
}
