"""The benchmark's workloads: one ``squintlab run`` request shape each.

Why each was chosen is in README.md and BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One sweep request, repeated with per-sweep seeds in a closed loop."""

    name: str
    experiment: str
    antennas: int
    subcarriers: int
    trials: int

    @property
    def multiuser(self) -> bool:
        return self.experiment.endswith("-fs")

    def argv(self, seed: int, output: str, trials: int | None = None) -> list[str]:
        """Arguments of ``squintlab.cli.cli_main`` for one sweep request."""
        return [
            "run", self.experiment,
            "--n", str(self.antennas),
            "--m", str(self.subcarriers),
            "--trials", str(self.trials if trials is None else trials),
            "--seed", str(seed),
            "--output", output,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-as", "se-snr-as", 256, 64, 100),
        Workload("full-link", "se-snr-as", 1024, 256, 10),
        Workload("desk-fs", "se-snr-fs", 256, 64, 10),
    )
}
