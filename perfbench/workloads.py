"""The benchmark's workloads: synthetic inputs made from a seed, and the
options ``sdtdl fit`` runs with. README.md says why each workload exists.

Every workload draws its inputs with ``generate_synthetic`` (noise 0.05,
shift 0.5) and fits with ``delta`` 0.8. One run of the benchmark with seed
``n`` uses ``DATASETS`` data sets, drawn with the seeds ``dataset_seeds(n)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

SOURCE = "source.stdl"
SOURCE_LABELS = "source_labels.txt"
TARGET = "target.stdl"
TRUTH = "target_truth.txt"

# The work of a fit depends on the data set (HOOI stops on a tolerance, and
# class sizes follow the selection), so a run averages over several.
DATASETS = 3

_SMALL_MODES = ("--theta", "2", "--lambda", "0.1", "--gamma", "0.25", "--delta", "0.8")


def dataset_seeds(seed: int) -> list:
    """Generator seeds of one run's data sets; distinct runs get disjoint ones."""
    return [DATASETS * seed + k for k in range(DATASETS)]


@dataclass(frozen=True)
class Workload:
    name: str
    class_count: int
    dims: tuple
    ranks: tuple
    n_per_class: int  # source and target samples per class
    fit_options: tuple
    # BLAS/OpenMP threads, capped at the cores the benchmark may use. Only
    # exact-n, which applies dense (n_s+n_t)^2 operators, runs 1.6x faster
    # with two. For the others a second thread saved under 5% and made fit
    # times scatter: 0.66-1.04 s against 0.71-0.79 s on wide-n (2 EPYC vCPUs).
    blas_threads: int

    def generate(self, seed: int, directory: str) -> None:
        """Draw the inputs for ``seed`` and write them into ``directory``."""
        # Imported here so that the benchmark's entry point runs, and fails
        # cleanly, where the package is absent.
        from sdtdl import dataio

        spec = dataio.SyntheticSpec(
            class_count=self.class_count,
            dims=self.dims,
            ranks=self.ranks,
            n_source_per_class=self.n_per_class,
            n_target_per_class=self.n_per_class,
            noise=0.05,
            shift=0.5,
            seed=seed,
        )
        source, target, truth = dataio.generate_synthetic(spec)
        os.makedirs(directory, exist_ok=True)
        dataio.write_tensor(os.path.join(directory, SOURCE), source.samples)
        dataio.write_labels(os.path.join(directory, SOURCE_LABELS), source.labels)
        dataio.write_tensor(os.path.join(directory, TARGET), target.samples)
        dataio.write_labels(os.path.join(directory, TRUTH), truth)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-n", 5, (16, 16), (4, 4), 1000, ("--ranks", "4,4") + _SMALL_MODES, 1
        ),
        # 100 samples per class, not the ROADMAP's 300: at 300 only two or
        # three 9 s fits fit in a run (2 EPYC vCPUs), and run medians spread
        # by 8-9%.
        Workload("object", 10, (7, 7, 64), (6, 6, 28), 100, ("--preset", "object"), 1),
        Workload(
            "exact-n",
            2,
            (16, 16),
            (4, 4),
            2500,
            ("--ranks", "4,4") + _SMALL_MODES + ("--class-update", "exact"),
            2,
        ),
    )
}
