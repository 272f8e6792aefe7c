"""Kinetic-energy partitions of N-particle systems in R^d.

From instantaneous positions and velocities the library computes the
hyperangular momenta (J, K, Lambda, L), the five decompositions of the
total kinetic energy into 19 terms, and, for random ensembles of systems,
the statistics of these terms together with their closed-form mean values.
"""

from ._batch import partition_batch
from .ensemble import (
    EQUAL_MASSES, MASS_MODES, RANDOM_MASSES, sample_system_block, substream,
)
from .expectations import (
    BOUNDED_TERMS, conjecture_means, conjecture_means_exact,
    random_mass_fit, residual_magnitude_approx,
)
from .harness import (
    StatAccumulator, TermReport, RunReport, report_rows, run_experiment,
    run_single, verify_report,
)
from .partitions import (
    MomentaResult, PartitionResult, SvdFactors, compute_partition,
    eigenvector_split_oracle, momenta_direct, momenta_fast, project_oracle,
    svd, svd_rates,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDED_TERMS", "EQUAL_MASSES", "MASS_MODES", "MomentaResult",
    "PartitionResult", "RANDOM_MASSES", "RunReport", "StatAccumulator",
    "SvdFactors", "TermReport", "compute_partition", "conjecture_means",
    "conjecture_means_exact", "eigenvector_split_oracle", "momenta_direct",
    "momenta_fast", "partition_batch", "project_oracle", "random_mass_fit",
    "report_rows", "residual_magnitude_approx", "run_experiment",
    "run_single", "sample_system_block", "substream", "svd", "svd_rates",
    "verify_report",
]
