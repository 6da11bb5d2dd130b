"""Agreement set of the supremum search: bit-level fingerprints to diff
between two commits.

For random_profile(9100..9105, 6, d), lambda in {0, 0.5, 1} and 40 radii
from 0.02 to 60 r_K, at d in {1, 2, 3, 5, 6, 7, 10, 20, 30}, the search runs
in every region (the centered shell at lambda = 0 only): 21,600 radii.  Per
(d, region) the script prints one SHA-256 of the value and converged bits
and one of the alpha and beta bits.  Run it on both commits and diff:

    PYTHONPATH=src python tests/agreement.py > agreement.txt

A change that keeps every value leaves the first digests equal; the second
ones also move where a tie between two bit-equal values picks another beta.
agreement_set() yields the arrays themselves, for counting such ties.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ballmax.maximal import OptimizerSettings, RegionKind, _supremum_batch
from ballmax.profiles import OperatorConfig, random_profile

DIMS = (1, 2, 3, 5, 6, 7, 10, 20, 30)
LAMS = (0.0, 0.5, 1.0)
SEEDS = range(9100, 9106)
RADII = np.geomspace(0.02, 60.0, 40)


def agreement_set():
    """Yield (d, region, value, alpha, beta, converged), the arrays running
    over seeds, then lambdas, then radii."""
    opt = OptimizerSettings()
    for d in DIMS:
        profiles = [random_profile(seed, 6, d) for seed in SEEDS]
        for region in RegionKind:
            lams = (0.0,) if region is RegionKind.CENTERED_SHELL else LAMS
            runs = [
                _supremum_batch(g, OperatorConfig(d, lam), RADII * g.support_radius, region, opt)
                for g in profiles
                for lam in lams
            ]
            yield (d, region) + tuple(np.concatenate([run[i] for run in runs]) for i in range(4))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def main() -> None:
    total = 0
    for d, region, value, alpha, beta, converged in agreement_set():
        total += value.size
        print(
            f"d={d:<2d} {region.value:<14s} n={value.size:<4d} "
            f"value+converged {_digest(value, converged)}  alpha+beta {_digest(alpha, beta)}"
        )
    print(f"radii {total}")


if __name__ == "__main__":
    main()
