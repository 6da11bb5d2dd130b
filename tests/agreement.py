"""Agreement set of the supremum search, the domination audit and the
sharpness experiment: bit-level fingerprints to diff between two commits.

For random_profile(9100..9105, 6, d), lambda in {0, 0.5, 1} and 40 radii
from 0.02 to 60 r_K, at d in {1, 2, 3, 5, 6, 7, 10, 20, 30}, the search runs
in every region (the centered shell at lambda = 0 only): 21,600 radii, each
searched alone.  Per (d, region) the script prints one SHA-256 of the value
and converged bits and one of the alpha and beta bits.  It then prints one
SHA-256 over 360 random-ball domination reports (their JSON): d in {1..7,
10, 20, 30}, lambda in {0, 0.5, 1}, the unit ball and random_profile(11 and
12, 6, d), 1000 and 16385 balls, and R in {0.5, 2} r_K.  Last it prints the
sharpness experiment's digests, at the same d and lambda, r in {0.25, 0.7,
1, 3} and t in {1e-4, 1e-3, 1e-2, 0.1, 0.3}: one over the single-radius
calls at r = 1 and one over every call, rows, warnings and errors.

The script imports only public names, so running it with PYTHONPATH set to
each commit's src compares the two:

    PYTHONPATH=src python tests/agreement.py > agreement.txt

A change that keeps every value leaves the first digests equal; the second
ones also move where a tie between two bit-equal values picks another beta.
agreement_set() yields the arrays themselves, for counting such ties,
domination_reports() the reports' JSON and sharpness_rows() the sharpness
calls, for comparing rows within a tolerance.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np

from ballmax.analysis import sharpness_experiment
from ballmax.maximal import RegionKind, maximal_value_detailed
from ballmax.profiles import OperatorConfig, StepProfile, random_profile
from ballmax.verify import McConfig, check_random_ball_domination

DIMS = (1, 2, 3, 5, 6, 7, 10, 20, 30)
LAMS = (0.0, 0.5, 1.0)
SEEDS = range(9100, 9106)
RADII = np.geomspace(0.02, 60.0, 40)
DOMINATION_DIMS = (1, 2, 3, 4, 5, 6, 7, 10, 20, 30)
SHARPNESS_RADII = (0.25, 0.7, 1.0, 3.0)
SHARPNESS_THRESHOLDS = (1e-4, 1e-3, 1e-2, 0.1, 0.3)


def agreement_set():
    """Yield (d, region, value, alpha, beta, converged), the arrays running
    over seeds, then lambdas, then radii."""
    for d in DIMS:
        profiles = [random_profile(seed, 6, d) for seed in SEEDS]
        for region in RegionKind:
            lams = (0.0,) if region is RegionKind.CENTERED_SHELL else LAMS
            results = [
                maximal_value_detailed(g, OperatorConfig(d, lam), float(R), region)
                for g in profiles
                for lam in lams
                for R in RADII * g.support_radius
            ]
            yield (d, region) + tuple(
                np.array([getattr(res, key) for res in results])
                for key in ("value", "alpha", "beta", "converged")
            )


def domination_reports():
    """Yield the JSON of each domination report, the loops running over d,
    lambda, profile, ball count and radius."""
    for d in DOMINATION_DIMS:
        profiles = [StepProfile(((1.0, 1.0),)), random_profile(11, 6, d), random_profile(12, 6, d)]
        for lam in LAMS:
            for g in profiles:
                for n in (1000, 16385):
                    for f in (0.5, 2.0):
                        rep = check_random_ball_domination(
                            g, OperatorConfig(d, lam), f * g.support_radius, McConfig(1, n)
                        )
                        yield json.dumps(rep.to_dict(), sort_keys=True)


def sharpness_rows():
    """Yield (d, lambda, radii, rows, warnings) per sharpness call: at each
    d and lambda the single-radius call at r = 1, then the call over every
    radius.  rows is the error text where the call raises, and warnings
    lists each warning's category and message."""
    for d in DIMS:
        for lam in LAMS:
            for radii in ((1.0,), SHARPNESS_RADII):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        rows = sharpness_experiment(OperatorConfig(d, lam), radii, SHARPNESS_THRESHOLDS)
                    except Exception as exc:
                        rows = f"{type(exc).__name__}: {exc}"
                seen = [(w.category.__name__, str(w.message)) for w in caught]
                yield d, lam, radii, rows, seen


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
    h, count = hashlib.sha256(), 0
    for text in domination_reports():
        h.update(text.encode())
        count += 1
    print(f"domination reports {count} {h.hexdigest()}")
    unit, every, count = hashlib.sha256(), hashlib.sha256(), 0
    for call in sharpness_rows():
        text = json.dumps(call).encode()
        every.update(text)
        if call[2] == (1.0,):
            unit.update(text)
        count += 1
    print(f"sharpness calls {count} r=1 {unit.hexdigest()}  every {every.hexdigest()}")


if __name__ == "__main__":
    main()
