"""The session-sweep workload: one library process sweeping horizons.

On squarefree and primes it computes the counting and log profiles,
lbd_estimate(nmax=256), bd_estimate_at over the n-grid and
bdm_window_sup_at(m=2, n=16) at each horizon of HORIZONS, smallest first,
then at one horizon again. It is the only workload in which a later call
could reuse what an earlier call materialized. Results are printed one line
per call with repr() floats, so the report bytes are deterministic.

    PYTHONPATH=src python3 perfbench/session.py
"""

from __future__ import annotations

import sys

from densitylab import density
from densitylab.intset import IntegerSetSpec
from densitylab.numerics import geometric_grid

HORIZONS = (125_000, 250_000, 500_000, 1_000_000, 500_000)
NMAX = 256


def main() -> int:
    grid = geometric_grid(2, NMAX)
    out = sys.stdout
    for kind in ("squarefree", "primes"):
        spec = IntegerSetSpec(kind)
        for horizon in HORIZONS:
            tag = f"{kind} {horizon}"
            counting = density.counting_profile(spec, "upper", horizon)
            out.write(f"{tag} counting {counting.checkpoints!r}\n")
            logp = density.log_profile(spec, horizon)
            out.write(f"{tag} log {logp.checkpoints!r}\n")
            out.write(f"{tag} lbd {density.lbd_estimate(spec, NMAX, horizon)!r}\n")
            bd = [density.bd_estimate_at(spec, n, horizon) for n in grid]
            out.write(f"{tag} bd {bd!r}\n")
            out.write(f"{tag} bdm {density.bdm_window_sup_at(spec, 2, 16, horizon)!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
