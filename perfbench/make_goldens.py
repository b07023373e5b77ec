"""Write perfbench/goldens.json: reference outputs keyed by catalog class id.

Computed once on the catalog representatives themselves (no affine map), so
the benchmark's seeded affine images are checked against values from a
different input.  Takes about three minutes on one core.  Run from the repo
root:

    PYTHONPATH=src python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import json
import sys

from degstab import catalog, degreedrop, invariants
from degstab.anf import ANF

from workloads import GOLDENS_FILE, self_check


def main() -> int:
    reps = catalog.load_catalog()
    out = {
        "cubic_n8_profile": {},
        "quintic_n8_profile": {},
        "cubic_n9_deg_stab": {},
        "cubic_n9_codim3_count": {},
        "cubic_n12_hyperplanes": {},
    }
    for rep in reps:
        out["cubic_n8_profile"][rep.id] = list(degreedrop.profile(rep.anf(8), 3).fingerprint())
        out["cubic_n9_deg_stab"][rep.id] = degreedrop.deg_stab(rep.anf(9))
        g = ANF.from_monomials(12, rep.anf(8).monomials())
        out["cubic_n12_hyperplanes"][rep.id] = [
            degreedrop.dd_hyperplane_normal_space(g).count,
            invariants.r_k(g, 1).dim,
        ]
        if rep.id in catalog.HYPERPLANE_STABLE_DEG5_N8:
            out["quintic_n8_profile"][rep.id] = list(
                degreedrop.profile(rep.complement_anf(8), 3).fingerprint()
            )
        if rep.id in catalog.CODIM2_STABLE_DEG3_N8:
            out["cubic_n9_codim3_count"][rep.id] = degreedrop.degree_drop_count(rep.anf(9), 3)
        print(rep.id, file=sys.stderr, flush=True)
    bad = self_check(out)
    for line in bad:
        print(line, file=sys.stderr)
    with open(GOLDENS_FILE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
