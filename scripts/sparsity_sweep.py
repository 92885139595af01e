#!/usr/bin/env python3
"""Condition ratios on random sparse positive definite systems at the five
preset sparsity levels, including the incomplete-LU baseline.

Writes results/sparsity_sweep.csv with one row per (density, method).
"""

import argparse
from pathlib import Path

import numpy as np

from precog.baselines import BASELINES, baseline_cond, condition_ratio
from precog.graph import full_topology
from precog.learn import HyperParams, optimize
from precog.matgen import SPARSITY_PRESETS, density, random_sparse_pd
from precog.spectral import cond_spd, split_preconditioned_cond


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--max-iter", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/sparsity_sweep.csv")
    args = ap.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n = args.n
    lines = ["target_density,achieved_density,method,cond,condition_ratio,log10_ratio"]
    for dens in SPARSITY_PRESETS:
        R = random_sparse_pd(n, dens, args.seed)
        hp = HyperParams(max_iter=args.max_iter, seed=args.seed)
        learned = optimize(R, full_topology(n), hp)
        cond_learned = split_preconditioned_cond(R, learned.U)
        conds = {"precog": cond_learned} | {m: baseline_cond(m, R) for m in BASELINES}
        achieved = density(R)
        for method, cond in sorted(conds.items()):
            ratio = condition_ratio(cond, cond_learned)
            lines.append(
                f"{dens!r},{achieved!r},{method},{cond!r},{ratio!r},{np.log10(ratio)!r}"
            )
        print(f"density={dens:.3f} (achieved {achieved:.3f}): raw={cond_spd(R):.1f} "
              f"precog={cond_learned:.2f} ilu0={conds['ilu0']:.2f}")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
