#!/usr/bin/env python3
"""Condition-ratio sweep over the correlation factor of a first-order
Markov process: every registered method against the learned transform.

Writes results/markov_sweep.csv with one row per (rho, method).
"""

import argparse
from pathlib import Path

import numpy as np

from precog.baselines import baseline_cond, condition_ratio
from precog.graph import banded_topology
from precog.learn import HyperParams, optimize
from precog.matgen import ar1_autocorr
from precog.spectral import split_preconditioned_cond

METHODS = ("none", "dct", "dft", "jacobi", "gauss-seidel", "sor", "ssor")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--rhos", default="0.1,0.3,0.5,0.7,0.9,0.95")
    ap.add_argument("--max-iter", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="results/markov_sweep.csv")
    args = ap.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n = args.n
    lines = ["rho,method,cond,condition_ratio,log10_ratio"]
    for rho in (float(r) for r in args.rhos.split(",")):
        R = ar1_autocorr(n, rho)
        hp = HyperParams(max_iter=args.max_iter, seed=args.seed)
        learned = optimize(R, banded_topology(n, 2), hp)
        cond_learned = split_preconditioned_cond(R, learned.U)
        conds = {"precog": cond_learned} | {m: baseline_cond(m, R) for m in METHODS}
        for method, cond in sorted(conds.items()):
            ratio = condition_ratio(cond, cond_learned)
            lines.append(
                f"{rho!r},{method},{cond!r},{ratio!r},{np.log10(ratio)!r}"
            )
        print(f"rho={rho}: precog={cond_learned:.3f} dct={conds['dct']:.3f} "
              f"raw={conds['none']:.1f}")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
