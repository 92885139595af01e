#!/usr/bin/env python3
"""Condition-ratio sweep over the regularization of a Hilbert matrix.

The x axis is -log10(alpha): small alpha means a severely ill-conditioned
matrix.  Writes results/hilbert_sweep.csv with one row per (alpha, method).
"""

import argparse
from pathlib import Path

import numpy as np

from precog.baselines import baseline_cond, condition_ratio
from precog.graph import full_topology
from precog.learn import HyperParams, optimize
from precog.matgen import hilbert
from precog.spectral import cond_spd, split_preconditioned_cond

METHODS = ("none", "dct", "dft", "jacobi", "gauss-seidel", "sor", "ssor")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--alphas", default="1,0.1,0.01,0.001,0.0001")
    ap.add_argument("--max-iter", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="results/hilbert_sweep.csv")
    args = ap.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n = args.n
    lines = ["alpha,neg_log10_alpha,method,cond,condition_ratio,log10_ratio"]
    for alpha in (float(a) for a in args.alphas.split(",")):
        R = hilbert(n, alpha)
        hp = HyperParams(max_iter=args.max_iter, seed=args.seed)
        learned = optimize(R, full_topology(n), hp)
        cond_learned = split_preconditioned_cond(R, learned.U)
        conds = {"precog": cond_learned} | {m: baseline_cond(m, R) for m in METHODS}
        for method, cond in sorted(conds.items()):
            ratio = condition_ratio(cond, cond_learned)
            lines.append(
                f"{alpha!r},{-np.log10(alpha)!r},{method},{cond!r},"
                f"{ratio!r},{np.log10(ratio)!r}"
            )
        print(f"alpha={alpha:g}: raw cond={cond_spd(R):.4g} "
              f"precog={cond_learned:.4g} gauss-seidel={conds['gauss-seidel']:.4g}")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
