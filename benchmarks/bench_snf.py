"""Benchmark: compiled vs pure Smith-normal-form kernel.

Runs dense SNF on sparse incidence-like matrices of the constraint
systems' shape, and times the real workload (the degree-3 homotopy
computation, whose constraint system is the largest the acceptance
suite solves) under each kernel.  That workload no longer sends its
constraint systems through SNF: ``whcalc.lattice`` solves them by sparse
unimodular elimination, and SNF only sees the small relation matrices
of the quotients, so the two workload times differ little.  The matrix
table still measures the SNF kernels themselves.

    python benchmarks/bench_snf.py [--seed N]
"""

from __future__ import annotations

import argparse
import random
import time

from whcalc import _snf
from whcalc._snf import pure


def incidence_matrix(rng, m, n, per_row=3):
    """Boundary-operator-like test matrices: few +-1 entries per row.

    This is the shape of the real constraint systems.  Dense random
    matrices are deliberately not benchmarked: their invariant factors
    overflow int64 at sizes around 20x20 already, which is exactly the
    case the arbitrary-precision fallback exists for.
    """
    a = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in rng.sample(range(n), per_row):
            a[i][j] = rng.choice((-1, 1))
    return a


def time_call(fn, *args, repeat=3):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def bench_matrices(rng):
    print(f"{'size':>10} {'pure (s)':>12} {'compiled (s)':>14} {'speedup':>9}")
    for m, n in [(60, 80), (150, 200), (300, 400), (500, 650)]:
        a = incidence_matrix(rng, m, n)
        t_pure, out_pure = time_call(pure.smith, a, True)
        if _snf._compiled is None:
            print(f"{m}x{n:>5} {t_pure:>12.4f} {'(unavailable)':>14}")
            continue
        try:
            t_fast, out_fast = time_call(_snf._compiled.smith, a, True)
        except OverflowError:
            print(f"{m}x{n:>5} {t_pure:>12.4f} {'(fell back)':>14}")
            continue
        assert out_pure == out_fast, "backends disagree"
        print(f"{m}x{n:>5} {t_pure:>12.4f} {t_fast:>14.4f} "
              f"{t_pure / t_fast:>8.1f}x")


def bench_workload():
    import os
    import subprocess
    import sys
    code = (
        "import time\n"
        "from whcalc.abelian import InvolutiveAbelianGroup, homology_c2\n"
        "from whcalc.falg import moore_homotopy\n"
        "a = InvolutiveAbelianGroup.from_factors([2, 2], -1)\n"
        "t0 = time.perf_counter()\n"
        "assert moore_homotopy(a, 3) == homology_c2(a, 3)\n"
        "print(f'{time.perf_counter() - t0:.3f}')\n"
    )
    rows = []
    for label, env_extra in (("compiled", {}), ("pure", {"WHCALC_PURE": "1"})):
        if label == "compiled" and _snf._compiled is None:
            rows.append((label, None))
            continue
        env = dict(os.environ, **env_extra)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        rows.append((label, float(out.stdout.strip())))
    print("\ndegree-3 homotopy of Z/2+Z/2 (largest acceptance system):")
    for label, dt in rows:
        print(f"  {label:>9}: " + ("unavailable" if dt is None else f"{dt:.3f} s"))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20240801)
    args = parser.parse_args()
    print(f"active backend: {_snf.BACKEND}")
    bench_matrices(random.Random(args.seed))
    bench_workload()


if __name__ == "__main__":
    main()
