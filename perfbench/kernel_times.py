"""Per-call times of the three kernel operators at the benchmark's grid sizes.

    python3 perfbench/kernel_times.py [--repeats 5]

Single-threaded, like run.py. Each operator is called once to fill its
table cache, then timed over --repeats calls; the median is printed in ms.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

from cssol import grid, kernels  # noqa: E402

SIZES = ((12.0, 128), (16.0, 256), (16.0, 384), (40.0, 1024))


def median_ms(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    print(f"{'L,M':>9} {'vector_potential':>17} {'a_star':>9} {'superpotential':>15}  (ms)")
    for L, M in SIZES:
        g = grid.Grid(L, M)
        X, Y = g.mesh()
        rho = grid.GridField(g, np.exp(-(X**2 + Y**2) / 2.0) / (2.0 * np.pi))
        A1, A2 = kernels.vector_potential(rho)
        row = [median_ms(lambda: kernels.vector_potential(rho), args.repeats),
               median_ms(lambda: kernels.a_star(A1, A2), args.repeats),
               median_ms(lambda: kernels.superpotential(rho), args.repeats)]
        print(f"{f'{L:g},{M}':>9} {row[0]:17.1f} {row[1]:9.1f} {row[2]:15.1f}")


if __name__ == "__main__":
    main()
