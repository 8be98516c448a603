# Classical vs quantum values of the network Bell functionals.
#
# For each GHZ index l the functional I_l separates classical models
# (bounded by (sqrt(2)+1)(N-1)) from the reference realization, which
# sits at 3(N-1).  The repeater functionals K are two-party CHSH-style
# expressions with classical bound sqrt(2) and quantum value 2.

import itertools

import numpy as np

from gatecert import (
    born_table,
    classical_bound,
    evaluate,
    functional_I,
    functional_K,
    gate,
    k_sign_bits,
    reference_realization,
    seesaw_max,
)
from gatecert.network import DI


def main():
    n = 2
    u = gate("cz", n)
    table = born_table(reference_realization(n, u))

    print(f"joint-box functionals, n={n}")
    print(f"{'l':>4} {'classical':>12} {'reference':>12} {'see-saw':>12}")
    for bits in itertools.product((0, 1), repeat=n):
        f = functional_I(bits)
        c = classical_bound(f)
        q = evaluate(f, table, e=0, l=int("".join(map(str, bits)), 2))
        s = seesaw_max(f, restarts=8, seed=0).value
        print(f"{''.join(map(str, bits)):>4} {c:>12.6f} {q:>12.6f} {s:>12.6f}")

    table_di = born_table(reference_realization(n, u, scheme=DI))
    print()
    print("repeater functionals (same for every wing i)")
    print(f"{'k':>4} {'classical':>12} {'reference':>12} {'see-saw':>12}")
    for k in range(4):
        f = functional_K(1, k_sign_bits(k), n)
        c = classical_bound(f)
        q = evaluate(f, table_di, r={1: k})
        s = seesaw_max(f, restarts=8, seed=0).value
        print(f"{k:>4} {c:>12.6f} {q:>12.6f} {s:>12.6f}")

    print()
    print(f"classical gap for I:  {3*(n-1) - (np.sqrt(2)+1)*(n-1):.6f}")
    print(f"classical gap for K:  {2 - np.sqrt(2):.6f}")


if __name__ == "__main__":
    main()
