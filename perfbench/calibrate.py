"""Fixed reference work that gauges how fast the host runs right now.

    python3 perfbench/calibrate.py

``run.py`` starts this as a child, the same way as a workload instance and
with the same environment, between instances of an untraced run. It does
not import mdlasso, so no change to the program changes its cost: its wall
time moves only with the host. Its mix follows the workloads: interpreter
and numpy start-up, Gaussian draws of a 200 x 1000 design, products with
it, and plain Python loops.
"""

import numpy as np

DRAWS = 12
PRODUCTS = 60
LOOP = 300_000


def main():
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(DRAWS):
        X = rng.standard_normal((200, 1000))
        v = np.ones(1000)
        for _ in range(PRODUCTS):
            v = X.T @ (X @ v)
            v /= np.linalg.norm(v)
        acc += float(v[0])
    table = {}
    s = 0.0
    for i in range(LOOP):
        table[i & 1023] = s
        s += (i % 7) * 0.5
    return acc + s


if __name__ == "__main__":
    main()
