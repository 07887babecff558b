"""Lattices shared by several test modules and the golden digests.

A plain module: it imports quadlat alone, so ``tests/test_golden.py``
runs on interpreters that have neither pytest nor hypothesis.
"""

from quadlat.lattice import direct_sum, make_lattice, standard
from quadlat.linalg import IntMatrix, det_exact


def random_even_lattice(rng, max_rank=4, max_det=50):
    while True:
        n = rng.randint(1, max_rank)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i + 1, n):
                v = rng.randint(-3, 3)
                rows[i][j] = v
                rows[j][i] = v
        d = det_exact(IntMatrix(rows))
        if d != 0 and abs(d) <= max_det:
            return make_lattice(rows)


def pool_lattices():
    """The isomorphism pool: small even lattices of rank 1 to 4, many
    pairs of them with equal discriminant groups."""
    gens = [standard("gen", k) for k in (2, -2, 4, -4, 6, -6, 8, -8, 12, -12)]
    u2 = standard("U", 2)
    return gens + [
        u2,
        standard("U", 4),
        standard("An", 3),
        standard("An", 3, -1),
        make_lattice([[2, 1, 0, 1], [1, 2, 1, 1], [0, 1, 2, 1], [1, 1, 1, 2]]),  # D4-like, (ℤ/2)²
        direct_sum(gens[0], gens[0]),
        direct_sum(gens[0], gens[1]),
        direct_sum(gens[1], gens[1]),
        direct_sum(gens[2], gens[2]),
        direct_sum(gens[2], gens[3]),
        direct_sum(gens[0], gens[4]),
        direct_sum(gens[1], gens[4]),
        direct_sum(gens[1], gens[5]),
        direct_sum(u2, gens[0]),
        direct_sum(u2, gens[1]),
        direct_sum(gens[0], gens[0], gens[0]),
    ]
