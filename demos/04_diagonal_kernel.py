"""Inside the engine: cube tables, their Sierpinski support, and the
diagonal-only fast multiply.

Each leaf induces one value matrix per path feature: entry (consumer
pattern, background pattern) is the functional's value on the cube those
patterns generate.  The support is the Sierpinski condition row|col ==
all-ones, the both-bits-clear quadrant is identically zero, and the
both-bits-set quadrant is the sum of the two mixed quadrants, so the whole
matrix is determined by its secondary diagonal -- which is all we store and
all the fast kernel ever reads.
"""

import numpy as np

from treeshap_hd import (
    build_diagonal_cache,
    count_operations,
    cube_shapley,
    diagonal_matvec,
)
from treeshap_hd.oracles import dense_from_diagonal, map_patterns_to_cubes

k = 3
table = map_patterns_to_cubes(["age", "bmi", "sugar"])
print(f"cube table for k={k}: {sum(len(r) for r in table.values())} entries (3^k)")
print("sample entry (consumer 110, background 001):", table[0b110][0b001])

dense = np.zeros((1 << k, 1 << k))
for pc, row in table.items():
    for pb, cube in row.items():
        dense[pc, pb] = cube_shapley(cube, "age")
print("\ndense Shapley matrix for 'age' (zeros shown as .):")
for row in dense:
    print("  " + " ".join(f"{v:+.2f}" if v else "  .  " for v in row))

diag = dense[np.arange(1 << k), (1 << k) - 1 - np.arange(1 << k)]
print("\nsecondary diagonal:", np.round(diag, 3))
print("reconstruction from the diagonal matches:",
      np.allclose(dense_from_diagonal(diag), dense))

f = np.random.default_rng(0).dirichlet(np.ones(1 << k))
with count_operations() as ops:
    fast = diagonal_matvec(diag, f)
print("\nM @ f via two zeta passes:", np.round(fast, 4))
print("dense product agrees:", np.allclose(fast, dense @ f))
print(f"cost: {ops.adds} adds + {ops.muls} muls  (k*2^k = {k << k}, 2^k = {1 << k})")

# One cache serves every path with the same number of unique features.
cache = build_diagonal_cache(depth=12)
print(f"\ndiagonal cache up to depth 12: {cache.nbytes / 1e6:.2f} MB "
      f"(a dense 3^k table would need ~{12 * 3**12 * 8 / 1e6:.0f} MB at k=12 alone)")
