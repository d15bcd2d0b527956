"""Depth scaling: the 2^k k fast path against the 3^k dense baseline.

Runs the full pipeline on deep-spine models of growing depth and reports
wall time, instrumented operation counts and projected peak bytes.  The dense
baseline triples per extra level while the fast path roughly doubles, which
is the whole reason deep trees are tractable here.
"""

from treeshap_hd.cli import RunConfig, cmd_bench

config = RunConfig(seed=3)

print("=== fast path vs dense baseline (depths 6..11) ===")
_, low = cmd_bench(config, depths=range(6, 12), methods=("hd", "dense"), repeats=2)

print("\n=== fast path alone, deeper (depths 12..17) ===")
_, high = cmd_bench(config, depths=range(12, 18), methods=("hd",), repeats=2)

by_depth = {r["depth"]: r for r in high.records}
print("\nfast-path growth per extra level (expect about 2x):")
for d in range(12, 17):
    ratio = by_depth[d + 1]["wall_time_seconds"] / by_depth[d]["wall_time_seconds"]
    print(f"  t({d + 1}) / t({d}) = {ratio:.2f}")

low_pairs = {(r["depth"], r["method"]): r["wall_time_seconds"] for r in low.records}
print("\nfast/dense time ratio (expect it to fall as depth grows):")
for d in range(6, 12):
    print(f"  depth {d}: {low_pairs[(d, 'hd')] / low_pairs[(d, 'dense')]:.3f}")
