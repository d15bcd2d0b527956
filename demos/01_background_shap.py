"""Background SHAP on a small ensemble, end to end.

Attributions answer: how much did each feature move this prediction away
from the average prediction over a background dataset?  We build a tiny
two-tree model, explain a few consumers, and double-check the engine against
brute-force enumeration.
"""

import numpy as np

from treeshap_hd import (
    BACKGROUND,
    SHAPLEY,
    DecisionTree,
    EnsembleModel,
    ExplainRequest,
    Leaf,
    SplitNode,
    explain,
)
from treeshap_hd.oracles import brute_force_background

rng = np.random.default_rng(0)

# A credit-scoring toy: feature 0 = income, 1 = age, 2 = debt.
tree_a = DecisionTree(
    SplitNode(0, 0.5,
              SplitNode(2, 0.4, Leaf(-1.0, 30.0), Leaf(-0.2, 30.0), 60.0),
              Leaf(0.8, 40.0), 100.0)
)
tree_b = DecisionTree(
    SplitNode(1, 0.35,
              Leaf(-0.3, 45.0),
              SplitNode(0, 0.7, Leaf(0.1, 35.0), Leaf(0.6, 20.0), 55.0), 100.0)
)
model = EnsembleModel([tree_a, tree_b], n_features=3, base_score=0.05,
                      feature_names=["income", "age", "debt"])

consumers = rng.uniform(0, 1, size=(4, 3))
background = rng.uniform(0, 1, size=(64, 3))

print("predictions:", np.round(model.predict(consumers), 4))
print("mean background prediction:", round(float(model.predict(background).mean()), 4))

result = explain(ExplainRequest(model, consumers, background, BACKGROUND, SHAPLEY))
print("\nbase value:", round(result.base_value, 4))
print("per-feature attributions (rows = consumers):")
for row, values in zip(consumers, result.values):
    parts = ", ".join(f"{n}={v:+.4f}" for n, v in zip(model.feature_names, values))
    print(f"  x={np.round(row, 2)} -> {parts}")

# Local accuracy: base value plus attributions reproduces each prediction.
totals = result.base_value + result.values.sum(axis=1)
print("\nlocal accuracy residuals:", np.abs(totals - model.predict(consumers)).max())

# The engine is exact: compare row 0 against definitional enumeration.
want, base = brute_force_background(model, consumers[0], background)
print("max |engine - brute force| on row 0:", np.abs(result.values[0] - want).max())
print("base values agree:", abs(result.base_value - base) < 1e-12)
