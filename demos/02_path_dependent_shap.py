"""Path-dependent SHAP: no background data, covers do the imputing.

When a feature is "absent", the traversal follows both branches weighted by
the training covers recorded on the nodes.  This demo explains rows from a
LightGBM text dump, whose internal/leaf counts provide those covers.
"""

import os

import numpy as np

from treeshap_hd import (
    PATH_DEPENDENT,
    SHAPLEY,
    ExplainRequest,
    explain,
    load_lightgbm_text,
)
from treeshap_hd.oracles import brute_force_path_dependent

dump = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "lightgbm_model.txt")
model = load_lightgbm_text(dump)
print(f"imported {len(model.trees)} trees over {model.n_features} features "
      f"({model.feature_names})")
print("depths:", [t.max_path_depth for t in model.trees],
      "unique features per deepest path:", [t.max_unique_features for t in model.trees])

rng = np.random.default_rng(1)
consumers = rng.uniform(0, 1, size=(3, model.n_features))

result = explain(ExplainRequest(model, consumers, None, PATH_DEPENDENT, SHAPLEY))
print("\nbase value (cover-weighted expected prediction):", round(result.base_value, 6))
for row, values, pred in zip(consumers, result.values, model.predict(consumers)):
    top = np.argsort(-np.abs(values))[:3]
    note = ", ".join(f"{model.feature_names[i]}={values[i]:+.4f}" for i in top)
    print(f"  prediction {pred:+.4f}: {note}")

totals = result.base_value + result.values.sum(axis=1)
print("\nlocal accuracy residuals:", np.abs(totals - model.predict(consumers)).max())

want, base = brute_force_path_dependent(model, consumers[0])
print("row 0 vs traversal oracle:", np.abs(result.values[0] - want).max())
