"""Definitional enumeration oracles shared by the test modules.

Everything here recomputes values from first principles (powerset loops,
per-row traversal) and deliberately shares no algorithmic code with the
package under test, except :func:`load_csv_cells`, which words its
diagnostics with the CLI's own per-row parser.
"""

import csv
import math
from itertools import chain, combinations

import numpy as np

from treeshap_hd.cli import _csv_header, _parsed_row, _utf8_lines


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def shapley_from_game(players, game):
    """phi[i] = sum over S without i of |S|!(n-|S|-1)!/n! * (game(S+i) - game(S))."""
    players = list(players)
    n = len(players)
    values = {}
    for i in players:
        others = [p for p in players if p != i]
        total = 0.0
        for coalition in powerset(others):
            s = len(coalition)
            weight = math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
            total += weight * (game(set(coalition) | {i}) - game(set(coalition)))
        values[i] = total
    return values


def banzhaf_from_game(players, game):
    """Uniform average of marginal contributions over the 2^(n-1) coalitions."""
    players = list(players)
    values = {}
    for i in players:
        others = [p for p in players if p != i]
        total = 0.0
        for coalition in powerset(others):
            total += game(set(coalition) | {i}) - game(set(coalition))
        values[i] = total / 2 ** len(others)
    return values


def interaction_from_game(players, game, i, j):
    """Shapley interaction index of the pair (i, j)."""
    players = list(players)
    n = len(players)
    others = [p for p in players if p not in (i, j)]
    total = 0.0
    for coalition in powerset(others):
        s = len(coalition)
        weight = math.factorial(s) * math.factorial(n - s - 2) / math.factorial(n - 1)
        base = set(coalition)
        delta = (
            game(base | {i, j})
            - game(base | {i})
            - game(base | {j})
            + game(base)
        )
        total += weight * delta
    return total


def cube_game(positive, negative, weight=1.0):
    positive, negative = set(positive), set(negative)

    def game(members):
        members = set(members)
        return weight if positive <= members and not (members & negative) else 0.0

    return game


def zeta_naive(v):
    """out[x] = sum of v[x'] over bitwise subsets x' of x, by direct loops."""
    n = len(v)
    out = np.zeros(n)
    for x in range(n):
        for sub in range(n):
            if sub & x == sub:
                out[x] += v[sub]
    return out


def zeta_reference(v):
    """In-place subset-zeta along the last axis, one plain strided add per pass.

    These are the additions the kernel must perform, operand for operand and
    in this order, whatever layout it walks them in; compare bit for bit.
    """
    bit = 1
    while bit < v.shape[-1]:
        w = v.reshape(-1, 2, bit)
        w[:, 1, :] += w[:, 0, :]
        bit <<= 1
    return v


def diagonal_matvec_reference(diag, f):
    """zeta(diag * zeta(f[::-1])) row by row, through :func:`zeta_reference`."""
    g = np.empty(np.shape(diag))
    g[...] = np.asarray(f, dtype=np.float64)[::-1]
    zeta_reference(g)
    g *= diag
    return zeta_reference(g)


def route_row(root, row):
    """Walk a tree with the canonical predicate conventions; return the leaf."""
    node = root
    while hasattr(node, "threshold"):
        value = row[node.feature]
        goes_left = value < node.threshold if node.cmp == "lt" else value <= node.threshold
        node = node.left if goes_left else node.right
    return node


def leaf_hit_counts(tree, X):
    """Map each leaf (by identity) to the number of rows reaching it."""
    counts = {}
    for row in np.asarray(X):
        leaf = route_row(tree.root, row)
        counts[id(leaf)] = counts.get(id(leaf), 0) + 1
    return counts


LEFT_CHAIN_SPLITS = 1100  # past Python's default recursion limit of 1000


def _left_chain_thresholds():
    # split i sends x0 <= 1 - (i + 1) / (splits + 1) left
    return 1.0 - np.arange(1, LEFT_CHAIN_SPLITS + 1) / (LEFT_CHAIN_SPLITS + 1)


def _left_chain_leaf_values():
    # leaf i is split i's right child; the last leaf ends the chain on the left
    return np.round(np.linspace(-1.0, 1.0, LEFT_CHAIN_SPLITS + 1), 6)


def left_chain_predictions(X):
    """Oracle for :func:`write_lightgbm_left_chain`: the first split a row
    fails picks its leaf; a row that fails none reaches the last leaf."""
    right = X[:, :1] > _left_chain_thresholds()[None, :]
    first = np.where(right.any(axis=1), right.argmax(axis=1), LEFT_CHAIN_SPLITS)
    return _left_chain_leaf_values()[first]


def write_lightgbm_left_chain(path):
    """A LightGBM text dump of one tree over two features: a chain of 1,100
    splits on feature 0, each with a leaf as its right child, covers throughout."""
    s = LEFT_CHAIN_SPLITS
    left = [str(i + 1) for i in range(s - 1)] + [str(-s - 1)]
    right = [str(-i - 1) for i in range(s)]
    lines = [
        "tree", "version=v3", "max_feature_idx=1", "",
        "Tree=0", f"num_leaves={s + 1}",
        "split_feature=" + " ".join(["0"] * s),
        "threshold=" + " ".join(repr(float(t)) for t in _left_chain_thresholds()),
        "decision_type=" + " ".join(["2"] * s),
        "left_child=" + " ".join(left),
        "right_child=" + " ".join(right),
        "leaf_value=" + " ".join(repr(float(v)) for v in _left_chain_leaf_values()),
        "leaf_count=" + " ".join(["2"] * (s + 1)),
        "internal_count=" + " ".join(str(2 * (s + 1 - i)) for i in range(s)),
        "", "end of trees",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return path


def write_values_csv_reference(path, values, base_value, interaction):
    """The CLI's values CSV written the plain way: ``csv.writer`` rows and one
    ``format(v, ".17g")`` call per value."""
    n_features = values.shape[1]
    if interaction:
        cols = [f"phi_{i}_{j}" for i in range(n_features) for j in range(n_features)]
    else:
        cols = [f"phi_{i}" for i in range(n_features)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_id", "base_value"] + cols)
        base = format(base_value, ".17g")
        for row_id, row in enumerate(values):
            writer.writerow([row_id, base] + [format(v, ".17g") for v in row.reshape(-1)])


def load_csv_cells(path):
    """Cell-by-cell reader: the first offending cell in row-major order."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        header = _csv_header(reader, path)
        data = [_parsed_row(r, row, header, path) for r, row in enumerate(reader)]
    return header, np.array(data, dtype=np.float64).reshape(len(data), len(header))
