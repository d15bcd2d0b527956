"""Command-line front end: explain runs, oracle validation, depth benchmarks.

Exit codes: 0 success, 1 validation sweep found a deviation, 2 bad input or
configuration, 3 memory budget exceeded.  The TREESHAP_HD_LOG environment
variable sets log verbosity (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .cubes import BANZHAF, INTERACTION, SHAPLEY
from .engine import (
    BACKGROUND,
    DENSE_BASELINE_CAP,
    PATH_DEPENDENT,
    ExplainRequest,
    ExplainStats,
    brute_force_background,
    brute_force_path_dependent,
    explain,
    explain_dense,
    projected_peak_bytes,
)
from .errors import (
    BudgetExceededError,
    ParseError,
    TreeShapHDError,
    ValidationError,
)
from .fastmult import count_operations
from .model import load_canonical, load_lightgbm_text
from .patterns import DEFAULT_FEATURE_CAP
from .synthetic import deep_path_model, random_dataset, random_model

log = logging.getLogger("treeshap_hd")


@dataclass
class RunConfig:
    model_path: str | None = None
    model_format: str = "canonical"
    consumer_path: str | None = None
    background_path: str | None = None
    mode: str = BACKGROUND
    functional: str = SHAPLEY
    output_path: str | None = None
    threads: int = 1
    memory_budget_bytes: int | None = None
    depth_cap: int = DEFAULT_FEATURE_CAP
    seed: int = 0


@dataclass
class BenchReport:
    """One record per (depth, method); depths listed in increasing order."""

    records: list = field(default_factory=list)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"records": self.records}, fh, indent=2)

    def summary(self) -> str:
        lines = [
            f"{'depth':>5} {'method':>6} {'mode':>14} {'seconds':>10} "
            f"{'peak_bytes':>12} {'adds':>14} {'muls':>12}"
        ]
        for rec in self.records:
            if rec.get("skipped"):
                lines.append(
                    f"{rec['depth']:>5} {rec['method']:>6} {rec['mode']:>14} "
                    f"{'skipped: ' + rec['reason']:>51}"
                )
            else:
                lines.append(
                    f"{rec['depth']:>5} {rec['method']:>6} {rec['mode']:>14} "
                    f"{rec['wall_time_seconds']:>10.4f} {rec['peak_bytes']:>12} "
                    f"{rec['adds']:>14} {rec['muls']:>12}"
                )
        return "\n".join(lines)


def _load_csv(path):
    """Read a headered CSV of finite reals; report the first offending cell."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ParseError(f"{path}: empty CSV")
        data = []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise ValidationError(f"{path}: row {r} has {len(row)} cells, header has {len(header)}")
            parsed = []
            for c, cell in enumerate(row):
                try:
                    v = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: row {r}, column {header[c]}: {cell!r} is not a number"
                    ) from None
                if v != v:
                    raise ValidationError(f"{path}: row {r}, column {header[c]}: NaN value")
                if v in (float("inf"), float("-inf")):
                    raise ValidationError(f"{path}: row {r}, column {header[c]}: non-finite value")
                parsed.append(v)
            data.append(parsed)
    X = np.array(data, dtype=np.float64).reshape(len(data), len(header))
    return header, X


def _load_model(config: RunConfig):
    if config.model_path is None:
        raise ValidationError("--model is required")
    if config.model_format == "canonical":
        return load_canonical(config.model_path)
    if config.model_format == "lightgbm_text":
        return load_lightgbm_text(config.model_path)
    raise ValidationError(f"unknown model format {config.model_format!r}")


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _write_values_csv(path, result, n_features, functional):
    interaction = functional == INTERACTION
    if interaction:
        cols = [f"phi_{i}_{j}" for i in range(n_features) for j in range(n_features)]
    else:
        cols = [f"phi_{i}" for i in range(n_features)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_id", "base_value"] + cols)
        base = _fmt(result.base_value)
        for row_id, row in enumerate(result.values):
            writer.writerow([row_id, base] + [_fmt(v) for v in row.reshape(-1)])


def cmd_explain(config: RunConfig) -> int:
    """Explain every row of the consumer CSV and write one CSV row per consumer."""
    model = _load_model(config)
    if config.consumer_path is None:
        raise ValidationError("--data is required")
    if config.output_path is None:
        raise ValidationError("--output is required")
    header, X = _load_csv(config.consumer_path)
    if model.feature_names is not None and header != model.feature_names:
        raise ValidationError("consumer CSV header does not match model feature names")
    background = None
    if config.mode == BACKGROUND:
        if config.background_path is None:
            raise ValidationError("--background is required in background mode")
        bg_header, background = _load_csv(config.background_path)
        if model.feature_names is not None and bg_header != model.feature_names:
            raise ValidationError("background CSV header does not match model feature names")

    request = ExplainRequest(model, X, background, config.mode, config.functional)
    result = explain(
        request,
        threads=config.threads,
        memory_budget_bytes=config.memory_budget_bytes,
        depth_cap=config.depth_cap,
    )
    log.info("explained %d rows", len(X))
    _write_values_csv(config.output_path, result, model.n_features, config.functional)
    return 0


def cmd_validate(config: RunConfig, max_depth: int = 6, trials: int = 50) -> int:
    """Random-model sweep of the engine against every oracle pair.

    Exit 0 iff the engine matches brute force and the dense baseline to 1e-8
    everywhere; exit 1 (printing the failing seed) otherwise; exit 2 when the
    sweep parameters leave nothing to validate.
    """
    if trials <= 0:
        print("validate: nothing to do (trials must be positive)", file=sys.stderr)
        return 2
    if max_depth > 8:
        raise ValidationError("validate caps --max-depth at 8 (brute-force budget)")
    tolerance = 1e-8
    deviations: dict[str, float] = {}
    n_features = 8

    for trial in range(trials):
        seed = config.seed + trial
        model = random_model(seed, max_depth=max_depth, n_features=n_features, n_trees=2)
        rng = np.random.default_rng(seed + 10_001)
        consumers = random_dataset(rng, 4, n_features)
        bg = random_dataset(rng, 8, n_features)
        for mode in (BACKGROUND, PATH_DEPENDENT):
            for functional in (SHAPLEY, BANZHAF, INTERACTION):
                request = ExplainRequest(
                    model, consumers, bg if mode == BACKGROUND else None, mode, functional
                )
                got = explain(request, depth_cap=config.depth_cap)
                dense = explain_dense(request)
                for row in range(len(consumers)):
                    if mode == BACKGROUND:
                        want, base = brute_force_background(
                            model, consumers[row], bg, functional
                        )
                    else:
                        want, base = brute_force_path_dependent(
                            model, consumers[row], functional
                        )
                    name = f"{mode}/{functional}/bruteforce"
                    dev = float(np.max(np.abs(got.values[row] - want)))
                    dev = max(dev, abs(got.base_value - base))
                    deviations[name] = max(deviations.get(name, 0.0), dev)
                    if dev > tolerance:
                        print(f"validate: FAILED seed={seed} pair={name} deviation={dev:.3e}")
                        return 1
                name = f"{mode}/{functional}/dense_baseline"
                dev = float(np.max(np.abs(got.values - dense.values)))
                dev = max(dev, abs(got.base_value - dense.base_value))
                deviations[name] = max(deviations.get(name, 0.0), dev)
                if dev > tolerance:
                    print(f"validate: FAILED seed={seed} pair={name} deviation={dev:.3e}")
                    return 1

    for name in sorted(deviations):
        print(f"validate: {name}: max deviation {deviations[name]:.3e}")
    print(f"validate: OK ({trials} trials, max depth {max_depth})")
    return 0


def _bench_request(config: RunConfig, depth: int) -> ExplainRequest:
    model = deep_path_model(depth, config.seed)
    rng = np.random.default_rng(config.seed + 7)
    consumers = random_dataset(rng, 64, model.n_features)
    background = random_dataset(rng, 64, model.n_features) if config.mode == BACKGROUND else None
    return ExplainRequest(model, consumers, background, config.mode, config.functional)


def _bench_one(config: RunConfig, request, depth: int, method: str, repeats: int):
    best = None
    for _ in range(max(repeats, 1)):
        stats = ExplainStats()
        with count_operations() as ops:
            start = time.perf_counter()
            if method == "hd":
                explain(request, depth_cap=config.depth_cap, stats=stats)
            else:
                explain_dense(request, depth_cap=DENSE_BASELINE_CAP, stats=stats)
            elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    # hd: tables plus the largest leaf working set; dense: tables plus three 2^depth vectors
    peak = stats.table_bytes + (stats.peak_bytes if method == "hd" else 3 * 8 * (1 << depth))
    return {
        "depth": depth,
        "wall_time_seconds": best,
        "peak_bytes": int(peak),
        "adds": int(ops.adds),
        "muls": int(ops.muls),
        "mode": config.mode,
        "method": method,
    }


def cmd_bench(
    config: RunConfig, depths, methods=("hd",), repeats: int = 1
) -> tuple[int, BenchReport]:
    """Time the full pipeline on deep-spine models at each depth.

    Configurations whose projected peak memory (:func:`projected_peak_bytes`)
    exceeds the budget, and dense runs past the baseline cap, are skipped with
    a recorded reason instead of run.
    """
    report = BenchReport()
    budget = config.memory_budget_bytes
    for depth in sorted(depths):
        request = _bench_request(config, depth)
        for method in methods:
            over_cap = method == "dense" and depth > DENSE_BASELINE_CAP
            over_budget = budget is not None and (
                projected_peak_bytes(request, dense=method == "dense") > budget
            )
            if over_cap or over_budget:
                report.records.append(
                    {
                        "depth": depth,
                        "method": method,
                        "mode": config.mode,
                        "skipped": True,
                        "reason": "budget",
                    }
                )
                log.info("bench: skipping depth=%d method=%s (budget)", depth, method)
                continue
            rec = _bench_one(config, request, depth, method, repeats)
            report.records.append(rec)
            log.info("bench: depth=%d method=%s %.4fs", depth, method, rec["wall_time_seconds"])
    if config.output_path:
        report.write(config.output_path)
    print(report.summary())
    return 0, report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# every RunConfig flag, its destination being the RunConfig field it sets
_FLAGS = {
    "--model": {"dest": "model_path"},
    "--model-format": {"choices": ["canonical", "lightgbm_text"], "default": "canonical"},
    "--data": {"dest": "consumer_path"},
    "--background": {"dest": "background_path"},
    "--mode": {"choices": [BACKGROUND, PATH_DEPENDENT], "default": BACKGROUND},
    "--values": {
        "choices": [SHAPLEY, BANZHAF, INTERACTION], "default": SHAPLEY, "dest": "functional"
    },
    "--output": {"dest": "output_path"},
    "--threads": {"type": int, "default": 1},
    "--memory-budget": {"type": int, "dest": "memory_budget_bytes"},
    "--depth-cap": {"type": int, "default": DEFAULT_FEATURE_CAP},
    "--seed": {"type": int, "default": 0},
}

# the flags each subcommand reads; any other is an argparse error
_COMMAND_FLAGS = {
    "explain": (
        "--model", "--model-format", "--data", "--background", "--mode", "--values",
        "--output", "--threads", "--memory-budget", "--depth-cap",
    ),
    "validate": ("--depth-cap", "--seed"),
    "bench": ("--mode", "--values", "--output", "--memory-budget", "--depth-cap", "--seed"),
}


def _config_from(args) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in vars(args).items() if k in names})


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("TREESHAP_HD_LOG", "WARNING").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = argparse.ArgumentParser(
        prog="treeshap-hd",
        description="Exact attributions for decision-tree ensembles, deep trees included.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        if name == "validate":
            sp.add_argument("--max-depth", type=int, default=6, dest="max_depth")
            sp.add_argument("--trials", type=int, default=50)
        if name == "bench":
            sp.add_argument("--depths", default="6,8,10")
            sp.add_argument("--method", choices=["hd", "dense", "both"], default="hd")
    args = parser.parse_args(argv)

    try:
        config = _config_from(args)
        if args.command == "explain":
            return cmd_explain(config)
        if args.command == "validate":
            return cmd_validate(config, max_depth=args.max_depth, trials=args.trials)
        depths = [int(d) for d in str(args.depths).split(",") if d.strip()]
        methods = ("hd", "dense") if args.method == "both" else (args.method,)
        code, _report = cmd_bench(config, depths, methods)
        return code
    except BudgetExceededError as exc:
        print(f"treeshap-hd: {exc}", file=sys.stderr)
        return 3
    except (TreeShapHDError, OSError) as exc:
        print(f"treeshap-hd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
