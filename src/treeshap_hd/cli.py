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
import math
import os
import stat
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import chain, islice

import numpy as np

from .cubes import BANZHAF, INTERACTION, SHAPLEY
from .engine import (
    BACKGROUND,
    PATH_DEPENDENT,
    ExplainRequest,
    explain,
    prepare,
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
from .oracles import DENSE_BASELINE_CAP, brute_force_background, brute_force_path_dependent
from .oracles import explain_dense, projected_dense_peak_bytes
from .patterns import DEFAULT_FEATURE_CAP
from .synthetic import deep_path_model, random_dataset, random_model

log = logging.getLogger("treeshap_hd")

# Consumer values a streamed explain parses, explains and writes at a time:
# 3,276 rows of 20 features, 512 KiB of parsed rows
CHUNK_VALUES = 1 << 16
# CSV values parsed in one stream; a bad cell is worded from its block's rows
_PARSE_VALUES = 1 << 9


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
            f"{'projected_bytes':>15} {'adds':>14} {'muls':>12}"
        ]
        for rec in self.records:
            if rec.get("skipped"):
                lines.append(
                    f"{rec['depth']:>5} {rec['method']:>6} {rec['mode']:>14} "
                    f"{'skipped: ' + rec['reason']:>54}"
                )
            else:
                lines.append(
                    f"{rec['depth']:>5} {rec['method']:>6} {rec['mode']:>14} "
                    f"{rec['wall_time_seconds']:>10.4f} {rec['projected_bytes']:>15} "
                    f"{rec['adds']:>14} {rec['muls']:>12}"
                )
        return "\n".join(lines)


def _utf8_lines(fh, path):
    # a byte that is not UTF-8 is a parse error naming the file; as a bare
    # UnicodeDecodeError (a ValueError) it would read as a bad cell
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from None


def _csv_header(reader, path):
    header = next(reader, None)
    if not header:
        raise ParseError(f"{path}: empty CSV")
    return header


def _read_rows(reader, header, path, limit=None, first=0):
    """The next ``limit`` data rows (all for None) as a (rows, columns) array.

    ``first`` is the first one's index among the file's data rows.  Each
    block of ``_PARSE_VALUES`` values goes through ``float()`` in one stream;
    a failing block is diagnosed cell by cell from its own rows
    (:func:`_parsed_row`), so no input is read twice, and as every earlier
    block parsed clean, the first offending cell in row-major order is named.
    """
    step = max(1, _PARSE_VALUES // len(header))
    blocks, read = [], 0
    while limit is None or read < limit:
        rows = list(islice(reader, step if limit is None else min(step, limit - read)))
        if not rows:
            break
        try:
            if set(map(len, rows)) != {len(header)}:
                raise ValueError("row length differs from the header's")
            X = np.fromiter(map(float, chain.from_iterable(rows)), dtype=np.float64)
        except ValueError:
            X = None
        if X is None or not np.isfinite(X).all():
            for r, row in enumerate(rows, first + read):
                _parsed_row(r, row, header, path)
            raise ParseError(f"{path}: rows fail to parse, but no cell is at fault")
        blocks.append(X.reshape(-1, len(header)))
        read += len(rows)
    return np.concatenate([np.empty((0, len(header))), *blocks])


def _load_csv(path):
    """Read a headered CSV of finite reals; report the first offending cell."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        header = _csv_header(reader, path)
        return header, _read_rows(reader, header, path)


def _parsed_row(r, row, header, path):
    """Data row r's values; raises for its first offending cell, naming row r and its column."""
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
    return parsed


def _data_rows(path) -> tuple:
    """Data rows of a headered CSV, counted from its line ends without parsing it,
    and whether that count is exact.

    A quoted cell may span lines, so the count can exceed the rows; it is
    exact when the file holds no ``"`` byte (csv keeps a line end only inside
    quotes) and no blank line, which would fail to parse (a bare ``\r`` ends
    a row too, so it can only make the count fall short).  Anything but a
    regular file counts as 0, not exact, as reading a pipe would consume it.
    """
    if not os.path.isfile(path):
        return 0, False
    lines, tail, exact = 0, b"\n", True
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            lines += block.count(b"\n")
            edge = tail + block  # a blank line may straddle two blocks
            exact = exact and b'"' not in block and b"\n\n" not in edge and b"\n\r\n" not in edge
            tail = block[-2:]
    return max(0, lines + (tail[-1:] != b"\n") - 1), exact


def _load_model(config: RunConfig):
    if config.model_path is None:
        raise ValidationError("--model is required")
    if config.model_format == "canonical":
        return load_canonical(config.model_path)
    if config.model_format == "lightgbm_text":
        return load_lightgbm_text(config.model_path)
    raise ValidationError(f"unknown model format {config.model_format!r}")


@contextmanager
def _replacing(path):
    """A text file that takes the place of ``path`` when the block completes.

    It is written beside ``path`` under a temporary name; if the block
    raises, it is removed and ``path`` is left as it was.  A ``path`` that is
    a symlink, device or pipe (``/dev/stdout``, say) is written through in
    place instead.
    """
    path = os.fspath(path)
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _values_header(n_features, functional):
    if functional == INTERACTION:
        cols = [f"phi_{i}_{j}" for i in range(n_features) for j in range(n_features)]
    else:
        cols = [f"phi_{i}" for i in range(n_features)]
    return ",".join(["row_id", "base_value"] + cols) + "\r\n"


def _value_lines(result, start=0):
    """One CSV line per row of ``result``, row ids counted from ``start``.

    Every value has 17 significant digits and every line ends in ``\\r\\n``,
    as ``csv.writer`` ends them; ``"%.17g" % v`` is the same string as
    ``format(v, ".17g")`` for every float.
    """
    values = result.values.reshape(len(result.values), math.prod(result.values.shape[1:]))
    row_format = "%d," + format(result.base_value, ".17g") + ",%.17g" * values.shape[1] + "\r\n"
    return (row_format % (row_id, *row.tolist()) for row_id, row in enumerate(values, start))


def _chunk_rows(n_features) -> int:
    return max(1, CHUNK_VALUES // max(n_features, 1))


def _projected_bytes(request, chunk_rows=None, n_rows=None) -> int:
    """The budget figure of an explain run: the engine's projection
    (:func:`projected_peak_bytes`, for chunks of ``chunk_rows`` rows when
    given, else for one pass over ``n_rows`` rows, by default
    ``request.consumers``), plus the parsed consumer rows (all of them, or one
    chunk) and background rows, each with the growth buffer ``np.fromiter``
    fills."""
    n = chunk_rows if chunk_rows is not None else len(request.consumers) if n_rows is None else n_rows
    m = 0 if request.background is None else len(request.background)
    parsed = 16 * request.model.n_features * (n + m)
    return projected_peak_bytes(request, chunk_rows=chunk_rows, n_rows=n_rows) + parsed


def _streams(request, n) -> bool:
    """Whether :func:`cmd_explain` explains n consumer rows chunk by chunk:
    when they are more than one chunk and the streamed :func:`_projected_bytes`
    figure is smaller than one pass's.  Logs the shape and the figures compared."""
    chunk = _chunk_rows(request.model.n_features)
    if n <= chunk:
        log.info("explain: one pass: %d rows counted, one chunk holds %d", n, chunk)
        return False
    streamed, one_pass = _projected_bytes(request, chunk), _projected_bytes(request, n_rows=n)
    log.info(
        "explain: %s: %d rows counted, %d B streamed in %d-row chunks against %d B in one pass",
        "streamed" if streamed < one_pass else "one pass", n, streamed, chunk, one_pass,
    )
    return streamed < one_pass


def _check_budget(budget, request, chunk_rows=None, n_rows=None) -> None:
    if budget is not None:
        projected = _projected_bytes(request, chunk_rows, n_rows)
        if projected > budget:
            raise BudgetExceededError(f"projected peak {projected} bytes exceeds budget {budget}")


def cmd_explain(config: RunConfig) -> int:
    """Explain every row of the consumer CSV and write one CSV row per consumer.

    One loop parses, explains and writes the rows.  The run streams when the
    file's rows (as :func:`_data_rows` counts them) are more than one chunk
    and the streamed :func:`_projected_bytes` figure is smaller than that of
    one pass over them (:func:`_streams`): it prepares every leaf once, then
    takes ``CHUNK_VALUES`` values at a time through
    :meth:`PreparedExplainer.rows`.  Otherwise every row is one chunk for one
    :func:`explain` call.  Both write the same bytes.  ``--memory-budget`` is
    checked against the chosen shape's figure, the smaller of the two: before
    :func:`prepare`, or once the whole file's rows are parsed, and also
    before that when :func:`_data_rows` counts them exactly.
    """
    model = _load_model(config)
    if config.consumer_path is None:
        raise ValidationError("--data is required")
    if config.output_path is None:
        raise ValidationError("--output is required")
    if config.threads < 1:
        raise ValidationError("threads must be >= 1")
    path = config.consumer_path
    n, exact = _data_rows(path)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        header = _csv_header(reader, path)
        if model.feature_names is not None and header != model.feature_names:
            raise ValidationError("consumer CSV header does not match model feature names")
        background = None
        if config.mode == BACKGROUND:
            if config.background_path is None:
                raise ValidationError("--background is required in background mode")
            bg_header, background = _load_csv(config.background_path)
            if model.feature_names is not None and bg_header != model.feature_names:
                raise ValidationError("background CSV header does not match model feature names")
        request = ExplainRequest(model, None, background, config.mode, config.functional)
        streamed = _streams(request, n)
        chunk = _chunk_rows(model.n_features) if streamed else None
        if streamed:
            _check_budget(config.memory_budget_bytes, request, chunk)
            prepared = prepare(request, depth_cap=config.depth_cap)
        elif exact:  # the figure of the parsed rows, known before they are parsed
            _check_budget(config.memory_budget_bytes, request, n_rows=n)
        X = _read_rows(reader, header, path, chunk)
        if not streamed:
            request.consumers = X
            _check_budget(config.memory_budget_bytes, request)
        start = 0
        with _replacing(config.output_path) as out:
            out.write(_values_header(model.n_features, config.functional))
            while True:
                if streamed:
                    result = prepared.rows(X)
                else:
                    result = explain(request, depth_cap=config.depth_cap)
                out.writelines(_value_lines(result, start))
                start += len(X)
                last = not streamed or len(X) < chunk
                del X, result  # freed before the next chunk is parsed
                if last:
                    break
                X = _read_rows(reader, header, path, chunk, start)
    log.info("explained %d rows", start)
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


def _bench_one(config: RunConfig, request, depth: int, method: str, repeats: int, projected: int):
    best = None
    for _ in range(max(repeats, 1)):
        with count_operations() as ops:
            start = time.perf_counter()
            if method == "hd":
                explain(request, depth_cap=config.depth_cap, _store_all=True)
            else:
                explain_dense(request, depth_cap=DENSE_BASELINE_CAP)
            elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return {
        "depth": depth,
        "wall_time_seconds": best,
        "projected_bytes": projected,
        "adds": int(ops.adds),
        "muls": int(ops.muls),
        "mode": config.mode,
        "method": method,
    }


def cmd_bench(
    config: RunConfig, depths, methods=("hd",), repeats: int = 1
) -> tuple[int, BenchReport]:
    """Time the full pipeline on deep-spine models at each depth.

    ``hd`` runs store every diagonal level, the paper's layout.  Each record
    carries ``projected_bytes``, the run's :func:`projected_peak_bytes` for
    its layout (:func:`projected_dense_peak_bytes` for ``dense``): an upper
    estimate of its peak, not a measurement.  Dense runs
    past the baseline cap (reason ``dense_cap``), and configurations whose
    projection exceeds the budget (reason ``budget``), are skipped with a
    recorded reason instead of run.  scipy is imported before the first dense
    run, so no timed run pays its import.
    """
    report = BenchReport()
    budget = config.memory_budget_bytes
    if "dense" in methods:
        import scipy.sparse  # explain_dense would import it inside the first timed run
    for depth in sorted(depths):
        request = _bench_request(config, depth)
        for method in methods:
            skip = None
            if method == "dense" and depth > DENSE_BASELINE_CAP:
                skip = {"reason": "dense_cap"}
            else:
                if method == "dense":
                    projected = projected_dense_peak_bytes(request)
                else:
                    projected = projected_peak_bytes(request, _store_all=True)
                if budget is not None and projected > budget:
                    skip = {"reason": "budget", "projected_bytes": projected}
            if skip is not None:
                report.records.append(
                    {"depth": depth, "method": method, "mode": config.mode, "skipped": True, **skip}
                )
                log.info("bench: skipping depth=%d method=%s (%s)", depth, method, skip["reason"])
                continue
            rec = _bench_one(config, request, depth, method, repeats, projected)
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
    "--threads": {"type": int, "default": 1, "help": "accepted and ignored (at least 1): runs are serial"},
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
        try:
            depths = [int(d) for d in str(args.depths).split(",") if d.strip()]
        except ValueError:
            raise ValidationError(
                f"--depths takes comma-separated integers, got {args.depths!r}"
            ) from None
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
