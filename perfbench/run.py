"""treeshap-hd benchmark: rows/s, call time, peak memory and set-up time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Each run
builds one workload's model and rows, checks every call's output, and prints a
JSON object as its last line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: calls are timed back to back for
``--seconds`` with nothing instrumented, peak memory comes from one extra call
under ``tracemalloc`` that is not timed, and set-up time is the mean of
set-ups timed before the first call and after each call.  ``--trace 1`` alternates plain and traced calls for
``--seconds`` and reports per-layer metrics: spans around the package functions
``explain`` calls (see ``spans.py``), op counts, and an untimed counting pass
over the leaves.  Spans are written to ``.perfbench_out/`` when the run ends.

Every model comes from ``treeshap_hd.synthetic`` at model seed 0; ``--seed``
draws the consumer and background rows.  Model size drives the work: over
seeds 0-9 the leaf count of the 100-tree ensemble spreads 15% (quartile
distance over median), which would swamp any bound a regression check can use.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The string-hash seed moves dict and set layouts and, with them, call time
# from one process to the next; fixed, runs differ only by --seed and the machine.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if not (SRC / "treeshap_hd").is_dir():
    sys.exit(f"perfbench: no treeshap_hd package under {SRC}")
sys.path.insert(0, str(SRC))
try:
    import treeshap_hd
    from treeshap_hd import (
        INTERACTION,
        SHAPLEY,
        EnsembleModel,
        ExplainRequest,
        explain,
        explain_dense,
        iter_leaf_patterns,
        load_canonical,
        save_canonical,
    )
    from treeshap_hd.synthetic import deep_path_model, random_dataset, random_model
except ImportError as exc:
    sys.exit(f"perfbench: cannot import treeshap_hd from {SRC}: {exc}")

from spans import FIELDS, Recorder, installed, summarize

MODEL_SEED = 0
LOCAL_TOL = 1e-8  # acceptance criterion 08
DENSE_TOL = 1e-9  # acceptance criterion 03
DENSE_TREES, DENSE_ROWS = 2, 16
MAX_K = 19  # deepest leaf of any workload; one engine.leaves_k{k} metric per k
CALL_TIMEOUT_S = 60
SETUP_SAMPLE_S = 0.02  # set-up seconds timed per sample, at least one set-up


@dataclass(frozen=True)
class Workload:
    name: str
    model: Callable[[], EnsembleModel]
    rows: int
    background: int  # 0 selects path-dependent mode
    functional: str
    cli_threads: int = 0  # > 0: one call is a fresh `treeshap-hd explain` process
    dense_model: Callable[[], EnsembleModel] | None = None  # slice model for the dense check

    @property
    def mode(self) -> str:
        return "background" if self.background else "path-dependent"


WORKLOADS = {
    w.name: w
    for w in (
        # Real-ensemble regime: ~5,300 leaves with k <= 8, ~32,000 small matvecs a call.
        Workload(
            "ens-bg-shapley",
            lambda: random_model(MODEL_SEED, max_depth=8, n_features=20, n_trees=100),
            1000, 200, SHAPLEY,
        ),
        # The paper's regime: 20 leaves, 2^19-double (4 MB) vectors, past a 2 MB L2.
        # explain_dense enumerates 3^k cube entries per leaf in Python (about
        # 14 s at k = 12, its cap), so the dense check runs on the same
        # generator's depth-8 spine.
        Workload(
            "deep-spine-k19",
            lambda: deep_path_model(19, MODEL_SEED),
            64, 0, SHAPLEY,
            dense_model=lambda: deep_path_model(8, MODEL_SEED),
        ),
        # No background: cover-ratio kron distributions, k(k-1)/2 pair matvecs a
        # leaf, results scattered into (n, F, F) accumulators held per tree.
        # Runs on request only: BENCHMARK.json lists the other three, because
        # four 30 s workloads take too long for one full comparison.
        Workload(
            "ens-pd-interaction",
            lambda: random_model(MODEL_SEED, max_depth=6, n_features=16, n_trees=30),
            2000, 0, INTERACTION,
        ),
        # The only workload through the CLI layer (CSV parse/format, import) and
        # the thread pool.
        Workload(
            "cli-rows-20k",
            lambda: random_model(MODEL_SEED, max_depth=6, n_features=20, n_trees=20),
            20000, 100, SHAPLEY,
            cli_threads=2,
        ),
    )
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    model: EnsembleModel
    X: np.ndarray
    B: np.ndarray | None
    files: dict | None = None  # CLI workloads: model/rows/background/output paths

    def request(self, w: Workload, model=None, rows=None) -> ExplainRequest:
        model = model or self.model
        F = model.n_features
        X = self.X if rows is None else self.X[:rows]
        B = None if self.B is None else self.B[:, :F]
        return ExplainRequest(model, X[:, :F], B, w.mode, w.functional)


def _write_csv(path: Path, rows: np.ndarray) -> None:
    header = ",".join(f"f{i}" for i in range(rows.shape[1]))
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def set_up(w: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the model and rows; CLI workloads also write them to files."""
    model = w.model()
    rng = np.random.default_rng(seed)
    X = random_dataset(rng, w.rows, model.n_features)
    B = random_dataset(rng, w.background, model.n_features) if w.background else None
    if not w.cli_threads:
        return Inputs(model, X, B)
    files = {name: work_dir / f"{name}.{ext}" for name, ext in
             (("model", "json"), ("rows", "csv"), ("background", "csv"), ("output", "csv"))}
    save_canonical(model, files["model"])
    _write_csv(files["rows"], X)
    _write_csv(files["background"], B)
    return Inputs(model, X, B, files)


class SetUpTimer:
    """Set-up seconds, sampled before the first call and again after each call.

    On a shared host the interpreter's speed switches between levels up to
    1.8x apart in phases of seconds.  Set-ups timed all at once read one phase,
    and a median over the run flips to whichever level held most of it; the
    mean of samples spread over the run follows the mix, as the calls do.
    """

    def __init__(self, w: Workload, seed: int, work_dir: Path):
        self.w, self.seed, self.work_dir = w, seed, work_dir
        self.times: list[float] = []

    def sample(self) -> Inputs:
        """Set up for at least SETUP_SAMPLE_S seconds; returns the last inputs."""
        spent = 0.0
        while spent < SETUP_SAMPLE_S:
            t0 = time.perf_counter()
            inputs = set_up(self.w, self.seed, self.work_dir)
            elapsed = time.perf_counter() - t0
            self.times.append(elapsed)
            spent += elapsed
        return inputs

    def mean(self) -> float:
        return statistics.fmean(self.times)


# ---------------------------------------------------------------------------
# calls and the correctness gate
# ---------------------------------------------------------------------------

def _cli_args(inputs: Inputs, w: Workload) -> list[str]:
    f = inputs.files
    return [
        "explain", "--model", str(f["model"]), "--data", str(f["rows"]),
        "--background", str(f["background"]), "--output", str(f["output"]),
        "--mode", w.mode, "--values", w.functional, "--threads", str(w.cli_threads),
    ]


def _run_child(argv: list[str]) -> None:
    proc = subprocess.run(
        argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=CALL_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")


def call_once(w: Workload, inputs: Inputs):
    """One end-to-end call as a user makes it; returns what the gate checks."""
    if not w.cli_threads:
        return explain(inputs.request(w), threads=1)
    inputs.files["output"].unlink(missing_ok=True)
    _run_child([sys.executable, "-m", "treeshap_hd.cli"] + _cli_args(inputs, w))
    return inputs.files["output"]


def call_in_child(w: Workload, inputs: Inputs, how: str) -> dict:
    """One CLI call through ``cli_child.py`` (``trace`` or ``peak``)."""
    result = OUT / f"child-{os.getpid()}.json"
    inputs.files["output"].unlink(missing_ok=True)
    _run_child([sys.executable, str(Path(__file__).with_name("cli_child.py")), str(result), how]
               + _cli_args(inputs, w))
    with open(result, encoding="utf-8") as fh:
        child = json.load(fh)
    result.unlink()
    return child


def dense_slice_ok(w: Workload, inputs: Inputs) -> bool:
    """explain vs explain_dense on the first trees and rows, within DENSE_TOL."""
    if w.dense_model is not None:
        sub = w.dense_model()
    else:
        m = inputs.model
        sub = EnsembleModel(m.trees[:DENSE_TREES], m.n_features, m.base_score)
    request = inputs.request(w, model=sub, rows=DENSE_ROWS)
    got = explain(request)
    want = explain_dense(request)
    dev = max(float(np.max(np.abs(got.values - want.values))), abs(got.base_value - want.base_value))
    if dev > DENSE_TOL:
        print(f"gate: dense slice deviates by {dev:.3e}", file=sys.stderr)
    return dev <= DENSE_TOL


class Gate:
    """Checks one call's output, outside any timed region.

    Local accuracy against ``model.predict`` on every row, bit-identical output
    across the calls of a run, and the dense-baseline slice (library workloads)
    or bit-for-bit agreement with library ``explain`` (CLI workloads).
    """

    def __init__(self, w: Workload, inputs: Inputs):
        self.predictions = inputs.model.predict(inputs.X)
        self.first = None
        self.expected = None
        self.slice_ok = True
        if w.cli_threads:
            model = load_canonical(inputs.files["model"])
            ref = explain(ExplainRequest(model, inputs.X, inputs.B, w.mode, w.functional))
            self.expected = (ref.values.reshape(len(inputs.X), -1), ref.base_value)
        else:
            self.slice_ok = dense_slice_ok(w, inputs)

    def __call__(self, out) -> bool:
        if isinstance(out, Path):
            table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            values, bases = table[:, 2:], table[:, 1]
            if not np.all(bases == bases[0]):
                return self._fail("base_value differs across rows")
            base = float(bases[0])
        else:
            values, base = out.values.reshape(len(self.predictions), -1), out.base_value
        dev = float(np.max(np.abs(base + values.sum(axis=1) - self.predictions)))
        if dev > LOCAL_TOL:
            return self._fail(f"local accuracy off by {dev:.3e}")
        if self.expected is not None:
            want_values, want_base = self.expected
            if not (np.array_equal(values, want_values) and base == want_base):
                return self._fail("CLI output differs from library explain")
        if self.first is None:
            self.first = (values.copy(), base)
        elif not (values.tobytes() == self.first[0].tobytes() and base == self.first[1]):
            return self._fail("output differs from the run's first call")
        return self.slice_ok

    @staticmethod
    def _fail(why: str) -> bool:
        print(f"gate: {why}", file=sys.stderr)
        return False


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, gate):
        """Time ``fn()``, then gate its output; returns seconds, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
            elapsed = time.perf_counter() - t0
            ok = gate(out)
        except Exception as exc:  # a failed call is counted, the run goes on
            self.failed += 1
            print(f"call failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        if not ok:
            self.failed += 1
        return elapsed


def tail(times: list[float]):
    """Highest percentile with at least ten calls beyond it, its percent and count.

    With ten calls or fewer no percentile qualifies; the slowest call is given
    (percent 100) and the count says why.
    """
    n = len(times)
    ordered = sorted(times)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def peak_bytes(w: Workload, inputs: Inputs, tally: Tally, gate: Gate) -> int:
    """tracemalloc peak of one dedicated call; tracing slows calls, so never timed.

    The peak is read before the gate runs, so the gate's arrays are not in it.
    """
    peak = {}

    def call():
        if w.cli_threads:
            peak.update(call_in_child(w, inputs, "peak"))
            return inputs.files["output"]
        tracemalloc.start()
        try:
            out = call_once(w, inputs)
            peak["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    tally.run(call, gate)
    return peak.get("peak_bytes", 0)


def end_to_end(w: Workload, seed: int, seconds: float, work_dir: Path):
    setups = SetUpTimer(w, seed, work_dir)
    inputs = setups.sample()
    gate = Gate(w, inputs)
    tally = Tally()
    peak = peak_bytes(w, inputs, tally, gate)
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        elapsed = tally.run(lambda: call_once(w, inputs), gate)
        if elapsed is not None:
            times.append(elapsed)
        elif tally.failed >= 3 and not times:
            raise SystemExit("perfbench: calls keep failing, no measurement")
        setups.sample()
    p50 = statistics.median(times)
    t, pct, n = tail(times)
    print(f"# {w.name}: {n} timed calls; call_s.tail (report only) = {t:.4f} s at p{pct:.0f}; "
          f"fail_ratio = {tally.failed}/{tally.attempted}")
    metrics = {
        "rows_per_s": (w.rows / p50, "rows/s"),
        "call_s.p50": (p50, "s"),
        "peak_mb": (peak / 1e6, "MB"),
        "setup_s": (setups.mean(), "s"),
    }
    return tally, metrics, True


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _operation_counter():
    """The kernel's op counter, if the package still offers one."""
    fastmult = sys.modules.get("treeshap_hd.fastmult")
    return getattr(fastmult, "count_operations", None)


def counting_pass(inputs: Inputs) -> dict:
    """Leaves by k, row visits and distinct consumer patterns, untimed.

    Runs apart from the traced calls because ``np.unique`` per leaf would
    distort their spans.
    """
    leaves_k = Counter()
    distinct = patterned = row_visits = 0
    streamed = len(inputs.X) + (0 if inputs.B is None else len(inputs.B))
    for tree in inputs.model.trees:
        leaves = 0
        for item in iter_leaf_patterns(tree, inputs.X):
            leaves += 1
            k = len(item.features)
            leaves_k[k] += 1
            if k:
                distinct += np.unique(item.patterns).size
                patterned += 1
        row_visits += (leaves - 1) * streamed  # a binary tree has leaves-1 internal nodes
    return {
        "leaves_k": leaves_k,
        "row_visits": row_visits,
        "distinct_ratio": distinct / (patterned * len(inputs.X)) if patterned else 0.0,
    }


def matvecs_per_leaf(k: int, functional: str) -> int:
    return k + k * (k - 1) // 2 if functional == INTERACTION else k


def traced(w: Workload, seed: int, seconds: float, work_dir: Path):
    inputs = set_up(w, seed, work_dir)
    gate = Gate(w, inputs)
    tally = Tally()
    rec = Recorder()
    plain, spans_s = [], []
    ops = None
    counter = None if w.cli_threads else _operation_counter()
    if counter is None and not w.cli_threads:
        print("# op counts unavailable: treeshap_hd.fastmult.count_operations is gone")

    def traced_call():
        nonlocal ops
        rec.call += 1
        if w.cli_threads:
            with rec.root("cli.process") as root:
                child = call_in_child(w, inputs, "trace")
            rec.adopt(child["spans"], root)
            return inputs.files["output"]
        with installed(rec), rec.root("engine.explain"):
            if counter is not None and ops is None:
                with counter() as ops:
                    return call_once(w, inputs)
            return call_once(w, inputs)

    deadline = time.perf_counter() + seconds
    while not (plain and spans_s) or time.perf_counter() < deadline:
        elapsed = tally.run(lambda: call_once(w, inputs), gate)
        if elapsed is not None:
            plain.append(elapsed)
        elapsed = tally.run(traced_call, gate)
        if elapsed is not None:
            spans_s.append(elapsed)
        if tally.failed >= 3 and not (plain and spans_s):
            raise SystemExit("perfbench: calls keep failing, no measurement")

    counts = counting_pass(inputs)
    metrics, law_ok = layer_metrics(w, inputs, rec, counts, ops)
    t, pct, n = tail(plain)
    metrics["call_s.tail"] = (t, "s")
    metrics["call_s.tail_pct"] = (pct, "%")
    metrics["call_s.count"] = (n, "count")
    metrics["bench.trace_overhead_s"] = (statistics.median(spans_s) - statistics.median(plain), "s")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{w.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": seed, "fields": FIELDS, "spans": rec.spans}, fh)
    return tally, metrics, law_ok


def kernel_bytes(n: int) -> int:
    """Bytes one ``diagonal_matvec`` of length n = 2^k moves, from vector lengths.

    The reversal copy reads f and writes g (16n); each of the 2k zeta passes
    reads the vector and writes its upper half (12n); the diagonal product
    reads g and the diagonal and writes g (24n).
    """
    k = n.bit_length() - 1
    return n * (40 + 24 * k)


def layer_metrics(w: Workload, inputs: Inputs, rec: Recorder, counts: dict, ops):
    per_call = summarize(rec.spans)

    def med(name, key="s"):
        return statistics.median(c.get(name, {}).get(key, 0.0) for c in per_call.values())

    first_call = min(per_call)
    first = [s for s in rec.spans if s[2] == first_call]
    lengths = [s[6] for s in first if s[3] == "fastmult.matvec"]
    computed_ops = sum(((n.bit_length() - 1) + 1) * n for n in lengths)
    computed_bytes = sum(kernel_bytes(n) for n in lengths)
    used_k = {k for k, c in counts["leaves_k"].items() if k and c}
    levels = [lv for s in first if s[3] == "cubes.build" and s[6] for lv in s[6].items()]
    cache_bytes = sum(b for _k, b in levels)
    used_bytes = sum(b for k, b in levels if int(k) in used_k)
    dist_calls = per_call[first_call].get("patterns.dist", {}).get("n", 0)

    leaves_k = counts["leaves_k"]
    adds = muls = 0
    law_ok = True
    if ops is not None:
        adds, muls = ops.adds, ops.muls
        m = {k: matvecs_per_leaf(k, w.functional) for k in leaves_k}
        law_adds = sum(c * m[k] * k * (1 << k) for k, c in leaves_k.items() if k)
        law_muls = sum(c * m[k] * (1 << k) for k, c in leaves_k.items() if k)
        law_ok = adds == law_adds and muls == law_muls
        print(f"# op-count law: adds {adds} vs {law_adds}, muls {muls} vs {law_muls}: "
              f"{'holds' if law_ok else 'FAILS'}")

    if w.cli_threads:
        files = inputs.files
        bytes_in = sum(files[k].stat().st_size for k in ("model", "rows", "background"))
        bytes_out = files["output"].stat().st_size
    else:
        bytes_in = bytes_out = 0

    metrics = {
        "fastmult.matvec_s": (med("fastmult.matvec"), "s"),
        "fastmult.calls": (len(lengths), "count"),
        "fastmult.adds": (adds, "count"),
        "fastmult.muls": (muls, "count"),
        "fastmult.bytes_computed": (computed_bytes, "B"),
        "fastmult.ops_per_byte": (computed_ops / computed_bytes if computed_bytes else 0.0, "ops/B"),
        "cubes.build_s": (med("cubes.build"), "s"),
        "cubes.bytes": (cache_bytes, "B"),
        "cubes.bytes_used_ratio": (used_bytes / cache_bytes if cache_bytes else 0.0, "ratio"),
        "patterns.stream_s": (med("patterns.stream"), "s"),
        "patterns.row_visits": (counts["row_visits"], "count"),
        "patterns.dist_s": (med("patterns.dist"), "s"),
        "patterns.dist_calls": (dist_calls, "count"),
        "patterns.distinct_ratio": (counts["distinct_ratio"], "ratio"),
        "engine.explain_s": (med("engine.explain"), "s"),
        "engine.self_s": (med("engine.explain", "self_s"), "s"),
        "engine.leaves": (sum(leaves_k.values()), "count"),
    }
    for k in range(1, MAX_K + 1):
        metrics[f"engine.leaves_k{k}"] = (leaves_k.get(k, 0), "count")
    metrics.update({
        "model.predict_s": (med("model.predict"), "s"),
        "model.load_s": (med("model.load"), "s"),
        "model.paths_s": (med("model.paths"), "s"),
        "cli.import_s": (med("cli.import"), "s"),
        "cli.io_s": (med("cli.process", "self_s"), "s"),
        "cli.bytes_in": (bytes_in, "B"),
        "cli.bytes_out": (bytes_out, "B"),
    })
    return metrics, law_ok


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    print(f"# treeshap-hd {treeshap_hd.__version__}, python {platform.python_version()}, "
          f"numpy {np.__version__}, nproc {os.cpu_count()}; workload {w.name}, seed {args.seed}, "
          f"{'traced' if args.trace else 'end-to-end'}")

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{w.name}-{os.getpid()}"
    work_dir.mkdir()
    try:
        run = traced if args.trace else end_to_end
        tally, metrics, law_ok = run(w, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and law_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
