import csv
import json
import logging
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import treeshap_hd
import treeshap_hd.cli as cli_module
import treeshap_hd.engine as engine_module
from treeshap_hd.cli import (
    RunConfig,
    _bench_request,
    _load_csv,
    _value_lines,
    _values_header,
    cmd_bench,
    main,
)
from treeshap_hd.cubes import INTERACTION, SHAPLEY
from treeshap_hd.engine import AttributionResult, ExplainRequest, explain, projected_peak_bytes
from treeshap_hd.errors import ParseError, ValidationError
from treeshap_hd.model import save_canonical
from treeshap_hd.oracles import projected_dense_peak_bytes
from treeshap_hd.synthetic import deep_path_model, random_dataset, random_model

from oracle_utils import (
    left_chain_predictions,
    load_csv_cells,
    write_lightgbm_left_chain,
    write_values_csv_reference,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def stump_setup(tmp_path, stump_model):
    model_path = tmp_path / "model.json"
    save_canonical(stump_model, model_path)
    data = tmp_path / "data.csv"
    background = tmp_path / "bg.csv"
    write_csv(data, ["x0", "x1"], [[0.2, 0.3]])
    write_csv(background, ["x0", "x1"], [[0.9, 0.1]])
    return model_path, data, background


def write_values_csv(path, result, n_features, functional):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_values_header(n_features, functional))
        fh.writelines(_value_lines(result))


def read_output(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def test_explain_end_to_end(stump_setup, tmp_path):
    model, data, background = stump_setup
    out = tmp_path / "out.csv"
    code = main([
        "explain", "--model", str(model), "--data", str(data),
        "--background", str(background), "--mode", "background",
        "--values", "shapley", "--output", str(out),
    ])
    assert code == 0
    header, rows = read_output(out)
    assert header == ["row_id", "base_value", "phi_0", "phi_1"]
    assert rows[0][2] == pytest.approx(1.0, abs=1e-12)
    assert rows[0][3] == 0.0


def test_explain_csv_roundtrip_preserves_local_accuracy(tmp_path):
    model = random_model(6, max_depth=6, n_features=5, n_trees=3, base_score=0.75)
    model_path = tmp_path / "model.json"
    save_canonical(model, model_path)
    rng = np.random.default_rng(0)
    X = random_dataset(rng, 12, 5)
    B = random_dataset(rng, 20, 5)
    header = [f"f{i}" for i in range(5)]
    data, background = tmp_path / "d.csv", tmp_path / "b.csv"
    write_csv(data, header, X.tolist())
    write_csv(background, header, B.tolist())
    out = tmp_path / "out.csv"
    assert main([
        "explain", "--model", str(model_path), "--data", str(data),
        "--background", str(background), "--output", str(out),
    ]) == 0
    _, rows = read_output(out)
    predictions = model.predict(X)
    for row, pred in zip(rows, predictions):
        assert abs(row[1] + sum(row[2:]) - pred) <= 1e-6


def test_explain_nan_data_exits_2_and_names_cell(stump_setup, tmp_path, capsys):
    model, data, background = stump_setup
    write_csv(data, ["x0", "x1"], [[0.1, "nan"]])
    code = main([
        "explain", "--model", str(model), "--data", str(data),
        "--background", str(background), "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 0" in err and "x1" in err


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("x0,x1\n1,2\n3\n", ValidationError, "row 1 has 1 cells, header has 2"),
        ("x0,x1\n1,2\n\n3,4\n", ValidationError, "row 1 has 0 cells, header has 2"),
        ("x0,x1\n1,2\n3,abc\n", ValidationError, "row 1, column x1: 'abc' is not a number"),
        ("x0,x1\n1,nan\n", ValidationError, "row 0, column x1: NaN value"),
        ("x0,x1\ninf,1\n", ValidationError, "row 0, column x0: non-finite value"),
        ("x0,x1\n1,-inf\n", ValidationError, "row 0, column x1: non-finite value"),
        # the first offending cell in row-major order names the error
        ("x0,x1\n1,2\n3,nan\nx,4\n", ValidationError, "row 1, column x1: NaN value"),
        ("", ParseError, "empty CSV"),
    ],
    ids=["ragged", "blank-line", "not-a-number", "nan", "inf", "-inf", "nan-before-word", "empty"],
)
def test_load_csv_diagnostics_match_per_cell_reader(tmp_path, text, error, message):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as fast:
        _load_csv(path)
    with pytest.raises(error) as per_cell:
        load_csv_cells(path)
    assert str(fast.value) == str(per_cell.value) == f"{path}: {message}"


def test_load_csv_header_only_has_no_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x0,x1,x2\r\n", encoding="utf-8")
    header, X = _load_csv(path)
    assert header == ["x0", "x1", "x2"] and X.shape == (0, 3)


def test_load_csv_values_match_float_of_each_cell(tmp_path):
    path = tmp_path / "d.csv"
    X = random_dataset(np.random.default_rng(4), 5, 3)
    lines = ['"1.5", 1.5,1_0', "-0,+4,1e-310"] + [",".join(map(repr, row)) for row in X.tolist()]
    path.write_text("a,b,c\r\n" + "\r\n".join(lines) + "\r\n", encoding="utf-8")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        want = [[float(c) for c in row] for row in reader]
    header, got = _load_csv(path)
    assert header == ["a", "b", "c"]
    np.testing.assert_array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


@pytest.mark.parametrize("n_rows", [0, 7])
@pytest.mark.parametrize("functional", [SHAPLEY, INTERACTION])
def test_values_csv_matches_csv_writer_bytes(tmp_path, functional, n_rows):
    model = random_model(2, max_depth=5, n_features=4, n_trees=3, base_score=0.3)
    rng = np.random.default_rng(2)
    request = ExplainRequest(
        model, random_dataset(rng, n_rows, 4), random_dataset(rng, 9, 4), "background", functional
    )
    result = explain(request)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_values_csv(got, result, 4, functional)
    write_values_csv_reference(want, result.values, result.base_value, functional == INTERACTION)
    assert got.read_bytes() == want.read_bytes()


def test_values_csv_round_trips_edge_values(tmp_path):
    special = [-0.0, 5e-324, 2.5e-310, 1e308, -1e308, 3.0, -7.0, 0.1, 1 / 3, 2.0**53]
    values = np.array([special, special[::-1]])
    result = AttributionResult(values, -0.0)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_values_csv(got, result, len(special), SHAPLEY)
    write_values_csv_reference(want, values, -0.0, False)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\r\n") == 3
    table = np.loadtxt(got, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(table[:, 2:].view(np.uint64), values.view(np.uint64))


def _fresh_python(*args):
    src = os.path.dirname(os.path.dirname(treeshap_hd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300)


def test_cli_starts_without_scipy():
    code = "import sys, treeshap_hd.cli; sys.exit(any(m.startswith('scipy') for m in sys.modules))"
    assert _fresh_python("-c", code).returncode == 0


@pytest.mark.parametrize(
    "argv", [["validate", "--trials", "2"], ["bench", "--method", "dense", "--depths", "4"]]
)
def test_dense_baseline_loads_scipy_on_first_use(argv):
    proc = _fresh_python("-m", "treeshap_hd.cli", *argv)
    assert proc.returncode == 0, proc.stderr


def test_explain_missing_background_exits_2(stump_setup, tmp_path):
    model, data, _ = stump_setup
    code = main([
        "explain", "--model", str(model), "--data", str(data),
        "--mode", "background", "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 2


def test_explain_header_mismatch_exits_2(stump_setup, tmp_path):
    model_path, data, background = stump_setup
    # give the stored model explicit names that disagree with the CSV header
    from treeshap_hd.model import load_canonical

    model = load_canonical(model_path)
    model.feature_names = ["alpha", "beta"]
    save_canonical(model, model_path)
    code = main([
        "explain", "--model", str(model_path), "--data", str(data),
        "--background", str(background), "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 2


def test_explain_interaction_columns(stump_setup, tmp_path):
    model, data, background = stump_setup
    out = tmp_path / "out.csv"
    assert main([
        "explain", "--model", str(model), "--data", str(data),
        "--background", str(background), "--values", "interaction",
        "--output", str(out),
    ]) == 0
    header, rows = read_output(out)
    assert header[2:] == ["phi_0_0", "phi_0_1", "phi_1_0", "phi_1_1"]
    tensor = np.array(rows[0][2:]).reshape(2, 2)
    assert tensor[0, 1] == tensor[1, 0]
    assert rows[0][1] + tensor.sum() == pytest.approx(1.0, abs=1e-9)  # prediction


def test_explain_path_dependent_no_background(stump_setup, tmp_path):
    model, data, _ = stump_setup
    out = tmp_path / "out.csv"
    assert main([
        "explain", "--model", str(model), "--data", str(data),
        "--mode", "path-dependent", "--output", str(out),
    ]) == 0
    _, rows = read_output(out)
    assert rows[0][1] == pytest.approx(0.6)
    assert rows[0][2] == pytest.approx(0.4, abs=1e-12)


def test_explain_lightgbm_format(tmp_path):
    rows_path = os.path.join(FIXTURES, "lightgbm_rows.csv")
    out = tmp_path / "out.csv"
    code = main([
        "explain", "--model", os.path.join(FIXTURES, "lightgbm_model.txt"),
        "--model-format", "lightgbm_text", "--data", rows_path,
        "--mode", "path-dependent", "--output", str(out),
    ])
    assert code == 0
    _, rows = read_output(out)
    want = np.loadtxt(os.path.join(FIXTURES, "lightgbm_expected.csv"), skiprows=1)
    for row, pred in zip(rows, want):
        assert abs(row[1] + sum(row[2:]) - pred) <= 1e-6


@pytest.mark.parametrize("mode", ["path-dependent", "background"])
def test_explain_deep_lightgbm_chain(tmp_path, mode):
    # a 1,100-split chain loads and explains without hitting the recursion limit
    model = write_lightgbm_left_chain(tmp_path / "chain.txt")
    rng = np.random.default_rng(1)
    X = random_dataset(rng, 50, 2)
    data, background, out = tmp_path / "data.csv", tmp_path / "bg.csv", tmp_path / "out.csv"
    write_csv(data, ["x0", "x1"], X.tolist())
    write_csv(background, ["x0", "x1"], random_dataset(rng, 20, 2).tolist())
    args = ["explain", "--model", str(model), "--model-format", "lightgbm_text",
            "--data", str(data), "--mode", mode, "--output", str(out)]
    if mode == "background":
        args += ["--background", str(background)]
    assert main(args) == 0
    _, rows = read_output(out)
    totals = [row[1] + sum(row[2:]) for row in rows]
    np.testing.assert_allclose(totals, left_chain_predictions(X), rtol=0, atol=1e-8)


def test_threads_flag_is_bit_identical(tmp_path):
    # --threads is accepted and ignored; the CSV holds the library's values bit for bit
    model = random_model(8, max_depth=5, n_features=4, n_trees=4)
    model_path = tmp_path / "model.json"
    save_canonical(model, model_path)
    rng = np.random.default_rng(1)
    header = [f"f{i}" for i in range(4)]
    X, B = random_dataset(rng, 6, 4), random_dataset(rng, 9, 4)
    write_csv(tmp_path / "d.csv", header, X.tolist())
    write_csv(tmp_path / "b.csv", header, B.tolist())
    for functional in (SHAPLEY, INTERACTION):
        want = explain(ExplainRequest(model, X, B, "background", functional))
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"out{threads}.csv"
            assert main([
                "explain", "--model", str(model_path), "--data", str(tmp_path / "d.csv"),
                "--background", str(tmp_path / "b.csv"), "--threads", threads,
                "--values", functional, "--output", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(table[:, 2:], want.values.reshape(6, -1))
        assert np.all(table[:, 1] == want.base_value)


def test_validate_small_sweep_passes():
    assert main(["validate", "--trials", "4", "--max-depth", "4", "--seed", "11"]) == 0


def test_validate_zero_trials_exits_2():
    assert main(["validate", "--trials", "0"]) == 2


def test_validate_depth_limit_enforced():
    assert main(["validate", "--trials", "1", "--max-depth", "9"]) == 2


def test_validate_detects_corrupted_cache(monkeypatch, capsys):
    build = engine_module.build_diagonal_cache

    def corrupted(*args, **kwargs):
        cache = build(*args, **kwargs)
        for level in cache.levels.values():
            level *= 1.01
        return cache

    monkeypatch.setattr(engine_module, "build_diagonal_cache", corrupted)
    code = main(["validate", "--trials", "2", "--max-depth", "4", "--seed", "5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "seed=5" in out and "FAILED" in out


def test_bench_writes_report_and_counters_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = main([
            "bench", "--depths", "4,5", "--method", "both",
            "--seed", "9", "--output", str(out),
        ])
        assert code == 0
    r1 = json.loads(out1.read_text())["records"]
    r2 = json.loads(out2.read_text())["records"]
    assert [r["depth"] for r in r1] == [4, 4, 5, 5]
    for a, b in zip(r1, r2):
        assert a["adds"] == b["adds"] and a["muls"] == b["muls"]
        assert a["projected_bytes"] == b["projected_bytes"]
        assert a["adds"] >= 0 and a["muls"] >= 0
        assert a["wall_time_seconds"] > 0


def test_bench_skips_dense_beyond_cap(tmp_path):
    config = RunConfig(seed=0)
    code, report = cmd_bench(config, depths=[13], methods=("dense",))
    assert code == 0
    assert report.records == [
        {"depth": 13, "method": "dense", "mode": "background", "skipped": True, "reason": "dense_cap"}
    ]


def test_bench_skips_when_budget_too_small():
    config = RunConfig(seed=0, memory_budget_bytes=1024)
    code, report = cmd_bench(config, depths=[8], methods=("hd",))
    rec = report.records[0]
    assert rec["skipped"] and rec["reason"] == "budget"
    assert rec["projected_bytes"] == projected_peak_bytes(_bench_request(config, 8)) > 1024
    # a run within budget records the same projection it was checked against
    config = RunConfig(seed=0, memory_budget_bytes=1 << 30)
    code, report = cmd_bench(config, depths=[6], methods=("hd", "dense"))
    request = _bench_request(config, 6)
    for rec in report.records:
        assert not rec.get("skipped")
        dense = rec["method"] == "dense"
        assert rec["projected_bytes"] == (projected_dense_peak_bytes if dense else projected_peak_bytes)(request)


def test_bench_does_not_time_the_scipy_import(tmp_path):
    # in a fresh process the first dense run would otherwise pay scipy's import
    out = tmp_path / "r.json"
    proc = _fresh_python(
        "-m", "treeshap_hd.cli", "bench", "--depths", "4,5,6", "--method", "both",
        "--output", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    dense = {
        r["depth"]: r["wall_time_seconds"]
        for r in json.loads(out.read_text())["records"]
        if r["method"] == "dense"
    }
    assert dense[4] < max(dense.values()), dense


@pytest.mark.parametrize(
    "depths, words", [("x", "--depths takes comma-separated integers"), ("-1", "depth must be >= 0")]
)
def test_bench_bad_depths_exit_2(capsys, depths, words):
    assert main(["bench", "--depths", depths]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and words in err


def test_deep_path_model_rejects_negative_depth():
    with pytest.raises(ValidationError):
        deep_path_model(-1)
    assert deep_path_model(0).n_features == 0  # a lone leaf is still a model


def test_bad_model_path_exits_2(tmp_path):
    code = main([
        "explain", "--model", str(tmp_path / "nope.json"), "--data", "x",
        "--output", "y",
    ])
    assert code == 2


def test_zero_feature_model_exits_2(tmp_path, capsys):
    # trees that are single leaves: the engine's column check names the mismatch
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"n_features": 0, "base_score": 0.5, "trees": [[{"kind": "leaf", "weight": 1.0}]]}
    ))
    data = tmp_path / "data.csv"
    write_csv(data, ["x0"], [[1.0], [2.0]])
    code = main([
        "explain", "--model", str(model), "--data", str(data),
        "--mode", "path-dependent", "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1 columns, model expects 0" in err


def test_threads_must_be_positive(stump_setup, tmp_path):
    model, data, background = stump_setup
    code = main([
        "explain", "--model", str(model), "--data", str(data),
        "--background", str(background), "--threads", "0",
        "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 2


def test_explain_budget_exceeded_exits_3(tmp_path):
    model = random_model(12, max_depth=6, n_features=6, n_trees=2)
    model_path = tmp_path / "model.json"
    save_canonical(model, model_path)
    header = [f"f{i}" for i in range(6)]
    rng = np.random.default_rng(0)
    write_csv(tmp_path / "d.csv", header, random_dataset(rng, 3, 6).tolist())
    write_csv(tmp_path / "b.csv", header, random_dataset(rng, 5, 6).tolist())
    code = main([
        "explain", "--model", str(model_path), "--data", str(tmp_path / "d.csv"),
        "--background", str(tmp_path / "b.csv"), "--memory-budget", "64",
        "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 3


@pytest.mark.parametrize(
    "line, edited",
    [
        ("max_feature_idx=4", "max_feature_idx=x"),
        ("num_leaves=5", "num_leaves=x"),
        ("split_feature=2 0 0 1", "split_feature=2 nan 0 1"),
        ("left_child=1 -1 3 -3", "left_child=1 -1 inf -3"),
        ("left_child=1 -1 3 -3", "left_child=0 -1 3 -3"),  # the root is its own child
        ("split_feature=2 0 0 1", "split_feature=2 0.7 0 1"),
        ("split_feature=2 0 0 1", "split_feature=2 -1 0 1"),
        ("right_child=2 -2 -5 -4", "right_child=2 -2 -5"),  # arrays one entry per split
        ("internal_count=1000 436 564 176", "internal_count=1000 436 564"),
        ("leaf_count=275 161 95 81 388", "leaf_count=275 161 95 81"),
    ],
)
def test_malformed_lightgbm_dump_exits_2(tmp_path, line, edited):
    with open(os.path.join(FIXTURES, "lightgbm_model.txt"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(line + "\n") == 1
    model = tmp_path / "model.txt"
    model.write_text(text.replace(line + "\n", edited + "\n"), encoding="utf-8")
    code = main([
        "explain", "--model", str(model), "--model-format", "lightgbm_text",
        "--data", os.path.join(FIXTURES, "lightgbm_rows.csv"),
        "--mode", "path-dependent", "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--trials", "1", "--threads", "2"],
        ["bench", "--depths", "3", "--model", "m.json"],
    ],
)
def test_subcommand_rejects_flags_it_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["data-first-row", "data-late-row", "background"])
def test_non_utf8_csv_exits_2(stump_setup, tmp_path, capsys, where):
    model, data, background = stump_setup
    rows = b"0.2,0.3\n" * (5000 if where == "data-late-row" else 1)
    bad = data if where.startswith("data") else background
    bad.write_bytes(b"x0,x1\n" + rows + b"0.1,\xe9\n")
    code = main([
        "explain", "--model", str(model), "--data", str(data),
        "--background", str(background), "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err and "not UTF-8" in err and "0xe9" in err


def test_non_utf8_lightgbm_dump_exits_2(tmp_path, capsys):
    with open(os.path.join(FIXTURES, "lightgbm_model.txt"), "rb") as fh:
        text = fh.read()
    model = tmp_path / "model.txt"
    model.write_bytes(text.replace(b"feature_names=", b"feature_names=\xe9", 1))
    code = main([
        "explain", "--model", str(model), "--model-format", "lightgbm_text",
        "--data", os.path.join(FIXTURES, "lightgbm_rows.csv"),
        "--mode", "path-dependent", "--output", str(tmp_path / "o.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(model) in err and "not a UTF-8" in err


def _stream_setup(tmp_path, mode, n_rows=1201):
    # a small model whose streamed budget figure in 100-row chunks is smaller
    # than one pass's over 1,201 rows (from 1,030 rows for Shapley and
    # Banzhaf values, 562 for interactions), so the run streams, in 13 chunks
    model = random_model(2, max_depth=3, n_features=4, n_trees=3, base_score=0.3)
    save_canonical(model, tmp_path / "model.json")
    rng = np.random.default_rng(5)
    X = random_dataset(rng, n_rows, 4)
    B = random_dataset(rng, 9, 4) if mode == "background" else None
    header = [f"f{i}" for i in range(4)]
    write_csv(tmp_path / "d.csv", header, X.tolist())
    argv = [
        "explain", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "d.csv"),
        "--mode", mode, "--output", str(tmp_path / "out.csv"),
    ]
    if B is not None:
        write_csv(tmp_path / "b.csv", header, B.tolist())
        argv += ["--background", str(tmp_path / "b.csv")]
    return model, X, B, argv


@pytest.fixture
def hundred_row_chunks(monkeypatch):
    monkeypatch.setattr(cli_module, "CHUNK_VALUES", 400)  # 100 rows of 4 features


def _must_stream(monkeypatch):
    # a run that takes one pass calls explain; a streamed one never does
    def one_pass(*args, **kwargs):
        raise AssertionError("the run should stream")

    monkeypatch.setattr(cli_module, "explain", one_pass)


@pytest.mark.parametrize("mode", ["background", "path-dependent"])
@pytest.mark.parametrize("functional", ["shapley", "banzhaf", "interaction"])
def test_streamed_explain_matches_reference_writer(tmp_path, monkeypatch, hundred_row_chunks, functional, mode):
    model, X, B, argv = _stream_setup(tmp_path, mode)
    result = explain(ExplainRequest(model, X, B, mode, functional))
    want = tmp_path / "want.csv"
    write_values_csv_reference(want, result.values, result.base_value, functional == INTERACTION)
    _must_stream(monkeypatch)
    assert main(argv + ["--values", functional]) == 0
    assert (tmp_path / "out.csv").read_bytes() == want.read_bytes()


def test_output_symlink_is_written_through(stump_setup, tmp_path):
    # the output replaces a regular file, but a symlink (or /dev/stdout) is
    # written through, as a plain open would
    model, data, background = stump_setup
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("earlier output\n")
    link.symlink_to(target)
    argv = ["explain", "--model", str(model), "--data", str(data), "--background", str(background)]
    assert main(argv + ["--output", str(link)]) == 0
    assert main(argv + ["--output", str(tmp_path / "plain.csv")]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_streamed_threads_must_be_positive(tmp_path, hundred_row_chunks):
    _model, _X, _B, argv = _stream_setup(tmp_path, "background")
    assert main(argv + ["--threads", "0"]) == 2
    assert not (tmp_path / "out.csv").exists()


def test_deep_model_explains_in_one_pass(tmp_path, monkeypatch, hundred_row_chunks):
    # a depth-10 spine's products (about 150 KB: k rows of 2^k doubles per
    # leaf) make the streamed budget figure of 121 rows in 40-row chunks
    # larger than one pass's: no streaming
    deep = deep_path_model(10, 0)
    save_canonical(deep, tmp_path / "deep.json")
    X = random_dataset(np.random.default_rng(2), 121, 10)
    write_csv(tmp_path / "deep.csv", [f"f{i}" for i in range(10)], X.tolist())

    def streamed(*args, **kwargs):
        raise AssertionError("the run should not stream")

    monkeypatch.setattr(cli_module, "prepare", streamed)
    assert main([
        "explain", "--model", str(tmp_path / "deep.json"), "--data", str(tmp_path / "deep.csv"),
        "--mode", "path-dependent", "--output", str(tmp_path / "out.csv"),
    ]) == 0
    result = explain(ExplainRequest(deep, X, None, "path-dependent", SHAPLEY))
    write_values_csv_reference(tmp_path / "want.csv", result.values, result.base_value, False)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize(
    "bad_row, words",
    [(["0.5", "0.5", "abc", "0.5"], "row 1200, column f2: 'abc' is not a number"),
     (["0.5", "0.5", "0.5"], "row 1200 has 3 cells, header has 4")],
    ids=["not-a-number", "ragged"],
)
def test_streamed_bad_cell_in_last_chunk_exits_2(tmp_path, monkeypatch, capsys, bad_row, words):
    _model, X, _B, argv = _stream_setup(tmp_path, "background")
    rows = X.tolist()
    rows[1200] = bad_row  # the last chunk's one row, after twelve good chunks
    write_csv(tmp_path / "d.csv", [f"f{i}" for i in range(4)], rows)
    out = tmp_path / "out.csv"
    # one pass, as today: the diagnostic names the cell's row in the file
    assert main(argv) == 2
    one_pass = capsys.readouterr().err
    assert words in one_pass and not out.exists()

    out.write_text("earlier output\n")
    before = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(cli_module, "CHUNK_VALUES", 400)
    _must_stream(monkeypatch)
    prepares = []

    def counted(*args, **kwargs):
        # a one-pass run fails its parse before it would call explain
        prepares.append(args)
        return engine_module.prepare(*args, **kwargs)

    monkeypatch.setattr(cli_module, "prepare", counted)
    assert main(argv) == 2
    assert len(prepares) == 1
    assert capsys.readouterr().err == one_pass
    # the partial output went to a temporary file, now removed
    assert out.read_text() == "earlier output\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("functional", [SHAPLEY, INTERACTION])
def test_streamed_budget_bounds_measured_peak(tmp_path, monkeypatch, functional):
    model = random_model(0, max_depth=6, n_features=10, n_trees=10)
    save_canonical(model, tmp_path / "model.json")
    rng = np.random.default_rng(0)
    header = [f"f{i}" for i in range(10)]
    write_csv(tmp_path / "d.csv", header, random_dataset(rng, 3000, 10).tolist())
    write_csv(tmp_path / "b.csv", header, random_dataset(rng, 100, 10).tolist())
    monkeypatch.setattr(cli_module, "CHUNK_VALUES", 1 << 13)  # 819 rows: 4 chunks
    # the model is loaded before tracing starts: the projection leaves it out
    monkeypatch.setattr(cli_module, "_load_model", lambda config: model)
    argv = [
        "explain", "--model", "unused", "--data", str(tmp_path / "d.csv"),
        "--background", str(tmp_path / "b.csv"), "--values", functional,
        "--output", str(tmp_path / "out.csv"),
    ]
    request = ExplainRequest(model, None, np.zeros((100, 10)), "background", functional)
    projected = cli_module._projected_bytes(request, cli_module._chunk_rows(10))
    assert cli_module._streams(request, 3000)
    _must_stream(monkeypatch)
    # a first run fills the caches the argument parser and the CSV reader
    # keep for the process, which the projection does not count either
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= projected <= 4 * peak, (peak, projected)

    (tmp_path / "out.csv").unlink()
    assert main(argv + ["--memory-budget", str(projected - 1)]) == 3
    assert sorted(os.listdir(tmp_path)) == ["b.csv", "d.csv", "model.json"]

    # a bad cell in the last row: the diagnosis reads the file again a row
    # at a time, within the same projection
    with open(tmp_path / "d.csv", "a", newline="") as fh:
        fh.write("0.5,0.5,0.5,abc,0.5,0.5,0.5,0.5,0.5,0.5\r\n")
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= projected, (peak, projected)


def test_whole_file_budget_counts_parsed_rows(tmp_path, monkeypatch):
    # 5,000 rows of a depth-8 spine explain in one call; the budget figure
    # counts their parsed bytes, which the engine's projection leaves out
    model = deep_path_model(8, 0)
    X = random_dataset(np.random.default_rng(3), 5000, 8)
    write_csv(tmp_path / "d.csv", [f"f{i}" for i in range(8)], X.tolist())
    monkeypatch.setattr(cli_module, "_load_model", lambda config: model)
    argv = [
        "explain", "--model", "unused", "--data", str(tmp_path / "d.csv"),
        "--mode", "path-dependent", "--output", str(tmp_path / "out.csv"),
    ]
    request = ExplainRequest(model, X, None, "path-dependent", SHAPLEY)
    assert not cli_module._streams(request, 5000)
    assert main(argv + ["--memory-budget", str(projected_peak_bytes(request) + 1)]) == 3
    assert sorted(os.listdir(tmp_path)) == ["d.csv"]

    figure = cli_module._projected_bytes(request)
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= figure <= 4 * peak, (peak, figure)


def test_budget_that_refuses_one_pass_streams(tmp_path, monkeypatch):
    # 5,460 path-dependent rows of 60 features stream, as their streamed
    # budget figure is the smaller; a budget under the one-pass figure but
    # over the streamed one admits them, and both runs write the reference bytes
    model = random_model(2, max_depth=6, n_features=60, n_trees=100)
    X = random_dataset(np.random.default_rng(0), 5460, 60)
    write_csv(tmp_path / "d.csv", [f"f{i}" for i in range(60)], X.tolist())
    monkeypatch.setattr(cli_module, "_load_model", lambda config: model)
    argv = [
        "explain", "--model", "unused", "--data", str(tmp_path / "d.csv"),
        "--mode", "path-dependent", "--output", str(tmp_path / "out.csv"),
    ]
    budget = 7_000_000
    request = ExplainRequest(model, X, None, "path-dependent", SHAPLEY)
    assert cli_module._streams(request, 5460)
    assert cli_module._projected_bytes(request, cli_module._chunk_rows(60)) <= budget
    assert budget < cli_module._projected_bytes(request)
    result = explain(request)
    write_values_csv_reference(tmp_path / "want.csv", result.values, result.base_value, False)
    want = (tmp_path / "want.csv").read_bytes()
    _must_stream(monkeypatch)
    assert main(argv) == 0
    assert (tmp_path / "out.csv").read_bytes() == want

    tracemalloc.start()
    try:
        assert main(argv + ["--memory-budget", str(budget)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, peak
    assert (tmp_path / "out.csv").read_bytes() == want


def test_budget_refusing_both_figures_exits_before_parsing(tmp_path, monkeypatch):
    # a regular file with no quote and no blank line has as many rows as line
    # ends: a budget under both of its figures refuses it before any parse
    model = random_model(2, max_depth=6, n_features=60, n_trees=100)
    X = random_dataset(np.random.default_rng(0), 5460, 60)
    write_csv(tmp_path / "d.csv", [f"f{i}" for i in range(60)], X.tolist())
    monkeypatch.setattr(cli_module, "_load_model", lambda config: model)
    request = ExplainRequest(model, X, None, "path-dependent", SHAPLEY)
    budget = 5_000_000
    assert cli_module._projected_bytes(request, cli_module._chunk_rows(60)) > budget
    assert cli_module._projected_bytes(request) > budget

    def unparsed(*args, **kwargs):
        raise AssertionError("rows parsed before the budget refused them")

    monkeypatch.setattr(cli_module, "_read_rows", unparsed)
    argv = [
        "explain", "--model", "unused", "--data", str(tmp_path / "d.csv"),
        "--mode", "path-dependent", "--output", str(tmp_path / "out.csv"),
        "--memory-budget", str(budget),
    ]
    assert main(argv) == 3
    assert sorted(os.listdir(tmp_path)) == ["d.csv"]


def test_budget_of_the_smaller_figure_runs(tmp_path, monkeypatch, caplog):
    # 680 background rows of 100 features: one pass's budget figure is the
    # smaller, so a budget of exactly that figure runs, in one pass, and one
    # byte less is refused before any consumer row is parsed
    model = random_model(2, max_depth=3, n_features=100, n_trees=3)
    save_canonical(model, tmp_path / "model.json")
    rng = np.random.default_rng(7)
    X = random_dataset(rng, 680, 100)
    B = random_dataset(rng, 9, 100)
    header = [f"f{i}" for i in range(100)]
    data = tmp_path / "d.csv"
    write_csv(data, header, X.tolist())
    write_csv(tmp_path / "b.csv", header, B.tolist())
    argv = [
        "explain", "--model", str(tmp_path / "model.json"), "--data", str(data),
        "--background", str(tmp_path / "b.csv"), "--output", str(tmp_path / "out.csv"),
    ]
    request = ExplainRequest(model, X, B, "background", SHAPLEY)
    one_pass = cli_module._projected_bytes(request)
    streamed = cli_module._projected_bytes(request, cli_module._chunk_rows(100))
    assert 680 > cli_module._chunk_rows(100) and one_pass < streamed
    result = explain(request)
    write_values_csv_reference(tmp_path / "want.csv", result.values, result.base_value, False)
    caplog.set_level(logging.INFO, logger="treeshap_hd")
    assert main(argv + ["--memory-budget", str(one_pass)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert f"explain: one pass: 680 rows counted, {streamed} B streamed" in caplog.text
    assert f"against {one_pass} B in one pass" in caplog.text

    (tmp_path / "out.csv").unlink()
    read_rows = cli_module._read_rows

    def background_only(reader, header, path, *args):
        assert path != str(data), "rows parsed before the budget refused them"
        return read_rows(reader, header, path, *args)

    monkeypatch.setattr(cli_module, "_read_rows", background_only)
    assert main(argv + ["--memory-budget", str(one_pass - 1)]) == 3
    assert sorted(os.listdir(tmp_path)) == ["b.csv", "d.csv", "model.json", "want.csv"]


def test_budget_counts_quoted_rows_once_parsed(tmp_path, monkeypatch):
    # line ends inside quoted cells are not rows: a budget that fits the three
    # parsed rows runs, though it would refuse as many rows as the file has
    # lines; a blank line keeps its parse error under a budget that refuses
    model = random_model(12, max_depth=6, n_features=6, n_trees=2)
    X = random_dataset(np.random.default_rng(5), 3, 6)
    header = ",".join(f"f{i}" for i in range(6))
    spread = "\n".join(",".join('"' + "\n" * 200 + repr(v) + '"' for v in row) for row in X.tolist())
    (tmp_path / "d.csv").write_text(header + "\n" + spread + "\n")
    monkeypatch.setattr(cli_module, "_load_model", lambda config: model)
    argv = [
        "explain", "--model", "unused", "--data", str(tmp_path / "d.csv"),
        "--mode", "path-dependent", "--output", str(tmp_path / "out.csv"),
    ]
    lines, exact = cli_module._data_rows(tmp_path / "d.csv")
    assert lines == 3 * 6 * 200 + 3 and not exact
    request = ExplainRequest(model, X, None, "path-dependent", SHAPLEY)
    budget = cli_module._projected_bytes(request)
    assert cli_module._projected_bytes(request, n_rows=lines) > budget
    assert main(argv + ["--memory-budget", str(budget)]) == 0
    _, rows = read_output(tmp_path / "out.csv")
    assert np.array_equal(np.array(rows)[:, 2:], explain(request).values)

    (tmp_path / "d.csv").write_text(header + "\n" + "\n".join(",".join(map(repr, r)) for r in X.tolist()) + "\n\n")
    assert cli_module._data_rows(tmp_path / "d.csv") == (4, False)
    assert main(argv + ["--memory-budget", "64"]) == 2


def test_piped_rows_take_the_whole_file_loop(tmp_path, monkeypatch, hundred_row_chunks):
    # a pipe cannot be counted before it is read: its rows are one chunk,
    # and the budget figure counts them once parsed
    model, X, B, argv = _stream_setup(tmp_path, "background")
    with monkeypatch.context() as streaming:
        _must_stream(streaming)
        assert main(argv) == 0  # 1,201 rows in a regular file: streamed
    want = (tmp_path / "out.csv").read_bytes()
    (tmp_path / "out.csv").unlink()
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    data = (tmp_path / "d.csv").read_bytes()
    argv[argv.index("--data") + 1] = str(pipe)

    def run(extra):
        def feed():
            with open(pipe, "wb") as fh:
                fh.write(data)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        code = main(argv + extra)
        feeder.join(timeout=60)
        assert not feeder.is_alive()
        return code

    def streamed(*args, **kwargs):
        raise AssertionError("piped rows should not stream")

    monkeypatch.setattr(cli_module, "prepare", streamed)
    assert run([]) == 0
    assert (tmp_path / "out.csv").read_bytes() == want

    figure = cli_module._projected_bytes(ExplainRequest(model, X, B, "background", SHAPLEY))
    (tmp_path / "out.csv").unlink()
    assert run(["--memory-budget", str(figure - 1)]) == 3
    assert not (tmp_path / "out.csv").exists()
    assert run(["--memory-budget", str(figure)]) == 0


def _bad_cell_setup(tmp_path):
    # a three-feature model and one consumer row whose middle cell is a word
    model = random_model(2, max_depth=3, n_features=3, n_trees=2)
    save_canonical(model, tmp_path / "model.json")
    argv = [
        sys.executable, "-m", "treeshap_hd.cli", "explain", "--model", str(tmp_path / "model.json"),
        "--mode", "path-dependent", "--output", str(tmp_path / "out.csv"),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(treeshap_hd.__file__)))
    return argv, env, b"f0,f1,f2\n0.1,abc,0.3\n"


def test_piped_bad_cell_is_named_without_reading_again(tmp_path):
    # the diagnostic is worded from the rows already read: a FIFO cannot be
    # opened a second time, so reading it again would wait for a new writer
    argv, env, data = _bad_cell_setup(tmp_path)
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)

    def feed():
        with open(pipe, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    proc = subprocess.run(argv + ["--data", str(pipe)], env=env, capture_output=True, timeout=60)
    feeder.join(timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.decode().strip() == f"treeshap-hd: {pipe}: row 0, column f1: 'abc' is not a number"
    assert not (tmp_path / "out.csv").exists()


def test_stdin_bad_cell_is_named(tmp_path):
    argv, env, data = _bad_cell_setup(tmp_path)
    proc = subprocess.run(
        argv + ["--data", "/dev/stdin"], env=env, input=data, capture_output=True, timeout=60
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.decode().strip() == "treeshap-hd: /dev/stdin: row 0, column f1: 'abc' is not a number"


@pytest.mark.parametrize("bad", [(0, 0), (2, 1), (3, 0), (5, 1), (17, 1)])
@pytest.mark.parametrize("cell", ["abc", "nan", "inf", None])
def test_diagnostics_across_parse_blocks(tmp_path, monkeypatch, bad, cell):
    # rows parse three at a time here: whichever block holds the offending
    # cell, and whatever an earlier block of the chunk held, the first
    # offending cell in row-major order is named, as the per-cell reader does
    monkeypatch.setattr(cli_module, "_PARSE_VALUES", 6)
    rows = random_dataset(np.random.default_rng(6), 20, 2).tolist()
    r, c = bad
    if cell is None:
        rows[r] = rows[r][:1]  # a ragged row
    else:
        rows[r][c] = cell
    rows[19][0] = "later"  # a second fault after the first is never named
    path = tmp_path / "d.csv"
    write_csv(path, ["x0", "x1"], rows)
    with pytest.raises(ValidationError) as fast:
        _load_csv(path)
    with pytest.raises(ValidationError) as per_cell:
        load_csv_cells(path)
    assert str(fast.value) == str(per_cell.value)
    assert f"row {r}," in str(fast.value) or f"row {r} has" in str(fast.value)
    # in chunks of four rows, each numbered from its first row in the file
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        with pytest.raises(ValidationError) as chunked:
            for first in range(0, 20, 4):
                assert cli_module._read_rows(reader, header, path, 4, first).shape == (4, 2)
    assert str(chunked.value) == str(per_cell.value)
