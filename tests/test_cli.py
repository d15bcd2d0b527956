import csv
import json
import os

import numpy as np
import pytest

import treeshap_hd.engine as engine_module
from treeshap_hd.cli import RunConfig, cmd_bench, main
from treeshap_hd.model import save_canonical
from treeshap_hd.synthetic import random_dataset, random_model

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


def test_threads_flag_is_bit_identical(tmp_path):
    model = random_model(8, max_depth=5, n_features=4, n_trees=4)
    model_path = tmp_path / "model.json"
    save_canonical(model, model_path)
    rng = np.random.default_rng(1)
    header = [f"f{i}" for i in range(4)]
    write_csv(tmp_path / "d.csv", header, random_dataset(rng, 6, 4).tolist())
    write_csv(tmp_path / "b.csv", header, random_dataset(rng, 9, 4).tolist())
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"out{threads}.csv"
        assert main([
            "explain", "--model", str(model_path), "--data", str(tmp_path / "d.csv"),
            "--background", str(tmp_path / "b.csv"), "--threads", threads,
            "--output", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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
        assert a["peak_bytes"] == b["peak_bytes"]
        assert a["adds"] >= 0 and a["muls"] >= 0
        assert a["wall_time_seconds"] > 0


def test_bench_skips_dense_beyond_cap(tmp_path):
    config = RunConfig(seed=0)
    code, report = cmd_bench(config, depths=[13], methods=("dense",))
    assert code == 0
    assert report.records == [
        {"depth": 13, "method": "dense", "mode": "background", "skipped": True, "reason": "budget"}
    ]


def test_bench_skips_when_budget_too_small():
    config = RunConfig(seed=0, memory_budget_bytes=1024)
    code, report = cmd_bench(config, depths=[8], methods=("hd",))
    assert report.records[0]["skipped"] and report.records[0]["reason"] == "budget"


def test_bad_model_path_exits_2(tmp_path):
    code = main([
        "explain", "--model", str(tmp_path / "nope.json"), "--data", "x",
        "--output", "y",
    ])
    assert code == 2


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
