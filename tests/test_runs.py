"""Run artefacts: the files `run_training` writes and the table of the
`memsweep` command."""

import csv
import json

import pytest

from tokentune.cli import EXIT_OK, main
from tokentune.config import ModelConfig, RunConfig, TaskConfig, TrainConfig
from tokentune.memprofile import SWEEP_COLUMNS, sweep_report
from tokentune.optimize import run_training


def tiny_run(regime: str) -> RunConfig:
    return RunConfig(
        model=ModelConfig(vocab_size=32, max_positions=16, d_model=8,
                          n_heads=2, d_ff=12, n_layers=2),
        train=TrainConfig(regime=regime,
                          k=4 if regime.startswith("tokentune") else None,
                          batch_size=3, learning_rate=1e-2, seed=4),
        task=TaskConfig(n_train=7, n_test=3, seq_len=12))


@pytest.mark.parametrize("regime",
                         ["full", "tokentune", "lora", "tokentune+lora"])
def test_run_training_reports_per_example_memory(tmp_path, regime):
    result = run_training(tiny_run(regime), tmp_path)
    steps = [json.loads(line) for line in
             (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert result.steps == len(steps) == 3  # 7 examples in batches of 3
    assert all(step["activation_bytes"] > 0 for step in steps)
    report = json.loads((tmp_path / "memory.json").read_text())
    activations = report["activations_bytes"]
    assert activations == steps[-1]["activation_bytes"]
    assert report["peak_bytes"] == steps[-1]["peak_bytes"]
    assert 0 < activations <= report["peak_bytes"]
    assert sum(report["per_layer"].values()) == activations
    assert sum(report["per_op"].values()) == activations
    # the embedding's output feeds a layer norm and a residual add, which
    # keep their own saves, not it
    assert set(report["per_layer"]) == {"layer.0", "layer.1", "head"}


def test_memsweep_writes_a_header_and_a_row_per_grid_point(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"d_model": 16,
                                            "n_layers": 1}}))
    out = tmp_path / "sweep.csv"
    code = main(["memsweep", "--config", str(config), "--out", str(out),
                 "--n", "16", "--regimes", "full,tokentune",
                 "--ratios", "0.25,0.5"])
    assert code == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert tuple(reader.fieldnames) == SWEEP_COLUMNS
    assert [(r["regime"], r["k"]) for r in rows] \
        == [("full", "16"), ("tokentune", "4"), ("tokentune", "8")]
    for row in rows:
        assert 0 < int(row["activations_bytes"]) <= int(row["peak_bytes"])


def test_sweep_needs_k_for_a_selective_regime():
    with pytest.raises(ValueError, match="needs k"):
        sweep_report([{"regime": "tokentune", "n": 16}], d_model=16,
                     n_layers=1)
