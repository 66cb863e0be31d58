"""Run artefacts: the files `run_training` writes and the table of the
`memsweep` command."""

import csv
import json

import numpy as np
import pytest

from tokentune.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from tokentune.config import ModelConfig, RunConfig, TaskConfig, TrainConfig
from tokentune.data import DataError, build_task_datasets, synthetic_text
from tokentune.memprofile import SWEEP_COLUMNS, sweep_report
from tokentune.model import build_model
from tokentune.optimize import Trainer, run_training


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


def read_sweep(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return tuple(reader.fieldnames), list(reader)


def tiny_sweep_config(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"d_model": 8, "n_heads": 2,
                                            "d_ff": 12, "n_layers": 1}}))
    return str(config)


def test_memsweep_with_no_regimes_writes_only_the_header(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["memsweep", "--config", tiny_sweep_config(tmp_path),
                 "--out", str(out), "--n", "8", "--regimes", ""])
    assert code == EXIT_OK
    assert read_sweep(out) == (SWEEP_COLUMNS, [])


def test_memsweep_turns_a_ratio_into_the_k_training_selects(tmp_path):
    # 0.125 of 20 positions is 2.5, which training rounds half up
    out = tmp_path / "sweep.csv"
    code = main(["memsweep", "--config", tiny_sweep_config(tmp_path),
                 "--out", str(out), "--n", "20", "--regimes", "tokentune",
                 "--ratios", "0.125"])
    assert code == EXIT_OK
    _, rows = read_sweep(out)
    cfg = ModelConfig(max_positions=20, d_model=8, n_heads=2, d_ff=12,
                      n_layers=1, causal=True, n_classes=None)
    trainer = Trainer(build_model(cfg), TrainConfig(
        regime="tokentune", selection_ratio=0.125), "lm")
    k = trainer.partition_for(np.zeros(20, np.intp), 0).k
    assert k == 3
    assert [(r["regime"], r["k"]) for r in rows] == [("tokentune", str(k))]


def test_sweep_needs_k_for_a_selective_regime():
    with pytest.raises(ValueError, match="needs k"):
        sweep_report([{"regime": "tokentune", "n": 16}],
                     ModelConfig(d_model=16, n_layers=1), TrainConfig())


@pytest.mark.parametrize("k", [0, 17, -1])
def test_sweep_refuses_a_k_the_step_cannot_select(k):
    # a row's k must be the k its step selected: at most n, at least 1
    with pytest.raises(ValueError, match="needs k in 1..16"):
        sweep_report([{"regime": "tokentune", "n": 16, "k": k}],
                     ModelConfig(d_model=16, n_layers=1), TrainConfig())


@pytest.mark.parametrize("ratios",
                         ["2,-1", "0.5,2", "0", "-0.25", "nan", "0.5,x"])
def test_memsweep_refuses_a_ratio_training_refuses(tmp_path, capsys, ratios):
    out = tmp_path / "sweep.csv"
    code = main(["memsweep", "--config", tiny_sweep_config(tmp_path),
                 "--out", str(out), "--n", "8", "--regimes", "tokentune",
                 "--ratios", ratios])
    assert code == EXIT_BAD_CONFIG
    assert "(0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_memsweep_profiles_the_configured_model(tmp_path):
    # d_model=12 is not divisible by 8: a sweep must use the 4 heads set
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"d_model": 12, "n_heads": 4,
                                            "d_ff": 20, "n_layers": 1},
                                  "train": {"dtype": "float64"}}))
    out = tmp_path / "sweep.csv"
    code = main(["memsweep", "--config", str(config), "--out", str(out),
                 "--n", "16", "--regimes", "full,lora"])
    assert code == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = {r["regime"]: r for r in csv.DictReader(fh)}
    d, d_ff, n, vocab = 12, 20, 16, ModelConfig().vocab_size
    layer = 4 * (d * d + d) + 4 * d + d * d_ff + d_ff + d_ff * d + d
    elements = vocab * d + n * d + layer + d * vocab
    assert int(rows["full"]["params_bytes"]) == elements * 8
    # the run's LoRA settings: rank 8 on w1 and w2
    lora = 8 * (d + d_ff) * 2
    assert int(rows["lora"]["params_bytes"]) == (elements + lora) * 8
    assert int(rows["lora"]["grads_bytes"]) == lora * 8


def test_tokentune_lm_example_without_a_selected_target_adds_nothing(
        tmp_path):
    # at k = 1 the one selected position is sometimes the window's last,
    # which has no next-token target
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(synthetic_text(2000, seed=0))
    cfg = RunConfig(
        model=ModelConfig(max_positions=8, d_model=8, n_heads=2, d_ff=12,
                          n_layers=1, causal=True, n_classes=None),
        train=TrainConfig(regime="tokentune", k=1, batch_size=1,
                          max_steps=40, seed=0),
        task=TaskConfig(kind="lm", seq_len=8, corpus_path=str(corpus),
                        eval_windows=4))
    train, _ = build_task_datasets(cfg.task, cfg.model)
    trainer = Trainer(build_model(cfg.model, seed=0), cfg.train, "lm")
    lone = [i for i in range(40)
            if trainer.partition_for(train[i].seq, i).selected[0] == 7]
    assert lone  # the case occurs in the first 40 examples
    before = {name: arr.copy() for name, arr in trainer.accum.items()}
    trainer.example_counter = lone[0]
    metrics = trainer.train_step([train[lone[0]]])
    assert metrics["loss"] == 0.0 and metrics["activation_bytes"] == 0
    assert all(np.array_equal(trainer.accum[name], before[name])
               for name in before)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg.to_dict()))
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path / "run")]) == EXIT_OK


@pytest.mark.parametrize("vocab_size, builds", [(256, True), (255, False)])
def test_byte_lm_needs_a_token_per_byte_value(tmp_path, vocab_size, builds):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(bytes(range(256)) * 4)
    model = ModelConfig(vocab_size=vocab_size, max_positions=16, d_model=8,
                        n_heads=2, d_ff=12, n_layers=1, causal=True,
                        n_classes=None)
    task = TaskConfig(kind="lm", seq_len=16, corpus_path=str(corpus),
                      eval_windows=4)
    if not builds:
        with pytest.raises(DataError, match="vocab_size >= 256"):
            build_task_datasets(task, model)
        return
    train, test = build_task_datasets(task, model)
    ids = np.concatenate([ex.seq for ex in train + test])
    assert ids.max() == 255 and len(train) + len(test) == 64
    trainer = Trainer(build_model(model), TrainConfig(batch_size=2), "lm")
    assert np.isfinite(trainer.train_step(train[:2])["loss"])
