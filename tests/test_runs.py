"""Run artefacts: the files `run_training` writes and the table of the
`memsweep` command."""

import csv
import json

import numpy as np
import pytest

from tokentune.checkpoint import load_model, save_model
from tokentune.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from tokentune.config import (ConfigError, ModelConfig, RunConfig,
                              TaskConfig, TrainConfig)
from tokentune.data import (DataError, build_task_datasets, lm_example,
                            synthetic_text)
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


@pytest.mark.parametrize("point, message", [
    ({"regimes": ["full", "bogus"]}, "train.regime.*not 'bogus'"),
    ({"ratios": (0.5, 2.0)}, r"train.selection_ratio.*not 2.0"),
    ({"n": 0}, "task.seq_len.*>= 2, not 0"),
    ({"n": 1}, "task.seq_len.*>= 2, not 1"),
], ids=["unknown-regime", "ratio-2", "n-0", "n-1"])
def test_sweep_report_refuses_a_bad_point_before_any_step(
        tmp_path, monkeypatch, point, message):
    # the run's configs check every point, all before the first step
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")
    monkeypatch.setattr(Trainer, "train_step", no_step)
    args = {"n": 8, "regimes": ["full", "tokentune"], **point}
    out = tmp_path / "sweep.csv"
    with pytest.raises(ConfigError, match=message):
        sweep_report(ModelConfig(d_model=8, n_heads=2, d_ff=12, n_layers=1),
                     TrainConfig(), out_path=out, **args)
    assert not out.exists()


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


@pytest.mark.parametrize("option,message", [
    (["--regimes", "full,bogus"], "bogus"),
    (["--n", "0"], "--n: must be >= 2, not 0"),
    (["--n", "-3"], "--n: must be >= 2, not -3"),
    (["--n", "1"], "--n: must be >= 2, not 1"),
    (["--batch", "0"], "--batch: must be >= 1, not 0"),
    (["--out", "."], "--out: . is a directory"),
    (["--out", ""], "--out: the path is empty"),
], ids=["unknown-regime", "n-0", "negative-n", "n-1", "batch-0",
        "out-is-a-directory", "out-is-empty"])
def test_memsweep_exits_with_code_2_on_a_bad_option(tmp_path, capsys,
                                                    option, message):
    out = tmp_path / "sweep.csv"
    code = main(["memsweep", "--config", tiny_sweep_config(tmp_path),
                 "--out", str(out), "--n", "8", *option])
    assert code == EXIT_BAD_CONFIG
    assert message in capsys.readouterr().err
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


def test_an_lm_example_targets_the_next_id():
    example = lm_example(np.array([5, 7, 9]))
    assert example.seq.tolist() == [5, 7, 9]
    assert example.targets.tolist() == [7, 9, -1]


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


def write_config(tmp_path, doc) -> str:
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    return str(config)


@pytest.mark.parametrize("doc, message", [
    ({"model": {"causal": True, "n_classes": None},
      "task": {"kind": "lm", "corpus_path": "no-such-corpus.txt"}},
     "corpus file not found"),
    ({"model": {"causal": True, "n_classes": None},
      "task": {"kind": "lm", "corpus_path": "."}},
     "corpus path is a directory: ."),
    ({"model": {"max_positions": 32}, "task": {"seq_len": 33}},
     "exceeds model max_positions 32"),
], ids=["missing-corpus", "corpus-is-a-directory",
        "seq-len-past-max-positions"])
def test_train_exits_with_code_2_on_data_the_config_cannot_have(
        tmp_path, capsys, doc, message):
    code = main(["train", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "invalid data" in err and message in err


def test_set_n_classes_sets_the_models_classes(tmp_path):
    doc = {"model": {"d_model": 8, "n_heads": 2, "d_ff": 12, "n_layers": 1},
           "train": {"max_steps": 1, "batch_size": 2},
           "task": {"n_train": 12, "n_test": 6, "seq_len": 8}}
    run = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, doc),
                 "--set", "n_classes=3", "--out", str(run)]) == EXIT_OK
    resolved = json.loads((run / "config.json").read_text())
    assert resolved["model"]["n_classes"] == 3
    assert "n_classes" not in resolved["task"]
    train, test = build_task_datasets(
        TaskConfig(n_train=12, n_test=6, seq_len=8), ModelConfig(n_classes=3))
    assert {ex.label for ex in train + test} == {0, 1, 2}


def test_a_task_n_classes_is_refused_as_an_unknown_field(tmp_path, capsys):
    # the model's n_classes is the one number of classes
    doc = {"task": {"n_classes": 2}}
    assert main(["train", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "run")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "task.n_classes" in err and "unknown field" in err


def test_a_task_stride_is_refused_as_an_unknown_field(tmp_path, capsys):
    # LM windows are back to back: a window's stride is its seq_len
    doc = {"task": {"stride": 4}}
    assert main(["train", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "run")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "task.stride" in err and "unknown field" in err
    assert not (tmp_path / "run").exists()


def test_overrides_apply_before_the_config_is_checked(tmp_path):
    # a file that the config refuses alone, completed by --set
    doc = {**TINY_LORA_RUN, "train": {"regime": "tokentune",
                                      "max_steps": 1, "batch_size": 2}}
    run = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, doc),
                 "--set", "k=4", "--out", str(run)]) == EXIT_OK
    resolved = json.loads((run / "config.json").read_text())
    assert resolved["train"]["regime"] == "tokentune"
    assert resolved["train"]["k"] == 4


@pytest.mark.parametrize("doc, override, message", [
    ({}, ["--set", "out_dir.x=1"], "'out_dir.x': unknown section"),
    ({"out_dir": 5}, [], "'out_dir': must be a string, not 5"),
    ({}, ["--set", "out_dir=5"], "'out_dir': must be a string, not 5"),
    ({"train": 3}, ["--set", "train.k=4"], "'train': must be an object"),
    ({}, ["--out", "{config}"], "run.json is not a directory"),
    ({}, ["--out", "{config}/run"], "run.json is not a directory"),
    ({}, ["--config", "."], "config path is a directory: ."),
    ({}, ["--set", "out_dir="], "'out_dir': must be a non-empty path"),
    ({}, ["--out", ""], "invalid run directory: the path is empty"),
], ids=["out-dir-as-section", "out-dir-number-in-file",
        "out-dir-number-set", "section-not-an-object", "out-is-a-file",
        "out-under-a-file", "config-is-a-directory", "out-dir-empty",
        "out-is-empty"])
def test_train_exits_with_code_2_on_a_bad_out_dir_or_section(
        tmp_path, capsys, doc, override, message):
    # a later --out or --config replaces the first; {config} is the
    # config file's path
    config = write_config(tmp_path, doc)
    code = main(["train", "--config", config, "--out", str(tmp_path / "run"),
                 *(arg.format(config=config) for arg in override)])
    assert code == EXIT_BAD_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("alpha", ["0", "-2"])
def test_train_exits_with_code_2_on_a_lora_alpha_not_above_0(
        tmp_path, capsys, alpha):
    # refused before any step, not by the checkpoint after the last one
    run = tmp_path / "run"
    code = main(["train", "--config", write_config(tmp_path, TINY_LORA_RUN),
                 "--set", f"lora_alpha={alpha}", "--out", str(run)])
    assert code == EXIT_BAD_CONFIG
    assert f"'train.lora_alpha': must be > 0, not {float(alpha)}" \
        in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("override, message", [
    ("train.seed=-1", "'train.seed': must be >= 0, not -1"),
    ("task.data_seed=-1", "'task.data_seed': must be >= 0, not -1"),
    ("learning_rate=-0.01", "'train.learning_rate': must be > 0, not -0.01"),
    ("learning_rate=0", "'train.learning_rate': must be > 0, not 0.0"),
    ("weight_decay=-1", "'train.weight_decay': must be >= 0, not -1.0"),
], ids=["negative-seed", "negative-data-seed", "negative-learning-rate",
        "zero-learning-rate", "negative-weight-decay"])
def test_train_exits_with_code_2_on_a_seed_or_optimizer_setting_below_its_floor(
        tmp_path, capsys, override, message):
    # refused by the configs: a negative seed cannot seed numpy's
    # SeedSequence, and these optimizer settings cannot train
    run = tmp_path / "run"
    code = main(["train", "--config", write_config(tmp_path, {}),
                 "--set", override, "--out", str(run)])
    assert code == EXIT_BAD_CONFIG
    assert message in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("option, message", [
    (["--seed", "-1"], "invalid --seed -1: must be >= 0"),
    (["--n-configs", "0"], "invalid --n-configs 0: must be >= 1"),
], ids=["negative-seed", "no-configs"])
def test_gradcheck_exits_with_code_2_on_an_option_below_its_floor(
        capsys, option, message):
    assert main(["gradcheck", *option]) == EXIT_BAD_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "d_model=16.0", "n_layers=true", "causal=1", "batch_size=2.0",
    "epochs=1.0", "lora_r=2.5", "k=3.5", "seq_len=8.0",
    "learning_rate=abc", "lora_alpha=x", "selection_ratio=abc",
    "weight_decay=true", "difficulty=nan", "learning_rate=inf"])
def test_train_exits_with_code_2_on_a_field_of_the_wrong_type(
        tmp_path, capsys, override):
    # an int field takes no float or bool, a float field only a finite
    # number, and causal only a bool
    code = main(["train", "--config", write_config(tmp_path, {}),
                 "--set", override, "--out", str(tmp_path / "run")])
    assert code == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "invalid config" in err and override.split("=")[0] in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, name, value", [
    ("task", "corpus_path", 5), ("task", "kind", 5),
    ("train", "regime", 5), ("train", "dtype", 64)])
def test_train_exits_with_code_2_on_a_string_field_holding_no_string(
        tmp_path, capsys, section, name, value):
    # a corpus path of 5 used to pass the configs and die in the corpus
    # reader with an uncaught TypeError
    doc = {"model": {"causal": True, "n_classes": None},
           "task": {"kind": "lm", "corpus_path": "corpus.txt"}}
    doc.setdefault(section, {})[name] = value
    run = tmp_path / "run"
    code = main(["train", "--config", write_config(tmp_path, doc),
                 "--out", str(run)])
    assert code == EXIT_BAD_CONFIG
    assert f"'{section}.{name}': must be a string, not {value}" \
        in capsys.readouterr().err
    assert not run.exists()


TINY_LORA_RUN = {"model": {"d_model": 8, "n_heads": 2, "d_ff": 12,
                           "n_layers": 1},
                 "train": {"regime": "lora", "max_steps": 1,
                           "batch_size": 2},
                 "task": {"n_train": 4, "n_test": 2, "seq_len": 8}}


def test_set_lora_targets_to_one_keyword_trains_it(tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, TINY_LORA_RUN),
                 "--set", "lora_targets=w1", "--out", str(run)]) == EXIT_OK
    resolved = json.loads((run / "config.json").read_text())
    assert resolved["train"]["lora_targets"] == ["w1"]


@pytest.mark.parametrize("targets", ["w3", "w1,w1", "w1,w3", ""])
def test_train_exits_with_code_2_on_bad_lora_targets(tmp_path, capsys,
                                                      targets):
    code = main(["train", "--config", write_config(tmp_path, TINY_LORA_RUN),
                 "--set", f"lora_targets={targets}",
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_BAD_CONFIG
    assert "train.lora_targets" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_empty_lora_targets_are_refused():
    with pytest.raises(ConfigError, match="train.lora_targets"):
        RunConfig.from_dict({"train": {"lora_targets": []}})


@pytest.mark.parametrize("override", [
    "max_steps=0", "max_steps=-2", "epochs=0", "eval_windows=0",
    "eval_windows=-1"])
def test_a_run_that_trains_nothing_or_on_nothing_is_refused(
        tmp_path, capsys, override):
    # each of these ran and exited 0: max_steps <= 0 trained one step,
    # epochs=0 none, and eval_windows <= 0 held out all or all but one of
    # an LM corpus' windows
    code = main(["train", "--config", write_config(tmp_path, {}),
                 "--set", override, "--out", str(tmp_path / "run")])
    assert code == EXIT_BAD_CONFIG
    field, value = override.split("=")
    err = capsys.readouterr().err
    assert f"{field}': must be >= 1, not {value}" in err
    assert not (tmp_path / "run").exists()


def test_set_selection_ratio_beside_k_is_refused(tmp_path, capsys):
    doc = {"train": {"regime": "tokentune", "k": 4}}
    code = main(["train", "--config", write_config(tmp_path, doc),
                 "--set", "selection_ratio=0.5",
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "train.selection_ratio" in err and "not both" in err
    assert not (tmp_path / "run").exists()


def test_eval_takes_no_out_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--config", write_config(tmp_path, {}),
              "--checkpoint", str(tmp_path / "model.ckpt"),
              "--out", str(tmp_path / "eval")])
    assert exit_info.value.code == EXIT_BAD_CONFIG
    assert "--out" in capsys.readouterr().err


def test_numpy_scalars_in_configs_are_stored_as_python_numbers(tmp_path):
    model = ModelConfig(d_model=np.int64(8), n_heads=2, d_ff=12, n_layers=1)
    train = TrainConfig(batch_size=np.int64(3), max_steps=np.int32(1),
                        learning_rate=np.float32(0.5), lora_alpha=4)
    assert type(model.d_model) is int and type(train.batch_size) is int
    assert type(train.max_steps) is int
    assert type(train.learning_rate) is float
    assert type(train.lora_alpha) is float
    assert train.selection_ratio is None and model.causal is False
    save_model(build_model(model), tmp_path / "model.ckpt")
    assert load_model(tmp_path / "model.ckpt").config == model
    run = RunConfig(model=model, train=train,
                    task=TaskConfig(n_train=4, n_test=2, seq_len=8))
    assert run_training(run, tmp_path / "run").steps == 1
    resolved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert resolved["train"]["batch_size"] == 3
