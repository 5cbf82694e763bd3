"""Harness: CLI subcommands, training artifacts, eval trail, ablation grid."""

import csv
import filecmp
import gc
import json
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from handmesh import ablate as ablate_module
from handmesh import bench, dataio
from handmesh import train as train_module
from handmesh.ablate import apply_cell, cell_id, expand_grid, read_rows, run_ablation, summarize
from handmesh.bench import run_bench
from handmesh.cli import main
from handmesh.config import ExperimentConfig
from handmesh.evaluate import evaluate, reaggregate_csv
from handmesh.losses import LossWeights
from handmesh.metrics import METRIC_COLUMNS
from handmesh.model import ModelOutput
from handmesh.tokens import SamplerConfig
from handmesh.train import batch_loss, build_model, dataset_loss, load_trained_model, train
from handmesh.autograd import Tape, Tensor


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    path = str(root / "data")
    dataio.generate_dataset(path, 6, 7)
    return path


def tiny_config(dataset, out_dir, **kw):
    defaults = dict(dataset=dataset, out_dir=str(out_dir), total_steps=2,
                    batch_size=2, seed=0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class OracleModel:
    """Emits the ground truth it is primed with, in evaluation order."""

    def __init__(self, dataset, indices):
        self.v = [dataset[i].V_3d for i in indices]
        self.k = [dataset[i].J_2d for i in indices]
        self.cursor = 0

    def __call__(self, image):
        n = image.shape[0]
        sl = slice(self.cursor, self.cursor + n)
        self.cursor += n
        return ModelOutput(vertices=Tensor(np.stack(self.v[sl]).astype(np.float64)),
                           keypoints_2d=Tensor(np.stack(self.k[sl]).astype(np.float64)))


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config("somewhere", tmp_path, seed=5, lr=2e-3)
        p = tmp_path / "cfg.json"
        cfg.save(p)
        assert ExperimentConfig.load(p) == cfg

    @pytest.mark.parametrize("kw", [dict(lr=0.0), dict(total_steps=-1),
                                    dict(batch_size=0), dict(weight_decay=-0.1),
                                    dict(lr=float("nan")), dict(lr=float("inf")),
                                    dict(weight_decay=float("nan")), dict(weight_decay=float("inf")),
                                    dict(batch_size=2.5), dict(total_steps=True),
                                    dict(total_steps=2.0), dict(seed=-1), dict(seed=1.0),
                                    dict(lr=True), dict(weight_decay=False),
                                    dict(weight_decay=True)])
    def test_invalid_rejected(self, kw, tmp_path):
        with pytest.raises(ValueError):
            tiny_config("x", tmp_path, **kw)

    def test_int_and_numpy_float_rates_accepted(self, tmp_path):
        cfg = tiny_config("x", tmp_path, lr=1, weight_decay=np.float32(0.5))
        assert (cfg.lr, cfg.weight_decay) == (1, 0.5)

    def test_nan_learning_rate_in_file_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"lr": NaN}\n')
        with pytest.raises(ValueError, match="learning rate"):
            ExperimentConfig.load(p)


class TestGenDataCli:
    def test_twice_is_byte_identical(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen-data", "--out", a, "--count", "4", "--seed", "7"]) == 0
        assert main(["gen-data", "--out", b, "--count", "4", "--seed", "7"]) == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert info["count"] == 4

    def test_manifest_count(self, small_dataset):
        assert dataio.read_manifest(small_dataset)["count"] == 6

    def test_negative_seed_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen-data", "--out", str(out), "--count", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ValueError:")
        assert not (out / "manifest.json").exists()

    def test_unwritable_target_fails_with_one_line_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file, not a directory")
        rc = main(["gen-data", "--out", str(blocker / "sub"), "--count", "1", "--seed", "0"])
        assert rc != 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err


class TestBuildModel:
    @pytest.mark.parametrize("sampler", [SamplerConfig(), SamplerConfig("global", 7, "none")],
                             ids=["paper", "global"])
    def test_float64_build_is_the_float32_build_cast(self, sampler):
        cfg = ExperimentConfig(sampler=sampler, seed=4)
        want = build_model(cfg).state_dict()
        got = build_model(cfg, np.float64).state_dict()
        assert got.keys() == want.keys()
        for name, arr in got.items():
            assert arr.dtype == np.float64
            assert np.array_equal(arr, want[name].astype(np.float64)), name

    def test_dropped_model_leaves_no_reference_cycle(self):
        # parameters held by a cycle stay allocated until the cyclic collector
        # happens to run, so a run's peak memory would hang on its timing
        gc.collect()
        gc.disable()
        try:
            model = build_model(ExperimentConfig())
            model.load_state_dict(model.state_dict())
            del model
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTrain:
    def test_zero_steps_checkpoint_equals_initialization(self, small_dataset, tmp_path):
        cfg = tiny_config(small_dataset, tmp_path / "run", total_steps=0)
        art = train(cfg)
        state, _ = dataio.read_checkpoint(art.checkpoint)
        fresh = build_model(cfg).state_dict()
        assert sorted(state) == sorted(fresh)
        with np.load(art.checkpoint) as npz:  # a standard archive of exactly the state
            assert sorted(npz.files) == sorted(fresh)
        for name in fresh:
            assert np.array_equal(state[name], fresh[name]), name

    def test_same_seed_twice_identical(self, small_dataset, tmp_path):
        a = train(tiny_config(small_dataset, tmp_path / "a", total_steps=3, seed=9))
        b = train(tiny_config(small_dataset, tmp_path / "b", total_steps=3, seed=9))
        assert a.final_loss == b.final_loss
        assert filecmp.cmp(a.checkpoint, b.checkpoint, shallow=False)

    def test_step_log_rows_recombine(self, small_dataset, tmp_path):
        import csv

        cfg = tiny_config(small_dataset, tmp_path / "run", total_steps=3)
        art = train(cfg)
        with open(art.log_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            recomb = (10.0 * float(row["L_J3d"]) + 1.0 * float(row["L_J2d"])
                      + 10.0 * float(row["L_vert"]))
            assert abs(float(row["total"]) - recomb) < 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr 1e12 overflows on purpose
    def test_nonfinite_loss_aborts_with_dump(self, small_dataset, tmp_path):
        cfg = tiny_config(small_dataset, tmp_path / "run", total_steps=30, lr=1e12)
        with pytest.raises(RuntimeError, match="non-finite"):
            train(cfg)
        dump = json.loads((tmp_path / "run" / "nan_dump.json").read_text())
        assert set(dump) == {"step", "indices", "reason", "config"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr 1e12 overflows on purpose
    def test_nonfinite_final_pass_aborts_with_dump(self, tmp_path):
        # one step leaves non-finite weights, so the final dataset pass is
        # the forward that fails; the dump names all four samples it read
        data = str(tmp_path / "data")
        dataio.generate_dataset(data, 4, 7)
        cfg = tiny_config(data, tmp_path / "run", total_steps=1, lr=1e12)
        with pytest.raises(RuntimeError, match="non-finite.*at step 1"):
            train(cfg)
        dump = json.loads((tmp_path / "run" / "nan_dump.json").read_text())
        assert set(dump) == {"step", "indices", "reason", "config"}
        assert dump["step"] == 1 and dump["indices"] == [0, 1, 2, 3]

    def test_forward_stop_reason_reaches_the_dump(self, small_dataset, tmp_path, monkeypatch):
        # the vertex check fires in the dataset pass before the first step
        build = train_module.build_model

        def poisoned(cfg):
            model = build(cfg)
            model.regressor.head.bias.data[:] = np.nan
            return model

        monkeypatch.setattr(train_module, "build_model", poisoned)
        with pytest.raises(RuntimeError, match="non-finite vertex output at step 0"):
            train(tiny_config(small_dataset, tmp_path / "run"))
        dump = json.loads((tmp_path / "run" / "nan_dump.json").read_text())
        assert dump["reason"] == "non-finite vertex output"
        assert dump["step"] == 0 and dump["indices"] == list(range(6))

    def test_paper_config_step_records_72_tape_nodes(self, small_dataset):
        ds = dataio.Dataset(small_dataset)
        cfg = ExperimentConfig()
        model = build_model(cfg)
        with Tape() as tape:
            batch_loss(model, ds.batch(np.arange(4)), ds.assets.J, cfg.loss_weights)
        assert len(tape) == 72

    def test_paper_config_forward_retains_under_40_mib(self, small_dataset):
        # convs keep their inputs by reference and their batch's fold max,
        # not copies of their folds
        import tracemalloc

        ds = dataio.Dataset(small_dataset)
        x = Tensor(ds.batch(np.arange(4))["input"])
        model = build_model(ExperimentConfig())
        tracemalloc.start()
        try:
            with Tape():
                model(x)
                retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 40 * 2**20

    def test_paper_config_step_peaks_under_40_mib(self, small_dataset):
        # backward drops each node once it has run, and attention keeps no
        # probabilities, so the step peaks as the decoder's backward starts
        import tracemalloc

        ds = dataio.Dataset(small_dataset)
        batch = ds.batch(np.arange(4))
        cfg = ExperimentConfig()
        model = build_model(cfg)
        tracemalloc.start()
        try:
            with Tape() as tape:
                tape.backward(batch_loss(model, batch, ds.assets.J, cfg.loss_weights).total_node)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_dataset_loss_reads_at_most_the_loss_batch(self, small_dataset, monkeypatch):
        # per-sample forwards do not depend on the batch, so only the
        # chunk-mean summation moves with LOSS_BATCH
        ds = dataio.Dataset(small_dataset)
        model = build_model(ExperimentConfig())
        sizes = []
        read = ds.batch

        def batch(idxs):
            sizes.append(len(idxs))
            return read(idxs)

        monkeypatch.setattr(ds, "batch", batch)
        got = dataset_loss(model, ds, ds.assets, LossWeights())
        assert sum(sizes) == len(ds) and max(sizes) <= train_module.LOSS_BATCH < len(ds)
        monkeypatch.setattr(train_module, "LOSS_BATCH", 16)
        want = dataset_loss(model, ds, ds.assets, LossWeights())
        assert sizes[-1] == len(ds)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_missing_dataset_rejected(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "nope"), tmp_path / "run")
        with pytest.raises(FileNotFoundError):
            train(cfg)

    def test_checkpoint_round_trip_forward_is_bit_exact(self, small_dataset, tmp_path):
        cfg = tiny_config(small_dataset, tmp_path / "run", total_steps=2)
        train(cfg)
        ds = dataio.Dataset(small_dataset)
        batch = ds.batch([0, 3])
        model, _ = load_trained_model(str(tmp_path / "run"))
        before = model(Tensor(batch["input"])).vertices.data
        again, _ = load_trained_model(str(tmp_path / "run"))
        after = again(Tensor(batch["input"])).vertices.data
        assert np.array_equal(before, after)

    def test_checkpoint_config_mismatch_rejected(self, small_dataset, tmp_path):
        cfg = tiny_config(small_dataset, tmp_path / "run", total_steps=0)
        train(cfg)
        snap = json.loads((tmp_path / "run" / "config.json").read_text())
        snap["decoder"]["c"] = [256, 128, 32]  # changes parameter shapes
        (tmp_path / "run" / "config.json").write_text(json.dumps(snap))
        with pytest.raises(ValueError):
            load_trained_model(str(tmp_path / "run"))


class TestEvaluate:
    def test_oracle_predictor_scores_perfectly(self, small_dataset, tmp_path):
        ds = dataio.Dataset(small_dataset)
        idxs = list(range(len(ds)))
        report, rows = evaluate(OracleModel(ds, idxs), ds, str(tmp_path / "eval"), batch_size=4)
        assert report["count"] == 6
        for metric in ("mpjpe_mm", "mpvpe_mm", "pa_mpjpe_mm", "pa_mpvpe_mm"):
            assert report[metric] < 1e-9, metric
        assert report["f_at_05"] == 1.0 and report["f_at_15"] == 1.0

    def test_pa_never_exceeds_unaligned_per_sample(self, small_dataset, tmp_path):
        ds = dataio.Dataset(small_dataset)
        model = build_model(tiny_config(small_dataset, tmp_path))
        _, rows = evaluate(model, ds, str(tmp_path / "eval"))
        for idx, mpjpe, mpvpe, pa_mpjpe, pa_mpvpe, f05, f15 in rows:
            assert pa_mpjpe <= mpjpe + 1e-9
            assert pa_mpvpe <= mpvpe + 1e-9

    def test_report_matches_csv_reaggregation(self, small_dataset, tmp_path):
        ds = dataio.Dataset(small_dataset)
        model = build_model(tiny_config(small_dataset, tmp_path))
        report, _ = evaluate(model, ds, str(tmp_path / "eval"))
        again = reaggregate_csv(str(tmp_path / "eval" / "per_sample.csv"))
        for key, val in report.items():
            ref = again[key]
            assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref)), key

    def test_empty_index_set_rejected(self, small_dataset, tmp_path):
        ds = dataio.Dataset(small_dataset)
        model = build_model(tiny_config(small_dataset, tmp_path))
        with pytest.raises(ValueError):
            evaluate(model, ds, str(tmp_path / "eval"), indices=[])
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("batch_size", [0, -2, True, 2.5, 1.0])
    def test_nonpositive_batch_size_rejected(self, small_dataset, batch_size, monkeypatch, tmp_path):
        # the config loader's rule: an exact integer, so no bool or float either
        ds = dataio.Dataset(small_dataset)
        model = OracleModel(ds, range(len(ds)))
        reads = []
        monkeypatch.setattr(ds, "batch", reads.append)
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(model, ds, str(tmp_path / "eval"), batch_size=batch_size)
        assert reads == []
        assert not (tmp_path / "eval").exists()


IDENTITY_GRID = {"decoder": [{"m": ["identity"] * 3}]}


class TestAblate:
    def test_expand_grid_cartesian_product(self):
        grid = {"decoder": [{"pos_emb": True}, {"pos_emb": False}],
                "sampler": [{"variant": "keypoint"}, {"variant": "coarse_mesh"}]}
        cells = expand_grid(grid)
        assert len(cells) == 4
        assert {cell_id(c) for c in cells} == {
            "sampler=variant=keypoint|decoder=pos_emb=True",
            "sampler=variant=keypoint|decoder=pos_emb=False",
            "sampler=variant=coarse_mesh|decoder=pos_emb=True",
            "sampler=variant=coarse_mesh|decoder=pos_emb=False"}

    def test_dict_cells_spell_every_field(self):
        samplers = [{"variant": "keypoint", "target_resolution": 14, "upsample_scheme": "single-2x"},
                    {"variant": "keypoint", "target_resolution": 28, "upsample_scheme": "double-2x"}]
        decoders = [{"heads": 4}, {"heads": 4, "c": [128, 64, 32]}]
        ids = {cell_id(c) for c in expand_grid({"sampler": samplers, "decoder": decoders})}
        assert len(ids) == 4
        assert ("sampler=target_resolution=14,upsample_scheme=single-2x,variant=keypoint"
                "|decoder=c=128-64-32,heads=4") in ids

    def test_unknown_axis_rejected(self):
        for axis in ("flux_capacitor", "mixer", "use_pos_emb"):
            with pytest.raises(ValueError, match=axis):
                expand_grid({axis: [{}]})

    def test_non_dict_axis_value_rejected(self):
        with pytest.raises(ValueError, match="'sampler'"):
            expand_grid({"sampler": [{"variant": "keypoint"}, "global"]})

    def test_readme_grid_cells_all_apply(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        cells = expand_grid(json.loads(blocks[0]))
        assert len(cells) > 1
        for cell in cells:
            apply_cell(ExperimentConfig(), cell)

    def test_apply_cell_mixer_override(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path)
        cfg = apply_cell(base, {"decoder": {"m": ["identity"] * 3}})
        assert cfg.decoder.m == ["identity"] * 3
        assert cfg.decoder.c == base.decoder.c  # fields outside the overlay kept
        assert base.decoder.m == ["attn"] * 3  # base untouched

    def test_apply_cell_one_stage_decoder(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path)
        cfg = apply_cell(base, {"decoder": {"n": [1], "d": [778], "m": ["attn"], "c": [64]}})
        model = build_model(cfg)
        assert len(model.regressor.layers) == 1
        assert model.regressor.layers[0].up_weight.shape == (778, 21)

    def test_apply_cell_without_pos_emb(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path)
        cfg = apply_cell(base, {"decoder": {"pos_emb": False}})
        names = [n for n, _ in build_model(cfg).named_parameters()]
        assert not [n for n in names if "pos_emb" in n]
        assert [n for n, _ in build_model(base).named_parameters() if "pos_emb" in n]

    def test_sampler_schemes_train_apart(self, small_dataset, tmp_path, monkeypatch):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        grid = {"sampler": [
            {"variant": "keypoint", "target_resolution": 14, "upsample_scheme": "single-2x"},
            {"variant": "keypoint", "target_resolution": 28, "upsample_scheme": "double-2x"},
        ]}
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        run_ablation(base, grid, csv_path)
        assert len(read_rows(csv_path)) == 6
        assert len(summarize(csv_path)) == 2
        assert len(os.listdir(tmp_path / "abl" / "runs")) == 2

    def test_mixer_grid_emits_two_rows_per_seed(self, small_dataset, tmp_path, monkeypatch):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        grid = {"decoder": [{"m": ["attn"] * 3}, {"m": ["identity"] * 3}]}
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 2)
        run_ablation(base, grid, csv_path, seeds=(0, 1, 2))
        rows = read_rows(csv_path)
        assert len(rows) == 6
        by_cell = {}
        for r in rows:
            by_cell.setdefault(r["cell"], []).append(int(r["seed"]))
        attn, identity = "decoder=m=attn-attn-attn", "decoder=m=identity-identity-identity"
        assert by_cell == {attn: [0, 1, 2], identity: [0, 1, 2]}
        summary = summarize(csv_path)
        assert set(summary) == {attn, identity}
        assert summary[attn]["seeds"] == [0, 1, 2]

    def test_row_param_counts_match_bench(self, small_dataset, tmp_path, monkeypatch):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        run_ablation(base, IDENTITY_GRID, csv_path)
        row = read_rows(csv_path)[0]
        cfg = ExperimentConfig.from_dict(json.loads(row["config"]))
        bench = run_bench(cfg, iters=10)
        assert int(row["params_non_backbone"]) == bench["params"]["non_backbone"]

    def test_steps_per_sec_times_only_the_step_loop(self, small_dataset, tmp_path, monkeypatch):
        # each dataset pass takes 1000 s by the clock; a rate over the whole
        # train() call would read below 1/2000 steps/s
        offset = [0.0]
        clock = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: clock() + offset[0])
        dataset_pass = train_module.dataset_loss

        def slow(*args):
            offset[0] += 1000.0
            return dataset_pass(*args)

        monkeypatch.setattr(train_module, "dataset_loss", slow)
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        run_ablation(base, IDENTITY_GRID, csv_path)
        rates = [float(row["steps_per_sec"]) for row in read_rows(csv_path)]
        assert offset[0] == 6000.0  # two passes per run, three runs
        assert len(rates) == 3 and min(rates) > 1 / 1000

    def test_invalid_cells_skipped_with_reason(self, small_dataset, tmp_path, capsys, monkeypatch):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        grid = {"sampler": [
            {"variant": "global", "target_resolution": 28, "upsample_scheme": "double-2x"},
            {"variant": "global", "target_resolution": 7, "upsample_scheme": "none"},
        ]}
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        run_ablation(base, grid, csv_path)
        rows = read_rows(csv_path)
        assert {r["cell"] for r in rows} == {
            "sampler=target_resolution=7,upsample_scheme=none,variant=global"}
        assert len(rows) == 3  # only the valid cell, all three seeds
        assert any("skipping cell" in line for line in capsys.readouterr().err.splitlines())

    def test_bool_block_count_cell_skipped_before_training(self, small_dataset, tmp_path, monkeypatch,
                                                           capsys):
        # a JSON true in `n` is not the one-block model `n=1-1-1`: the cell
        # is refused at load, before the valid cell trains
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        stderr_at_train = []  # what run_ablation printed to stderr since the last train

        def logged_train(cfg):
            stderr_at_train.append(capsys.readouterr().err)
            return train(cfg)

        monkeypatch.setattr(ablate_module, "train", logged_train)
        grid = {"decoder": [{"n": [True, 1, 1]}, {"m": ["identity"] * 3}]}
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        run_ablation(base, grid, csv_path)
        assert {r["cell"] for r in read_rows(csv_path)} == {"decoder=m=identity-identity-identity"}
        assert stderr_at_train[0] == (
            "skipping cell decoder=n=True-1-1: n, d, c and heads must be integers, "
            "got n=[True, 1, 1], d=[84, 336, 778], c=[256, 128, 64], heads=4\n")
        assert len(stderr_at_train) == 3

    def test_csv_is_append_only(self, small_dataset, tmp_path, monkeypatch):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        run_ablation(base, IDENTITY_GRID, csv_path)
        first = open(csv_path).read()
        run_ablation(base, {"decoder": [{"m": ["attn"] * 3}]}, csv_path)
        second = open(csv_path).read()
        assert second.startswith(first)
        assert len(read_rows(csv_path)) == 6

    def test_summarize_rejects_a_cell_of_two_budgets(self, small_dataset, tmp_path, monkeypatch):
        # run_ablation refuses to write such a CSV, so the second budget's
        # rows are appended by hand
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        cid = "decoder=m=identity-identity-identity"
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        run_ablation(base, IDENTITY_GRID, csv_path)
        assert summarize(csv_path)[cid]["seeds"] == [0, 1, 2]
        rows = read_rows(csv_path)
        with open(csv_path, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            for r in rows:
                writer.writerow({**r, "config": json.dumps({**json.loads(r["config"]), "total_steps": 2})})
        assert len({r["config"] for r in read_rows(csv_path)}) == 6
        with pytest.raises(ValueError, match=cid):
            summarize(csv_path)

    def test_second_budget_of_a_cell_refused_before_training(self, small_dataset, tmp_path, monkeypatch):
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        cid = "decoder=m=identity-identity-identity"
        one, two = (tiny_config(small_dataset, tmp_path / "unused", total_steps=steps, batch_size=1)
                    for steps in (1, 2))
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        run_ablation(one, IDENTITY_GRID, csv_path)
        first = open(csv_path).read()
        with pytest.raises(ValueError, match=re.escape(cid)):
            run_ablation(two, IDENTITY_GRID, csv_path)
        assert open(csv_path).read() == first
        seed0 = tmp_path / "abl" / "runs" / cid / "seed0" / "config.json"
        assert json.load(open(seed0))["total_steps"] == 1

    def test_too_few_seeds_rejected(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path)
        with pytest.raises(ValueError):
            run_ablation(base, IDENTITY_GRID, str(tmp_path / "x.csv"), seeds=(0, 1))

    def test_repeated_seeds_rejected_before_training(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path / "unused")
        csv_path = tmp_path / "abl" / "ablation.csv"
        with pytest.raises(ValueError, match="distinct"):
            run_ablation(base, IDENTITY_GRID, str(csv_path), seeds=(0, 0, 0))
        assert not (tmp_path / "abl").exists()

    @pytest.mark.parametrize("seeds", [(-1, 0, 1), (0, 1, 2.0)])
    def test_bad_seed_rejected_before_any_work(self, small_dataset, tmp_path, monkeypatch, seeds):
        def no_train(cfg):
            raise AssertionError("trained before refusing the seed")

        monkeypatch.setattr(ablate_module, "train", no_train)
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = tmp_path / "abl" / "ablation.csv"
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 2)
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_ablation(base, IDENTITY_GRID, str(csv_path), seeds=seeds)
        assert not (tmp_path / "abl" / "heldout").exists()
        assert not csv_path.exists()

    def test_metric_columns_are_one_run_of_the_csv_columns(self):
        # a report metric added to METRIC_COLUMNS lands in the CSV, in its order
        at = ablate_module.CSV_COLUMNS.index(METRIC_COLUMNS[0])
        assert ablate_module.CSV_COLUMNS[at:at + len(METRIC_COLUMNS)] == METRIC_COLUMNS

    def test_csv_of_other_columns_refused_before_any_work(self, small_dataset, tmp_path, monkeypatch):
        # the same names in another order: appended rows would put PA-MPJPE
        # under mpjpe_mm
        def no_train(cfg):
            raise AssertionError("trained before refusing the CSV")

        monkeypatch.setattr(ablate_module, "train", no_train)
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        columns = list(ablate_module.CSV_COLUMNS)
        columns[2], columns[4] = columns[4], columns[2]
        csv_path = tmp_path / "abl" / "ablation.csv"
        csv_path.parent.mkdir()
        csv_path.write_text(",".join(columns) + "\n")
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        with pytest.raises(ValueError, match="columns"):
            run_ablation(base, IDENTITY_GRID, str(csv_path))
        assert not (tmp_path / "abl" / "heldout").exists()
        assert csv_path.read_text() == ",".join(columns) + "\n"

    def test_row_metrics_equal_run_reports(self, small_dataset, tmp_path, monkeypatch):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 2)
        run_ablation(base, IDENTITY_GRID, csv_path)
        rows = read_rows(csv_path)
        assert len(rows) == 3
        for row in rows:
            run_dir = tmp_path / "abl" / "runs" / row["cell"].replace("|", "_") / f"seed{row['seed']}"
            report = json.load(open(run_dir / "report.json"))
            assert {m: float(row[m]) for m in METRIC_COLUMNS} == {m: report[m] for m in METRIC_COLUMNS}

    def test_scores_only_samples_training_never_reads(self, small_dataset, tmp_path, monkeypatch):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=2, batch_size=2)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        phase, read = [], {"train": set(), "evaluate": set()}  # sample seeds each phase renders

        def in_phase(name, fn):
            def wrapped(*args, **kwargs):
                phase.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase.pop()
            return wrapped

        def logged_batch(ds, indices):
            read[phase[-1]].update(dataio.sample_seed(ds.seed, i) for i in indices)
            return real_batch(ds, indices)

        real_batch = dataio.Dataset.batch
        monkeypatch.setattr(ablate_module, "train", in_phase("train", train))
        monkeypatch.setattr(ablate_module, "evaluate", in_phase("evaluate", evaluate))
        monkeypatch.setattr(dataio.Dataset, "batch", logged_batch)
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 3)
        run_ablation(base, IDENTITY_GRID, csv_path)
        count = len(dataio.Dataset(small_dataset))
        for row in read_rows(csv_path):
            run_dir = tmp_path / "abl" / "runs" / row["cell"].replace("|", "_") / f"seed{row['seed']}"
            with open(run_dir / "per_sample.csv", newline="") as fh:
                indices = [int(r["index"]) for r in csv.DictReader(fh)]
            assert indices == [count, count + 1, count + 2]
        assert read["train"] and read["evaluate"]
        assert not read["train"] & read["evaluate"]


class TestBench:
    def test_param_counts_stable_across_runs(self, tmp_path):
        cfg = tiny_config("unused", tmp_path)
        a = run_bench(cfg, iters=10)
        b = run_bench(cfg, iters=10)
        assert a["params"] == b["params"]
        assert a["params"]["non_backbone"] == 1558794

    def test_latency_stats_ordered(self, tmp_path):
        cfg = tiny_config("unused", tmp_path)
        r = run_bench(cfg, iters=10)
        lat = r["latency_ms"]
        assert 0 < lat["median"] <= lat["p95"]

    def test_too_few_iterations_rejected(self, tmp_path, monkeypatch):
        # the config loader's rule: an exact integer, so no bool or float
        # either, refused before the model is built
        builds = []
        monkeypatch.setattr(bench, "build_model", builds.append)
        for iters in (5, 10.5, 10.0, True):
            with pytest.raises(ValueError, match="integer >= 10"):
                run_bench(tiny_config("unused", tmp_path), iters=iters)
        assert builds == []

    def test_input_is_the_dataset_batch(self, tmp_path, monkeypatch):
        seen = []

        class Probe:
            def __call__(self, image):
                seen.append(image.data)

            def param_count_split(self):
                return 0, 0

        monkeypatch.setattr(bench, "build_model", lambda cfg: Probe())
        cfg = tiny_config("unused", tmp_path, seed=13)
        r = run_bench(cfg, iters=10)
        dataio.generate_dataset(tmp_path / "d", 1, cfg.seed)
        want = dataio.Dataset(tmp_path / "d").batch(range(1))["input"]
        assert (r["warmup"], r["batch_size"]) == (5, 1)
        assert len(seen) == 15
        assert seen[0].dtype == want.dtype and seen[0].tobytes() == want.tobytes()


class TestCliPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        run = str(tmp_path / "run")
        assert main(["gen-data", "--out", data, "--count", "4", "--seed", "3"]) == 0
        cfg_path = str(tmp_path / "cfg.json")
        tiny_config(data, run, total_steps=2).save(cfg_path)
        assert main(["train", "--config", cfg_path]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert os.path.exists(out["checkpoint"])
        assert main(["eval", "--config", os.path.join(run, "config.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 4
        assert os.path.exists(os.path.join(run, "report.json"))
        assert main(["bench", "--config", cfg_path, "--iters", "10"]) == 0
        bench = json.loads(capsys.readouterr().out)
        assert bench["params"]["non_backbone"] > 0

    def test_train_without_dataset_is_machine_parsable_error(self, capsys):
        rc = main(["train"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_eval_on_missing_run_fails_cleanly(self, tmp_path, capsys):
        rc = main(["eval", "--config", str(tmp_path / "nope" / "config.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_reads_only_the_run_config_it_names(self, small_dataset, tmp_path, capsys):
        # the model is read from the config's directory, so a config of
        # another name there would be scored with the run's own config
        run = tmp_path / "run"
        train(tiny_config(small_dataset, run, total_steps=1))
        other = json.loads((run / "config.json").read_text())
        other["sampler"]["variant"] = "bogus"
        (run / "other.json").write_text(json.dumps(other))
        capsys.readouterr()
        for path in (run / "other.json", run / "nonexistent.json"):
            assert main(["eval", "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ValueError:")
            assert str(path) in lines[0]

    def test_train_flags_override_the_config(self, small_dataset, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--dataset", small_dataset, "--out", str(run),
                     "--steps", "1", "--seed", "3"]) == 0
        cfg = ExperimentConfig.load(run / "config.json")
        assert cfg.total_steps == 1 and cfg.seed == 3 and cfg.dataset == small_dataset

    def test_ablate_prints_the_summary_of_its_csv(self, small_dataset, tmp_path, capsys,
                                                  monkeypatch):
        # the CLI scores ablate.EVAL_COUNT (500) held-out samples per run; one is enough here
        monkeypatch.setattr(ablate_module, "EVAL_COUNT", 1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(IDENTITY_GRID))
        out = tmp_path / "abl"
        assert main(["ablate", "--grid", str(grid), "--dataset", small_dataset,
                     "--out", str(out), "--steps", "1"]) == 0
        csv_path = str(out / "ablation.csv")
        assert len(read_rows(csv_path)) == 3
        # stdout is the summary alone; stderr holds one progress line per run
        captured = capsys.readouterr()
        assert json.loads(captured.out) == summarize(csv_path)
        assert len(captured.err.splitlines()) == 3

    def test_bench_out_holds_the_printed_report(self, tmp_path, capsys):
        assert main(["bench", "--iters", "10", "--out", str(tmp_path / "b")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads((tmp_path / "b" / "bench.json").read_text()) == printed
