"""Harness: CLI subcommands, training artifacts, eval trail, ablation grid."""

import filecmp
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from handmesh import bench, dataio
from handmesh.ablate import apply_cell, cell_id, expand_grid, read_rows, run_ablation, summarize
from handmesh.bench import run_bench
from handmesh.cli import main
from handmesh.config import ExperimentConfig
from handmesh.evaluate import evaluate, reaggregate_csv
from handmesh.model import ModelOutput
from handmesh.tokens import SamplerConfig
from handmesh.train import build_model, load_trained_model, train
from handmesh.autograd import Tensor


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
                                    dict(batch_size=0), dict(weight_decay=-0.1)])
    def test_invalid_rejected(self, kw, tmp_path):
        with pytest.raises(ValueError):
            tiny_config("x", tmp_path, **kw)


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


class TestTrain:
    def test_zero_steps_checkpoint_equals_initialization(self, small_dataset, tmp_path):
        cfg = tiny_config(small_dataset, tmp_path / "run", total_steps=0)
        art = train(cfg)
        state, _ = dataio.load_checkpoint(art.checkpoint)
        fresh = build_model(cfg).state_dict()
        assert sorted(state) == sorted(fresh)
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
        assert {"step", "indices", "reason", "config"} <= set(dump)

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
    def test_oracle_predictor_scores_perfectly(self, small_dataset):
        ds = dataio.Dataset(small_dataset)
        idxs = list(range(len(ds)))
        report, rows = evaluate(OracleModel(ds, idxs), ds, batch_size=4)
        assert report["count"] == 6
        for metric in ("mpjpe_mm", "mpvpe_mm", "pa_mpjpe_mm", "pa_mpvpe_mm"):
            assert report[metric] < 1e-9, metric
        assert report["f_at_05"] == 1.0 and report["f_at_15"] == 1.0

    def test_pa_never_exceeds_unaligned_per_sample(self, small_dataset, tmp_path):
        ds = dataio.Dataset(small_dataset)
        model = build_model(tiny_config(small_dataset, tmp_path))
        _, rows = evaluate(model, ds)
        for idx, mpjpe, mpvpe, pa_mpjpe, pa_mpvpe, f05, f15 in rows:
            assert pa_mpjpe <= mpjpe + 1e-9
            assert pa_mpvpe <= mpvpe + 1e-9

    def test_report_matches_csv_reaggregation(self, small_dataset, tmp_path):
        ds = dataio.Dataset(small_dataset)
        model = build_model(tiny_config(small_dataset, tmp_path))
        report, _ = evaluate(model, ds, out_dir=str(tmp_path / "eval"))
        again = reaggregate_csv(str(tmp_path / "eval" / "per_sample.csv"))
        for key, val in report.items():
            ref = again[key]
            assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref)), key

    def test_empty_index_set_rejected(self, small_dataset, tmp_path):
        ds = dataio.Dataset(small_dataset)
        model = build_model(tiny_config(small_dataset, tmp_path))
        with pytest.raises(ValueError):
            evaluate(model, ds, indices=[])


class TestAblate:
    def test_expand_grid_cartesian_product(self):
        grid = {"mixer": ["attn", "identity"], "use_pos_emb": [True, False]}
        cells = expand_grid(grid)
        assert len(cells) == 4
        assert {cell_id(c) for c in cells} == {
            "mixer=attn|use_pos_emb=True", "mixer=attn|use_pos_emb=False",
            "mixer=identity|use_pos_emb=True", "mixer=identity|use_pos_emb=False"}

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            expand_grid({"flux_capacitor": [1]})

    def test_apply_cell_mixer_override(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path)
        cfg = apply_cell(base, {"mixer": "identity"})
        assert cfg.decoder.m == ["identity"] * 3
        assert base.decoder.m == ["attn"] * 3  # base untouched

    def test_mixer_grid_emits_two_rows_per_seed(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        logs = []
        run_ablation(base, {"mixer": ["attn", "identity"]}, csv_path,
                     seeds=(0, 1, 2), eval_count=2, log=logs.append)
        rows = read_rows(csv_path)
        assert len(rows) == 6
        by_cell = {}
        for r in rows:
            by_cell.setdefault(r["cell"], []).append(int(r["seed"]))
        assert by_cell == {"mixer=attn": [0, 1, 2], "mixer=identity": [0, 1, 2]}
        summary = summarize(csv_path)
        assert set(summary) == {"mixer=attn", "mixer=identity"}
        assert summary["mixer=attn"]["seeds"] == [0, 1, 2]

    def test_row_param_counts_match_bench(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        run_ablation(base, {"mixer": ["identity"]}, csv_path, eval_count=1, log=lambda *_: None)
        row = read_rows(csv_path)[0]
        cfg = ExperimentConfig.from_dict(json.loads(row["config"]))
        bench = run_bench(cfg, iters=10, warmup=1)
        assert int(row["params_non_backbone"]) == bench["params"]["non_backbone"]

    def test_invalid_cells_skipped_with_reason(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        grid = {"sampler": [
            {"variant": "global", "target_resolution": 28, "upsample_scheme": "double-2x"},
            {"variant": "global", "target_resolution": 7, "upsample_scheme": "none"},
        ]}
        logs = []
        run_ablation(base, grid, csv_path, eval_count=1, log=logs.append)
        rows = read_rows(csv_path)
        assert {r["cell"] for r in rows} == {"sampler=global"}
        assert len(rows) == 3  # only the valid cell, all three seeds
        assert any("skipping cell" in line for line in logs)

    def test_csv_is_append_only(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path / "unused", total_steps=1, batch_size=1)
        csv_path = str(tmp_path / "abl" / "ablation.csv")
        run_ablation(base, {"mixer": ["identity"]}, csv_path, eval_count=1, log=lambda *_: None)
        first = open(csv_path).read()
        run_ablation(base, {"mixer": ["attn"]}, csv_path, eval_count=1, log=lambda *_: None)
        second = open(csv_path).read()
        assert second.startswith(first)
        assert len(read_rows(csv_path)) == 6

    def test_too_few_seeds_rejected(self, small_dataset, tmp_path):
        base = tiny_config(small_dataset, tmp_path)
        with pytest.raises(ValueError):
            run_ablation(base, {"mixer": ["attn"]}, str(tmp_path / "x.csv"), seeds=(0, 1))


class TestBench:
    def test_param_counts_stable_across_runs(self, tmp_path):
        cfg = tiny_config("unused", tmp_path)
        a = run_bench(cfg, iters=10, warmup=1)
        b = run_bench(cfg, iters=10, warmup=1)
        assert a["params"] == b["params"]
        assert a["params"]["non_backbone"] == 1558794

    def test_latency_stats_ordered(self, tmp_path):
        cfg = tiny_config("unused", tmp_path)
        r = run_bench(cfg, iters=10, warmup=1)
        lat = r["latency_ms"]
        assert 0 < lat["median"] <= lat["p95"]

    def test_too_few_iterations_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_bench(tiny_config("unused", tmp_path), iters=5)

    def test_input_is_the_dataset_batch(self, tmp_path, monkeypatch):
        seen = []

        class Probe:
            def __call__(self, image):
                seen.append(image.data)

            def param_count_split(self):
                return 0, 0

        monkeypatch.setattr(bench, "build_model", lambda cfg: Probe())
        cfg = tiny_config("unused", tmp_path, seed=13)
        run_bench(cfg, iters=10, warmup=0, batch_size=3)
        dataio.generate_dataset(tmp_path / "d", 3, cfg.seed)
        want = dataio.Dataset(tmp_path / "d").batch(range(3))["input"]
        assert len(seen) == 10
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
