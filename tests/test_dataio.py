"""Record container round trips and datasets rendered from their manifest."""

import json
import os

import numpy as np
import pytest

from handmesh import dataio, synth


@pytest.fixture(scope="module")
def assets():
    return synth.build_assets()


class TestRecordContainer:
    def test_round_trip_preserves_dtypes_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=(2, 2, 2)),  # float64
            "c": np.arange(5, dtype=np.float32),
        }
        path = tmp_path / "rec.bin"
        dataio.write_record(path, tensors, meta={"k": 1})
        loaded, meta = dataio.read_record(path)
        assert meta == {"k": 1}
        for name, arr in tensors.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].tobytes() == arr.tobytes()

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "rec.bin"
        with open(path, "wb") as f:
            f.write(b'{"format_version": 999, "tensors": {}}\n')
        with pytest.raises(ValueError):
            dataio.read_record(path)

    def test_truncated_payload_names_path_and_sizes(self, tmp_path):
        path = tmp_path / "rec.bin"
        dataio.write_record(path, {"a": np.arange(6, dtype=np.float32), "b": np.ones(3)})
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        payload = len(data) - len(data.split(b"\n", 1)[0]) - 1
        with pytest.raises(ValueError) as err:
            dataio.read_record(path)
        msg = str(err.value)
        assert str(path) in msg
        assert f"{payload - 1} bytes" in msg and f"needs {payload}" in msg

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "rec.bin"
        dataio.write_record(path, {"a": np.arange(4, dtype=np.float32)}, meta={"v": 1})
        before = path.read_bytes()

        class FailingFile:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("disk full")
                self.f.write(data)

        monkeypatch.setattr(dataio, "open", lambda p, mode: FailingFile(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            dataio.write_record(path, {"a": np.zeros(8, dtype=np.float32), "b": np.ones(2)}, meta={"v": 2})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["rec.bin"]


class TestDatasetDirectory:
    def test_generation_is_byte_identical(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        dataio.generate_dataset(d1, 4, seed=7)
        dataio.generate_dataset(d2, 4, seed=7)
        # samples are rendered on read: the manifest is the whole dataset
        assert os.listdir(d1) == os.listdir(d2) == ["manifest.json"]
        assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()

    def test_manifest_fields(self, tmp_path):
        manifest = dataio.generate_dataset(tmp_path / "d", 3, seed=5)
        assert manifest["count"] == 3
        assert manifest["seed"] == 5
        assert manifest["units"] == "mm"
        assert manifest["channels"] == {"heatmaps": 21, "silhouette": 1}
        on_disk = dataio.read_manifest(tmp_path / "d")
        assert on_disk == manifest

    def test_loaded_samples_consistent_at_storage_precision(self, tmp_path, assets):
        out = tmp_path / "d"
        dataio.generate_dataset(out, 3, seed=11)
        ds = dataio.Dataset(out)
        assert len(ds) == 3
        for i in range(3):
            s = ds[i]
            assert s.input.shape == (22, 224, 224) and s.input.dtype == np.float32
            assert s.V_3d.shape == (778, 3)
            # float32 storage quantizes mm values to ~1e-3; consistency
            # at full precision is covered by the in-memory generator tests
            assert np.abs(assets.J @ s.V_3d.astype(np.float64) - s.J_3d).max() < 1e-2
            assert np.abs(synth.project(s.V_3d[:1], s.camera)).max() < 1e6

    def test_loaded_equals_generated_after_quantization(self, tmp_path, assets):
        out = tmp_path / "d"
        dataio.generate_dataset(out, 3, seed=3)
        ds = dataio.Dataset(out)
        batch = ds.batch([2, 1, 2])
        for row, i in enumerate((2, 1, 2)):
            s_read = ds[i]
            s_mem = synth.generate_sample(assets, dataio.sample_seed(3, i))
            assert s_read.seed == s_mem.seed
            for f in ("input", "V_3d", "J_3d", "J_2d", "camera"):
                want = getattr(s_mem, f).astype("<f4").tobytes()
                assert getattr(s_read, f).tobytes() == want
                assert batch[f][row].tobytes() == want

    def test_batch_stacking(self, tmp_path):
        out = tmp_path / "d"
        dataio.generate_dataset(out, 4, seed=2)
        batch = dataio.Dataset(out).batch([0, 2])
        assert batch["input"].shape == (2, 22, 224, 224)
        assert batch["V_3d"].shape == (2, 778, 3)
        assert batch["camera"].shape == (2, 3)

    def test_bad_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dataio.generate_dataset(tmp_path / "d", 0, seed=1)

    def test_index_out_of_range_rejected(self, tmp_path):
        dataio.generate_dataset(tmp_path / "d", 2, seed=1)
        ds = dataio.Dataset(tmp_path / "d")
        for bad in (2, -1):
            with pytest.raises(IndexError):
                ds[bad]
            with pytest.raises(IndexError):
                ds.batch([0, bad])

    # value None deletes the field
    @pytest.mark.parametrize("field, value", [
        ("count", 0), ("count", 2.5), ("count", "3"), ("count", True), ("count", None),
        ("seed", None), ("seed", 1.0), ("seed", "7"), ("seed", -1),
    ])
    def test_bad_manifest_rejected(self, tmp_path, field, value):
        dataio.generate_dataset(tmp_path / "d", 3, seed=5)
        path = tmp_path / "d" / "manifest.json"
        manifest = json.loads(path.read_text())
        if value is None:
            del manifest[field]
        else:
            manifest[field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"{field} must be an integer") as err:
            dataio.Dataset(tmp_path / "d")
        assert str(path) in str(err.value)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        state = {
            "layer.weight": rng.normal(size=(17, 3)).astype(np.float32),
            "layer.bias": rng.normal(size=(3,)).astype(np.float32),
            "emb": rng.normal(size=(5, 2)),  # float64 stays float64
        }
        path = tmp_path / "ckpt.bin"
        dataio.save_checkpoint(path, state, meta={"step": 12})
        loaded, meta = dataio.load_checkpoint(path)
        assert meta["step"] == 12
        for k, v in state.items():
            assert loaded[k].dtype == v.dtype
            assert loaded[k].tobytes() == v.tobytes()
