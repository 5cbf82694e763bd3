"""On-disk tensor containers: dataset records, manifests, checkpoints.

A record file is one JSON header line followed by raw little-endian
tensor bytes; the header maps each tensor name to (offset, shape, dtype)
within the payload. Dataset tensors are stored as 32-bit floats;
checkpoints keep each parameter's own dtype so a save/load round trip is
bit-exact.
"""

import json
import os

import numpy as np

from .rng import substream
from .synth import HandSample, build_assets, generate_sample

FORMAT_VERSION = 1

DATASET_TENSORS = ("input", "V_3d", "J_3d", "J_2d", "camera")


def write_record(path, tensors, meta=None, force_dtype=None):
    """Serialize named arrays; force_dtype casts every tensor (e.g. '<f4')."""
    header = {"format_version": FORMAT_VERSION, "tensors": {}}
    if meta:
        header["meta"] = meta
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        if force_dtype is not None:
            arr = arr.astype(force_dtype)
        dt = arr.dtype.newbyteorder("<")
        arr = arr.astype(dt, copy=False)
        header["tensors"][name] = {"offset": offset, "shape": list(arr.shape), "dtype": dt.str}
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    # write beside the target, then rename over it: a crash mid-write
    # leaves the previous file intact
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            f.write(b"\n")
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_record(path):
    """Returns (tensors dict, meta dict)."""
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported record format version in {path}")
    entries = {}
    need = 0
    for name, entry in header["tensors"].items():
        dt = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        entries[name] = (dt, shape, count, entry["offset"])
        need = max(need, entry["offset"] + count * dt.itemsize)
    if len(payload) < need:
        raise ValueError(
            f"truncated record {path}: payload is {len(payload)} bytes, header needs {need}"
        )
    out = {}
    for name, (dt, shape, count, start) in entries.items():
        out[name] = np.frombuffer(payload, dtype=dt, count=count, offset=start).reshape(shape).copy()
    return out, header.get("meta", {})


def _record_name(i):
    return f"sample_{i:06d}.bin"


def sample_seed(dataset_seed, index):
    """Per-sample seed derived from the dataset seed, stable across runs."""
    return int(np.random.SeedSequence(entropy=int(dataset_seed), spawn_key=(int(index),)).generate_state(1)[0])


def write_manifest(out_dir, count, seed):
    manifest = {
        "count": int(count),
        "seed": int(seed),
        "format_version": FORMAT_VERSION,
        "units": "mm",
        "image_size": 224,
        "channels": {"heatmaps": 21, "silhouette": 1},
        "f_score_distances": "nearest_neighbor",
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
    return manifest


def read_manifest(dataset_dir):
    with open(os.path.join(dataset_dir, "manifest.json")) as f:
        return json.load(f)


def generate_dataset(out_dir, count, seed, assets=None):
    """Write count samples plus a manifest; byte-identical per (count, seed)."""
    if count < 1:
        raise ValueError(f"dataset count must be >= 1, got {count}")
    os.makedirs(out_dir, exist_ok=True)
    if assets is None:
        assets = build_assets()
    for i in range(count):
        s = generate_sample(assets, sample_seed(seed, i))
        write_record(
            os.path.join(out_dir, _record_name(i)),
            {name: getattr(s, name) for name in DATASET_TENSORS},
            meta={"seed": s.seed, "index": i},
            force_dtype="<f4",
        )
    return write_manifest(out_dir, count, seed)


class Dataset:
    """Lazy reader over a generated dataset directory."""

    def __init__(self, dataset_dir):
        self.dir = dataset_dir
        self.manifest = read_manifest(dataset_dir)
        self.count = int(self.manifest["count"])

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        if not 0 <= i < self.count:
            raise IndexError(i)
        tensors, meta = read_record(os.path.join(self.dir, _record_name(i)))
        return HandSample(
            input=tensors["input"],
            V_3d=tensors["V_3d"],
            J_3d=tensors["J_3d"],
            J_2d=tensors["J_2d"],
            camera=tensors["camera"],
            seed=int(meta.get("seed", -1)),
        )

    def batch(self, indices):
        samples = [self[int(i)] for i in indices]
        return {
            "input": np.stack([s.input for s in samples]),
            "V_3d": np.stack([s.V_3d for s in samples]),
            "J_3d": np.stack([s.J_3d for s in samples]),
            "J_2d": np.stack([s.J_2d for s in samples]),
            "camera": np.stack([s.camera for s in samples]),
        }


def save_checkpoint(path, state, meta=None):
    """state: name -> ndarray; dtypes are preserved bit-exactly."""
    write_record(path, state, meta=meta, force_dtype=None)


def load_checkpoint(path):
    return read_record(path)
