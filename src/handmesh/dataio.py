"""Datasets as manifests rendered on read, and the tensor records of checkpoints.

A dataset directory holds only `manifest.json`: sample i is a pure function
of `sample_seed(manifest seed, i)`, rendered whenever it is read and cast to
32-bit floats. A record file is one JSON header line followed by raw
little-endian tensor bytes; the header maps each tensor name to (offset,
shape, dtype) within the payload. Each tensor keeps its own dtype, so a
checkpoint save/load round trip is bit-exact.
"""

import json
import os

import numpy as np

from .synth import IMAGE_SIZE, NUM_JOINTS, HandSample, build_assets, generate_sample

FORMAT_VERSION = 1


def write_record(path, tensors, meta=None):
    """Serialize named arrays, each in its own dtype stored little-endian."""
    header = {"format_version": FORMAT_VERSION, "tensors": {}}
    if meta:
        header["meta"] = meta
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
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


def sample_seed(dataset_seed, index):
    """Per-sample seed derived from the dataset seed, stable across runs."""
    return int(np.random.SeedSequence(entropy=int(dataset_seed), spawn_key=(int(index),)).generate_state(1)[0])


def generate_dataset(out_dir, count, seed):
    """Write the dataset's only file, its manifest; byte-identical per (count, seed).

    Samples are rendered when read.
    """
    if count < 1:
        raise ValueError(f"dataset count must be >= 1, got {count}")
    os.makedirs(out_dir, exist_ok=True)
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
    """The manifest of a dataset directory, checked for a usable count and seed."""
    path = os.path.join(dataset_dir, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    for key, least in (("count", 1), ("seed", 0)):
        value = manifest.get(key)
        # JSON integers load as int; the exact type check also refuses bool
        if type(value) is not int or value < least:
            raise ValueError(f"{path}: {key} must be an integer >= {least}, got {value!r}")
    return manifest


def render_batch(assets, seed, indices):
    """Samples `indices` of the dataset with this seed, stacked as float32;
    each input is rendered straight into its row of one (B, 22, 224, 224) array."""
    inputs = np.empty((len(indices), NUM_JOINTS + 1, IMAGE_SIZE, IMAGE_SIZE), np.float32)
    samples = [generate_sample(assets, sample_seed(seed, i), out=row)
               for i, row in zip(indices, inputs)]
    return {"input": inputs, **{name: np.array([getattr(s, name) for s in samples], np.float32)
                                for name in ("V_3d", "J_3d", "J_2d", "camera")}}


class Dataset:
    """Samples of a dataset directory, rendered from its manifest on read."""

    def __init__(self, dataset_dir):
        self.manifest = read_manifest(dataset_dir)
        self.count = self.manifest["count"]
        self.seed = self.manifest["seed"]
        self.assets = build_assets()

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        rows = {name: arr[0] for name, arr in self.batch([i]).items()}
        return HandSample(**rows, seed=sample_seed(self.seed, i))

    def batch(self, indices):
        indices = [int(i) for i in indices]
        if not all(0 <= i < self.count for i in indices):
            raise IndexError(f"indices {indices} out of range for {self.count} samples")
        return render_batch(self.assets, self.seed, indices)


def save_checkpoint(path, state, meta=None):
    """state: name -> ndarray; dtypes are preserved bit-exactly."""
    write_record(path, state, meta=meta)


def load_checkpoint(path):
    return read_record(path)
