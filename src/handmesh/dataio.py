"""Datasets as manifests rendered on read, and checkpoints as .npz archives.

A dataset directory holds only `manifest.json`: sample i is a pure function
of `sample_seed(manifest seed, i)`, rendered whenever it is read and cast to
32-bit floats. A checkpoint is a standard uncompressed .npz archive, one
`<name>.npy` member per tensor in its own dtype, so np.load opens it and a
save/load round trip is bit-exact.
"""

import io
import json
import os
import zipfile

import numpy as np

from .synth import IMAGE_SIZE, INPUT_SHAPE, NUM_JOINTS, HandSample, build_assets, generate_sample

FORMAT_VERSION = 1  # of the manifest


def sample_seed(dataset_seed, index):
    """Per-sample seed derived from the dataset seed, stable across runs."""
    return int(np.random.SeedSequence(entropy=int(dataset_seed), spawn_key=(int(index),)).generate_state(1)[0])


def _check_count_seed(where, count, seed):
    """Refuse a dataset count or seed that read_manifest would refuse."""
    for key, value, least in (("count", count, 1), ("seed", seed, 0)):
        # JSON integers load as int; the exact type check also refuses bool
        if type(value) is not int or value < least:
            raise ValueError(f"{where}: {key} must be an integer >= {least}, got {value!r}")


def _manifest(count, seed):
    """The manifest this code writes for, and reads only as, (count, seed)."""
    return {
        "count": count,
        "seed": seed,
        "format_version": FORMAT_VERSION,
        "units": "mm",
        "image_size": IMAGE_SIZE,
        "channels": {"heatmaps": NUM_JOINTS, "silhouette": 1},
        "f_score_distances": "nearest_neighbor",
    }


def generate_dataset(out_dir, count, seed):
    """Write the dataset's only file, its manifest; byte-identical per (count, seed).

    Samples are rendered when read. A count or seed read_manifest would
    refuse raises before anything is written.
    """
    _check_count_seed(out_dir, count, seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest = _manifest(count, seed)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
    return manifest


def read_manifest(dataset_dir):
    """The manifest of a dataset directory: a usable count and seed, and every
    other field as generate_dataset writes it, or this code would render other samples."""
    path = os.path.join(dataset_dir, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    fields = manifest if isinstance(manifest, dict) else {}  # JSON may hold a list or a number
    _check_count_seed(path, fields.get("count"), fields.get("seed"))
    if manifest != _manifest(manifest["count"], manifest["seed"]):
        raise ValueError(f"{path}: {manifest} is not the manifest generate_dataset writes for its count and seed")
    return manifest


def render_batch(assets, seed, indices):
    """Samples `indices` of the dataset with this seed, stacked as float32;
    each input is rendered straight into its row of one (B, *INPUT_SHAPE) array."""
    inputs = np.empty((len(indices), *INPUT_SHAPE), np.float32)
    samples = [generate_sample(assets, sample_seed(seed, i), out=row)
               for i, row in zip(indices, inputs)]
    return {"input": inputs, **{name: np.array([getattr(s, name) for s in samples], np.float32)
                                for name in ("V_3d", "J_2d", "camera")}}


class Dataset:
    """Samples of a dataset directory, rendered from its manifest on read."""

    def __init__(self, dataset_dir):
        manifest = read_manifest(dataset_dir)
        self.count = manifest["count"]
        self.seed = manifest["seed"]
        self.assets = build_assets()

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        rows = {name: arr[0] for name, arr in self.batch([i]).items()}
        return HandSample(**rows)

    def batch(self, indices):
        indices = [int(i) for i in indices]
        if not all(0 <= i < self.count for i in indices):
            raise IndexError(f"indices {indices} out of range for {self.count} samples")
        return render_batch(self.assets, self.seed, indices)


def save_checkpoint(path, state, meta=None):
    """Write named arrays as one uncompressed .npz archive (np.load opens it):
    a `<name>.npy` member per array in its own dtype, and `meta`, if given, as
    JSON in the member `__meta__`. Members carry zipfile's fixed 1980-01-01
    stamp, not np.savez's wall clock, so a state always writes the same bytes."""
    # write beside the target and rename over it: a crash keeps the old file
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f, zipfile.ZipFile(f, "w") as zf:
            for name, arr in state.items():
                with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, arr, allow_pickle=False)
            if meta is not None:
                zf.writestr(zipfile.ZipInfo("__meta__"), json.dumps(meta, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path):
    """(arrays, meta) of a save_checkpoint archive. Each member is read whole,
    so its CRC-32 covers every byte (np.load on the archive stops where a
    member's .npy header says); a file that is not a zip archive, or a member
    that fails its CRC-32, raises ValueError naming the path."""
    try:
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
    except zipfile.BadZipFile as err:
        raise ValueError(f"{path} is not an intact checkpoint archive: {err}") from err
    meta = json.loads(members.pop("__meta__", "{}"))
    return {name.removesuffix(".npy"): np.load(io.BytesIO(data)) for name, data in members.items()}, meta
