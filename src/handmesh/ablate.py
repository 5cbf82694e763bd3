"""Ablation harness: cartesian config grids, shared seeds, per-cell medians.

Each CSV row self-describes its full config, so the file can be appended
across invocations and re-read without any side state.
"""

import csv
import itertools
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import dataio
from .config import ExperimentConfig
from .evaluate import evaluate
from .metrics import METRIC_COLUMNS
from .train import load_trained_model, train

GRID_AXES = ("sampler", "decoder")  # the paper's two halves

EVAL_COUNT = 500  # held-out samples each run is scored on

CSV_COLUMNS = ("cell", "seed", *METRIC_COLUMNS, "params_non_backbone", "steps_per_sec", "steps", "config")


def expand_grid(grid):
    """Cartesian product over the provided axes -> list of cell dicts."""
    if not isinstance(grid, dict):
        raise ValueError(f"grid must be a JSON object mapping axes in {GRID_AXES} to lists of dicts "
                         f"of config fields, got {type(grid).__name__}")
    for axis, values in grid.items():
        if axis not in GRID_AXES:
            raise ValueError(f"unknown grid axis {axis!r}, expected subset of {GRID_AXES}")
        if not isinstance(values, list) or not values or not all(isinstance(v, dict) for v in values):
            raise ValueError(f"grid axis {axis!r} must be a nonempty list of dicts of config fields")
    axes = [a for a in GRID_AXES if a in grid]
    return [dict(zip(axes, combo)) for combo in itertools.product(*(grid[a] for a in axes))]


def _spell(value):
    """Filesystem-safe text for a cell value: every field of a dict, in key
    order, as key=value joined by commas; list items joined by dashes."""
    if isinstance(value, dict):
        return ",".join(f"{k}={_spell(value[k])}" for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return "-".join(_spell(v) for v in value)
    return str(value)


def cell_id(cell):
    return "|".join(f"{axis}={_spell(value)}" for axis, value in cell.items())


def apply_cell(base_cfg, cell):
    """Overlay each axis's fields onto that section of the base config and
    check the result with the config.json loader; invalid combos raise."""
    d = asdict(base_cfg)
    for axis, value in cell.items():
        d[axis] = {**d[axis], **value}
    return ExperimentConfig.from_dict(d)


def _config_key(config):
    """A row's config with seed and out_dir blanked: a cell's rows must share it."""
    return json.dumps({**config, "seed": 0, "out_dir": ""}, sort_keys=True)


def run_ablation(base_cfg, grid, out_csv, seeds=(0, 1, 2)):
    """Train and evaluate every valid (cell, seed); append rows to out_csv.

    Each run is scored on held-out samples: the next EVAL_COUNT of the
    training set's seed stream, which train() never draws, read through a
    manifest written to `heldout/` beside out_csv.

    Before any training it refuses an out_csv whose rows this run would orphan:
    a cell's rows under another config (it rewrites their run directories), or
    rows scored on another held-out manifest. Skips and progress go to stderr.
    """
    if len(set(seeds)) < 3:
        raise ValueError(f"need at least 3 distinct shared seeds, got {tuple(seeds)}")
    for seed in seeds:
        replace(base_cfg, seed=seed)  # the config's own seed rule, before any work
    cells = []
    for cell in expand_grid(grid):
        cid = cell_id(cell)
        try:
            cells.append((cid, apply_cell(base_cfg, cell)))
        except (ValueError, TypeError) as err:
            print(f"skipping cell {cid}: {err}", file=sys.stderr)
    new_file = not (os.path.exists(out_csv) and os.path.getsize(out_csv) > 0)
    held = {}  # cell id -> config keys of its rows already in out_csv
    if not new_file:
        with open(out_csv, newline="") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames) != CSV_COLUMNS:
                raise ValueError(f"{out_csv} has columns {reader.fieldnames}, not {list(CSV_COLUMNS)}; "
                                 "rows appended to it would land under the wrong names")
            for row in reader:
                held.setdefault(row["cell"], set()).add(_config_key(json.loads(row["config"])))
    for cid, cell_cfg in cells:
        if held.get(cid, set()) - {_config_key(asdict(cell_cfg))}:
            raise ValueError(f"cell {cid}: {out_csv} holds rows of another config for it, "
                             "whose run directories this run would overwrite")
    manifest = dataio.read_manifest(base_cfg.dataset)
    count = manifest["count"]
    root = os.path.dirname(os.path.abspath(out_csv))
    heldout_dir = os.path.join(root, "heldout")
    want = {"count": count + EVAL_COUNT, "seed": manifest["seed"]}
    if held:  # those rows were scored on heldout/'s samples, which this run must not change
        path = os.path.join(heldout_dir, "manifest.json")
        kept = dataio.read_manifest(heldout_dir) if os.path.exists(path) else {}
        if {k: kept.get(k) for k in want} != want:
            raise ValueError(f"{out_csv} holds rows scored on {path} ({kept or 'missing'}), not on "
                             f"the held-out manifest this run would write ({want})")
    dataio.generate_dataset(heldout_dir, **want)
    dataset = dataio.Dataset(heldout_dir)
    with open(out_csv, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for cid, cell_cfg in cells:
            for seed in seeds:
                run_dir = os.path.join(root, "runs", cid.replace("|", "_"), f"seed{seed}")
                cfg = replace(cell_cfg, seed=seed, out_dir=run_dir)
                steps_per_sec = train(cfg).steps_per_sec
                model, _ = load_trained_model(run_dir)
                report, _ = evaluate(model, dataset, out_dir=run_dir, indices=range(count, want["count"]))
                params_nb = model.param_count_split()[1]
                writer.writerow([cid, seed, *(repr(report[m]) for m in METRIC_COLUMNS),
                                 params_nb, f"{steps_per_sec:.4f}", cfg.total_steps,
                                 json.dumps(asdict(cfg), sort_keys=True)])
                fh.flush()
                print(f"cell {cid} seed {seed}: PA-MPVPE {report['pa_mpvpe_mm']:.3f} mm "
                      f"({steps_per_sec:.2f} steps/s)", file=sys.stderr)
    return out_csv


def read_rows(csv_path):
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def summarize(csv_path):
    """Per-cell medians over seeds for every numeric metric column; a cell's
    rows must share their config up to seed and out_dir."""
    rows = read_rows(csv_path)
    cells = {}
    for row in rows:
        cells.setdefault(row["cell"], []).append(row)
    out = {}
    for cid, group in cells.items():
        configs = {_config_key(json.loads(r["config"])) for r in group}
        if len(configs) > 1:
            raise ValueError(f"cell {cid} has rows whose configs differ beyond seed and out_dir")
        summary = {"seeds": sorted(int(r["seed"]) for r in group)}
        for col in METRIC_COLUMNS:
            vals = np.array([float(r[col]) for r in group])
            summary[col] = float(np.median(vals))
            q1, q3 = np.percentile(vals, [25, 75])
            summary[col + "_iqr"] = float(q3 - q1)
        summary["params_non_backbone"] = int(group[0]["params_non_backbone"])
        out[cid] = summary
    return out
