"""Ablation harness: cartesian config grids, shared seeds, per-cell medians.

Each CSV row self-describes its full config, so the file can be appended
across invocations and re-read without any side state.
"""

import csv
import itertools
import json
import os
import time
from dataclasses import asdict, replace

from . import dataio
from .evaluate import evaluate
from .regressor import DecoderConfig
from .tokens import SamplerConfig
from .train import load_trained_model, train

GRID_AXES = ("sampler", "decoder", "mixer", "use_pos_emb")

CSV_COLUMNS = ("cell", "seed", "pa_mpjpe_mm", "pa_mpvpe_mm", "mpjpe_mm", "mpvpe_mm",
               "f_at_05", "f_at_15", "params_non_backbone", "steps_per_sec", "steps", "config")


def expand_grid(grid):
    """Cartesian product over the provided axes -> list of cell dicts."""
    for axis in grid:
        if axis not in GRID_AXES:
            raise ValueError(f"unknown grid axis {axis!r}, expected subset of {GRID_AXES}")
        if not isinstance(grid[axis], list) or not grid[axis]:
            raise ValueError(f"grid axis {axis!r} must be a nonempty list")
    axes = [a for a in GRID_AXES if a in grid]
    return [dict(zip(axes, combo)) for combo in itertools.product(*(grid[a] for a in axes))]


def cell_id(cell):
    parts = []
    for axis, value in cell.items():
        if axis == "sampler":
            value = value.get("variant", "?") if isinstance(value, dict) else value
        elif axis == "decoder":
            value = f"k{value.get('k', '?')}" if isinstance(value, dict) else value
        parts.append(f"{axis}={value}")
    return "|".join(parts)


def apply_cell(base_cfg, cell):
    """Overlay one grid cell onto the base config; invalid combos raise."""
    cfg = base_cfg
    if "sampler" in cell:
        cfg = replace(cfg, sampler=SamplerConfig(**cell["sampler"]))
    if "decoder" in cell:
        cfg = replace(cfg, decoder=DecoderConfig(**cell["decoder"]))
    if "mixer" in cell:
        d = asdict(cfg.decoder)
        d["m"] = [cell["mixer"]] * d["k"]
        cfg = replace(cfg, decoder=DecoderConfig(**d))
    if "use_pos_emb" in cell:
        cfg = replace(cfg, use_pos_emb=bool(cell["use_pos_emb"]))
    return cfg


def run_ablation(base_cfg, grid, out_csv, seeds=(0, 1, 2), eval_count=500, log=print):
    """Train and evaluate every valid (cell, seed); append rows to out_csv."""
    if len(seeds) < 3:
        raise ValueError(f"need at least 3 shared seeds, got {len(seeds)}")
    cells = expand_grid(grid)
    dataset = dataio.Dataset(base_cfg.dataset)
    count = len(dataset)
    eval_indices = range(max(0, count - eval_count), count)
    root = os.path.dirname(os.path.abspath(out_csv))
    os.makedirs(root, exist_ok=True)
    new_file = not (os.path.exists(out_csv) and os.path.getsize(out_csv) > 0)
    with open(out_csv, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for cell in cells:
            cid = cell_id(cell)
            try:
                cell_cfg = apply_cell(base_cfg, cell)
            except (ValueError, TypeError) as err:
                log(f"skipping cell {cid}: {err}")
                continue
            for seed in seeds:
                run_dir = os.path.join(root, "runs", cid.replace("|", "_"), f"seed{seed}")
                cfg = replace(cell_cfg, seed=seed, out_dir=run_dir)
                t0 = time.perf_counter()
                train(cfg)
                train_secs = time.perf_counter() - t0
                model, _ = load_trained_model(run_dir)
                report, _ = evaluate(model, dataset, out_dir=run_dir, indices=eval_indices)
                params_nb = model.param_count_split()[1]
                steps_per_sec = cfg.total_steps / train_secs if train_secs > 0 else float("inf")
                writer.writerow([cid, seed, repr(report["pa_mpjpe_mm"]), repr(report["pa_mpvpe_mm"]),
                                 repr(report["mpjpe_mm"]), repr(report["mpvpe_mm"]),
                                 repr(report["f_at_05"]), repr(report["f_at_15"]),
                                 params_nb, f"{steps_per_sec:.4f}", cfg.total_steps,
                                 json.dumps(asdict(cfg), sort_keys=True)])
                fh.flush()
                log(f"cell {cid} seed {seed}: PA-MPVPE {report['pa_mpvpe_mm']:.3f} mm "
                    f"({steps_per_sec:.2f} steps/s)")
    return out_csv


def read_rows(csv_path):
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def summarize(csv_path):
    """Per-cell medians over seeds for every numeric metric column."""
    import numpy as np

    rows = read_rows(csv_path)
    cells = {}
    for row in rows:
        cells.setdefault(row["cell"], []).append(row)
    out = {}
    for cid, group in cells.items():
        summary = {"seeds": sorted(int(r["seed"]) for r in group)}
        for col in ("pa_mpjpe_mm", "pa_mpvpe_mm", "mpjpe_mm", "mpvpe_mm", "f_at_05", "f_at_15"):
            vals = np.array([float(r[col]) for r in group])
            summary[col] = float(np.median(vals))
            q1, q3 = np.percentile(vals, [25, 75])
            summary[col + "_iqr"] = float(q3 - q1)
        summary["params_non_backbone"] = int(group[0]["params_non_backbone"])
        out[cid] = summary
    return out
