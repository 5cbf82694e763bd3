"""Evaluation: six metrics per sample, with a re-checkable aggregation trail.

The per-sample CSV holds full-precision values, so the JSON report can be
independently recomputed from it (the report is the column mean).
"""

import csv
import json
import os

import numpy as np

from .autograd import Tensor
from .metrics import METRIC_COLUMNS, compute_report


def evaluate(model, dataset, out_dir, batch_size=8, indices=None):
    """Forward `model` over `dataset`, score each sample, and write
    per_sample.csv and report.json to `out_dir`.

    Ground-truth joints come from each sample's vertices, rendered on
    read, through the regression matrix (the same route the prediction
    side takes), so a perfect vertex predictor scores exactly zero on
    every error metric.
    Returns (report dict, per-sample rows). Rows carry the dataset index
    plus the six metric columns in METRIC_COLUMNS order.
    """
    if indices is None:
        indices = range(len(dataset))
    indices = list(indices)
    if not indices:
        raise ValueError("nothing to evaluate: empty index set")
    if type(batch_size) is not int or batch_size < 1:  # the exact check also refuses bool
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    J = dataset.assets.J
    rows = []
    for lo in range(0, len(indices), batch_size):
        chunk = indices[lo:lo + batch_size]
        batch = dataset.batch(chunk)
        out = model(Tensor(batch["input"]))
        V_pred = out.vertices.data.astype(np.float64)
        V_gt = batch["V_3d"].astype(np.float64)
        for idx, pred_v, gt_v, pred_j, gt_j in zip(chunk, V_pred, V_gt, J @ V_pred, J @ V_gt):
            rep = compute_report(pred_v, gt_v, pred_j, gt_j)
            rows.append((idx,) + tuple(rep[m] for m in METRIC_COLUMNS))
    report = aggregate_rows(rows)
    os.makedirs(out_dir, exist_ok=True)
    write_per_sample_csv(os.path.join(out_dir, "per_sample.csv"), rows)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, rows


def aggregate_rows(rows):
    data = np.array([r[1:] for r in rows], dtype=np.float64)
    report = {m: float(v) for m, v in zip(METRIC_COLUMNS, data.mean(axis=0))}
    report["count"] = len(rows)
    return report


def write_per_sample_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("index",) + METRIC_COLUMNS)
        for row in rows:
            writer.writerow((row[0],) + tuple(repr(v) for v in row[1:]))


def reaggregate_csv(path):
    """Independent recomputation of the report from the per-sample CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header[1:]) != METRIC_COLUMNS:
            raise ValueError(f"{path}: metric columns {header[1:]} are not {list(METRIC_COLUMNS)}")
        rows = [(int(r[0]),) + tuple(float(v) for v in r[1:]) for r in reader]
    return aggregate_rows(rows)
