"""Evaluation: six metrics per sample, with a re-checkable aggregation trail.

The per-sample CSV holds full-precision values, so the JSON report can be
independently recomputed from it (the report is the column mean).
"""

import csv
import json
import os

import numpy as np

from .autograd import Tensor
from .losses import joints_from_vertices
from .metrics import compute_report

METRIC_COLUMNS = ("mpjpe_mm", "mpvpe_mm", "pa_mpjpe_mm", "pa_mpvpe_mm", "f_at_05", "f_at_15")


def evaluate(model, dataset, out_dir=None, batch_size=8, indices=None):
    """Forward `model` over `dataset` and score each sample.

    Ground-truth joints are derived from stored vertices through the
    regression matrix (the same route the prediction side takes), so a
    perfect vertex predictor scores exactly zero on every error metric.
    Returns (report dict, per-sample rows). Rows carry the dataset index
    plus the six metric columns in METRIC_COLUMNS order.
    """
    if indices is None:
        indices = range(len(dataset))
    indices = list(indices)
    if not indices:
        raise ValueError("nothing to evaluate: empty index set")
    J = dataset.assets.J
    rows = []
    for lo in range(0, len(indices), batch_size):
        chunk = indices[lo:lo + batch_size]
        batch = dataset.batch(chunk)
        out = model(Tensor(batch["input"]))
        V_pred = out.vertices.data.astype(np.float64)
        for bi, idx in enumerate(chunk):
            gt_v = batch["V_3d"][bi].astype(np.float64)
            gt_j = joints_from_vertices(gt_v, J)
            pred_j = joints_from_vertices(V_pred[bi], J)
            rep = compute_report(V_pred[bi], gt_v, pred_j, gt_j)
            rows.append((idx,) + tuple(getattr(rep, m) for m in METRIC_COLUMNS))
    report = aggregate_rows(rows)
    if out_dir is not None:
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
