"""Training loop: AdamW on the weighted L1 objective, 10x LR drop at halfway.

Every stochastic choice (weight init, batch order) flows from the config
seed through named substreams, so a (config, seed) pair pins the run.
A non-finite value stops a run through one path: a forward check or the
loss raises FloatingPointError, and train() writes nan_dump.json.
"""

import csv
import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import dataio
from .autograd import Tape, Tensor
from .config import ExperimentConfig
from .losses import total_loss
from .model import HandMeshModel
from .optim import AdamW, lr_at_step
from .rng import substream

# batch size of dataset_loss's gradient-free forwards: the training batch, so
# each chunk fits in the heap a training step leaves free
LOSS_BATCH = 4


@dataclass
class RunArtifacts:
    checkpoint: str
    log_csv: str
    initial_loss: float
    final_loss: float
    steps_per_sec: float  # of the step loop alone: no model build, dataset pass or checkpoint


def batch_loss(model, batch, J, weights):
    """The one supervised forward: the model on a batch's input, then total_loss."""
    out = model(Tensor(batch["input"]))
    return total_loss(out.vertices, batch["V_3d"], out.keypoints_2d, batch["J_2d"], J, weights)


def dataset_loss(model, ds, assets, weights):
    """Mean total loss over the whole dataset, no gradient recording.

    Used for the before/after convergence ratio so it never depends on
    which batch happened to be drawn at step 0 or at the last step. A
    non-finite model raises FloatingPointError.
    """
    totals = []
    for start in range(0, len(ds), LOSS_BATCH):
        idxs = np.arange(start, min(start + LOSS_BATCH, len(ds)))
        totals.append((batch_loss(model, ds.batch(idxs), assets.J, weights).total, len(idxs)))
    return float(sum(t * n for t, n in totals) / sum(n for _, n in totals))


def build_model(cfg, dtype=np.float32):
    """Build the model in float32 and cast it to `dtype`."""
    return HandMeshModel(cfg.sampler, cfg.decoder, seed=cfg.seed).astype(dtype)


def train(cfg):
    """Write config.json, steps.csv and checkpoint.bin to cfg.out_dir.

    A FloatingPointError in either dataset pass or any step raises
    RuntimeError after writing nan_dump.json: the optimizer steps taken, the
    indices the failing forward read (all for a dataset pass), the reason
    and the config.
    """
    if not os.path.isdir(cfg.dataset):
        raise FileNotFoundError(f"dataset directory not found: {cfg.dataset}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    ds = dataio.Dataset(cfg.dataset)
    model = build_model(cfg)
    opt = AdamW(model.parameters(), cfg.weight_decay)
    order = substream(cfg.seed, "data-order")

    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.bin")
    log_path = os.path.join(cfg.out_dir, "steps.csv")
    cfg.save(os.path.join(cfg.out_dir, "config.json"))

    step, idxs = 0, np.arange(len(ds))
    try:
        initial = dataset_loss(model, ds, ds.assets, cfg.loss_weights)
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "L_vert", "L_J3d", "L_J2d", "total", "lr"])
            t0 = time.perf_counter()
            for step in range(cfg.total_steps):
                idxs = order.integers(0, len(ds), size=cfg.batch_size)
                with Tape() as tape:
                    bd = batch_loss(model, ds.batch(idxs), ds.assets.J, cfg.loss_weights)
                    tape.backward(bd.total_node)
                lr = lr_at_step(cfg.lr, step, cfg.total_steps)
                opt.step(lr)
                writer.writerow([step, repr(bd.L_vert), repr(bd.L_J3d), repr(bd.L_J2d),
                                 repr(bd.total), repr(lr)])
            loop_secs = time.perf_counter() - t0
        step, idxs = cfg.total_steps, np.arange(len(ds))
        final = dataset_loss(model, ds, ds.assets, cfg.loss_weights)
    except FloatingPointError as err:
        path = os.path.join(cfg.out_dir, "nan_dump.json")
        with open(path, "w") as dh:
            json.dump({"step": step, "indices": [int(i) for i in idxs], "reason": str(err),
                       "config": asdict(cfg)}, dh, indent=2)
        raise RuntimeError(f"{err} at step {step}; diagnostics in {path}") from err
    dataio.save_checkpoint(ckpt_path, model.state_dict())
    return RunArtifacts(checkpoint=ckpt_path, log_csv=log_path, initial_loss=initial, final_loss=final,
                        steps_per_sec=cfg.total_steps / loop_secs if loop_secs > 0 else float("inf"))


def load_trained_model(run_dir):
    """Rebuild the model from a run directory's config snapshot + checkpoint."""
    cfg = ExperimentConfig.load(os.path.join(run_dir, "config.json"))
    model = build_model(cfg)
    state, _ = dataio.read_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    model.load_state_dict(state)
    return model, cfg
