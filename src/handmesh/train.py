"""Training loop: AdamW on the weighted L1 objective, 10x LR drop at halfway.

Every stochastic choice (weight init, batch order) flows from the config
seed through named substreams, so a (config, seed) pair pins the run.
"""

import csv
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import dataio
from .autograd import Tape, Tensor
from .losses import total_loss
from .model import HandMeshModel
from .optim import AdamW, lr_at_step
from .rng import substream

LOSS_BATCH = 16  # batch size of dataset_loss's gradient-free forwards


@dataclass
class RunArtifacts:
    checkpoint: str
    log_csv: str
    config_json: str
    initial_loss: float
    final_loss: float


def dataset_loss(model, ds, assets, weights):
    """Mean total loss over the whole dataset, no gradient recording.

    Used for the before/after convergence ratio so it never depends on
    which batch happened to be drawn at step 0 or at the last step.
    """
    totals = []
    for start in range(0, len(ds), LOSS_BATCH):
        idxs = np.arange(start, min(start + LOSS_BATCH, len(ds)))
        batch = ds.batch(idxs)
        out = model(Tensor(batch["input"]))
        bd = total_loss(out.vertices, batch["V_3d"], out.keypoints_2d,
                        batch["J_2d"], assets.J, weights)
        totals.append((bd.total, len(idxs)))
    return float(sum(t * n for t, n in totals) / sum(n for _, n in totals))


def build_model(cfg, dtype=np.float32):
    """Build the model in float32 and cast it to `dtype`."""
    return HandMeshModel(cfg.sampler, cfg.decoder, seed=cfg.seed,
                         use_pos_emb=cfg.use_pos_emb).astype(dtype)


def _dump_abort(cfg, step, idxs, breakdown=None, reason="non-finite loss"):
    dump = {"step": step, "indices": [int(i) for i in idxs], "reason": reason,
            "breakdown": breakdown, "config": asdict(cfg)}
    path = os.path.join(cfg.out_dir, "nan_dump.json")
    with open(path, "w") as dh:
        json.dump(dump, dh, indent=2)
    raise RuntimeError(f"non-finite loss at step {step}; diagnostics in {path}")


def train(cfg):
    if not os.path.isdir(cfg.dataset):
        raise FileNotFoundError(f"dataset directory not found: {cfg.dataset}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    ds = dataio.Dataset(cfg.dataset)
    model = build_model(cfg)
    opt = AdamW(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    order = substream(cfg.seed, "data-order")

    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.bin")
    log_path = os.path.join(cfg.out_dir, "steps.csv")
    cfg_path = os.path.join(cfg.out_dir, "config.json")
    cfg.save(cfg_path)

    initial = dataset_loss(model, ds, ds.assets, cfg.loss_weights)
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "L_vert", "L_J3d", "L_J2d", "total", "lr"])
        for step in range(cfg.total_steps):
            idxs = order.integers(0, len(ds), size=cfg.batch_size)
            batch = ds.batch(idxs)
            model.zero_grad()
            with Tape() as tape:
                try:
                    out = model(Tensor(batch["input"]))
                    bd = total_loss(out.vertices, batch["V_3d"], out.keypoints_2d,
                                    batch["J_2d"], ds.assets.J, cfg.loss_weights)
                except FloatingPointError as err:
                    # a non-finite intermediate tripped a forward check
                    _dump_abort(cfg, step, idxs, reason=str(err))
                if not np.isfinite(bd.total):
                    _dump_abort(cfg, step, idxs, breakdown=bd.to_dict())
                tape.backward(bd.total_node)
            # the tape holds the activations, their gradients and the attention
            # probabilities; free them, the output and the input batch before
            # the optimizer step and the next batch read
            del tape, out, batch
            opt.lr = lr_at_step(cfg.lr, step, cfg.total_steps)
            opt.step()
            writer.writerow([step, repr(bd.L_vert), repr(bd.L_J3d), repr(bd.L_J2d),
                             repr(bd.total), repr(opt.lr)])

    final = dataset_loss(model, ds, ds.assets, cfg.loss_weights)
    dataio.save_checkpoint(ckpt_path, model.state_dict())
    return RunArtifacts(checkpoint=ckpt_path, log_csv=log_path, config_json=cfg_path,
                        initial_loss=initial, final_loss=final)


def load_trained_model(run_dir):
    """Rebuild the model from a run directory's config snapshot + checkpoint."""
    from .config import ExperimentConfig

    cfg = ExperimentConfig.load(os.path.join(run_dir, "config.json"))
    model = build_model(cfg)
    state, _ = dataio.load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    model.load_state_dict(state)
    return model, cfg
