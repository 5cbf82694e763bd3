"""The three benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the seed in `setup`, then the loop
calls `op` (the only timed part) again and again; `check` judges each
op's output, and `finish` makes the checks that need the whole run and
returns the op indices they fail plus the workload's final loss.

- train_kp: `train.train` on the paper config (keypoint sampler,
  double-2x upsampler, 3-stage attention decoder) at batch 4 over an
  on-disk dataset. The only workload that records a tape, runs backward,
  AdamW and `dataset_loss`, and writes a checkpoint.
- infer_b1: batch-1 forward of the paper config on rendered samples held
  in memory; no data reads, no backward, no optimizer.
- eval_global: `evaluate.evaluate` at batch 16 with the global sampler
  (7x7, no upsampler, one token) on a held-out dataset from another
  seed; the only workload with per-sample Procrustes metrics, and it has
  no transposed conv, bilinear sampling or keypoint tokens.
"""

import math
import os

import numpy as np

from handmesh import dataio, synth
from handmesh.autograd import Tape, Tensor
from handmesh.config import ExperimentConfig
from handmesh.evaluate import evaluate, reaggregate_csv
from handmesh.losses import LossWeights, total_loss
from handmesh.regressor import NUM_VERTICES
from handmesh.tokens import SamplerConfig
from handmesh.train import build_model, dataset_loss, load_trained_model, train

# largest |float32 - float64| vertex difference accepted on infer_b1, in mm
# (6e-7 mm measured; vertices of the untrained model are below 1 mm)
VERTEX_TOL_MM = 1e-4
# seed offset of the held-out eval set
HELD_OUT_OFFSET = 1_000_003


def subnormal_fraction(arrays):
    """Share of the nonzero float32 values that are subnormal."""
    tiny = np.finfo(np.float32).tiny
    nonzero = subnormal = 0
    for a in arrays:
        a = np.abs(a.astype(np.float32, copy=False))
        nz = a[a != 0]
        nonzero += nz.size
        subnormal += int((nz < tiny).sum())
    return subnormal / nonzero


def _warm_step(model, batch, weights):
    """One recorded forward and backward, so the first timed op pays no first-call costs."""
    with Tape() as tape:
        out = model(Tensor(batch["input"]))
        bd = total_loss(out.vertices, batch["V_3d"], out.keypoints_2d, batch["J_2d"],
                        synth.build_assets().J, weights)
        tape.backward(bd.total_node)


class TrainKP:
    DATASET_SIZE = 16
    STEPS = 8
    BATCH = 4
    samples_per_op = STEPS * BATCH

    def setup(self, seed, workdir):
        data_dir = os.path.join(workdir, "train_data")
        dataio.generate_dataset(data_dir, self.DATASET_SIZE, seed)
        self.cfg = ExperimentConfig(dataset=data_dir, out_dir=os.path.join(workdir, "run"),
                                    total_steps=self.STEPS, batch_size=self.BATCH, seed=seed)
        self.dataset = dataio.Dataset(data_dir)
        _warm_step(build_model(self.cfg), self.dataset.batch(range(self.BATCH)),
                   self.cfg.loss_weights)
        self.first_final = None

    def inputs(self):
        return [self.dataset[i].input for i in range(len(self.dataset))]

    def op(self, i):
        return train(self.cfg)

    def check(self, i, art):
        with open(art.log_csv) as fh:
            rows = fh.read().splitlines()[1:]
        losses = [float(v) for row in rows for v in row.split(",")[1:5]]
        model, _ = load_trained_model(self.cfg.out_dir)
        if self.first_final is None:
            self.first_final = art.final_loss
        return (len(rows) == self.STEPS
                and all(math.isfinite(v) for v in losses + [art.initial_loss, art.final_loss])
                and art.final_loss < art.initial_loss
                # same seed, same run: the loss repeats
                and math.isclose(art.final_loss, self.first_final, rel_tol=1e-6)
                and all(np.isfinite(p.data).all() for p in model.parameters()))

    def finish(self):
        return set(), self.first_final


class InferB1:
    samples_per_op = 1
    SAMPLES = 16

    def setup(self, seed, workdir):
        assets = synth.build_assets()
        self.samples = [synth.generate_sample(assets, dataio.sample_seed(seed, i))
                        for i in range(self.SAMPLES)]
        self.images = [s.input.astype(np.float32)[None] for s in self.samples]
        self.cfg = ExperimentConfig(seed=seed)
        self.model = build_model(self.cfg)
        for image in self.images[:3]:
            self.model(Tensor(image))
        self.first = {}  # sample -> (vertices, keypoints) of its first forward
        self.ops_of = {}  # sample -> op indices that used it

    def inputs(self):
        return self.images

    def op(self, i):
        return self.model(Tensor(self.images[i % self.SAMPLES]))

    def check(self, i, out):
        k = i % self.SAMPLES
        v = out.vertices.data
        self.ops_of.setdefault(k, []).append(i)
        ref = self.first.setdefault(k, (v, out.keypoints_2d.data))[0]
        return (v.shape == (1, NUM_VERTICES, 3) and bool(np.isfinite(v).all())
                and float(np.abs(v - ref).max()) <= VERTEX_TOL_MM)

    def finish(self):
        """Compare each sample's vertices with a float64 build of the same seed."""
        model64 = build_model(self.cfg, dtype=np.float64)
        failed, loss = set(), []
        J = synth.build_assets().J
        for k, (v, kp) in self.first.items():
            v64 = model64(Tensor(self.images[k].astype(np.float64))).vertices.data
            if not float(np.abs(v - v64).max()) <= VERTEX_TOL_MM:
                failed.update(self.ops_of[k])
            s = self.samples[k]
            loss.append(total_loss(v, s.V_3d[None], kp, s.J_2d[None], J).total)
        return failed, float(np.mean(loss))


class EvalGlobal:
    SIZE = 16
    BATCH = 16
    samples_per_op = SIZE

    def setup(self, seed, workdir):
        data_dir = os.path.join(workdir, "eval_data")
        dataio.generate_dataset(data_dir, self.SIZE, seed + HELD_OUT_OFFSET)
        self.dataset = dataio.Dataset(data_dir)
        self.out_dir = os.path.join(workdir, "eval_out")
        sampler = SamplerConfig(variant="global", target_resolution=7, upsample_scheme="none")
        self.model = build_model(ExperimentConfig(sampler=sampler, seed=seed))
        self.model(Tensor(self.dataset.batch(range(self.BATCH))["input"]))

    def inputs(self):
        return [self.dataset[i].input for i in range(len(self.dataset))]

    def op(self, i):
        return evaluate(self.model, self.dataset, out_dir=self.out_dir, batch_size=self.BATCH)[0]

    def check(self, i, report):
        again = reaggregate_csv(os.path.join(self.out_dir, "per_sample.csv"))
        return (report["count"] == self.SIZE and again == report
                and all(math.isfinite(v) for v in report.values()))

    def finish(self):
        loss = dataset_loss(self.model, self.dataset, synth.build_assets(), LossWeights())
        return set(), loss


WORKLOADS = {"train_kp": TrainKP, "infer_b1": InferB1, "eval_global": EvalGlobal}
