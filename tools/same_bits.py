"""Print sha256 digests and counts of what a source tree computes, as one JSON object.

    python tools/same_bits.py TREE > bits.json

TREE is a checkout of this repository; its `src/` is imported, with one
BLAS thread. Two trees compute the same bits when their outputs are
identical, so a change that should keep every bit is checked by running
this on a copy of the parent and on a copy of the change, then diffing:

    python tools/same_bits.py ../parent > parent.json
    python tools/same_bits.py . > change.json
    diff parent.json change.json

It covers, on a 16-record dataset and seed 3:
- 8 training steps at batch 4 for four sampler/upsampler configs:
  the `checkpoint.bin` and `steps.csv` that train() writes, the
  `report.json` and `per_sample.csv` that evaluate() writes for the
  trained model on the training records, and the initial and final
  dataset losses;
- one taped float64 paper-config step at batch 4: the bytes of every
  parameter gradient, in `named_parameters` order;
- the tape node counts of that step in float64 and in float32.
Everything is written under a temporary directory that is removed on exit.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

CONFIGS = {  # name -> sampler fields over the paper config
    "paper": {},
    "global": {"variant": "global", "upsample_scheme": "none", "target_resolution": 7},
    "coarse_mesh/single-4x": {"variant": "coarse_mesh", "upsample_scheme": "single-4x"},
    "keypoint/4x-with-extra-convs": {"upsample_scheme": "4x-with-extra-convs"},
}
SEED, RECORDS, STEPS, BATCH = 3, 16, 8, 4
RUN_FILES = ("checkpoint.bin", "steps.csv", "report.json", "per_sample.csv")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", help="source checkout whose src/ is imported")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.tree), "src"))

    import numpy as np

    from handmesh import dataio
    from handmesh.autograd import Tape
    from handmesh.config import ExperimentConfig
    from handmesh.evaluate import evaluate
    from handmesh.train import batch_loss, build_model, load_trained_model, train

    out = {"trains": {}}
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data")
        dataio.generate_dataset(data, RECORDS, SEED)
        for name, sampler in CONFIGS.items():
            run_dir = os.path.join(tmp, name.replace("/", "_"))
            cfg = ExperimentConfig.from_dict({"sampler": sampler, "total_steps": STEPS, "batch_size": BATCH,
                                              "seed": SEED, "dataset": data, "out_dir": run_dir})
            art = train(cfg)
            model, _ = load_trained_model(run_dir)
            evaluate(model, dataio.Dataset(data), out_dir=run_dir)
            out["trains"][name] = {
                **{f: _sha256(os.path.join(run_dir, f)) for f in RUN_FILES},
                "initial_loss": repr(art.initial_loss),
                "final_loss": repr(art.final_loss),
            }

        ds = dataio.Dataset(data)
        batch = ds.batch(np.arange(BATCH))
        cfg = ExperimentConfig(seed=SEED)
        out["tape_nodes"] = {}
        for dtype in (np.float64, np.float32):
            model = build_model(cfg, dtype)
            with Tape() as tape:
                bd = batch_loss(model, batch, ds.assets.J, cfg.loss_weights)
                out["tape_nodes"][np.dtype(dtype).name] = len(tape)
                tape.backward(bd.total_node)
            if dtype is np.float64:
                digest = hashlib.sha256()
                for _, p in model.named_parameters():
                    digest.update(p.grad.tobytes())
                out["float64_grad_sha256"] = digest.hexdigest()
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
