"""The benchmark's workloads: each is the shipped demo config plus overrides.

Every workload trains with a fixed number of epochs (patience >= epochs, so
early stopping never fires). With early stopping the amount of training work
depends on the seed: at 600 patients one seed ran 15 + 15 epochs and another
5 + 15, which no regression bound can absorb.

This module imports nothing from seqfuse, so the set-up probe can load it
before it starts timing the import of seqfuse.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 20110901

WORKLOADS: dict[str, dict] = {
    "demo-2k": {
        "why": (
            "the shipped demo config at 2,000 patients (LR with SMOTE, early and late fusion), "
            "1 fixed epoch: the model/autodiff tape dominates and SMOTE sets peak RSS"
        ),
        "patients": 2000,
        "overrides": {"train": {"epochs": 1, "patience": 1}},
    },
    "prep-5k": {
        "why": (
            "5,000 patients, LR only, SMOTE off: the data and plumbing layers do the work and no "
            "tape op runs, so model/autodiff changes must leave it unchanged"
        ),
        "patients": 5000,
        "overrides": {
            "train": {"algorithms": ["lr"], "lr_grid": {"l2": [0.1, 0.01], "smote": [False]}},
        },
    },
}


def population_seeds(seed: int) -> tuple[int, int]:
    """The root seeds of the two populations one run measures: `seed`
    itself and a second one hashed from it.

    Populations drawn from different seeds differ in work: on `demo-2k`
    the median tape records per training step ranged from 1,409 to 1,780
    over the seeds tried. Averaging two populations per run halves the
    variance that adds to the run-to-run spread.
    """
    digest = hashlib.sha256(f"seqfuse-bench/{seed}/second".encode("utf-8")).digest()
    return seed, int.from_bytes(digest[:8], "little") >> 1


def make_config(cli, name: str, seed: int, outdir: Path) -> dict:
    """The workload's full config, built from `cli.default_config`."""
    spec = WORKLOADS[name]
    cfg = cli.default_config(outdir=str(outdir), n_patients=spec["patients"], seed=seed)
    for section, values in spec["overrides"].items():
        cfg[section].update(values)
    return cfg


def write_config(cli, name: str, seed: int, outdir: Path, path: Path) -> dict:
    """Writes the workload config to `path` and returns it as seqfuse
    validates it, which is what every stage call reads back."""
    cfg = make_config(cli, name, seed, outdir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return cli.load_config(str(path))
