"""Correctness gate for one finished pipeline repetition."""

from __future__ import annotations

import csv
import json
from pathlib import Path

SUBGROUP_HEADER = ["partition", "group", "n", "prevalence", "auc", "recall", "small_n"]
SUBGROUP_PARTITIONS = ("age_range", "gender", "race", "medicare_status", "charlson_band")


def read_manifests(cli, outdir: Path) -> dict[str, bytes]:
    return {stage: (outdir / stage / "manifest.json").read_bytes() for stage in cli.STAGES}


def verify_chain(cli, outdir: Path) -> list[str]:
    """Re-verifies every output each stage's manifest declares."""
    problems = []
    for stage in cli.STAGES:
        manifest = json.loads((outdir / stage / "manifest.json").read_text(encoding="utf-8"))
        if manifest.get("stage") != stage:
            problems.append(f"{stage}/manifest.json names stage {manifest.get('stage')!r}")
        try:
            cli.require_inputs(outdir, list(manifest["outputs"]))
        except cli.PrerequisiteError as exc:
            problems.append(f"{stage}: {exc}")
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_report(cli, cfg: dict, outdir: Path) -> list[str]:
    """table3.csv holds one row per configured algorithm; subgroups.csv
    covers every partition, and each partition's group sizes sum to the
    test-fold event count."""
    problems = []
    algorithms = [a for a in cli.ALGORITHMS if a in cfg["train"]["algorithms"]]
    modes = [m for m in cli.EMBEDDING_MODES if m in cfg["train"]["embedding_modes"]]
    table = _read_csv(outdir / "report" / "table3.csv")
    header = ["Algorithm"] + [f"{k}_{m}" for m in modes for k in ("AUC", "AUC_std", "Recall")]
    if not table or table[0] != header:
        problems.append(f"table3.csv header {table[:1]} != {header}")
    labels = [row[0] for row in table[1:]]
    if labels != [cli.ALGORITHM_LABELS[a] for a in algorithms]:
        problems.append(f"table3.csv rows {labels} do not match algorithms {algorithms}")
    for row in table[1:]:
        auc = row[1] if len(row) > 1 else ""
        if not auc or not 0.0 <= float(auc) <= 1.0:
            problems.append(f"table3.csv row {row[0]!r} has AUC {auc!r}")

    rows = _read_csv(outdir / "report" / "subgroups.csv")
    n_test = json.loads((outdir / "report" / "report_info.json").read_text(encoding="utf-8"))["n_test_events"]
    if not rows or rows[0] != SUBGROUP_HEADER:
        problems.append(f"subgroups.csv header {rows[:1]} != {SUBGROUP_HEADER}")
        return problems
    n_proc = json.loads((outdir / "featurize" / "features.json").read_text(encoding="utf-8"))["n_proc_columns"]
    expected = set(SUBGROUP_PARTITIONS) | {
        f"proc_ccs_{'other' if c == n_proc - 1 else c}" for c in range(n_proc)
    }
    sizes: dict[str, int] = {}
    for row in rows[1:]:
        sizes[row[0]] = sizes.get(row[0], 0) + int(row[2])
    if set(sizes) != expected:
        problems.append(f"subgroups.csv partitions differ from expected: {sorted(set(sizes) ^ expected)}")
    wrong = {p: n for p, n in sizes.items() if n != n_test}
    if wrong:
        problems.append(f"subgroups.csv partition sizes {wrong} != {n_test} test events")
    return problems


def cell_test_aucs(outdir: Path) -> dict[str, float]:
    """Test AUC per cell, reported for information only."""
    metrics = json.loads((outdir / "evaluate" / "metrics.json").read_text(encoding="utf-8"))
    return {cell: m["auc"] for cell, m in metrics["cells"].items()}
