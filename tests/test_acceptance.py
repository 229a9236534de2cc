"""Acceptance suite: the ten contract checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion; each test also prints the measured numbers behind its verdict.
"""

import csv
import json
import time
from statistics import median

import numpy as np
import pytest

from seqfuse.autodiff import Tape, Tensor, backward
from seqfuse.calibration import fit_platt, fit_temperature
from seqfuse.claims import Beneficiary, ClaimRecord, SyntheticConfig, iso_to_day
from seqfuse.cli import default_config, main
from seqfuse.features import SequenceOptions, featurize_events
from seqfuse.knowledge import CcsMap, load_bundle
from seqfuse.metrics import auc, recall_at_top_k, recall_precision_at_threshold
from seqfuse.model import ModelConfig, SeqFuseModel
from seqfuse.rng import Xoshiro256
from seqfuse.training import make_deep_runner, smote, split_patients
from tests.reference import checked_cohort, population_records

DAY0 = iso_to_day("2011-03-01")


# --- shared scenario builders -------------------------------------------------

def _ben(bid, death=None, disposition_note=None):
    return Beneficiary(
        beneficiary_id=bid,
        birth_date=iso_to_day("1940-01-15"),
        gender="female",
        race="white",
        dual_eligible=False,
        medicare_status="aged_no_esrd",
        enrollment_intervals=((DAY0 - 800, DAY0 + 400),),
        death_date=death,
    )


_claim_counter = [0]


def _stay_claim(bid, admit, los, disposition="home", facility="F01", dx=("D0001",)):
    _claim_counter[0] += 1
    return ClaimRecord(
        claim_id=f"A{_claim_counter[0]:04d}",
        beneficiary_id=bid,
        claim_type="inpatient",
        admit_date=admit,
        discharge_date=admit + los,
        dx_codes=tuple(dx),
        proc_codes=(),
        drg="DRG001",
        admission_type="emergent",
        admission_source="community",
        discharge_disposition=disposition,
        facility_id=facility,
    )


def _cohort(bens, claims):
    bundle = load_bundle(CcsMap.synthetic())
    return checked_cohort(bens, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)[1:]


# --- the planted-signal world used by criteria 6 and 7 ------------------------

@pytest.fixture(scope="module")
def planted_world():
    """2,000 synthetic patients, featurized WITHOUT outpatient/ED steps, so
    the visit-count and LOS parts of the planted outcome signal are only
    reachable through the domain vector."""
    start = time.monotonic()
    population = population_records(SyntheticConfig(n_patients=2000, seed=20110901))
    bundle = load_bundle(CcsMap.synthetic())
    cols, *_ = checked_cohort(
        population.beneficiaries, population.claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs
    )
    table, _ = featurize_events(cols, bundle, SequenceOptions(include_outpatient=False))
    labels = table.readmit_label.astype(np.float64)
    z = table.z
    steps = table.step_lists()
    patient_of = table.beneficiary_id.tolist()

    positives: dict[str, int] = {}
    for pid, label in zip(patient_of, labels):
        positives[pid] = positives.get(pid, 0) + int(label)
    folds, _ = split_patients(positives, seed=31)
    fold_of = {pid: name for name, pids in folds.items() for pid in pids}
    fold_idx: dict[str, list[int]] = {name: [] for name in folds}
    for i, pid in enumerate(patient_of):
        fold_idx[fold_of[pid]].append(i)
    build_seconds = time.monotonic() - start
    return steps, z, labels, fold_idx, bundle.ccs.input_dim, build_seconds


# --- criteria ------------------------------------------------------------------

def test_c01_gradients_match_central_differences():
    """Criterion 1: every parameter entry of a d=8, T=5, M=20, |z|=6 model
    agrees with central finite differences (h=1e-5) at rel err <= 1e-4."""
    start = time.monotonic()
    cfg = ModelConfig(
        input_dim=12, embed_dim=8, hidden_dim=8, domain_dim=6,
        n_gru_layers=1, fusion="early", mlp_hidden_dims=(8,), seed=404,
    )
    model = SeqFuseModel(cfg)
    rng = Xoshiro256(11)
    steps = [
        [[rng.randint(0, 11) for _ in range(1 + rng.randint(0, 2))] for _ in range(5)]
        for _ in range(20)
    ]
    z = np.array([[rng.normal() for _ in range(6)] for _ in range(20)])
    labels = np.array([float(i % 2) for i in range(20)])

    def loss_value() -> float:
        with Tape():
            loss, _ = model.loss(steps, z, labels, w_pos=2.0)
        return loss.data[0, 0]

    with Tape() as tape:
        loss, _ = model.loss(steps, z, labels, w_pos=2.0)
        backward(tape, loss)

    h = 1e-5
    worst = 0.0
    n_entries = 0
    for name, tensor in model.params.items():
        flat = tensor.data.reshape(-1)
        grads = tensor.grad.reshape(-1)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + h
            up = loss_value()
            flat[k] = keep - h
            down = loss_value()
            flat[k] = keep
            fd = (up - down) / (2.0 * h)
            gap = abs(grads[k] - fd)
            scale = max(abs(grads[k]), abs(fd))
            # Central differences on an O(1) loss resolve ~1e-11; below
            # that scale the relative form is noise, so entries under 1e-6
            # must instead agree absolutely at 1e-8, a stricter bound.
            if scale < 1e-6:
                assert gap <= 1e-8, (name, k, grads[k], fd)
                continue
            rel = gap / scale
            worst = max(worst, rel)
            assert rel <= 1e-4, (name, k, grads[k], fd, rel)
            n_entries += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1: {n_entries} entries, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_attention_is_a_distribution_and_identity_at_t1():
    """Criterion 2: weights non-negative and summing to 1 within 1e-12 over
    10,000 inputs; a single-step sequence passes its state through exactly."""
    model = SeqFuseModel(
        ModelConfig(input_dim=4, embed_dim=4, hidden_dim=8, domain_dim=0, fusion="none", seed=2)
    )
    rng = Xoshiro256(22)
    n_rows = 0
    worst_gap = 0.0
    for _ in range(100):
        t_len = 1 + rng.randint(0, 5)
        states = [
            Tensor(np.array([[rng.normal() * 2.0 for _ in range(8)] for _ in range(100)]))
            for _ in range(t_len)
        ]
        with Tape():
            _, attention = model.attend(states)
        assert attention.data.min() >= 0.0
        gap = np.abs(attention.data.sum(axis=1) - 1.0).max()
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12
        n_rows += attention.data.shape[0]
    assert n_rows == 10_000

    for _ in range(100):
        state = Tensor(np.array([[rng.normal() * 10.0 ** rng.randint(-8, 8) for _ in range(8)]]))
        with Tape():
            summary, attention = model.attend([state])
        assert np.array_equal(summary.data, state.data)
        assert attention.data[0, 0] == 1.0
    print(f"criterion 2: {n_rows} rows, worst row-sum gap {worst_gap:.2e}, T=1 exact")


def test_c03_cohort_label_scenarios():
    """Criterion 3: the four readmission timing/merging scenarios and the
    mortality discharge exclusions produce exactly the specified labels."""
    bens = [_ben(f"B{i}") for i in range(1, 5)]
    claims = [
        # Scenario 1: readmitted 20 days after discharge -> positive.
        _stay_claim("B1", DAY0, 3),
        _stay_claim("B1", DAY0 + 23, 2),
        # Scenario 2: readmitted 31 days after discharge -> negative.
        _stay_claim("B2", DAY0, 3),
        _stay_claim("B2", DAY0 + 34, 2),
        # Scenario 3: A -> B -> C, C in both windows, credited to B only.
        _stay_claim("B3", DAY0, 2),
        _stay_claim("B3", DAY0 + 10, 2),
        _stay_claim("B3", DAY0 + 20, 2),
        # Scenario 4: acute transfer chain resolves to one merged stay.
        _stay_claim("B4", DAY0, 3, disposition="transfer_acute"),
        _stay_claim("B4", DAY0 + 4, 3, facility="F02"),
    ]
    events, stays, _ = _cohort(bens, claims)
    by_key = {(e.stay.beneficiary_id, e.stay.admit_date): e for e in events}

    s1 = by_key[("B1", DAY0)]
    assert s1.readmit_label is True and s1.readmit_stay_id is not None
    s2 = by_key[("B2", DAY0)]
    assert s2.readmit_label is False and s2.readmit_stay_id is None

    a = by_key[("B3", DAY0)]
    b = by_key[("B3", DAY0 + 10)]
    c = by_key[("B3", DAY0 + 20)]
    assert a.readmit_stay_id == b.stay.stay_id  # A's credit is B, not C
    assert b.readmit_stay_id == c.stay.stay_id  # C belongs to B only
    assert c.readmit_label is False

    merged = [s for s in stays if s.beneficiary_id == "B4"]
    assert len(merged) == 1
    assert merged[0].los == 7
    assert len(merged[0].merged_claim_ids) == 2
    assert by_key[("B4", DAY0)].readmit_label is False

    death_day = DAY0 + 3 + 10
    m_bens = [
        _ben("M1", death=death_day),
        _ben("M2", death=death_day),
        _ben("M3", death=death_day),
    ]
    m_claims = [
        _stay_claim("M1", DAY0, 3),
        _stay_claim("M2", DAY0, 3, disposition="ama"),
        _stay_claim("M3", DAY0, 3, disposition="hospice"),
    ]
    m_events, _, _ = _cohort(m_bens, m_claims)
    by_ben = {e.stay.beneficiary_id: e for e in m_events}
    assert by_ben["M1"].mortality_label is True and by_ben["M1"].mortality_exclusion is None
    assert by_ben["M2"].mortality_exclusion == "ama"
    assert by_ben["M3"].mortality_exclusion == "hospice"
    print("criterion 3: scenarios 1-4 and ama/hospice exclusions labeled as specified")


def test_c04_auc_equals_pair_counting_oracle():
    """Criterion 4: the rank-based AUC matches the O(n^2) definition within
    1e-12 on 1,000 random score/label sets that include ties."""
    start = time.monotonic()
    rng = Xoshiro256(4)
    worst = 0.0
    for trial in range(1000):
        n = 2 + rng.randint(0, 78)
        if trial % 2:
            scores = np.array([rng.randint(0, 9) / 9.0 for _ in range(n)])
        else:
            scores = np.array([rng.random() for _ in range(n)])
        labels = np.array([rng.bernoulli(0.35) for _ in range(n)], dtype=np.int64)
        if labels.min() == labels.max():
            labels[rng.randint(0, n - 1)] ^= 1
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        oracle = wins / (len(pos) * len(neg))
        gap = abs(auc(scores, labels) - oracle)
        worst = max(worst, gap)
        assert gap <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 4: 1000 sets, worst |fast - oracle| {worst:.2e}, {elapsed:.1f}s")


def test_c05_calibration_contracts():
    """Criterion 5: temperature scaling leaves test AUC bit-identical, never
    raises calibration-fold NLL, recovers T in [2.7, 3.3] from 3x-inflated
    logits; Platt recovers (a, b) near (1, 0) on calibrated scores."""
    rng = Xoshiro256(55)

    def world(n):
        logits = np.array([rng.normal() * 1.5 for _ in range(n)])
        probs = 1.0 / (1.0 + np.exp(-logits))
        labels = np.array([float(rng.bernoulli(p)) for p in probs])
        return logits, labels

    cal_logits, cal_labels = world(3000)
    test_logits, test_labels = world(1500)
    calibrator = fit_temperature(3.0 * cal_logits, cal_labels)
    assert 2.7 <= calibrator.temperature <= 3.3
    assert calibrator.stats["nll_after"] <= calibrator.stats["nll_before"]
    raw_auc = auc(3.0 * test_logits, test_labels)
    cal_auc = auc(calibrator.apply(3.0 * test_logits), test_labels)
    assert cal_auc == raw_auc  # bit-identical, not merely close

    scores, labels = world(3000)
    platt = fit_platt(scores, labels)
    assert abs(platt.a - 1.0) <= 0.1
    assert abs(platt.b - 0.0) <= 0.1
    print(
        f"criterion 5: T={calibrator.temperature:.3f}, test AUC preserved exactly, "
        f"platt (a, b) = ({platt.a:.3f}, {platt.b:.3f})"
    )


def test_c06_domain_fusion_beats_sequence_only(planted_world):
    """Criterion 6: on 2,000 patients whose visit-count/LOS signal is hidden
    from the sequence branch, early fusion beats fusion=none by >= 0.03 in
    median-over-5-seeds test AUC, both above 0.5, inside 10 minutes."""
    steps, z, labels, fold_idx, input_dim, build_seconds = planted_world
    start = time.monotonic()
    config = {
        "embed_dim": 8, "hidden_dim": 16, "n_gru_layers": 1,
        "mlp_hidden_dims": [16], "lr": 0.02, "batch_size": 64, "w_pos": 2.0,
    }
    results: dict[str, list[float]] = {}
    for fusion in ("early", "none"):
        runner = make_deep_runner(
            steps, z, labels, fold_idx,
            input_dim=input_dim, domain_dim=z.shape[1], fusion=fusion,
            epochs=6, patience=2,
        )
        results[fusion] = []
        for seed in (101, 102, 103, 104, 105):
            out = runner(config, seed)
            assert out["status"] == "ok", out.get("failure")
            results[fusion].append(out["test_auc"])
    med_early = median(results["early"])
    med_none = median(results["none"])
    elapsed = build_seconds + (time.monotonic() - start)
    assert med_none > 0.5
    assert med_early > 0.5
    assert med_early - med_none >= 0.03
    assert elapsed < 600.0
    print(
        f"criterion 6: early {med_early:.3f} vs none {med_none:.3f} "
        f"(margin {med_early - med_none:.3f}), {elapsed:.0f}s total"
    )


def test_c07_recall_is_tunable(planted_world):
    """Criterion 7: heavier positive weights trade precision for recall at
    the fixed threshold (non-decreasing, at most one inversion), and
    recall@top-k is non-decreasing in k, reaching 1.0 at k=n."""
    steps, z, labels, fold_idx, input_dim, _ = planted_world
    test_idx = fold_idx["test"]
    test_labels = labels[test_idx]
    recalls = []
    last_scores = None
    runner = make_deep_runner(
        steps, z, labels, fold_idx,
        input_dim=input_dim, domain_dim=z.shape[1], fusion="early",
        epochs=4, patience=4,
    )
    for w_pos in (1.0, 2.0, 4.0, 8.0):
        out = runner(
            {"embed_dim": 8, "hidden_dim": 16, "n_gru_layers": 1, "mlp_hidden_dims": [16],
             "lr": 0.02, "batch_size": 64, "w_pos": w_pos},
            seed=7,
        )
        assert out["status"] == "ok"
        model = out["model"]
        z_std = (z - out["z_mean"]) / out["z_std"]
        probs, _, _ = model.predict([steps[i] for i in test_idx], z_std[test_idx])
        recall, _ = recall_precision_at_threshold(probs, test_labels, threshold=0.5)
        recalls.append(recall)
        last_scores = probs
    inversions = sum(1 for a, b in zip(recalls, recalls[1:]) if b < a)
    assert inversions <= 1, recalls
    assert recalls[-1] >= recalls[0]

    n = len(test_idx)
    curve = [recall_at_top_k(last_scores, test_labels, k) for k in range(1, n + 1)]
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] == 1.0
    print(f"criterion 7: recall@0.5 by w_pos {['%.3f' % r for r in recalls]}, top-k curve monotone to 1.0")


def test_c08_split_fractions_hold_over_1000_seeds():
    """Criterion 8: 70/15/5/10 patient folds stay disjoint, complete, and
    within one patient of the exact share for 1,000 seeds."""
    positives = {}
    for i in range(141):
        positives[f"Z{i:04d}"] = 0
    for i in range(41):
        positives[f"O{i:04d}"] = 1
    for i in range(19):
        positives[f"T{i:04d}"] = 2
    n = len(positives)
    fractions = (0.70, 0.15, 0.05, 0.10)
    for seed in range(1000):
        folds, _ = split_patients(positives, seed=seed, fractions=fractions)
        assigned = [pid for fold in folds.values() for pid in fold]
        assert len(assigned) == n and len(set(assigned)) == n
        for name, fraction in zip(("train", "valid", "calibration", "test"), fractions):
            assert abs(len(folds[name]) - n * fraction) <= 1.0, (seed, name)
    print(f"criterion 8: 1000 seeds x {n} patients, all folds within +/-1 of share")


def test_c09_smote_geometry_and_balance():
    """Criterion 9: every synthetic row lies on a segment between two
    minority rows, and post-balance counts hit target_ratio exactly."""
    rng = Xoshiro256(9)
    x = np.array([[rng.normal() for _ in range(3)] for _ in range(75)])
    y = np.array([1] * 15 + [0] * 60)

    for ratio, expected_minority in ((1.0, 60), (0.8, 48)):
        out_x, out_y = smote(x, y, seed=17, target_ratio=ratio)
        assert int(out_y.sum()) == expected_minority
        assert int((out_y == 0).sum()) == 60
        minority = x[y == 1]
        for row in out_x[len(x):]:
            on_a_segment = False
            for i in range(len(minority)):
                for j in range(len(minority)):
                    if i == j:
                        continue
                    a, b = minority[i], minority[j]
                    span = b - a
                    lam = float(np.dot(row - a, span) / np.dot(span, span))
                    if -1e-12 <= lam <= 1 + 1e-12 and np.allclose(row, a + lam * span, atol=1e-9):
                        on_a_segment = True
                        break
                if on_a_segment:
                    break
            assert on_a_segment, row
    print("criterion 9: all synthetic rows convex in two minority points; ratios 1.0 and 0.8 exact")


def test_c10_reporting_structure(tmp_path):
    """Criterion 10: the demo run's table has LR / Early Fusion / Late Fusion
    rows with AUC, AUC_std, Recall per embedding mode (LR blank under
    pretrained), and the subgroup file carries the required partitions."""
    outdir = tmp_path / "run"
    cfg = default_config(outdir=str(outdir), n_patients=400, seed=31415)
    cfg["train"].update(
        {
            "algorithms": ["lr", "early_fusion", "late_fusion"],
            "embedding_modes": ["linear", "pretrained"],
            "epochs": 2,
            "patience": 2,
            "grid": {
                "embed_dim": [8], "hidden_dim": [12], "n_gru_layers": [1],
                "mlp_hidden_dims": [[8]], "lr": [0.05], "batch_size": [32], "w_pos": [2.0],
            },
            "lr_grid": {"l2": [0.1], "smote": [False]},
        }
    )
    cfg["features"]["pretrained_embed_dim"] = 8
    cfg["evaluate"].update({"top_k": [10], "n_min": 5})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg) + "\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 0

    with open(outdir / "report" / "table3.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "Algorithm",
        "AUC_linear", "AUC_std_linear", "Recall_linear",
        "AUC_pretrained", "AUC_std_pretrained", "Recall_pretrained",
    ]
    assert [r[0] for r in rows[1:]] == ["LR", "Early Fusion", "Late Fusion"]
    lr_row = rows[1]
    assert lr_row[4] == lr_row[5] == lr_row[6] == ""  # no embedding for the flat model
    for row in rows[2:]:
        for value in row[1:]:
            float(value)  # deep rows populated under both modes

    with open(outdir / "report" / "subgroups.csv", newline="") as fh:
        sub_rows = list(csv.DictReader(fh))
    partitions = {r["partition"] for r in sub_rows}
    assert {"charlson_band", "medicare_status", "age_range", "gender", "race"} <= partitions
    assert any(p.startswith("proc_ccs_") for p in partitions)
    bands = {r["group"] for r in sub_rows if r["partition"] == "charlson_band"}
    assert bands == {"0-2", "3-5", "6+"}
    proc_groups = {r["group"] for r in sub_rows if r["partition"].startswith("proc_ccs_")}
    assert proc_groups <= {"present", "absent"}
    print("criterion 10: table3 and subgroup layouts match the reporting contract")
