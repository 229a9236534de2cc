"""Model inputs: visit sequences and the hand-crafted domain vector.

Each eligible index event becomes a sequence of multi-hot visit steps over
CCS category indices plus a fixed-width vector z of demographic, index-stay,
utilization, comorbidity, and hospital-acquired-condition features. The
layout of z is data-driven (see seqfuse/data/domain_spec.json), and the
name list returned alongside the values always matches positionally.

`featurize_events` appends each event straight into the columns of an
`EventTable`, one row per event with its visit steps in CSR form; the
featurize stage saves that table as `featurize/events.npz`, which every
later stage loads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .claims import Beneficiary, ClaimRecord, _ptr, write_npz
from .cohort import LOOKBACK_DAYS, IndexEvent, InpatientStay, age_band
from .errors import ValidationError
from .knowledge import CcsMap, KnowledgeBundle, charlson_index, hac_flags

__all__ = [
    "SequenceOptions",
    "SequenceStep",
    "EventTable",
    "SUBGROUP_KEYS",
    "build_sequence",
    "build_domain_vector",
    "featurize_events",
]


@dataclass(frozen=True)
class SequenceOptions:
    include_outpatient: bool = True
    exclude_index_step: bool = False
    lookback_days: int = 365


@dataclass(frozen=True)
class SequenceStep:
    day_offset: int
    indices: tuple[int, ...]


def _stay_indices(stay: InpatientStay, ccs: CcsMap) -> tuple[int, ...]:
    indices = {ccs.dx_index(c) for c in stay.all_dx}
    indices.update(ccs.proc_index(p) for p in stay.all_proc)
    return tuple(sorted(indices))


def _claim_indices(claim: ClaimRecord, ccs: CcsMap) -> tuple[int, ...]:
    indices = {ccs.dx_index(c) for c in claim.dx_codes}
    indices.update(ccs.proc_index(p) for p in claim.proc_codes)
    return tuple(sorted(indices))


def build_sequence(
    event: IndexEvent,
    claims: list[ClaimRecord],
    stays: list[InpatientStay],
    ccs: CcsMap,
    opts: SequenceOptions = SequenceOptions(),
) -> list[SequenceStep]:
    """Ordered visit steps for one index event.

    History covers admissions in [index admit - lookback, index admit);
    inpatient steps come from resolved stays so transfer chains appear once.
    Same-day steps order by record id, so output is stable. The index stay
    itself is the final step unless excluded, and excluding it requires at
    least one history step to remain.
    """
    index_admit = event.stay.admit_date
    horizon = index_admit - opts.lookback_days
    keyed: list[tuple[int, str, tuple[int, ...]]] = []
    for stay in stays:
        if stay.beneficiary_id == event.stay.beneficiary_id and horizon <= stay.admit_date < index_admit:
            keyed.append((stay.admit_date - index_admit, stay.stay_id, _stay_indices(stay, ccs)))
    if opts.include_outpatient:
        for claim in claims:
            if (
                claim.beneficiary_id == event.stay.beneficiary_id
                and claim.claim_type in ("outpatient", "ed")
                and horizon <= claim.admit_date < index_admit
            ):
                indices = _claim_indices(claim, ccs)
                if indices:
                    keyed.append((claim.admit_date - index_admit, claim.claim_id, indices))
    keyed.sort(key=lambda item: (item[0], item[1]))
    steps = [SequenceStep(day_offset=offset, indices=indices) for offset, _, indices in keyed]
    if not opts.exclude_index_step:
        steps.append(SequenceStep(day_offset=0, indices=_stay_indices(event.stay, ccs)))
    if not steps:
        raise ValidationError(f"event {event.event_id}: no visits left to build a sequence from")
    return steps


def _one_hot(value: str, levels: tuple[str, ...]) -> list[float]:
    vec = [0.0] * (len(levels) + 1)
    try:
        vec[levels.index(value)] = 1.0
    except ValueError:
        vec[-1] = 1.0
    return vec


def _z_age_band(age: int) -> str:
    if age < 65:
        return "<65"
    if age >= 85:
        return "85+"
    low = (age // 5) * 5
    return f"{low}-{low + 4}"


def _pooled_dx_codes(event: IndexEvent, claims: list[ClaimRecord]) -> set[str]:
    admit = event.stay.admit_date
    codes = set(event.stay.all_dx)
    for claim in claims:
        if claim.beneficiary_id == event.stay.beneficiary_id and admit - LOOKBACK_DAYS <= claim.admit_date <= admit:
            codes.update(claim.dx_codes)
    return codes


def build_domain_vector(
    event: IndexEvent,
    beneficiary: Beneficiary,
    claims: list[ClaimRecord],
    stays: list[InpatientStay],
    bundle: KnowledgeBundle,
) -> tuple[list[float], list[str]]:
    """The hand-crafted vector z and its positionally matched feature names.

    Utilization counts cover the `LOOKBACK_DAYS` (12 months) before the
    index admission; comorbidity pools diagnosis codes over that window
    plus the index stay. `features.lookback_days` sets only the window of
    the visit steps, not this one. Unknown categorical values land in each
    feature's reserved (other) slot.
    """
    return _domain_values(event, beneficiary, claims, stays, bundle), _domain_names(bundle)


def _domain_names(bundle: KnowledgeBundle) -> list[str]:
    """The column names of z, in the layout `_domain_values` fills."""
    names: list[str] = []
    for feature in bundle.domain_spec:
        if feature.encoding in ("numeric", "binary"):
            names.append(feature.name)
        elif feature.encoding == "one_hot":
            names.extend([f"{feature.name}={level}" for level in feature.levels] + [f"{feature.name}=(other)"])
        elif feature.encoding == "one_hot_dx_ccs":
            names.extend([f"{feature.name}={cat}" for cat in range(bundle.ccs.n_dx)] + [f"{feature.name}=(other)"])
        elif feature.encoding == "flags":
            names.extend(f"{feature.name}[{rule.name}]" for rule in bundle.hac_rules)
    return names


def _domain_values(
    event: IndexEvent,
    beneficiary: Beneficiary,
    claims: list[ClaimRecord],
    stays: list[InpatientStay],
    bundle: KnowledgeBundle,
) -> list[float]:
    """The values of z (see `build_domain_vector`)."""
    stay = event.stay
    ccs = bundle.ccs
    admit = stay.admit_date
    window_start = admit - LOOKBACK_DAYS

    n_inpatient = sum(
        1
        for s in stays
        if s.beneficiary_id == stay.beneficiary_id and window_start <= s.admit_date <= admit - 1
    )
    n_outpatient = 0
    n_ed = 0
    for claim in claims:
        if claim.beneficiary_id == stay.beneficiary_id and window_start <= claim.admit_date <= admit - 1:
            if claim.claim_type == "outpatient":
                n_outpatient += 1
            elif claim.claim_type == "ed":
                n_ed += 1
    charlson = charlson_index(_pooled_dx_codes(event, claims), ccs, bundle.charlson_weights)
    dx_cats = {ccs.dx_category(c) for c in stay.all_dx}
    proc_cats = {ccs.proc_category(p) for p in stay.all_proc}
    flags = hac_flags(dx_cats, proc_cats, bundle.hac_rules)

    raw: dict[str, object] = {
        "age_range": _z_age_band(event.age),
        "gender": beneficiary.gender,
        "race": beneficiary.race,
        "dual_eligible": beneficiary.dual_eligible,
        "medicare_status": beneficiary.medicare_status,
        "length_of_stay": float(stay.los),
        "admission_type": stay.admission_type,
        "admission_source": stay.admission_source,
        "discharge_disposition": stay.discharge_disposition,
        "drg": stay.drg,
        "discharge_dx_ccs": ccs.dx_category(stay.principal_dx),
        "n_dx_codes_index": float(len(stay.all_dx)),
        "inpatient_admissions_12m": float(n_inpatient),
        "outpatient_visits_12m": float(n_outpatient),
        "ed_visits_12m": float(n_ed),
        "charlson_index": float(charlson),
        "hac_flags": flags,
    }

    values: list[float] = []
    for feature in bundle.domain_spec:
        if feature.name not in raw:
            raise ValidationError(f"domain spec references unknown feature {feature.name!r}")
        value = raw[feature.name]
        if feature.encoding == "numeric":
            values.append(float(value))
        elif feature.encoding == "binary":
            values.append(1.0 if value else 0.0)
        elif feature.encoding == "one_hot":
            values.extend(_one_hot(str(value), feature.levels))
        elif feature.encoding == "one_hot_dx_ccs":
            vec = [0.0] * ccs.n_dx_columns
            vec[int(value)] = 1.0
            values.extend(vec)
        elif feature.encoding == "flags":
            values.extend(float(f) for f in value)
        else:
            raise ValidationError(f"feature {feature.name!r}: unknown encoding {feature.encoding!r}")
    return values


def charlson_band(charlson: int) -> str:
    if charlson <= 2:
        return "0-2"
    if charlson <= 5:
        return "3-5"
    return "6+"


def featurize_events(
    events: list[IndexEvent],
    beneficiaries: dict[str, Beneficiary],
    claims: list[ClaimRecord],
    stays: list[InpatientStay],
    bundle: KnowledgeBundle,
    opts: SequenceOptions = SequenceOptions(),
) -> tuple[EventTable, list[str]]:
    """The visit steps, z, labels and subgroup attributes of every eligible
    event, in event order, as one `EventTable`; and the names of z."""
    claims_by_ben: dict[str, list[ClaimRecord]] = {}
    for claim in claims:
        claims_by_ben.setdefault(claim.beneficiary_id, []).append(claim)
    stays_by_ben: dict[str, list[InpatientStay]] = {}
    for stay in stays:
        stays_by_ben.setdefault(stay.beneficiary_id, []).append(stay)

    z_names = _domain_names(bundle)
    charlson_at = z_names.index("charlson_index")
    # Per event column, its values; per CSR column, its row lengths.
    cols: dict[str, list] = {f.name: [] for f in fields(EventTable)}
    for event in events:
        if not event.eligible:
            continue
        bid = event.stay.beneficiary_id
        ben = beneficiaries[bid]
        ben_claims = claims_by_ben.get(bid, [])
        ben_stays = stays_by_ben.get(bid, [])
        steps = build_sequence(event, ben_claims, ben_stays, bundle.ccs, opts)
        z = _domain_values(event, ben, ben_claims, ben_stays, bundle)
        if len(z) != len(z_names):
            raise ValidationError(f"domain vector has {len(z)} values for {len(z_names)} names")
        procs = sorted({bundle.ccs.proc_category(p) for p in event.stay.all_proc})
        row = {
            "event_id": event.event_id,
            "beneficiary_id": bid,
            "readmit_label": bool(event.readmit_label),
            "mortality_label": bool(event.mortality_label),
            "mortality_excluded": event.mortality_exclusion is not None,
            "z": z,
            "step_ptr": len(steps),
            "age_range": age_band(event.age),
            "gender": ben.gender,
            "race": ben.race,
            "medicare_status": ben.medicare_status,
            "charlson_band": charlson_band(int(z[charlson_at])),
            "proc_ptr": len(procs),
        }
        for name, value in row.items():
            cols[name].append(value)
        for step in steps:
            cols["day_offset"].append(step.day_offset)
            cols["idx_ptr"].append(len(step.indices))
            cols["indices"].extend(step.indices)
        cols["proc_ccs"].extend(procs)
    return EventTable(
        **{name: np.array(cols[name], dtype=bool) for name in ("readmit_label", "mortality_label", "mortality_excluded")},
        **{name: np.array(cols[name], dtype=np.str_) for name in ("event_id", "beneficiary_id", *SUBGROUP_KEYS)},
        **{name: np.array(cols[name], dtype=np.int64) for name in ("day_offset", "indices", "proc_ccs")},
        **{name: _ptr(cols[name]) for name in ("step_ptr", "idx_ptr", "proc_ptr")},
        z=np.array(cols["z"], dtype=np.float64).reshape(len(cols["z"]), len(z_names)),
    ), z_names


# --- columnar form ------------------------------------------------------------

SUBGROUP_KEYS = ("age_range", "gender", "race", "medicare_status", "charlson_band")
# EventTable columns indexed by step, index or procedure rather than by event.
_CSR_COLUMNS = ("step_ptr", "day_offset", "idx_ptr", "indices", "proc_ptr", "proc_ccs")


def _csr_take(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pointer array of CSR rows `rows`, and the positions of their
    elements in the original value array."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    new_ptr = _ptr(lengths)
    positions = np.repeat(starts - new_ptr[:-1], lengths) + np.arange(new_ptr[-1], dtype=np.int64)
    return new_ptr, positions


@dataclass(eq=False)
class EventTable:
    """Featurized events as columns: one row per event, visit steps and
    procedure categories in CSR form. Event i's steps are rows
    step_ptr[i]:step_ptr[i+1] of `day_offset`; step k's category indices
    are indices[idx_ptr[k]:idx_ptr[k+1]], and event i's index-stay
    procedure categories are proc_ccs[proc_ptr[i]:proc_ptr[i+1]]."""

    event_id: np.ndarray
    beneficiary_id: np.ndarray
    readmit_label: np.ndarray
    mortality_label: np.ndarray
    mortality_excluded: np.ndarray
    z: np.ndarray
    step_ptr: np.ndarray
    day_offset: np.ndarray
    idx_ptr: np.ndarray
    indices: np.ndarray
    age_range: np.ndarray
    gender: np.ndarray
    race: np.ndarray
    medicare_status: np.ndarray
    charlson_band: np.ndarray
    proc_ptr: np.ndarray
    proc_ccs: np.ndarray

    def __len__(self) -> int:
        return len(self.event_id)

    def save(self, path: Path) -> None:
        write_npz(path, {f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def load(cls, path: Path) -> "EventTable":
        with np.load(path, allow_pickle=False) as npz:
            return cls(**{f.name: npz[f.name] for f in fields(cls)})

    def label_for(self, task: str) -> np.ndarray:
        if task == "readmission":
            return self.readmit_label
        if task == "mortality":
            return self.mortality_label
        raise ValidationError(f"unknown task {task!r}")

    def select(self, mask: np.ndarray) -> "EventTable":
        """The rows where `mask` holds, in order."""
        rows = np.flatnonzero(mask)
        step_ptr, step_rows = _csr_take(self.step_ptr, rows)
        idx_ptr, idx_rows = _csr_take(self.idx_ptr, step_rows)
        proc_ptr, proc_rows = _csr_take(self.proc_ptr, rows)
        return EventTable(
            **{f.name: getattr(self, f.name)[rows] for f in fields(self) if f.name not in _CSR_COLUMNS},
            step_ptr=step_ptr,
            day_offset=self.day_offset[step_rows],
            idx_ptr=idx_ptr,
            indices=self.indices[idx_rows],
            proc_ptr=proc_ptr,
            proc_ccs=self.proc_ccs[proc_rows],
        )

    def step_lists(self) -> list[list[list[int]]]:
        """Per event, per step, the category indices: the model's input."""
        flat = self.indices.tolist()
        idx_ptr = self.idx_ptr.tolist()
        steps = [flat[idx_ptr[k] : idx_ptr[k + 1]] for k in range(len(idx_ptr) - 1)]
        step_ptr = self.step_ptr.tolist()
        return [steps[step_ptr[i] : step_ptr[i + 1]] for i in range(len(self))]

    def proc_ccs_membership(self, n_proc_columns: int) -> np.ndarray:
        """(events, n_proc_columns) bool: whether each procedure category
        occurs in each event's index stay."""
        member = np.zeros((len(self), n_proc_columns), dtype=bool)
        member[np.repeat(np.arange(len(self)), np.diff(self.proc_ptr)), self.proc_ccs] = True
        return member
