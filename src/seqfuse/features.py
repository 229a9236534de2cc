"""Model inputs: visit sequences and the hand-crafted domain vector.

Each eligible index event becomes a sequence of multi-hot visit steps over
CCS category indices plus a fixed-width vector z of demographic, index-stay,
utilization, comorbidity, and hospital-acquired-condition features. The
layout of z is data-driven (see seqfuse/data/domain_spec.json): `_encode`
is the one place that turns a feature's values into its named block of z,
so the name list returned alongside the values always matches
positionally. String codes become categories and claim types through
`claims.code_table`, as in cohort.

`featurize_events` builds every event's steps and z in one pass of numpy
operations, not one event at a time, over the claim columns of
`generate/claims.npz` and the stays and events cohort adds to them
(`cohort/population.npz`, `cohort.POPULATION_MEMBERS`). It returns them as
an `EventTable`, one row per event with its visit steps in CSR form; the
featurize stage saves that table as `featurize/events.npz`, which every
later stage loads. The model reads a batch as rows of this table, straight
from its CSR columns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .claims import _ptr, _ranges, code_table, day_to_iso, read_npz, text_words, write_npz
from .cohort import LOOKBACK_DAYS, age_band
from .errors import ValidationError
from .knowledge import DomainFeature, KnowledgeBundle

__all__ = [
    "SequenceOptions",
    "EventTable",
    "SUBGROUP_KEYS",
    "featurize_events",
]


@dataclass(frozen=True)
class SequenceOptions:
    include_outpatient: bool = True
    exclude_index_step: bool = False
    lookback_days: int = 365


def _z_age_band(age: int) -> str:
    if age < 65:
        return "<65"
    if age >= 85:
        return "85+"
    low = (age // 5) * 5
    return f"{low}-{low + 4}"


def _encode(feature: DomainFeature, values, bundle: KnowledgeBundle) -> tuple[list[str], np.ndarray]:
    """One feature's column names in z, and its block of z: a row per
    value (a value of `flags` is its row of 0/1 flags, one per HAC rule).
    Unknown categorical values land in the feature's reserved (other) slot."""
    if feature.encoding in ("numeric", "binary"):
        column = np.asarray(values, dtype=np.float64 if feature.encoding == "numeric" else bool)
        return [feature.name], column.astype(np.float64).reshape(-1, 1)
    if feature.encoding == "flags":
        names = [f"{feature.name}[{rule.name}]" for rule in bundle.hac_rules]
        return names, np.asarray(values, dtype=np.float64).reshape(len(values), len(names))
    if feature.encoding == "one_hot":
        levels = feature.levels
        slots = [levels.index(str(value)) if str(value) in levels else len(levels) for value in values]
    elif feature.encoding == "one_hot_dx_ccs":
        levels = range(bundle.ccs.n_dx)
        slots = np.asarray(values, dtype=np.int64)
    else:
        raise ValidationError(f"feature {feature.name!r}: unknown encoding {feature.encoding!r}")
    block = np.zeros((len(slots), len(levels) + 1))
    block[np.arange(len(slots)), slots] = 1.0
    return [f"{feature.name}={level}" for level in (*levels, "(other)")], block


def charlson_band(charlson: int) -> str:
    if charlson <= 2:
        return "0-2"
    if charlson <= 5:
        return "3-5"
    return "6+"


def _pairs(keys: np.ndarray, row_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, r) for every i and every row r with row_keys[r] == keys[i],
    grouped by i; within a group, rows keep their order."""
    order = np.argsort(row_keys, kind="stable")
    sorted_keys = row_keys[order]
    lo = np.searchsorted(sorted_keys, keys, "left")
    counts = np.searchsorted(sorted_keys, keys, "right") - lo
    _, positions = _ranges(lo, counts)
    return np.repeat(np.arange(len(keys)), counts), order[positions]


def _strings(values: np.ndarray, convert) -> np.ndarray:
    """`np.array([convert(v) for v in values], dtype=str)`, converting each
    distinct value once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([convert(v) for v in distinct.tolist()], dtype=np.str_)[inverse.reshape(-1)]


def _membership(cols, kind: str, dx_name: str, proc_name: str, dx_index, proc_index, width: int) -> np.ndarray:
    """(rows of `kind`, width) bool: which category indices each row's dx
    and proc codes fall in."""
    member = np.zeros((len(cols[f"{kind}.{dx_name}_ptr"]) - 1, width), dtype=bool)
    for name, index in ((dx_name, dx_index), (proc_name, proc_index)):
        lengths = np.diff(cols[f"{kind}.{name}_ptr"])
        member[np.repeat(np.arange(len(lengths)), lengths), index[cols[f"{kind}.{name}"]]] = True
    return member


def featurize_events(
    cols: dict[str, np.ndarray],
    bundle: KnowledgeBundle,
    opts: SequenceOptions = SequenceOptions(),
) -> tuple[EventTable, list[str]]:
    """The visit steps, z, labels and subgroup attributes of every eligible
    event in `cols` (the claim columns with the members of
    `cohort.POPULATION_MEMBERS`), in event order, as one `EventTable`; and
    the names of z.

    An event's steps are the stays and, with `include_outpatient`, the
    outpatient and ED claims that carry a code, admitted in
    [index admit - lookback_days, index admit); each step is its sorted
    distinct category indices. Steps order by day, then by record id
    string; the index stay is the last step unless `exclude_index_step`.
    An event left with no step is dropped. Utilization counts cover the
    `LOOKBACK_DAYS` (12 months) before the index admission, and the
    Charlson index pools the dx codes of claims admitted in that window or
    on the index day with the index stay's: `lookback_days` sets only the
    window of the steps.
    """
    ccs = bundle.ccs
    width = ccs.input_dim

    claim_type = cols["claim.claim_type"]
    outpatient = code_table(cols, claim_type, lambda word: word == "outpatient")[claim_type]
    ed = code_table(cols, claim_type, lambda word: word == "ed")[claim_type]
    dx_codes = np.concatenate([cols[name] for name in ("claim.dx_codes", "stay.all_dx", "stay.principal_dx")])
    dx_index = code_table(cols, dx_codes, ccs.dx_category, np.int64)
    proc_codes = np.concatenate([cols["claim.proc_codes"], cols["stay.all_proc"]])
    proc_index = code_table(cols, proc_codes, ccs.proc_index, np.int64)
    stay_member = _membership(cols, "stay", "all_dx", "all_proc", dx_index, proc_index, width)
    claim_member = _membership(cols, "claim", "dx_codes", "proc_codes", dx_index, proc_index, width)
    stay_ben, claim_ben = cols["stay.beneficiary_id"], cols["claim.beneficiary_id"]
    stay_admit = cols["stay.admit_date"].astype(np.int64)
    claim_admit = cols["claim.admit_date"].astype(np.int64)

    # Visit steps. Records are the stays, then the claims, with their
    # category sets as CSR; string codes compare as the ids do.
    n_stays = len(stay_ben)
    rec_rows, rec_idx = np.nonzero(np.concatenate([stay_member, claim_member]))
    rec_ptr = _ptr(np.bincount(rec_rows, minlength=n_stays + len(claim_ben)))
    rec_admit = np.concatenate([stay_admit, claim_admit])
    rec_id = np.concatenate([cols["stay.stay_id"], cols["claim.claim_id"]])
    visits = np.arange(n_stays)
    if opts.include_outpatient:
        visits = np.concatenate([visits, n_stays + np.flatnonzero((outpatient | ed) & claim_member.any(axis=1))])
    events = np.flatnonzero(cols["event.eligible"])
    stay = cols["event.stay"][events]
    admit = stay_admit[stay]
    ev, rec = _pairs(stay_ben[stay], np.concatenate([stay_ben, claim_ben])[visits])
    rec = visits[rec]
    day = rec_admit[rec]
    window = (admit[ev] - opts.lookback_days <= day) & (day < admit[ev])
    ev, rec = ev[window], rec[window]
    if not opts.exclude_index_step:
        ev = np.concatenate([ev, np.arange(len(events))])
        rec = np.concatenate([rec, stay])
    # Every history step is admitted before the index day, so the index
    # step sorts last.
    order = np.lexsort((rec_id[rec], rec_admit[rec], ev))
    ev, rec = ev[order], rec[order]
    n_steps = np.bincount(ev, minlength=len(events))
    idx_ptr, positions = _csr_take(rec_ptr, rec)
    steps = {
        "step_ptr": _ptr(n_steps[n_steps > 0]),
        "day_offset": rec_admit[rec] - admit[ev],
        "idx_ptr": idx_ptr,
        "indices": rec_idx[positions],
    }

    # z, over the events that kept a step.
    events, stay, admit = events[n_steps > 0], stay[n_steps > 0], admit[n_steps > 0]
    n = len(events)
    ben = stay_ben[stay]
    ben_row = np.searchsorted(cols["beneficiary.beneficiary_id"], ben)
    ev, other = _pairs(ben, stay_ben)
    day = stay_admit[other]
    n_inpatient = np.bincount(ev[(admit[ev] - LOOKBACK_DAYS <= day) & (day < admit[ev])], minlength=n)
    ev, claim = _pairs(ben, claim_ben)
    day = claim_admit[claim]
    past = (admit[ev] - LOOKBACK_DAYS <= day) & (day < admit[ev])
    n_outpatient = np.bincount(ev[past & outpatient[claim]], minlength=n)
    n_ed = np.bincount(ev[past & ed[claim]], minlength=n)
    dx_member, proc_member = stay_member[stay, : ccs.n_dx_columns], stay_member[stay, ccs.n_dx_columns :]
    pooled = past | (day == admit[ev])
    code_ptr, positions = _csr_take(cols["claim.dx_codes_ptr"], claim[pooled])
    comorbid = dx_member.copy()
    comorbid[np.repeat(ev[pooled], np.diff(code_ptr)), dx_index[cols["claim.dx_codes"][positions]]] = True
    weights = np.array([bundle.charlson_weights.get(cat, 0) for cat in range(ccs.n_dx_columns)], dtype=np.int64)
    charlson = comorbid.astype(np.int64) @ weights
    flags = np.zeros((n, len(bundle.hac_rules)), dtype=np.int64)
    for k, rule in enumerate(bundle.hac_rules):
        dx_cats = [cat for cat in sorted(rule.dx_ccs) if 0 <= cat < ccs.n_dx_columns]
        proc_cats = [cat for cat in sorted(rule.proc_ccs) if 0 <= cat < ccs.n_proc_columns]
        flags[:, k] = dx_member[:, dx_cats].any(axis=1) | proc_member[:, proc_cats].any(axis=1)

    # Per feature of the spec: its value per event, and how a distinct value
    # converts to what `_encode` takes (None: the values go as they are).
    coded = {name: cols[f"beneficiary.{name}"][ben_row] for name in ("gender", "race", "medicare_status")}
    stay_text = ("admission_type", "admission_source", "discharge_disposition", "drg")
    coded.update({name: cols[f"stay.{name}"][stay] for name in stay_text})
    word = text_words(cols, np.concatenate([ben, *coded.values()])).__getitem__
    age = cols["event.age"][events]
    raw = {name: (values, word) for name, values in coded.items()}
    raw.update(
        {
            "age_range": (age, _z_age_band),
            "dual_eligible": (cols["beneficiary.dual_eligible"][ben_row], None),
            "length_of_stay": (cols["stay.discharge_date"][stay] - cols["stay.admit_date"][stay], None),
            "discharge_dx_ccs": (dx_index[cols["stay.principal_dx"][stay]], None),
            "n_dx_codes_index": (np.diff(cols["stay.all_dx_ptr"])[stay], None),
            "inpatient_admissions_12m": (n_inpatient, None),
            "outpatient_visits_12m": (n_outpatient, None),
            "ed_visits_12m": (n_ed, None),
            "charlson_index": (charlson, None),
            "hac_flags": (flags, None),
        }
    )
    z_names, blocks = [], []
    for feature in bundle.domain_spec:
        if feature.name not in raw:
            raise ValidationError(f"domain spec references unknown feature {feature.name!r}")
        values, convert = raw[feature.name]
        if convert is None:
            names, block = _encode(feature, values, bundle)
        else:  # each distinct value converts and encodes once
            distinct, inverse = np.unique(values, return_inverse=True)
            names, block = _encode(feature, [convert(v) for v in distinct.tolist()], bundle)
            block = block[inverse.reshape(-1)]
        z_names += names
        blocks.append(block)
    proc_rows, proc_cats = np.nonzero(proc_member)
    return EventTable(
        event_id=np.array([f"{word(b)}@{day_to_iso(d)}" for b, d in zip(ben.tolist(), admit.tolist())], dtype=np.str_),
        beneficiary_id=_strings(ben, word),
        **{name: cols[f"event.{name}"][events] for name in ("readmit_label", "mortality_label", "mortality_excluded")},
        z=np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0)),
        **steps,
        age_range=_strings(age, age_band),
        **{name: _strings(coded[name], word) for name in ("gender", "race", "medicare_status")},
        charlson_band=_strings(charlson, charlson_band),
        proc_ptr=_ptr(np.bincount(proc_rows, minlength=n)),
        proc_ccs=proc_cats.astype(np.int64),
    ), z_names


# --- columnar form ------------------------------------------------------------

SUBGROUP_KEYS = ("age_range", "gender", "race", "medicare_status", "charlson_band")
# EventTable columns indexed by step, index or procedure rather than by event.
_CSR_COLUMNS = ("step_ptr", "day_offset", "idx_ptr", "indices", "proc_ptr", "proc_ccs")


def _csr_take(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pointer array of CSR rows `rows`, and the positions of their
    elements in the original value array."""
    return _ranges(ptr[rows], ptr[rows + 1] - ptr[rows])


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
        arrays = read_npz(path)
        return cls(**{f.name: arrays[f.name] for f in fields(cls)})

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

    def proc_ccs_membership(self, n_proc_columns: int) -> np.ndarray:
        """(events, n_proc_columns) bool: whether each procedure category
        occurs in each event's index stay."""
        member = np.zeros((len(self), n_proc_columns), dtype=bool)
        member[np.repeat(np.arange(len(self)), np.diff(self.proc_ptr)), self.proc_ccs] = True
        return member
