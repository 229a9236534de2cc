"""Model inputs: visit sequences and the hand-crafted domain vector.

Each eligible index event becomes a sequence of multi-hot visit steps over
CCS category indices plus a fixed-width vector z of demographic, index-stay,
utilization, comorbidity, and hospital-acquired-condition features. z is
laid out once, in `featurize_events`, as a list of named blocks whose
one-hot levels are the vocabularies the package already names: the enum
tuples of `claims` that `check_claim_columns` enforces, the acute DRGs,
the CCS map's diagnosis categories and the HAC rules. Each block carries
its own column names, so the names always match z positionally. String
codes become categories, claim types and one-hot slots through
`claims.code_table`, as in cohort.

`featurize_events` builds every event's steps and z in one pass of numpy
operations, not one event at a time, over the claim columns of
`generate/claims.npz` and the stays and events cohort adds to them
(`cohort/population.npz`, `cohort.POPULATION_MEMBERS`). It returns an
`EventTable`: a row per event with its patient, admission day, labels, z and
CSR visit steps, which featurize saves as `featurize/events.npz` for every
later stage. Subgroups are not stored; `EventTable.subgroups` reads them back
from z. The model reads a batch as rows of this table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .claims import (
    ADMISSION_SOURCES,
    ADMISSION_TYPES,
    DISPOSITIONS,
    GENDERS,
    MEDICARE_STATUSES,
    RACES,
    _ptr,
    _ranges,
    code_table,
    event_id,
    read_npz,
    text_words,
    write_npz,
)
from .cohort import AGE_BANDS, LOOKBACK_DAYS, age_band_index
from .errors import ValidationError, require_names
from .knowledge import KnowledgeBundle

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


# z's age block: the bands of `cohort.age_band_index`, labelled as z names them.
_Z_AGE_BANDS = ("<65", "65-69", "70-74", "75-79", "80-84", "85+")
# `EventTable.subgroups` labels these blocks' slots, then charlson_index's band.
_SUBGROUP_LABELS = dict(age_range=AGE_BANDS[1:], gender=GENDERS, race=RACES, medicare_status=MEDICARE_STATUSES)
SUBGROUP_KEYS = (*_SUBGROUP_LABELS, "charlson_band")


def _one_hot(name: str, levels, slots: np.ndarray) -> tuple[list[str], np.ndarray]:
    """A one-hot block of z, a row per slot, and its column names: one per
    level, then the reserved (other) slot `len(levels)`."""
    block = np.zeros((len(slots), len(levels) + 1))
    block[np.arange(len(slots)), slots] = 1.0
    return [f"{name}={level}" for level in (*levels, "(other)")], block


def _text_one_hot(cols, name: str, codes: np.ndarray, levels: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """The one-hot block of a text column's codes; a word outside `levels`
    (or None) lands in (other)."""
    slot = code_table(cols, codes, lambda word: levels.index(word) if word in levels else len(levels), np.int64)
    return _one_hot(name, levels, slot[codes])


def _column(name: str, values) -> tuple[list[str], np.ndarray]:
    return [name], np.asarray(values, dtype=np.float64).reshape(-1, 1)


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
    """The visit steps, z and labels of every eligible event in `cols`
    (the claim columns with the members of `cohort.POPULATION_MEMBERS`), in
    event order, as one `EventTable`; and the names of z.

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

    # z, block by block.
    blocks = [
        _one_hot("age_range", _Z_AGE_BANDS, age_band_index(cols["event.age"][events])),
        _text_one_hot(cols, "gender", cols["beneficiary.gender"][ben_row], GENDERS),
        _text_one_hot(cols, "race", cols["beneficiary.race"][ben_row], RACES),
        _column("dual_eligible", cols["beneficiary.dual_eligible"][ben_row]),
        _text_one_hot(cols, "medicare_status", cols["beneficiary.medicare_status"][ben_row], MEDICARE_STATUSES),
        _column("length_of_stay", cols["stay.discharge_date"][stay] - cols["stay.admit_date"][stay]),
        _text_one_hot(cols, "admission_type", cols["stay.admission_type"][stay], ADMISSION_TYPES),
        _text_one_hot(cols, "admission_source", cols["stay.admission_source"][stay], ADMISSION_SOURCES),
        _text_one_hot(cols, "discharge_disposition", cols["stay.discharge_disposition"][stay], DISPOSITIONS),
        _text_one_hot(cols, "drg", cols["stay.drg"][stay], tuple(sorted(bundle.acute_drgs))),
        _one_hot("discharge_dx_ccs", range(ccs.n_dx), dx_index[cols["stay.principal_dx"][stay]]),
        _column("n_dx_codes_index", np.diff(cols["stay.all_dx_ptr"])[stay]),
        _column("inpatient_admissions_12m", n_inpatient),
        _column("outpatient_visits_12m", n_outpatient),
        _column("ed_visits_12m", n_ed),
        _column("charlson_index", charlson),
        ([f"hac_flags[{rule.name}]" for rule in bundle.hac_rules], flags.astype(np.float64)),
    ]
    proc_rows, proc_cats = np.nonzero(proc_member)
    return EventTable(
        beneficiary_id=_strings(ben, text_words(cols, ben).__getitem__),
        admit=admit.astype(np.int32),
        **{name: cols[f"event.{name}"][events] for name in ("readmit_label", "mortality_label", "mortality_excluded")},
        z=np.concatenate([block for _, block in blocks], axis=1),
        **steps,
        proc_ptr=_ptr(np.bincount(proc_rows, minlength=n)),
        proc_ccs=proc_cats.astype(np.int64),
    ), [name for names, _ in blocks for name in names]


# --- columnar form ------------------------------------------------------------

# EventTable columns indexed by step, index or procedure rather than by event.
_CSR_COLUMNS = ("step_ptr", "day_offset", "idx_ptr", "indices", "proc_ptr", "proc_ccs")


def _narrowest(values: np.ndarray) -> np.ndarray:
    """Integer `values` as the narrowest integer dtype that holds them all."""
    lo, hi = (values.min(), values.max()) if values.size else (0, 0)
    return values.astype(np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi)))


def _csr_take(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pointer array of CSR rows `rows`, and the positions of their
    elements in the original value array."""
    return _ranges(ptr[rows], ptr[rows + 1] - ptr[rows])


@dataclass(eq=False)
class EventTable:
    """Featurized events as columns, one row per event: the index stay its
    patient entered on day `admit`. Event i's CSR steps are rows
    step_ptr[i]:step_ptr[i+1] of `day_offset`; step k's category indices
    are indices[idx_ptr[k]:idx_ptr[k+1]], and event i's index-stay
    procedure categories are proc_ccs[proc_ptr[i]:proc_ptr[i+1]]."""

    beneficiary_id: np.ndarray
    admit: np.ndarray
    readmit_label: np.ndarray
    mortality_label: np.ndarray
    mortality_excluded: np.ndarray
    z: np.ndarray
    step_ptr: np.ndarray
    day_offset: np.ndarray
    idx_ptr: np.ndarray
    indices: np.ndarray
    proc_ptr: np.ndarray
    proc_ccs: np.ndarray

    def __len__(self) -> int:
        return len(self.beneficiary_id)

    def save(self, path: Path) -> None:
        """Writes the columns with `write_npz`; z (indicators and counts)
        and the CSR columns go at the narrowest integer dtype that holds
        each exactly, and `load` widens them back to float64 and int64."""
        with np.errstate(invalid="ignore"):
            z = self.z.astype(np.int64)
        if not np.array_equal(z, self.z):
            raise ValidationError(f"{path}: z holds values an integer does not store exactly")
        columns = {f.name: getattr(self, f.name) for f in fields(self)} | {"z": z}
        write_npz(path, columns | {name: _narrowest(columns[name]) for name in ("z", *_CSR_COLUMNS)})

    @classmethod
    def load(cls, path: Path) -> "EventTable":
        """What `save` wrote; other members, as an older featurize's, raise PrerequisiteError."""
        arrays = read_npz(path)
        require_names(str(path), arrays.keys(), {f.name for f in fields(cls)}, "featurize")
        wide = {name: arrays[name].astype(np.int64) for name in _CSR_COLUMNS}
        return cls(**arrays | wide | {"z": arrays["z"].astype(np.float64)})

    def event_ids(self) -> list[str]:
        return [event_id(b, a) for b, a in zip(self.beneficiary_id.tolist(), self.admit.tolist())]

    def subgroups(self, z_names: list[str]) -> dict[str, np.ndarray]:
        """Each event's group in every `SUBGROUP_KEYS` partition, read back
        from the raw z that `z_names` names."""
        groups = {}
        for name, labels in _SUBGROUP_LABELS.items():
            groups[name] = np.array(labels)[self.z[:, [n.startswith(f"{name}=") for n in z_names]].argmax(axis=1)]
        groups["charlson_band"] = _strings(self.z[:, z_names.index("charlson_index")], charlson_band)
        return groups

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
