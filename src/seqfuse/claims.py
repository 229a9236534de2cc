"""Claim and beneficiary records, their columnar archive, and the
synthetic population.

Dates are integer day numbers (days since 1970-01-01) everywhere; the
ground-truth CSV carries ISO strings. The records are the vocabulary for
hand-built claims; the archive `generate/claims.npz` holds the same fields
as the columns of `CLAIM_COLUMNS`, which `check_claim_columns` checks as
the record validators would and `ingest_claims` reads back.

The synthetic generator plants a known logistic outcome signal per patient
and reports it back so tests can check that the cohort builder and feature
engine recover exactly what was planted. It is a numpy kernel: the
patients of a chunk step side by side, each drawing from its own stream
(`rng.Xoshiro256Lanes`) exactly the values the one-patient-at-a-time
reference generator in `tests/reference.py` draws, and their claims go
straight into the archive's columns without record objects.
"""

from __future__ import annotations

import functools
import math
import operator
import zipfile
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .knowledge import load_charlson_weights
from .rng import Xoshiro256Lanes, derive_seeds

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

CLAIM_TYPES = ("inpatient", "outpatient", "ed")
ADMISSION_TYPES = ("emergent", "urgent", "elective")
ADMISSION_SOURCES = ("community", "transfer", "snf")
DISPOSITIONS = ("home", "home_health", "snf", "transfer_acute", "hospice", "ama", "expired")
GENDERS = ("male", "female")
RACES = ("unknown", "white", "black", "other", "asian", "hispanic", "north_american_native")
MEDICARE_STATUSES = ("aged_no_esrd", "aged_esrd", "disabled", "esrd_only")

# Statuses that waive the 65+ age requirement for index events.
ESRD_STATUSES = frozenset({"aged_esrd", "esrd_only"})


# Event ids and the ground truth convert many dates of a few distinct days;
# the caches are bounded all the same.
@functools.lru_cache(maxsize=1 << 16)
def iso_to_day(text: str) -> int:
    return date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL


@functools.lru_cache(maxsize=1 << 16)
def day_to_iso(day: int) -> str:
    return date.fromordinal(day + _EPOCH_ORDINAL).isoformat()


# The text fields of each record, each an int32 code column of the
# archive; `validate` holds them to str (or None).
_BEN_TEXT = ("beneficiary_id", "gender", "race", "medicare_status")
_CLAIM_TEXT = (
    "claim_id",
    "beneficiary_id",
    "claim_type",
    "drg",
    "admission_type",
    "admission_source",
    "discharge_disposition",
    "facility_id",
)
_CLAIM_CODES = ("dx_codes", "proc_codes")
# The claim fields only an inpatient claim may fill.
_INPATIENT_ONLY = ("drg", "admission_type", "admission_source", "discharge_disposition")
_STR = {str}
_STR_OR_NONE = {str, type(None)}


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    beneficiary_id: str
    claim_type: str
    admit_date: int
    discharge_date: int
    dx_codes: tuple[str, ...]
    proc_codes: tuple[str, ...] = ()
    drg: str | None = None
    admission_type: str | None = None
    admission_source: str | None = None
    discharge_disposition: str | None = None
    facility_id: str | None = None

    def validate(self) -> None:
        if not self.claim_id or not self.beneficiary_id:
            raise ValidationError("claim_id and beneficiary_id must be non-empty")
        # Type checks for the text fields that the membership checks below
        # leave open (written as sets of types to keep generation fast).
        if not set(map(type, (self.claim_id, self.beneficiary_id, *self.dx_codes, *self.proc_codes))) <= _STR:
            raise ValidationError(f"claim {self.claim_id!r}: claim_id, beneficiary_id, dx_codes and proc_codes must be strings")
        if not {type(self.drg), type(self.facility_id)} <= _STR_OR_NONE:
            raise ValidationError(f"claim {self.claim_id!r}: drg and facility_id must be strings")
        if self.claim_type not in CLAIM_TYPES:
            raise ValidationError(f"claim {self.claim_id}: claim_type {self.claim_type!r} not in {CLAIM_TYPES}")
        if self.admit_date > self.discharge_date:
            raise ValidationError(f"claim {self.claim_id}: admit_date after discharge_date")
        if self.claim_type == "inpatient":
            if not self.dx_codes:
                raise ValidationError(f"claim {self.claim_id}: inpatient claim needs at least one dx code")
            if self.admission_type not in ADMISSION_TYPES:
                raise ValidationError(f"claim {self.claim_id}: admission_type {self.admission_type!r} invalid")
            if self.admission_source not in ADMISSION_SOURCES:
                raise ValidationError(f"claim {self.claim_id}: admission_source {self.admission_source!r} invalid")
            if self.discharge_disposition not in DISPOSITIONS:
                raise ValidationError(
                    f"claim {self.claim_id}: discharge_disposition {self.discharge_disposition!r} invalid"
                )
            if not self.drg:
                raise ValidationError(f"claim {self.claim_id}: inpatient claim needs a DRG")
            if not self.facility_id:
                raise ValidationError(f"claim {self.claim_id}: inpatient claim needs a facility_id")
        else:
            # Outpatient and ED claims are point events with no admission fields.
            if self.admit_date != self.discharge_date:
                raise ValidationError(f"claim {self.claim_id}: {self.claim_type} claim must be a single-day event")
            for name in _INPATIENT_ONLY:
                if getattr(self, name) is not None:
                    raise ValidationError(f"claim {self.claim_id}: {name} only applies to inpatient claims")

    @property
    def principal_dx(self) -> str:
        return self.dx_codes[0]


@dataclass(frozen=True)
class Beneficiary:
    beneficiary_id: str
    birth_date: int
    gender: str
    race: str
    dual_eligible: bool
    medicare_status: str
    enrollment_intervals: tuple[tuple[int, int], ...]
    death_date: int | None = None

    def validate(self) -> None:
        if not self.beneficiary_id or not isinstance(self.beneficiary_id, str):
            raise ValidationError("beneficiary_id must be a non-empty string")
        if self.gender not in GENDERS:
            raise ValidationError(f"beneficiary {self.beneficiary_id}: gender {self.gender!r} invalid")
        if self.race not in RACES:
            raise ValidationError(f"beneficiary {self.beneficiary_id}: race {self.race!r} invalid")
        if self.medicare_status not in MEDICARE_STATUSES:
            raise ValidationError(f"beneficiary {self.beneficiary_id}: medicare_status {self.medicare_status!r} invalid")
        if not self.enrollment_intervals:
            raise ValidationError(f"beneficiary {self.beneficiary_id}: needs at least one enrollment interval")
        prev_end = None
        for start, end in self.enrollment_intervals:
            if start > end:
                raise ValidationError(f"beneficiary {self.beneficiary_id}: enrollment interval start after end")
            if prev_end is not None and start <= prev_end:
                raise ValidationError(f"beneficiary {self.beneficiary_id}: enrollment intervals overlap or are unsorted")
            prev_end = end
        if self.death_date is not None and self.death_date < self.birth_date:
            raise ValidationError(f"beneficiary {self.beneficiary_id}: death before birth")


def write_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """`np.savez` without its clock: uncompressed `.npy` members, no
    pickles, and a fixed member timestamp, so equal arrays give equal
    bytes. (`np.savez` stamps each member with the current time, which
    would break byte-identical reruns.)"""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for key, value in arrays.items():
            info = zipfile.ZipInfo(f"{key}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asanyarray(value), allow_pickle=False)


def _ptr(lengths) -> np.ndarray:
    """CSR row pointers for rows of the given lengths."""
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR pointers for runs of the given lengths, and the positions
    starts[i], ..., starts[i] + lengths[i] - 1 of all runs in order."""
    ptr = _ptr(lengths)
    return ptr, np.repeat(starts - ptr[:-1], lengths) + np.arange(ptr[-1], dtype=np.int64)


# The arrays of `generate/claims.npz`, in the archive's order: {name: (dtype, ndim)}.
# Every string is an int32 code (-1 for None) into one table of the distinct
# strings in sorted order, so codes compare as their strings do; the table
# is UTF-8 bytes (`text`) with CSR offsets (`text_ptr`), which `text_words`
# decodes. Dates are int32 day numbers, and enrollment intervals and code
# lists are CSR rows. Beneficiaries are sorted by id, and claims by
# (beneficiary_id, admit_date, discharge_date, claim_id).
CLAIM_COLUMNS = {
    "beneficiary.birth_date": (np.int32, 1),
    "beneficiary.dual_eligible": (np.bool_, 1),
    "beneficiary.has_death_date": (np.bool_, 1),
    "beneficiary.death_date": (np.int32, 1),
    "beneficiary.enrollment_ptr": (np.int64, 1),
    "beneficiary.enrollment": (np.int32, 2),
    **{f"claim.{name}": (np.int32, 1) for name in ("admit_date", "discharge_date")},
    **{f"claim.{name}_ptr": (np.int64, 1) for name in _CLAIM_CODES},
    **{f"beneficiary.{name}": (np.int32, 1) for name in _BEN_TEXT},
    **{f"claim.{name}": (np.int32, 1) for name in (*_CLAIM_TEXT, *_CLAIM_CODES)},
    "text_ptr": (np.int64, 1),
    "text": (np.uint8, 1),
}


def text_words(cols, codes) -> dict[int, str | None]:
    """{code: string} for the given codes of the archive's string table;
    code -1 reads None."""
    blob = cols["text"].tobytes()
    ptr = cols["text_ptr"].tolist()
    return {
        code: None if code < 0 else blob[ptr[code] : ptr[code + 1]].decode("utf-8", "surrogatepass")
        for code in np.unique(codes).tolist()
    }


# The text columns, each an int32 code per row (per code, for the code
# lists); only the claim fields of `_NULLABLE` may hold -1 (None).
_TEXT_COLUMNS = (
    *(f"beneficiary.{name}" for name in _BEN_TEXT),
    *(f"claim.{name}" for name in _CLAIM_TEXT + _CLAIM_CODES),
)
_NULLABLE = (*(f"claim.{name}" for name in _INPATIENT_ONLY), "claim.facility_id")
# The CSR value arrays; each has a `_ptr` array.
_CSR = ("beneficiary.enrollment", "claim.dx_codes", "claim.proc_codes", "text")


def ingest_claims(path: str | Path) -> dict[str, np.ndarray]:
    """Reads the claim columns of an archive and checks them with
    `check_claim_columns`. Any failed check rejects the whole file with a
    ValidationError."""
    try:
        with zipfile.ZipFile(path) as archive:
            cols = {}
            for info in archive.infolist():
                with archive.open(info) as fh:
                    cols[info.filename.removesuffix(".npy")] = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: not a NumPy archive of claim columns: {exc}") from exc
    check_claim_columns(cols, str(path))
    return cols


def check_claim_columns(cols: dict[str, np.ndarray], source: str) -> None:
    """Checks claim columns as generate writes them and cohort reads them:
    the members, dtypes, shapes and CSR pointers; the string table and
    every code into it; each record as `validate` would; and unique ids,
    claims of known beneficiaries only, and the sort order of
    `CLAIM_COLUMNS`. Raises ValidationError, naming `source` for missing
    or unknown members."""
    missing, unknown = sorted(CLAIM_COLUMNS.keys() - cols.keys()), sorted(cols.keys() - CLAIM_COLUMNS.keys())
    if missing or unknown:
        raise ValidationError(f"{source}: missing members {missing}, unknown members {unknown}")
    for name, (dtype, ndim) in CLAIM_COLUMNS.items():
        if cols[name].dtype != dtype or cols[name].ndim != ndim:
            raise ValidationError(f"{name} must be {ndim}-D {np.dtype(dtype)}, not {cols[name].ndim}-D {cols[name].dtype}")
    rows = {"beneficiary": len(cols["beneficiary.beneficiary_id"]), "claim": len(cols["claim.claim_id"])}
    for name in CLAIM_COLUMNS:
        kind = name.split(".")[0]
        if name in _CSR:
            ptr = cols[f"{name}_ptr"]
            n_ptr = rows[kind] + 1 if kind in rows else max(len(ptr), 1)  # the table may hold any number of strings
            if len(ptr) != n_ptr or ptr[0] or ptr[-1] != len(cols[name]) or (np.diff(ptr) < 0).any():
                raise ValidationError(f"{name}_ptr is not a CSR pointer array over {name}")
        elif kind in rows and not name.endswith("_ptr") and len(cols[name]) != rows[kind]:
            raise ValidationError(f"{name} holds {len(cols[name])} rows, not {rows[kind]}")
    if cols["beneficiary.enrollment"].shape[1] != 2:
        raise ValidationError("beneficiary.enrollment must hold (start, end) pairs")
    blob, ptr = cols["text"].tobytes(), cols["text_ptr"].tolist()
    try:
        text = blob.decode("utf-8", "surrogatepass")
        if len(text) == len(blob):  # ASCII: the byte offsets are character offsets
            words = [text[start:end] for start, end in zip(ptr, ptr[1:])]
        else:
            words = [blob[start:end].decode("utf-8", "surrogatepass") for start, end in zip(ptr, ptr[1:])]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"the string table is not UTF-8: {exc}") from exc
    if any(map(operator.ge, words, words[1:])):
        raise ValidationError("the string table is not sorted and distinct")
    for name in _TEXT_COLUMNS:
        codes, low = cols[name], -1 if name in _NULLABLE else 0
        if len(codes) and not (low <= codes.min() and codes.max() < len(words)):
            raise ValidationError(f"{name} holds codes outside the string table")

    def code_of(*strings: str) -> list[int]:
        found = [bisect_left(words, s) for s in strings]
        return [code for code, s in zip(found, strings) if code < len(words) and words[code] == s]

    def check(kind: str, bad: np.ndarray, message: str, owner=None) -> None:
        """Raises naming the first record of `kind` with a `bad` row (or
        the record `owner` maps the first bad row to)."""
        if bad.any():
            row = int(np.argmax(bad))
            record = row if owner is None else owner[row]
            raise ValidationError(f"{kind} {words[cols[f'{kind}.{kind}_id'][record]]!r}: {message}")

    def check_enum(kind: str, name: str, allowed: tuple[str, ...], rows=True) -> None:
        values = cols[f"{kind}.{name}"]
        bad = rows & ~np.isin(values, code_of(*allowed))
        if bad.any():
            value = values[np.argmax(bad)]
            check(kind, bad, f"{name} {words[value] if value >= 0 else None!r} invalid")

    ben_id, claim_id, claim_ben = cols["beneficiary.beneficiary_id"], cols["claim.claim_id"], cols["claim.beneficiary_id"]
    if np.isin(np.concatenate([ben_id, claim_id, claim_ben]), code_of("")).any():
        raise ValidationError("beneficiary_id and claim_id must be non-empty")
    for name, allowed in (("gender", GENDERS), ("race", RACES), ("medicare_status", MEDICARE_STATUSES)):
        check_enum("beneficiary", name, allowed)
    ptr, (start, end) = cols["beneficiary.enrollment_ptr"], cols["beneficiary.enrollment"].T
    check("beneficiary", np.diff(ptr) == 0, "needs at least one enrollment interval")
    owner = np.repeat(np.arange(rows["beneficiary"]), np.diff(ptr))
    check("beneficiary", start > end, "enrollment interval start after end", owner)
    overlap = np.r_[False, (owner[1:] == owner[:-1]) & (start[1:] <= end[:-1])]
    check("beneficiary", overlap, "enrollment intervals overlap or are unsorted", owner)
    death, birth = cols["beneficiary.death_date"], cols["beneficiary.birth_date"]
    check("beneficiary", cols["beneficiary.has_death_date"] & (death < birth), "death before birth")

    check_enum("claim", "claim_type", CLAIM_TYPES)
    admit, discharge = cols["claim.admit_date"], cols["claim.discharge_date"]
    check("claim", admit > discharge, "admit_date after discharge_date")
    inpatient = np.isin(cols["claim.claim_type"], code_of("inpatient"))
    check("claim", inpatient & (np.diff(cols["claim.dx_codes_ptr"]) == 0), "inpatient claim needs at least one dx code")
    for name, allowed in (
        ("admission_type", ADMISSION_TYPES),
        ("admission_source", ADMISSION_SOURCES),
        ("discharge_disposition", DISPOSITIONS),
    ):
        check_enum("claim", name, allowed, inpatient)
    for name in ("drg", "facility_id"):
        check("claim", inpatient & np.isin(cols[f"claim.{name}"], [-1, *code_of("")]), f"inpatient claim needs a {name}")
    check("claim", ~inpatient & (admit != discharge), "outpatient and ED claims must be single-day events")
    for name in _INPATIENT_ONLY:
        check("claim", ~inpatient & (cols[f"claim.{name}"] >= 0), f"{name} only applies to inpatient claims")

    for kind, ids in (("beneficiary", ben_id), ("claim", claim_id)):
        distinct, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise ValidationError(f"duplicate {kind}_id {words[distinct[np.argmax(counts > 1)]]!r}")
    orphans = sorted({words[code] for code in claim_ben[~np.isin(claim_ben, ben_id)].tolist()})
    if orphans:
        raise ValidationError(f"claims reference unknown beneficiaries: {orphans[:5]}")
    if (np.diff(ben_id) < 0).any():
        raise ValidationError("beneficiaries are not sorted by beneficiary_id")
    # Each claim's (beneficiary_id, admit_date, discharge_date, claim_id)
    # must be above the previous claim's.
    above, tied = np.zeros(max(len(claim_id) - 1, 0), dtype=bool), True
    for key in (claim_ben, admit, discharge, claim_id):
        above |= tied & (key[1:] > key[:-1])
        tied = tied & (key[1:] == key[:-1])
    if not above.all():
        raise ValidationError("claims are not sorted by (beneficiary_id, admit_date, discharge_date, claim_id)")


@dataclass(frozen=True)
class OutcomeSignal:
    """Logistic model used to plant an outcome: logit = intercept
    + sum(ccs_weights over present dx categories) + charlson_weight * Charlson
    + los_weight * LOS + ed_weight * ED visits in the prior 12 months."""

    intercept: float
    ccs_weights: dict[int, float] = field(default_factory=dict)
    charlson_weight: float = 0.0
    los_weight: float = 0.0
    ed_weight: float = 0.0

    def logit(self, ccs_present: set[int], charlson: int, los: int, ed_visits: int) -> float:
        value = self.intercept
        value += sum(w for cat, w in self.ccs_weights.items() if cat in ccs_present)
        value += self.charlson_weight * charlson
        value += self.los_weight * los
        value += self.ed_weight * ed_visits
        return value

    def to_json_obj(self) -> dict:
        return {
            "intercept": self.intercept,
            "ccs_weights": {str(k): v for k, v in sorted(self.ccs_weights.items())},
            "charlson_weight": self.charlson_weight,
            "los_weight": self.los_weight,
            "ed_weight": self.ed_weight,
        }


def default_signals() -> tuple[OutcomeSignal, OutcomeSignal]:
    """Demo outcome models. LOS and ED use are deliberately strong so that
    the hand-crafted vector carries information the bare code sequence
    cannot see when outpatient steps are excluded."""
    readmit = OutcomeSignal(
        intercept=-2.9,
        ccs_weights={1: 0.8, 12: 0.6},
        charlson_weight=0.15,
        los_weight=0.09,
        ed_weight=0.38,
    )
    mortality = OutcomeSignal(
        intercept=-3.4,
        ccs_weights={15: 1.3, 1: 0.5},
        charlson_weight=0.20,
        los_weight=0.07,
        ed_weight=0.15,
    )
    return readmit, mortality


# Probabilities of the rare structural variants the generator plants so the
# cohort builder has something to exclude, merge, and screen.
WRINKLE_RATES: dict[str, float] = {
    "under_65": 0.05,
    "esrd_given_under_65": 0.5,
    "enrollment_gap": 0.03,
    "long_stay": 0.01,
    "elective_anchor": 0.15,
    "acute_drg_given_elective": 0.5,
    "transfer_chain": 0.08,
    "expired_anchor": 0.01,
    "ama": 0.02,
    "hospice_given_mortality": 0.12,
    "planned_decoy": 0.07,
    "late_decoy": 0.10,
    "hac_code": 0.12,
    "late_death": 0.03,
}

_ACUTE_DX_CATS = (17, 18)
_MAINTENANCE_DX_CATS = (19, 20)
_PLANNED_PROC_CATS = (4, 5)
_GENERAL_PROC_CATS = (0, 1, 2, 3)
_HAC_DX_CATS = (21, 22, 23, 24, 25, 26, 27)
_HAC_PROC_CATS = (6, 8, 9, 10, 11)
_SYMPTOM_DX_CATS = (28, 29)
_ACUTE_DRGS = ("DRG001", "DRG002", "DRG003", "DRG004", "DRG005")
_OTHER_DRGS = ("DRG101", "DRG102", "DRG103", "DRG104", "DRG105")


@dataclass
class SyntheticConfig:
    n_patients: int
    seed: int
    dx_vocab: int = 90
    proc_vocab: int = 36
    mean_claims_per_patient: float = 6.0
    readmit_signal: OutcomeSignal = field(default_factory=lambda: default_signals()[0])
    mortality_signal: OutcomeSignal = field(default_factory=lambda: default_signals()[1])

    def validate(self) -> None:
        if self.n_patients <= 0:
            raise ValidationError("n_patients must be positive")
        # The bundled rule tables reference dx categories up to 29 and proc
        # categories up to 11, three codes per category.
        if self.dx_vocab < 90:
            raise ValidationError("dx_vocab must be at least 90 to cover the bundled rule tables")
        if self.proc_vocab < 36:
            raise ValidationError("proc_vocab must be at least 36 to cover the bundled rule tables")
        if self.mean_claims_per_patient <= 0:
            raise ValidationError("mean_claims_per_patient must be positive")
        for name in ("intercept", "charlson_weight", "los_weight", "ed_weight"):
            for signal in (self.readmit_signal, self.mortality_signal):
                if not math.isfinite(getattr(signal, name)):
                    raise ValidationError(f"signal field {name} must be finite")


@dataclass(frozen=True)
class GroundTruth:
    """Per planted index event: the labels and the exact generative state,
    kept for oracle checks. Only events that are eligible and clean for both
    outcome tasks get a row."""

    beneficiary_id: str
    index_admit_date: int
    index_discharge_date: int
    readmit_label: bool
    mortality_label: bool
    p_readmit: float
    p_mortality: float
    charlson: int
    los: int
    ed_visits_12m: int
    ccs_present: tuple[int, ...]


def write_ground_truth(path: str | Path, rows: list[GroundTruth]) -> None:
    lines = ["beneficiary_id,index_discharge_date,readmit_label,mortality_label"]
    for row in rows:
        lines.append(
            f"{row.beneficiary_id},{day_to_iso(row.index_discharge_date)},"
            f"{int(row.readmit_label)},{int(row.mortality_label)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_ground_truth(path: str | Path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = "beneficiary_id,index_discharge_date,readmit_label,mortality_label"
    if not lines or lines[0] != header:
        raise ValidationError(f"ground truth header must be {header!r}")
    rows = []
    for line in lines[1:]:
        bid, disch, r, m = line.split(",")
        rows.append(
            {
                "beneficiary_id": bid,
                "index_discharge_date": iso_to_day(disch),
                "readmit_label": bool(int(r)),
                "mortality_label": bool(int(m)),
            }
        )
    return rows


@dataclass
class SyntheticPopulation:
    """The generated claims as the columns of `CLAIM_COLUMNS`, the planted
    events' ground truth and the generator's summary."""

    columns: dict[str, np.ndarray]
    truth: list[GroundTruth]
    info: dict


# Patients generated side by side. A chunk's streams are one (patients,
# draws) uint64 block that grows `rng._BLOCK_DRAWS` draws at a time, as far
# as the chunk's hungriest patient needs, so memory is bounded whatever
# `n_patients` is.
_CHUNK_PATIENTS = 8192

# The generator's small vocabularies, each coded by position; -1 is None.
_DRGS = _ACUTE_DRGS + _OTHER_DRGS
_RACE_CUTS = (0.862, 0.952, 0.972, 0.985, 0.993, 0.998)
_RACE_DRAWN = np.array(
    [RACES.index(race) for race in ("white", "black", "hispanic", "asian", "other", "north_american_native", "unknown")]
)
# `_chronic_cat`'s runs of categories, (first, last) per branch: symptoms,
# then by the second uniform, weight-1 and weight-2 groups, 14, and 15-16.
_CHRONIC_RUNS = np.array([[28, 0, 10, 14, 15], [29, 9, 13, 14, 16]])
_AGED_NO_ESRD, _AGED_ESRD, _DISABLED, _ESRD_ONLY = map(MEDICARE_STATUSES.index, MEDICARE_STATUSES)
_MALE, _FEMALE = map(GENDERS.index, GENDERS)
_INPATIENT, _OUTPATIENT, _ED = map(CLAIM_TYPES.index, CLAIM_TYPES)
_EMERGENT, _URGENT, _ELECTIVE = map(ADMISSION_TYPES.index, ADMISSION_TYPES)
_COMMUNITY, _TRANSFER, _SNF_SOURCE = map(ADMISSION_SOURCES.index, ADMISSION_SOURCES)
_HOME, _HOME_HEALTH, _SNF, _TRANSFER_ACUTE, _HOSPICE, _AMA, _EXPIRED = map(DISPOSITIONS.index, DISPOSITIONS)
_VISIT_FIELDS = ("drg", "admission_type", "admission_source", "disposition", "facility")
_DX, _PROC = 0, 1
# A patient holds the anchor, at most three prior stays, a readmission or
# planned decoy, and a late decoy.
_MAX_SPANS = 8
_NO_DEATH = np.iinfo(np.int64).min
_N_DX_CATS = 1 + max(_ACUTE_DX_CATS + _MAINTENANCE_DX_CATS + _HAC_DX_CATS + _SYMPTOM_DX_CATS)


def _branch(u: np.ndarray, cuts: tuple[float, ...]) -> np.ndarray:
    """The index of the first cut each uniform is below (len(cuts) when
    none): the branch an if/elif chain on `u < cut` takes."""
    index = np.zeros(len(u), dtype=np.intp)
    for cut in cuts:
        index += u >= cut
    return index


class _Chunk:
    """One chunk of patients, generated as the scalar generator would
    generate each: every step below draws for the lanes (patients) that
    take it, from each lane's own stream, in the scalar order.

    Visits collect as flat arrays, one row per (lane, visit), and codes as
    flat (lane, key, kind, num) rows, both in creation order. A visit's dx
    and proc lists are the codes under its keys, in drawing order; `num` is
    the code's number (D0001 is dx 1). The functions the methods mirror
    (`_chronic_cat`, `_history_dx_codes`, `_free_span`, ...) are the scalar
    generator's, in `tests/reference.py`."""

    def __init__(self, patients: np.ndarray, cfg: SyntheticConfig):
        self.rng = Xoshiro256Lanes(derive_seeds(cfg.seed, "patient", patients))
        self.cfg = cfg
        self.patients = patients
        self.n = len(patients)
        self.every = np.arange(self.n)
        self.keys = 0
        self.visits: list[tuple[np.ndarray, ...]] = []
        self.codes: list[tuple[np.ndarray, ...]] = []
        self.span_start = np.zeros((self.n, _MAX_SPANS), dtype=np.int64)
        self.span_end = np.zeros((self.n, _MAX_SPANS), dtype=np.int64)
        self.n_spans = np.zeros(self.n, dtype=np.int64)

    def new_key(self) -> int:
        """A code key no list has used yet."""
        self.keys += 1
        return self.keys

    def flags(self, lanes: np.ndarray, rate: float) -> np.ndarray:
        """`random() < rate` for `lanes`, as a mask over all lanes."""
        out = np.zeros(self.n, dtype=bool)
        out[lanes] = self.rng.random(lanes) < rate
        return out

    def add_codes(self, lanes: np.ndarray, key: int, kind: int, cat: np.ndarray) -> None:
        """`_dx_code` / `_proc_code` of category `cat` for each lane."""
        num = cat * 3 + 1 + self.rng.randint(lanes, 0, 2)
        self.codes.append((lanes, np.full(len(lanes), key), np.full(len(lanes), kind), num))

    def add_visit(self, lanes, claim_type, admit, discharge, key, proc_key=None, **fields) -> None:
        """A visit per lane, listing the dx codes under `key` and the proc
        codes under `proc_key` (default `key`); `fields` are drg,
        admission_type, admission_source, disposition and facility
        (default None)."""
        columns = [lanes, key, key if proc_key is None else proc_key, claim_type, admit, discharge]
        columns += [fields.get(name, -1) for name in _VISIT_FIELDS]
        self.visits.append(tuple(np.full(len(lanes), value) if np.ndim(value) == 0 else value for value in columns))

    def take(self, lanes: np.ndarray, start: np.ndarray, end: np.ndarray) -> None:
        self.span_start[lanes, self.n_spans[lanes]] = start
        self.span_end[lanes, self.n_spans[lanes]] = end
        self.n_spans[lanes] += 1

    def free_span(self, lanes: np.ndarray, admit: np.ndarray, los) -> np.ndarray:
        """`_free_span` per lane: clear of each taken span by two days, so
        unrelated stays never satisfy the merge rule."""
        start, end = self.span_start[lanes], self.span_end[lanes]
        clear = (admit[:, None] > end + 2) | ((admit + los)[:, None] < start - 2)
        clear |= np.arange(_MAX_SPANS) >= self.n_spans[lanes, None]
        return clear.all(axis=1)

    def anchor_los(self, long_stay: np.ndarray) -> np.ndarray:
        """`_anchor_los` per lane: a long stay, or a short one capped at 28 days."""
        los = np.empty(self.n, dtype=np.int64)
        lanes = self.every[long_stay]
        los[lanes] = 31 + self.rng.randint(lanes, 0, 14)
        lanes = self.every[~long_stay]
        short = 1 + self.rng.poisson(lanes, 2.2)
        longer = self.rng.random(lanes) < 0.15
        short[longer] += self.rng.randint(lanes[longer], 4, 12)
        los[lanes] = np.minimum(short, 28)
        return los

    def late_decoy_fits(self, lanes: np.ndarray, ld_admit: np.ndarray, death: np.ndarray) -> np.ndarray:
        """`_late_decoy_fits` per lane: the decoy's admission comes more than
        four days before the death, if any, and its stay is free."""
        return ((death == _NO_DEATH) | (ld_admit + 4 < death)) & self.free_span(lanes, ld_admit, 3)

    def chronic_cat(self, lanes: np.ndarray) -> np.ndarray:
        """`_chronic_cat` per lane; each branch's choice is a randint over
        a run of categories."""
        rng = self.rng
        branch = np.zeros(len(lanes), dtype=np.intp)  # the symptom branch
        rest = rng.random(lanes) >= 0.30
        branch[rest] = 1 + _branch(rng.random(lanes[rest]), (0.72, 0.92, 0.96))
        lo, hi = _CHRONIC_RUNS[:, branch]
        draw = lo != hi
        lo[draw] = rng.randint(lanes[draw], lo[draw], hi[draw])
        return lo

    def chronic_choice(self, lanes: np.ndarray) -> np.ndarray:
        """`rng.choice(chronic)` per lane; each lane's list is non-empty."""
        return self.chronic[lanes, self.rng.randint(lanes, 0, self.n_chronic[lanes] - 1)]

    def chronic_or_new(self, lanes: np.ndarray, p: float) -> np.ndarray:
        """`rng.choice(chronic) if chronic and rng.random() < p else _chronic_cat(rng)`."""
        cat = np.empty(len(lanes), dtype=np.int64)
        has = self.n_chronic[lanes] > 0
        pick = np.zeros(len(lanes), dtype=bool)
        pick[has] = self.rng.random(lanes[has]) < p
        cat[pick] = self.chronic_choice(lanes[pick])
        cat[~pick] = self.chronic_cat(lanes[~pick])
        return cat

    def history_dx(self, lanes: np.ndarray, key: int) -> None:
        """`_history_dx_codes` per lane, under `key`."""
        for active in self.loop(1 + self.rng.poisson(lanes, 1.2), lanes):
            self.add_codes(active, key, _DX, self.chronic_or_new(active, 0.65))

    def general_proc(self, lanes: np.ndarray, key: int, rate: float) -> None:
        """`(_proc_code(rng.choice(_GENERAL_PROC_CATS), rng),) if rng.random() < rate else ()`."""
        lanes = lanes[self.rng.random(lanes) < rate]
        self.add_codes(lanes, key, _PROC, self.rng.choice(lanes, _GENERAL_PROC_CATS))

    def drg(self, lanes: np.ndarray, acute) -> np.ndarray:
        """`rng.choice(_ACUTE_DRGS if acute else _OTHER_DRGS)` per lane, as
        an index into `_DRGS`; `acute` is a bool or one per lane."""
        acute = np.broadcast_to(acute, lanes.shape)
        size = np.where(acute, len(_ACUTE_DRGS), len(_OTHER_DRGS))
        return np.where(acute, 0, len(_ACUTE_DRGS)) + self.rng.randint(lanes, 0, size - 1)

    def loop(self, counts: np.ndarray, lanes: np.ndarray | None = None):
        """The active lanes of each pass of a per-lane `range(count)` loop."""
        lanes = self.every if lanes is None else lanes
        for j in range(counts.max(initial=0)):
            yield lanes[counts > j]

    def generate(self) -> dict:
        rng, cfg, every, rates = self.rng, self.cfg, self.every, WRINKLE_RATES
        under_65 = self.flags(every, rates["under_65"])
        esrd_under_65 = self.flags(every[under_65], rates["esrd_given_under_65"])
        enroll_gap, long_stay, elective_anchor, elective_acute, transfer_chain, expired_anchor = (
            self.flags(every, rates[name])
            for name in (
                "enrollment_gap", "long_stay", "elective_anchor", "acute_drg_given_elective", "transfer_chain",
                "expired_anchor",
            )
        )

        u = rng.random(every)
        age_years = np.where(under_65, 40 + u * 24, 66 + u * 28)
        status = np.where(under_65, np.where(esrd_under_65, _ESRD_ONLY, _DISABLED), _AGED_NO_ESRD)
        status[self.flags(every[~under_65], 0.05)] = _AGED_ESRD
        gender = np.where(rng.random(every) < 0.44, _MALE, _FEMALE)
        race = _RACE_DRAWN[_branch(rng.random(every), _RACE_CUTS)]
        dual = rng.random(every) < 0.17

        admit = iso_to_day("2011-03-01") + rng.randint(every, 0, 240)
        los = self.anchor_los(long_stay)
        discharge = admit + los
        birth = admit - (age_years * 365.25).astype(np.int64) - rng.randint(every, 0, 200)

        drawn = np.zeros((self.n, _N_DX_CATS), dtype=np.int64)  # 1 for each chronic category drawn
        for lanes in self.loop(rng.poisson(every, 2.3)):
            drawn[lanes, self.chronic_cat(lanes)] = 1
        self.n_chronic = drawn.sum(axis=1)
        self.chronic = np.argsort(-drawn, axis=1, kind="stable")  # each lane's categories, ascending
        self.take(every, admit, discharge)

        n_out = rng.poisson(every, cfg.mean_claims_per_patient * 0.45)
        n_ed = rng.poisson(every, cfg.mean_claims_per_patient * 0.20)
        for lanes in self.loop(n_out):
            day = admit[lanes] - rng.randint(lanes, 1, 365)
            key = self.new_key()
            self.general_proc(lanes, key, 0.3)
            self.history_dx(lanes, key)
            self.add_visit(lanes, _OUTPATIENT, day, day, key)
        for lanes in self.loop(n_ed):
            day = admit[lanes] - rng.randint(lanes, 1, 365)
            key = self.new_key()
            self.history_dx(lanes, key)
            self.add_visit(lanes, _ED, day, day, key)

        for lanes in self.loop(np.minimum(rng.poisson(every, 0.5), 3)):
            p_admit = admit[lanes] - rng.randint(lanes, 40, 350)
            p_los = 1 + rng.poisson(lanes, 1.8)
            free = self.free_span(lanes, p_admit, p_los)
            lanes, p_admit, p_discharge = lanes[free], p_admit[free], (p_admit + p_los)[free]
            self.take(lanes, p_admit, p_discharge)
            t = rng.random(lanes)
            p_type = np.array([_EMERGENT, _URGENT, _ELECTIVE])[_branch(t, (0.35, 0.5))]
            p_drg = self.drg(lanes, p_type != _ELECTIVE)
            d = rng.random(lanes)
            key = self.new_key()
            self.history_dx(lanes, key)
            self.general_proc(lanes, key, 0.4)
            self.add_visit(
                lanes, _INPATIENT, p_admit, p_discharge, key,
                drg=p_drg, admission_type=p_type, admission_source=_COMMUNITY,
                disposition=np.array([_HOME, _SNF, _HOME_HEALTH])[_branch(d, (0.85, 0.95))],
                facility=rng.randint(lanes, 1, 10),
            )

        # Anchor admission.
        anchor_type = np.full(self.n, _ELECTIVE)
        acute_drg = elective_acute.copy()
        lanes = every[~elective_anchor]
        anchor_type[lanes] = np.where(rng.random(lanes) < 0.72, _EMERGENT, _URGENT)
        acute_drg[lanes] = rng.random(lanes) < 0.8
        anchor_drg = self.drg(every, acute_drg)
        anchor = self.new_key()
        acute_dx = rng.random(every) < 0.55
        lanes = every[acute_dx]
        self.add_codes(lanes, anchor, _DX, rng.choice(lanes, _ACUTE_DX_CATS))
        lanes = every[~acute_dx]
        cat = np.empty(len(lanes), dtype=np.int64)
        has = self.n_chronic[lanes] > 0
        cat[has] = self.chronic_choice(lanes[has])
        cat[~has] = self.chronic_cat(lanes[~has])
        self.add_codes(lanes, anchor, _DX, cat)
        for lanes in self.loop(1 + rng.poisson(every, 1.6)):
            self.add_codes(lanes, anchor, _DX, self.chronic_or_new(lanes, 0.65))
        for lanes in self.loop(rng.poisson(every, 0.8)):
            self.add_codes(lanes, anchor, _PROC, rng.choice(lanes, _GENERAL_PROC_CATS))
        lanes = every[rng.random(every) < rates["hac_code"]]
        as_dx = rng.random(lanes) < 0.5
        self.add_codes(lanes[as_dx], anchor, _DX, rng.choice(lanes[as_dx], _HAC_DX_CATS))
        self.add_codes(lanes[~as_dx], anchor, _PROC, rng.choice(lanes[~as_dx], _HAC_PROC_CATS))
        s = rng.random(every)
        anchor_source = np.array([_COMMUNITY, _SNF_SOURCE, _TRANSFER])[_branch(s, (0.85, 0.95))]
        d = rng.random(every)
        anchor_disp = np.array([_HOME, _HOME_HEALTH, _SNF])[_branch(d, (0.62, 0.75))]
        anchor_disp[expired_anchor] = _EXPIRED
        anchor_facility = rng.randint(every, 1, 10)

        eligible = (
            ~long_stay & ~expired_anchor & ~enroll_gap & (~under_65 | esrd_under_65) & (~elective_anchor | elective_acute)
        )

        # Planted signal, computed the same way the feature engine will see it:
        # dx categories pooled over claims admitted in [admit-365, admit].
        # `CcsMap.synthetic` puts three consecutive codes in each category, so
        # a code's category is the one it was drawn from.
        visits = self.visit_columns()
        lane, v_admit = visits["lane"], visits["admit"]
        pooled_visit = (admit[lane] - 365 <= v_admit) & (v_admit <= admit[lane])
        codes = self.code_columns()
        pool_keys = np.concatenate([visits["key"][pooled_visit] * self.n + lane[pooled_visit], anchor * self.n + every])
        pooled_code = (codes["kind"] == _DX) & np.isin(codes["key"] * self.n + codes["lane"], pool_keys)
        pooled = np.zeros((self.n, _N_DX_CATS), dtype=np.int64)  # 1 for each category present
        pooled[codes["lane"][pooled_code], (codes["num"][pooled_code] - 1) // 3] = 1
        weights = np.zeros(_N_DX_CATS, dtype=np.int64)
        for cat, weight in load_charlson_weights().items():
            if 0 <= cat < _N_DX_CATS:
                weights[cat] = weight
        charlson = pooled @ weights
        ed_visit = (visits["claim_type"] == _ED) & (admit[lane] - 365 <= v_admit) & (v_admit <= admit[lane] - 1)
        ed_12m = np.bincount(lane[ed_visit], minlength=self.n)

        el = every[eligible]
        p_r = _probability(cfg.readmit_signal, pooled[el], charlson[el], los[el], ed_12m[el])
        p_m = _probability(cfg.mortality_signal, pooled[el], charlson[el], los[el], ed_12m[el])
        readmit = np.zeros(self.n, dtype=bool)
        readmit[el] = rng.bernoulli(el, p_r)
        mortality = np.zeros(self.n, dtype=bool)
        mortality[el] = rng.bernoulli(el, p_m)
        ama = self.flags(el, rates["ama"])
        hospice = self.flags(every[mortality], rates["hospice_given_mortality"])
        anchor_disp[ama] = _AMA
        anchor_disp[hospice] = _HOSPICE
        death = np.full(self.n, _NO_DEATH)

        lanes = every[readmit]
        dies = mortality[lanes]
        delay = rng.randint(lanes, 1, np.where(dies, 15, 30))
        r_admit = discharge[lanes] + delay
        r_discharge = r_admit + 1 + rng.poisson(lanes, 1.5)
        r_disp = np.full(len(lanes), _HOME)
        i = np.flatnonzero(dies)
        death[lanes[i]] = discharge[lanes[i]] + rng.randint(lanes[i], delay[i], 30)
        i = i[death[lanes[i]] <= r_discharge[i]]
        r_discharge[i] = death[lanes[i]]
        r_disp[i] = _EXPIRED
        key = self.new_key()
        self.add_codes(lanes, key, _DX, rng.choice(lanes, _ACUTE_DX_CATS))
        for active in self.loop(rng.poisson(lanes, 1.2), lanes):
            self.add_codes(active, key, _DX, self.chronic_or_new(active, 0.6))
        self.general_proc(lanes, key, 0.3)
        self.add_visit(
            lanes, _INPATIENT, r_admit, r_discharge, key,
            drg=self.drg(lanes, True), admission_type=_EMERGENT, admission_source=_COMMUNITY,
            disposition=r_disp, facility=rng.randint(lanes, 1, 10),
        )
        self.take(lanes, r_admit, r_discharge)

        # A planned stay inside the window; must not flip the label.
        lanes = el[~readmit[el]]
        lanes = lanes[rng.random(lanes) < rates["planned_decoy"]]
        pd_admit = discharge[lanes] + rng.randint(lanes, 1, 30)
        pd_discharge = pd_admit + 1 + rng.randint(lanes, 0, 2)
        key = self.new_key()
        with_proc = rng.random(lanes) < 0.5
        active = lanes[with_proc]
        cat = np.full(len(active), 28)
        has = self.n_chronic[active] > 0
        cat[has] = self.chronic_choice(active[has])
        self.add_codes(active, key, _DX, cat)
        self.add_codes(active, key, _PROC, rng.choice(active, _PLANNED_PROC_CATS))
        active = lanes[~with_proc]
        self.add_codes(active, key, _DX, rng.choice(active, _MAINTENANCE_DX_CATS))
        self.add_visit(
            lanes, _INPATIENT, pd_admit, pd_discharge, key,
            drg=self.drg(lanes, False), admission_type=_ELECTIVE, admission_source=_COMMUNITY,
            disposition=_HOME, facility=rng.randint(lanes, 1, 10),
        )
        self.take(lanes, pd_admit, pd_discharge)

        lanes = every[mortality & ~readmit]
        death[lanes] = discharge[lanes] + rng.randint(lanes, 1, 30)
        lanes = el[~mortality[el]]
        lanes = lanes[rng.random(lanes) < rates["late_death"]]
        death[lanes] = discharge[lanes] + rng.randint(lanes, 45, 700)
        has_death = death != _NO_DEATH

        lanes = el[rng.random(el) < rates["late_decoy"]]
        ld_admit = discharge[lanes] + rng.randint(lanes, 35, 90)
        clear = self.late_decoy_fits(lanes, ld_admit, death[lanes])
        lanes, ld_admit = lanes[clear], ld_admit[clear]
        ld_discharge = ld_admit + 1 + rng.randint(lanes, 0, 2)
        key = self.new_key()
        self.history_dx(lanes, key)
        self.add_visit(
            lanes, _INPATIENT, ld_admit, ld_discharge, key,
            drg=self.drg(lanes, True), admission_type=_EMERGENT, admission_source=_COMMUNITY,
            disposition=_HOME, facility=rng.randint(lanes, 1, 10),
        )
        self.take(lanes, ld_admit, ld_discharge)
        clean = eligible & ~hospice & ~(ama & mortality)

        # Anchor claims, split in two when planting a transfer chain.
        chain = transfer_chain & (los >= 2) & (anchor_disp != _EXPIRED)
        lanes = every[chain]
        d1 = admit[lanes] + rng.randint(lanes, 0, los[lanes] - 2)
        a2 = d1 + rng.randint(lanes, 0, 1)
        facility_b = rng.randint(lanes, 1, 10)
        self.add_visit(
            lanes, _INPATIENT, admit[lanes], d1, anchor,
            drg=anchor_drg[lanes], admission_type=anchor_type[lanes], admission_source=anchor_source[lanes],
            disposition=_TRANSFER_ACUTE, facility=anchor_facility[lanes],
        )
        # Carry the anchor codes so the merged stay pools exactly the
        # categories the planted signal was computed from.
        self.add_visit(
            lanes, _INPATIENT, a2, discharge[lanes], anchor, self.new_key(),  # a key with no codes: no procedures
            drg=anchor_drg[lanes], admission_type=_EMERGENT,
            admission_source=_TRANSFER, disposition=anchor_disp[lanes], facility=facility_b,
        )
        lanes = every[~chain]
        self.add_visit(
            lanes, _INPATIENT, admit[lanes], discharge[lanes], anchor,
            drg=anchor_drg[lanes], admission_type=anchor_type[lanes], admission_source=anchor_source[lanes],
            disposition=anchor_disp[lanes], facility=anchor_facility[lanes],
        )

        enroll_start = admit - 800
        enroll_end = discharge + 90
        second = np.zeros(self.n, dtype=bool)
        lanes = every[enroll_gap]
        two = rng.random(lanes) < 0.5
        split = lanes[two]
        gap_start = rng.randint(split, 150, 250)
        gap_end = rng.randint(split, 50, 120)
        second[split] = True
        one = lanes[~two]
        enroll_start[one] = admit[one] - rng.randint(one, 50, 300)
        lanes = every[~enroll_gap]
        enroll_start[lanes] -= rng.randint(lanes, 0, 60)
        enroll_end[lanes] = discharge[lanes] + 60 + rng.randint(lanes, 0, 120)
        enrollment = np.stack([enroll_start, enroll_end], axis=1)
        n_intervals = 1 + second
        starts = _ptr(n_intervals)[:-1]
        intervals = np.empty((len(enrollment) + len(split), 2), dtype=np.int64)
        intervals[starts] = enrollment
        intervals[starts[split]] = np.stack([enroll_start[split], admit[split] - gap_start], axis=1)
        intervals[starts[split] + 1] = np.stack([admit[split] - gap_end, enroll_end[split]], axis=1)

        visits, codes = self.visit_columns(), self.code_columns()
        return {
            "birth": birth, "gender": gender, "race": race, "dual": dual, "status": status,
            "death": death, "has_death": has_death, "n_intervals": n_intervals, "intervals": intervals,
            **self.claims(visits, codes),
            "truth": {
                "patient": self.patients[clean], "admit": admit[clean], "discharge": discharge[clean],
                "readmit": readmit[clean], "mortality": mortality[clean],
                "p_readmit": p_r[clean[el]], "p_mortality": p_m[clean[el]],
                "charlson": charlson[clean], "los": los[clean], "ed_12m": ed_12m[clean], "pooled": pooled[clean],
            },
        }

    def visit_columns(self) -> dict[str, np.ndarray]:
        names = ("lane", "key", "proc_key", "claim_type", "admit", "discharge", *_VISIT_FIELDS)
        return {name: np.concatenate(column) for name, column in zip(names, zip(*self.visits))}

    def code_columns(self) -> dict[str, np.ndarray]:
        return {name: np.concatenate(column) for name, column in zip(("lane", "key", "kind", "num"), zip(*self.codes))}

    def claims(self, visits: dict[str, np.ndarray], codes: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """The chunk's visits as claims: sorted stably by (admit,
        discharge) within each lane as `list.sort` sorts them, numbered
        within the lane, each with its dx and proc codes deduplicated in
        first-seen order (as CSR lengths and values)."""
        # Visits and codes are in creation order, which the stable sorts keep
        # among ties.
        order = np.lexsort((visits["discharge"], visits["admit"], visits["lane"]))
        claims = {name: column[order] for name, column in visits.items()}
        lane = claims["lane"]
        claims["number"] = np.arange(len(lane)) - _ptr(np.bincount(lane, minlength=self.n))[lane]
        claims["patient"] = self.patients[claims.pop("lane")]
        # One group per (lane, key, kind) list; of equal codes in a group,
        # the first drawn stays, as `dict.fromkeys` keeps it.
        group = (codes["key"] * self.n + codes["lane"]) * 2 + codes["kind"]
        _, first = np.unique(group * (codes["num"].max(initial=0) + 1) + codes["num"], return_index=True)
        first.sort()
        order = np.argsort(group[first], kind="stable")
        group, num = group[first][order], codes["num"][first][order]
        for kind, key in ((_DX, "key"), (_PROC, "proc_key")):
            wanted = (claims[key] * self.n + lane) * 2 + kind
            start = np.searchsorted(group, wanted, side="left")
            length = np.searchsorted(group, wanted, side="right") - start
            claims[_CLAIM_CODES[kind] + "_len"] = length
            claims[_CLAIM_CODES[kind]] = num[_ranges(start, length)[1]]
        del claims["key"], claims["proc_key"]
        return claims


def _probability(signal: OutcomeSignal, pooled: np.ndarray, charlson, los, ed_visits) -> np.ndarray:
    """`1 / (1 + exp(-signal.logit(...)))` per row, with the logit's float
    additions in `logit`'s order and `math.exp`, so each value equals the
    scalar one bit for bit."""
    weights = np.zeros(len(pooled))
    for cat, weight in signal.ccs_weights.items():
        if 0 <= cat < _N_DX_CATS:
            weights = weights + np.where(pooled[:, cat] == 1, weight, 0.0)
    value = np.full(len(pooled), float(signal.intercept)) + weights
    value = value + signal.charlson_weight * charlson
    value = value + signal.los_weight * los
    value = value + signal.ed_weight * ed_visits
    return np.array([1.0 / (1.0 + math.exp(-x)) for x in value.tolist()])


def _decimal(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """`f"{v:0{width}d}"` of each non-negative int: rows of ASCII digits,
    NUL-padded on the right, and their lengths."""
    length = np.full(len(values), width)
    for power in range(width, len(str(values.max(initial=0)))):
        length += values >= 10**power
    exponent = length[:, None] - 1 - np.arange(length.max(initial=width))
    digits = values[:, None] // 10 ** np.maximum(exponent, 0) % 10
    return np.where(exponent >= 0, digits + ord("0"), 0).astype(np.uint8), length


def _strings(n: int, *pieces) -> np.ndarray:
    """`n` strings, each the concatenation of `pieces` (bytes, or rows and
    lengths from `_decimal`), as a NUL-padded bytes array."""
    pieces = [(np.frombuffer(p, dtype=np.uint8)[None], np.full(n, len(p))) if isinstance(p, bytes) else p for p in pieces]
    out = np.zeros((n, sum(rows.shape[1] for rows, _ in pieces)), dtype=np.uint8)
    at = np.zeros(n, dtype=np.int64)
    for rows, length in pieces:
        row, col = np.nonzero(np.arange(rows.shape[1]) < length[:, None])
        out[row, at[row] + col] = rows[row if len(rows) > 1 else 0, col]
        at += length
    return out.view(f"S{out.shape[1]}").ravel()


def _population_columns(parts: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The generated patients and claims as the columns of
    `CLAIM_COLUMNS`, sorted and coded as `tests.reference.claim_columns`
    sorts and codes the records: every string is an int32 code into the
    sorted table of the distinct strings used."""
    patient, claim_patient = np.arange(len(parts["birth"])), parts["patient"]
    ben_ids = _strings(len(patient), b"B", _decimal(patient, 6))
    claim_ids = _strings(len(claim_patient), b"B", _decimal(claim_patient, 6), b"-C", _decimal(parts["number"], 3))
    # Each text column's values, with the words of its values' codes.
    vocabularies = {
        "beneficiary.gender": (parts["gender"], GENDERS),
        "beneficiary.race": (parts["race"], RACES),
        "beneficiary.medicare_status": (parts["status"], MEDICARE_STATUSES),
        "claim.claim_type": (parts["claim_type"], CLAIM_TYPES),
        "claim.drg": (parts["drg"], _DRGS),
        "claim.admission_type": (parts["admission_type"], ADMISSION_TYPES),
        "claim.admission_source": (parts["admission_source"], ADMISSION_SOURCES),
        "claim.discharge_disposition": (parts["disposition"], DISPOSITIONS),
        "claim.facility_id": (parts["facility"], "F{:02d}"),
        "claim.dx_codes": (parts["dx_codes"], "D{:04d}"),
        "claim.proc_codes": (parts["proc_codes"], "P{:04d}"),
    }
    used = {name: np.flatnonzero(np.bincount(values + 1, minlength=1)[1:]) for name, (values, _) in vocabularies.items()}
    words = [
        vocabulary.format(value) if isinstance(vocabulary, str) else vocabulary[value]
        for name, (_, vocabulary) in vocabularies.items()
        for value in used[name].tolist()
    ]
    table, code = np.unique(np.concatenate([ben_ids, claim_ids, np.array(words, dtype=np.bytes_)]), return_inverse=True)
    code = code.reshape(-1).astype(np.int32)
    ben_code, claim_code = code[: len(patient)], code[len(patient) : len(patient) + len(claim_patient)]
    at = len(patient) + len(claim_patient)  # the first word's code

    ben_order = np.argsort(ben_code, kind="stable")
    claim_ben = ben_code[claim_patient]
    claim_order = np.lexsort((claim_code, parts["discharge"], parts["admit"], claim_ben))
    n_intervals = parts["n_intervals"][ben_order]
    intervals = parts["intervals"][_ranges(_ptr(parts["n_intervals"])[:-1][ben_order], n_intervals)[1]]
    cols = {
        "beneficiary.beneficiary_id": ben_code[ben_order],
        "beneficiary.birth_date": parts["birth"][ben_order],
        "beneficiary.dual_eligible": parts["dual"][ben_order],
        "beneficiary.has_death_date": parts["has_death"][ben_order],
        "beneficiary.death_date": np.where(parts["has_death"], parts["death"], 0)[ben_order],
        "beneficiary.enrollment_ptr": _ptr(n_intervals),
        "beneficiary.enrollment": intervals,
        "claim.claim_id": claim_code[claim_order],
        "claim.beneficiary_id": claim_ben[claim_order],
        "claim.admit_date": parts["admit"][claim_order],
        "claim.discharge_date": parts["discharge"][claim_order],
    }
    for name, (values, _) in vocabularies.items():
        lookup = np.full(values.max(initial=-1) + 2, -1, dtype=np.int32)  # the code of value - 1; None's is -1
        lookup[used[name] + 1] = code[at : at + len(used[name])]
        at += len(used[name])
        if name.startswith("beneficiary."):
            cols[name] = lookup[values + 1][ben_order]
        elif name in ("claim.dx_codes", "claim.proc_codes"):
            length = parts[f"{name.removeprefix('claim.')}_len"]
            ptr, rows = _ranges(_ptr(length)[:-1][claim_order], length[claim_order])
            cols[f"{name}_ptr"], cols[name] = ptr, lookup[values[rows] + 1]
        else:
            cols[name] = lookup[values + 1][claim_order]
    table = table.view(np.uint8).reshape(len(table), -1)
    cols["text_ptr"] = _ptr(np.count_nonzero(table, axis=1))
    cols["text"] = table[table != 0]
    return {name: np.ascontiguousarray(cols[name], dtype=dtype) for name, (dtype, _) in CLAIM_COLUMNS.items()}


def generate_population(cfg: SyntheticConfig) -> SyntheticPopulation:
    """Generates beneficiaries, claims, and ground truth for planted events.

    Each patient draws from its own seeded stream, so output is independent
    of generation order and stable across runs. Patients are generated in
    chunks of `_CHUNK_PATIENTS`, stepped side by side (`_Chunk`), and the
    columns are checked as `ingest_claims` checks them before they are
    returned.
    """
    cfg.validate()
    chunks = []
    for first in range(0, cfg.n_patients, _CHUNK_PATIENTS):
        patients = np.arange(first, min(first + _CHUNK_PATIENTS, cfg.n_patients))
        chunks.append(_Chunk(patients, cfg).generate())
    parts = {name: np.concatenate([chunk[name] for chunk in chunks]) for name in chunks[0] if name != "truth"}
    truth_cols = {name: np.concatenate([chunk["truth"][name] for chunk in chunks]) for name in chunks[0]["truth"]}
    cols = _population_columns(parts)
    check_claim_columns(cols, "the generated claims")

    # Row i's pooled categories, ascending, are cats[bounds[i] : bounds[i + 1]].
    row, cats = np.nonzero(truth_cols.pop("pooled"))
    bounds, cats = np.searchsorted(row, np.arange(len(truth_cols["patient"]) + 1)).tolist(), cats.tolist()
    rows = zip(*(column.tolist() for column in truth_cols.values()))
    truth = [
        GroundTruth(f"B{patient:06d}", *fields, tuple(cats[start:end]))
        for (patient, *fields), start, end in zip(rows, bounds, bounds[1:])
    ]
    info = {
        "n_patients": cfg.n_patients,
        "seed": cfg.seed,
        "readmit_signal": cfg.readmit_signal.to_json_obj(),
        "mortality_signal": cfg.mortality_signal.to_json_obj(),
        "wrinkle_rates": dict(WRINKLE_RATES),
        "n_truth_rows": len(truth),
        "readmit_rate": (sum(t.readmit_label for t in truth) / len(truth)) if truth else 0.0,
        "mortality_rate": (sum(t.mortality_label for t in truth) / len(truth)) if truth else 0.0,
    }
    return SyntheticPopulation(columns=cols, truth=truth, info=info)
