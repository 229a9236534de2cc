"""Claim and beneficiary records, their columnar archive, and the
synthetic population.

Dates are integer day numbers (days since 1970-01-01) everywhere; the
ground-truth CSV carries ISO strings. `claim_columns` codes the records
into the arrays of `generate/claims.npz`, and `ingest_claims` reads them
back and checks them as the record validators would. The synthetic
generator plants a known logistic outcome signal per patient and reports it
back so tests can check that the cohort builder and feature engine recover
exactly what was planted.
"""

from __future__ import annotations

import functools
import math
import operator
import zipfile
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .knowledge import CcsMap, charlson_index, load_charlson_weights
from .rng import Xoshiro256, derive_seed

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


# The text fields of each record; `validate` holds them to str (or None),
# which `claim_columns` relies on.
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


# The arrays of `generate/claims.npz`: {name: (dtype, ndim)}.
CLAIM_COLUMNS = {
    **{f"beneficiary.{name}": (np.int32, 1) for name in (*_BEN_TEXT, "birth_date", "death_date")},
    "beneficiary.dual_eligible": (np.bool_, 1),
    "beneficiary.has_death_date": (np.bool_, 1),
    "beneficiary.enrollment_ptr": (np.int64, 1),
    "beneficiary.enrollment": (np.int32, 2),
    **{f"claim.{name}": (np.int32, 1) for name in (*_CLAIM_TEXT, *_CLAIM_CODES, "admit_date", "discharge_date")},
    **{f"claim.{name}_ptr": (np.int64, 1) for name in _CLAIM_CODES},
    "text_ptr": (np.int64, 1),
    "text": (np.uint8, 1),
}


def claim_columns(beneficiaries: list[Beneficiary], claims: list[ClaimRecord]) -> dict[str, np.ndarray]:
    """The records as the columns of `CLAIM_COLUMNS`, beneficiaries sorted
    by id and claims by (beneficiary_id, admit_date, discharge_date,
    claim_id): what generate writes and `ingest_claims` reads.

    Every string is an int32 code (-1 for None) into one table of the
    distinct strings in sorted order, so codes compare as their strings
    do. The table is stored as UTF-8 bytes (`text`) with CSR offsets
    (`text_ptr`), which `text_words` decodes. Dates are int32 day numbers,
    and enrollment intervals and code tuples are CSR rows. The records are
    not validated again: pass records whose `validate` passed.
    """
    bens = sorted(beneficiaries, key=attrgetter("beneficiary_id"))
    claims = sorted(claims, key=attrgetter("beneficiary_id", "admit_date", "discharge_date", "claim_id"))

    def values(records: list, names: tuple[str, ...]) -> dict[str, list]:
        return {name: list(map(attrgetter(name), records)) for name in names}

    ben = values(bens, (*_BEN_TEXT, "birth_date", "dual_eligible", "death_date", "enrollment_intervals"))
    claim = values(claims, (*_CLAIM_TEXT, *_CLAIM_CODES, "admit_date", "discharge_date"))
    texts = {f"beneficiary.{name}": ben[name] for name in _BEN_TEXT}
    texts.update({f"claim.{name}": claim[name] for name in _CLAIM_TEXT})
    intervals = list(chain.from_iterable(ben["enrollment_intervals"]))
    cols = {
        "beneficiary.birth_date": np.array(ben["birth_date"], dtype=np.int32),
        "beneficiary.dual_eligible": np.array(ben["dual_eligible"], dtype=bool),
        "beneficiary.has_death_date": np.array([day is not None for day in ben["death_date"]], dtype=bool),
        "beneficiary.death_date": np.array([day or 0 for day in ben["death_date"]], dtype=np.int32),
        "beneficiary.enrollment_ptr": _ptr(list(map(len, ben["enrollment_intervals"]))),
        "beneficiary.enrollment": np.array(intervals, dtype=np.int32).reshape(-1, 2),
        **{f"claim.{name}": np.array(claim[name], dtype=np.int32) for name in ("admit_date", "discharge_date")},
    }
    for name in _CLAIM_CODES:
        cols[f"claim.{name}_ptr"] = _ptr(list(map(len, claim[name])))
        texts[f"claim.{name}"] = list(chain.from_iterable(claim[name]))
    words = sorted(set().union(*texts.values()) - {None})
    code = dict(zip(words, range(len(words))))
    code[None] = -1
    for name, strings in texts.items():
        cols[name] = np.fromiter(map(code.__getitem__, strings), dtype=np.int32, count=len(strings))
    encoded = [word.encode("utf-8", "surrogatepass") for word in words]
    cols["text_ptr"] = _ptr(list(map(len, encoded)))
    cols["text"] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return cols


def text_words(cols, codes) -> dict[int, str | None]:
    """{code: string} for the given codes of `claim_columns`' table; code
    -1 reads None."""
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
    """Reads the columns `claim_columns` wrote to an archive and checks
    them: the archive's members, dtypes, shapes and CSR pointers; the
    string table and every code into it; each record as `validate` would;
    and unique ids, claims of known beneficiaries only, and the sort order
    of `claim_columns`. Any failed check rejects the whole file with a
    ValidationError."""
    try:
        with zipfile.ZipFile(path) as archive:
            cols = {}
            for info in archive.infolist():
                with archive.open(info) as fh:
                    cols[info.filename.removesuffix(".npy")] = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: not a NumPy archive of claim columns: {exc}") from exc
    missing, unknown = sorted(CLAIM_COLUMNS.keys() - cols.keys()), sorted(cols.keys() - CLAIM_COLUMNS.keys())
    if missing or unknown:
        raise ValidationError(f"{path}: missing members {missing}, unknown members {unknown}")
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
    return cols


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
    beneficiaries: list[Beneficiary]
    claims: list[ClaimRecord]
    truth: list[GroundTruth]
    info: dict


def _dx_code(cat: int, rng: Xoshiro256) -> str:
    return f"D{cat * 3 + 1 + rng.randint(0, 2):04d}"


def _proc_code(cat: int, rng: Xoshiro256) -> str:
    return f"P{cat * 3 + 1 + rng.randint(0, 2):04d}"


def _chronic_cat(rng: Xoshiro256) -> int:
    if rng.random() < 0.30:
        return rng.choice(_SYMPTOM_DX_CATS)
    v = rng.random()
    if v < 0.72:
        return rng.randint(0, 9)  # weight-1 Charlson groups
    if v < 0.92:
        return rng.randint(10, 13)  # weight-2
    if v < 0.96:
        return 14
    return rng.choice((15, 16))


def _history_dx_codes(chronic: list[int], rng: Xoshiro256) -> tuple[str, ...]:
    n = 1 + rng.poisson(1.2)
    codes = []
    for _ in range(n):
        if chronic and rng.random() < 0.65:
            cat = rng.choice(chronic)
        else:
            cat = _chronic_cat(rng)
        codes.append(_dx_code(cat, rng))
    return tuple(dict.fromkeys(codes))


@dataclass
class _Visit:
    """A claim before ids are assigned."""

    claim_type: str
    admit: int
    discharge: int
    dx: tuple[str, ...]
    proc: tuple[str, ...] = ()
    drg: str | None = None
    admission_type: str | None = None
    admission_source: str | None = None
    disposition: str | None = None
    facility: str | None = None


def _free_span(admit: int, los: int, taken: list[tuple[int, int]]) -> bool:
    # Two-day buffer so unrelated stays never satisfy the merge rule.
    return all(admit > e + 2 or admit + los < s - 2 for s, e in taken)


def _gen_patient(
    i: int,
    cfg: SyntheticConfig,
    ccs: CcsMap,
    weights: dict[int, int],
    rng: Xoshiro256,
) -> tuple[Beneficiary, list[ClaimRecord], GroundTruth | None]:
    bid = f"B{i:06d}"
    rates = WRINKLE_RATES

    under_65 = rng.random() < rates["under_65"]
    esrd_under_65 = under_65 and rng.random() < rates["esrd_given_under_65"]
    enroll_gap = rng.random() < rates["enrollment_gap"]
    long_stay = rng.random() < rates["long_stay"]
    elective_anchor = rng.random() < rates["elective_anchor"]
    elective_acute = rng.random() < rates["acute_drg_given_elective"]
    transfer_chain = rng.random() < rates["transfer_chain"]
    expired_anchor = rng.random() < rates["expired_anchor"]

    if under_65:
        age_years = 40 + rng.random() * 24
        status = "esrd_only" if esrd_under_65 else "disabled"
    else:
        age_years = 66 + rng.random() * 28
        status = "aged_esrd" if rng.random() < 0.05 else "aged_no_esrd"
    gender = "male" if rng.random() < 0.44 else "female"
    r = rng.random()
    for race, cum in (
        ("white", 0.862),
        ("black", 0.952),
        ("hispanic", 0.972),
        ("asian", 0.985),
        ("other", 0.993),
        ("north_american_native", 0.998),
    ):
        if r < cum:
            break
    else:
        race = "unknown"
    dual = rng.random() < 0.17

    admit = iso_to_day("2011-03-01") + rng.randint(0, 240)
    if long_stay:
        los = 31 + rng.randint(0, 14)
    else:
        los = 1 + rng.poisson(2.2)
        if rng.random() < 0.15:
            los += rng.randint(4, 12)
        los = min(los, 28)
    discharge = admit + los
    birth = admit - int(age_years * 365.25) - rng.randint(0, 200)

    chronic = sorted({_chronic_cat(rng) for _ in range(rng.poisson(2.3))})

    visits: list[_Visit] = []
    taken: list[tuple[int, int]] = [(admit, discharge)]

    n_out = rng.poisson(cfg.mean_claims_per_patient * 0.45)
    n_ed = rng.poisson(cfg.mean_claims_per_patient * 0.20)
    for _ in range(n_out):
        day = admit - rng.randint(1, 365)
        proc = (_proc_code(rng.choice(_GENERAL_PROC_CATS), rng),) if rng.random() < 0.3 else ()
        visits.append(_Visit("outpatient", day, day, _history_dx_codes(chronic, rng), proc))
    for _ in range(n_ed):
        day = admit - rng.randint(1, 365)
        visits.append(_Visit("ed", day, day, _history_dx_codes(chronic, rng)))

    for _ in range(min(rng.poisson(0.5), 3)):
        p_admit = admit - rng.randint(40, 350)
        p_los = 1 + rng.poisson(1.8)
        if not _free_span(p_admit, p_los, taken):
            continue
        taken.append((p_admit, p_admit + p_los))
        t = rng.random()
        p_type = "emergent" if t < 0.35 else ("urgent" if t < 0.5 else "elective")
        p_drg = rng.choice(_ACUTE_DRGS) if p_type != "elective" else rng.choice(_OTHER_DRGS)
        d = rng.random()
        visits.append(
            _Visit(
                "inpatient",
                p_admit,
                p_admit + p_los,
                _history_dx_codes(chronic, rng),
                proc=(_proc_code(rng.choice(_GENERAL_PROC_CATS), rng),) if rng.random() < 0.4 else (),
                drg=p_drg,
                admission_type=p_type,
                admission_source="community",
                disposition="home" if d < 0.85 else ("snf" if d < 0.95 else "home_health"),
                facility=f"F{rng.randint(1, 10):02d}",
            )
        )

    # Anchor admission.
    if elective_anchor:
        anchor_type = "elective"
        anchor_drg = rng.choice(_ACUTE_DRGS) if elective_acute else rng.choice(_OTHER_DRGS)
    else:
        anchor_type = "emergent" if rng.random() < 0.72 else "urgent"
        anchor_drg = rng.choice(_ACUTE_DRGS) if rng.random() < 0.8 else rng.choice(_OTHER_DRGS)
    if rng.random() < 0.55:
        principal = _dx_code(rng.choice(_ACUTE_DX_CATS), rng)
    else:
        principal = _dx_code(rng.choice(chronic) if chronic else _chronic_cat(rng), rng)
    anchor_dx = [principal]
    for _ in range(1 + rng.poisson(1.6)):
        cat = rng.choice(chronic) if chronic and rng.random() < 0.65 else _chronic_cat(rng)
        anchor_dx.append(_dx_code(cat, rng))
    anchor_proc = [_proc_code(rng.choice(_GENERAL_PROC_CATS), rng) for _ in range(rng.poisson(0.8))]
    if rng.random() < rates["hac_code"]:
        if rng.random() < 0.5:
            anchor_dx.append(_dx_code(rng.choice(_HAC_DX_CATS), rng))
        else:
            anchor_proc.append(_proc_code(rng.choice(_HAC_PROC_CATS), rng))
    s = rng.random()
    anchor_source = "community" if s < 0.85 else ("snf" if s < 0.95 else "transfer")
    d = rng.random()
    anchor_disp = "home" if d < 0.62 else ("home_health" if d < 0.75 else "snf")
    if expired_anchor:
        anchor_disp = "expired"
    anchor_facility = f"F{rng.randint(1, 10):02d}"

    eligible = (
        not long_stay
        and not expired_anchor
        and not enroll_gap
        and (not under_65 or esrd_under_65)
        and (not elective_anchor or elective_acute)
    )

    # Planted signal, computed the same way the feature engine will see it:
    # dx categories pooled over claims admitted in [admit-365, admit].
    pooled = {ccs.dx_category(c) for c in anchor_dx}
    pooled_codes = list(anchor_dx)
    for v in visits:
        if admit - 365 <= v.admit <= admit:
            pooled_codes.extend(v.dx)
            pooled.update(ccs.dx_category(c) for c in v.dx)
    charlson = charlson_index(pooled_codes, ccs, weights)
    ed_12m = sum(1 for v in visits if v.claim_type == "ed" and admit - 365 <= v.admit <= admit - 1)

    truth: GroundTruth | None = None
    death: int | None = None
    readmit = False
    mortality = False
    if eligible:
        p_r = 1.0 / (1.0 + math.exp(-cfg.readmit_signal.logit(pooled, charlson, los, ed_12m)))
        p_m = 1.0 / (1.0 + math.exp(-cfg.mortality_signal.logit(pooled, charlson, los, ed_12m)))
        readmit = rng.bernoulli(p_r)
        mortality = rng.bernoulli(p_m)
        ama = rng.random() < rates["ama"]
        hospice = mortality and rng.random() < rates["hospice_given_mortality"]
        if ama:
            anchor_disp = "ama"
        if hospice:
            anchor_disp = "hospice"

        if readmit:
            delay = rng.randint(1, 15) if mortality else rng.randint(1, 30)
            r_admit = discharge + delay
            r_los = 1 + rng.poisson(1.5)
            r_discharge = r_admit + r_los
            r_disp = "home"
            if mortality:
                death = discharge + rng.randint(delay, 30)
                if death <= r_discharge:
                    r_discharge = death
                    r_disp = "expired"
            r_dx = [_dx_code(rng.choice(_ACUTE_DX_CATS), rng)]
            for _ in range(rng.poisson(1.2)):
                cat = rng.choice(chronic) if chronic and rng.random() < 0.6 else _chronic_cat(rng)
                r_dx.append(_dx_code(cat, rng))
            visits.append(
                _Visit(
                    "inpatient",
                    r_admit,
                    r_discharge,
                    tuple(dict.fromkeys(r_dx)),
                    proc=(_proc_code(rng.choice(_GENERAL_PROC_CATS), rng),) if rng.random() < 0.3 else (),
                    drg=rng.choice(_ACUTE_DRGS),
                    admission_type="emergent",
                    admission_source="community",
                    disposition=r_disp,
                    facility=f"F{rng.randint(1, 10):02d}",
                )
            )
            taken.append((r_admit, r_discharge))
        elif rng.random() < rates["planned_decoy"]:
            # A planned stay inside the window; must not flip the label.
            pd_admit = discharge + rng.randint(1, 30)
            pd_los = 1 + rng.randint(0, 2)
            if rng.random() < 0.5:
                pd_dx = (_dx_code(rng.choice(chronic) if chronic else 28, rng),)
                pd_proc = (_proc_code(rng.choice(_PLANNED_PROC_CATS), rng),)
            else:
                pd_dx = (_dx_code(rng.choice(_MAINTENANCE_DX_CATS), rng),)
                pd_proc = ()
            visits.append(
                _Visit(
                    "inpatient",
                    pd_admit,
                    pd_admit + pd_los,
                    pd_dx,
                    proc=pd_proc,
                    drg=rng.choice(_OTHER_DRGS),
                    admission_type="elective",
                    admission_source="community",
                    disposition="home",
                    facility=f"F{rng.randint(1, 10):02d}",
                )
            )
            taken.append((pd_admit, pd_admit + pd_los))

        if mortality and death is None:
            death = discharge + rng.randint(1, 30)
        if not mortality and rng.random() < rates["late_death"]:
            death = discharge + rng.randint(45, 700)

        if rng.random() < rates["late_decoy"]:
            ld_admit = discharge + rng.randint(35, 90)
            if (death is None or ld_admit + 4 < death) and _free_span(ld_admit, 3, taken):
                ld_los = 1 + rng.randint(0, 2)
                visits.append(
                    _Visit(
                        "inpatient",
                        ld_admit,
                        ld_admit + ld_los,
                        _history_dx_codes(chronic, rng),
                        drg=rng.choice(_ACUTE_DRGS),
                        admission_type="emergent",
                        admission_source="community",
                        disposition="home",
                        facility=f"F{rng.randint(1, 10):02d}",
                    )
                )
                taken.append((ld_admit, ld_admit + ld_los))

        clean = not hospice and not (ama and mortality)
        if clean:
            truth = GroundTruth(
                beneficiary_id=bid,
                index_admit_date=admit,
                index_discharge_date=discharge,
                readmit_label=readmit,
                mortality_label=mortality,
                p_readmit=p_r,
                p_mortality=p_m,
                charlson=charlson,
                los=los,
                ed_visits_12m=ed_12m,
                ccs_present=tuple(sorted(pooled)),
            )

    # Anchor claims, split in two when planting a transfer chain.
    if transfer_chain and los >= 2 and anchor_disp != "expired":
        d1 = admit + rng.randint(0, los - 2)
        a2 = d1 + rng.randint(0, 1)
        facility_b = f"F{rng.randint(1, 10):02d}"
        visits.append(
            _Visit(
                "inpatient",
                admit,
                d1,
                tuple(dict.fromkeys(anchor_dx)),
                proc=tuple(dict.fromkeys(anchor_proc)),
                drg=anchor_drg,
                admission_type=anchor_type,
                admission_source=anchor_source,
                disposition="transfer_acute",
                facility=anchor_facility,
            )
        )
        visits.append(
            _Visit(
                "inpatient",
                a2,
                discharge,
                # Carry the anchor codes so the merged stay pools exactly the
                # categories the planted signal was computed from.
                tuple(dict.fromkeys(anchor_dx)),
                drg=anchor_drg,
                admission_type="emergent",
                admission_source="transfer",
                disposition=anchor_disp,
                facility=facility_b,
            )
        )
    else:
        visits.append(
            _Visit(
                "inpatient",
                admit,
                discharge,
                tuple(dict.fromkeys(anchor_dx)),
                proc=tuple(dict.fromkeys(anchor_proc)),
                drg=anchor_drg,
                admission_type=anchor_type,
                admission_source=anchor_source,
                disposition=anchor_disp,
                facility=anchor_facility,
            )
        )

    if enroll_gap:
        if rng.random() < 0.5:
            intervals = ((admit - 800, admit - rng.randint(150, 250)), (admit - rng.randint(50, 120), discharge + 90))
        else:
            intervals = ((admit - rng.randint(50, 300), discharge + 90),)
    else:
        intervals = ((admit - 800 - rng.randint(0, 60), discharge + 60 + rng.randint(0, 120)),)

    ben = Beneficiary(
        beneficiary_id=bid,
        birth_date=birth,
        gender=gender,
        race=race,
        dual_eligible=dual,
        medicare_status=status,
        enrollment_intervals=intervals,
        death_date=death,
    )
    ben.validate()

    visits.sort(key=lambda v: (v.admit, v.discharge))
    claims = []
    for k, v in enumerate(visits):
        claim = ClaimRecord(
            claim_id=f"{bid}-C{k:03d}",
            beneficiary_id=bid,
            claim_type=v.claim_type,
            admit_date=v.admit,
            discharge_date=v.discharge,
            dx_codes=v.dx,
            proc_codes=v.proc,
            drg=v.drg,
            admission_type=v.admission_type,
            admission_source=v.admission_source,
            discharge_disposition=v.disposition,
            facility_id=v.facility,
        )
        claim.validate()
        claims.append(claim)
    return ben, claims, truth


def generate_population(cfg: SyntheticConfig) -> SyntheticPopulation:
    """Generates beneficiaries, claims, and ground truth for planted events.

    Each patient draws from its own seeded stream, so output is independent
    of generation order and stable across runs.
    """
    cfg.validate()
    ccs = CcsMap.synthetic(cfg.dx_vocab, cfg.proc_vocab)
    weights = load_charlson_weights()
    beneficiaries: list[Beneficiary] = []
    claims: list[ClaimRecord] = []
    truth: list[GroundTruth] = []
    seeds = (derive_seed(cfg.seed, "patient", i) for i in range(cfg.n_patients))
    for i, rng in enumerate(Xoshiro256.streams(seeds)):
        ben, patient_claims, row = _gen_patient(i, cfg, ccs, weights, rng)
        beneficiaries.append(ben)
        claims.extend(patient_claims)
        if row is not None:
            truth.append(row)
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
    return SyntheticPopulation(beneficiaries=beneficiaries, claims=claims, truth=truth, info=info)
