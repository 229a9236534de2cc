"""Cohort construction: stays, index events, and outcome labels.

Inpatient claims are first resolved into stays (transfer chains and
same-day fragments merge into one stay), then each stay is screened
against the index-event criteria, and finally eligible events get a
30-day unplanned-readmission label and an unexpected-mortality label.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .claims import _BEN_TEXT, _CLAIM_CODES, _CLAIM_TEXT, ESRD_STATUSES, Beneficiary, ClaimRecord, _ptr, day_to_iso
from .errors import ValidationError
from .knowledge import CcsMap, PlannedRules

EXCLUSION_REASONS = (
    "not_acute_short_stay",
    "age",
    "expired_inpatient",
    "transferred_out",
    "enrollment_gap",
)

READMIT_WINDOW_DAYS = 30
LOOKBACK_DAYS = 365


@dataclass(frozen=True)
class InpatientStay:
    beneficiary_id: str
    admit_date: int
    discharge_date: int
    merged_claim_ids: tuple[str, ...]
    principal_dx: str
    all_dx: tuple[str, ...]
    all_proc: tuple[str, ...]
    drg: str
    admission_type: str
    admission_source: str
    discharge_disposition: str
    facility_id: str

    @property
    def los(self) -> int:
        return self.discharge_date - self.admit_date

    @property
    def stay_id(self) -> str:
        return self.merged_claim_ids[0]


def _stay_from_claim(claim: ClaimRecord) -> InpatientStay:
    return InpatientStay(
        beneficiary_id=claim.beneficiary_id,
        admit_date=claim.admit_date,
        discharge_date=claim.discharge_date,
        merged_claim_ids=(claim.claim_id,),
        principal_dx=claim.principal_dx,
        all_dx=tuple(claim.dx_codes),
        all_proc=tuple(claim.proc_codes),
        drg=claim.drg,
        admission_type=claim.admission_type,
        admission_source=claim.admission_source,
        discharge_disposition=claim.discharge_disposition,
        facility_id=claim.facility_id,
    )


def _merge(stay: InpatientStay, claim: ClaimRecord) -> InpatientStay:
    # Admission-side fields stay with the first claim; discharge-side fields
    # (disposition, facility, DRG) come from the last.
    return replace(
        stay,
        discharge_date=max(stay.discharge_date, claim.discharge_date),
        merged_claim_ids=stay.merged_claim_ids + (claim.claim_id,),
        all_dx=tuple(dict.fromkeys(stay.all_dx + tuple(claim.dx_codes))),
        all_proc=tuple(dict.fromkeys(stay.all_proc + tuple(claim.proc_codes))),
        drg=claim.drg,
        discharge_disposition=claim.discharge_disposition,
        facility_id=claim.facility_id,
    )


def resolve_stays(claims: list[ClaimRecord]) -> list[InpatientStay]:
    """Collapses inpatient claims into disjoint stays per beneficiary.

    A claim joins the open stay when it starts on or before the stay's
    discharge day, or on the next day if the stay ended in an acute
    transfer. After resolution, consecutive stays never touch: the next
    admit is at least one day after the previous discharge.
    """
    stays: list[InpatientStay] = []
    by_beneficiary: dict[str, list[ClaimRecord]] = {}
    for claim in claims:
        if claim.claim_type == "inpatient":
            by_beneficiary.setdefault(claim.beneficiary_id, []).append(claim)
    for bid in sorted(by_beneficiary):
        ordered = sorted(by_beneficiary[bid], key=lambda c: (c.admit_date, c.discharge_date, c.claim_id))
        open_stay: InpatientStay | None = None
        for claim in ordered:
            if open_stay is None:
                open_stay = _stay_from_claim(claim)
                continue
            grace = 1 if open_stay.discharge_disposition == "transfer_acute" else 0
            if claim.admit_date <= open_stay.discharge_date + grace:
                open_stay = _merge(open_stay, claim)
            else:
                stays.append(open_stay)
                open_stay = _stay_from_claim(claim)
        if open_stay is not None:
            stays.append(open_stay)
    for prev, nxt in zip(stays, stays[1:]):
        if prev.beneficiary_id == nxt.beneficiary_id and nxt.admit_date <= prev.discharge_date:
            raise ValidationError(
                f"stays overlap after merging for beneficiary {prev.beneficiary_id}: "
                f"{prev.merged_claim_ids} and {nxt.merged_claim_ids}"
            )
    return stays


@dataclass(frozen=True)
class IndexPolicy:
    max_los_days: int = 30
    acute_drgs: frozenset[str] = frozenset()
    lookback_days: int = LOOKBACK_DAYS
    window_days: int = READMIT_WINDOW_DAYS


@dataclass
class IndexEvent:
    stay: InpatientStay
    age: int
    exclusion_reason: str | None = None
    readmit_label: bool | None = None
    readmit_stay_id: str | None = None
    mortality_label: bool | None = None
    mortality_exclusion: str | None = None

    @property
    def eligible(self) -> bool:
        return self.exclusion_reason is None

    @property
    def event_id(self) -> str:
        return f"{self.stay.beneficiary_id}@{day_to_iso(self.stay.admit_date)}"


def select_index_events(
    stays: list[InpatientStay],
    beneficiaries: dict[str, Beneficiary],
    policy: IndexPolicy,
) -> list[IndexEvent]:
    """Screens every stay; ineligible stays keep their first failed check.

    Checks run in a fixed order (acute short stay, age, inpatient death,
    acute transfer out, enrollment), so the recorded reason is stable.
    """
    events: list[IndexEvent] = []
    for stay in stays:
        ben = beneficiaries.get(stay.beneficiary_id)
        if ben is None:
            raise ValidationError(f"stay references unknown beneficiary {stay.beneficiary_id!r}")
        age = ben.age_at(stay.admit_date)
        reason: str | None = None
        acute = stay.admission_type in ("emergent", "urgent") or stay.drg in policy.acute_drgs
        if stay.los > policy.max_los_days or not acute:
            reason = "not_acute_short_stay"
        elif age < 65 and ben.medicare_status not in ESRD_STATUSES:
            reason = "age"
        elif stay.discharge_disposition == "expired":
            reason = "expired_inpatient"
        elif stay.discharge_disposition == "transfer_acute":
            reason = "transferred_out"
        elif not ben.covers(stay.admit_date - policy.lookback_days, stay.discharge_date + policy.window_days):
            reason = "enrollment_gap"
        events.append(IndexEvent(stay=stay, age=age, exclusion_reason=reason))
    return events


def label_readmission(
    events: list[IndexEvent],
    stays: list[InpatientStay],
    rules: PlannedRules,
    ccs: CcsMap,
    window_days: int = READMIT_WINDOW_DAYS,
) -> None:
    """Sets the 30-day unplanned readmission label on eligible events.

    The candidate is the first stay admitting inside (discharge,
    discharge + window]; a planned candidate yields a negative label, it is
    not skipped in favor of a later stay. A stay never serves as the
    readmission for two index events.
    """
    stays_by_ben: dict[str, list[InpatientStay]] = {}
    for stay in stays:
        stays_by_ben.setdefault(stay.beneficiary_id, []).append(stay)
    for bucket in stays_by_ben.values():
        bucket.sort(key=lambda s: (s.admit_date, s.discharge_date, s.stay_id))
    claimed: set[tuple[str, str]] = set()
    for event in sorted(events, key=lambda e: (e.stay.beneficiary_id, e.stay.admit_date)):
        if not event.eligible:
            continue
        discharge = event.stay.discharge_date
        candidate: InpatientStay | None = None
        for stay in stays_by_ben.get(event.stay.beneficiary_id, ()):
            if stay.admit_date > discharge + window_days:
                break
            if stay.admit_date > discharge:
                candidate = stay
                break
        if candidate is None:
            event.readmit_label = False
            continue
        principal_ccs = ccs.dx_category(candidate.principal_dx)
        proc_ccs = {ccs.proc_category(p) for p in candidate.all_proc}
        planned = rules.is_planned(principal_ccs, proc_ccs)
        event.readmit_label = not planned
        if event.readmit_label:
            key = (candidate.beneficiary_id, candidate.stay_id)
            if key in claimed:
                raise ValidationError(
                    f"stay {candidate.stay_id} counted as readmission for two index events"
                )
            claimed.add(key)
            event.readmit_stay_id = candidate.stay_id


def label_mortality(
    events: list[IndexEvent],
    beneficiaries: dict[str, Beneficiary],
    stays: list[InpatientStay],
    window_days: int = READMIT_WINDOW_DAYS,
) -> None:
    """Sets the 30-day unexpected mortality label on eligible events.

    Deaths following a discharge against medical advice, or with hospice
    involvement between discharge and death, are flagged as exclusions for
    this task rather than labeled.
    """
    stays_by_ben: dict[str, list[InpatientStay]] = {}
    for stay in stays:
        stays_by_ben.setdefault(stay.beneficiary_id, []).append(stay)
    for event in events:
        if not event.eligible:
            continue
        ben = beneficiaries[event.stay.beneficiary_id]
        discharge = event.stay.discharge_date
        death = ben.death_date
        if death is None or not (discharge < death <= discharge + window_days):
            event.mortality_label = False
            continue
        if event.stay.discharge_disposition == "ama":
            event.mortality_label = False
            event.mortality_exclusion = "ama"
            continue
        hospice = event.stay.discharge_disposition == "hospice" or any(
            s.discharge_disposition == "hospice" and discharge < s.admit_date <= death
            for s in stays_by_ben.get(event.stay.beneficiary_id, ())
        )
        if hospice:
            event.mortality_label = False
            event.mortality_exclusion = "hospice"
            continue
        event.mortality_label = True


AGE_BANDS = ("Unknown", "<65", "65~69", "70~74", "75~79", "80~84", ">85")


def age_band(age: int) -> str:
    if age < 65:
        return "<65"
    if age < 70:
        return "65~69"
    if age < 75:
        return "70~74"
    if age < 80:
        return "75~79"
    if age < 85:
        return "80~84"
    return ">85"


_RACE_LABELS = (
    ("Unknown", "unknown"),
    ("White", "white"),
    ("Black", "black"),
    ("Other", "other"),
    ("Asian", "asian"),
    ("Hispanic", "hispanic"),
    ("North American Native", "north_american_native"),
)


def cohort_summary(events: list[IndexEvent], beneficiaries: dict[str, Beneficiary]) -> str:
    """Race, gender, and age-band breakdown of beneficiaries with at least
    one eligible index event, as CSV with count and percentage rows."""
    first_event: dict[str, IndexEvent] = {}
    for event in events:
        if event.eligible and event.stay.beneficiary_id not in first_event:
            first_event[event.stay.beneficiary_id] = event
    total = len(first_event)

    race_counts: Counter[str] = Counter()
    gender_counts: Counter[str] = Counter()
    age_counts: Counter[str] = Counter()
    for bid, event in first_event.items():
        ben = beneficiaries[bid]
        race_counts[ben.race] += 1
        gender_counts[ben.gender] += 1
        age_counts[age_band(event.age)] += 1

    def pct(n: int) -> str:
        return f"{(100.0 * n / total):.2f}%" if total else "0.00%"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Total beneficiaries", total])

    race_values = [race_counts.get(key, 0) for _, key in _RACE_LABELS]
    writer.writerow(["Race"] + [label for label, _ in _RACE_LABELS] + ["Total"])
    writer.writerow(["Counts"] + race_values + [total])
    writer.writerow(["Percentage"] + [pct(v) for v in race_values] + [pct(total)])

    gender_values = [gender_counts.get("male", 0), gender_counts.get("female", 0)]
    writer.writerow(["Gender", "Male", "Female", "Total"])
    writer.writerow(["Counts"] + gender_values + [total])
    writer.writerow(["Percentage"] + [pct(v) for v in gender_values] + [pct(total)])

    age_values = [age_counts.get(band, 0) for band in AGE_BANDS]
    writer.writerow(["Age Range"] + list(AGE_BANDS) + ["Total"])
    writer.writerow(["Counts"] + age_values + [total])
    writer.writerow(["Percentage"] + [pct(v) for v in age_values] + [pct(total)])
    return buf.getvalue()


def build_cohort(
    beneficiaries: list[Beneficiary],
    claims: list[ClaimRecord],
    rules: PlannedRules,
    ccs: CcsMap,
    acute_drgs: frozenset[str],
) -> tuple[list[IndexEvent], list[InpatientStay], dict]:
    """End-to-end cohort pass: stays, screening, both labels, audit counts."""
    ben_map = {b.beneficiary_id: b for b in beneficiaries}
    stays = resolve_stays(claims)
    policy = IndexPolicy(acute_drgs=acute_drgs)
    events = select_index_events(stays, ben_map, policy)
    label_readmission(events, stays, rules, ccs)
    label_mortality(events, ben_map, stays)
    eligible = [e for e in events if e.eligible]
    audit = {
        "n_stays": len(stays),
        "n_events": len(events),
        "n_eligible": len(eligible),
        "exclusions": dict(
            sorted(Counter(e.exclusion_reason for e in events if not e.eligible).items())
        ),
        "readmit_positive": sum(1 for e in eligible if e.readmit_label),
        "mortality_positive": sum(1 for e in eligible if e.mortality_label),
        "mortality_excluded": dict(
            sorted(Counter(e.mortality_exclusion for e in eligible if e.mortality_exclusion).items())
        ),
    }
    return events, stays, audit


# The stay fields featurization reads, besides the dates and code rows.
_STAY_TEXT = (
    "beneficiary_id",
    "stay_id",
    "principal_dx",
    "drg",
    "admission_type",
    "admission_source",
    "discharge_disposition",
)


def population_columns(
    beneficiaries: list[Beneficiary],
    claims: list[ClaimRecord],
    stays: list[InpatientStay],
    events: list[IndexEvent],
) -> dict[str, np.ndarray]:
    """The records and the cohort built from them as columns, each in the
    order given: the arrays of `cohort/population.npz`.

    Every string is an int32 code (-1 for None) into one table of the
    distinct strings in sorted order, so codes compare as their strings
    do. The table is stored as UTF-8 bytes (`text`) with CSR offsets
    (`text_ptr`), which `text_words` decodes. Dates are int32 day numbers,
    and enrollment intervals and code tuples are CSR rows (a stay's
    `all_dx` and `all_proc` exactly as `resolve_stays` built them,
    duplicates kept). Each event names its stay's row. The records are not
    validated again: pass what `ingest_claims` and `build_cohort` returned.
    """
    texts: dict[str, list] = {}  # the string columns, coded at the end

    def text_columns(kind: str, records: list, names: tuple[str, ...]) -> None:
        texts.update({f"{kind}.{name}": [getattr(r, name) for r in records] for name in names})

    def code_rows(kind: str, rows: list[tuple[str, ...]]) -> None:
        cols[f"{kind}_ptr"] = _ptr([len(row) for row in rows])
        texts[kind] = [code for row in rows for code in row]

    cols: dict[str, np.ndarray] = {}
    text_columns("beneficiary", beneficiaries, _BEN_TEXT)
    cols["beneficiary.birth_date"] = np.array([b.birth_date for b in beneficiaries], dtype=np.int32)
    cols["beneficiary.dual_eligible"] = np.array([b.dual_eligible for b in beneficiaries], dtype=bool)
    cols["beneficiary.has_death_date"] = np.array([b.death_date is not None for b in beneficiaries], dtype=bool)
    cols["beneficiary.death_date"] = np.array([b.death_date or 0 for b in beneficiaries], dtype=np.int32)
    cols["beneficiary.enrollment_ptr"] = _ptr([len(b.enrollment_intervals) for b in beneficiaries])
    cols["beneficiary.enrollment"] = np.array(
        [interval for b in beneficiaries for interval in b.enrollment_intervals], dtype=np.int32
    ).reshape(-1, 2)
    text_columns("claim", claims, _CLAIM_TEXT)
    for kind, records in (("claim", claims), ("stay", stays)):
        for name in ("admit_date", "discharge_date"):
            cols[f"{kind}.{name}"] = np.array([getattr(r, name) for r in records], dtype=np.int32)
    for name in _CLAIM_CODES:
        code_rows(f"claim.{name}", [getattr(c, name) for c in claims])
    text_columns("stay", stays, _STAY_TEXT)
    code_rows("stay.all_dx", [s.all_dx for s in stays])
    code_rows("stay.all_proc", [s.all_proc for s in stays])
    row_of = {(s.beneficiary_id, s.stay_id): i for i, s in enumerate(stays)}
    cols["event.stay"] = np.array([row_of[e.stay.beneficiary_id, e.stay.stay_id] for e in events], dtype=np.int64)
    cols["event.age"] = np.array([e.age for e in events], dtype=np.int32)
    cols["event.eligible"] = np.array([e.eligible for e in events], dtype=bool)
    cols["event.readmit_label"] = np.array([bool(e.readmit_label) for e in events], dtype=bool)
    cols["event.mortality_label"] = np.array([bool(e.mortality_label) for e in events], dtype=bool)
    cols["event.mortality_excluded"] = np.array([e.mortality_exclusion is not None for e in events], dtype=bool)
    words = sorted(set().union(*texts.values()) - {None})
    code = dict(zip(words, range(len(words))))
    code[None] = -1
    cols.update({name: np.array(list(map(code.__getitem__, values)), dtype=np.int32) for name, values in texts.items()})
    encoded = [word.encode("utf-8", "surrogatepass") for word in words]
    cols["text_ptr"] = _ptr([len(word) for word in encoded])
    cols["text"] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return cols


def text_words(cols, codes) -> dict[int, str | None]:
    """{code: string} for the given codes of `population_columns`' table;
    code -1 reads None."""
    blob = cols["text"].tobytes()
    ptr = cols["text_ptr"].tolist()
    return {
        code: None if code < 0 else blob[ptr[code] : ptr[code + 1]].decode("utf-8", "surrogatepass")
        for code in np.unique(codes).tolist()
    }
