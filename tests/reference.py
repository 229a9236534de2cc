"""The record-based definitions of the synthetic generator, cohort
construction and featurization, kept as the references the columnar
kernels `claims.generate_population`, `cohort.build_cohort` and
`features.featurize_events` must equal byte for byte.

Each function here works on record objects, one patient, stay or event at
a time, the way the kernels' docstrings describe. `reference_population`
generates each patient from its own scalar stream, and `claim_columns`
codes records into the archive's columns; `population_records` reads the
kernel's columns back as records. `reference_cohort` resolves stays,
screens them and labels both outcomes; `checked_cohort` runs the kernel on
the same records and checks that the files cohort writes from it equal the
reference's. `reference_table` assembles per-event visit steps and domain
vectors into an `EventTable` with the kernel's dtypes, and
`read_population_npz` rebuilds the records from the columns of
`claim_columns`. `reference_nearest_neighbors` is SMOTE's brute-force
neighbour search, the table `training._nearest_neighbors` must equal.

The records themselves live here too: `ClaimRecord` and `Beneficiary`,
whose validators state per record the rules `claims.check_claim_columns`
checks column-wise, and `GroundTruth`, a planted event's row of the
generator's truth columns (`truth_records`).

`reference_padding` and `reference_embedding_lookup` lay a batch of
nested step lists out for the model one Python list at a time, the layout
`SeqFuseModel`'s gathers over an `EventTable`'s CSR columns must equal
bitwise. `steps_table` and `table_steps` convert between nested step
lists and those columns.

`reference_train_lr` is the damped-Newton logistic regression with the
general Hessian X' diag(p (1 - p)) X over every column, all-zero ones
included: the solver `baseline.train_lr` must match in iterations and,
to rounding, in weights.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from itertools import chain
from operator import attrgetter

import numpy as np

from seqfuse.claims import (
    _ACUTE_DRGS,
    _ACUTE_DX_CATS,
    _BEN_TEXT,
    _CLAIM_CODES,
    _CLAIM_TEXT,
    _GENERAL_PROC_CATS,
    _HAC_DX_CATS,
    _HAC_PROC_CATS,
    _MAINTENANCE_DX_CATS,
    _OTHER_DRGS,
    _PLANNED_PROC_CATS,
    _SYMPTOM_DX_CATS,
    _INPATIENT_ONLY,
    ADMISSION_SOURCES,
    ADMISSION_TYPES,
    CLAIM_COLUMNS,
    CLAIM_TYPES,
    DISPOSITIONS,
    ESRD_STATUSES,
    GENDERS,
    MEDICARE_STATUSES,
    RACES,
    WRINKLE_RATES,
    SyntheticConfig,
    _ptr,
    day_to_iso,
    generate_population,
    iso_to_day,
    text_words,
    write_npz,
)
from seqfuse.cohort import (
    _RACE_LABELS,
    _STAY_TEXT,
    AGE_BANDS,
    LOOKBACK_DAYS,
    MAX_LOS_DAYS,
    POPULATION_MEMBERS,
    READMIT_WINDOW_DAYS,
    age_band,
    build_cohort,
    index_event_lines,
)
from seqfuse.cohort import cohort_summary as kernel_cohort_summary
from seqfuse.autodiff import Tensor, _result
from seqfuse.baseline import LrModel, _nll_l2
from seqfuse.errors import DimensionError, NumericsError, ValidationError
from seqfuse.features import (
    SUBGROUP_KEYS,
    EventTable,
    SequenceOptions,
    _domain_names,
    _z_age_band,
    charlson_band,
)
from seqfuse.knowledge import CcsMap, HacRule, KnowledgeBundle, PlannedRules, load_charlson_weights
from seqfuse.rng import Xoshiro256, derive_seed


# --- records ----------------------------------------------------------------------

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
        """The rules `claims.check_claim_columns` holds each claim row to."""
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
        """The rules `claims.check_claim_columns` holds each beneficiary row to."""
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


def truth_records(truth: dict[str, np.ndarray]) -> list[GroundTruth]:
    """The ground-truth columns of `SyntheticPopulation.truth` as records."""
    row, cats = np.nonzero(truth["pooled"])
    # Row i's pooled categories, ascending, are cats[bounds[i] : bounds[i + 1]].
    bounds, cats = np.searchsorted(row, np.arange(len(truth["patient"]) + 1)).tolist(), cats.tolist()
    names = ("patient", "admit", "discharge", "readmit", "mortality", "p_readmit", "p_mortality", "charlson", "los", "ed_12m")
    rows = zip(*(truth[name].tolist() for name in names))
    return [
        GroundTruth(f"B{patient:06d}", *fields, tuple(cats[start:end]))
        for (patient, *fields), start, end in zip(rows, bounds, bounds[1:])
    ]


# --- the synthetic population ---------------------------------------------------


@dataclass
class RecordPopulation:
    beneficiaries: list[Beneficiary]
    claims: list[ClaimRecord]
    truth: list[GroundTruth]
    info: dict


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


def _anchor_los(long_stay: bool, rng: Xoshiro256) -> int:
    if long_stay:
        return 31 + rng.randint(0, 14)
    los = 1 + rng.poisson(2.2)
    if rng.random() < 0.15:
        los += rng.randint(4, 12)
    return min(los, 28)


def _late_decoy_fits(ld_admit: int, death: int | None, taken: list[tuple[int, int]]) -> bool:
    return (death is None or ld_admit + 4 < death) and _free_span(ld_admit, 3, taken)


def charlson_index(dx_codes, ccs: CcsMap, weights: dict[int, int]) -> int:
    """Sums weights over the distinct condition groups present in a code set.

    Multiple codes in the same group count once.
    """
    cats = {ccs.dx_category(code) for code in dx_codes}
    return sum(weights.get(cat, 0) for cat in cats)


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
    los = _anchor_los(long_stay, rng)
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
            if _late_decoy_fits(ld_admit, death, taken):
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


def reference_population(cfg: SyntheticConfig) -> RecordPopulation:
    """The synthetic population, one patient at a time from its own
    scalar stream: the records `claims.generate_population` must code
    into the same columns, with the same ground truth and summary."""
    cfg.validate()
    ccs = CcsMap.synthetic(cfg.dx_vocab, cfg.proc_vocab)
    weights = load_charlson_weights()
    beneficiaries: list[Beneficiary] = []
    claims: list[ClaimRecord] = []
    truth: list[GroundTruth] = []
    for i in range(cfg.n_patients):
        ben, patient_claims, row = _gen_patient(i, cfg, ccs, weights, Xoshiro256(derive_seed(cfg.seed, "patient", i)))
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
    return RecordPopulation(beneficiaries, claims, truth, info)


def population_records(cfg: SyntheticConfig) -> RecordPopulation:
    """`claims.generate_population` read back as records."""
    population = generate_population(cfg)
    return RecordPopulation(*read_population_npz(population.columns), truth_records(population.truth), population.info)


# --- cohort ---------------------------------------------------------------------


def age_at(ben: Beneficiary, day: int) -> int:
    return int(math.floor((day - ben.birth_date) / 365.25))


def covers(ben: Beneficiary, start: int, end: int) -> bool:
    """True when enrollment is continuous over [start, end]; intervals
    that touch back-to-back (next start = prev end + 1) count as one."""
    merged_start = None
    merged_end = None
    for s, e in ben.enrollment_intervals:
        if merged_end is not None and s <= merged_end + 1:
            merged_end = max(merged_end, e)
        else:
            if merged_start is not None and merged_start <= start and end <= merged_end:
                return True
            merged_start, merged_end = s, e
    return merged_start is not None and merged_start <= start and end <= merged_end


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
    max_los_days: int = MAX_LOS_DAYS
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
        age = age_at(ben, stay.admit_date)
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
        elif not covers(ben, stay.admit_date - policy.lookback_days, stay.discharge_date + policy.window_days):
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


def reference_cohort(
    beneficiaries: list[Beneficiary],
    claims: list[ClaimRecord],
    rules: PlannedRules,
    ccs: CcsMap,
    acute_drgs: frozenset[str],
) -> tuple[list[IndexEvent], list[InpatientStay], dict]:
    """End-to-end cohort pass over records: stays, screening, both labels,
    audit counts."""
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


def population_columns(
    beneficiaries: list[Beneficiary],
    claims: list[ClaimRecord],
    stays: list[InpatientStay],
    events: list[IndexEvent],
) -> dict[str, np.ndarray]:
    """The records and the cohort built from them as columns, each in the
    order given: the claim columns with the arrays of
    `cohort/population.npz`, one string at a time.

    Every string is an int32 code (-1 for None) into one table of the
    distinct strings in sorted order, so codes compare as their strings
    do. The table is stored as UTF-8 bytes (`text`) with CSR offsets
    (`text_ptr`), which `text_words` decodes. Dates are int32 day numbers,
    and enrollment intervals and code tuples are CSR rows (a stay's
    `all_dx` and `all_proc` exactly as `resolve_stays` built them,
    duplicates kept). Each event names its stay's row. The records are not
    validated again: pass sorted records and what `reference_cohort` built
    from them.
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


def event_row(event: IndexEvent) -> dict:
    """One line of `cohort/index_events.jsonl`, before JSON encoding."""
    return {
        "event_id": event.event_id,
        "beneficiary_id": event.stay.beneficiary_id,
        "stay_id": event.stay.stay_id,
        "admit_date": day_to_iso(event.stay.admit_date),
        "discharge_date": day_to_iso(event.stay.discharge_date),
        "age": event.age,
        "los": event.stay.los,
        "exclusion_reason": event.exclusion_reason,
        "readmit_label": event.readmit_label,
        "readmit_stay_id": event.readmit_stay_id,
        "mortality_label": event.mortality_label,
        "mortality_exclusion": event.mortality_exclusion,
    }


def _npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    write_npz(buf, arrays)
    return buf.getvalue()


def checked_cohort(
    beneficiaries: list[Beneficiary],
    claims: list[ClaimRecord],
    rules: PlannedRules,
    ccs: CcsMap,
    acute_drgs: frozenset[str],
) -> tuple[dict[str, np.ndarray], list[IndexEvent], list[InpatientStay], dict]:
    """The kernel's cohort columns for records (`build_cohort` over
    `claim_columns`), after checking that the four files cohort writes
    from them equal the reference's byte for byte; and the reference's
    events, stays and audit."""
    bens = sorted(beneficiaries, key=lambda b: b.beneficiary_id)
    claims = sorted(claims, key=lambda c: (c.beneficiary_id, c.admit_date, c.discharge_date, c.claim_id))
    events, stays, audit = reference_cohort(bens, claims, rules, ccs, acute_drgs)
    cols, kernel_audit = build_cohort(claim_columns(bens, claims), rules, ccs, acute_drgs)
    expected = population_columns(bens, claims, stays, events)
    # Cohort writes the stays and events to population.npz; the claim
    # columns stay in generate/claims.npz, and build_cohort hands them on.
    assert [name for name in expected if name not in CLAIM_COLUMNS] == list(POPULATION_MEMBERS)
    assert _npz_bytes({name: cols[name] for name in expected}) == _npz_bytes(expected)
    rows = "".join(json.dumps(event_row(event), sort_keys=True) + "\n" for event in events)
    assert index_event_lines(cols) == rows
    assert kernel_cohort_summary(cols) == cohort_summary(events, {b.beneficiary_id: b for b in bens})
    assert json.dumps(kernel_audit, sort_keys=True) == json.dumps(audit, sort_keys=True)
    return cols, events, stays, audit


# --- featurization ---------------------------------------------------------------


def hac_flags(dx_cats, proc_cats, rules: list[HacRule]) -> list[int]:
    """One 0/1 flag per rule; a rule fires on any listed dx or proc category."""
    dx = set(dx_cats)
    proc = set(proc_cats)
    return [1 if (dx & rule.dx_ccs or proc & rule.proc_ccs) else 0 for rule in rules]


def _one_hot(value: str, levels: tuple[str, ...]) -> list[float]:
    vec = [0.0] * (len(levels) + 1)
    try:
        vec[levels.index(value)] = 1.0
    except ValueError:
        vec[-1] = 1.0
    return vec


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
    itself is the final step unless excluded; an event left with no step
    raises `ValidationError`.
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
    plus the index stay. Unknown categorical values land in each feature's
    reserved (other) slot.
    """
    return _domain_values(event, beneficiary, claims, stays, bundle), _domain_names(bundle)


def _domain_values(
    event: IndexEvent,
    beneficiary: Beneficiary,
    claims: list[ClaimRecord],
    stays: list[InpatientStay],
    bundle: KnowledgeBundle,
) -> list[float]:
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


def reference_table(
    events: list[IndexEvent],
    beneficiaries: dict[str, Beneficiary],
    claims: list[ClaimRecord],
    stays: list[InpatientStay],
    bundle: KnowledgeBundle,
    opts: SequenceOptions = SequenceOptions(),
) -> tuple[EventTable, list[str]]:
    """Every eligible event with a visit step, featurized one at a time,
    as an `EventTable` with the kernel's dtypes; and the names of z."""
    claims_by_ben: dict[str, list[ClaimRecord]] = {}
    for claim in claims:
        claims_by_ben.setdefault(claim.beneficiary_id, []).append(claim)
    stays_by_ben: dict[str, list[InpatientStay]] = {}
    for stay in stays:
        stays_by_ben.setdefault(stay.beneficiary_id, []).append(stay)

    z_names = _domain_names(bundle)
    charlson_at = z_names.index("charlson_index")
    cols: dict[str, list] = {f.name: [] for f in fields(EventTable)}
    for event in events:
        if not event.eligible:
            continue
        bid = event.stay.beneficiary_id
        ben_claims = claims_by_ben.get(bid, [])
        ben_stays = stays_by_ben.get(bid, [])
        try:
            steps = build_sequence(event, ben_claims, ben_stays, bundle.ccs, opts)
        except ValidationError:
            continue
        ben = beneficiaries[bid]
        z = _domain_values(event, ben, ben_claims, ben_stays, bundle)
        assert len(z) == len(z_names)
        procs = sorted({bundle.ccs.proc_category(p) for p in event.stay.all_proc})
        row = {
            "event_id": event.event_id,
            "beneficiary_id": ben.beneficiary_id,
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


def read_population_npz(cols) -> tuple[list[Beneficiary], list[ClaimRecord]]:
    """The beneficiaries and claims stored in `claim_columns` form (as in
    `generate/claims.npz` and `cohort/population.npz`), equal to the
    records given to it and in its order."""
    words = text_words(cols, np.arange(-1, len(cols["text_ptr"]) - 1))
    cols = {key: np.asarray(cols[key]).tolist() for key in cols if key.startswith(("beneficiary.", "claim."))}

    def text(name: str) -> list:
        return [words[code] for code in cols[name]]

    def rows(name: str, values: list) -> list[tuple]:
        bounds = cols[f"{name}_ptr"]
        return [tuple(values[start:end]) for start, end in zip(bounds, bounds[1:])]

    ben = {name: text(f"beneficiary.{name}") for name in _BEN_TEXT}
    ben["birth_date"] = cols["beneficiary.birth_date"]
    ben["dual_eligible"] = cols["beneficiary.dual_eligible"]
    ben["enrollment_intervals"] = rows("beneficiary.enrollment", list(map(tuple, cols["beneficiary.enrollment"])))
    ben["death_date"] = [
        day if known else None for day, known in zip(cols["beneficiary.death_date"], cols["beneficiary.has_death_date"])
    ]
    claim = {name: text(f"claim.{name}") for name in _CLAIM_TEXT}
    claim.update({name: rows(f"claim.{name}", text(f"claim.{name}")) for name in _CLAIM_CODES})
    claim.update({name: cols[f"claim.{name}"] for name in ("admit_date", "discharge_date")})
    beneficiaries = list(map(Beneficiary, *(ben[f.name] for f in fields(Beneficiary))))
    claims = list(map(ClaimRecord, *(claim[f.name] for f in fields(ClaimRecord))))
    return beneficiaries, claims


def reference_nearest_neighbors(rows: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest other rows by squared Euclidean
    distance, ties broken by index, from the full distance matrix. The
    (rows, n, d) differences are formed 8 MiB at a time; each entry is the
    same last-axis sum whatever the block size."""
    n = len(rows)
    block_rows = max(1, (8 << 20) // (8 * n * rows.shape[1]))
    d2 = np.empty((n, n))
    for start in range(0, n, block_rows):
        block = rows[start : start + block_rows]
        d2[start : start + len(block)] = ((block[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="mergesort")[:, :k]


# --- the model's input layout -------------------------------------------------


def steps_table(step_lists: list[list[list[int]]]) -> EventTable:
    """An `EventTable` whose event i has the visit steps step_lists[i] (each
    a list of category indices), and placeholders in every other column."""
    n = len(step_lists)
    steps = [step for seq in step_lists for step in seq]
    return EventTable(
        event_id=np.array([f"E{i}" for i in range(n)], dtype=np.str_),
        beneficiary_id=np.array([f"B{i}" for i in range(n)], dtype=np.str_),
        **{name: np.zeros(n, dtype=bool) for name in ("readmit_label", "mortality_label", "mortality_excluded")},
        z=np.zeros((n, 0)),
        step_ptr=_ptr([len(seq) for seq in step_lists]),
        day_offset=np.zeros(len(steps), dtype=np.int64),
        idx_ptr=_ptr([len(step) for step in steps]),
        indices=np.array(list(chain.from_iterable(steps)), dtype=np.int64),
        **{name: np.full(n, "", dtype=np.str_) for name in SUBGROUP_KEYS},
        proc_ptr=np.zeros(n + 1, dtype=np.int64),
        proc_ccs=np.zeros(0, dtype=np.int64),
    )


def table_steps(table: EventTable) -> list[list[list[int]]]:
    """Per event, per step, the category indices of the table's CSR columns."""
    idx_ptr = table.idx_ptr.tolist()
    steps = [table.indices[start:end].tolist() for start, end in zip(idx_ptr, idx_ptr[1:])]
    step_ptr = table.step_ptr.tolist()
    return [steps[start:end] for start, end in zip(step_ptr, step_ptr[1:])]


def reference_padding(step_lists: list[list[list[int]]]) -> tuple[list[list[int]], np.ndarray]:
    """The batch left-padded to its longest sequence: the index list of each
    step-major row t*B + b (empty for a padded step) and the (T, B) mask."""
    batch = len(step_lists)
    t_len = max(len(steps) for steps in step_lists)
    mask = np.zeros((t_len, batch))
    rows: list[list[int]] = [[] for _ in range(t_len * batch)]
    for b, steps in enumerate(step_lists):
        offset = t_len - len(steps)
        mask[offset:, b] = 1.0
        for t, indices in enumerate(steps, start=offset):
            rows[t * batch + b] = indices
    return rows, mask


def reference_embedding_lookup(weights: Tensor, index_lists: list[list[int]]) -> Tensor:
    """Row i is the sum of the `weights` rows named by index_lists[i]."""
    rows = len(index_lists)
    counts = np.fromiter((len(idxs) for idxs in index_lists), dtype=np.intp, count=rows)
    flat = np.fromiter(chain.from_iterable(index_lists), dtype=np.intp, count=int(counts.sum()))
    if flat.size and (flat.min() < 0 or flat.max() >= weights.shape[0]):
        raise DimensionError(f"embedding_lookup: index out of range for {weights.shape[0]} rows")
    row_of = np.repeat(np.arange(rows), counts)
    out = np.zeros((rows, weights.shape[1]))
    np.add.at(out, row_of, weights.data[flat])

    def vjp(g):
        gw = np.zeros_like(weights.data)
        np.add.at(gw, flat, g[row_of])
        return (gw,)

    return _result("embedding_lookup", out, (weights,), vjp)


# --- the logistic baseline --------------------------------------------------------


def reference_train_lr(
    matrix: np.ndarray,
    labels: np.ndarray,
    l2: float,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> LrModel:
    """Damped-Newton logistic regression; the intercept is unpenalized.

    Expects standardized columns (fit on the training fold); an all-zero
    column, the residue of a constant input, keeps weight exactly zero.
    Requires l2 > 0 so separable data stays bounded.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if matrix.ndim != 2 or matrix.shape[0] != len(y):
        raise ValidationError("matrix rows and labels must align")
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValidationError("labels must be 0/1")
    if l2 <= 0:
        raise ValidationError("l2 must be positive")
    n, d = matrix.shape
    aug = np.hstack([matrix, np.ones((n, 1))])
    theta = np.zeros(d + 1)
    penalty = np.concatenate([np.full(d, l2), [0.0]])
    current = _nll_l2(aug @ theta, y, theta[:d], l2)
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        margins = aug @ theta
        p = 1.0 / (1.0 + np.exp(-margins))
        grad = aug.T @ (p - y) / n + penalty * theta
        if np.max(np.abs(grad)) <= tol:
            converged = True
            break
        weights = p * (1.0 - p)
        hess = (aug.T * weights) @ aug / n + np.diag(penalty)
        # The intercept row has no penalty; weights > 0 keeps it invertible.
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"Newton system singular at iteration {n_iter}") from exc
        scale = 1.0
        for _ in range(30):
            candidate = theta - scale * step
            value = _nll_l2(aug @ candidate, y, candidate[:d], l2)
            if value <= current:
                theta = candidate
                current = value
                break
            scale *= 0.5
        else:
            raise NumericsError(f"line search failed at iteration {n_iter}")
    else:
        margins = aug @ theta
        p = 1.0 / (1.0 + np.exp(-margins))
        grad = aug.T @ (p - y) / n + penalty * theta
        converged = bool(np.max(np.abs(grad)) <= tol)
    if not converged:
        raise NumericsError(f"logistic regression did not converge in {max_iter} iterations")
    return LrModel(weights=theta[:d].copy(), intercept=float(theta[d]), n_iter=n_iter, converged=converged)
