"""The per-event definition of featurization, kept as the reference the
columnar kernel `features.featurize_events` must equal byte for byte.

Each function here builds one event's visit steps or domain vector from
record objects, one event at a time, the way the kernel's docstring
describes; `reference_table` assembles them into an `EventTable` with the
kernel's dtypes. `read_population_npz` rebuilds the records from the
columns of `cohort.population_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from seqfuse.claims import _BEN_TEXT, _CLAIM_CODES, _CLAIM_TEXT, Beneficiary, ClaimRecord, _ptr
from seqfuse.cohort import (
    LOOKBACK_DAYS,
    IndexEvent,
    InpatientStay,
    age_band,
    text_words,
)
from seqfuse.errors import ValidationError
from seqfuse.features import (
    SUBGROUP_KEYS,
    EventTable,
    SequenceOptions,
    _domain_names,
    _z_age_band,
    charlson_band,
)
from seqfuse.knowledge import CcsMap, HacRule, KnowledgeBundle, charlson_index


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
    """The beneficiaries and claims stored in `population_columns` form,
    equal to the records given to it and in the same order."""
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
