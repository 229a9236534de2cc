"""Cohort construction: stays, index events, and outcome labels.

Inpatient claims are first resolved into stays (transfer chains and
same-day fragments merge into one stay), then each stay is screened
against the index-event criteria, and finally eligible events get a
30-day unplanned-readmission label and an unexpected-mortality label.

`build_cohort` does all three in one pass of numpy operations over the
claim columns that `claims.ingest_claims` returns, and adds the stays and
events as columns. Cohort writes only what it added to `population.npz`
(`POPULATION_MEMBERS`), since the claims stay in `generate/claims.npz`,
and `summary.csv` (`cohort_summary`); `show events` prints the events as JSON
lines (`index_event_lines`), named by `claims.event_id`. The record-based
definition the kernel must equal byte for byte lives in `tests/reference.py`.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter

import numpy as np

from .claims import _CLAIM_CODES, ESRD_STATUSES, GENDERS, RACES, _ptr, _ranges, code_table, day_to_iso, event_id, text_words
from .knowledge import CcsMap, PlannedRules

EXCLUSION_REASONS = (
    "not_acute_short_stay",
    "age",
    "expired_inpatient",
    "transferred_out",
    "enrollment_gap",
)
MORTALITY_EXCLUSIONS = ("ama", "hospice")

READMIT_WINDOW_DAYS = 30
LOOKBACK_DAYS = 365
MAX_LOS_DAYS = 30

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

# The arrays of `cohort/population.npz`, in the order they are written: the
# stays, with a stay's `all_dx` and `all_proc` exactly as the stays were
# merged (duplicates kept), and each event's stay row. Their strings are
# codes into the string table of `generate/claims.npz`, which holds the
# claim columns; featurize reads both files.
POPULATION_MEMBERS = (
    *(f"stay.{name}" for name in ("admit_date", "discharge_date", "all_dx_ptr", "all_proc_ptr")),
    *(f"event.{name}" for name in ("stay", "age", "eligible", "readmit_label", "mortality_label", "mortality_excluded")),
    *(f"stay.{name}" for name in _STAY_TEXT + ("all_dx", "all_proc")),
)


def build_cohort(
    cols: dict[str, np.ndarray],
    rules: PlannedRules,
    ccs: CcsMap,
    acute_drgs: frozenset[str],
) -> tuple[dict[str, np.ndarray], dict]:
    """The claim columns with the stays and index events added, and the
    audit counts. One event per stay, in stay order; besides the members
    of `POPULATION_MEMBERS`, each event gets `event.exclusion` and
    `event.mortality_exclusion` (indices into `EXCLUSION_REASONS` and
    `MORTALITY_EXCLUSIONS`, -1 for none) and `event.readmit_stay` (the
    stay row credited as its readmission, -1 for none).

    Stays: a beneficiary's inpatient claims, in order, join the open stay
    when they start on or before its discharge day, or on the next day if
    it ended in an acute transfer. A stay keeps its first claim's id,
    admission fields and principal dx, and its last claim's disposition
    and DRG; a stay of one claim keeps its codes as they are, and a merged
    stay the first occurrence of each. Screen, first failure wins: more
    than `MAX_LOS_DAYS` or not acute (emergent, urgent or an acute DRG),
    under 65 without ESRD, died, transferred out, or not enrolled from
    `LOOKBACK_DAYS` before admission to `READMIT_WINDOW_DAYS` after
    discharge (back-to-back intervals count as one). An eligible event's
    readmission candidate is the beneficiary's next stay if it is admitted
    within the window; a planned candidate gives a negative label. Its
    death in the window is positive unless it was discharged against
    medical advice or into hospice, or a hospice stay was admitted between
    its discharge and the death, which exclude it from the mortality task.
    """
    cols = dict(cols)
    n_words = len(cols["text_ptr"]) - 1

    def has(name: str, words, rows=slice(None)) -> np.ndarray:
        """Whether each row of column `name` holds one of `words`."""
        values = cols[name][rows]
        return code_table(cols, values, words.__contains__)[values]

    def in_category(name: str, category, allowed: frozenset[int]) -> np.ndarray:
        """Whether each code of column `name` falls in a category of `allowed`."""
        return code_table(cols, cols[name], lambda word: category(word) in allowed)[cols[name]]

    # Stays. Claims come sorted by beneficiary and admission, so a claim
    # that starts a stay starts after every earlier discharge of its
    # beneficiary, and the open stay's discharge is the latest of them.
    claim = np.flatnonzero(has("claim.claim_type", ("inpatient",)))
    ben = cols["claim.beneficiary_id"][claim]
    admit = cols["claim.admit_date"][claim].astype(np.int64)
    discharge = cols["claim.discharge_date"][claim].astype(np.int64)
    starts = _run_starts(ben)
    offset = (np.cumsum(starts) - 1) * (discharge.max(initial=0) - discharge.min(initial=0) + 1)
    latest = np.maximum.accumulate(offset + discharge) - offset
    grace = has("claim.discharge_disposition", ("transfer_acute",), claim)
    starts[1:] |= admit[1:] > latest[:-1] + grace[:-1]
    ends = _run_ends(starts)
    stay_of = np.cumsum(starts) - 1
    first, last = claim[starts], claim[ends]
    n = len(first)
    stay = {
        "stay.admit_date": admit[starts].astype(np.int32),
        "stay.discharge_date": latest[ends].astype(np.int32),
        "stay.beneficiary_id": ben[starts],
        "stay.stay_id": cols["claim.claim_id"][first],
        "stay.principal_dx": cols["claim.dx_codes"][cols["claim.dx_codes_ptr"][first]],
        **{f"stay.{name}": cols[f"claim.{name}"][first] for name in ("admission_type", "admission_source")},
        **{f"stay.{name}": cols[f"claim.{name}"][last] for name in ("drg", "discharge_disposition")},
    }
    merged = np.bincount(stay_of, minlength=n) > 1
    for name, codes in zip(("all_dx", "all_proc"), _CLAIM_CODES):
        ptr = cols[f"claim.{codes}_ptr"]
        lengths = ptr[claim + 1] - ptr[claim]
        values = cols[f"claim.{codes}"][_ranges(ptr[claim], lengths)[1]]
        owner = np.repeat(stay_of, lengths)
        keep = ~merged[owner]
        keep[np.unique(owner * n_words + values, return_index=True)[1]] = True
        stay[f"stay.{name}_ptr"] = _ptr(np.bincount(owner[keep], minlength=n))
        stay[f"stay.{name}"] = values[keep]
    cols.update(stay)

    # The screen.
    ben = stay["stay.beneficiary_id"]
    admit, discharge = admit[starts], latest[ends]
    ben_row = np.searchsorted(cols["beneficiary.beneficiary_id"], ben)
    age = np.floor((admit - cols["beneficiary.birth_date"][ben_row]) / 365.25).astype(np.int64)
    acute = has("stay.admission_type", ("emergent", "urgent")) | has("stay.drg", acute_drgs)
    failed = np.array(
        [
            (discharge - admit > MAX_LOS_DAYS) | ~acute,
            (age < 65) & ~has("beneficiary.medicare_status", ESRD_STATUSES, ben_row),
            has("stay.discharge_disposition", ("expired",)),
            has("stay.discharge_disposition", ("transfer_acute",)),
            ~_enrolled(cols, ben_row, admit - LOOKBACK_DAYS, discharge + READMIT_WINDOW_DAYS),
        ]
    )
    exclusion = np.where(failed.any(axis=0), failed.argmax(axis=0), -1)
    eligible = exclusion < 0

    # Row n is a sentinel stay of no beneficiary, for "no such stay".
    ben, admit = np.r_[ben, -2], np.r_[admit, 0]

    # Readmission: stays are disjoint, so the first stay admitted after a
    # discharge is the beneficiary's next one.
    following = np.arange(1, n + 1)
    candidate = eligible & (ben[following] == ben[:n]) & (admit[following] <= discharge + READMIT_WINDOW_DAYS)
    override = in_category("stay.principal_dx", ccs.dx_category, rules.acute_override_dx_ccs)
    maintenance = in_category("stay.principal_dx", ccs.dx_category, rules.maintenance_dx_ccs)
    planned_proc = in_category("stay.all_proc", ccs.proc_category, rules.planned_proc_ccs)
    owner = np.repeat(np.arange(n), np.diff(stay["stay.all_proc_ptr"]))
    planned = ~override & (maintenance | (np.bincount(owner[planned_proc], minlength=n) > 0))
    readmitted = candidate & ~np.r_[planned, False][following]

    # Mortality. The first hospice stay after a stay, if it is of the same
    # beneficiary, is the earliest hospice admission after its discharge.
    death = cols["beneficiary.death_date"][ben_row]
    dies = (
        eligible
        & cols["beneficiary.has_death_date"][ben_row]
        & (discharge < death)
        & (death <= discharge + READMIT_WINDOW_DAYS)
    )
    hospice = has("stay.discharge_disposition", ("hospice",))
    next_hospice = np.r_[np.flatnonzero(hospice), n][np.searchsorted(np.flatnonzero(hospice), following)]
    ama = dies & has("stay.discharge_disposition", ("ama",))
    in_hospice = dies & ~ama & (hospice | ((ben[next_hospice] == ben[:n]) & (admit[next_hospice] <= death)))
    cols.update(
        {
            "event.stay": np.arange(n, dtype=np.int64),
            "event.age": age.astype(np.int32),
            "event.eligible": eligible,
            "event.readmit_label": readmitted,
            "event.mortality_label": dies & ~ama & ~in_hospice,
            "event.mortality_excluded": ama | in_hospice,
            "event.exclusion": exclusion,
            "event.readmit_stay": np.where(readmitted, following, -1),
            "event.mortality_exclusion": np.select([ama, in_hospice], [0, 1], -1),
        }
    )
    audit = {
        "n_stays": n,
        "n_events": n,
        "n_eligible": int(eligible.sum()),
        "exclusions": _counts(EXCLUSION_REASONS, exclusion),
        "readmit_positive": int(readmitted.sum()),
        "mortality_positive": int(cols["event.mortality_label"].sum()),
        "mortality_excluded": _counts(MORTALITY_EXCLUSIONS, cols["event.mortality_exclusion"]),
    }
    return cols, audit


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Whether each row starts a run of equal keys."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def _run_ends(starts: np.ndarray) -> np.ndarray:
    """Whether each row ends a run, given where the runs start."""
    ends = np.ones(len(starts), dtype=bool)
    ends[:-1] = starts[1:]
    return ends


def _enrolled(cols, ben_row: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Whether each beneficiary row's enrollment covers [start, end]
    without a gap; intervals that touch back-to-back (next start = previous
    end + 1) count as one."""
    ptr = cols["beneficiary.enrollment_ptr"]
    owner = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    interval = cols["beneficiary.enrollment"].astype(np.int64)
    runs = _run_starts(owner)
    runs[1:] |= interval[1:, 0] > interval[:-1, 1] + 1
    owner, run_start, run_end = owner[runs], interval[runs, 0], interval[_run_ends(runs), 1]
    # Runs sort by (owner, start): find each row's last run that starts by
    # `start`, with both keys packed into one integer.
    low = min(run_start.min(initial=0), start.min(initial=0))
    scale = max(run_start.max(initial=0), start.max(initial=0)) - low + 1
    found = np.searchsorted(owner * scale + run_start - low, ben_row * scale + start - low, "right") - 1
    return (found >= 0) & (owner[found] == ben_row) & (run_end[found] >= end)


def _counts(names: tuple[str, ...], index: np.ndarray) -> dict[str, int]:
    """{name: count} of each name that `index` points at, sorted by name."""
    counts = np.bincount(index[index >= 0], minlength=len(names)).tolist()
    return {name: count for name, count in sorted(zip(names, counts)) if count}


def index_event_lines(cols) -> str:
    """What `seqfuse show events` prints: each event of `build_cohort` as
    one JSON object with sorted keys; a label or exclusion the event does
    not have reads null."""
    stay = cols["event.stay"]
    ben, stay_id = cols["stay.beneficiary_id"][stay], cols["stay.stay_id"][stay]
    readmit_stay = cols["event.readmit_stay"]
    credited = np.where(readmit_stay >= 0, cols["stay.stay_id"][readmit_stay], -1)
    word = text_words(cols, np.concatenate([ben, stay_id, credited])).__getitem__
    eligible = cols["event.eligible"].tolist()

    def label(name: str) -> list[bool | None]:
        return [bool(value) if ok else None for value, ok in zip(cols[name].tolist(), eligible)]

    def named(names: tuple[str, ...], index: np.ndarray) -> list[str | None]:
        return [names[i] if i >= 0 else None for i in index.tolist()]

    lines = []
    for b, s, a, d, age, reason, readmit, credit, mortality, mortality_reason in zip(
        ben.tolist(),
        stay_id.tolist(),
        cols["stay.admit_date"][stay].tolist(),
        cols["stay.discharge_date"][stay].tolist(),
        cols["event.age"].tolist(),
        named(EXCLUSION_REASONS, cols["event.exclusion"]),
        label("event.readmit_label"),
        credited.tolist(),
        label("event.mortality_label"),
        named(MORTALITY_EXCLUSIONS, cols["event.mortality_exclusion"]),
    ):
        event = {
            "admit_date": day_to_iso(a),
            "age": age,
            "beneficiary_id": word(b),
            "discharge_date": day_to_iso(d),
            "event_id": event_id(word(b), a),
            "exclusion_reason": reason,
            "los": d - a,
            "mortality_exclusion": mortality_reason,
            "mortality_label": mortality,
            "readmit_label": readmit,
            "readmit_stay_id": word(credit),
            "stay_id": word(s),
        }
        lines.append(json.dumps(event, sort_keys=True) + "\n")
    return "".join(lines)


AGE_BANDS = ("Unknown", "<65", "65~69", "70~74", "75~79", "80~84", ">85")
# Where each age band after the first starts.
_AGE_CUTS = (65, 70, 75, 80, 85)


def age_band_index(age) -> np.ndarray:
    """Which age band each age falls in: 0 under 65, then one band per
    five years, and 5 from 85 on, labelled `AGE_BANDS[1:]` in z's age
    block, and so in the subgroups read back from it."""
    return np.searchsorted(_AGE_CUTS, age, side="right")


def cohort_summary(cols) -> str:
    """Race, gender, and age-band breakdown of beneficiaries with at least
    one eligible index event (at their first), as CSV with count and
    percentage rows."""
    events = np.flatnonzero(cols["event.eligible"])
    ben = cols["stay.beneficiary_id"][cols["event.stay"][events]]
    _, first = np.unique(ben, return_index=True)
    row = np.searchsorted(cols["beneficiary.beneficiary_id"], ben[first])
    total = len(first)

    def counts(name: str) -> Counter[str]:
        codes = cols[f"beneficiary.{name}"][row]
        return Counter(map(text_words(cols, codes).__getitem__, codes.tolist()))

    race_counts, gender_counts = counts("race"), counts("gender")
    age_counts = Counter(AGE_BANDS[1 + band] for band in age_band_index(cols["event.age"][events[first]]).tolist())

    def pct(n: int) -> str:
        return f"{(100.0 * n / total):.2f}%" if total else "0.00%"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Total beneficiaries", total])

    race_values = [race_counts.get(race, 0) for race in RACES]
    writer.writerow(["Race"] + [race.replace("_", " ").title() for race in RACES] + ["Total"])
    writer.writerow(["Counts"] + race_values + [total])
    writer.writerow(["Percentage"] + [pct(v) for v in race_values] + [pct(total)])

    gender_values = [gender_counts.get(gender, 0) for gender in GENDERS]
    writer.writerow(["Gender"] + [gender.title() for gender in GENDERS] + ["Total"])
    writer.writerow(["Counts"] + gender_values + [total])
    writer.writerow(["Percentage"] + [pct(v) for v in gender_values] + [pct(total)])

    age_values = [age_counts.get(band, 0) for band in AGE_BANDS]
    writer.writerow(["Age Range"] + list(AGE_BANDS) + ["Total"])
    writer.writerow(["Counts"] + age_values + [total])
    writer.writerow(["Percentage"] + [pct(v) for v in age_values] + [pct(total)])
    return buf.getvalue()
