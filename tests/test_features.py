"""Sequence construction and the hand-crafted vector: the columnar kernel
checked against values computed on paper, and against the per-event
reference (tests/reference.py) byte for byte, on hand-built worlds and on
whole synthetic populations."""

import itertools
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from seqfuse.claims import (
    ADMISSION_SOURCES,
    ADMISSION_TYPES,
    DISPOSITIONS,
    GENDERS,
    MEDICARE_STATUSES,
    RACES,
    day_to_iso,
    read_npz,
    write_npz,
)
from seqfuse.cohort import AGE_BANDS
from seqfuse.errors import PrerequisiteError, ValidationError
from seqfuse.features import SUBGROUP_KEYS, EventTable, SequenceOptions, charlson_band, featurize_events
from seqfuse.knowledge import load_acute_drgs
from tests.reference import (
    DEMO_OPTIONS,
    Z_BLOCKS,
    ClaimRecord,
    age_band,
    build_domain_vector,
    build_sequence,
    checked_cohort,
    demo_synthetic,
    population_columns,
    population_records,
    reference_cohort,
    reference_table,
    reference_z_names,
    steps_table,
    table_steps,
)
from tests.test_cohort import DAY0, ben, inpatient


def point_claim(bid="B1", day=DAY0 - 30, kind="ed", dx=("D0085",), proc=(), claim_id=None):
    # D0085 maps to dx category 28, a symptom code.
    return ClaimRecord(
        claim_id=claim_id or f"PT{day}",
        beneficiary_id=bid,
        claim_type=kind,
        admit_date=day,
        discharge_date=day,
        dx_codes=tuple(dx),
        proc_codes=tuple(proc),
    )


def _same_table(a: EventTable, b: EventTable, exact: bool = True) -> None:
    """Equal column by column in dtype, shape and bytes; or, not `exact`,
    in dtype kind and values (string widths may differ)."""
    for name in EventTable.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if exact:
            assert (left.dtype, left.shape) == (right.dtype, right.shape), name
            assert left.tobytes() == right.tobytes(), name
        else:
            assert left.dtype.kind == right.dtype.kind, name
            np.testing.assert_array_equal(left, right, err_msg=name)


def _same_groups(table: EventTable, z_names: list[str], expected: dict[str, np.ndarray]) -> None:
    """`table.subgroups` equals `expected` (from `reference_table`), in
    partitions, order and values."""
    groups = table.subgroups(z_names)
    assert list(groups) == list(SUBGROUP_KEYS) == list(expected)
    for key in SUBGROUP_KEYS:
        assert groups[key].dtype.kind == "U" and groups[key].tolist() == expected[key].tolist(), key


def featurize_world(bens, claims, bundle, opts=DEMO_OPTIONS):
    """The kernel's table for hand-built records, after checking that it
    equals the per-event reference byte for byte, its subgroups the
    reference's labels (and the cohort kernel's columns it reads equal the
    record-based cohort's)."""
    cols, events, stays, _ = checked_cohort(bens, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
    table, z_names = featurize_events(cols, bundle, opts)
    expected, expected_names, groups = reference_table(
        events, {b.beneficiary_id: b for b in bens}, claims, stays, bundle, opts
    )
    _same_table(table, expected)
    assert z_names == expected_names
    _same_groups(table, z_names, groups)
    return table, z_names


def steps_of(table: EventTable, row: int) -> list[tuple[int, tuple[int, ...]]]:
    """(day offset, category indices) of each step of one event."""
    offsets = table.day_offset[table.step_ptr[row] : table.step_ptr[row + 1]].tolist()
    return [(offset, tuple(step)) for offset, step in zip(offsets, table_steps(table)[row])]


def z_of(table: EventTable, z_names: list[str], row: int) -> dict[str, float]:
    return dict(zip(z_names, table.z[row].tolist()))


def row_at(table: EventTable, bid: str, admit: int) -> int:
    return table.event_ids().index(f"{bid}@{day_to_iso(admit)}")


@pytest.fixture(scope="module")
def fixture_world(bundle):
    """One patient: an old stay, two point visits, and the index stay."""
    bens = [ben(bid="B1", birth_year=1939)]  # age 72 at DAY0
    history_stay = inpatient(bid="B1", admit=DAY0 - 200, los=2, dx=("D0004",), proc=("P0001",))
    ed_visit = point_claim(day=DAY0 - 30, kind="ed")
    op_visit = point_claim(day=DAY0 - 10, kind="outpatient", dx=("D0031",))
    index = inpatient(
        bid="B1", admit=DAY0, los=4, dx=("D0001", "D0072"), proc=("P0010",),
        atype="emergent", disposition="home_health",
    )
    return bens, [history_stay, ed_visit, op_visit, index]


class TestBuildSequence:
    def test_step_order_and_offsets(self, fixture_world, bundle):
        table, _ = featurize_world(*fixture_world, bundle)
        steps = steps_of(table, row_at(table, "B1", DAY0))
        assert [offset for offset, _ in steps] == [-200, -30, -10, 0]
        # The index step carries dx cats {0, 23} and proc cat 3 -> indices
        # 0, 23, and 31 + 3 = 34.
        assert steps[-1][1] == (0, 23, 34)
        # The ED visit carries only symptom category 28.
        assert steps[1][1] == (28,)

    def test_outpatient_steps_can_be_dropped(self, fixture_world, bundle):
        table, _ = featurize_world(*fixture_world, bundle, replace(DEMO_OPTIONS, include_outpatient=False))
        assert [offset for offset, _ in steps_of(table, row_at(table, "B1", DAY0))] == [-200, 0]

    def test_index_step_can_be_excluded(self, fixture_world, bundle):
        table, _ = featurize_world(*fixture_world, bundle, replace(DEMO_OPTIONS, exclude_index_step=True))
        assert [offset for offset, _ in steps_of(table, row_at(table, "B1", DAY0))] == [-200, -30, -10]

    def test_lookback_trims_old_visits(self, fixture_world, bundle):
        table, _ = featurize_world(*fixture_world, bundle, replace(DEMO_OPTIONS, lookback_days=100))
        assert [offset for offset, _ in steps_of(table, row_at(table, "B1", DAY0))] == [-30, -10, 0]

    def test_event_without_steps_is_dropped(self, bundle):
        bens = [ben(bid="B1"), ben(bid="B2")]
        claims = [
            inpatient(bid="B1", admit=DAY0, los=2),
            point_claim(bid="B2", day=DAY0 - 5, kind="outpatient"),
            inpatient(bid="B2", admit=DAY0, los=2),
        ]
        events, stays, _ = reference_cohort(bens, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
        with pytest.raises(ValidationError, match="no visits left"):
            build_sequence(events[0], claims, stays, bundle.ccs, replace(DEMO_OPTIONS, exclude_index_step=True))
        table, _ = featurize_world(bens, claims, bundle, replace(DEMO_OPTIONS, exclude_index_step=True))
        assert table.beneficiary_id.tolist() == ["B2"]
        assert steps_of(table, 0) == [(-5, (28,))]
        alone, z_names = featurize_world(bens[:1], claims[:1], bundle, replace(DEMO_OPTIONS, exclude_index_step=True))
        assert len(alone) == 0 and alone.z.shape == (0, len(z_names))


class TestDomainVector:
    def test_named_entries_match_hand_computation(self, fixture_world, bundle):
        table, z_names = featurize_world(*fixture_world, bundle)
        at = z_of(table, z_names, row_at(table, "B1", DAY0))
        assert at["age_range=70~74"] == 1.0
        assert at["gender=female"] == 1.0
        assert at["length_of_stay"] == 4.0
        assert at["admission_type=emergent"] == 1.0
        assert at["discharge_disposition=home_health"] == 1.0
        assert at["drg=DRG001"] == 1.0
        # Principal dx D0001 is category 0.
        assert at["discharge_dx_ccs=0"] == 1.0
        assert at["n_dx_codes_index"] == 2.0
        # One historical inpatient stay, one outpatient visit, one ED visit.
        assert at["inpatient_admissions_12m"] == 1.0
        assert at["outpatient_visits_12m"] == 1.0
        assert at["ed_visits_12m"] == 1.0
        # Pooled dx: D0001 (cat 0, w=1), D0072 (cat 23), D0004 (cat 1, w=1),
        # D0031 (cat 10, w=2), D0085 (cat 28): Charlson = 1 + 1 + 2 = 4.
        assert at["charlson_index"] == 4.0
        # Index-stay dx cat 23 fires the pressure-ulcer flag; nothing else.
        assert at["hac_flags[Stage III and IV Pressure Ulcers]"] == 1.0
        assert sum(v for n, v in at.items() if n.startswith("hac_flags[")) == 1.0

    def test_unknown_level_lands_in_other_slot(self, bundle):
        bens = [ben(bid="B1")]
        index = inpatient(bid="B1", admit=DAY0, los=2, drg="DRG777")
        history = inpatient(bid="B1", admit=DAY0 - 50, los=1)
        table, z_names = featurize_world(bens, [history, index], bundle)
        at = z_of(table, z_names, row_at(table, "B1", DAY0))
        assert at["drg=(other)"] == 1.0
        assert at["drg=DRG001"] == 0.0

    def test_one_hot_groups_sum_to_one(self, fixture_world, bundle):
        table, z_names = featurize_world(*fixture_world, bundle)
        at = z_of(table, z_names, row_at(table, "B1", DAY0))
        for prefix in ("age_range=", "gender=", "race=", "admission_type=", "discharge_dx_ccs="):
            group = [v for n, v in at.items() if n.startswith(prefix)]
            assert sum(group) == 1.0, prefix
            assert set(group) <= {0.0, 1.0}

    def test_layout_is_the_reference_layout(self, small_table):
        _, names = small_table
        assert names == reference_z_names()
        assert len(names) == 95
        assert names[0].startswith("age_range=")
        assert "charlson_index" in names
        assert any(name.startswith("hac_flags[") for name in names)
        assert len(names) == len(set(names))

    def test_text_blocks_are_the_enforced_vocabularies(self):
        # The words `check_claim_columns` accepts in each text column, and
        # the acute DRGs of the index screen: a word added there must get
        # its own slot in z, not fold into (other).
        levels = dict(Z_BLOCKS)
        assert levels["gender"] == GENDERS
        assert levels["race"] == RACES
        assert levels["medicare_status"] == MEDICARE_STATUSES
        assert levels["admission_type"] == ADMISSION_TYPES
        assert levels["admission_source"] == ADMISSION_SOURCES
        assert levels["discharge_disposition"] == DISPOSITIONS
        assert levels["drg"] == tuple(sorted(load_acute_drgs()))

    def test_charlson_band_edges(self):
        assert charlson_band(0) == "0-2"
        assert charlson_band(2) == "0-2"
        assert charlson_band(3) == "3-5"
        assert charlson_band(5) == "3-5"
        assert charlson_band(6) == "6+"


class TestKernelOnHandBuiltWorlds:
    """Each world goes through `featurize_world`, which also checks the
    kernel against the per-event reference byte for byte."""

    def test_merged_transfer_chain_is_one_step(self, bundle):
        first = inpatient(admit=DAY0 - 40, los=2, dx=("D0004",), disposition="transfer_acute")
        second = inpatient(admit=DAY0 - 37, los=3, dx=("D0031", "D0004"), proc=("P0001",))
        index = inpatient(admit=DAY0, los=2)
        table, z_names = featurize_world([ben()], [first, second, index], bundle)
        steps = steps_of(table, row_at(table, "B1", DAY0))
        # D0004 -> 1, D0031 -> 10, P0001 -> 31 + 0.
        assert steps == [(-40, (1, 10, 31)), (0, (0,))]
        at = z_of(table, z_names, row_at(table, "B1", DAY0))
        assert at["inpatient_admissions_12m"] == 1.0
        assert at["charlson_index"] == 1.0 + 1.0 + 2.0

    def test_repeated_dx_code_counts_in_z_but_not_in_steps(self, bundle):
        history = inpatient(admit=DAY0 - 20, los=1, dx=("D0004", "D0004", "D0005"))
        visit = point_claim(day=DAY0 - 9, kind="outpatient", dx=("D0031", "D0031"))
        index = inpatient(admit=DAY0, los=2, dx=("D0001", "D0001", "D0002"))
        table, z_names = featurize_world([ben()], [history, visit, index], bundle)
        row = row_at(table, "B1", DAY0)
        assert steps_of(table, row) == [(-20, (1,)), (-9, (10,)), (0, (0,))]
        at = z_of(table, z_names, row)
        assert at["n_dx_codes_index"] == 3.0
        assert at["charlson_index"] == 1.0 + 1.0 + 2.0

    def test_same_day_visits_order_by_id_string(self, bundle):
        # String order: "A1" (the stay) < "Bé" < "C10" < "C9".
        claims = [
            point_claim(day=DAY0 - 7, kind="outpatient", dx=("D0004",), claim_id="C9"),
            point_claim(day=DAY0 - 7, kind="ed", dx=("D0031",), claim_id="C10"),
            inpatient(admit=DAY0 - 7, los=1, dx=("D0085",)),
            point_claim(day=DAY0 - 7, kind="outpatient", dx=("D0013",), claim_id="Bé"),
            inpatient(admit=DAY0, los=2),
        ]
        claims[2] = replace(claims[2], claim_id="A1")
        table, _ = featurize_world([ben()], claims, bundle)
        steps = steps_of(table, row_at(table, "B1", DAY0))
        assert steps == [(-7, (28,)), (-7, (4,)), (-7, (10,)), (-7, (1,)), (0, (0,))]

    def test_unknown_codes_land_in_the_other_slots(self, bundle):
        ccs = bundle.ccs
        history = point_claim(day=DAY0 - 3, kind="outpatient", dx=("X999",), proc=("Q999", "P0001"))
        index = inpatient(admit=DAY0, los=2, dx=("X123", "D0001"), proc=("Q1",))
        table, z_names = featurize_world([ben()], [history, index], bundle)
        row = row_at(table, "B1", DAY0)
        other_dx, other_proc = ccs.n_dx, ccs.n_dx + 1 + ccs.n_proc
        assert steps_of(table, row) == [(-3, (other_dx, ccs.n_dx + 1, other_proc)), (0, (0, other_dx, other_proc))]
        at = z_of(table, z_names, row)
        assert at["discharge_dx_ccs=(other)"] == 1.0
        assert table.proc_ccs[table.proc_ptr[row] : table.proc_ptr[row + 1]].tolist() == [ccs.n_proc]

    def test_claim_without_codes_is_counted_but_makes_no_step(self, bundle):
        empty = point_claim(day=DAY0 - 4, kind="ed", dx=())
        index = inpatient(admit=DAY0, los=2)
        table, z_names = featurize_world([ben()], [empty, index], bundle)
        row = row_at(table, "B1", DAY0)
        assert steps_of(table, row) == [(0, (0,))]
        assert z_of(table, z_names, row)["ed_visits_12m"] == 1.0

    @pytest.mark.parametrize("lookback_days", [100, 365])
    def test_window_edges(self, bundle, lookback_days):
        claims = [
            point_claim(day=DAY0 - lookback_days - 1, kind="outpatient", dx=("D0004",)),
            point_claim(day=DAY0 - lookback_days, kind="outpatient", dx=("D0007",)),
            point_claim(day=DAY0 - 366, kind="ed", dx=("D0031",)),
            point_claim(day=DAY0 - 365, kind="ed", dx=("D0037",)),
            # On the index day: in the Charlson pool, not a step or a visit.
            point_claim(day=DAY0, kind="ed", dx=("D0040",)),
            inpatient(admit=DAY0, los=2),
        ]
        table, z_names = featurize_world([ben()], claims, bundle, replace(DEMO_OPTIONS, lookback_days=lookback_days))
        row = row_at(table, "B1", DAY0)
        offsets = [offset for offset, _ in steps_of(table, row)]
        assert offsets[0] == -lookback_days and -lookback_days - 1 not in offsets and offsets[-1] == 0
        assert offsets.count(0) == 1
        at = z_of(table, z_names, row)
        assert at["ed_visits_12m"] == 1.0
        assert at["outpatient_visits_12m"] == (2.0 if lookback_days == 100 else 1.0)
        # D0001 (cat 0, w1), D0007 (2, w1), D0037 (12, w2) and D0040 (13,
        # w2); D0004 (1, w1) only when it lies within 365 days.
        assert at["charlson_index"] == 1 + 1 + 2 + 2 + (1 if lookback_days == 100 else 0)

    def test_mortality_select_equals_the_reference_on_kept_events(self, bundle):
        bens = [
            ben(bid="B1", death=DAY0 + 8),
            ben(bid="B2", death=DAY0 + 8),
            ben(bid="B3", death=DAY0 + 9),
            ben(bid="B4"),
        ]
        claims = [
            inpatient(bid="B1", admit=DAY0, los=3, disposition="ama"),
            inpatient(bid="B2", admit=DAY0 - 30, los=2),
            inpatient(bid="B2", admit=DAY0, los=3, disposition="hospice"),
            inpatient(bid="B3", admit=DAY0, los=3),
            inpatient(bid="B4", admit=DAY0, los=3),
        ]
        table, z_names = featurize_world(bens, claims, bundle)
        assert table.mortality_excluded.tolist() == [True, False, True, False, False]
        events, stays, _ = reference_cohort(bens, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
        kept = [e for e in events if e.mortality_exclusion is None]
        expected, _, groups = reference_table(kept, {b.beneficiary_id: b for b in bens}, claims, stays, bundle)
        selected = table.select(~table.mortality_excluded)
        _same_table(selected, expected)
        _same_groups(selected, z_names, groups)
        assert selected.mortality_label.tolist() == [False, True, False]


@pytest.fixture(scope="module")
def second_population():
    return population_records(demo_synthetic(300, 5))


@pytest.mark.parametrize(
    "include_outpatient, exclude_index_step, lookback_days",
    list(itertools.product([True, False], [False, True], [100, 365, 730])),
)
@pytest.mark.parametrize("which", ["small_population", "second_population"])
def test_whole_populations_equal_the_reference(
    request, bundle, which, include_outpatient, exclude_index_step, lookback_days
):
    population = request.getfixturevalue(which)
    opts = SequenceOptions(include_outpatient, exclude_index_step, lookback_days)
    table, _ = featurize_world(population.beneficiaries, population.claims, bundle, opts)
    assert len(table) > 0


@pytest.fixture(scope="module")
def reference(small_population, small_cohort, bundle):
    """Per eligible event, in order: the event, its beneficiary, and its
    steps and z built one event at a time from the whole population."""
    events, stays, _ = small_cohort
    ben_map = {b.beneficiary_id: b for b in small_population.beneficiaries}
    rows = []
    for event in events:
        if event.eligible:
            ben = ben_map[event.stay.beneficiary_id]
            steps = build_sequence(event, small_population.claims, stays, bundle.ccs)
            z, _ = build_domain_vector(event, ben, small_population.claims, stays, bundle)
            rows.append((event, ben, steps, z))
    return rows


class TestFeaturizeEvents:
    def test_covers_every_eligible_event(self, small_table, small_cohort, reference):
        table, z_names = small_table
        events, _, _ = small_cohort
        assert len(table) == sum(1 for e in events if e.eligible) == len(reference)
        assert table.event_ids() == [event.event_id for event, _, _, _ in reference]
        assert len(set(table.event_ids())) == len(table)
        assert table.z.shape == (len(table), len(z_names))
        for steps in table_steps(table):
            assert steps
        offsets = np.split(table.day_offset, table.step_ptr[1:-1])
        assert all(o[-1] == 0 and np.all(np.diff(o) >= 0) for o in offsets)

    def test_labels_carried_from_events(self, small_table, reference):
        table, _ = small_table
        events = [event for event, _, _, _ in reference]
        assert table.readmit_label.tolist() == [bool(e.readmit_label) for e in events]
        assert table.mortality_label.tolist() == [bool(e.mortality_label) for e in events]
        assert table.mortality_excluded.tolist() == [e.mortality_exclusion is not None for e in events]
        assert table.label_for("readmission") is table.readmit_label
        assert table.label_for("mortality") is table.mortality_label

    def test_unknown_task_rejected(self, small_table):
        table, _ = small_table
        with pytest.raises(ValidationError):
            table.label_for("los")


class TestSubgroups:
    """`EventTable.subgroups` reads each event's age band, gender, race,
    Medicare status and Charlson band back from z: the labels the reference
    featurization takes from the event's records."""

    @pytest.mark.parametrize("exclude_index_step", [False, True])
    def test_readmission_events(self, small_columns, small_population, small_cohort, bundle, exclude_index_step):
        opts = replace(DEMO_OPTIONS, exclude_index_step=exclude_index_step)
        table, z_names = featurize_events(small_columns, bundle, opts)
        events, stays, _ = small_cohort
        bens = {b.beneficiary_id: b for b in small_population.beneficiaries}
        _, _, expected = reference_table(events, bens, small_population.claims, stays, bundle, opts)
        _same_groups(table, z_names, expected)

    def test_mortality_events_after_select(self, small_table, small_population, small_cohort, bundle):
        table, z_names = small_table
        events, stays, _ = small_cohort
        kept = [e for e in events if e.mortality_exclusion is None]
        bens = {b.beneficiary_id: b for b in small_population.beneficiaries}
        _, _, expected = reference_table(kept, bens, small_population.claims, stays, bundle)
        _same_groups(table.select(~table.mortality_excluded), z_names, expected)

    def test_age_slots_are_the_report_bands(self, bundle):
        """z's age slots, each side of every cut, are named by
        `cohort.AGE_BANDS[1:]`, and the subgroups read those names back."""
        ages = [64, 65, 69, 70, 84, 85, 99]
        # Admitted on 1 March, born on 15 January: `age` years old.
        bens = [ben(bid=f"B{i}", birth_year=2011 - age, status="aged_esrd") for i, age in enumerate(ages)]
        claims = [inpatient(bid=f"B{i}") for i in range(len(ages))]
        table, z_names = featurize_world(bens, claims, bundle)
        slots = [name for name in z_names if name.startswith("age_range=")]
        assert [slots[slot] for slot in table.z[:, : len(slots)].argmax(axis=1).tolist()] == [
            f"age_range={band}" for band in ("<65", "65~69", "65~69", "70~74", "80~84", ">85", ">85")
        ]
        labels = table.subgroups(z_names)["age_range"].tolist()
        assert labels == ["<65", "65~69", "65~69", "70~74", "80~84", ">85", ">85"]
        assert labels == [AGE_BANDS[1:][band] for band in (0, 1, 1, 2, 4, 5, 5)]


class TestEventTable:
    def test_step_lists_round_trip(self, small_table, reference):
        table, _ = small_table
        assert table_steps(table) == [[list(step.indices) for step in steps] for _, _, steps, _ in reference]
        offsets = [step.day_offset for _, _, steps, _ in reference for step in steps]
        assert table.day_offset.tolist() == offsets

    def test_columns_match_the_sequences(self, small_table, reference):
        table, z_names = small_table
        assert table.beneficiary_id.tolist() == [ben.beneficiary_id for _, ben, _, _ in reference]
        assert table.z.dtype == np.float64
        assert table.z.tolist() == [z for _, _, _, z in reference]
        charlson = z_names.index("charlson_index")
        expected = {
            "age_range": [age_band(event.age) for event, _, _, _ in reference],
            "gender": [ben.gender for _, ben, _, _ in reference],
            "race": [ben.race for _, ben, _, _ in reference],
            "medicare_status": [ben.medicare_status for _, ben, _, _ in reference],
            "charlson_band": [charlson_band(int(z[charlson])) for _, _, _, z in reference],
        }
        assert set(expected) == set(SUBGROUP_KEYS)
        groups = table.subgroups(z_names)
        for key, values in expected.items():
            assert groups[key].tolist() == values, key
        with pytest.raises(ValidationError):
            table.label_for("discharge")

    def test_select_matches_filtering_the_sequences(self, small_table, small_population, small_cohort, bundle):
        table, _ = small_table
        events, stays, _ = small_cohort
        eligible = [e for e in events if e.eligible]
        keep = np.array([i % 3 != 1 for i in range(len(table))])
        kept, _ = featurize_events(
            population_columns(
                small_population.beneficiaries,
                small_population.claims,
                stays,
                [e for e, k in zip(eligible, keep) if k],
            ),
            bundle,
            DEMO_OPTIONS,
        )
        # select keeps the full table's string widths.
        _same_table(table.select(keep), kept, exact=False)
        empty = table.select(np.zeros(len(table), dtype=bool))
        assert len(empty) == 0 and table_steps(empty) == []

    def test_proc_ccs_membership(self, small_table, reference, bundle):
        table, _ = small_table
        n_proc_columns = bundle.ccs.n_proc_columns
        member = table.proc_ccs_membership(n_proc_columns)
        expected = []
        for event, _, _, _ in reference:
            cats = {bundle.ccs.proc_category(p) for p in event.stay.all_proc}
            expected.append([cat in cats for cat in range(n_proc_columns)])
        assert member.tolist() == expected

    def test_save_load_round_trip_is_byte_stable(self, small_table, tmp_path):
        table, _ = small_table
        table.save(tmp_path / "a.npz")
        _same_table(EventTable.load(tmp_path / "a.npz"), table)
        EventTable.load(tmp_path / "a.npz").save(tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_an_archive_of_other_members_is_a_prerequisite_error(self, small_table, tmp_path):
        """An events.npz as an older featurize wrote it: a text event id and
        the five subgroup columns, and no `admit`."""
        table, z_names = small_table
        table.save(tmp_path / "a.npz")
        arrays = read_npz(tmp_path / "a.npz")
        del arrays["admit"]
        write_npz(tmp_path / "a.npz", {"event_id": np.array(table.event_ids()), **arrays, **table.subgroups(z_names)})
        with pytest.raises(PrerequisiteError) as caught:
            EventTable.load(tmp_path / "a.npz")
        message = str(caught.value)
        assert "missing ['admit']" in message
        assert f"extra {sorted(['event_id', *SUBGROUP_KEYS])}" in message
        assert "rerun `seqfuse featurize`" in message

    def test_integer_columns_are_stored_narrow_and_load_exactly(self, small_table, tmp_path):
        """z and the CSR columns go at the narrowest integer width that
        holds each (z's indicators and counts stay below 256 here, and there
        are 1,824 steps and 4,182 indices); `load` widens them back to the
        table's float64 z and int64 columns, bit for bit."""
        table, _ = small_table
        table.save(tmp_path / "a.npz")
        stored = read_npz(tmp_path / "a.npz")
        assert {name: stored[name].dtype for name in ("z", "step_ptr", "day_offset", "idx_ptr", "indices",
                                                       "proc_ptr", "proc_ccs")} == {
            "z": np.uint8, "step_ptr": np.uint16, "day_offset": np.int16, "idx_ptr": np.uint16,
            "indices": np.uint8, "proc_ptr": np.uint8, "proc_ccs": np.uint8,
        }
        _same_table(EventTable.load(tmp_path / "a.npz"), table)
        for bad in (0.5, np.nan, np.inf):
            z = table.z.copy()
            z[0, 0] = bad
            with pytest.raises(ValidationError, match="z holds"):
                replace(table, z=z).save(tmp_path / "b.npz")

    def test_wide_values_and_empty_columns_round_trip(self, tmp_path):
        """A day_offset down to -40,000 needs int32 and an idx_ptr past
        65,535 uint32; a table with no procedures and no z columns saves
        too. Each column loads back as it was saved."""
        table = replace(steps_table([[[1] * 70_000, [2, 3]], [[4]]]), day_offset=np.array([-40_000, -1, 0]))
        table.save(tmp_path / "a.npz")
        stored = read_npz(tmp_path / "a.npz")
        assert (stored["day_offset"].dtype, stored["idx_ptr"].dtype) == (np.int32, np.uint32)
        assert stored["proc_ccs"].size == 0 and stored["z"].size == 0
        loaded = EventTable.load(tmp_path / "a.npz")
        _same_table(loaded, table)
        assert loaded.idx_ptr.dtype == loaded.day_offset.dtype == np.int64

    def test_write_npz_members_carry_no_clock(self, tmp_path):
        write_npz(tmp_path / "x.npz", {"a": np.arange(3), "b": np.array(["x", "yz"])})
        with zipfile.ZipFile(tmp_path / "x.npz") as zf:
            infos = zf.infolist()
        assert [i.filename for i in infos] == ["a.npy", "b.npy"]
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
        with np.load(tmp_path / "x.npz", allow_pickle=False) as npz:
            assert npz["b"].tolist() == ["x", "yz"]
