"""Sequence construction and the hand-crafted vector, checked against a
fixture small enough to compute every value on paper."""

import zipfile

import numpy as np
import pytest

from seqfuse.claims import ClaimRecord, iso_to_day, write_npz
from seqfuse.cohort import age_band, build_cohort
from seqfuse.errors import ValidationError
from seqfuse.features import (
    SUBGROUP_KEYS,
    EventTable,
    SequenceOptions,
    build_domain_vector,
    build_sequence,
    charlson_band,
    featurize_events,
)
from seqfuse.knowledge import CcsMap, load_bundle
from tests.test_cohort import DAY0, ben, inpatient


def point_claim(bid="B1", day=DAY0 - 30, kind="ed", dx=("D0085",)):
    # D0085 maps to dx category 28, a symptom code.
    return ClaimRecord(
        claim_id=f"PT{day}",
        beneficiary_id=bid,
        claim_type=kind,
        admit_date=day,
        discharge_date=day,
        dx_codes=tuple(dx),
    )


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
    claims = [history_stay, ed_visit, op_visit, index]
    events, stays, _ = build_cohort(bens, claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs)
    index_event = next(e for e in events if e.stay.admit_date == DAY0)
    return bens[0], claims, stays, index_event


class TestBuildSequence:
    def test_step_order_and_offsets(self, fixture_world, bundle):
        _, claims, stays, event = fixture_world
        steps = build_sequence(event, claims, stays, bundle.ccs, SequenceOptions())
        assert [s.day_offset for s in steps] == [-200, -30, -10, 0]
        # The index step carries dx cats {0, 23} and proc cat 3 -> indices
        # 0, 23, and 31 + 3 = 34.
        assert steps[-1].indices == (0, 23, 34)
        # The ED visit carries only symptom category 28.
        assert steps[1].indices == (28,)

    def test_outpatient_steps_can_be_dropped(self, fixture_world, bundle):
        _, claims, stays, event = fixture_world
        steps = build_sequence(
            event, claims, stays, bundle.ccs, SequenceOptions(include_outpatient=False)
        )
        assert [s.day_offset for s in steps] == [-200, 0]

    def test_index_step_can_be_excluded(self, fixture_world, bundle):
        _, claims, stays, event = fixture_world
        steps = build_sequence(
            event, claims, stays, bundle.ccs, SequenceOptions(exclude_index_step=True)
        )
        assert [s.day_offset for s in steps] == [-200, -30, -10]

    def test_lookback_trims_old_visits(self, fixture_world, bundle):
        _, claims, stays, event = fixture_world
        steps = build_sequence(
            event, claims, stays, bundle.ccs, SequenceOptions(lookback_days=100)
        )
        assert [s.day_offset for s in steps] == [-30, -10, 0]

    def test_empty_sequence_rejected(self, bundle):
        bens = [ben(bid="B1")]
        only_index = [inpatient(bid="B1", admit=DAY0, los=2)]
        events, stays, _ = build_cohort(
            bens, only_index, bundle.planned_rules, bundle.ccs, bundle.acute_drgs
        )
        with pytest.raises(ValidationError):
            build_sequence(events[0], only_index, stays, bundle.ccs, SequenceOptions(exclude_index_step=True))


class TestDomainVector:
    def test_named_entries_match_hand_computation(self, fixture_world, bundle):
        beneficiary, claims, stays, event = fixture_world
        values, names = build_domain_vector(event, beneficiary, claims, stays, bundle)
        assert len(values) == len(names)
        at = dict(zip(names, values))
        assert at["age_range=70-74"] == 1.0
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
        beneficiary = ben(bid="B1")
        index = inpatient(bid="B1", admit=DAY0, los=2, drg="DRG777")
        history = inpatient(bid="B1", admit=DAY0 - 50, los=1)
        events, stays, _ = build_cohort(
            [beneficiary], [history, index], bundle.planned_rules, bundle.ccs, bundle.acute_drgs
        )
        event = next(e for e in events if e.stay.admit_date == DAY0)
        values, names = build_domain_vector(event, beneficiary, [history, index], stays, bundle)
        at = dict(zip(names, values))
        assert at["drg=(other)"] == 1.0
        assert at["drg=DRG001"] == 0.0

    def test_one_hot_groups_sum_to_one(self, fixture_world, bundle):
        beneficiary, claims, stays, event = fixture_world
        values, names = build_domain_vector(event, beneficiary, claims, stays, bundle)
        at = dict(zip(names, values))
        for prefix in ("age_range=", "gender=", "race=", "admission_type=", "discharge_dx_ccs="):
            group = [v for n, v in at.items() if n.startswith(prefix)]
            assert sum(group) == 1.0, prefix
            assert set(group) <= {0.0, 1.0}

    def test_charlson_band_edges(self):
        assert charlson_band(0) == "0-2"
        assert charlson_band(2) == "0-2"
        assert charlson_band(3) == "3-5"
        assert charlson_band(5) == "3-5"
        assert charlson_band(6) == "6+"


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
        assert table.event_id.tolist() == [event.event_id for event, _, _, _ in reference]
        assert len(set(table.event_id.tolist())) == len(table)
        assert table.z.shape == (len(table), len(z_names))
        for steps in table.step_lists():
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


def _same_table(a: EventTable, b: EventTable) -> None:
    for name in EventTable.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype.kind == right.dtype.kind, name
        np.testing.assert_array_equal(left, right, err_msg=name)


class TestEventTable:
    def test_step_lists_round_trip(self, small_table, reference):
        table, _ = small_table
        assert table.step_lists() == [[list(step.indices) for step in steps] for _, _, steps, _ in reference]
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
        for key, values in expected.items():
            assert getattr(table, key).tolist() == values, key
        with pytest.raises(ValidationError):
            table.label_for("discharge")

    def test_select_matches_filtering_the_sequences(self, small_table, small_population, small_cohort, bundle):
        table, _ = small_table
        events, stays, _ = small_cohort
        eligible = [e for e in events if e.eligible]
        keep = np.array([i % 3 != 1 for i in range(len(table))])
        ben_map = {b.beneficiary_id: b for b in small_population.beneficiaries}
        kept, _ = featurize_events(
            [e for e, k in zip(eligible, keep) if k], ben_map, small_population.claims, stays, bundle
        )
        _same_table(table.select(keep), kept)
        empty = table.select(np.zeros(len(table), dtype=bool))
        assert len(empty) == 0 and empty.step_lists() == []

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

    def test_write_npz_members_carry_no_clock(self, tmp_path):
        write_npz(tmp_path / "x.npz", {"a": np.arange(3), "b": np.array(["x", "yz"])})
        with zipfile.ZipFile(tmp_path / "x.npz") as zf:
            infos = zf.infolist()
        assert [i.filename for i in infos] == ["a.npy", "b.npy"]
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
        with np.load(tmp_path / "x.npz", allow_pickle=False) as npz:
            assert npz["b"].tolist() == ["x", "yz"]
