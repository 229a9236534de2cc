"""Sequence construction and the hand-crafted vector, checked against a
fixture small enough to compute every value on paper."""

import zipfile

import numpy as np
import pytest

from seqfuse.claims import ClaimRecord, iso_to_day
from seqfuse.cohort import build_cohort
from seqfuse.errors import ValidationError
from seqfuse.features import (
    SUBGROUP_KEYS,
    EventTable,
    SequenceOptions,
    build_domain_vector,
    build_sequence,
    charlson_band,
    featurize_events,
    write_npz,
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


class TestFeaturizeEvents:
    def test_covers_every_eligible_event(self, small_population, small_cohort, bundle):
        events, stays, _ = small_cohort
        ben_map = {b.beneficiary_id: b for b in small_population.beneficiaries}
        sequences, z_names = featurize_events(
            events, ben_map, small_population.claims, stays, bundle, SequenceOptions()
        )
        assert len(sequences) == sum(1 for e in events if e.eligible)
        assert len({s.event_id for s in sequences}) == len(sequences)
        for seq in sequences:
            assert len(seq.z) == len(z_names)
            assert seq.steps, seq.event_id
            assert seq.steps[-1].day_offset == 0
            assert all(
                seq.steps[i].day_offset <= seq.steps[i + 1].day_offset
                for i in range(len(seq.steps) - 1)
            )
            assert set(seq.subgroup) == {
                "age_range", "gender", "race", "medicare_status", "charlson_band", "proc_ccs",
            }

    def test_labels_carried_from_events(self, small_population, small_cohort, bundle):
        events, stays, _ = small_cohort
        ben_map = {b.beneficiary_id: b for b in small_population.beneficiaries}
        sequences, _ = featurize_events(
            events, ben_map, small_population.claims, stays, bundle, SequenceOptions()
        )
        by_id = {e.event_id: e for e in events if e.eligible}
        for seq in sequences:
            event = by_id[seq.event_id]
            assert seq.readmit_label == bool(event.readmit_label)
            assert seq.mortality_label == bool(event.mortality_label)
            assert seq.mortality_excluded == (event.mortality_exclusion is not None)
            assert seq.label_for("readmission") == seq.readmit_label
            assert seq.label_for("mortality") == seq.mortality_label

    def test_unknown_task_rejected(self, small_sequences):
        sequences, _ = small_sequences
        with pytest.raises(ValidationError):
            sequences[0].label_for("los")


def _same_table(a: EventTable, b: EventTable) -> None:
    for name in EventTable.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype.kind == right.dtype.kind, name
        np.testing.assert_array_equal(left, right, err_msg=name)


class TestEventTable:
    def test_step_lists_round_trip(self, small_sequences):
        sequences, _ = small_sequences
        table = EventTable.from_sequences(sequences)
        assert table.step_lists() == [[list(step.indices) for step in s.steps] for s in sequences]
        offsets = [step.day_offset for s in sequences for step in s.steps]
        assert table.day_offset.tolist() == offsets

    def test_columns_match_the_sequences(self, small_sequences):
        sequences, z_names = small_sequences
        table = EventTable.from_sequences(sequences)
        assert len(table) == len(sequences)
        assert table.event_id.tolist() == [s.event_id for s in sequences]
        assert table.beneficiary_id.tolist() == [s.beneficiary_id for s in sequences]
        assert table.z.shape == (len(sequences), len(z_names))
        assert table.z.tolist() == [s.z for s in sequences]
        for task in ("readmission", "mortality"):
            assert table.label_for(task).tolist() == [s.label_for(task) for s in sequences]
        for key in SUBGROUP_KEYS:
            assert getattr(table, key).tolist() == [str(s.subgroup[key]) for s in sequences]
        with pytest.raises(ValidationError):
            table.label_for("discharge")

    def test_select_matches_filtering_the_sequences(self, small_sequences):
        sequences, _ = small_sequences
        table = EventTable.from_sequences(sequences)
        keep = np.array([i % 3 != 1 for i in range(len(sequences))])
        _same_table(table.select(keep), EventTable.from_sequences([s for s, k in zip(sequences, keep) if k]))
        empty = table.select(np.zeros(len(table), dtype=bool))
        assert len(empty) == 0 and empty.step_lists() == []

    def test_proc_ccs_membership(self, small_sequences, bundle):
        sequences, _ = small_sequences
        n_proc_columns = bundle.ccs.n_proc_columns
        member = EventTable.from_sequences(sequences).proc_ccs_membership(n_proc_columns)
        expected = [[cat in s.subgroup["proc_ccs"] for cat in range(n_proc_columns)] for s in sequences]
        assert member.tolist() == expected

    def test_save_load_round_trip_is_byte_stable(self, small_sequences, tmp_path):
        sequences, _ = small_sequences
        table = EventTable.from_sequences(sequences)
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
