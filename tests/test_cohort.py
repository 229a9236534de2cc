"""Cohort construction on hand-built fixtures: stay merging, the ordered
eligibility screen, readmission crediting, and mortality exclusions.

Every case runs the columnar kernel `cohort.build_cohort` on the records'
`claim_columns` and checks that the four files cohort writes from it equal
the record-based reference's (tests/reference.py) byte for byte; the
assertions then read the reference's records."""

import numpy as np
import pytest

from seqfuse.claims import SyntheticConfig, iso_to_day, text_words
from seqfuse.cohort import AGE_BANDS, EXCLUSION_REASONS, age_band_index
from seqfuse.knowledge import CcsMap, load_acute_drgs, load_bundle, load_planned_rules
from tests.reference import Beneficiary, ClaimRecord, age_band, checked_cohort, cohort_summary, population_records

DAY0 = iso_to_day("2011-03-01")


def ben(bid="B1", birth_year=1940, death=None, intervals=None, status="aged_no_esrd", **overrides):
    fields = dict(
        beneficiary_id=bid,
        birth_date=iso_to_day(f"{birth_year}-01-15"),
        gender="female",
        race="white",
        dual_eligible=False,
        medicare_status=status,
        enrollment_intervals=intervals or ((DAY0 - 800, DAY0 + 400),),
        death_date=death,
    )
    fields.update(overrides)
    return Beneficiary(**fields)


_counter = [0]


def inpatient(bid="B1", admit=DAY0, los=3, dx=("D0001",), proc=(), drg="DRG001",
              atype="emergent", source="community", disposition="home", facility="F01"):
    _counter[0] += 1
    return ClaimRecord(
        claim_id=f"T{_counter[0]:04d}",
        beneficiary_id=bid,
        claim_type="inpatient",
        admit_date=admit,
        discharge_date=admit + los,
        dx_codes=tuple(dx),
        proc_codes=tuple(proc),
        drg=drg,
        admission_type=atype,
        admission_source=source,
        discharge_disposition=disposition,
        facility_id=facility,
    )


@pytest.fixture(scope="module")
def rules():
    return load_planned_rules()


@pytest.fixture(scope="module")
def ccs():
    return CcsMap.synthetic()


@pytest.fixture(scope="module")
def acute_drgs():
    return load_acute_drgs()


def run_cohort(bens, claims, rules, ccs, acute_drgs):
    """The reference's events, stays and audit, once the kernel's files
    for the same records have been checked equal to the reference's."""
    _, events, stays, audit = checked_cohort(bens, claims, rules, ccs, acute_drgs)
    return events, stays, audit


def resolve_stays(claims):
    """The stays of `run_cohort`, each beneficiary being the default `ben`."""
    bens = [ben(bid=bid) for bid in sorted({c.beneficiary_id for c in claims})]
    return run_cohort(bens, claims, load_planned_rules(), CcsMap.synthetic(), load_acute_drgs())[1]


class TestStayResolution:
    def test_disjoint_claims_stay_separate(self):
        claims = [inpatient(admit=DAY0, los=2), inpatient(admit=DAY0 + 10, los=1)]
        stays = resolve_stays(claims)
        assert len(stays) == 2

    def test_same_day_continuation_merges(self):
        a = inpatient(admit=DAY0, los=2, disposition="home", dx=("D0001",))
        b = inpatient(admit=DAY0 + 2, los=3, dx=("D0004",), facility="F02", drg="DRG101")
        stays = resolve_stays([a, b])
        assert len(stays) == 1
        merged = stays[0]
        assert merged.admit_date == DAY0
        assert merged.discharge_date == DAY0 + 5
        assert merged.merged_claim_ids == (a.claim_id, b.claim_id)
        # Admission-side fields from the first claim, discharge-side from the last.
        assert merged.principal_dx == "D0001"
        assert merged.all_dx == ("D0001", "D0004")
        assert merged.drg == "DRG101"
        assert merged.facility_id == "F02"

    def test_transfer_gets_one_grace_day(self):
        a = inpatient(admit=DAY0, los=2, disposition="transfer_acute")
        b = inpatient(admit=DAY0 + 3, los=2, facility="F02")
        assert len(resolve_stays([a, b])) == 1
        # Without the transfer disposition the same day gap stays split.
        c = inpatient(admit=DAY0, los=2, disposition="home")
        d = inpatient(admit=DAY0 + 3, los=2, facility="F02")
        assert len(resolve_stays([c, d])) == 2

    def test_grace_day_does_not_stretch_to_two(self):
        a = inpatient(admit=DAY0, los=2, disposition="transfer_acute")
        b = inpatient(admit=DAY0 + 4, los=2)
        assert len(resolve_stays([a, b])) == 2

    def test_overlapping_claims_merge_regardless_of_disposition(self):
        a = inpatient(admit=DAY0, los=5, disposition="home")
        b = inpatient(admit=DAY0 + 2, los=1)
        stays = resolve_stays([a, b])
        assert len(stays) == 1
        assert stays[0].discharge_date == DAY0 + 5

    def test_chain_of_three_claims(self):
        a = inpatient(admit=DAY0, los=1, disposition="transfer_acute", facility="F01")
        b = inpatient(admit=DAY0 + 2, los=2, disposition="transfer_acute", facility="F02")
        c = inpatient(admit=DAY0 + 4, los=3, disposition="home", facility="F03")
        stays = resolve_stays([a, b, c])
        assert len(stays) == 1
        assert stays[0].discharge_disposition == "home"
        assert stays[0].facility_id == "F03"
        assert stays[0].los == 7

    def test_outpatient_claims_ignored(self):
        op = ClaimRecord(
            claim_id="OP1", beneficiary_id="B1", claim_type="outpatient",
            admit_date=DAY0 + 1, discharge_date=DAY0 + 1, dx_codes=("D0005",),
        )
        stays = resolve_stays([inpatient(admit=DAY0, los=3), op])
        assert len(stays) == 1


class TestEligibilityScreen:
    def screen(self, bens, claims, acute_drgs):
        return run_cohort(bens, claims, load_planned_rules(), CcsMap.synthetic(), acute_drgs)[0]

    def test_eligible_baseline(self, acute_drgs):
        events = self.screen([ben()], [inpatient()], acute_drgs)
        assert events[0].eligible
        assert events[0].age == 71

    def test_long_stay_excluded(self, acute_drgs):
        events = self.screen([ben()], [inpatient(los=31)], acute_drgs)
        assert events[0].exclusion_reason == "not_acute_short_stay"
        assert not self.screen([ben()], [inpatient(los=30)], acute_drgs)[0].exclusion_reason

    def test_elective_needs_acute_drg(self, acute_drgs):
        non_acute = self.screen([ben()], [inpatient(atype="elective", drg="DRG101")], acute_drgs)
        assert non_acute[0].exclusion_reason == "not_acute_short_stay"
        rescued = self.screen([ben()], [inpatient(atype="elective", drg="DRG001")], acute_drgs)
        assert rescued[0].eligible

    def test_age_rule_with_esrd_waiver(self, acute_drgs):
        young = ben(birth_year=1950)
        assert self.screen([young], [inpatient()], acute_drgs)[0].exclusion_reason == "age"
        waived = ben(birth_year=1950, status="esrd_only")
        assert self.screen([waived], [inpatient()], acute_drgs)[0].eligible

    def test_inpatient_death_excluded(self, acute_drgs):
        events = self.screen([ben(death=DAY0 + 3)], [inpatient(disposition="expired")], acute_drgs)
        assert events[0].exclusion_reason == "expired_inpatient"

    def test_transfer_out_excluded(self, acute_drgs):
        events = self.screen([ben()], [inpatient(disposition="transfer_acute")], acute_drgs)
        assert events[0].exclusion_reason == "transferred_out"

    def test_enrollment_gap_excluded(self, acute_drgs):
        # Coverage starts 100 days before admission: the 365-day lookback fails.
        short = ben(intervals=((DAY0 - 100, DAY0 + 400),))
        assert self.screen([short], [inpatient()], acute_drgs)[0].exclusion_reason == "enrollment_gap"
        # Back-to-back intervals spanning the window pass.
        touching = ben(intervals=((DAY0 - 800, DAY0 - 10), (DAY0 - 9, DAY0 + 400)))
        assert self.screen([touching], [inpatient()], acute_drgs)[0].eligible
        # Coverage must reach 30 days past discharge.
        stops_early = ben(intervals=((DAY0 - 800, DAY0 + 20),))
        assert self.screen([stops_early], [inpatient(los=3)], acute_drgs)[0].exclusion_reason == "enrollment_gap"

    def test_first_failed_check_wins(self, acute_drgs):
        # Non-acute and underage: the acuity check runs first.
        young = ben(birth_year=1950)
        events = self.screen([young], [inpatient(atype="elective", drg="DRG101", los=40)], acute_drgs)
        assert events[0].exclusion_reason == "not_acute_short_stay"


class TestReadmissionScenarios:
    def label(self, bens, claims, rules, ccs, acute_drgs):
        events, stays, _ = run_cohort(bens, claims, rules, ccs, acute_drgs)
        return events, stays

    def test_readmission_inside_window_is_positive(self, rules, ccs, acute_drgs):
        index = inpatient(admit=DAY0, los=3)
        readmit = inpatient(admit=DAY0 + 3 + 12, los=2)
        events, _ = self.label([ben()], [index, readmit], rules, ccs, acute_drgs)
        assert events[0].readmit_label is True
        assert events[0].readmit_stay_id == readmit.claim_id

    def test_readmission_outside_window_is_negative(self, rules, ccs, acute_drgs):
        index = inpatient(admit=DAY0, los=3)
        late = inpatient(admit=DAY0 + 3 + 31, los=2)
        events, _ = self.label([ben()], [index, late], rules, ccs, acute_drgs)
        assert events[0].readmit_label is False
        assert events[0].readmit_stay_id is None

    def test_window_boundary_day_30_counts(self, rules, ccs, acute_drgs):
        index = inpatient(admit=DAY0, los=3)
        edge = inpatient(admit=DAY0 + 3 + 30, los=2)
        events, _ = self.label([ben()], [index, edge], rules, ccs, acute_drgs)
        assert events[0].readmit_label is True

    def test_chain_credits_each_readmission_once(self, rules, ccs, acute_drgs):
        # A -> B -> C with every gap under 30 days: B is A's target, C is
        # B's target only, even though C is also within 30 days of A.
        a = inpatient(admit=DAY0, los=2)
        b = inpatient(admit=DAY0 + 10, los=2)
        c = inpatient(admit=DAY0 + 20, los=2)
        events, _ = self.label([ben()], [a, b, c], rules, ccs, acute_drgs)
        by_admit = {e.stay.admit_date: e for e in events}
        assert by_admit[DAY0].readmit_label is True
        assert by_admit[DAY0].readmit_stay_id == b.claim_id
        assert by_admit[DAY0 + 10].readmit_label is True
        assert by_admit[DAY0 + 10].readmit_stay_id == c.claim_id
        assert by_admit[DAY0 + 20].readmit_label is False

    def test_planned_candidate_gives_negative_label(self, rules, ccs, acute_drgs):
        index = inpatient(admit=DAY0, los=3)
        # P0013 maps to proc category 4, a planned procedure.
        planned = inpatient(admit=DAY0 + 10, los=2, proc=("P0013",))
        events, _ = self.label([ben()], [index, planned], rules, ccs, acute_drgs)
        assert events[0].readmit_label is False
        # A later unplanned stay inside the window does not rescue the label.
        unplanned = inpatient(admit=DAY0 + 20, los=2)
        events, _ = self.label([ben()], [index, planned, unplanned], rules, ccs, acute_drgs)
        by_admit = {e.stay.admit_date: e for e in events}
        assert by_admit[DAY0].readmit_label is False

    def test_maintenance_principal_dx_is_planned(self, rules, ccs, acute_drgs):
        index = inpatient(admit=DAY0, los=3)
        # D0058 maps to dx category 19 (maintenance care).
        maintenance = inpatient(admit=DAY0 + 10, los=2, dx=("D0058", "D0001"))
        events, _ = self.label([ben()], [index, maintenance], rules, ccs, acute_drgs)
        assert events[0].readmit_label is False

    def test_acute_override_beats_planned_procedure(self, rules, ccs, acute_drgs):
        index = inpatient(admit=DAY0, los=3)
        # Principal dx D0052 is category 17, an acute complication; the
        # planned procedure on the same stay does not make it planned.
        override = inpatient(admit=DAY0 + 10, los=2, dx=("D0052",), proc=("P0013",))
        events, _ = self.label([ben()], [index, override], rules, ccs, acute_drgs)
        assert events[0].readmit_label is True

    def test_merged_transfer_chain_is_single_index_event(self, rules, ccs, acute_drgs):
        first_leg = inpatient(admit=DAY0, los=2, disposition="transfer_acute", facility="F01")
        second_leg = inpatient(admit=DAY0 + 2, los=4, disposition="home", facility="F02", source="transfer")
        events, stays = self.label([ben()], [first_leg, second_leg], rules, ccs, acute_drgs)
        assert len(stays) == 1
        assert len(events) == 1
        assert events[0].eligible
        assert events[0].stay.los == 6

    def test_readmission_measured_from_merged_discharge(self, rules, ccs, acute_drgs):
        first_leg = inpatient(admit=DAY0, los=2, disposition="transfer_acute")
        second_leg = inpatient(admit=DAY0 + 2, los=4, facility="F02")
        # 30 days after the merged discharge (DAY0+6), not the first leg's.
        readmit = inpatient(admit=DAY0 + 6 + 30, los=1)
        events, _ = self.label([ben()], [first_leg, second_leg, readmit], rules, ccs, acute_drgs)
        by_admit = {e.stay.admit_date: e for e in events}
        assert by_admit[DAY0].readmit_label is True

    def test_ineligible_index_still_counts_as_target(self, rules, ccs, acute_drgs):
        index = inpatient(admit=DAY0, los=3)
        # The readmission itself fails the acuity screen, but it is still
        # someone's target event.
        decoy = inpatient(admit=DAY0 + 10, los=2, atype="elective", drg="DRG101")
        events, _ = self.label([ben()], [index, decoy], rules, ccs, acute_drgs)
        by_admit = {e.stay.admit_date: e for e in events}
        assert by_admit[DAY0].readmit_label is True
        assert by_admit[DAY0 + 10].exclusion_reason == "not_acute_short_stay"
        assert by_admit[DAY0 + 10].readmit_label is None


class TestMortalityScenarios:
    def test_death_inside_window(self, rules, ccs, acute_drgs):
        events, _, _ = run_cohort([ben(death=DAY0 + 3 + 10)], [inpatient(los=3)], rules, ccs, acute_drgs)
        assert events[0].mortality_label is True
        assert events[0].mortality_exclusion is None

    def test_death_on_day_30_counts_day_31_does_not(self, rules, ccs, acute_drgs):
        on_edge, _, _ = run_cohort([ben(death=DAY0 + 3 + 30)], [inpatient(los=3)], rules, ccs, acute_drgs)
        assert on_edge[0].mortality_label is True
        past, _, _ = run_cohort([ben(death=DAY0 + 3 + 31)], [inpatient(los=3)], rules, ccs, acute_drgs)
        assert past[0].mortality_label is False

    def test_ama_discharge_is_excluded_not_negative(self, rules, ccs, acute_drgs):
        events, _, _ = run_cohort(
            [ben(death=DAY0 + 3 + 5)], [inpatient(los=3, disposition="ama")], rules, ccs, acute_drgs
        )
        assert events[0].mortality_label is False
        assert events[0].mortality_exclusion == "ama"
        # Without a death the AMA discharge is a plain negative.
        alive, _, _ = run_cohort([ben()], [inpatient(los=3, disposition="ama")], rules, ccs, acute_drgs)
        assert alive[0].mortality_label is False
        assert alive[0].mortality_exclusion is None

    def test_hospice_discharge_is_excluded(self, rules, ccs, acute_drgs):
        events, _, _ = run_cohort(
            [ben(death=DAY0 + 3 + 5)], [inpatient(los=3, disposition="hospice")], rules, ccs, acute_drgs
        )
        assert events[0].mortality_exclusion == "hospice"

    def test_hospice_admission_before_death_is_excluded(self, rules, ccs, acute_drgs):
        index = inpatient(admit=DAY0, los=3)
        hospice_stay = inpatient(admit=DAY0 + 10, los=2, disposition="hospice")
        events, _, _ = run_cohort(
            [ben(death=DAY0 + 3 + 20)], [index, hospice_stay], rules, ccs, acute_drgs
        )
        by_admit = {e.stay.admit_date: e for e in events}
        assert by_admit[DAY0].mortality_exclusion == "hospice"
        assert by_admit[DAY0].mortality_label is False


class TestSummaryAndAudit:
    def test_audit_counts(self, rules, ccs, acute_drgs, small_population):
        events, stays, audit = run_cohort(
            small_population.beneficiaries, small_population.claims, rules, ccs, acute_drgs
        )
        assert audit["n_events"] == len(events)
        assert audit["n_eligible"] == sum(1 for e in events if e.eligible)
        assert audit["n_eligible"] + sum(audit["exclusions"].values()) == audit["n_events"]
        assert set(audit["exclusions"]) <= {
            "not_acute_short_stay", "age", "expired_inpatient", "transferred_out", "enrollment_gap",
        }

    def test_summary_table_shape(self, rules, ccs, acute_drgs):
        bens = [ben(bid=f"B{i}", birth_year=1935 + i, race=r)
                for i, r in enumerate(("white", "black", "asian"))]
        claims = [inpatient(bid=b.beneficiary_id) for b in bens]
        events, _, _ = run_cohort(bens, claims, rules, ccs, acute_drgs)
        text = cohort_summary(events, {b.beneficiary_id: b for b in bens})
        lines = text.strip().splitlines()
        assert lines[0] == "Total beneficiaries,3"
        assert "Race,Unknown,White,Black,Other,Asian,Hispanic,North American Native,Total" in lines
        assert "Gender,Male,Female,Total" in lines
        assert "Age Range,Unknown,<65,65~69,70~74,75~79,80~84,>85,Total" in lines
        # Each section carries a Counts row and a Percentage row that sums to 100%.
        assert sum(1 for line in lines if line.startswith("Counts,")) == 3
        assert all(line.endswith("100.00%") for line in lines if line.startswith("Percentage,"))

    def test_age_bands(self):
        assert age_band(64) == "<65"
        assert age_band(65) == "65~69"
        assert age_band(74) == "70~74"
        assert age_band(84) == "80~84"
        assert age_band(85) == ">85"
        # The reference's labels are the kernel's bands, at every age.
        ages = np.arange(40, 111)
        assert [age_band(age) for age in ages.tolist()] == [AGE_BANDS[1 + band] for band in age_band_index(ages).tolist()]


class TestOverlapGuard:
    def test_unmergeable_overlap_raises(self):
        # Same admit day, second claim not mergeable because claims are
        # processed in (admit, discharge) order; engineering a true overlap
        # needs claims the fold cannot join. Two claims where the later one
        # starts before the earlier one ends always merge, so the guard only
        # fires on malformed orderings injected directly.
        a = inpatient(admit=DAY0, los=5)
        b = inpatient(admit=DAY0 + 2, los=1)
        stays = resolve_stays([a, b])
        assert len(stays) == 1  # the fold absorbs it; no exception


def kernel_world(bens, claims):
    """The kernel's columns for hand-built records, checked against the
    reference; and each event's row by (beneficiary, admit day)."""
    cols, events, _, _ = checked_cohort(bens, claims, load_planned_rules(), CcsMap.synthetic(), load_acute_drgs())
    return cols, {(e.stay.beneficiary_id, e.stay.admit_date): i for i, e in enumerate(events)}


def code_rows(cols, name):
    """Each stay's codes of column `name` as strings."""
    words = text_words(cols, cols[name])
    ptr = cols[f"{name}_ptr"].tolist()
    return [[words[c] for c in cols[name][a:b].tolist()] for a, b in zip(ptr, ptr[1:])]


class TestKernelWorlds:
    """Worlds at the edge of each rule, asserted on the kernel's own
    columns (the reference equality is checked on the way)."""

    def test_transfer_grace_counts_from_the_last_merged_claim(self):
        claims = [
            # The day after an acute transfer merges; two days after does not.
            inpatient(bid="B1", admit=DAY0, los=2, disposition="transfer_acute"),
            inpatient(bid="B1", admit=DAY0 + 3, los=2),
            inpatient(bid="B1", admit=DAY0 + 40, los=2, disposition="transfer_acute"),
            inpatient(bid="B1", admit=DAY0 + 44, los=2),
            # A claim inside an open stay; its transfer gives the grace day
            # after the stay's later discharge.
            inpatient(bid="B2", admit=DAY0, los=10),
            inpatient(bid="B2", admit=DAY0 + 2, los=2, disposition="transfer_acute"),
            inpatient(bid="B2", admit=DAY0 + 11, los=1),
        ]
        cols, _ = kernel_world([ben("B1"), ben("B2")], claims)
        assert cols["stay.admit_date"].tolist() == [DAY0, DAY0 + 40, DAY0 + 44, DAY0]
        assert cols["stay.discharge_date"].tolist() == [DAY0 + 5, DAY0 + 42, DAY0 + 46, DAY0 + 12]
        ids = text_words(cols, cols["stay.stay_id"])
        assert [ids[c] for c in cols["stay.stay_id"].tolist()] == [claims[i].claim_id for i in (0, 2, 3, 4)]

    def test_codes_repeat_within_a_claim_and_merge_once_across_claims(self):
        claims = [
            inpatient(bid="B1", admit=DAY0, los=2, dx=("D0001", "D0004", "D0001"), proc=("P0001", "P0001")),
            inpatient(bid="B2", admit=DAY0, los=2, dx=("D0004", "D0004"), proc=("P0002",), disposition="transfer_acute"),
            inpatient(bid="B2", admit=DAY0 + 3, los=1, dx=("D0001", "D0004"), proc=("P0002", "P0001")),
        ]
        cols, _ = kernel_world([ben("B1"), ben("B2")], claims)
        assert code_rows(cols, "stay.all_dx") == [["D0001", "D0004", "D0001"], ["D0004", "D0001"]]
        assert code_rows(cols, "stay.all_proc") == [["P0001", "P0001"], ["P0002", "P0001"]]
        words = text_words(cols, cols["stay.principal_dx"])
        assert [words[c] for c in cols["stay.principal_dx"].tolist()] == ["D0001", "D0004"]

    def test_readmission_window_edges_and_a_planned_candidate(self):
        claims = [
            inpatient(bid="B1", admit=DAY0, los=3),
            inpatient(bid="B1", admit=DAY0 + 3 + 30, los=2),
            inpatient(bid="B2", admit=DAY0, los=3),
            inpatient(bid="B2", admit=DAY0 + 3 + 31, los=2),
            inpatient(bid="B3", admit=DAY0, los=3),
            # P0013 maps to proc category 4, a planned procedure.
            inpatient(bid="B3", admit=DAY0 + 10, los=2, proc=("P0013",)),
            inpatient(bid="B3", admit=DAY0 + 20, los=2),
        ]
        cols, row = kernel_world([ben("B1"), ben("B2"), ben("B3")], claims)
        labels, credited = cols["event.readmit_label"], cols["event.readmit_stay"]
        assert labels[row["B1", DAY0]] and credited[row["B1", DAY0]] == row["B1", DAY0 + 33]
        assert not labels[row["B2", DAY0]] and credited[row["B2", DAY0]] == -1
        assert not labels[row["B3", DAY0]] and credited[row["B3", DAY0]] == -1
        assert labels[row["B3", DAY0 + 10]] and credited[row["B3", DAY0 + 10]] == row["B3", DAY0 + 20]

    def test_mortality_exclusions_and_the_hospice_window(self):
        bens = [
            ben("B1", death=DAY0 + 3 + 5),
            ben("B2", death=DAY0 + 3 + 20),
            ben("B3", death=DAY0 + 3 + 10),
            ben("B4", death=DAY0 + 3 + 31),
            ben("B5", death=DAY0 + 3),
            ben("B6", death=DAY0 + 10),
        ]
        claims = [
            inpatient(bid="B1", admit=DAY0, los=3, disposition="ama"),
            inpatient(bid="B2", admit=DAY0, los=3),
            inpatient(bid="B2", admit=DAY0 + 10, los=2, disposition="hospice"),
            inpatient(bid="B3", admit=DAY0, los=3),
            # Admitted to hospice only after the death.
            inpatient(bid="B3", admit=DAY0 + 20, los=2, disposition="hospice"),
            inpatient(bid="B4", admit=DAY0, los=3),
            # Died on the day of discharge, outside the window.
            inpatient(bid="B5", admit=DAY0, los=3),
            # Admitted to hospice on the day of the death.
            inpatient(bid="B6", admit=DAY0, los=3),
            inpatient(bid="B6", admit=DAY0 + 10, los=2, disposition="hospice"),
        ]
        cols, row = kernel_world(bens, claims)
        index = [row[bid, DAY0] for bid in ("B1", "B2", "B3", "B4", "B5", "B6")]
        assert cols["event.mortality_exclusion"][index].tolist() == [0, 1, -1, -1, -1, 1]
        assert cols["event.mortality_label"][index].tolist() == [False, False, True, False, False, False]
        assert cols["event.mortality_excluded"][index].tolist() == [True, True, False, False, False, True]

    def test_age_65_esrd_and_enrollment_edges(self):
        bens = [
            ben("B1", birth_date=DAY0 - 23742),  # 65 on the day of admission
            ben("B2", birth_date=DAY0 - 23741),  # a day short of it
            ben("B3", birth_year=1950, status="aged_esrd"),
            ben("B4", intervals=((DAY0 - 800, DAY0 - 10), (DAY0 - 9, DAY0 + 400))),
            ben("B5", intervals=((DAY0 - 800, DAY0 - 10), (DAY0 - 8, DAY0 + 400))),
            # Coverage from exactly 365 days before admission to exactly 30
            # days after discharge, and a day short at either end.
            ben("B6", intervals=((DAY0 - 365, DAY0 + 3 + 30),)),
            ben("B7", intervals=((DAY0 - 364, DAY0 + 400),)),
            ben("B8", intervals=((DAY0 - 800, DAY0 + 3 + 29),)),
        ]
        claims = [inpatient(bid=b.beneficiary_id, admit=DAY0, los=3) for b in bens]
        cols, _ = kernel_world(bens, claims)
        assert cols["event.age"].tolist()[:3] == [65, 64, 61]
        reasons = [EXCLUSION_REASONS[i] if i >= 0 else None for i in cols["event.exclusion"].tolist()]
        assert reasons == [None, "age", None, None, "enrollment_gap", None, "enrollment_gap", "enrollment_gap"]


@pytest.mark.parametrize("n_patients, seed", [(2000, 20110901), (5000, 7)])
def test_whole_populations_equal_the_reference(n_patients, seed):
    population = population_records(SyntheticConfig(n_patients=n_patients, seed=seed))
    bundle = load_bundle()
    cols, events, _, audit = checked_cohort(
        population.beneficiaries, population.claims, bundle.planned_rules, bundle.ccs, bundle.acute_drgs
    )
    # Both tasks' labels, as featurize reads them.
    assert len(events) == len(cols["event.stay"]) == audit["n_events"]
    assert int(cols["event.readmit_label"].sum()) == audit["readmit_positive"] > 0
    assert int(cols["event.mortality_label"].sum()) == audit["mortality_positive"] > 0
    assert int(cols["event.mortality_excluded"].sum()) == sum(audit["mortality_excluded"].values()) > 0
    assert np.array_equal(cols["event.eligible"], [e.eligible for e in events])
