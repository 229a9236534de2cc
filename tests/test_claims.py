"""Record validation, population file round trips, and properties the
synthetic generator must guarantee (determinism, planted-signal bookkeeping,
presence of the structural edge cases downstream code screens for)."""

import json
import math

import numpy as np
import pytest

from seqfuse.claims import (
    Beneficiary,
    ClaimRecord,
    GroundTruth,
    OutcomeSignal,
    SyntheticConfig,
    day_to_iso,
    default_signals,
    generate_population,
    _gen_patient,
    ingest_claims,
    iso_to_day,
    read_ground_truth,
    write_ground_truth,
    write_npz,
    write_population,
)
from seqfuse.cohort import population_columns
from seqfuse.errors import ParseError, ValidationError
from seqfuse.knowledge import CcsMap, load_charlson_weights
from seqfuse.rng import Xoshiro256, derive_seed
from tests.reference import read_population_npz


def make_inpatient(**overrides) -> ClaimRecord:
    base = dict(
        claim_id="C1",
        beneficiary_id="B1",
        claim_type="inpatient",
        admit_date=iso_to_day("2011-01-01"),
        discharge_date=iso_to_day("2011-01-04"),
        dx_codes=("D0001",),
        proc_codes=("P0001",),
        drg="DRG001",
        admission_type="emergent",
        admission_source="community",
        discharge_disposition="home",
        facility_id="F01",
    )
    base.update(overrides)
    return ClaimRecord(**base)


def make_beneficiary(**overrides) -> Beneficiary:
    base = dict(
        beneficiary_id="B1",
        birth_date=iso_to_day("1940-06-15"),
        gender="female",
        race="white",
        dual_eligible=False,
        medicare_status="aged_no_esrd",
        enrollment_intervals=((iso_to_day("2009-01-01"), iso_to_day("2012-12-31")),),
    )
    base.update(overrides)
    return Beneficiary(**base)


class TestDates:
    def test_round_trip(self):
        for text in ("1970-01-01", "2011-03-01", "1999-12-31"):
            assert day_to_iso(iso_to_day(text)) == text
        assert iso_to_day("1970-01-01") == 0
        assert iso_to_day("1970-01-02") == 1


class TestClaimValidation:
    def test_valid_inpatient(self):
        make_inpatient().validate()

    def test_inpatient_requires_admission_fields(self):
        for missing in ("drg", "admission_type", "admission_source", "discharge_disposition", "facility_id"):
            with pytest.raises(ValidationError):
                make_inpatient(**{missing: None}).validate()

    def test_inpatient_requires_dx(self):
        with pytest.raises(ValidationError):
            make_inpatient(dx_codes=()).validate()

    def test_admit_after_discharge_rejected(self):
        with pytest.raises(ValidationError):
            make_inpatient(admit_date=10, discharge_date=9).validate()

    def test_outpatient_is_point_event_without_admission_fields(self):
        claim = ClaimRecord(
            claim_id="C2",
            beneficiary_id="B1",
            claim_type="outpatient",
            admit_date=100,
            discharge_date=100,
            dx_codes=("D0005",),
        )
        claim.validate()
        with pytest.raises(ValidationError):
            ClaimRecord(
                claim_id="C3",
                beneficiary_id="B1",
                claim_type="ed",
                admit_date=100,
                discharge_date=101,
                dx_codes=("D0005",),
            ).validate()
        with pytest.raises(ValidationError):
            ClaimRecord(
                claim_id="C4",
                beneficiary_id="B1",
                claim_type="ed",
                admit_date=100,
                discharge_date=100,
                dx_codes=("D0005",),
                drg="DRG001",
            ).validate()

    def test_principal_dx_is_first(self):
        claim = make_inpatient(dx_codes=("D0031", "D0001"))
        assert claim.principal_dx == "D0031"

    def test_json_round_trip(self):
        claim = make_inpatient(dx_codes=("D0031", "D0001"), proc_codes=())
        again = ClaimRecord.from_json_obj(claim.to_json_obj())
        assert again == claim


class TestBeneficiaryValidation:
    def test_valid(self):
        make_beneficiary().validate()

    def test_interval_order_enforced(self):
        with pytest.raises(ValidationError):
            make_beneficiary(enrollment_intervals=((10, 5),)).validate()
        with pytest.raises(ValidationError):
            make_beneficiary(enrollment_intervals=((0, 10), (5, 20))).validate()

    def test_age_at(self):
        ben = make_beneficiary(birth_date=iso_to_day("1940-06-15"))
        assert ben.age_at(iso_to_day("2011-06-14")) == 70
        assert ben.age_at(iso_to_day("2011-06-16")) == 71

    def test_covers_merges_back_to_back_intervals(self):
        ben = make_beneficiary(enrollment_intervals=((0, 99), (100, 200)))
        assert ben.covers(50, 150)
        gap = make_beneficiary(enrollment_intervals=((0, 99), (101, 200)))
        assert not gap.covers(50, 150)
        assert gap.covers(101, 200)
        assert not gap.covers(195, 201)

    def test_json_round_trip_with_death(self):
        ben = make_beneficiary(death_date=iso_to_day("2011-09-01"))
        assert Beneficiary.from_json_obj(ben.to_json_obj()) == ben


class TestPopulationFiles:
    def test_round_trip_and_sorted_output(self, tmp_path):
        bens = [make_beneficiary(beneficiary_id=f"B{i}") for i in (2, 1)]
        claims = [
            make_inpatient(claim_id="C2", beneficiary_id="B1", admit_date=20, discharge_date=21),
            make_inpatient(claim_id="C1", beneficiary_id="B1", admit_date=10, discharge_date=12),
        ]
        path = tmp_path / "pop.jsonl"
        write_population(path, bens, claims)
        loaded_bens, loaded_claims = ingest_claims(path)
        assert [b.beneficiary_id for b in loaded_bens] == ["B1", "B2"]
        assert [c.claim_id for c in loaded_claims] == ["C1", "C2"]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        ben_line = '{"kind": "beneficiary"}'  # missing fields
        path.write_text(ben_line + "\n")
        with pytest.raises(ParseError) as exc:
            ingest_claims(path)
        assert exc.value.line_no == 1

    def test_invalid_json_rejects_file(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ParseError):
            ingest_claims(path)

    def test_orphan_claim_rejected(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        write_population(path, [make_beneficiary()], [make_inpatient(beneficiary_id="B1")])
        lines = path.read_text().splitlines()
        patched = [
            line.replace('"beneficiary_id":"B1"', '"beneficiary_id":"B9"') if '"kind":"claim"' in line else line
            for line in lines
        ]
        path.write_text("\n".join(patched) + "\n")
        with pytest.raises(ValidationError, match="unknown beneficiaries"):
            ingest_claims(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        claims = [make_inpatient(claim_id="C1"), make_inpatient(claim_id="C1", admit_date=50, discharge_date=51)]
        write_population(path, [make_beneficiary()], claims)
        with pytest.raises(ParseError):
            ingest_claims(path)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("claim", "drg", 470),
            ("claim", "facility_id", 12),
            ("claim", "claim_id", 3),
            ("claim", "dx_codes", ["D0001", 5]),
            ("claim", "proc_codes", [None]),
            ("beneficiary", "beneficiary_id", 1),
        ],
    )
    def test_non_string_text_rejected(self, tmp_path, kind, field, value):
        path = tmp_path / "pop.jsonl"
        write_population(path, [make_beneficiary()], [make_inpatient()])
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        for obj in objs:
            if obj["kind"] == kind:
                obj[field] = value
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        with pytest.raises(ParseError, match=field):
            ingest_claims(path)

    def test_columnar_store_returns_the_records_it_was_given(self, tmp_path):
        bens = [
            make_beneficiary(beneficiary_id="B1", death_date=iso_to_day("2011-09-01")),
            make_beneficiary(
                beneficiary_id="Bé\0", dual_eligible=True, enrollment_intervals=((-400, -10), (0, 99), (100, 200))
            ),
        ]
        claims = [
            make_inpatient(claim_id="C1", dx_codes=("D0031", "D0001"), proc_codes=()),
            ClaimRecord("C2", "Bé\0", "outpatient", 5, 5, ("D0001",), ("P0002", "P0001"), facility_id=""),
            # A lone surrogate is a valid str that strict UTF-8 cannot encode.
            ClaimRecord("C3", "Bé\0", "ed", 7, 7, (), facility_id="\udc80"),
        ]
        path = tmp_path / "pop.npz"
        write_npz(path, population_columns(bens, claims, [], []))
        with np.load(path, allow_pickle=False) as npz:
            loaded_bens, loaded_claims = read_population_npz(npz)
        assert loaded_bens == bens and loaded_claims == claims
        assert loaded_claims[1].facility_id == "" and loaded_claims[0].facility_id == "F01"
        assert loaded_claims[2].drg is None and loaded_bens[0].death_date is not None
        assert read_population_npz(population_columns(bens[:1], [], [], [])) == (bens[:1], [])

    def test_ground_truth_header_contract(self, tmp_path):
        rows = [
            GroundTruth(
                beneficiary_id="B1",
                index_admit_date=100,
                index_discharge_date=104,
                readmit_label=True,
                mortality_label=False,
                p_readmit=0.4,
                p_mortality=0.1,
                charlson=2,
                los=4,
                ed_visits_12m=1,
                ccs_present=(0, 1),
            )
        ]
        path = tmp_path / "truth.csv"
        write_ground_truth(path, rows)
        first = path.read_text().splitlines()[0]
        assert first == "beneficiary_id,index_discharge_date,readmit_label,mortality_label"
        parsed = read_ground_truth(path)
        assert parsed[0]["beneficiary_id"] == "B1"
        assert parsed[0]["readmit_label"] == 1

    def test_ground_truth_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("id,date,y1,y2\n")
        with pytest.raises(ValidationError):
            read_ground_truth(path)


class TestOutcomeSignal:
    def test_logit_terms(self):
        signal = OutcomeSignal(
            intercept=-1.0, ccs_weights={3: 0.5, 7: 0.25}, charlson_weight=0.1, los_weight=0.2, ed_weight=0.3
        )
        assert signal.logit(set(), 0, 0, 0) == -1.0
        assert signal.logit({3}, 0, 0, 0) == pytest.approx(-0.5)
        assert signal.logit({3, 7, 9}, 2, 5, 1) == pytest.approx(-1.0 + 0.75 + 0.2 + 1.0 + 0.3)

    def test_default_signals_fire_outside_the_sequence(self):
        readmit, mortality = default_signals()
        # Both outcomes lean on LOS and prior ED use, which the code
        # sequence alone cannot represent once outpatient steps are dropped.
        assert readmit.ed_weight > 0 and readmit.los_weight > 0
        assert mortality.ed_weight > 0 and mortality.los_weight > 0


class TestGenerator:
    def test_deterministic(self, small_population):
        cfg = SyntheticConfig(n_patients=250, seed=1234)
        again = generate_population(cfg)
        assert again.beneficiaries == small_population.beneficiaries
        assert again.claims == small_population.claims
        assert again.truth == small_population.truth

    @pytest.mark.parametrize("n_patients, seed", [(1100, 5), (60, 20110901)])
    def test_equals_one_scalar_stream_per_patient(self, n_patients, seed):
        cfg = SyntheticConfig(n_patients=n_patients, seed=seed)
        ccs = CcsMap.synthetic(cfg.dx_vocab, cfg.proc_vocab)
        weights = load_charlson_weights()
        beneficiaries, claims, truth = [], [], []
        for i in range(n_patients):
            ben, patient_claims, row = _gen_patient(i, cfg, ccs, weights, Xoshiro256(derive_seed(seed, "patient", i)))
            beneficiaries.append(ben)
            claims.extend(patient_claims)
            truth.extend([row] if row is not None else [])
        population = generate_population(cfg)
        assert population.beneficiaries == beneficiaries
        assert population.claims == claims
        assert population.truth == truth

    def test_every_claim_validates_and_references_a_beneficiary(self, small_population):
        ids = {b.beneficiary_id for b in small_population.beneficiaries}
        for claim in small_population.claims:
            claim.validate()
            assert claim.beneficiary_id in ids
        for ben in small_population.beneficiaries:
            ben.validate()

    def test_truth_probabilities_match_stored_state(self, small_population):
        readmit, mortality = default_signals()
        for row in small_population.truth:
            present = set(row.ccs_present)
            p_r = 1.0 / (1.0 + math.exp(-readmit.logit(present, row.charlson, row.los, row.ed_visits_12m)))
            p_m = 1.0 / (1.0 + math.exp(-mortality.logit(present, row.charlson, row.los, row.ed_visits_12m)))
            assert row.p_readmit == pytest.approx(p_r, rel=1e-12)
            assert row.p_mortality == pytest.approx(p_m, rel=1e-12)

    def test_truth_readmit_labels_have_a_matching_stay(self, small_population):
        claims_by_ben = {}
        for claim in small_population.claims:
            if claim.claim_type == "inpatient":
                claims_by_ben.setdefault(claim.beneficiary_id, []).append(claim)
        for row in small_population.truth:
            if not row.readmit_label:
                continue
            later = [
                c
                for c in claims_by_ben[row.beneficiary_id]
                if row.index_discharge_date < c.admit_date <= row.index_discharge_date + 30
            ]
            assert later, f"planted readmission missing for {row.beneficiary_id}"

    def test_truth_mortality_labels_match_denominator(self, small_population):
        deaths = {b.beneficiary_id: b.death_date for b in small_population.beneficiaries}
        for row in small_population.truth:
            death = deaths[row.beneficiary_id]
            in_window = death is not None and row.index_discharge_date < death <= row.index_discharge_date + 30
            assert row.mortality_label == in_window

    def test_structural_wrinkles_are_present(self, small_population):
        bens = small_population.beneficiaries
        claims = small_population.claims
        anchors = [c for c in claims if c.claim_type == "inpatient"]
        assert any(b.age_at(iso_to_day("2011-06-01")) < 65 for b in bens)
        assert any(len(b.enrollment_intervals) > 1 for b in bens)
        assert any(c.discharge_disposition == "transfer_acute" for c in anchors)
        assert any(c.discharge_disposition in ("ama", "hospice", "expired") for c in anchors)
        assert any(c.admission_type == "elective" for c in anchors)
        assert any(c.claim_type in ("outpatient", "ed") for c in claims)

    def test_info_reports_rates_and_signals(self, small_population):
        info = small_population.info
        assert info["n_patients"] == 250
        assert 0.0 < info["readmit_rate"] < 1.0
        assert 0.0 < info["mortality_rate"] < 1.0
        assert "readmit_signal" in info and "wrinkle_rates" in info

    def test_config_guards(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(n_patients=0, seed=1).validate()
        with pytest.raises(ValidationError):
            SyntheticConfig(n_patients=5, seed=1, dx_vocab=30).validate()
        with pytest.raises(ValidationError):
            SyntheticConfig(n_patients=5, seed=1, proc_vocab=10).validate()
        with pytest.raises(ValidationError):
            SyntheticConfig(n_patients=5, seed=1, mean_claims_per_patient=0.0).validate()
