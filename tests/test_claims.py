"""Record validation, the claims archive and its checks, and properties the
synthetic generator must guarantee (determinism, equality with the scalar
reference generator, planted-signal bookkeeping, presence of the structural
edge cases downstream code screens for)."""

import json
import math

import numpy as np
import pytest

from seqfuse import claims as claims_module
from seqfuse.claims import (
    OutcomeSignal,
    SyntheticConfig,
    code_table,
    day_to_iso,
    default_signals,
    generate_population,
    ingest_claims,
    iso_to_day,
    text_words,
    write_npz,
)
from seqfuse.cli import main
from seqfuse.errors import ValidationError
from seqfuse.knowledge import load_acute_drgs, load_hac_rules, load_planned_rules
from tests.reference import (
    Beneficiary,
    ClaimRecord,
    ReferenceXoshiro256,
    _anchor_los,
    _free_span,
    _late_decoy_fits,
    _npz_bytes,
    age_at,
    claim_columns,
    covers,
    demo_synthetic,
    logit,
    population_records,
    read_population_npz,
    reference_population,
    truth_records,
)


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
        assert age_at(ben, iso_to_day("2011-06-14")) == 70
        assert age_at(ben, iso_to_day("2011-06-16")) == 71

    def test_covers_merges_back_to_back_intervals(self):
        ben = make_beneficiary(enrollment_intervals=((0, 99), (100, 200)))
        assert covers(ben, 50, 150)
        gap = make_beneficiary(enrollment_intervals=((0, 99), (101, 200)))
        assert not covers(gap, 50, 150)
        assert covers(gap, 101, 200)
        assert not covers(gap, 195, 201)


def write_claims(path, bens, claims, changes=None):
    """`claim_columns` of the records as an archive, with the members in
    `changes` replaced (or, for None, dropped)."""
    cols = claim_columns(bens, claims)
    for name, value in (changes or {}).items():
        if value is None:
            del cols[name]
        else:
            cols[name] = value
    write_npz(path, cols)
    return path


def point_claim(claim_type="ed", day=100, **overrides) -> ClaimRecord:
    return ClaimRecord(**{"claim_id": "C2", "beneficiary_id": "B1", "claim_type": claim_type, "admit_date": day,
                          "discharge_date": day, "dx_codes": ("D0005",), **overrides})


class TestPopulationFiles:
    def test_round_trip_and_sorted_output(self, tmp_path):
        bens = [make_beneficiary(beneficiary_id=f"B{i}") for i in (2, 1)]
        claims = [
            make_inpatient(claim_id="C2", beneficiary_id="B1", admit_date=20, discharge_date=21),
            make_inpatient(claim_id="C1", beneficiary_id="B1", admit_date=10, discharge_date=12),
        ]
        loaded_bens, loaded_claims = read_population_npz(ingest_claims(write_claims(tmp_path / "claims.npz", bens, claims)))
        assert [b.beneficiary_id for b in loaded_bens] == ["B1", "B2"]
        assert [c.claim_id for c in loaded_claims] == ["C1", "C2"]
        assert loaded_bens == bens[::-1] and loaded_claims == claims[::-1]

    def test_missing_member_rejected(self, tmp_path):
        path = write_claims(tmp_path / "claims.npz", [make_beneficiary()], [], {"beneficiary.birth_date": None})
        with pytest.raises(ValidationError, match=r"missing members \['beneficiary.birth_date'\]"):
            ingest_claims(path)
        path = write_claims(tmp_path / "claims.npz", [make_beneficiary()], [], {"beneficiary.kind": np.zeros(1)})
        with pytest.raises(ValidationError, match=r"unknown members \['beneficiary.kind'\]"):
            ingest_claims(path)

    def test_non_zip_file_rejected(self, tmp_path):
        path = tmp_path / "claims.npz"
        path.write_text("{not json\n")
        with pytest.raises(ValidationError, match="not a NumPy archive"):
            ingest_claims(path)

    def test_orphan_claim_rejected(self, tmp_path):
        path = write_claims(tmp_path / "claims.npz", [make_beneficiary()], [make_inpatient(beneficiary_id="B9")])
        with pytest.raises(ValidationError, match="unknown beneficiaries"):
            ingest_claims(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        claims = [make_inpatient(claim_id="C1"), make_inpatient(claim_id="C1", admit_date=50, discharge_date=51)]
        with pytest.raises(ValidationError, match="duplicate claim_id 'C1'"):
            ingest_claims(write_claims(tmp_path / "claims.npz", [make_beneficiary()], claims))
        bens = [make_beneficiary(), make_beneficiary()]
        with pytest.raises(ValidationError, match="duplicate beneficiary_id 'B1'"):
            ingest_claims(write_claims(tmp_path / "claims.npz", bens, [make_inpatient()]))

    @pytest.mark.parametrize(
        "column, bad, problem",
        [
            pytest.param("claim.drg", np.array([470], dtype=np.int32), "holds codes outside", id="claim-drg-470"),
            pytest.param("claim.facility_id", np.array([12]), "must be 1-D int32", id="claim-facility_id-12"),
            pytest.param("claim.claim_id", np.array([3.0]), "must be 1-D int32", id="claim-claim_id-3"),
            pytest.param("claim.dx_codes", np.array(["D0001", "5"]), "must be 1-D int32", id="claim-dx_codes-value3"),
            pytest.param("claim.proc_codes", np.array([-1], dtype=np.int32), "holds codes outside", id="claim-proc_codes-value4"),
            pytest.param("beneficiary.beneficiary_id", np.array([1]), "must be 1-D int32", id="beneficiary-beneficiary_id-1"),
        ],
    )
    def test_non_string_text_rejected(self, tmp_path, column, bad, problem):
        """A text column that does not hold codes into the string table:
        the wrong dtype, or a code outside the table (-1, None, where a
        string is required)."""
        path = write_claims(tmp_path / "claims.npz", [make_beneficiary()], [make_inpatient()], {column: bad})
        with pytest.raises(ValidationError, match=f"{column} {problem}"):
            ingest_claims(path)

    @pytest.mark.parametrize(
        "changes, problem",
        [
            ({"claim.dx_codes_ptr": np.array([0, 2])}, "claim.dx_codes_ptr is not a CSR pointer array"),
            ({"claim.proc_codes_ptr": np.array([1, 1])}, "claim.proc_codes_ptr is not a CSR pointer array"),
            ({"beneficiary.enrollment_ptr": np.array([0])}, "beneficiary.enrollment_ptr is not a CSR pointer array"),
            ({"text_ptr": np.array([], dtype=np.int64)}, "text_ptr is not a CSR pointer array"),
            ({"beneficiary.enrollment": np.zeros((1, 3), dtype=np.int32)}, "must hold \\(start, end\\) pairs"),
            ({"beneficiary.birth_date": np.zeros(2, dtype=np.int32)}, "beneficiary.birth_date holds 2 rows, not 1"),
            ({"claim.admit_date": np.zeros((1, 1), dtype=np.int32)}, "claim.admit_date must be 1-D int32"),
            ({"text": np.frombuffer(b"\xff" * 200, dtype=np.uint8)[:0]}, "text_ptr is not a CSR pointer array"),
        ],
    )
    def test_malformed_columns_rejected(self, tmp_path, changes, problem):
        path = write_claims(tmp_path / "claims.npz", [make_beneficiary()], [make_inpatient()], changes)
        with pytest.raises(ValidationError, match=problem):
            ingest_claims(path)

    def test_malformed_string_table_rejected(self, tmp_path):
        cols = claim_columns([make_beneficiary()], [make_inpatient()])
        text = cols["text"].copy()
        text[0] = 0xFF
        with pytest.raises(ValidationError, match="not UTF-8"):
            ingest_claims(write_claims(tmp_path / "claims.npz", [make_beneficiary()], [make_inpatient()], {"text": text}))
        # UTF-8 as a whole, but a word boundary splits a character.
        split = {"text": np.frombuffer("é".encode(), dtype=np.uint8), "text_ptr": np.array([0, 1, 2])}
        with pytest.raises(ValidationError, match="not UTF-8"):
            ingest_claims(write_claims(tmp_path / "claims.npz", [make_beneficiary()], [], split))
        # Codes compare as strings only if the table is sorted.
        ptr, words = cols["text_ptr"], cols["text"].tobytes()
        first, second = words[ptr[0] : ptr[1]], words[ptr[1] : ptr[2]]
        swapped = np.frombuffer(second + first + words[ptr[2] :], dtype=np.uint8)
        swapped_ptr = ptr.copy()
        swapped_ptr[1] = len(second)
        changes = {"text": swapped, "text_ptr": swapped_ptr}
        with pytest.raises(ValidationError, match="not sorted and distinct"):
            ingest_claims(write_claims(tmp_path / "claims.npz", [make_beneficiary()], [make_inpatient()], changes))

    def test_word_ending_in_nul_is_distinct_from_its_prefix(self, tmp_path):
        """'female' and 'female\x00' are two sorted words, and only the
        first is a gender, though fixed-width byte strings drop trailing
        NULs and so compare the two as equal."""
        bens = [make_beneficiary(beneficiary_id="B1"), make_beneficiary(beneficiary_id="B2", gender="female\x00")]
        cols = claim_columns(bens, [])
        assert sorted(text_words(cols, cols["beneficiary.gender"]).values()) == ["female", "female\x00"]
        with pytest.raises(ValidationError, match=r"beneficiary 'B2': gender 'female\\x00' invalid"):
            ingest_claims(write_claims(tmp_path / "claims.npz", bens, [], cols))
        # The same two words in the other order, or twice, are not a table.
        for first, second in ((b"M\x00", b"M"), (b"M", b"M")):
            text = np.frombuffer(first + second, dtype=np.uint8)
            changes = {"text": text, "text_ptr": np.array([0, len(first), len(text)])}
            with pytest.raises(ValidationError, match="not sorted and distinct"):
                ingest_claims(write_claims(tmp_path / "claims.npz", [make_beneficiary()], [], changes))

    @pytest.mark.parametrize(
        "bens, claims, problem",
        [
            ([make_beneficiary(gender="x")], [], "beneficiary 'B1': gender 'x' invalid"),
            ([make_beneficiary(race="martian")], [], "race 'martian' invalid"),
            ([make_beneficiary(medicare_status="aged")], [], "medicare_status 'aged' invalid"),
            ([make_beneficiary(beneficiary_id="")], [], "must be non-empty"),
            ([make_beneficiary(enrollment_intervals=())], [], "needs at least one enrollment interval"),
            ([make_beneficiary(enrollment_intervals=((10, 5),))], [], "enrollment interval start after end"),
            ([make_beneficiary(enrollment_intervals=((0, 10), (5, 20)))], [], "overlap or are unsorted"),
            ([make_beneficiary(enrollment_intervals=((30, 40), (0, 10)))], [], "overlap or are unsorted"),
            ([make_beneficiary(death_date=iso_to_day("1940-01-01"))], [], "death before birth"),
            ([make_beneficiary()], [make_inpatient(claim_id="")], "must be non-empty"),
            ([make_beneficiary()], [make_inpatient(claim_type="snf")], "claim 'C1': claim_type 'snf' invalid"),
            ([make_beneficiary()], [make_inpatient(admit_date=10, discharge_date=9)], "admit_date after discharge_date"),
            ([make_beneficiary()], [make_inpatient(dx_codes=())], "needs at least one dx code"),
            ([make_beneficiary()], [make_inpatient(admission_type=None)], "admission_type None invalid"),
            ([make_beneficiary()], [make_inpatient(admission_source="air")], "admission_source 'air' invalid"),
            ([make_beneficiary()], [make_inpatient(discharge_disposition="x")], "discharge_disposition 'x' invalid"),
            ([make_beneficiary()], [make_inpatient(drg=None)], "inpatient claim needs a drg"),
            ([make_beneficiary()], [make_inpatient(drg="")], "inpatient claim needs a drg"),
            ([make_beneficiary()], [make_inpatient(facility_id=None)], "inpatient claim needs a facility_id"),
            ([make_beneficiary()], [point_claim(discharge_date=101)], "must be single-day events"),
            ([make_beneficiary()], [point_claim("outpatient", drg="DRG001")], "drg only applies to inpatient claims"),
            ([make_beneficiary()], [point_claim(admission_type="emergent")], "admission_type only applies"),
        ],
    )
    def test_invalid_records_rejected(self, tmp_path, bens, claims, problem):
        """Each rule of `validate`, on records it rejects, now that the
        archive no longer goes through it."""
        with pytest.raises(ValidationError, match=problem):
            ingest_claims(write_claims(tmp_path / "claims.npz", bens, claims))

    def test_rows_out_of_order_rejected(self, tmp_path):
        bens = [make_beneficiary(beneficiary_id="B1"), make_beneficiary(beneficiary_id="B2")]
        claims = [make_inpatient(claim_id="C1"), make_inpatient(claim_id="C2", admit_date=50, discharge_date=51)]
        cols = claim_columns(bens, claims)
        for name in ("claim.admit_date", "claim.discharge_date"):
            cols[name] = cols[name][::-1].copy()
        with pytest.raises(ValidationError, match="claims are not sorted"):
            ingest_claims(write_claims(tmp_path / "claims.npz", bens, claims, cols))
        # Same admit and discharge: the claim id decides.
        claims = [make_inpatient(claim_id="C1"), make_inpatient(claim_id="C2")]
        cols = claim_columns(bens, claims)
        cols["claim.claim_id"] = cols["claim.claim_id"][::-1].copy()
        with pytest.raises(ValidationError, match="claims are not sorted"):
            ingest_claims(write_claims(tmp_path / "claims.npz", bens, claims, cols))
        cols = claim_columns(bens, [])
        cols["beneficiary.beneficiary_id"] = cols["beneficiary.beneficiary_id"][::-1].copy()
        with pytest.raises(ValidationError, match="beneficiaries are not sorted"):
            ingest_claims(write_claims(tmp_path / "claims.npz", bens, [], cols))

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
        write_npz(path, claim_columns(bens, claims))
        with np.load(path, allow_pickle=False) as npz:
            loaded_bens, loaded_claims = read_population_npz(npz)
        assert loaded_bens == bens and loaded_claims == claims
        assert loaded_claims[1].facility_id == "" and loaded_claims[0].facility_id == "F01"
        assert loaded_claims[2].drg is None and loaded_bens[0].death_date is not None
        assert read_population_npz(claim_columns(bens[:1], [])) == (bens[:1], [])
        assert read_population_npz(ingest_claims(path)) == (bens, claims)

    def test_truth_archive(self, tmp_path):
        """Generate writes the planted events' truth as `generate/truth.npz`:
        exactly these seven columns, in order, each the generator's column
        in dtype and bytes, and its rows are the reference generator's."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"outdir": str(tmp_path / "run"), "seed": 7, "generate": {"n_patients": 60}}))
        assert main(["generate", "--config", str(config)]) == 0
        cfg = demo_synthetic(60, 7)
        truth = generate_population(cfg).truth
        names = ["patient", "admit", "discharge", "readmit", "mortality", "p_readmit", "p_mortality"]
        with np.load(tmp_path / "run" / "generate" / "truth.npz", allow_pickle=False) as npz:
            assert npz.files == names
            archive = {name: npz[name] for name in names}
        for name in names:
            assert archive[name].dtype == truth[name].dtype and archive[name].tobytes() == truth[name].tobytes(), name
        rows = [(f"B{patient:06d}", *fields) for patient, *fields in zip(*(archive[name].tolist() for name in names))]
        expected = [
            (t.beneficiary_id, t.index_admit_date, t.index_discharge_date, t.readmit_label, t.mortality_label,
             t.p_readmit, t.p_mortality)
            for t in reference_population(cfg).truth
        ]
        assert rows == expected and rows


class TestCodeTable:
    # A hand-built string table: code 0 "F", 1 "female", 2 "female\x00", 3 "male".
    COLS = {"text": np.frombuffer(b"Ffemalefemale\x00male", dtype=np.uint8), "text_ptr": np.array([0, 1, 7, 14, 18])}
    COLUMN = np.array([3, -1, 2, 3, 1], dtype=np.int32)

    def test_converts_the_codes_asked_for(self):
        """Each code among those asked for holds its word's value, the last
        slot the value of None (the null code -1), and every other code 0."""
        table = code_table(self.COLS, self.COLUMN, lambda word: -9 if word is None else len(word), np.int64)
        assert table.dtype == np.int64
        assert table.tolist() == [0, 6, 7, 4, -9]
        assert table[self.COLUMN].tolist() == [4, -9, 7, 4, 6]

    def test_word_ending_in_nul_is_its_own_word(self):
        table = code_table(self.COLS, self.COLUMN, ("female",).__contains__)
        assert table.dtype == bool
        assert table.tolist() == [False, True, False, False, False]
        assert table[self.COLUMN].tolist() == [False, False, False, False, True]


class TestOutcomeSignal:
    def test_logit_terms(self):
        signal = OutcomeSignal(
            intercept=-1.0, ccs_weights={3: 0.5, 7: 0.25}, charlson_weight=0.1, los_weight=0.2, ed_weight=0.3
        )
        assert logit(signal, set(), 0, 0, 0) == -1.0
        assert logit(signal, {3}, 0, 0, 0) == pytest.approx(-0.5)
        assert logit(signal, {3, 7, 9}, 2, 5, 1) == pytest.approx(-1.0 + 0.75 + 0.2 + 1.0 + 0.3)

    def test_default_signals_fire_outside_the_sequence(self):
        readmit, mortality = default_signals()
        # Both outcomes lean on LOS and prior ED use, which the code
        # sequence alone cannot represent once outpatient steps are dropped.
        assert readmit.ed_weight > 0 and readmit.los_weight > 0
        assert mortality.ed_weight > 0 and mortality.los_weight > 0


def assert_equals_reference(cfg: SyntheticConfig, reference=None):
    """The kernel's columns equal `claim_columns` of the scalar reference's
    records byte for byte, and its ground truth and summary equal the
    reference's. Returns the kernel's population."""
    reference = reference or reference_population(cfg)
    population = generate_population(cfg)
    assert list(population.columns) == list(claims_module.CLAIM_COLUMNS)
    assert _npz_bytes(population.columns) == _npz_bytes(claim_columns(reference.beneficiaries, reference.claims))
    assert truth_records(population.truth) == reference.truth
    assert population.info == reference.info
    return population


def patient_records(population, patients: int):
    """The records and ground truth of the first `patients` patients."""
    ids = {f"B{i:06d}" for i in range(patients)}
    return (
        [b for b in population.beneficiaries if b.beneficiary_id in ids],
        [c for c in population.claims if c.beneficiary_id in ids],
        [t for t in population.truth if t.beneficiary_id in ids],
    )


class TestGenerator:
    def test_deterministic(self, small_population):
        cfg = demo_synthetic(250, 1234)
        again = population_records(cfg)
        assert again.beneficiaries == small_population.beneficiaries
        assert again.claims == small_population.claims
        assert again.truth == small_population.truth
        assert _npz_bytes(generate_population(cfg).columns) == _npz_bytes(generate_population(cfg).columns)

    @pytest.mark.parametrize("n_patients, seed", [(1100, 5), (60, 20110901)])
    def test_equals_one_scalar_stream_per_patient(self, n_patients, seed):
        assert_equals_reference(demo_synthetic(n_patients, seed))

    def test_planted_categories_are_the_rule_tables(self):
        """The categories and DRGs the generator plants are read from the
        bundled tables. Its HAC dx categories stay its own, a subset of the
        HAC rules', which also hold 10, a Charlson category."""
        planned, hac_rules = load_planned_rules(), load_hac_rules()
        assert claims_module._ACUTE_DX_CATS == tuple(sorted(planned.acute_override_dx_ccs))
        assert claims_module._MAINTENANCE_DX_CATS == tuple(sorted(planned.maintenance_dx_ccs))
        assert claims_module._PLANNED_PROC_CATS == tuple(sorted(planned.planned_proc_ccs))
        assert claims_module._HAC_PROC_CATS == tuple(sorted(set().union(*(rule.proc_ccs for rule in hac_rules))))
        assert claims_module._ACUTE_DRGS == tuple(sorted(load_acute_drgs()))
        hac_dx = set().union(*(rule.dx_ccs for rule in hac_rules))
        assert set(claims_module._HAC_DX_CATS) <= hac_dx
        assert hac_dx - set(claims_module._HAC_DX_CATS) == {10}

    def test_columns_are_checked_before_they_are_returned(self, monkeypatch):
        def reject(cols, source):
            raise ValidationError(f"{source}: rejected")

        monkeypatch.setattr(claims_module, "check_claim_columns", reject)
        with pytest.raises(ValidationError, match="the generated claims: rejected"):
            generate_population(demo_synthetic(5, 1))

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
            p_r = 1.0 / (1.0 + math.exp(-logit(readmit, present, row.charlson, row.los, row.ed_visits_12m)))
            p_m = 1.0 / (1.0 + math.exp(-logit(mortality, present, row.charlson, row.los, row.ed_visits_12m)))
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
        assert any(age_at(b, iso_to_day("2011-06-01")) < 65 for b in bens)
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


class TestKernelAgainstReference:
    """`generate_population` (the lockstep kernel) against the scalar
    generator in `tests/reference.py`, one stream per patient."""

    def test_demo_population(self):
        assert_equals_reference(demo_synthetic(2000, 20110901))

    def test_population_across_chunks(self, monkeypatch):
        # 5,000 patients in one chunk, then in chunks of 999 (the last one
        # short), against one reference run.
        cfg = demo_synthetic(5000, 7)
        reference = reference_population(cfg)
        assert cfg.n_patients <= claims_module._CHUNK_PATIENTS
        assert_equals_reference(cfg, reference)
        monkeypatch.setattr(claims_module, "_CHUNK_PATIENTS", 999)
        assert_equals_reference(cfg, reference)

    @pytest.mark.parametrize(
        "changes",
        [
            {"mean_claims_per_patient": 0.5},
            # Many visits per patient: lanes run past the first block of draws.
            {"mean_claims_per_patient": 18.0},
        ],
        ids=["sparse", "dense"],
    )
    def test_configs_that_move_the_branch_mix(self, changes):
        assert_equals_reference(demo_synthetic(400, 3, **changes))

    @pytest.mark.parametrize("intercept, label", [(40.0, True), (-40.0, False)])
    def test_signals_that_fix_every_label(self, intercept, label):
        signal = OutcomeSignal(intercept=intercept, ccs_weights={1: 0.5, 29: 1.0, 99: 2.0}, charlson_weight=0.1)
        cfg = demo_synthetic(400, 3, readmit_signal=signal, mortality_signal=signal)
        population = assert_equals_reference(cfg)
        assert len(population.truth["patient"])
        # A readmission or death is planted for every eligible event, or for none.
        assert set(population.truth["readmit"].tolist()) == {label}
        assert set(population.truth["mortality"].tolist()) == {label}

    def test_draws_stay_within_each_patient(self, monkeypatch):
        # A global max, sort or chunk boundary leaking between lanes would
        # change the first patients when more patients are generated.
        small = population_records(demo_synthetic(60, 20110901))
        large = population_records(demo_synthetic(1100, 20110901))
        assert patient_records(large, 60) == (small.beneficiaries, small.claims, small.truth)
        monkeypatch.setattr(claims_module, "_CHUNK_PATIENTS", 7)
        chunked = population_records(demo_synthetic(1100, 20110901))
        assert chunked.beneficiaries == large.beneficiaries
        assert chunked.claims == large.claims and chunked.truth == large.truth

    def test_free_span_at_its_edges(self):
        # The two-day buffer's edges, which sampled populations rarely reach.
        taken = [[(100, 104)], [(100, 104), (150, 151)], []]
        chunk = claims_module._Chunk(np.arange(3), demo_synthetic(3, 1))
        for lane, spans in enumerate(taken):
            for start, end in spans:
                chunk.take(np.array([lane]), np.array([start]), np.array([end]))
        for admit in range(85, 160):
            for los in (0, 1, 3):
                got = chunk.free_span(np.arange(3), np.full(3, admit), los).tolist()
                assert got == [_free_span(admit, los, spans) for spans in taken], (admit, los)

    def test_anchor_los_at_its_cap(self):
        # Short stays of 28 days or more need Poisson(2.2) >= 15, which
        # sampled populations almost never draw. Each lane gets injected
        # draws: k uniforms of 0.99 and a 0 (a Poisson draw of k), then the
        # `longer` uniform and randint(4, 12)'s draw, or a long stay's draw.
        def uniform(x):
            return int(x * 2**53) << 11

        lanes = [[uniform(0.99)] * k + [0, 0, extra] for k, extra in ((14, 8), (15, 7), (15, 8), (16, 8), (20, 8))]
        lanes += [[uniform(0.99)] * 30 + [0, uniform(0.5)], [14]]
        long_stay = np.arange(len(lanes)) == len(lanes) - 1
        draws = [lane + [0] * (40 - len(lane)) for lane in lanes]
        chunk = claims_module._Chunk(np.arange(len(lanes)), demo_synthetic(len(lanes), 1))
        chunk.rng._block = np.ascontiguousarray(np.array(draws, dtype=np.uint64).T)
        expected = []
        for lane, long in zip(draws, long_stay.tolist()):
            scalar = ReferenceXoshiro256(0)
            scalar.next_u64 = iter(lane).__next__
            expected.append(_anchor_los(long, scalar))
        assert expected == [27, 27, 28, 28, 28, 28, 45]
        assert chunk.anchor_los(long_stay).tolist() == expected

    def test_late_decoy_before_a_death(self):
        # A death four or five days after the late decoy's admission, which
        # sampled populations rarely reach, against the scalar rule.
        assert not _late_decoy_fits(200, 204, []) and _late_decoy_fits(200, 205, [])
        taken = [[(100, 104)], []]
        chunk = claims_module._Chunk(np.arange(2), demo_synthetic(2, 1))
        chunk.take(np.array([0]), np.array([100]), np.array([104]))
        for admit in range(90, 115):
            for death in (None, admit - 1, admit, admit + 3, admit + 4, admit + 5, admit + 30):
                days = np.full(2, claims_module._NO_DEATH if death is None else death)
                got = chunk.late_decoy_fits(np.arange(2), np.full(2, admit), days).tolist()
                assert got == [_late_decoy_fits(admit, death, spans) for spans in taken], (admit, death)

    def test_ids_wider_than_their_padding(self):
        # Ids past B999999 or C999 are longer, and sort by their strings.
        patients = np.array([0, 5, 999_999, 1_000_000, 12_345_678])
        numbers = np.array([0, 999, 1000, 7, 12_345])
        ids = claims_module._strings(
            len(patients), b"B", claims_module._decimal(patients, 6), b"-C", claims_module._decimal(numbers, 3)
        )
        assert ids.tolist() == [f"B{p:06d}-C{k:03d}".encode() for p, k in zip(patients.tolist(), numbers.tolist())]
        assert np.argsort(ids, kind="stable").tolist() == sorted(range(5), key=lambda i: ids[i].decode())

    def test_single_patient(self):
        population = assert_equals_reference(demo_synthetic(1, 20110901))
        assert len(population.columns["beneficiary.beneficiary_id"]) == 1
