"""Rule-table semantics: the code grouper, comorbidity scoring, HAC flags,
planned-admission rules, and the domain feature spec."""

import pytest

from seqfuse.errors import ValidationError
from seqfuse.knowledge import (
    CcsMap,
    load_acute_drgs,
    load_bundle,
    load_charlson_weights,
    load_domain_spec,
    load_hac_rules,
    load_planned_rules,
)
from tests.reference import charlson_index, hac_flags


class TestCcsMap:
    def test_synthetic_layout(self):
        ccs = CcsMap.synthetic()
        assert ccs.n_dx == 30
        assert ccs.n_proc == 12
        # Three consecutive codes share one category, 1-based code numbers.
        assert ccs.dx_category("D0001") == 0
        assert ccs.dx_category("D0003") == 0
        assert ccs.dx_category("D0004") == 1
        assert ccs.dx_category("D0090") == 29
        assert ccs.proc_category("P0001") == 0
        assert ccs.proc_category("P0036") == 11

    def test_unknown_codes_fall_into_other(self):
        ccs = CcsMap.synthetic()
        assert ccs.dx_category("D9999") == ccs.n_dx
        assert ccs.proc_category("XYZ") == ccs.n_proc
        assert ccs.dx_index("D9999") == ccs.n_dx
        assert ccs.proc_index("XYZ") == ccs.input_dim - 1

    def test_index_spaces_do_not_overlap(self):
        ccs = CcsMap.synthetic()
        dx_indices = {ccs.dx_index(f"D{i:04d}") for i in range(1, 91)} | {ccs.dx_index("D9999")}
        proc_indices = {ccs.proc_index(f"P{i:04d}") for i in range(1, 37)} | {ccs.proc_index("P9999")}
        assert dx_indices == set(range(31))
        assert proc_indices == set(range(31, 44))
        assert ccs.input_dim == 44

    def test_csv_round_trip(self, tmp_path):
        ccs = CcsMap.synthetic()
        path = tmp_path / "map.csv"
        ccs.to_csv(path)
        loaded = CcsMap.from_csv(path)
        assert loaded.dx_to_ccs == ccs.dx_to_ccs
        assert loaded.proc_to_ccs == ccs.proc_to_ccs
        assert (loaded.n_dx, loaded.n_proc) == (ccs.n_dx, ccs.n_proc)

    def test_from_csv_rejects_duplicates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("code,code_type,ccs_id\nD1,dx,0\nD1,dx,1\n")
        with pytest.raises(ValidationError):
            CcsMap.from_csv(path)


class TestCharlson:
    def test_weights_cover_17_groups(self):
        weights = load_charlson_weights()
        assert len(weights) == 17
        assert sorted(weights) == list(range(17))
        assert sorted(set(weights.values())) == [1, 2, 3, 6]

    def test_distinct_groups_count_once(self):
        ccs = CcsMap.synthetic()
        weights = load_charlson_weights()
        # D0001 and D0002 share group 0 (weight 1); D0031 is group 10
        # (weight 2); D9999 maps outside the weighted groups.
        assert charlson_index(["D0001"], ccs, weights) == 1
        assert charlson_index(["D0001", "D0002"], ccs, weights) == 1
        assert charlson_index(["D0001", "D0031"], ccs, weights) == 3
        assert charlson_index(["D9999"], ccs, weights) == 0
        assert charlson_index([], ccs, weights) == 0

    def test_maximum_possible_score(self):
        ccs = CcsMap.synthetic()
        weights = load_charlson_weights()
        one_code_per_group = [f"D{cat * 3 + 1:04d}" for cat in range(17)]
        assert charlson_index(one_code_per_group, ccs, weights) == 10 * 1 + 4 * 2 + 3 + 2 * 6


class TestHacRules:
    def test_rule_list(self):
        rules = load_hac_rules()
        assert len(rules) == 12
        assert len({r.name for r in rules}) == 12

    def test_flags_fire_on_dx_or_proc(self):
        rules = load_hac_rules()
        # Falls and Trauma is dx category 24; Foreign Object is proc 6.
        flags = hac_flags([24], [], rules)
        assert sum(flags) == 1
        assert flags[[r.name for r in rules].index("Falls and Trauma")] == 1
        flags = hac_flags([], [6], rules)
        assert sum(flags) == 1
        assert hac_flags([], [], rules) == [0] * 12

    def test_glycemic_rule_shares_a_comorbidity_category(self):
        # Category 10 is both a Charlson group and a HAC trigger; a single
        # diagnosis can legitimately move both features.
        rules = load_hac_rules()
        flags = hac_flags([10], [], rules)
        assert flags[[r.name for r in rules].index("Manifestations of Poor Glycemic Control")] == 1

    def test_multi_category_rule(self):
        rules = load_hac_rules()
        dvt = next(r for r in rules if r.name.startswith("Deep Vein Thrombosis"))
        idx = [r.name for r in rules].index(dvt.name)
        assert hac_flags([27], [], rules)[idx] == 1
        assert hac_flags([], [11], rules)[idx] == 1


class TestPlannedRules:
    def test_priority_order(self):
        rules = load_planned_rules()
        # Acute override beats everything; maintenance principal dx and
        # planned procedures each suffice on their own.
        assert rules.is_planned(17, {4}) is False
        assert rules.is_planned(19, set()) is True
        assert rules.is_planned(0, {4}) is True
        assert rules.is_planned(0, {5, 0}) is True
        assert rules.is_planned(0, {0, 1}) is False
        assert rules.is_planned(17, set()) is False


class TestDomainSpecAndBundle:
    def test_spec_shape(self):
        spec = load_domain_spec()
        names = [f.name for f in spec]
        assert names[0] == "age_range"
        assert "charlson_index" in names
        assert "hac_flags" in names
        assert len(names) == len(set(names))

    def test_acute_drgs(self):
        drgs = load_acute_drgs()
        assert "DRG001" in drgs
        assert "DRG101" not in drgs

    def test_bundle_resolves_all_tables(self):
        bundle = load_bundle(CcsMap.synthetic())
        assert bundle.ccs.input_dim == 44
        assert len(bundle.hac_rules) == 12

    def test_path_override(self, tmp_path):
        override = tmp_path / "acute.json"
        override.write_text('{"acute_drgs": ["X999"]}')
        bundle = load_bundle(CcsMap.synthetic(), {"acute_drgs": override})
        assert bundle.acute_drgs == frozenset({"X999"})
