"""Clinical code groupings and rule tables.

Everything the pipeline knows about medicine lives here: the CCS-style
grouper that collapses raw diagnosis/procedure codes into categories, the
Charlson weights, hospital-acquired-condition rules, the
planned-readmission screen, and the acute DRG list. The rule tables ship
as JSON under ``seqfuse/data``, each file read by one `_load_bundled`
call. The domain vector's layout is not a table: `features` lays z out in
code, over these tables and the claim vocabularies of `claims`. The
grouper and the tables are the package's own: the synthetic generator
draws its codes from the grouper's runs and plants its population against
the tables' categories, so no other map or table could describe that data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import ValidationError


def _load_bundled(name: str) -> dict:
    with resources.files("seqfuse.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class CcsMap:
    """Maps raw codes to CCS categories and model input indices.

    Unknown codes of either type fall into a reserved "other" category, so
    the input dimension is fixed by the map alone: diagnosis categories
    occupy indices ``0..n_dx`` (other last in the block) and procedure
    categories occupy ``n_dx+1..n_dx+n_proc+1``.
    """

    dx_to_ccs: dict[str, int]
    proc_to_ccs: dict[str, int]
    n_dx: int
    n_proc: int

    # Category ids are local to each code type; "other" sits at the end of
    # the type's own range. Diagnosis categories come first in the input
    # space, so a dx category is its own index there.
    def dx_category(self, code: str) -> int:
        return self.dx_to_ccs.get(code, self.n_dx)

    def proc_category(self, code: str) -> int:
        return self.proc_to_ccs.get(code, self.n_proc)

    def proc_index(self, code: str) -> int:
        return self.n_dx + 1 + self.proc_category(code)

    @property
    def n_dx_columns(self) -> int:
        return self.n_dx + 1

    @property
    def n_proc_columns(self) -> int:
        return self.n_proc + 1

    @property
    def input_dim(self) -> int:
        return self.n_dx_columns + self.n_proc_columns

    @classmethod
    def synthetic(cls) -> "CcsMap":
        """The package's grouper: codes D0001..D0090 and P0001..P0036, three
        consecutive codes to a category, so 30 dx and 12 proc categories.

        The generator draws its codes from exactly these runs and the
        bundled rule tables reference their category ids.
        """
        return cls(
            dx_to_ccs={f"D{i:04d}": (i - 1) // 3 for i in range(1, 91)},
            proc_to_ccs={f"P{i:04d}": (i - 1) // 3 for i in range(1, 37)},
            n_dx=30,
            n_proc=12,
        )


def load_charlson_weights() -> dict[int, int]:
    """Returns {dx CCS category: Charlson weight} for the 17 condition groups."""
    raw = _load_bundled("charlson_weights.json")
    weights: dict[int, int] = {}
    for group in raw["groups"]:
        cat = int(group["ccs_id"])
        if cat in weights:
            raise ValidationError(f"Charlson group for category {cat} listed twice")
        weights[cat] = int(group["weight"])
    if any(w <= 0 for w in weights.values()):
        raise ValidationError("Charlson weights must be positive")
    return weights


@dataclass(frozen=True)
class HacRule:
    name: str
    dx_ccs: frozenset[int]
    proc_ccs: frozenset[int]


def load_hac_rules() -> list[HacRule]:
    raw = _load_bundled("hac_rules.json")
    rules = [
        HacRule(
            name=r["name"],
            dx_ccs=frozenset(int(c) for c in r["dx_ccs"]),
            proc_ccs=frozenset(int(c) for c in r["proc_ccs"]),
        )
        for r in raw["rules"]
    ]
    if len({r.name for r in rules}) != len(rules):
        raise ValidationError("HAC rule names must be unique")
    for rule in rules:
        if not rule.dx_ccs and not rule.proc_ccs:
            raise ValidationError(f"HAC rule {rule.name!r} matches nothing")
    return rules


@dataclass(frozen=True)
class PlannedRules:
    planned_proc_ccs: frozenset[int]
    maintenance_dx_ccs: frozenset[int]
    acute_override_dx_ccs: frozenset[int]


def load_planned_rules() -> PlannedRules:
    raw = _load_bundled("planned_rules.json")
    return PlannedRules(
        planned_proc_ccs=frozenset(int(c) for c in raw["planned_proc_ccs"]),
        maintenance_dx_ccs=frozenset(int(c) for c in raw["maintenance_dx_ccs"]),
        acute_override_dx_ccs=frozenset(int(c) for c in raw["acute_override_dx_ccs"]),
    )


def load_acute_drgs() -> frozenset[str]:
    raw = _load_bundled("acute_drgs.json")
    return frozenset(raw["acute_drgs"])


@dataclass(frozen=True)
class KnowledgeBundle:
    """All rule tables resolved together, as the pipeline consumes them."""

    ccs: CcsMap
    charlson_weights: dict[int, int]
    hac_rules: list[HacRule]
    planned_rules: PlannedRules
    acute_drgs: frozenset[str]


def load_bundle() -> KnowledgeBundle:
    """The package's grouper and its bundled rule tables."""
    return KnowledgeBundle(
        ccs=CcsMap.synthetic(),
        charlson_weights=load_charlson_weights(),
        hac_rules=load_hac_rules(),
        planned_rules=load_planned_rules(),
        acute_drgs=load_acute_drgs(),
    )
