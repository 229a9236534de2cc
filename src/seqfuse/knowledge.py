"""Clinical code groupings and rule tables.

Everything the pipeline knows about medicine lives here: the CCS-style
grouper that collapses raw diagnosis/procedure codes into categories, the
Charlson weights, hospital-acquired-condition rules,
the planned-readmission screen, and the acute DRG list. The rule tables
ship as JSON under ``seqfuse/data`` and are the package's own: the
synthetic generator plants its population against their categories, so no
other table could describe that data.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ValidationError

CODE_TYPES = ("dx", "proc")


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

    dx_to_ccs: dict[str, int] = field(default_factory=dict)
    proc_to_ccs: dict[str, int] = field(default_factory=dict)
    n_dx: int = 0
    n_proc: int = 0

    def __post_init__(self) -> None:
        for code, cat in self.dx_to_ccs.items():
            if not 0 <= cat < self.n_dx:
                raise ValidationError(f"dx code {code!r} maps to category {cat} outside [0, {self.n_dx})")
        for code, cat in self.proc_to_ccs.items():
            if not 0 <= cat < self.n_proc:
                raise ValidationError(f"proc code {code!r} maps to category {cat} outside [0, {self.n_proc})")

    # Category ids are local to each code type; "other" sits at the end of
    # the type's own range.
    def dx_category(self, code: str) -> int:
        return self.dx_to_ccs.get(code, self.n_dx)

    def proc_category(self, code: str) -> int:
        return self.proc_to_ccs.get(code, self.n_proc)

    def dx_index(self, code: str) -> int:
        return self.dx_category(code)

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
    def synthetic(cls, dx_vocab: int = 90, proc_vocab: int = 36, codes_per_category: int = 3) -> "CcsMap":
        """Builds the demo grouper: codes D0001.. / P0001.. in contiguous runs.

        ``codes_per_category`` consecutive codes share one category, so the
        rule tables bundled with the package can reference stable ids.
        """
        if dx_vocab <= 0 or proc_vocab <= 0 or codes_per_category <= 0:
            raise ValidationError("vocabulary sizes and codes_per_category must be positive")
        dx = {f"D{i:04d}": (i - 1) // codes_per_category for i in range(1, dx_vocab + 1)}
        proc = {f"P{i:04d}": (i - 1) // codes_per_category for i in range(1, proc_vocab + 1)}
        return cls(
            dx_to_ccs=dx,
            proc_to_ccs=proc,
            n_dx=(dx_vocab - 1) // codes_per_category + 1,
            n_proc=(proc_vocab - 1) // codes_per_category + 1,
        )

    @classmethod
    def from_csv(cls, path: str | Path) -> "CcsMap":
        dx: dict[str, int] = {}
        proc: dict[str, int] = {}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            expected = {"code", "code_type", "ccs_id"}
            if reader.fieldnames is None or set(reader.fieldnames) != expected:
                raise ValidationError(f"CCS map must have columns {sorted(expected)}, got {reader.fieldnames}")
            for line_no, row in enumerate(reader, start=2):
                code = row["code"]
                kind = row["code_type"]
                if kind not in CODE_TYPES:
                    raise ValidationError(f"line {line_no}: code_type {kind!r} not in {CODE_TYPES}")
                try:
                    cat = int(row["ccs_id"])
                except ValueError as exc:
                    raise ValidationError(f"line {line_no}: ccs_id {row['ccs_id']!r} is not an integer") from exc
                if cat < 0:
                    raise ValidationError(f"line {line_no}: ccs_id must be non-negative")
                target = dx if kind == "dx" else proc
                if code in target and target[code] != cat:
                    raise ValidationError(f"line {line_no}: code {code!r} mapped to two categories")
                target[code] = cat
        n_dx = max(dx.values()) + 1 if dx else 0
        n_proc = max(proc.values()) + 1 if proc else 0
        return cls(dx_to_ccs=dx, proc_to_ccs=proc, n_dx=n_dx, n_proc=n_proc)

    def to_csv(self, path: str | Path) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["code", "code_type", "ccs_id"])
        for code in sorted(self.dx_to_ccs):
            writer.writerow([code, "dx", self.dx_to_ccs[code]])
        for code in sorted(self.proc_to_ccs):
            writer.writerow([code, "proc", self.proc_to_ccs[code]])
        Path(path).write_text(buf.getvalue(), encoding="utf-8")


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

    def is_planned(self, principal_dx_ccs: int, proc_ccs_set) -> bool:
        """Planned iff a planned procedure or maintenance principal dx is
        present, and the principal dx is not an acute override."""
        if principal_dx_ccs in self.acute_override_dx_ccs:
            return False
        if principal_dx_ccs in self.maintenance_dx_ccs:
            return True
        return bool(self.planned_proc_ccs & set(proc_ccs_set))


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
class DomainFeature:
    name: str
    encoding: str
    levels: tuple[str, ...] = ()


ENCODINGS = ("numeric", "binary", "one_hot", "one_hot_dx_ccs", "flags")


def load_domain_spec() -> list[DomainFeature]:
    raw = _load_bundled("domain_spec.json")
    features: list[DomainFeature] = []
    for f in raw["features"]:
        enc = f["encoding"]
        if enc not in ENCODINGS:
            raise ValidationError(f"feature {f['name']!r}: unknown encoding {enc!r}")
        levels = tuple(f.get("levels", ()))
        if enc == "one_hot" and not levels:
            raise ValidationError(f"feature {f['name']!r}: one_hot encoding needs levels")
        features.append(DomainFeature(name=f["name"], encoding=enc, levels=levels))
    if len({f.name for f in features}) != len(features):
        raise ValidationError("domain feature names must be unique")
    return features


@dataclass(frozen=True)
class KnowledgeBundle:
    """All rule tables resolved together, as the pipeline consumes them."""

    ccs: CcsMap
    charlson_weights: dict[int, int]
    hac_rules: list[HacRule]
    planned_rules: PlannedRules
    acute_drgs: frozenset[str]
    domain_spec: list[DomainFeature]


def load_bundle(ccs: CcsMap) -> KnowledgeBundle:
    """The bundled rule tables, with the run's code map."""
    return KnowledgeBundle(
        ccs=ccs,
        charlson_weights=load_charlson_weights(),
        hac_rules=load_hac_rules(),
        planned_rules=load_planned_rules(),
        acute_drgs=load_acute_drgs(),
        domain_spec=load_domain_spec(),
    )
