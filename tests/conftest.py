"""Shared fixtures: one small synthetic population and its downstream
artifacts, built once per session and reused read-only."""

import numpy as np
import pytest

from seqfuse.claims import SyntheticConfig, generate_population
from seqfuse.cohort import build_cohort
from seqfuse.features import SequenceOptions, featurize_events
from seqfuse.knowledge import CcsMap, load_bundle


@pytest.fixture(scope="session")
def small_population():
    cfg = SyntheticConfig(n_patients=250, seed=1234)
    return generate_population(cfg)


@pytest.fixture(scope="session")
def bundle():
    return load_bundle(CcsMap.synthetic())


@pytest.fixture(scope="session")
def small_cohort(small_population, bundle):
    events, stays, audit = build_cohort(
        small_population.beneficiaries,
        small_population.claims,
        bundle.planned_rules,
        bundle.ccs,
        bundle.acute_drgs,
    )
    return events, stays, audit


@pytest.fixture(scope="session")
def small_table(small_population, small_cohort, bundle):
    """The featurized eligible events, as (EventTable, z names)."""
    events, stays, _ = small_cohort
    ben_map = {b.beneficiary_id: b for b in small_population.beneficiaries}
    return featurize_events(events, ben_map, small_population.claims, stays, bundle, SequenceOptions())


@pytest.fixture()
def rng_np():
    return np.random.default_rng(99)
