"""Shared fixtures: one small synthetic population and its downstream
artifacts, built once per session and reused read-only."""

import numpy as np
import pytest

from seqfuse.claims import SyntheticConfig, generate_population
from seqfuse.cohort import build_cohort, population_columns
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
def small_columns(small_population, small_cohort):
    """The population and its cohort as the columns cohort writes."""
    events, stays, _ = small_cohort
    return population_columns(small_population.beneficiaries, small_population.claims, stays, events)


@pytest.fixture(scope="session")
def small_table(small_columns, bundle):
    """The featurized eligible events, as (EventTable, z names)."""
    return featurize_events(small_columns, bundle, SequenceOptions())


@pytest.fixture()
def rng_np():
    return np.random.default_rng(99)
