"""Shared fixtures: one small synthetic population and its downstream
artifacts, built once per session and reused read-only."""

import numpy as np
import pytest

from seqfuse.claims import CLAIM_COLUMNS
from seqfuse.cohort import POPULATION_MEMBERS
from seqfuse.features import featurize_events
from seqfuse.knowledge import load_bundle
from tests.reference import DEMO_OPTIONS, checked_cohort, demo_synthetic, population_records


@pytest.fixture(scope="session")
def small_population():
    """The generator's columns for 250 patients, read back as records."""
    cfg = demo_synthetic(250, 1234)
    return population_records(cfg)


@pytest.fixture(scope="session")
def bundle():
    return load_bundle()


@pytest.fixture(scope="session")
def small_checked(small_population, bundle):
    """`checked_cohort` of the small population: the kernel's columns, and
    the reference's events, stays and audit."""
    return checked_cohort(
        small_population.beneficiaries,
        small_population.claims,
        bundle.planned_rules,
        bundle.ccs,
        bundle.acute_drgs,
    )


@pytest.fixture(scope="session")
def small_cohort(small_checked):
    """The reference's events, stays and audit."""
    return small_checked[1:]


@pytest.fixture(scope="session")
def small_columns(small_checked):
    """The claim columns and the stays and events cohort adds: what
    featurize reads from generate/claims.npz and cohort/population.npz."""
    return {name: small_checked[0][name] for name in (*CLAIM_COLUMNS, *POPULATION_MEMBERS)}


@pytest.fixture(scope="session")
def small_table(small_columns, bundle):
    """The featurized eligible events, as (EventTable, z names)."""
    return featurize_events(small_columns, bundle, DEMO_OPTIONS)


@pytest.fixture()
def rng_np():
    return np.random.default_rng(99)
