"""Shared strategies, fixtures, and a minimal JSON-schema checker."""

from __future__ import annotations

import os

# Before anything imports numpy: its OpenBLAS pool would otherwise start a
# thread, and the restart lanes fork only a single-threaded process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import random

import pytest
from hypothesis import settings
import hypothesis.strategies as st

from fairline import FacilityOutcome, GroupedProfile, build_profile

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

# Quantized to 1e-6 so distances never fall below float noise under the
# shifts and scalings the property tests apply.
locations = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False).map(
    lambda x: round(x, 6)
)


@st.composite
def grouped_profiles(draw, max_n: int = 8, max_m: int = 4) -> GroupedProfile:
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=min(max_m, n)))
    locs = draw(st.lists(locations, min_size=n, max_size=n))
    labels = list(range(1, m + 1)) + draw(
        st.lists(st.integers(min_value=1, max_value=m), min_size=n - m, max_size=n - m)
    )
    return build_profile(list(zip(locs, labels)), m)


def random_pairs(
    rng: random.Random, max_n: int = 10, max_m: int = 3, digits: tuple = (0, 1, 2, None)
) -> tuple[list[tuple[float, int]], int]:
    """Seeded (location, group) pairs and group count, with colocated agents.

    Locations are drawn on [-2, 2] and rounded to a number of decimals drawn
    from `digits` (None: not rounded); about 30% copy an earlier agent's.
    """
    n = rng.randint(1, max_n)
    m = rng.randint(1, min(max_m, n))
    places = rng.choice(digits)
    locs: list[float] = []
    for _ in range(n):
        if locs and rng.random() < 0.3:
            locs.append(rng.choice(locs))  # colocated, often across groups
        else:
            x = rng.uniform(-2.0, 2.0)
            locs.append(x if places is None else round(x, places))
    labels = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(n - m)]
    rng.shuffle(labels)
    return list(zip(locs, labels)), m


def mean_mechanism(profile: GroupedProfile) -> FacilityOutcome:
    """Textbook non-strategyproof rule: place at the mean report."""
    return FacilityOutcome.at(sum(profile.locations) / profile.n)


@pytest.fixture
def mean_mech():
    return mean_mechanism


def _type_ok(value, kind: str) -> bool:
    if kind == "object":
        return isinstance(value, dict)
    if kind == "array":
        return isinstance(value, list)
    if kind == "string":
        return isinstance(value, str)
    if kind == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "boolean":
        return isinstance(value, bool)
    if kind == "null":
        return value is None
    raise ValueError(f"unsupported schema type {kind!r}")


def schema_errors(value, schema: dict, path: str = "$") -> list[str]:
    """Structural validation covering the subset of JSON Schema our schemas use."""
    errs: list[str] = []
    if "oneOf" in schema:
        if all(schema_errors(value, sub, path) for sub in schema["oneOf"]):
            errs.append(f"{path}: no oneOf branch matched")
        return errs
    if "const" in schema and value != schema["const"]:
        errs.append(f"{path}: expected const {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        errs.append(f"{path}: not in enum {schema['enum']!r}")
    if "type" in schema and not _type_ok(value, schema["type"]):
        errs.append(f"{path}: expected type {schema['type']}")
        return errs
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errs.append(f"{path}: missing required {req!r}")
        props = schema.get("properties", {})
        for key, sub in value.items():
            if key in props:
                errs.extend(schema_errors(sub, props[key], f"{path}.{key}"))
            elif schema.get("additionalProperties", True) is False:
                errs.append(f"{path}.{key}: unexpected property")
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errs.append(f"{path}: fewer than {schema['minItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                errs.extend(schema_errors(item, schema["items"], f"{path}[{i}]"))
    return errs
