"""Instance file IO: schema v1 JSON documents with optional annotations.

An instance document lists one array of locations per group; the group index
is the 1-based position of its array. `expected` entries are free-form check
records consumed by the fixture runner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .model import GroupedProfile, ProfileError, build_profile

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """The text is not a well-formed schema v1 instance document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """The document parsed but the profile violates a core invariant."""


@dataclass(frozen=True)
class InstanceDocument:
    profile: GroupedProfile
    name: str | None = None
    note: str | None = None
    expected: tuple[dict, ...] = ()


def parse_instance_document(text: str) -> InstanceDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(data, dict):
        raise ParseError("instance must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}")
    groups = data.get("groups")
    if not isinstance(groups, list) or not groups or not all(isinstance(g, list) for g in groups):
        raise ParseError("groups must be a non-empty list of location arrays")
    raw: list[tuple[float, int]] = []
    for j, locs in enumerate(groups, start=1):
        for loc in locs:
            if isinstance(loc, bool) or not isinstance(loc, (int, float)):
                raise ParseError(f"group {j} holds a non-numeric location {loc!r}")
            raw.append((loc, j))
    name = data.get("name")
    note = data.get("note")
    for field, value in (("name", name), ("note", note)):
        if value is not None and not isinstance(value, str):
            raise ParseError(f"{field} must be a string")
    expected = data.get("expected", [])
    if not isinstance(expected, list) or not all(isinstance(e, dict) for e in expected):
        raise ParseError("expected must be a list of objects")
    try:
        profile = build_profile(raw, len(groups))
    except ProfileError as exc:
        raise ValidationError(str(exc)) from exc
    return InstanceDocument(profile, name, note, tuple(expected))


def parse_instance(text: str) -> GroupedProfile:
    """Parse a schema v1 document into its validated profile."""
    return parse_instance_document(text).profile


def serialize_instance(
    profile: GroupedProfile,
    name: str | None = None,
    note: str | None = None,
    expected: list[dict] | None = None,
) -> str:
    """Schema v1 text such that parse_instance(serialize_instance(p)) == p."""
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if name is not None:
        doc["name"] = name
    if note is not None:
        doc["note"] = note
    doc["groups"] = [list(locs) for locs in profile.group_locations]
    if expected:
        doc["expected"] = list(expected)
    return json.dumps(doc, indent=2) + "\n"


def load_instance(path: str | Path) -> InstanceDocument:
    return parse_instance_document(Path(path).read_text(encoding="utf-8"))
