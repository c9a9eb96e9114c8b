import json

import pytest
from hypothesis import given

from fairline import (
    ParseError,
    ValidationError,
    load_fixtures,
    parse_instance,
    parse_instance_document,
    serialize_instance,
)
from fairline.fixtures import fixture_dir
from fairline import families

from conftest import grouped_profiles, schema_errors


class TestParse:
    def test_two_group_document(self):
        p = parse_instance('{"schema_version":1,"groups":[[0,0.6666666667],[1,1]]}')
        assert p.n == 4
        assert p.group_count == 2
        assert p.locations == (0.0, 0.6666666667, 1.0, 1.0)
        assert tuple(g for _, g in p.raw()) == (1, 1, 2, 2)

    def test_single_agent(self):
        p = parse_instance('{"schema_version":1,"groups":[[3]]}')
        assert p.locations == (3.0,) and p.group_count == 1

    def test_unsupported_version(self):
        with pytest.raises(ParseError):
            parse_instance('{"schema_version":2,"groups":[[3]]}')

    def test_json_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_instance('{"schema_version":1,\n  "groups": [[0,]]}')
        assert exc.value.line == 2

    def test_structure_errors(self):
        with pytest.raises(ParseError):
            parse_instance('{"schema_version":1}')
        with pytest.raises(ParseError):
            parse_instance('{"schema_version":1,"groups":[]}')
        with pytest.raises(ParseError):
            parse_instance('{"schema_version":1,"groups":[["a"]]}')
        with pytest.raises(ParseError):
            parse_instance('[1,2]')

    def test_core_violations_wrapped(self):
        with pytest.raises(ValidationError):
            parse_instance('{"schema_version":1,"groups":[[0],[]]}')


@given(grouped_profiles())
def test_round_trip(profile):
    assert parse_instance(serialize_instance(profile)) == profile


def test_round_trip_preserves_annotations():
    profile = families.singleton_pair()
    text = serialize_instance(profile, name="pair", note="base", expected=[{"objective": "mtgc"}])
    doc = parse_instance_document(text)
    assert doc.name == "pair"
    assert doc.note == "base"
    assert doc.expected == ({"objective": "mtgc"},)
    assert doc.profile == profile


def test_fixture_profiles_match_family_builders():
    by_name = {fx.name: fx.profile for fx in load_fixtures()}
    assert by_name["tight_largest_group_total"] == families.tight_largest_group_total()
    assert by_name["group_median_family_m3"] == families.group_median_family(3)
    assert by_name["group_median_family_m5"] == families.group_median_family(5)
    assert by_name["single_group_two_clusters_n10"] == families.single_group_two_clusters(10)
    assert by_name["three_group_center_mass_n10"] == families.three_group_center_mass(10)
    assert by_name["single_group_center_mass_n10"] == families.single_group_center_mass(10)
    assert by_name["tight_average_family_k2"] == families.tight_average_family(2)
    assert by_name["tight_average_family_k50"] == families.tight_average_family(50)
    assert by_name["singleton_pair"] == families.singleton_pair()
    assert by_name["balanced_split_pair_c2"] == families.balanced_split_pair(2)
    assert by_name["fixed_group_choice_2_4"] == families.fixed_group_choice(2, 4)


def test_fixture_files_validate_against_instance_schema():
    schema = json.loads(
        (fixture_dir().parent / "schemas" / "instance.schema.json").read_text()
    )
    for path in sorted(fixture_dir().glob("*.json")):
        errors = schema_errors(json.loads(path.read_text()), schema)
        assert not errors, f"{path.name}: {errors}"
