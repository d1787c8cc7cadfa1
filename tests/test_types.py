import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elorantd.errors import OutOfRangeError
from elorantd.types import (
    ALL_FACTORS,
    EARTH_RADIUS_KM,
    FACTOR_PRESETS,
    FACTORS_3,
    FACTORS_5,
    FACTORS_7,
    EpochHour,
    GeoPoint,
    MetFactor,
    factor_set,
    haversine_km,
    parse_utc,
    validate_factor_value,
    validate_td_ns,
)


def test_geopoint_validates_bounds():
    GeoPoint(90.0, 180.0)
    GeoPoint(-90.0, -180.0)
    with pytest.raises(ValueError):
        GeoPoint(90.001, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 180.001)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)


def test_epoch_hour_parse_roundtrip():
    e = EpochHour.parse("2024-10-01T05:00:00Z")
    assert e == EpochHour.of(2024, 10, 1, 5)
    assert e.isoformat() == "2024-10-01T05:00:00Z"
    assert EpochHour.parse(e.isoformat()) == e


def test_epoch_hour_rejects_partial_hours():
    with pytest.raises(ValueError):
        EpochHour.parse("2024-10-01T05:30:00Z")
    with pytest.raises(ValueError):
        parse_utc("not a timestamp")


def test_epoch_hour_ordering_and_hours_since_epoch():
    a = EpochHour.of(2024, 10, 1, 0)
    b = EpochHour.of(2024, 10, 1, 1)
    assert a < b
    assert b.hours_since_epoch - a.hours_since_epoch == 1
    assert EpochHour.from_hours(a.hours_since_epoch) == a


def test_factor_presets_sizes():
    assert len(ALL_FACTORS) == 11
    assert len(FACTORS_3) == 3
    assert len(FACTORS_5) == 5
    assert len(FACTORS_7) == 7
    assert FACTOR_PRESETS["3"] == FACTORS_3
    # the 3- and 5-factor combinations are both contained in the
    # correlation-selected 7-factor set (but do not nest in each other)
    assert set(FACTORS_3) <= set(FACTORS_7) <= set(ALL_FACTORS)
    assert set(FACTORS_5) <= set(FACTORS_7)


def test_factor_set_canonical_order_and_rejects_duplicates():
    fs = factor_set([MetFactor.TEMPERATURE, MetFactor.PRESSURE])
    assert fs == factor_set([MetFactor.PRESSURE, MetFactor.TEMPERATURE])
    # canonical order matches the order of ALL_FACTORS
    positions = [ALL_FACTORS.index(f) for f in fs]
    assert positions == sorted(positions)
    with pytest.raises(ValueError):
        factor_set([MetFactor.TEMPERATURE, MetFactor.TEMPERATURE])


def test_factor_set_accepts_column_names():
    fs = factor_set(["temperature_c", "pressure_hpa"])
    assert MetFactor.TEMPERATURE in fs and MetFactor.PRESSURE in fs


def test_validate_factor_value_bounds():
    assert validate_factor_value(MetFactor.HUMIDITY, 55.0) == 55.0
    with pytest.raises(OutOfRangeError):
        validate_factor_value(MetFactor.HUMIDITY, 101.0)
    with pytest.raises(OutOfRangeError):
        validate_factor_value(MetFactor.HUMIDITY, float("inf"))


@pytest.mark.parametrize(
    "factor,column,bad",
    [
        (MetFactor.HUMIDITY, [55.0, 0.0, 100.0, float("nan"), 101.0], float("nan")),
        (MetFactor.HUMIDITY, [55.0, 0.0, 101.0, 100.0, -1.0], 101.0),
        (MetFactor.CLOUD_COVER, [3.0, 10.0, 6.5, 0.0, 11.0], 11.0),
        (MetFactor.CLOUD_COVER, [3.0, 10.0, 6.5, 0.0, 2.25], 6.5),
    ],
)
def test_validate_factor_value_checks_a_whole_column(factor, column, bad):
    np.testing.assert_array_equal(validate_factor_value(factor, column[:2]), column[:2])
    with pytest.raises(OutOfRangeError) as info:
        validate_factor_value(factor, column)
    assert info.value.value == bad or (math.isnan(bad) and math.isnan(info.value.value))


def test_cloud_cover_is_integer_valued():
    assert validate_factor_value(MetFactor.CLOUD_COVER, 7.0) == 7.0
    with pytest.raises(OutOfRangeError):
        validate_factor_value(MetFactor.CLOUD_COVER, 6.5)


def test_validate_td_ns():
    assert validate_td_ns(-2900.5) == -2900.5
    with pytest.raises(OutOfRangeError):
        validate_td_ns(float("nan"))
    with pytest.raises(OutOfRangeError):
        validate_td_ns(1e9 + 1)  # beyond one second


def test_haversine_known_distance():
    # quarter meridian: pole to equator along a meridian
    d = haversine_km(GeoPoint(0.0, 0.0), GeoPoint(90.0, 0.0))
    assert d == pytest.approx(math.pi / 2 * EARTH_RADIUS_KM, rel=1e-12)


def test_haversine_zero_and_symmetry():
    a = GeoPoint(36.193, 129.338)
    b = GeoPoint(36.392, 127.3529)
    assert haversine_km(a, a) == 0.0
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-15)


def test_haversine_antipodal_is_half_circumference():
    d = haversine_km(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
    assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)


@given(
    lat1=st.floats(-89.0, 89.0),
    lon1=st.floats(-179.0, 179.0),
    lat2=st.floats(-89.0, 89.0),
    lon2=st.floats(-179.0, 179.0),
)
def test_haversine_bounds_property(lat1, lon1, lat2, lon2):
    d = haversine_km(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
    assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM * (1 + 1e-12)


def test_factor_columns_unique_and_units_present():
    """Every column name ends in its unit, the one place the unit is kept."""
    units = {"hpa", "unitless", "pct", "mm", "cm", "hr", "c", "m", "deg", "ms"}
    cols = [f.column for f in ALL_FACTORS]
    assert len(set(cols)) == len(cols)
    for f in ALL_FACTORS:
        stem, _, unit = f.column.rpartition("_")
        assert stem and unit in units, f.column
        lo, hi = f.bounds
        assert lo < hi
