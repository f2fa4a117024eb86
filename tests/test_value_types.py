"""The package's immutable value types: equality, hash, repr, immutability, copies."""
import copy
import pickle
from fractions import Fraction

import pytest

from boltzgas.distributions import NormalApproximation
from boltzgas.montecarlo import EmpiricalStats, SamplerConfig, empirical_stats
from boltzgas.system import DistributionTable, OccupationVector, SystemParams

CONFIG = SamplerConfig(SystemParams(2, 2), 10, 7)

# Each factory builds a new instance; two calls give equal, distinct objects.
FACTORIES = {
    "SystemParams": lambda: SystemParams(3, 5),
    "OccupationVector": lambda: OccupationVector((1, 2, 0)),
    "DistributionTable": lambda: DistributionTable((Fraction(1, 4), Fraction(3, 4)), "exact"),
    "NormalApproximation": lambda: NormalApproximation(1.5, 0.25),
    "SamplerConfig": lambda: SamplerConfig(SystemParams(2, 2), 10, 7),
    "EmpiricalStats": lambda: empirical_stats(CONFIG, 1),
}
EACH = pytest.mark.parametrize("make", FACTORIES.values(), ids=FACTORIES.keys())


@pytest.mark.parametrize(
    "value, text",
    [
        (SystemParams(3, 5), "SystemParams(n_particles=3, energy_units=5)"),
        (OccupationVector((1, 2, 0)), "OccupationVector(counts=(1, 2, 0))"),
        (
            DistributionTable((Fraction(1, 4), Fraction(3, 4)), "exact"),
            "DistributionTable(probabilities=(Fraction(1, 4), Fraction(3, 4)), mode='exact')",
        ),
        (
            DistributionTable.from_numerators([1, 3], 4),
            "DistributionTable(probabilities=(Fraction(1, 4), Fraction(3, 4)), mode='exact')",
        ),
        (
            DistributionTable((0.25, 0.75), "limit"),
            "DistributionTable(probabilities=(0.25, 0.75), mode='limit')",
        ),
        (NormalApproximation(1.5, 0.25), "NormalApproximation(mean=1.5, variance=0.25)"),
        (
            CONFIG,
            "SamplerConfig(params=SystemParams(n_particles=2, energy_units=2), sample_count=10, seed=7)",
        ),
        (
            empirical_stats(CONFIG, 1),
            "EmpiricalStats(config=SamplerConfig(params=SystemParams(n_particles=2, energy_units=2), "
            "sample_count=10, seed=7), count_sums=(10, 0, 10), count_square_sums=(10, 0, 10), "
            "histograms={0: (0, 10, 0), 1: (10, 0, 0)})",
        ),
    ],
)
def test_repr(value, text):
    assert repr(value) == text


@EACH
def test_equal_only_within_one_class(make):
    value = make()
    assert value == make() and not value != make()
    for other in FACTORIES.values():
        if other is not make:
            assert value != other()
    assert value != value._values()  # the plain tuple of its fields


def test_not_equal_to_the_tuple_of_its_items():
    assert OccupationVector((1, 2)) != (1, 2)
    assert SystemParams(3, 5) != (3, 5)


@EACH
def test_equal_values_hash_equal(make):
    if make is FACTORIES["EmpiricalStats"]:
        with pytest.raises(TypeError):  # its histograms are a dict
            hash(make())
    else:
        assert hash(make()) == hash(make())


def test_equal_laws_over_different_totals_hash_equal():
    a = DistributionTable.from_numerators([1, 3], 4)
    b = DistributionTable.from_numerators([2, 6], 8)
    c = DistributionTable((Fraction(1, 4), Fraction(3, 4)), "exact")
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert {a, b, c} == {a}


@EACH
def test_fields_cannot_be_set_or_deleted(make):
    value = make()
    for name in value._fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@EACH
def test_pickle_and_deepcopy_round_trip(make):
    value = make()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value and repr(copied) == repr(value)
        with pytest.raises(AttributeError):
            setattr(copied, value._fields[0], None)


def test_cached_properties_of_empirical_stats():
    stats = EmpiricalStats(CONFIG, (10, 0, 10), (10, 0, 20), {})
    assert "means" not in vars(stats)
    assert stats.means == (1.0, 0.0, 1.0)
    assert stats.means is stats.means and "means" in vars(stats)
    assert stats.variances == (0.0, 0.0, 1.0)
    assert pickle.loads(pickle.dumps(stats)).variances == (0.0, 0.0, 1.0)
    assert stats == EmpiricalStats(CONFIG, (10, 0, 10), (10, 0, 20), {})  # caches are not fields
