import pytest

from towergen.presets import preset_spec
from towergen.tower import build_tower
from towergen.twogen import build_plan


def dense_units(system):
    """A fresh dict of every unit of a system, each read through ``unit``."""
    return {key: system.unit(*key) for key in system.keys()}


@pytest.fixture(scope="session")
def t0_model():
    return build_tower(preset_spec("T0"))


@pytest.fixture(scope="session")
def t0_plan(t0_model):
    return build_plan(t0_model)


@pytest.fixture(scope="session")
def t1_model():
    return build_tower(preset_spec("T1"))


@pytest.fixture(scope="session")
def t1_plan(t1_model):
    return build_plan(t1_model)
