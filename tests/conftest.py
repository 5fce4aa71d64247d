import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))

from hopfdiff import catalog
from hopfdiff.solver import classify_diffops


@pytest.fixture(scope="session")
def h4():
    return catalog.build("H4")


@pytest.fixture(scope="session")
def h8():
    return catalog.build("H8")


@pytest.fixture(scope="session")
def kc2():
    return catalog.build("kC2")


@pytest.fixture(scope="session")
def kc4():
    return catalog.build("kC4")


@pytest.fixture(scope="session")
def kc2xc2():
    return catalog.build("kC2xC2")


@pytest.fixture(scope="session")
def ks3():
    return catalog.build("kS3")


@pytest.fixture(scope="session")
def inversion_action():
    return catalog.build("action:inv:kC2:kC4")


@pytest.fixture(scope="session")
def h8_classification():
    """The full (not bijective-only) classification of plan:H8, shared by
    every test that reads it."""
    return classify_diffops(catalog.build("plan:H8"))
