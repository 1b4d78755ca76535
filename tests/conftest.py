import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from bigalg.lie import TypeA
from bigalg.reps import build_irrep
from bigalg.bigalgebra import BigGenerators

# the same examples on every machine, and no example database on disk
settings.register_profile("bigalg", derandomize=True, database=None)
settings.load_profile("bigalg")
# Hypothesis also caches the literals of local source files; keep that cache
# out of the checkout, in a directory removed when the run ends
_hypothesis_home = tempfile.TemporaryDirectory(prefix="bigalg-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


@pytest.fixture(scope="session")
def L2():
    return TypeA(2)


@pytest.fixture(scope="session")
def L3():
    return TypeA(3)


@pytest.fixture(scope="session")
def L4():
    return TypeA(4)


@pytest.fixture(scope="session")
def octet(L3):
    return build_irrep(L3, (1, 1))


@pytest.fixture(scope="session")
def decuplet(L3):
    return build_irrep(L3, (3, 0))


@pytest.fixture(scope="session")
def sl3_standard(L3):
    return build_irrep(L3, (1, 0))


@pytest.fixture(scope="session")
def sl2_sym4(L2):
    return build_irrep(L2, (4,))


@pytest.fixture(scope="session")
def octet_gens(octet):
    return BigGenerators(octet)


@pytest.fixture(scope="session")
def decuplet_gens(decuplet):
    return BigGenerators(decuplet)


@pytest.fixture(scope="session")
def sl2_sym4_gens(sl2_sym4):
    return BigGenerators(sl2_sym4)
