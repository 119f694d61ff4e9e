import gc

import pytest

from pmodcalc import FieldSpec, Lattice


@pytest.fixture(scope="session")
def gf2():
    return FieldSpec(2)


@pytest.fixture(scope="session")
def gf3():
    return FieldSpec(3)


@pytest.fixture()
def square():
    """The lattice {0,1}^2."""
    return Lattice.grid([1, 1])


@pytest.fixture()
def cube3():
    """The lattice {0,1}^3."""
    return Lattice.grid([1, 1, 1])


@pytest.fixture()
def grid22():
    """The 3x3 grid [2] x [2]."""
    return Lattice.grid([2, 2])


@pytest.fixture
def no_gc():
    """Automatic collection off for the test, so only reference counting
    frees anything; the collector's state is put back afterwards."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
