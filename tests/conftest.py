import numpy as np
import pytest

from gplod.fem_core import Potential, assemble_operators
from gplod.lod_space import build_constraint, compute_correctors
from gplod.mesh import Rect, build_hierarchy


@pytest.fixture(scope="session")
def unit_domain():
    return Rect(0.0, 1.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def trap_domain():
    return Rect(-6.0, 6.0, -6.0, 6.0)


@pytest.fixture(scope="session")
def small_hierarchy(unit_domain):
    # coarse 4 cells, fine 16 cells on the unit square
    return build_hierarchy(unit_domain, 4, 2)


@pytest.fixture(scope="session")
def small_ops(small_hierarchy):
    return assemble_operators(small_hierarchy.fine, Potential.constant(1.0))


@pytest.fixture(scope="session")
def small_constraint(small_hierarchy, small_ops):
    return build_constraint(small_hierarchy, small_ops.M)


@pytest.fixture(scope="session")
def small_lod(small_hierarchy, small_ops, small_constraint):
    return compute_correctors(small_hierarchy, small_ops, small_constraint)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
