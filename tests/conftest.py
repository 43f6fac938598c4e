import numpy as np
import pytest

from beamilc.dynamics import BeamGeometry, BeamParams, analytic_init_params
from beamilc.kinematics import planar_chain, seven_dof_chain
from beamilc.plant import TwoSegmentParams

REFERENCE_Q0_7DOF = np.array([-np.pi / 2, -np.pi / 6, 0.0, -2 * np.pi / 3, 0.0,
                          np.pi / 2, np.pi / 4])


def assert_same_bits(got, ref):
    """Equal shapes and bit patterns: unlike ``==``, ``-0.0`` and ``0.0`` differ."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes(), np.argwhere(got.view(np.uint64) != ref.view(np.uint64))[:5]


@pytest.fixture(scope="session")
def reference_beam():
    # 60 x 6 x 0.1 cm stainless beam, rho = 6.3 g/cm^3, EI = 1.267 N m^2
    return BeamGeometry(length=0.6, width=0.06, thickness=0.001,
                        density=6300.0, bending_stiffness=1.267)


@pytest.fixture(scope="session")
def nominal_params(reference_beam):
    return analytic_init_params(reference_beam)


@pytest.fixture(scope="session")
def chain3():
    return planar_chain([0.4, 0.3, 0.2])


@pytest.fixture(scope="session")
def chain2():
    return planar_chain([1.0, 1.0])


@pytest.fixture(scope="session")
def chain7():
    return seven_dof_chain()


@pytest.fixture(scope="session")
def mismatch_two_segment():
    # first mode detuned below the analytic prior, second mode near 3x
    return TwoSegmentParams()


@pytest.fixture(scope="session")
def free_params():
    # generic well-conditioned parameter set for unit tests
    return BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.0)
