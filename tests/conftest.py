import numpy as np
import pytest

import safeadp as sa


@pytest.fixture(scope="session")
def default_scenario():
    return sa.build_scenario()


@pytest.fixture(scope="session")
def adp_record(default_scenario):
    return sa.run_adp_episode(default_scenario)


@pytest.fixture(scope="session")
def qp_record():
    scn = sa.build_scenario(sim__controller="qp")
    return sa.run_qp_episode(scn)


@pytest.fixture(scope="session")
def qp_stall_record():
    # initial state collinear with the obstacle center and the origin
    scn = sa.build_scenario(sim__controller="qp", sim__x0=[3.0, 3.0])
    return sa.run_qp_episode(scn)


@pytest.fixture()
def safeset():
    return sa.CircularSafeSet(center=np.array([2.0, 2.0]), radius=1.0)


@pytest.fixture()
def cost_spec():
    return sa.CostSpec(Q=np.eye(2), r_diag=np.array([10.0, 10.0]), u_max=0.5)


@pytest.fixture()
def barrier(safeset):
    return sa.BarrierSpec(safeset, k_p=1.0)
