import numpy as np
import pytest

from formstab import check, decompose, simulation
from formstab.instances import (
    consistent_triangle,
    three_agent_chain,
    triangle_mismatched_offsets,
    two_leader_fork,
)


@pytest.fixture(autouse=True)
def _empty_closed_loop_stores():
    """Each test starts with the per-process stores of certified constants
    and step increments in `formstab.simulation` empty, so no test reuses
    what another one built."""
    simulation._certificates.clear()
    simulation._increments.clear()


@pytest.fixture(scope="session")
def chain():
    return three_agent_chain()


@pytest.fixture(scope="session")
def chain_decomp(chain):
    return decompose(chain)


@pytest.fixture(scope="session")
def chain_report(chain, chain_decomp):
    return check(chain, chain_decomp)


@pytest.fixture(scope="session")
def bad_triangle():
    return triangle_mismatched_offsets()


@pytest.fixture(scope="session")
def fork():
    return two_leader_fork()


@pytest.fixture(scope="session")
def good_triangle():
    return consistent_triangle()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
