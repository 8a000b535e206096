"""Shared fixtures: seeded randomness, a simulated network, and servers.

Every fixture uses deterministic randomness so failures replay exactly;
the schemes and protocols themselves never depend on the seed.
"""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.ipc.client import ServiceClient
from repro.kernel.machine import Machine
from repro.net.network import SimNetwork
from repro.net.nic import Nic


def pytest_configure(config):
    # Registered here rather than in a root ini file, which would change
    # what a bare ``pytest`` run from the repository root collects.
    config.addinivalue_line(
        "markers",
        "integration: drives the full stack or real sockets "
        "(deselect with -m 'not integration')",
    )


@pytest.fixture
def rng():
    return RandomSource(seed=0xA40EBA)


@pytest.fixture
def net():
    return SimNetwork()


@pytest.fixture
def server_nic(net):
    return Nic(net)


@pytest.fixture
def client_nic(net):
    return Nic(net)


@pytest.fixture
def machines(net):
    """A (server machine, client machine) pair with kernels installed."""
    return (
        Machine(net, rng=RandomSource(seed=11), name="server-machine"),
        Machine(net, rng=RandomSource(seed=22), name="client-machine"),
    )


def make_client(nic, server, rng, **kwargs):
    """A ServiceClient wired to a server with signature checking on."""
    kwargs.setdefault("expect_signature", server.signature_image)
    return ServiceClient(nic, server.put_port, rng=rng, **kwargs)
