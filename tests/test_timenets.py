import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth.errors import ConfigError
from fracsmooth.timenets import TimeNet, make_theta_net


def test_equidistant_net():
    net = make_theta_net(4, 1.0, 1.0)
    np.testing.assert_allclose(net.nodes, [0.0, 0.25, 0.5, 0.75, 1.0],
                               atol=1e-15)
    np.testing.assert_allclose(np.diff(net.nodes), 0.25, atol=1e-15)


def test_theta_net_reference_values():
    # t_k = T (1 - ((n-k)/n)^(1/theta)) at theta = 0.5, n = 4, T = 1:
    # 1 - ((4-k)/4)^2 for k = 0..4
    net = make_theta_net(4, 0.5, 1.0)
    np.testing.assert_allclose(net.nodes,
                               [0.0, 1 - 0.5625, 0.75, 1 - 0.0625, 1.0],
                               atol=1e-15)


def test_theta_net_endpoints_exact():
    net = make_theta_net(7, 0.3, 2.5)
    assert net.nodes[0] == 0.0
    assert net.nodes[-1] == 2.5


def test_theta_net_concentration_near_maturity():
    eq = make_theta_net(64, 1.0, 1.0)
    conc = make_theta_net(64, 0.4, 1.0)
    # smaller theta => last interval shrinks, first interval grows
    dc, de = np.diff(conc.nodes), np.diff(eq.nodes)
    assert dc[-1] < de[-1]
    assert dc[0] > de[0]


def test_theta_net_validation():
    with pytest.raises(ConfigError):
        make_theta_net(0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        make_theta_net(4, 0.0, 1.0)
    with pytest.raises(ConfigError):
        make_theta_net(4, 1.5, 1.0)
    with pytest.raises(ConfigError):
        make_theta_net(4, 1.0, -1.0)


def test_timenet_node_validation():
    with pytest.raises(ConfigError):
        TimeNet(nodes=np.array([0.1, 1.0]), n=1, theta=1.0, T=1.0)
    with pytest.raises(ConfigError):
        TimeNet(nodes=np.array([0.0, 0.5, 0.5, 1.0]), n=3, theta=1.0, T=1.0)


def test_net_collapse_rejected():
    # extreme concentration makes the last nodes indistinguishable from T
    # in double precision; the validator refuses the degenerate net
    with pytest.raises(ConfigError):
        make_theta_net(108, 0.125, 1.0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 300), theta=st.floats(0.25, 1.0),
       T=st.floats(0.1, 10.0))
def test_net_shape_property(n, theta, T):
    net = make_theta_net(n, theta, T)
    assert net.nodes.size == n + 1
    assert net.nodes[0] == 0.0 and net.nodes[-1] == T
    assert np.all(np.diff(net.nodes) > 0.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 100), theta=st.floats(0.25, 1.0))
def test_net_refinement_keeps_nodes(n, theta):
    coarse = make_theta_net(n, theta, 1.0)
    fine = make_theta_net(2 * n, theta, 1.0)
    np.testing.assert_allclose(fine.nodes[::2], coarse.nodes, atol=1e-12)
