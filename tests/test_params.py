import math

import numpy as np
import pytest

from competing_chain import ModelParams, couplings, c0_constant, c2_constant
from competing_chain.params import config_values
from competing_chain.errors import ParameterError


def test_two_n_validation():
    with pytest.raises(ParameterError):
        ModelParams(two_n=2)
    with pytest.raises(ParameterError):
        ModelParams(two_n=5)


def test_degenerate_denominators_rejected():
    with pytest.raises(ParameterError):
        ModelParams(two_n=4, a_bar=0.0, p=0.0, q=1.0)
    with pytest.raises(ParameterError):
        ModelParams(two_n=4, a_bar=0.0, p=1.0, q=0.0, xi=2.0)


def test_q_bar_definition():
    pr = ModelParams(two_n=4, a_bar=0.1, p=1.0, q=1.0, xi=1.2)
    assert pr.q_bar == pytest.approx(1.0 / math.sqrt(1.0 + 1.44), rel=1e-15)
    back = ModelParams.from_q_bar(4, 0.1, 1.0, pr.q_bar, 1.2)
    assert back.q == pytest.approx(1.0, rel=1e-14)


def test_couplings_vanish_with_a():
    c = couplings(ModelParams(two_n=4, a_bar=0.0, p=0.7, q=0.9, xi=0.3))
    assert c.J2 == 0.0
    assert c.J3 == 0.0
    assert c.c1 == 0.0
    assert c.c2Nm1 == 0.0


def test_couplings_reference_point():
    # a=0.66i, p=1.2, q-bar=0.7, xi=1.2 (values by direct substitution)
    pr = ModelParams.from_q_bar(8, 0.66, 1.2, 0.7, 1.2)
    c = couplings(pr)
    assert c.J2 == pytest.approx(2 * 0.66 ** 2, rel=1e-15)
    assert c.J3 == pytest.approx(-0.66, rel=1e-15)
    assert c.c1 == pytest.approx(0.234289443378119, rel=1e-12)
    assert c.c2Nm1 == pytest.approx(-0.41941089023336237, rel=1e-12)
    assert all(map(math.isfinite, (c.J1_bulk, c.J2, c.J3, c.c1, c.c2Nm1)))


def test_c0_heisenberg_limit():
    # at a=0 the additive constant is the site count
    for two_n in (4, 6, 8):
        pr = ModelParams(two_n=two_n, a_bar=0.0, p=1.0, q=1.0)
        assert c0_constant(pr) == pytest.approx(two_n, rel=1e-15)


def test_c2_positive():
    pr = ModelParams(two_n=6, a_bar=0.8, p=0.3, q=1.5, xi=2.0)
    assert c2_constant(pr) > 0.0


def test_config_round_trip():
    pr = ModelParams(two_n=6, a_bar=0.6600000000000001, p=1.2, q=0.123456789012345678,
                     xi=1.2, theta_bar=(0.1, -0.2, 0.3, 0.0, -0.05, 1e-17))
    text = "".join(f"{key} = {value!r}\n" for key, value in
                   (("two_n", pr.two_n), ("a_bar", pr.a_bar), ("p", pr.p),
                    ("q", pr.q), ("xi", pr.xi)))
    text += "theta_bar = " + ",".join(repr(t) for t in pr.theta_bar) + "\n"
    back = ModelParams(**config_values(text))
    assert back == pr  # exact decimal round trip


def test_config_defaults_and_comments():
    pr = ModelParams(**config_values("# comment\ntwo_n = 4\np = 2.0\n"))
    assert pr.two_n == 4
    assert pr.p == 2.0
    assert pr.theta_bar == (0.0, 0.0, 0.0, 0.0)


def test_numpy_theta_bar_checked_by_length():
    pr = ModelParams(two_n=4, a_bar=0.1, theta_bar=np.array([0.1, -0.1, 0.2, -0.2]))
    assert pr.theta_bar == (0.1, -0.1, 0.2, -0.2)
    with pytest.raises(ParameterError):
        ModelParams(two_n=4, a_bar=0.1, theta_bar=np.array([0.1, -0.1, 0.2]))
    with pytest.raises(ParameterError):   # a single zero is not "no profile"
        ModelParams(two_n=4, a_bar=0.1, theta_bar=np.zeros(1))
    assert ModelParams(two_n=4, theta_bar=np.zeros(0)).theta_bar == (0.0,) * 4


def test_empty_theta_defaults_to_zeros():
    pr = ModelParams(two_n=4, a_bar=0.1, p=1.0, q=1.0)
    assert pr.theta_bar == (0.0,) * 4
    assert pr.homogeneous()
