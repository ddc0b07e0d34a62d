import numpy as np
import pytest

from rdgalerkin.basis import (
    BasisSpec,
    derivative,
    derivative_matrix,
    value,
    value_matrix,
)


UNIT = BasisSpec(0.0, 1.0, 0)
WIDE = BasisSpec(-50.0, 50.0, 6)


def test_degree_zero_is_x_times_one_minus_x():
    assert value(UNIT, 0, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_hand_evaluated_wide_domain_member():
    # C(6,3) * (50^3 * 50^3) / 100^6 * (50 * 50) = 20 * 2500 / 64
    assert value(WIDE, 3, 0.0) == pytest.approx(781.25, rel=1e-14)


@pytest.mark.parametrize("spec", [UNIT, WIDE, BasisSpec(0.0, 2.0, 10)])
def test_endpoint_vanishing_is_exact(spec):
    for n in range(spec.size):
        assert value(spec, n, spec.lower) == 0.0
        assert value(spec, n, spec.upper) == 0.0


@pytest.mark.parametrize("degree", [0, 3, 6, 10])
@pytest.mark.parametrize("lower,upper", [(0.0, 2.0), (-50.0, 50.0)])
def test_sum_identity(degree, lower, upper):
    # binomial theorem collapses the family sum to the bare endpoint factor
    spec = BasisSpec(lower, upper, degree)
    x = np.linspace(lower, upper, 1000)
    total = value_matrix(spec, x).sum(axis=0)
    expected = (x - lower) * (upper - x)
    scale = np.abs(expected).max()
    assert np.abs(total - expected).max() <= 1e-10 * scale


@pytest.mark.parametrize("spec", [WIDE, BasisSpec(0.0, 2.0, 5)])
def test_mirror_symmetry(spec):
    x = np.linspace(spec.lower, spec.upper, 101)
    mirrored = spec.lower + spec.upper - x
    for n in range(spec.size):
        left = value_matrix(spec, mirrored)[n]
        right = value(spec, spec.degree - n, x)
        scale = np.abs(right).max()
        assert np.abs(left - right).max() <= 1e-10 * max(scale, 1e-300)


def test_degree_zero_derivative():
    assert derivative(UNIT, 0, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert derivative(UNIT, 0, 0.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("spec", [UNIT, WIDE, BasisSpec(0.0, 2.0, 6)])
def test_derivative_matches_central_differences(spec):
    h = 1e-6 * spec.width
    x = np.linspace(spec.lower + 2 * h, spec.upper - 2 * h, 57)
    for n in range(spec.size):
        fd = (value(spec, n, x + h) - value(spec, n, x - h)) / (2 * h)
        exact = derivative(spec, n, x)
        # error relative to the derivative's own scale: a pointwise relative
        # bound blows up where the derivative crosses zero
        scale = np.abs(exact).max()
        assert np.abs(fd - exact).max() <= 1e-5 * scale


def test_wide_domain_derivative_at_specific_point():
    h = 1e-6 * WIDE.width
    fd = (value(WIDE, 3, 10.0 + h) - value(WIDE, 3, 10.0 - h)) / (2 * h)
    assert derivative(WIDE, 3, 10.0) == pytest.approx(fd, rel=1e-5)


def test_rejects_out_of_range_index():
    with pytest.raises(IndexError):
        value(WIDE, 7, 0.0)
    with pytest.raises(IndexError):
        derivative(WIDE, -1, 0.0)


def test_rejects_points_outside_domain():
    with pytest.raises(ValueError):
        value(UNIT, 0, 1.5)
    with pytest.raises(ValueError):
        derivative(WIDE, 0, -50.001)


def test_invalid_spec():
    with pytest.raises(ValueError):
        BasisSpec(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        BasisSpec(0.0, 1.0, -1)


def test_matrix_helpers_shapes():
    x = np.linspace(-50, 50, 13)
    assert value_matrix(WIDE, x).shape == (7, 13)
    assert derivative_matrix(WIDE, x).shape == (7, 13)


@pytest.mark.parametrize(
    "args,field",
    [((0.0, 1.0, -1), "degree"), ((1.0, 1.0, 2), "upper"), ((2.0, 1.0, 2), "upper"),
     ((0.0, 1.0, 2.5), "degree"), ((0.0, 1.0, 2.0), "degree"), ((0.0, 1.0, True), "degree")],
)
def test_invalid_spec_message_names_the_field(args, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        BasisSpec(*args)


def test_numpy_integer_degree_accepted():
    assert BasisSpec(0.0, 1.0, np.int64(3)).size == 4
