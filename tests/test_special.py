import math

import pytest
import scipy.special as ss
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mott_ti import (
    DomainError,
    legendre_p_table,
    spherical_bessel_j_table,
    spherical_bessel_y_table,
)
from mott_ti.special import X_MIN


def test_j_closed_forms_at_1():
    assert spherical_bessel_j_table(0, 1.0)[0] == pytest.approx(math.sin(1.0), rel=1e-14)
    assert spherical_bessel_j_table(1, 1.0)[1] == pytest.approx(
        math.sin(1.0) - math.cos(1.0), rel=1e-14
    )  # sin x/x^2 - cos x/x at x=1


def test_y_closed_forms_at_1():
    assert spherical_bessel_y_table(0, 1.0)[0] == pytest.approx(-math.cos(1.0), rel=1e-14)
    assert spherical_bessel_y_table(1, 1.0)[1] == pytest.approx(
        -math.cos(1.0) - math.sin(1.0), rel=1e-14
    )


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_j_against_scipy(x):
    ours = spherical_bessel_j_table(30, x)
    for l in range(31):
        ref = ss.spherical_jn(l, x)
        assert ours[l] == pytest.approx(ref, rel=1e-11, abs=1e-280)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_y_against_scipy(x):
    ours = spherical_bessel_y_table(30, x)
    for l in range(31):
        ref = ss.spherical_yn(l, x)
        assert ours[l] == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("x", [1e-6, 1e-10, 1e-16, 1e-18, 1e-30, X_MIN])
def test_tables_against_scipy_at_tiny_x(x):
    # the closed-form j_1 cancels to noise here; j_0 must normalize the table
    j = spherical_bessel_j_table(16, x)
    y = spherical_bessel_y_table(16, x)
    for l in range(17):
        assert j[l] == pytest.approx(ss.spherical_jn(l, x), rel=1e-12, abs=1e-300)
        ref = ss.spherical_yn(l, x)
        if math.isfinite(ref):
            assert y[l] == pytest.approx(ref, rel=1e-12)
        else:  # y_l overflows from l = 16 at 1e-18, l = 10 at 1e-30 and l = 6 at X_MIN
            assert y[l] == ref
    assert spherical_bessel_j_table(1, 1e-18)[1] == pytest.approx(1e-18 / 3.0, rel=1e-12)
    # a deep j table stays finite and y never turns nan; below X_MIN both refuse
    assert all(map(math.isfinite, spherical_bessel_j_table(1000, x)))
    assert not any(map(math.isnan, spherical_bessel_y_table(1000, x)))
    below = math.nextafter(X_MIN, 0.0)
    with pytest.raises(DomainError):
        spherical_bessel_j_table(16, below)
    with pytest.raises(DomainError):
        spherical_bessel_y_table(16, below)


def test_j_deep_downward_regime():
    # l >> x exercises the Miller normalization; frozen from scipy
    assert spherical_bessel_j_table(15, 2.0)[15] == pytest.approx(
        1.6069821659384152e-13, rel=1e-10)
    assert spherical_bessel_y_table(7, 0.5)[7] == pytest.approx(-34929098.789259195, rel=1e-10)


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
def test_wronskian_identity(x):
    # j_l y_l' - j_l' y_l = 1/x^2, with f_l' = f_{l-1} - (l+1)/x f_l
    lmax = 11
    j = spherical_bessel_j_table(lmax, x)
    y = spherical_bessel_y_table(lmax, x)
    jm1 = math.cos(x) / x   # j_{-1}
    ym1 = math.sin(x) / x   # y_{-1}
    for l in range(11):
        jp = (jm1 if l == 0 else j[l - 1]) - (l + 1) / x * j[l]
        yp = (ym1 if l == 0 else y[l - 1]) - (l + 1) / x * y[l]
        wronskian = j[l] * yp - jp * y[l]
        assert wronskian * x * x == pytest.approx(1.0, rel=1e-10)


def test_bessel_domain_errors():
    for bad in (0.0, -1.0, 1e-300, math.nan, math.inf):
        with pytest.raises(DomainError):
            spherical_bessel_j_table(0, bad)
        with pytest.raises(DomainError):
            spherical_bessel_y_table(0, bad)
    for table in (spherical_bessel_j_table, spherical_bessel_y_table, legendre_p_table):
        with pytest.raises(DomainError):
            table(-1, 1.0)


def test_legendre_values():
    assert legendre_p_table(2, 0.0)[2] == pytest.approx(-0.5, rel=1e-15)
    assert legendre_p_table(3, 0.0)[3] == 0.0
    ones, at_zero = legendre_p_table(20, 1.0), legendre_p_table(20, 0.0)
    for l in range(21):
        assert ones[l] == pytest.approx(1.0, rel=1e-13)
        if l % 2 == 1:
            assert abs(at_zero[l]) < 1e-15


@pytest.mark.parametrize("x", [-1.0, -0.7, -0.2, 0.0, 0.3, 0.9, 1.0])
def test_legendre_against_scipy(x):
    table = legendre_p_table(25, x)
    for l in range(26):
        expected = float(ss.eval_legendre(l, x))
        assert table[l] == pytest.approx(expected, rel=1e-12, abs=1e-14)


def _int_coefficient_j(l_max, x):
    """spherical_bessel_j_table as it was written with int coefficients."""
    j0, j1 = math.sin(x) / x, math.sin(x) / (x * x) - math.cos(x) / x
    if l_max == 0:
        return [j0]
    if l_max <= x:
        j = [j0, j1]
        for l in range(1, l_max):
            j.append((2 * l + 1) / x * j[l] - j[l - 1])
        return j
    start = l_max + max(16, int(2.0 * math.sqrt(l_max)))
    table = [0.0] * (l_max + 1)
    above, here = 0.0, 1e-30
    for l in range(start, -1, -1):
        above, here = here, (2 * l + 3) / x * here - above
        if abs(here) > 1e250:
            above, here = above * 1e-250, here * 1e-250
            table = [v * 1e-250 for v in table]
        if l <= l_max:
            table[l] = here
    norm = j0 / table[0] if x < 1.0 or abs(j0) >= abs(j1) else j1 / table[1]
    return [v * norm for v in table]


def _int_coefficient_y(l_max, x):
    """spherical_bessel_y_table as it was written with int coefficients."""
    y = [-math.cos(x) / x, -math.cos(x) / (x * x) - math.sin(x) / x][: l_max + 1]
    for l in range(1, l_max):
        y.append(y[l] if math.isinf(y[l]) else (2 * l + 1) / x * y[l] - y[l - 1])
    return y


def _int_coefficient_p(l_max, x):
    """legendre_p_table as it was written with int coefficients."""
    p = [1.0, x][: l_max + 1]
    for l in range(1, l_max):
        p.append(((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1))
    return p


EDGE_XS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.0 - 2.0**-53]


@settings(max_examples=100, deadline=None)
@given(l_max=st.integers(0, 1100), log_x=st.floats(math.log(X_MIN), math.log(1100.0)),
       u=st.floats(-1.0, 1.0) | st.sampled_from(EDGE_XS))
@example(l_max=1100, log_x=math.log(X_MIN), u=1.0)  # y overflows, j rescales
@example(l_max=40, log_x=math.log(1100.0), u=-1.0)  # upward j
@example(l_max=0, log_x=0.0, u=-0.0)
@example(l_max=1100, log_x=0.0, u=0.0)
@example(l_max=1100, log_x=0.0, u=-0.0)
@example(l_max=1100, log_x=0.0, u=-1.0)
@example(l_max=1100, log_x=0.0, u=5e-324)
@example(l_max=1100, log_x=0.0, u=-5e-324)
@example(l_max=1100, log_x=0.0, u=1.0 - 2.0**-53)
def test_float_coefficients_keep_the_bits_of_int_ones(l_max, log_x, u):
    # each float coefficient equals its int, so every value is the same float;
    # P_l is compared by repr, which tells -0.0 from 0.0 (the EDGE_XS examples)
    x = min(max(math.exp(log_x), X_MIN), 1100.0)
    assert spherical_bessel_j_table(l_max, x) == _int_coefficient_j(l_max, x)
    assert spherical_bessel_y_table(l_max, x) == _int_coefficient_y(l_max, x)
    p = legendre_p_table(l_max, u)
    assert list(map(repr, p)) == list(map(repr, _int_coefficient_p(l_max, u)))


def test_legendre_domain_error():
    with pytest.raises(DomainError):
        legendre_p_table(2, 1.5)
    with pytest.raises(DomainError):
        legendre_p_table(2, -1.0001)
    with pytest.raises(DomainError):
        legendre_p_table(2, math.nan)
