import math

import pytest
import scipy.special as ss

from mott_ti import (
    DomainError,
    legendre_p,
    legendre_p_table,
    spherical_bessel_j,
    spherical_bessel_j_table,
    spherical_bessel_y,
    spherical_bessel_y_table,
)


def test_j_closed_forms_at_1():
    assert spherical_bessel_j(0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-14)
    assert spherical_bessel_j(1, 1.0) == pytest.approx(
        math.sin(1.0) - math.cos(1.0), rel=1e-14
    )  # sin x/x^2 - cos x/x at x=1


def test_y_closed_forms_at_1():
    assert spherical_bessel_y(0, 1.0) == pytest.approx(-math.cos(1.0), rel=1e-14)
    assert spherical_bessel_y(1, 1.0) == pytest.approx(
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


@pytest.mark.parametrize("x", [1e-6, 1e-10, 1e-16, 1e-18, 1e-30])
def test_tables_against_scipy_at_tiny_x(x):
    # the closed-form j_1 cancels to noise here; j_0 must normalize the table
    j = spherical_bessel_j_table(16, x)
    y = spherical_bessel_y_table(16, x)
    for l in range(17):
        assert j[l] == pytest.approx(ss.spherical_jn(l, x), rel=1e-12, abs=1e-300)
        ref = ss.spherical_yn(l, x)
        if math.isfinite(ref):
            assert y[l] == pytest.approx(ref, rel=1e-12)
        else:  # y_l overflows from l = 16 at 1e-18 and l = 10 at 1e-30
            assert y[l] == ref
    assert spherical_bessel_j(1, 1e-18) == pytest.approx(1e-18 / 3.0, rel=1e-12)


def test_j_deep_downward_regime():
    # l >> x exercises the Miller normalization; frozen from scipy
    assert spherical_bessel_j(15, 2.0) == pytest.approx(1.6069821659384152e-13, rel=1e-10)
    assert spherical_bessel_y(7, 0.5) == pytest.approx(-34929098.789259195, rel=1e-10)


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
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            spherical_bessel_j(0, bad)
        with pytest.raises(DomainError):
            spherical_bessel_y(0, bad)
    with pytest.raises(DomainError):
        spherical_bessel_j(-1, 1.0)


def test_legendre_values():
    assert legendre_p(2, 0.0) == pytest.approx(-0.5, rel=1e-15)
    assert legendre_p(3, 0.0) == 0.0
    for l in range(21):
        assert legendre_p(l, 1.0) == pytest.approx(1.0, rel=1e-13)
        if l % 2 == 1:
            assert abs(legendre_p(l, 0.0)) < 1e-15


@pytest.mark.parametrize("x", [-1.0, -0.7, -0.2, 0.0, 0.3, 0.9, 1.0])
def test_legendre_against_scipy(x):
    table = legendre_p_table(25, x)
    for l in range(26):
        assert table[l] == pytest.approx(float(ss.eval_legendre(l, x)), rel=1e-12, abs=1e-14)


def test_legendre_domain_error():
    with pytest.raises(DomainError):
        legendre_p(2, 1.5)
    with pytest.raises(DomainError):
        legendre_p(2, -1.0001)
