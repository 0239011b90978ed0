import math

import pytest

from mott_ti import (
    DEFAULT_CONSTANTS,
    DomainError,
    ParticleSpecies,
    PhysicalConstants,
    Polarization,
    Spin,
    Statistics,
    builtin_catalog,
    find_species,
    load_constants,
    load_species_catalog,
)
from mott_ti.species import (
    MASS_MAX,
    MASS_MIN,
    TWICE_S_MAX,
    check_statistics,
    critical_eta,
    exchange_weight,
)


@pytest.mark.parametrize("values", [(), (1, 3)])
def test_record_store_takes_one_value_per_field(values):
    with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (shorter|longer)"):
        Spin.__new__(Spin)._store(*values)


def test_default_constants_values():
    c = DEFAULT_CONSTANTS
    assert c.hbar_c == 197.3269804
    assert c.e_squared == 1.4399645
    assert c.amu == 931.49410
    assert c.nucleon_mass == 938.9187
    assert c.r0 == 1.4


def test_fine_structure_sanity():
    ratio = DEFAULT_CONSTANTS.e_squared / DEFAULT_CONSTANTS.hbar_c
    assert 1.0 / 137.5 <= ratio <= 1.0 / 136.5


def test_constants_reject_nonpositive():
    with pytest.raises(DomainError):
        PhysicalConstants(hbar_c=-1.0)
    with pytest.raises(DomainError):
        PhysicalConstants(r0=0.0)


def test_constants_reject_wrong_fine_structure():
    with pytest.raises(DomainError):
        PhysicalConstants(e_squared=2.0)


def test_fingerprint_changes_with_values():
    base = DEFAULT_CONSTANTS.fingerprint()
    assert len(base) == 12
    assert PhysicalConstants(r0=1.2).fingerprint() != base
    assert PhysicalConstants().fingerprint() == base


def test_load_constants_file(tmp_path):
    f = tmp_path / "consts.txt"
    f.write_text("# override\nr0 1.2\ne_squared 1.44\n")
    c = load_constants(f)
    assert c.r0 == 1.2
    assert c.e_squared == 1.44
    assert c.hbar_c == DEFAULT_CONSTANTS.hbar_c  # untouched fields keep defaults


def test_load_constants_rejects_unknown_name(tmp_path):
    f = tmp_path / "consts.txt"
    f.write_text("planck 6.6\n")
    with pytest.raises(ValueError, match="unknown constant"):
        load_constants(f)


@pytest.mark.parametrize(
    "text,twice_s",
    [("0", 0), ("1", 2), ("2", 4), ("1/2", 1), ("3/2", 3), ("9/2", 9)],
)
def test_spin_parse(text, twice_s):
    assert Spin.parse(text).twice_s == twice_s


@pytest.mark.parametrize("text", ["-1", "-1/2", "x", "1/3", ""])
def test_spin_parse_rejects(text):
    with pytest.raises((ValueError, DomainError)):
        Spin.parse(text)


def test_spin_bounds():
    top = Spin(TWICE_S_MAX)
    assert top.value == 2.0**52 and math.isfinite(critical_eta(top))
    for bad in (-1, TWICE_S_MAX + 1, 10**400):
        with pytest.raises(DomainError, match="2s must be an integer"):
            Spin(bad)


def test_spin_statistics_parity():
    assert Spin(0).statistics is Statistics.BOSON
    assert Spin(2).statistics is Statistics.BOSON
    assert Spin(1).statistics is Statistics.FERMION
    assert Spin(9).statistics is Statistics.FERMION


def test_spin_str_roundtrip():
    for twice_s in range(0, 12):
        s = Spin(twice_s)
        assert Spin.parse(str(s)) == s


def test_check_statistics_mismatch():
    with pytest.raises(DomainError):
        check_statistics(Spin(0), Statistics.FERMION)
    with pytest.raises(DomainError):
        check_statistics(Spin(1), Statistics.BOSON)


def test_critical_eta_is_exact_for_small_spins():
    # one formula, sqrt((1 + 3/w)/2) with w = |eps w|, has the bits of the
    # textbook forms sqrt(3s+2) and sqrt(2) up to 2s = 73
    for twice_s in range(74):
        spin = Spin(twice_s)
        assert critical_eta(spin) == math.sqrt(3.0 * spin.value + 2.0)
        assert critical_eta(spin, Polarization.ALIGNED) == math.sqrt(2.0)


def test_symmetrized_combination_signs():
    # sigma_inc + eps w sigma_int; aligned: full interference; unpolarized: damped by 1/(2s+1)
    def combined(spin, polarization):
        return 2.0 + exchange_weight(spin, polarization) * 2.0

    assert combined(Spin(0), Polarization.ALIGNED) == 4.0
    assert combined(Spin(1), Polarization.ALIGNED) == 0.0
    assert combined(Spin(2), Polarization.UNPOLARIZED) == pytest.approx(2.0 + 2.0 / 3.0)
    assert combined(Spin(1), Polarization.UNPOLARIZED) == pytest.approx(1.0)


def test_species_validation():
    with pytest.raises(DomainError):
        ParticleSpecies(name="x", z=0, mass=1000.0, spin=Spin(0))
    with pytest.raises(DomainError):
        ParticleSpecies(name="x", z=1, mass=-5.0, spin=Spin(0))
    for mass in (MASS_MIN, MASS_MAX):
        assert ParticleSpecies(name="x", z=1, mass=mass, spin=Spin(0)).mass == mass
    for mass in (math.nextafter(MASS_MIN, 0.0), math.nextafter(MASS_MAX, math.inf),
                 5e-324, 1e-297):
        with pytest.raises(DomainError, match="mass must lie in"):
            ParticleSpecies(name="x", z=1, mass=mass, spin=Spin(0))


def test_charge_squared():
    sp = ParticleSpecies(name="alpha", z=2, mass=4 * DEFAULT_CONSTANTS.amu, spin=Spin(0))
    assert sp.charge_squared() == pytest.approx(4 * 1.4399645, rel=1e-15)


def test_builtin_catalog_entries():
    cat = builtin_catalog()
    names = [sp.name for sp in cat]
    assert names == ["d", "6Li", "alpha"]
    d = find_species("d", cat)
    assert (d.z, d.spin.twice_s) == (1, 2)
    assert d.mass == pytest.approx(2 * DEFAULT_CONSTANTS.amu, rel=1e-15)
    li = find_species("6Li", cat)
    assert (li.z, li.spin.twice_s) == (3, 2)
    alpha = find_species("alpha", cat)
    assert (alpha.z, alpha.spin.twice_s) == (2, 0)


def test_catalog_exact_mass_override(tmp_path):
    f = tmp_path / "cat.txt"
    f.write_text("# name Z mass 2s\nalpha 2 3727.379 0\nt 1 3 1\n")
    cat = load_species_catalog(f)
    assert cat[0].mass == 3727.379          # decimal literal: exact MeV
    assert cat[1].mass == pytest.approx(3 * DEFAULT_CONSTANTS.amu)  # integer: A x amu
    assert cat[1].spin.twice_s == 1


def test_catalog_rejects_malformed(tmp_path):
    f = tmp_path / "cat.txt"
    f.write_text("alpha 2 4\n")
    with pytest.raises(ValueError, match="expected"):
        load_species_catalog(f)


def test_find_species_unknown():
    # the CLI prints this message as its usage error (exit 2)
    message = r"^unknown species 'muon' \(catalog has: d, 6Li, alpha\)$"
    with pytest.raises(DomainError, match=message):
        find_species("muon", builtin_catalog())
