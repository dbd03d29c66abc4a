from importlib import resources

import pytest

from mcforge import detsys


def bundled(name: str) -> str:
    return resources.files("mcforge").joinpath("data", name).read_text()


@pytest.fixture
def essential_system():
    return detsys.parse_system(bundled("cartan_essential.dsys"))


@pytest.fixture
def translation_system():
    return detsys.parse_system(bundled("intransitive_translation.dsys"))


@pytest.fixture
def janet_file(tmp_path):
    """Janet's example; its order-4 answer depends on the prolongation cap."""
    path = tmp_path / "janet.dsys"
    path.write_text("coords: x, y, z\nfields: xi, eta, zeta\neq: eta = 0\n"
                    "eq: zeta = 0\neq: xi_zz = y*xi_xx\neq: xi_yy = 0\n")
    return str(path)
