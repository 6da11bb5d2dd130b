"""The package namespace: every module's public names, each declared once."""

import pytest

import ballmax
from ballmax import analysis, geometry, maximal, profiles, verify


@pytest.mark.parametrize("module", [geometry, profiles, maximal, analysis, verify])
def test_package_exports_each_module_public_name(module):
    for name in module.__all__:
        assert getattr(ballmax, name) is getattr(module, name), name
        assert name in ballmax.__all__


def test_package_all_has_no_duplicates():
    assert len(ballmax.__all__) == len(set(ballmax.__all__))
    assert {"cap_volume_array", "lens_volume_array"} <= set(ballmax.__all__)
