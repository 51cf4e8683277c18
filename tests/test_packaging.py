"""The package version has exactly one source: ``repro/_version.py``."""

import os

import pytest

from repro import __version__

tomllib = pytest.importorskip("tomllib")

_PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")


def test_pyproject_reads_the_version_from_the_package():
    with open(_PYPROJECT, "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert (config["tool"]["setuptools"]["dynamic"]["version"]
            == {"attr": "repro._version.__version__"})
    assert __version__.count(".") == 2
