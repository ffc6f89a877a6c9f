"""Packaging for the Groundhog reproduction.

The ``repro`` package lives under ``src/``.  Install it with
``pip install .`` (or ``python setup.py develop`` for an editable install
on setuptools that predates PEP 660 editable wheels); without an install,
run everything with ``PYTHONPATH=src``.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def _version() -> str:
    """``repro.__version__``, read without importing the package."""
    path = os.path.join(HERE, "src", "repro", "__init__.py")
    with open(path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description="Groundhog (EuroSys 2023) request isolation and FaaS cluster simulation",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
