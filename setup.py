"""Setuptools shim.

Without the ``wheel`` package, ``pip install -e .`` cannot build an
editable wheel; ``python setup.py develop`` installs the package in
editable mode without it. All metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
