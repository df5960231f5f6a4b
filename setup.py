"""Setuptools shim.

PEP 660 editable installs need ``bdist_wheel`` from the ``wheel`` package,
which offline hosts may lack.  This thin ``setup.py`` lets
``pip install -e . --no-use-pep517`` (setuptools and wheel) or
``python setup.py develop`` (setuptools only) perform a legacy editable
install; all project metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
