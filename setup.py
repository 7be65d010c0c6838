"""Legacy setup shim for environments without the ``wheel`` package.

All metadata lives in ``pyproject.toml``. With ``wheel`` installed,
``pip install -e . --no-build-isolation`` builds the editable install
through the PEP 517 backend; without it, ``python setup.py develop``
still works through this file.
"""

from setuptools import setup

setup()
