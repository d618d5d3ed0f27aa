"""Legacy setup shim; the package metadata lives in ``pyproject.toml``.

``pip install -e .`` builds from the PEP 621 metadata in
``pyproject.toml`` (name ``repro-pim``, the ``repro`` package under
``src/``, and the ``repro-pim`` console script).  This shim only serves
the legacy paths that environments without the ``wheel`` package need,
e.g. ``python setup.py develop`` or
``pip install -e . --no-use-pep517 --no-build-isolation``; setuptools
reads the same ``pyproject.toml`` metadata either way.
"""

from setuptools import setup

setup()
