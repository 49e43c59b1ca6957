"""Legacy setup shim.

The project is fully described by ``pyproject.toml``; this file exists so the
package can also be installed in environments without network access or the
``wheel`` package (``python setup.py develop`` / ``pip install -e .
--no-use-pep517 --no-build-isolation``).
"""

from setuptools import setup

setup()
