"""Test oracles: slow, obviously correct twins of the production paths.

Each module here is a second implementation that a production path is
checked against, kept out of the ``repro`` package so the package has
one path per layer:

* :mod:`oracles.reference_flow` — the seed place-and-route flow;
* :mod:`oracles.flood` — the per-net taint flood of the defeat map;
* :mod:`oracles.campaign` — the single-fault campaign evaluation.

The root ``conftest.py`` puts ``tests/`` on the import path, so the test
and benchmark trees both import them as ``oracles.*``.
"""
