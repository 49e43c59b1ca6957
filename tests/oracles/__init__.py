"""Test oracles: reference models the program is checked against.

Each module here states what a part of the program must compute, in the
slowest, most obvious form, and is kept out of the ``repro`` package so
the package holds only what the program runs:

* :mod:`oracles.reference_flow` — the seed place-and-route flow;
* :mod:`oracles.routing` — the tuple-level routing rule (``downhill``)
  the routing graph's adjacency table is checked against;
* :mod:`oracles.flood` — the per-net taint flood of the defeat map;
* :mod:`oracles.campaign` — the single-fault campaign evaluation;
* :mod:`oracles.evaluate` — per-cell evaluation of the primitives, the
  three-valued voter function and LUT truth tables;
* :mod:`oracles.behaviour` — cycle-level models of the FIR filter and
  the counter, and the check of a simulated trace against them;
* :mod:`oracles.validate` — structural validation of netlists.

The root ``conftest.py`` puts ``tests/`` on the import path, so the test
and benchmark trees both import them as ``oracles.*``.
"""
