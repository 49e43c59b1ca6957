"""Shared argparse plumbing for the experiment drivers and ``python -m repro``.

Before the pipeline engine every table/figure driver carried its own copy of
the ``--scale`` / ``--backend`` / ``--flow-cache`` / ``--jobs`` argument
definitions; this module is their single home.  The drivers and the
``python -m repro`` scenario CLI all build their parsers from these helpers,
so a new knob (e.g. the ``--upset-model`` axis) appears everywhere at once.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

from ..faults.engine import BACKEND_CHOICES
from .designs import SCALES


def add_scale_argument(parser: argparse.ArgumentParser,
                       default: Optional[str] = "fast") -> None:
    """``--scale``: the experiment scale (filter size + device profiles)."""
    parser.add_argument(
        "--scale", default=default, choices=tuple(SCALES),
        help="experiment scale"
             + (f" (default: {default})" if default else
                " (default: the scenario's)"))


def add_backend_argument(parser: argparse.ArgumentParser,
                         default: Optional[str] = "serial") -> None:
    """``--backend``: the campaign execution backend."""
    parser.add_argument(
        "--backend", default=default, choices=BACKEND_CHOICES,
        help="campaign execution backend"
             + (f" (default: {default})" if default else
                " (default: the scenario's)"))


def _upset_model_spec(value: str) -> str:
    """Validate an upset-model spec at parse time (fail before any P&R)."""
    from ..faults.upsets import resolve_upset_model

    try:
        resolve_upset_model(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def add_upset_model_argument(parser: argparse.ArgumentParser,
                             default: Optional[str] = "single") -> None:
    """``--upset-model``: bits flipped per injection (single / mbu / ...)."""
    parser.add_argument(
        "--upset-model", default=default, metavar="MODEL",
        type=_upset_model_spec,
        help="upset model: 'single', 'mbu[:cluster]' or "
             "'accumulate[:interval]'"
             + (f" (default: {default})" if default else
                " (default: the scenario's)"))


def add_prefilter_argument(parser: argparse.ArgumentParser,
                           default: Optional[str] = "none") -> None:
    """``--prefilter``: skip provably-silent bits before simulation."""
    from ..faults.campaign import PREFILTER_CHOICES

    parser.add_argument(
        "--prefilter", default=default, choices=PREFILTER_CHOICES,
        help="campaign prefilter: 'static' skips bits the layout "
             "analyzer proves silent (verdicts stay bit-identical)"
             + (f" (default: {default})" if default else
                " (default: the scenario's)"))


def add_faults_argument(parser: argparse.ArgumentParser) -> None:
    """``--faults``: upsets injected per design (scale default otherwise)."""
    parser.add_argument(
        "--faults", type=int, default=None,
        help="upsets to inject per design (default: scale dependent)")


def add_flow_arguments(parser: argparse.ArgumentParser) -> None:
    """The implementation-flow knobs shared by every experiment CLI."""
    parser.add_argument(
        "--flow-cache", metavar="DIR",
        default=os.environ.get("REPRO_FLOW_CACHE"),
        help="persistent flow-artifact directory; place-and-route results "
             "are stored there and reused by later runs (default: the "
             "REPRO_FLOW_CACHE environment variable, else disabled)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="implement the suite designs in N parallel worker processes "
             "(default: 1)")


def add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")


def experiment_parser(description: Optional[str],
                      scale_default: str = "fast",
                      backend_default: Optional[str] = "serial",
                      faults: bool = False,
                      upset_model: bool = False,
                      prefilter: bool = False,
                      json_flag: bool = True,
                      ) -> argparse.ArgumentParser:
    """A parser with the standard experiment surface pre-populated.

    ``--backend`` (and optionally ``--faults`` / ``--upset-model`` /
    ``--prefilter``) are added when the driver runs campaigns;
    ``--flow-cache`` / ``--jobs`` are always present and ``--json`` unless
    the driver has no text mode.
    """
    parser = argparse.ArgumentParser(description=description)
    add_scale_argument(parser, default=scale_default)
    if backend_default is not None:
        add_backend_argument(parser, default=backend_default)
    if faults:
        add_faults_argument(parser)
    if upset_model:
        add_upset_model_argument(parser)
    if prefilter:
        add_prefilter_argument(parser)
    add_flow_arguments(parser)
    if json_flag:
        add_json_argument(parser)
    return parser
