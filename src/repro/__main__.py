"""``python -m repro`` — the scenario pipeline command line.

.. code-block:: console

    $ python -m repro list
    $ python -m repro run table3-fir --scale fast
    $ python -m repro run upset-matrix --scale smoke --backend vector \\
          --flow-cache .flow-cache --jobs 4 --json --output report.json
    $ python -m repro serve --cache-tier .repro-tier
    $ python -m repro submit table3-fir --scale fast --output report.json

``run`` executes one registered scenario through the pipeline engine and
prints its report as Markdown (default) or JSON (``--json``); ``--output``
additionally writes the JSON report to a file, so CI can both gate on it
and archive it.  Every knob falls back to the scenario's own default.

``serve`` starts the campaign service (an HTTP job queue over the shared
warm-cache tier, sharding campaigns across worker processes); ``submit``
posts one scenario to a running service and prints the report JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from .experiments.designs import SCALES
from .faults import BACKEND_CHOICES, FAULT_LIST_MODES, resolve_upset_model
from .pipeline import render_markdown
from .scenarios import list_scenarios, run_scenario

#: The per-run overrides ``run`` and ``submit`` share, as the keyword
#: names of :func:`run_scenario` (and fields of the service's job spec).
_OVERRIDES = ("scale", "backend", "upset_model", "num_faults", "seed",
              "designs")


def _upset_model_spec(value: str) -> str:
    """Validate an upset-model spec at parse time (fail before any P&R)."""
    try:
        resolve_upset_model(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _add_override_arguments(parser: argparse.ArgumentParser) -> None:
    """The :data:`_OVERRIDES` flags; each defaults to the scenario's own."""
    parser.add_argument("--scale", choices=tuple(SCALES),
                        help="experiment scale (default: the scenario's)")
    parser.add_argument("--backend", choices=BACKEND_CHOICES,
                        help="campaign execution backend (default: the "
                             "scenario's)")
    parser.add_argument("--upset-model", metavar="MODEL",
                        type=_upset_model_spec,
                        help="upset model: 'single', 'mbu[:cluster]' or "
                             "'accumulate[:interval]' (default: the "
                             "scenario's)")
    parser.add_argument("--faults", type=int, dest="num_faults",
                        metavar="FAULTS",
                        help="upsets to inject per design (default: scale "
                             "dependent)")
    parser.add_argument("--seed", type=int,
                        help="fault-sampling seed (default: the scenario's)")
    parser.add_argument("--design", action="append", dest="designs",
                        metavar="NAME",
                        help="restrict to one design version (repeatable)")


def _json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    runner = commands.add_parser(
        "run", help="run a registered scenario through the pipeline",
        description="Run one scenario; every omitted knob uses the "
                    "scenario's default.")
    runner.add_argument("scenario", help="scenario id (see 'repro list')")
    _add_override_arguments(runner)
    runner.add_argument("--fault-list", choices=FAULT_LIST_MODES,
                        dest="fault_list_mode",
                        help="fault-list selection mode (default: the "
                             "scenario's)")
    runner.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the scenario N times in-process and "
                             "report the last (warm-cache) run "
                             "(default: 1)")
    runner.add_argument(
        "--flow-cache", metavar="DIR",
        default=os.environ.get("REPRO_FLOW_CACHE"),
        help="persistent flow-artifact directory; place-and-route results "
             "are stored there and reused by later runs (default: the "
             "REPRO_FLOW_CACHE environment variable, else disabled)")
    runner.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="implement the suite designs in N parallel worker processes "
             "(default: 1)")
    runner.add_argument("--progress", action="store_true",
                        help="print per-design campaign progress to stderr")
    _json_argument(runner)
    runner.add_argument("--output", metavar="FILE", default=None,
                        help="also write the JSON report to FILE")

    lister = commands.add_parser(
        "list", help="list the registered scenarios")
    _json_argument(lister)

    server = commands.add_parser(
        "serve", help="start the campaign service (HTTP job runner)",
        description="Run the campaign-as-a-service orchestrator: an HTTP "
                    "job queue sharding campaigns across worker processes "
                    "over a shared warm-cache tier.")
    server.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    server.add_argument("--port", type=int, default=8750,
                        help="bind port; 0 picks a free one (default: 8750)")
    server.add_argument("--cache-tier", metavar="DIR",
                        default=".repro-tier",
                        help="shared warm-cache tier directory "
                             "(default: .repro-tier)")
    server.add_argument("--tier-max-bytes", type=int, default=None,
                        metavar="N",
                        help="cache-tier eviction budget in bytes "
                             "(default: 512 MiB)")
    server.add_argument("--max-parallel", type=int, default=2, metavar="N",
                        help="concurrently executing jobs (default: 2)")
    server.add_argument("--backend", default="sharded",
                        choices=BACKEND_CHOICES,
                        help="default campaign backend for submissions "
                             "that do not pin one (default: sharded)")
    server.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")

    submitter = commands.add_parser(
        "submit", help="submit a job to a running campaign service",
        description="Submit one scenario to 'repro serve' and (by "
                    "default) wait for the report.")
    submitter.add_argument("scenario", help="scenario id (see 'repro list')")
    submitter.add_argument("--url", default="http://127.0.0.1:8750",
                           help="service base URL "
                                "(default: http://127.0.0.1:8750)")
    _add_override_arguments(submitter)
    submitter.add_argument("--no-wait", action="store_true",
                           help="return the job id immediately instead of "
                                "waiting for the report")
    submitter.add_argument("--timeout", type=float, default=3600.0,
                           metavar="SECONDS",
                           help="how long to wait for the report "
                                "(default: 3600)")
    submitter.add_argument("--timeout-s", type=float, default=None,
                           metavar="SECONDS", dest="timeout_s",
                           help="server-side deadline for the job itself "
                                "(queue wait included); the service "
                                "cancels the job when it expires "
                                "(default: unbounded)")
    submitter.add_argument("--output", metavar="FILE", default=None,
                           help="also write the JSON report to FILE")
    return parser


def _write_report(report: Dict[str, object], output: Optional[str]) -> str:
    """The report as JSON text, also written to *output* when given."""
    payload = json.dumps(report, indent=2, default=str, sort_keys=True)
    if output:
        with open(output, "w") as handle:
            handle.write(payload + "\n")
        print(f"report written to {output}", file=sys.stderr)
    return payload


def _overrides(arguments: argparse.Namespace) -> Dict[str, object]:
    """The :data:`_OVERRIDES` given on the command line."""
    return {field: getattr(arguments, field) for field in _OVERRIDES
            if getattr(arguments, field) is not None}


def _run(arguments: argparse.Namespace) -> int:
    report = run_scenario(
        arguments.scenario,
        **_overrides(arguments),
        fault_list_mode=arguments.fault_list_mode,
        jobs=arguments.jobs,
        flow_cache=arguments.flow_cache,
        progress=arguments.progress,
        repeat=arguments.repeat,
    )
    payload = _write_report(report, arguments.output)
    print(payload if arguments.json else render_markdown(report))
    return 0


def _list(arguments: argparse.Namespace) -> int:
    scenarios = list_scenarios()
    if arguments.json:
        print(json.dumps([
            {
                "id": scenario.id,
                "title": scenario.title,
                "description": scenario.description,
                "scale": scenario.scale,
                "designs": list(scenario.designs),
                "backend": scenario.backend,
                "upset_model": scenario.upset_model,
                "stages": list(scenario.stages),
                "axes": [{"field": field, "values": list(values)}
                         for field, values in scenario.axes],
            }
            for scenario in scenarios], indent=2))
        return 0
    width = max(len(scenario.id) for scenario in scenarios)
    for scenario in scenarios:
        axes = "".join(
            f" [{field}: {', '.join(map(str, values))}]"
            for field, values in scenario.axes)
        print(f"{scenario.id.ljust(width)}  {scenario.title}{axes}")
    return 0


def _serve(arguments: argparse.Namespace) -> int:
    from .service import CampaignService, SharedCacheTier
    from .service.httpd import make_server

    tier = SharedCacheTier(arguments.cache_tier)
    if arguments.tier_max_bytes is not None:
        tier.max_bytes = arguments.tier_max_bytes
    service = CampaignService(tier=tier,
                              max_parallel=arguments.max_parallel,
                              default_backend=arguments.backend)
    service.start()
    server = make_server(service, host=arguments.host, port=arguments.port,
                         verbose=arguments.verbose)
    host, port = server.server_address[:2]
    print(f"campaign service listening on http://{host}:{port} "
          f"(tier: {tier.root}, backend: {arguments.backend})",
          file=sys.stderr, flush=True)

    # Graceful shutdown on SIGTERM/SIGINT: mark the HTTP surface as
    # draining (503 + Retry-After for new submissions), let in-flight
    # jobs settle, journal the clean-shutdown marker, then stop the
    # server.  The drain runs on its own thread because server.shutdown()
    # must not be called from the serve_forever() thread, and a signal
    # handler must return quickly.
    import signal
    import threading

    stop_once = threading.Event()

    def drain_and_stop() -> None:
        server.draining = True  # type: ignore[attr-defined]
        service.stop()
        server.shutdown()

    def handle_signal(signum: int, _frame: object) -> None:
        if stop_once.is_set():
            return
        stop_once.set()
        print(f"received signal {signum}; draining", file=sys.stderr,
              flush=True)
        threading.Thread(target=drain_and_stop, daemon=True,
                         name="repro-drain").start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, handle_signal)
        except ValueError:
            pass  # non-main thread (embedded use) — skip the handlers

    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        service.stop()
    return 0


def _submit(arguments: argparse.Namespace) -> int:
    from .service.httpd import fetch_report, submit_job, wait_for_job

    spec = {"scenario": arguments.scenario, **_overrides(arguments)}
    if arguments.timeout_s is not None:
        spec["timeout_s"] = arguments.timeout_s

    snapshot = submit_job(arguments.url, spec)
    state = "joined in-flight job" if snapshot.get("coalesced") \
        else "submitted"
    print(f"{state} {snapshot['id']} ({snapshot['state']})",
          file=sys.stderr, flush=True)
    if arguments.no_wait:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    final = wait_for_job(arguments.url, snapshot["id"],
                         timeout=arguments.timeout)
    if final["state"] != "done":
        print(f"job {final['id']} failed: {final.get('error')}",
              file=sys.stderr)
        return 1
    report = fetch_report(arguments.url, snapshot["id"])
    print(_write_report(report, arguments.output))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = _build_parser().parse_args(argv)
    if arguments.command == "run":
        return _run(arguments)
    if arguments.command == "serve":
        return _serve(arguments)
    if arguments.command == "submit":
        return _submit(arguments)
    return _list(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
