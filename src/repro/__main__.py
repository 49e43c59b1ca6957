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
import sys
from typing import Optional, Sequence

from .experiments.cli import (add_backend_argument, add_faults_argument,
                              add_flow_arguments, add_json_argument,
                              add_prefilter_argument, add_scale_argument,
                              add_upset_model_argument)
from .pipeline import render_markdown
from .scenarios import list_scenarios, run_scenario


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
    add_scale_argument(runner, default=None)
    add_backend_argument(runner, default=None)
    add_upset_model_argument(runner, default=None)
    add_prefilter_argument(runner, default=None)
    add_faults_argument(runner)
    runner.add_argument("--seed", type=int, default=None,
                        help="fault-sampling seed (default: the "
                             "scenario's)")
    runner.add_argument("--design", action="append", dest="designs",
                        metavar="NAME", default=None,
                        help="restrict to one design version (repeatable)")
    runner.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the scenario N times in-process and "
                             "report the last (warm-cache) run "
                             "(default: 1)")
    add_flow_arguments(runner)
    runner.add_argument("--progress", action="store_true",
                        help="print per-design campaign progress to stderr")
    add_json_argument(runner)
    runner.add_argument("--output", metavar="FILE", default=None,
                        help="also write the JSON report to FILE")

    lister = commands.add_parser(
        "list", help="list the registered scenarios")
    add_json_argument(lister)

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
    add_scale_argument(submitter, default=None)
    add_backend_argument(submitter, default=None)
    add_upset_model_argument(submitter, default=None)
    add_prefilter_argument(submitter, default=None)
    add_faults_argument(submitter)
    submitter.add_argument("--seed", type=int, default=None,
                           help="fault-sampling seed (default: the "
                                "scenario's)")
    submitter.add_argument("--design", action="append", dest="designs",
                           metavar="NAME", default=None,
                           help="restrict to one design version "
                                "(repeatable)")
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


def _run(arguments: argparse.Namespace) -> int:
    report = run_scenario(
        arguments.scenario,
        scale=arguments.scale,
        backend=arguments.backend,
        upset_model=arguments.upset_model,
        num_faults=arguments.faults,
        prefilter=arguments.prefilter,
        seed=arguments.seed,
        designs=arguments.designs,
        jobs=arguments.jobs,
        flow_cache=arguments.flow_cache,
        progress=arguments.progress,
        repeat=arguments.repeat,
    )
    payload = json.dumps(report, indent=2, default=str, sort_keys=True)
    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(payload + "\n")
        print(f"report written to {arguments.output}", file=sys.stderr)
    if arguments.json:
        print(payload)
    else:
        print(render_markdown(report))
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

    spec = {"scenario": arguments.scenario}
    for field in ("scale", "backend", "upset_model", "prefilter",
                  "seed", "designs"):
        value = getattr(arguments, field)
        if value is not None:
            spec[field] = value
    if arguments.faults is not None:
        spec["num_faults"] = arguments.faults
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
    payload = json.dumps(report, indent=2, default=str, sort_keys=True)
    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(payload + "\n")
        print(f"report written to {arguments.output}", file=sys.stderr)
    print(payload)
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
