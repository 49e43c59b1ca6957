"""Dependency-free HTTP surface over the campaign service.

The server is stdlib :class:`~http.server.ThreadingHTTPServer` — every
request handler thread only touches the thread-safe queue/service
objects, never the compute.  The API is deliberately small:

=========  ======================  ==========================================
Method     Path                    Meaning
=========  ======================  ==========================================
POST       ``/jobs``               submit a job spec (JSON body); 202 with
                                   the job snapshot (+ ``coalesced`` flag);
                                   400 for a spec that cannot run; 503 +
                                   ``Retry-After`` while draining
GET        ``/jobs``               all job snapshots
GET        ``/jobs/<id>``          one snapshot; ``?wait=<seconds>`` blocks
                                   until the job settles or the wait expires
                                   (clamped to ``MAX_WAIT_SECONDS``)
POST       ``/jobs/<id>/cancel``   cancel the job (pending: immediate;
                                   running: cooperative teardown)
GET        ``/jobs/<id>/report``   the ``repro.scenario-report/1`` JSON
                                   (202 while in flight, 500 when failed,
                                   409 when cancelled)
GET        ``/stats``              queue + cache-tier counters
GET        ``/healthz``            process liveness (always 200)
GET        ``/readyz``             readiness: 200 while accepting jobs,
                                   503 + ``Retry-After`` when draining
=========  ======================  ==========================================

The client helpers ``repro submit`` uses (:func:`submit_job`,
:func:`fetch_job`, :func:`fetch_report`, :func:`wait_for_job`) ride
:mod:`urllib`, so the CLI needs nothing outside the standard library
either.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .jobs import JobSpec, JobState
from .orchestrator import CampaignService, ServiceDraining

#: Longest server-side ``?wait=`` a single request may hold (seconds).
#: Bounding the long-poll keeps handler threads (and any intermediary's
#: idle-connection budget) finite; clients needing more re-issue the
#: request — see :func:`wait_for_job` for the canonical retry loop.
MAX_WAIT_SECONDS = 60.0

#: ``Retry-After`` hint (seconds) sent with draining 503s.
RETRY_AFTER_SECONDS = 5


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the API above onto the server's :class:`CampaignService`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _unavailable(self, message: str) -> None:
        """503 with ``Retry-After`` — the drain/not-ready signal."""
        body = json.dumps({"error": message}, indent=2,
                          sort_keys=True).encode()
        self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Retry-After", str(RETRY_AFTER_SECONDS))
        self.end_headers()
        self.wfile.write(body)

    def _draining(self) -> bool:
        return bool(getattr(self.server, "draining", False)
                    or self.service.draining)

    def _split_path(self) -> Tuple[str, Dict[str, str]]:
        path, _, query_string = self.path.partition("?")
        query: Dict[str, str] = {}
        for pair in query_string.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                query[key] = value
        return path.rstrip("/") or "/", query

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib handler casing)
        path, _query = self._split_path()
        if path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path.split("/")[2]
            try:
                job = self.service.cancel(job_id)
            except KeyError as exc:
                return self._error(404, str(exc).strip('"'))
            return self._send_json(202, job.snapshot())
        if path != "/jobs":
            return self._error(404, f"no such endpoint: POST {path}")
        if self._draining():
            return self._unavailable(
                "service is draining; retry after restart")
        try:
            length = int(self.headers.get("Content-Length", "0"))
            data = json.loads(self.rfile.read(length) or b"{}")
            spec = JobSpec.from_dict(data)
        except (ValueError, KeyError) as exc:
            return self._error(400, str(exc))
        try:
            job, coalesced = self.service.submit_detailed(spec)
        except ServiceDraining as exc:
            return self._unavailable(str(exc))
        except (ValueError, KeyError, TypeError) as exc:  # cannot run
            return self._error(400, str(exc).strip('"'))
        snapshot = job.snapshot()
        snapshot["coalesced"] = coalesced
        self._send_json(202, snapshot)

    def do_GET(self) -> None:  # noqa: N802
        path, query = self._split_path()
        if path == "/healthz":
            # Liveness: the process answers, nothing more.
            return self._send_json(200, {"status": "alive"})
        if path == "/readyz":
            if self._draining():
                return self._unavailable("draining")
            return self._send_json(200, {"status": "ready"})
        if path == "/stats":
            return self._send_json(200, self.service.stats())
        if path == "/jobs":
            return self._send_json(200, {
                "jobs": [job.snapshot()
                         for job in self.service.queue.jobs()]})
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            try:
                job = self.service.queue.get(parts[0])
            except KeyError as exc:
                return self._error(404, str(exc).strip('"'))
            if len(parts) == 1:
                if "wait" in query:
                    try:
                        # Clamp to [0, MAX_WAIT_SECONDS]: one request
                        # never holds a handler thread longer than the
                        # bound, however large (or negative) the ask.
                        wait = max(0.0, min(float(query["wait"]),
                                            MAX_WAIT_SECONDS))
                    except ValueError:
                        return self._error(400, "wait must be a number")
                    job.wait(wait)
                return self._send_json(200, job.snapshot())
            if len(parts) == 2 and parts[1] == "report":
                if job.state == JobState.FAILED:
                    return self._error(
                        500, f"job {job.id} failed: {job.error}")
                if job.state == JobState.CANCELLED:
                    return self._error(
                        409, f"job {job.id} was cancelled: {job.error}")
                if job.report is None:
                    return self._send_json(202, job.snapshot())
                return self._send_json(200, job.report)
        return self._error(404, f"no such endpoint: GET {path}")


def make_server(service: CampaignService, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False) -> ThreadingHTTPServer:
    """Bind (but do not run) the HTTP server; ``port=0`` picks a free one."""
    server = ThreadingHTTPServer((host, port), ServiceRequestHandler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


# ----------------------------------------------------------------------
# Client helpers (urllib — the CLI's transport)
# ----------------------------------------------------------------------
def _request(url: str, data: Optional[bytes] = None,
             timeout: float = 330.0) -> Dict[str, object]:
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read())
            message = payload.get("error", str(exc))
        except Exception:
            message = str(exc)
        raise RuntimeError(f"service error ({exc.code}): {message}") from None


def submit_job(base_url: str, spec: Dict[str, object]) -> Dict[str, object]:
    return _request(f"{base_url.rstrip('/')}/jobs",
                    data=json.dumps(spec).encode())


def fetch_job(base_url: str, job_id: str,
              wait: Optional[float] = None) -> Dict[str, object]:
    url = f"{base_url.rstrip('/')}/jobs/{job_id}"
    if wait is not None:
        url += f"?wait={wait}"
    return _request(url)


def fetch_report(base_url: str, job_id: str) -> Dict[str, object]:
    return _request(f"{base_url.rstrip('/')}/jobs/{job_id}/report")


def wait_for_job(base_url: str, job_id: str,
                 timeout: float = 3600.0) -> Dict[str, object]:
    """Block until the job settles; returns its snapshot.

    This is the canonical client retry loop matching the server's
    bounded long-poll: each GET holds at most ``MAX_WAIT_SECONDS`` on
    the server, and the client simply re-issues the request until the
    job leaves the in-flight states or its own *timeout* budget runs
    out.  A snapshot whose state is ``done``/``failed``/``cancelled``
    settles the wait.
    """
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"job {job_id} did not settle in {timeout}s")
        snapshot = fetch_job(base_url, job_id,
                             wait=min(remaining, MAX_WAIT_SECONDS))
        if snapshot["state"] not in JobState.IN_FLIGHT:
            return snapshot
