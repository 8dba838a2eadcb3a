"""Request parsing, the batch request-file runner, and the TCP server.

``sherlock serve`` speaks one request shape in two transports:

* **batch** — ``--requests FILE`` where the file is either a JSON list of
  request objects or line-delimited JSON (one object per line; blank
  lines and ``#`` comments ignored), answered as line-delimited JSON
  results on stdout;
* **socket** — ``--port N`` starts a threading TCP server; each
  connection sends line-delimited JSON requests and receives one JSON
  result line per request.  The literal request ``{"cmd": "stats"}``
  answers with the service's stats snapshot instead.

A request object names its kernel one of three ways::

    {"id": "r1", "kernel": "int f(int a, int b){return a & b;}",
     "inputs": {"a": 5, "b": 3}, "lanes": 16, "array_id": 0}
    {"id": "r2", "workload": "bitweaving", "seed": 7}
    {"id": "r3", "synthetic": 24, "seed": 3}

``inputs`` may be omitted — missing input operands are filled with
reproducible lane bitmasks drawn from ``seed``.  ``deadline_s`` bounds
the request inside the service loop.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import socketserver

from repro.errors import ServeError, ServiceOverloadError, SherlockError
from repro.serve.service import CompileService, ServeRequest, ServeResult

__all__ = [
    "handle_request_file",
    "parse_request",
    "parse_request_lines",
    "result_to_dict",
    "serve_tcp",
]


def _request_dag(obj: dict):
    """Build the request's DAG from ``kernel``/``workload``/``synthetic``."""
    sources = [key for key in ("kernel", "workload", "synthetic")
               if obj.get(key) is not None]
    if len(sources) != 1:
        raise ServeError(
            "request must name exactly one of 'kernel', 'workload', "
            f"'synthetic'; got {sources or 'none'}")
    if "kernel" in sources:
        from repro.frontend import c_to_dfg

        return c_to_dfg(obj["kernel"], obj.get("function"))
    if "workload" in sources:
        from repro.workloads import get_workload

        return get_workload(obj["workload"]).build_dag()
    from repro.workloads.synthetic import synthetic_dag

    ops = obj["synthetic"]
    if not isinstance(ops, int) or ops < 1:
        raise ServeError(f"'synthetic' must be a positive op count, "
                         f"got {ops!r}")
    return synthetic_dag(num_ops=ops, num_inputs=8,
                         seed=int(obj.get("seed", 0)),
                         name=f"synthetic{ops}")


def _checked_inputs(obj_inputs, dag, lanes: int,
                    rng: random.Random) -> dict[str, int]:
    """One validated input mapping, missing operands filled from ``rng``."""
    inputs = dict(obj_inputs or {})
    for name, value in inputs.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ServeError(
                f"input {name!r} must be an integer lane bitmask, "
                f"got {value!r}")
    for operand in dag.inputs():
        if operand.name not in inputs:
            inputs[operand.name] = rng.getrandbits(lanes)
    return inputs


def parse_request(obj: dict, default_lanes: int = 16) -> ServeRequest:
    """Turn one JSON request object into a :class:`ServeRequest`.

    ``"input_sets": [{...}, ...]`` makes a batch request (one compile, the
    sets run side by side as one verified lane-packed execution on the
    array's ground truth; see :attr:`ServeRequest.input_sets`);
    ``"redundancy": K`` requests voted redundant execution on ``K``
    arrays.
    """
    if not isinstance(obj, dict):
        raise ServeError(f"request must be a JSON object, got {type(obj).__name__}")
    dag = _request_dag(obj)
    lanes = int(obj.get("lanes", default_lanes))
    if lanes < 1:
        raise ServeError(f"lanes must be >= 1, got {lanes}")
    rng = random.Random(int(obj.get("seed", 0)))
    inputs = _checked_inputs(obj.get("inputs"), dag, lanes, rng)
    input_sets = None
    if obj.get("input_sets") is not None:
        raw_sets = obj["input_sets"]
        if not isinstance(raw_sets, list) or not raw_sets:
            raise ServeError(
                f"'input_sets' must be a non-empty list, got {raw_sets!r}")
        input_sets = [_checked_inputs(entry, dag, lanes, rng)
                      for entry in raw_sets]
    deadline = obj.get("deadline_s")
    redundancy = int(obj.get("redundancy", 1))
    if redundancy < 1:
        raise ServeError(f"redundancy must be >= 1, got {redundancy}")
    return ServeRequest(
        dag=dag, inputs=inputs, lanes=lanes,
        request_id=str(obj.get("id", "")),
        array_id=int(obj.get("array_id", 0)),
        deadline_s=float(deadline) if deadline is not None else None,
        input_sets=input_sets,
        redundancy=redundancy)


def parse_request_lines(text: str, default_lanes: int = 16,
                        ) -> list[ServeRequest]:
    """Parse a request file: a JSON list, or line-delimited JSON objects."""
    stripped = text.lstrip()
    try:
        if stripped.startswith("["):
            objects = json.loads(text)
        else:
            objects = [json.loads(line)
                       for line in text.splitlines()
                       if line.strip() and not line.lstrip().startswith("#")]
    except json.JSONDecodeError as error:
        raise ServeError(f"request file is not valid JSON: {error}") from None
    return [parse_request(obj, default_lanes) for obj in objects]


def result_to_dict(result: ServeResult) -> dict:
    """A :class:`ServeResult` as a JSON-compatible dictionary."""
    return dataclasses.asdict(result)


def handle_request_file(service: CompileService,
                        path: str | pathlib.Path,
                        default_lanes: int = 16) -> list[ServeResult]:
    """Batch mode: serve every request in ``path`` through the service."""
    requests = parse_request_lines(pathlib.Path(path).read_text(),
                                   default_lanes)
    return service.process(requests)


#: default per-line request size bound of the TCP front-end — far above
#: any legitimate request, far below what could balloon handler memory
MAX_REQUEST_BYTES = 1 << 20


class _ServeHandler(socketserver.StreamRequestHandler):
    """One connection: line-delimited JSON requests in, results out.

    Hardened: a malformed JSON line, an oversized request line, or any
    unexpected processing error answers a structured ``{"error": ...}``
    line and the connection *stays usable* for the next request; only a
    dead socket ends the loop.
    """

    def handle(self) -> None:  # noqa: D102 - socketserver interface
        service: CompileService = self.server.service  # type: ignore[attr-defined]
        limit = self.server.max_request_bytes  # type: ignore[attr-defined]
        while True:
            try:
                raw = self.rfile.readline(limit + 1)
            except OSError:
                return
            if not raw:
                return
            if len(raw) > limit and not raw.endswith(b"\n"):
                dropped = self._drain_line(limit)
                if not self._answer({
                        "error": f"request line exceeds {limit} bytes "
                                 f"(dropped {dropped} bytes)",
                        "oversized": True, "limit_bytes": limit}):
                    return
                continue
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if isinstance(obj, dict) and obj.get("cmd") == "stats":
                    answer = service.stats()
                else:
                    request = parse_request(obj)
                    job = service.submit(request)
                    answer = result_to_dict(job.wait())
            except ServiceOverloadError as error:
                answer = {"error": str(error), "overloaded": True,
                          "queue_depth": error.queue_depth,
                          "queue_limit": error.queue_limit,
                          "retry_after_s": error.retry_after_s}
            except (SherlockError, json.JSONDecodeError) as error:
                answer = {"error": str(error)}
            except Exception as error:  # never crash the connection
                answer = {"error": f"{type(error).__name__}: {error}"}
            if not self._answer(answer):
                return

    def _drain_line(self, limit: int) -> int:
        """Discard the rest of an oversized line; bytes dropped so far."""
        dropped = 0
        while True:
            try:
                chunk = self.rfile.readline(limit + 1)
            except OSError:
                return dropped
            dropped += len(chunk)
            if not chunk or chunk.endswith(b"\n"):
                return dropped

    def _answer(self, answer: dict) -> bool:
        """Write one result line; ``False`` when the client went away."""
        try:
            self.wfile.write((json.dumps(answer) + "\n").encode())
            self.wfile.flush()
        except (OSError, ValueError):
            return False
        return True


class _ServeServer(socketserver.ThreadingTCPServer):
    """Threading TCP server carrying the service on the server object."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: CompileService,
                 max_request_bytes: int = MAX_REQUEST_BYTES) -> None:
        super().__init__(address, _ServeHandler)
        self.service = service
        self.max_request_bytes = max_request_bytes


def serve_tcp(service: CompileService, host: str = "127.0.0.1",
              port: int = 0,
              max_request_bytes: int = MAX_REQUEST_BYTES) -> _ServeServer:
    """Bind the TCP front-end (port 0 = ephemeral); caller runs/stops it.

    Returns the bound server; ``server.server_address`` carries the actual
    port.  Call ``serve_forever()`` to serve (blocking) and ``shutdown()``
    + ``server_close()`` to stop — the ``sherlock serve --port`` CLI does
    exactly that around a KeyboardInterrupt.  ``max_request_bytes``
    bounds one request line; longer lines are drained and answered with
    a structured error instead of buffering without limit.
    """
    if max_request_bytes < 1:
        raise ServeError(
            f"max_request_bytes must be >= 1, got {max_request_bytes}")
    return _ServeServer((host, port), service, max_request_bytes)
