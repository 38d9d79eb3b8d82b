"""Wire protocol of the ``repro.serve`` daemon.

One JSON request shape in, one JSON response shape out.  A simulate
request names a workload profile, a mechanism (the timing model), the
trace dimensions, and optional :class:`~repro.common.config.GpuConfig`
overrides::

    POST /v1/simulate
    {"benchmark": "gaussian", "mechanism": "lmi",
     "warps": 8, "instructions_per_warp": 600, "seed_salt": 0,
     "tenant": "team-a",
     "config": {"num_sms": 40, "l1": {"ways": 8}}}

Validation is strict and total: every field is type- and range-checked
here, on the event loop, before the request costs anything — the
worker threads only ever see well-formed :class:`SimRequest` objects.
Malformed input raises :class:`RequestError` (HTTP 400), never a
stack trace.

The parsed request maps 1:1 onto the experiment engine's
:class:`~repro.experiments.engine.SimJob` plus a ``GpuConfig``, so the
daemon's cell digests (:func:`~repro.experiments.fabric.cell_digest`)
are *the same digests* a CLI/fabric run computes for the same inputs —
the cache-sharing contract between the serving plane and the fabric.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, Optional

from ..common.config import DEFAULT_GPU_CONFIG, GpuConfig
from ..common.errors import ConfigurationError
from ..experiments.engine import JobResult, SimJob, model_factory
from ..telemetry.server import MAX_BODY_BYTES
from ..workloads.profiles import profile

#: Schema tag stamped into every simulate response.
SERVE_SCHEMA = "repro.serve/v1"

#: Range caps on the trace dimensions: large enough for every paper
#: grid, small enough that one request cannot pin a worker thread for
#: minutes.
MAX_WARPS = 1024
MAX_INSTRUCTIONS_PER_WARP = 1_000_000

#: Tenant id used when the request names none.
DEFAULT_TENANT = "anonymous"

#: Response header carrying the request's trace id.  Header only,
#: never the JSON body: the body is part of the byte-identical
#: engine-equivalence contract, while headers are transport.  Curl it
#: with ``-D-`` and feed the value to ``/trace/<id>`` or
#: ``repro trace show``.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Config override keys forwarded to ``dataclasses.replace`` on the
#: default GpuConfig; ``l1``/``l2`` take nested CacheConfig overrides.
_CONFIG_FIELDS = frozenset(
    field.name for field in dataclasses.fields(GpuConfig)
)
_CACHE_FIELDS = frozenset(
    field.name
    for field in dataclasses.fields(type(DEFAULT_GPU_CONFIG.l1))
)


class RequestError(ValueError):
    """Client error: the request cannot be served as written (400)."""


@dataclasses.dataclass(frozen=True)
class SimRequest:
    """One validated simulate request."""

    job: SimJob
    config: GpuConfig
    tenant: str


def _require_int(
    body: Dict[str, object],
    name: str,
    default: Optional[int],
    lo: int,
    hi: int,
) -> int:
    value = body.get(name, default)
    if value is None:
        raise RequestError(f"missing required field {name!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise RequestError(
            f"{name} must be in [{lo}, {hi}], got {value}"
        )
    return value


def _check_override(where: str, value: object, default: object) -> None:
    """Reject an override whose JSON type cannot be its field's.

    Integer fields take JSON integers only: no booleans, strings,
    fractions or nulls.  The one float field, ``clock_ghz``, takes any
    finite positive number.  Integer ranges are checked by the config
    dataclasses themselves.
    """
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise RequestError(f"{where} must be an integer, got {value!r}")
    elif (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 < value < math.inf
    ):
        raise RequestError(
            f"{where} must be a positive number, got {value!r}"
        )


def build_config(overrides: Optional[Dict[str, object]]) -> GpuConfig:
    """The effective GpuConfig: defaults + request overrides.

    Nested ``l1``/``l2`` dicts rebuild the corresponding
    :class:`~repro.common.config.CacheConfig` with
    ``dataclasses.replace``; every other key must name a ``GpuConfig``
    field.  Each value must have its field's type
    (:func:`_check_override`).  Semantic violations
    (``ConfigurationError`` from the frozen dataclasses' validators,
    such as a count below 1) surface as :class:`RequestError` — the
    client asked for an impossible machine, not us.  Every error names
    the field.
    """
    if overrides is None:
        return DEFAULT_GPU_CONFIG
    if not isinstance(overrides, dict):
        raise RequestError("config must be an object")
    if not overrides:
        return DEFAULT_GPU_CONFIG
    kwargs: Dict[str, object] = {}
    for key, value in overrides.items():
        if key not in _CONFIG_FIELDS:
            raise RequestError(f"unknown config field {key!r}")
        if key in ("l1", "l2"):
            if not isinstance(value, dict):
                raise RequestError(f"config.{key} must be an object")
            unknown = set(value) - _CACHE_FIELDS
            if unknown:
                raise RequestError(
                    f"unknown config.{key} field(s): {sorted(unknown)}"
                )
            base = getattr(DEFAULT_GPU_CONFIG, key)
            for name, field_value in value.items():
                _check_override(
                    f"config.{key}.{name}", field_value, getattr(base, name)
                )
            try:
                kwargs[key] = dataclasses.replace(base, **value)
            except ConfigurationError as exc:
                raise RequestError(f"invalid config.{key}: {exc}") from None
        else:
            _check_override(
                f"config.{key}", value, getattr(DEFAULT_GPU_CONFIG, key)
            )
            kwargs[key] = value
    try:
        return dataclasses.replace(DEFAULT_GPU_CONFIG, **kwargs)
    except ConfigurationError as exc:
        raise RequestError(f"invalid config: {exc}") from None


def parse_simulate(
    raw: bytes, header_tenant: Optional[str] = None
) -> SimRequest:
    """Parse + validate one simulate body into a :class:`SimRequest`.

    *header_tenant* is the ``X-Tenant`` header value; an explicit
    ``tenant`` body field wins over it.
    """
    if len(raw) > MAX_BODY_BYTES:
        raise RequestError("request body too large")
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise RequestError("request body must be valid JSON") from None
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")

    benchmark = body.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise RequestError("missing required field 'benchmark'")
    try:
        profile(benchmark)
    except KeyError as exc:
        raise RequestError(str(exc.args[0])) from None

    mechanism = body.get("mechanism")
    if not isinstance(mechanism, str) or not mechanism:
        raise RequestError("missing required field 'mechanism'")
    try:
        model_factory(mechanism)
    except KeyError as exc:
        raise RequestError(str(exc.args[0])) from None

    warps = _require_int(body, "warps", 8, 1, MAX_WARPS)
    instructions = _require_int(
        body, "instructions_per_warp", 2000, 1, MAX_INSTRUCTIONS_PER_WARP
    )
    seed_salt = _require_int(body, "seed_salt", 0, 0, 1 << 31)

    tenant = body.get("tenant", header_tenant)
    if tenant is None or tenant == "":
        tenant = DEFAULT_TENANT
    if not isinstance(tenant, str) or len(tenant) > 128:
        raise RequestError("tenant must be a string of at most 128 chars")

    config = build_config(body.get("config"))
    job = SimJob(
        benchmark=benchmark,
        mechanism=mechanism,
        warps=warps,
        instructions_per_warp=instructions,
        seed_salt=seed_salt,
    )
    return SimRequest(job=job, config=config, tenant=tenant)


def result_document(
    digest: str,
    result: JobResult,
    source: str,
    elapsed_seconds: float,
) -> Dict[str, object]:
    """The simulate response body for one completed request.

    ``cycles`` and ``stats`` are exactly the engine's answer for the
    same :class:`~repro.experiments.engine.SimJob` — the equivalence
    test compares these fields against a direct ``run_sim_jobs`` call
    byte for byte.  ``source`` says how the answer was produced:
    ``executed`` (simulated in this request's batch), ``coalesced``
    (shared an identical in-flight computation), ``memory``/``disk``
    (result cache layers).
    """
    job = result.job
    return {
        "schema": SERVE_SCHEMA,
        "digest": digest,
        "benchmark": job.benchmark,
        "mechanism": job.mechanism,
        "warps": job.warps,
        "instructions_per_warp": job.instructions_per_warp,
        "seed_salt": job.seed_salt,
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "source": source,
        "elapsed_ms": round(elapsed_seconds * 1000.0, 3),
    }


__all__ = [
    "SERVE_SCHEMA",
    "MAX_BODY_BYTES",
    "MAX_WARPS",
    "MAX_INSTRUCTIONS_PER_WARP",
    "DEFAULT_TENANT",
    "TRACE_HEADER",
    "RequestError",
    "SimRequest",
    "build_config",
    "parse_simulate",
    "result_document",
]
