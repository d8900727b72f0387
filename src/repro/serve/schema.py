"""Request/response JSON Schemas for the ``repro serve`` endpoints.

Every endpoint's body is validated against a JSON Schema before any
solver code runs, and every response the service emits round-trips the
same schemas (asserted in ``tests/serve``).  Validation prefers the
``jsonschema`` package when the environment ships it and otherwise runs
a built-in validator implementing exactly the schema subset used here
(``type`` / ``properties`` / ``required`` / ``additionalProperties`` /
``enum`` / numeric bounds / ``items`` / ``minItems``), so the service
has no hard dependency beyond the scientific stack.

The schemas are data, not code: clients can fetch design intent from
this module (or DESIGN.md §15) without importing any solver machinery.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.exceptions import ServeError

try:  # pragma: no cover - exercised via whichever branch the env has
    import jsonschema as _jsonschema
except ImportError:  # pragma: no cover - fallback environment
    _jsonschema = None

__all__ = [
    "ERROR_RESPONSE_SCHEMA",
    "HEALTH_RESPONSE_SCHEMA",
    "MAX_HORIZON",
    "MAX_SWEEP_CELLS",
    "POLICY_FAMILIES",
    "SIMULATE_REQUEST_SCHEMA",
    "SIMULATE_RESPONSE_SCHEMA",
    "SOLVE_REQUEST_SCHEMA",
    "SOLVE_RESPONSE_SCHEMA",
    "SWEEP_REQUEST_SCHEMA",
    "SWEEP_RESPONSE_SCHEMA",
    "validate",
    "validator_backend",
]

#: Policy families a ``/solve`` request may name.  ``greedy`` is the
#: full-information Theorem 1 optimum; ``clustering`` the paper's
#: partial-information Eq. 11 search; the rest are the benchmark
#: baselines (Sec. VI-A / DESIGN.md §9).
POLICY_FAMILIES = (
    "age_threshold",
    "aggressive",
    "clustering",
    "ebcw",
    "greedy",
    "periodic",
)

#: Longest run a ``/simulate`` or ``/sweep`` request may ask for.  The
#: AoI statistics are exact int64 sums; the squared-age term of one gap
#: of g slots is formed as ((g-1)g/2)(2g-1), about g**3, which overflows
#: past about 2.09e6 slots.  2e6 stays below that and covers the
#: paper's 1e6-slot runs.
MAX_HORIZON = 2_000_000

#: Largest ``n_runs * horizon`` one ``/sweep`` may ask for, checked
#: before any array is allocated.  The batch packer holds the drawn
#: events, recharge and coins, their packed copies and the cumulative
#: recharge at once: 42 to 51 bytes per simulated slot measured on
#: 8 x 1e6-slot batches.  At a conservative 64 bytes per slot, 16e6
#: cells bound one sweep near 1 GiB.
MAX_SWEEP_CELLS = 16_000_000

_NON_NEGATIVE_NUMBER = {"type": "number", "minimum": 0}
_POSITIVE_NUMBER = {"type": "number", "exclusiveMinimum": 0}

#: Fields shared by every policy-producing request.
_SOLVE_FIELDS: Dict[str, Any] = {
    "events": {"type": "string"},
    "family": {"type": "string", "enum": list(POLICY_FAMILIES)},
    "rate": _POSITIVE_NUMBER,
    "delta1": _NON_NEGATIVE_NUMBER,
    "delta2": _NON_NEGATIVE_NUMBER,
    "params": {"type": "object"},
}

SOLVE_REQUEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": dict(_SOLVE_FIELDS),
    "required": ["events", "family", "delta1", "delta2"],
    "additionalProperties": False,
}

#: The JSON form of a served policy: enough constructor data to rebuild
#: the exact :class:`~repro.core.policy.ActivationPolicy` (JSON numbers
#: round-trip Python doubles exactly, so reconstruction is bit-identical).
_POLICY_PAYLOAD = {
    "type": "object",
    "properties": {
        "family": {"type": "string", "enum": list(POLICY_FAMILIES)},
    },
    "required": ["family"],
}

_EVENTS_DESCRIPTOR = {
    "type": "object",
    "properties": {
        "spec": {"type": "string"},
        "family": {"type": "string"},
        "fingerprint": {"type": "string"},
    },
    "required": ["spec", "family", "fingerprint"],
    "additionalProperties": False,
}

_CACHE_DESCRIPTOR = {
    "type": "object",
    "properties": {
        "tier": {
            "type": "string",
            "enum": ["memory", "disk", "shared", "computed", "coalesced"],
        },
        "hit": {"type": "boolean"},
    },
    "required": ["tier", "hit"],
    "additionalProperties": False,
}

SOLVE_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "address": {"type": "string"},
        "events": _EVENTS_DESCRIPTOR,
        "family": {"type": "string", "enum": list(POLICY_FAMILIES)},
        "rate": {"type": ["number", "null"]},
        "delta1": {"type": "number"},
        "delta2": {"type": "number"},
        "policy": _POLICY_PAYLOAD,
        "qom": {"type": ["number", "null"]},
        "energy_rate": {"type": ["number", "null"]},
        "cache": _CACHE_DESCRIPTOR,
        "elapsed_ms": _NON_NEGATIVE_NUMBER,
    },
    "required": [
        "address", "events", "family", "policy", "qom", "cache",
    ],
    "additionalProperties": False,
}

_RECHARGE_SPEC = {
    "type": "object",
    "properties": {
        "kind": {"type": "string", "enum": ["bernoulli", "constant"]},
        "q": {"type": "number", "minimum": 0, "maximum": 1},
        "c": _NON_NEGATIVE_NUMBER,
        "rate": _NON_NEGATIVE_NUMBER,
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SIMULATE_FIELDS: Dict[str, Any] = dict(_SOLVE_FIELDS)
_SIMULATE_FIELDS.update(
    {
        "capacity": _POSITIVE_NUMBER,
        "horizon": {"type": "integer", "minimum": 0, "maximum": MAX_HORIZON},
        "seed": {"type": "integer", "minimum": 0},
        "recharge": _RECHARGE_SPEC,
        "initial_energy": _NON_NEGATIVE_NUMBER,
    }
)

SIMULATE_REQUEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": dict(_SIMULATE_FIELDS),
    "required": [
        "events", "family", "delta1", "delta2", "capacity", "horizon",
    ],
    "additionalProperties": False,
}

_AOI_DESCRIPTOR = {
    "type": "object",
    "properties": {
        "time_average": {"type": "number"},
        "max_age": {"type": "integer"},
        "n_resets": {"type": "integer"},
        "variance": {"type": "number"},
    },
    "required": ["time_average", "max_age", "n_resets", "variance"],
    "additionalProperties": False,
}

SIMULATE_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "qom": {"type": "number"},
        "n_events": {"type": "integer", "minimum": 0},
        "n_captures": {"type": "integer", "minimum": 0},
        "horizon": {"type": "integer", "minimum": 0},
        "activations": {"type": "integer", "minimum": 0},
        "final_battery": {"type": "number"},
        "aoi": _AOI_DESCRIPTOR,
        "policy": _POLICY_PAYLOAD,
        "cache": _CACHE_DESCRIPTOR,
        "batch_size": {"type": "integer", "minimum": 1},
        "elapsed_ms": _NON_NEGATIVE_NUMBER,
    },
    "required": [
        "qom", "n_events", "n_captures", "horizon", "aoi", "policy",
        "cache", "batch_size",
    ],
    "additionalProperties": False,
}

_SWEEP_FIELDS: Dict[str, Any] = dict(_SIMULATE_FIELDS)
_SWEEP_FIELDS.update(
    {
        "n_runs": {"type": "integer", "minimum": 1, "maximum": 100000},
        "base_seed": {"type": "integer", "minimum": 0},
    }
)
_SWEEP_FIELDS.pop("seed")

SWEEP_REQUEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": dict(_SWEEP_FIELDS),
    "required": [
        "events", "family", "delta1", "delta2", "capacity", "horizon",
        "n_runs",
    ],
    "additionalProperties": False,
}

_SUMMARY_DESCRIPTOR = {
    "type": "object",
    "properties": {
        "mean": {"type": "number"},
        "std_error": {"type": "number"},
        "ci_low": {"type": "number"},
        "ci_high": {"type": "number"},
    },
    "required": ["mean", "std_error", "ci_low", "ci_high"],
    "additionalProperties": False,
}

SWEEP_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "n_runs": {"type": "integer", "minimum": 1},
        "qom": _SUMMARY_DESCRIPTOR,
        "aoi_time_average": _SUMMARY_DESCRIPTOR,
        "qom_values": {"type": "array", "items": {"type": "number"}},
        "policy": _POLICY_PAYLOAD,
        "cache": _CACHE_DESCRIPTOR,
        "elapsed_ms": _NON_NEGATIVE_NUMBER,
    },
    "required": ["n_runs", "qom", "aoi_time_average", "policy", "cache"],
    "additionalProperties": False,
}

HEALTH_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "status": {"type": "string", "enum": ["ok"]},
        "uptime_seconds": _NON_NEGATIVE_NUMBER,
        "stats": {"type": "object"},
    },
    "required": ["status", "uptime_seconds", "stats"],
    "additionalProperties": False,
}

ERROR_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "error": {"type": "string"},
        "kind": {"type": "string"},
    },
    "required": ["error", "kind"],
    "additionalProperties": False,
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass; JSON Schema counts booleans as neither
    # numbers nor integers, so exclude it explicitly.
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "integer": lambda v: (
        isinstance(v, int) and not isinstance(v, bool)
    )
    or (isinstance(v, float) and float(v).is_integer()),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _check_type(value: Any, expected: Any, path: str) -> None:
    names = expected if isinstance(expected, list) else [expected]
    if not any(_TYPE_CHECKS[name](value) for name in names):
        raise ServeError(
            f"{path}: expected {' or '.join(names)}, "
            f"got {type(value).__name__}"
        )


def _validate_builtin(value: Any, schema: Dict[str, Any], path: str) -> None:
    if "type" in schema:
        _check_type(value, schema["type"], path)
    if "enum" in schema and value not in schema["enum"]:
        raise ServeError(
            f"{path}: {value!r} not one of {sorted(map(str, schema['enum']))}"
        )
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        if "minimum" in schema and value < schema["minimum"]:
            raise ServeError(
                f"{path}: {value!r} below minimum {schema['minimum']}"
            )
        if "maximum" in schema and value > schema["maximum"]:
            raise ServeError(
                f"{path}: {value!r} above maximum {schema['maximum']}"
            )
        if (
            "exclusiveMinimum" in schema
            and value <= schema["exclusiveMinimum"]
        ):
            raise ServeError(
                f"{path}: {value!r} must exceed "
                f"{schema['exclusiveMinimum']}"
            )
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                raise ServeError(f"{path}: missing required key {name!r}")
        if schema.get("additionalProperties") is False:
            unknown = sorted(set(value) - set(properties))
            if unknown:
                raise ServeError(f"{path}: unknown key(s) {unknown}")
        for name, sub in properties.items():
            if name in value:
                _validate_builtin(value[name], sub, f"{path}.{name}")
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            raise ServeError(
                f"{path}: needs at least {schema['minItems']} item(s)"
            )
        items = schema.get("items")
        if items:
            for i, element in enumerate(value):
                _validate_builtin(element, items, f"{path}[{i}]")


def validate(
    instance: Any, schema: Dict[str, Any], label: str = "request"
) -> None:
    """Validate ``instance`` against ``schema``.

    Raises :class:`~repro.exceptions.ServeError` with a JSON-pointer
    style path on the first violation.  Uses the ``jsonschema`` package
    when importable and the built-in subset validator otherwise; both
    accept/reject the same instances for the schemas in this module
    (cross-checked in ``tests/serve/test_schema.py``).
    """
    if _jsonschema is not None:
        try:
            _jsonschema.validate(instance=instance, schema=schema)
        except _jsonschema.ValidationError as exc:
            pointer: List[str] = [str(part) for part in exc.absolute_path]
            where = ".".join([label] + pointer) if pointer else label
            raise ServeError(f"{where}: {exc.message}") from exc
        return
    _validate_builtin(instance, schema, label)


def validator_backend() -> str:
    """Which validator :func:`validate` dispatches to (for /healthz)."""
    return "jsonschema" if _jsonschema is not None else "builtin"
