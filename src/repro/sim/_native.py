"""Optional compiled slot-scan for the batched simulation kernel.

The dense per-slot scan (recharge reflection + table lookup + coin
comparison) is a few floating-point operations per slot, which a C loop
executes two orders of magnitude faster than Python.  This module embeds
that loop as C source, compiles it once per interpreter/cache lifetime
with the system ``gcc`` and loads it through :mod:`ctypes` — no build
step, no new dependency.

Bit-identity with the Python reference loop is guaranteed because every
operation is a plain IEEE-754 double add/subtract/compare in program
order and the source is compiled with ``-ffp-contract=off`` and without
any fast-math flags, so the compiler cannot fuse or reorder them.

The two entry points, ``repro_batch_scan`` and
``repro_network_batch_scan``, run many independent configurations over
packed ``(runs, slots)`` arrays in one call, one serial loop over runs;
a single run is a batch of one.  Per-run parameters travel as two
small matrices (integers and doubles), so a call marshals a fixed
handful of pointers however many runs it carries.

The accelerator is best-effort: if ``gcc`` is missing, compilation
fails, or ``REPRO_NATIVE_SCAN=0`` is set, callers get ``None`` and fall
back to the pure-numpy kernel paths.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

from repro.devtools import telemetry

_SOURCE = r"""
#include <stdint.h>

/* One sensor, `horizon` slots, reflected-battery arithmetic: the level
 * before each decision is (neg + cs[t]) - shave.  Must mirror
 * repro.sim.engine._simulate_reference operation-for-operation.
 *
 * Age-of-Information accumulators: a capture at 1-based slot t closes
 * a gap of g = t - last_capture slots whose end-of-slot ages are
 * 1 .. g-1, contributing g(g-1)/2 to the age area and (g-1)g(2g-1)/6 to
 * the squared-age area; the trailing censored gap contributes ages
 * 1 .. r.  Exact int64 arithmetic in the same operation order as the
 * Python reference (overflow bound: a gap beyond ~2.09e6 slots
 * overflows the squared-age product before its division by 3). */
static void scan_one(
    int64_t horizon,
    const double *cs,        /* cumulative recharge, cs[t] = sum a_1..a_{t+1} */
    const uint8_t *events,   /* event flag per slot */
    const double *coins,     /* activation coin per slot */
    const double *table,     /* recency table, or per-slot probs (slot_mode) */
    int64_t table_size,
    double tail,
    int64_t slot_mode,       /* 1: table is indexed by slot, not recency */
    int64_t full_info,
    double capacity,
    double delta1,
    double delta2,
    double initial,
    int64_t *out_counts,     /* activations, captures, blocked,
                                aoi_area, aoi_area_sq, aoi_max,
                                last_capture_slot */
    double *out_state)       /* neg, shave */
{
    double neg = initial;
    double shave = 0.0;
    const double cost_capture = delta1 + delta2;
    const double activation_cost = delta1 + delta2;
    int64_t activations = 0, captures = 0, blocked = 0;
    int64_t aoi_area = 0, aoi_sq = 0, aoi_max = 0, last_capture = 0;
    int64_t recency = 1;
    int64_t residual;
    int64_t t;
    for (t = 0; t < horizon; t++) {
        double pre = neg + cs[t];
        double over = pre - capacity;
        double battery, prob;
        int wanted, event, captured;
        if (over > shave) shave = over;
        battery = pre - shave;
        if (slot_mode) {
            prob = table[t];
        } else {
            prob = (recency <= table_size) ? table[recency - 1] : tail;
        }
        wanted = coins[t] < prob;
        event = events[t];
        captured = 0;
        if (wanted) {
            if (battery < activation_cost) {
                blocked++;
            } else {
                activations++;
                if (event) {
                    int64_t gap = (t + 1) - last_capture;
                    captured = 1;
                    captures++;
                    neg = neg - cost_capture;
                    aoi_area += gap * (gap - 1) / 2;
                    aoi_sq += ((gap - 1) * gap / 2) * (2 * gap - 1) / 3;
                    if (gap - 1 > aoi_max) aoi_max = gap - 1;
                    last_capture = t + 1;
                } else {
                    neg = neg - delta1;
                }
            }
        }
        if (full_info) {
            recency = event ? 1 : recency + 1;
        } else {
            recency = captured ? 1 : recency + 1;
        }
    }
    residual = horizon - last_capture;
    aoi_area += residual * (residual + 1) / 2;
    aoi_sq += (residual * (residual + 1) / 2) * (2 * residual + 1) / 3;
    if (residual > aoi_max) aoi_max = residual;
    out_counts[0] = activations;
    out_counts[1] = captures;
    out_counts[2] = blocked;
    out_counts[3] = aoi_area;
    out_counts[4] = aoi_sq;
    out_counts[5] = aoi_max;
    out_counts[6] = last_capture;
    out_state[0] = neg;
    out_state[1] = shave;
}

/* Batched single-sensor scan: `n_runs` independent configurations over
 * (n_runs, stride) row-major arrays; run r uses the first length of its
 * row, and padding beyond it is never read.  Recency/slot tables are
 * concatenated into `tables`.  Per-run parameters, one row per run:
 *   iparams[r] = length, table_offset, table_size, slot_mode, full_info
 *   fparams[r] = tail, capacity, delta1, delta2, initial */
void repro_batch_scan(
    int64_t n_runs,
    int64_t stride,
    const double *cs,            /* (n_runs, stride) */
    const uint8_t *events,       /* (n_runs, stride) */
    const double *coins,         /* (n_runs, stride) */
    const double *tables,
    const int64_t *iparams,      /* (n_runs, 5) */
    const double *fparams,       /* (n_runs, 5) */
    int64_t *out_counts,         /* (n_runs, 7) */
    double *out_state)           /* (n_runs, 2) */
{
    int64_t r;
    for (r = 0; r < n_runs; r++) {
        const int64_t *ip = iparams + r * 5;
        const double *fp = fparams + r * 5;
        scan_one(ip[0],
                 cs + r * stride,
                 events + r * stride,
                 coins + r * stride,
                 tables + ip[1], ip[2],
                 fp[0], ip[3], ip[4],
                 fp[1], fp[2], fp[3], fp[4],
                 out_counts + r * 7,
                 out_state + r * 2);
    }
}

/* N sensors sharing one event stream and one coin stream under a
 * precomputed responsibility assignment (resp[t] = sensor index or -1).
 * Must mirror repro.sim.network._simulate_network_reference
 * operation-for-operation: every sensor's overflow shave is updated on
 * every slot *before* the responsible sensor's decision, and the shared
 * recency advances on events (full information) or network captures
 * (partial information).  Per-sensor reflected state lives directly in
 * the output buffers: out_state[s*2] = neg_s, out_state[s*2+1] =
 * shave_s; out_counts[s*4 + {0,1,2,3}] = activations, captures,
 * blocked, last_capture_slot.  out_aoi holds the system-level
 * Age-of-Information accumulators (the age resets on *any* sensor's
 * capture): area, area_sq, max_age, last_capture_slot.
 * `row_stride` is the allocated slot count per cs row. */
static void scan_network_one(
    int64_t horizon,
    int64_t n_sensors,
    int64_t row_stride,
    const double *cs,        /* (n_sensors, row_stride) row-major */
    const uint8_t *events,
    const double *coins,
    const int64_t *resp,
    const double *table,
    int64_t table_size,
    double tail,
    int64_t slot_mode,
    int64_t full_info,
    double capacity,
    double delta1,
    double delta2,
    double initial,
    int64_t *out_counts,     /* (n_sensors, 4) */
    double *out_state,       /* (n_sensors, 2) */
    int64_t *out_aoi)        /* area, area_sq, max_age, last_capture */
{
    const double cost_capture = delta1 + delta2;
    const double activation_cost = delta1 + delta2;
    int64_t recency = 1;
    int64_t aoi_area = 0, aoi_sq = 0, aoi_max = 0, last_capture = 0;
    int64_t residual;
    int64_t t, s;
    for (s = 0; s < n_sensors; s++) {
        out_counts[s * 4] = 0;
        out_counts[s * 4 + 1] = 0;
        out_counts[s * 4 + 2] = 0;
        out_counts[s * 4 + 3] = 0;
        out_state[s * 2] = initial;
        out_state[s * 2 + 1] = 0.0;
    }
    for (t = 0; t < horizon; t++) {
        int64_t sensor = resp[t];
        double prob;
        int event, captured;
        for (s = 0; s < n_sensors; s++) {
            double over = (out_state[s * 2] + cs[s * row_stride + t])
                          - capacity;
            if (over > out_state[s * 2 + 1]) out_state[s * 2 + 1] = over;
        }
        if (slot_mode) {
            prob = table[t];
        } else {
            prob = (recency <= table_size) ? table[recency - 1] : tail;
        }
        event = events[t];
        captured = 0;
        if (sensor >= 0 && coins[t] < prob) {
            double battery =
                (out_state[sensor * 2] + cs[sensor * row_stride + t])
                - out_state[sensor * 2 + 1];
            if (battery < activation_cost) {
                out_counts[sensor * 4 + 2]++;
            } else {
                out_counts[sensor * 4]++;
                if (event) {
                    int64_t gap;
                    captured = 1;
                    out_counts[sensor * 4 + 1]++;
                    out_counts[sensor * 4 + 3] = t + 1;
                    out_state[sensor * 2] =
                        out_state[sensor * 2] - cost_capture;
                    gap = (t + 1) - last_capture;
                    aoi_area += gap * (gap - 1) / 2;
                    aoi_sq += ((gap - 1) * gap / 2) * (2 * gap - 1) / 3;
                    if (gap - 1 > aoi_max) aoi_max = gap - 1;
                    last_capture = t + 1;
                } else {
                    out_state[sensor * 2] = out_state[sensor * 2] - delta1;
                }
            }
        }
        if (full_info) {
            recency = event ? 1 : recency + 1;
        } else {
            recency = captured ? 1 : recency + 1;
        }
    }
    residual = horizon - last_capture;
    aoi_area += residual * (residual + 1) / 2;
    aoi_sq += (residual * (residual + 1) / 2) * (2 * residual + 1) / 3;
    if (residual > aoi_max) aoi_max = residual;
    out_aoi[0] = aoi_area;
    out_aoi[1] = aoi_sq;
    out_aoi[2] = aoi_max;
    out_aoi[3] = last_capture;
}

/* Batched network scan.  Runs may have different sensor counts: run r
 * owns sensor rows [sensor_offset, sensor_offset + n_sensors) of the
 * (total_rows, stride) cs array and the matching rows of
 * out_counts/out_state; its event/coin/resp row is row r of the
 * (n_runs, stride) arrays.  Per-run parameters, one row per run:
 *   iparams[r] = length, n_sensors, sensor_offset, table_offset,
 *                table_size, slot_mode, full_info
 *   fparams[r] = tail, capacity, delta1, delta2, initial */
void repro_network_batch_scan(
    int64_t n_runs,
    int64_t stride,
    const double *cs,            /* (total_rows, stride) */
    const uint8_t *events,       /* (n_runs, stride) */
    const double *coins,         /* (n_runs, stride) */
    const int64_t *resp,         /* (n_runs, stride) */
    const double *tables,
    const int64_t *iparams,      /* (n_runs, 7) */
    const double *fparams,       /* (n_runs, 5) */
    int64_t *out_counts,         /* (total_rows, 4) */
    double *out_state,           /* (total_rows, 2) */
    int64_t *out_aoi)            /* (n_runs, 4) */
{
    int64_t r;
    for (r = 0; r < n_runs; r++) {
        const int64_t *ip = iparams + r * 7;
        const double *fp = fparams + r * 5;
        scan_network_one(ip[0], ip[1], stride,
                         cs + ip[2] * stride,
                         events + r * stride,
                         coins + r * stride,
                         resp + r * stride,
                         tables + ip[3], ip[4],
                         fp[0], ip[5], ip[6],
                         fp[1], fp[2], fp[3], fp[4],
                         out_counts + ip[2] * 4,
                         out_state + ip[2] * 2,
                         out_aoi + r * 4);
    }
}
"""

#: Flags chosen for IEEE-strict doubles: no contraction (no FMA fusing
#: of a+b-c chains), no fast-math, plain -O2.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_ENV_FLAG = "REPRO_NATIVE_SCAN"

# Module-level compile cache: None = not tried yet, False = unavailable.
_lib_cache: Optional[object] = None
_lib_tried = False


def _address(arr: np.ndarray, dtype: type) -> int:
    """Address of ``arr``'s buffer after checking its dtype and layout.

    Plain integer addresses (``c_void_p`` arguments) marshal several
    times faster than typed ``data_as`` pointers, which dominates a
    batch of one.
    """
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(
            f"native scan needs a C-contiguous {np.dtype(dtype)} array, "
            f"got {arr.dtype} (c_contiguous={arr.flags.c_contiguous})"
        )
    return int(arr.ctypes.data)


class NativeScan:
    """ctypes wrapper around the compiled batch scan symbols."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._batch_fn = lib.repro_batch_scan
        self._batch_fn.restype = None
        self._batch_fn.argtypes = (
            [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 8
        )
        self._net_batch_fn = lib.repro_network_batch_scan
        self._net_batch_fn.restype = None
        self._net_batch_fn.argtypes = (
            [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 10
        )

    def scan_batch(
        self,
        cs: np.ndarray,
        events: np.ndarray,
        coins: np.ndarray,
        tables: np.ndarray,
        iparams: np.ndarray,
        fparams: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run ``n_runs`` independent scans over packed batch arrays.

        ``cs``/``coins`` are float64 and ``events`` uint8, all
        ``(n_runs, stride)``; run ``r`` occupies the first
        ``iparams[r, 0]`` columns of its row.  ``iparams`` rows are
        ``(length, table_offset, table_size, slot_mode, full_info)``
        and ``fparams`` rows ``(tail, capacity, delta1, delta2,
        initial)``.  Returns ``(counts, state)``: ``counts[r] =
        (activations, captures, blocked, aoi_area, aoi_area_sq,
        aoi_max, last_capture_slot)``, ``state[r] = (neg, shave)``.
        """
        n_runs, stride = cs.shape
        if tables.size == 0:  # keep the pointer valid; never dereferenced
            tables = np.zeros(1, dtype=np.float64)
        counts = np.empty((n_runs, 7), dtype=np.int64)
        state = np.empty((n_runs, 2), dtype=np.float64)
        self._batch_fn(
            n_runs,
            stride,
            _address(cs, np.float64),
            _address(events, np.uint8),
            _address(coins, np.float64),
            _address(tables, np.float64),
            _address(iparams, np.int64),
            _address(fparams, np.float64),
            _address(counts, np.int64),
            _address(state, np.float64),
        )
        return counts, state

    def scan_network_batch(
        self,
        cs: np.ndarray,
        events: np.ndarray,
        coins: np.ndarray,
        resp: np.ndarray,
        tables: np.ndarray,
        iparams: np.ndarray,
        fparams: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run ``n_runs`` independent network scans in one call.

        ``cs`` is ``(total_sensor_rows, stride)``; run ``r`` owns the
        ``n_sensors`` rows from ``sensor_offset`` on and row ``r`` of
        the ``(n_runs, stride)`` ``events``/``coins``/``resp`` arrays.
        ``iparams`` rows are ``(length, n_sensors, sensor_offset,
        table_offset, table_size, slot_mode, full_info)`` and
        ``fparams`` rows ``(tail, capacity, delta1, delta2, initial)``.
        Returns ``(counts, state, aoi)``: per-sensor rows ``counts``
        shaped ``(total_sensor_rows, 4)`` (activations, captures,
        blocked, last_capture_slot) and ``state`` shaped
        ``(total_sensor_rows, 2)``, plus the per-run system-level
        ``aoi`` shaped ``(n_runs, 4)``.
        """
        n_runs, stride = events.shape
        total_rows = cs.shape[0]
        if tables.size == 0:  # keep the pointer valid; never dereferenced
            tables = np.zeros(1, dtype=np.float64)
        counts = np.empty((total_rows, 4), dtype=np.int64)
        state = np.empty((total_rows, 2), dtype=np.float64)
        aoi = np.empty((n_runs, 4), dtype=np.int64)
        self._net_batch_fn(
            n_runs,
            stride,
            _address(cs, np.float64),
            _address(events, np.uint8),
            _address(coins, np.float64),
            _address(resp, np.int64),
            _address(tables, np.float64),
            _address(iparams, np.int64),
            _address(fparams, np.float64),
            _address(counts, np.int64),
            _address(state, np.float64),
            _address(aoi, np.int64),
        )
        return counts, state, aoi


def _compile() -> Optional[ctypes.CDLL]:
    """Compile the scan into a cached shared object; None on any failure."""
    gcc = shutil.which("gcc") or shutil.which("cc")
    if gcc is None:
        return None
    digest = hashlib.sha256(
        _SOURCE.encode() + " ".join(_CFLAGS).encode()
    ).hexdigest()[:16]
    uid = os.getuid() if hasattr(os, "getuid") else 0
    cache = pathlib.Path(tempfile.gettempdir()) / f"repro-native-{uid}"
    so_path = cache / f"repro_scan-{digest}.so"
    try:
        if not so_path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            src_path = cache / f"repro_scan-{digest}.c"
            src_path.write_text(_SOURCE)
            with tempfile.NamedTemporaryFile(
                dir=str(cache), suffix=".so", delete=False
            ) as tmp:
                tmp_name = tmp.name
            subprocess.run(
                [gcc, *_CFLAGS, "-o", tmp_name, str(src_path)],
                check=True,
                capture_output=True,
            )
            os.replace(tmp_name, so_path)  # atomic vs concurrent compiles
        return ctypes.CDLL(str(so_path))
    except (OSError, subprocess.SubprocessError):
        return None


def get_native_scan() -> Optional[NativeScan]:
    """The compiled scan, or None when disabled or unavailable.

    Set ``REPRO_NATIVE_SCAN=0`` to force the pure-numpy kernel paths
    (checked on every call so tests can exercise both implementations).
    """
    if os.environ.get(_ENV_FLAG, "1").strip().lower() in ("0", "false", "no"):
        telemetry.count("native.disabled_by_env")
        return None
    global _lib_cache, _lib_tried
    if not _lib_tried:
        _lib_tried = True
        lib = _compile()
        _lib_cache = NativeScan(lib) if lib is not None else None
        telemetry.event("native_compile", available=_lib_cache is not None)
    telemetry.count(
        "native.available" if _lib_cache is not None else "native.unavailable"
    )
    return _lib_cache  # type: ignore[return-value]
