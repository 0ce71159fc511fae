#!/usr/bin/env python3
"""Validate PEACE observability artifacts.

Two schemas, auto-detected from the top-level ``schema`` field:

* ``peace-bench-v1`` — a ``BENCH_*.json`` artifact from the shared
  ``peace_telemetry::bench::BenchReport`` emitter: header fields
  (``schema``, ``bench``, ``when_ms``) followed by scalar results. Any
  embedded object carrying a telemetry schema (the ``telemetry`` /
  ``router`` / ``user`` fields) is validated recursively.
* ``peace-telemetry-v1`` — a registry snapshot
  (``peace_telemetry::Snapshot::to_json``, also what
  ``peace-noded --metrics-json`` writes): ``counters``, ``histograms``,
  ``events``, with internal-consistency checks (bucket counts sum to
  ``count``, ``min <= max``, sorted keys, monotone bucket floors).

Usage: ``tools/check_bench.py FILE [FILE ...]``
Exits non-zero (listing every violation) if any file is invalid.
"""

import json
import sys

BENCH_SCHEMA = "peace-bench-v1"
TELEMETRY_SCHEMA = "peace-telemetry-v1"

# Regression floors, keyed by bench name then result field: the artifact
# fails validation if a floored field is missing or below its minimum.
#
# Floors sit at roughly half the throughput the current implementation
# measures on the slowest box in use — absolute numbers swing ~1.8x across
# machines and ±30% under thermal throttling, so these are deliberately
# loose. They exist to catch *structural* regressions (losing the O(tail)
# ledger recovery path, a Montgomery-kernel pessimization, re-introducing
# the per-call constant pairing), not 10% drift.
FLOORS = {
    "perf_report": {
        "sign_plain_ops_per_sec": 130.0,
        "sign_prepared_ops_per_sec": 130.0,
        "verify_plain_ops_per_sec": 130.0,
        "verify_prepared_ops_per_sec": 140.0,
        # Staged revocation engine at metropolitan list sizes (measured
        # ~320 and ~220 ops/s): the floor catches losing the O(1) cache /
        # prefilter fast paths, which would collapse these to the cold
        # sweep's ~1 op/s at |URL| = 10⁴.
        "vac_cached_n10000_ops_per_sec": 140.0,
        "vac_prefilter_n10000_ops_per_sec": 90.0,
    },
    "ledger_report": {
        "recovery_records_per_sec": 20_000.0,
        # Replica catch-up (pull + verify + re-chain) is a structural
        # decode, a chain replay, an ECDSA checkpoint verification per
        # range and a second chained write path (measured ~52k/s). Ingest
        # decompresses no point: doing so costs ~0.43 ms per access record
        # and reads ~1.9k/s, which this floor is there to refuse.
        "catchup_records_per_sec": 10_000.0,
    },
    # The CI smoke scenario: >=1k simulated users and >=200 real TCP
    # sessions on loopback. Session counts are exact (the schedule is
    # seeded), so those floors are tight; the rate floors are loose
    # structural guards like everything else here.
    "loadgen": {
        "sim_users": 1_000,
        "sim_auth_attempts": 1_000,
        "tcp_offered": 200,
        "tcp_sessions": 200,
        "tcp_peak_concurrent": 100,
        "tcp_handshakes_per_sec": 10.0,
        "tcp_access_per_sec": 20.0,
    },
    # The sharded event-loop runtime benchmark. ``held_sessions`` /
    # ``held_live_at_peak`` are exact (the run dies if any held session
    # drops), so the 10k-concurrency claim is structural, not a rate. The
    # handshake-rate floors are deliberately low: on a single-core box the
    # rate is bound by ~7-11 ms of group-signature crypto per handshake
    # (client + router), and host-sharing swings it ~2x run to run.
    "net_loopback": {
        "handshakes_per_sec": 15.0,
        "echo_rounds_per_sec": 2_000.0,
        "held_sessions": 10_000,
        "held_live_at_peak": 10_000,
        "held_handshakes_per_sec": 10.0,
    },
}

# Like FLOORS, but only enforced when the field is present: these guard
# optional benchmark modes (e.g. ``peace-loadgen --ramp``) that not every
# artifact-producing invocation runs.
OPTIONAL_FLOORS = {
    "loadgen": {
        "ramp_max_rate_per_sec": 10.0,
    },
}

# Latency ceilings: ``field <= max``. The open-loop harness measures
# session latency from the *scheduled* arrival, so an overloaded or
# deadlocked daemon shows up as a p99 explosion rather than a throughput
# dip — these ceilings are the regression gate for that signal. Values
# are generous multiples of the measured smoke numbers (p99 ~0.15 s on
# the reference box) for the same machine-variance reasons as FLOORS.
CEILINGS = {
    "loadgen": {
        "tcp_hs_p99_us": 5_000_000,
        "tcp_session_p99_us": 10_000_000,
    },
    # Handshake p99 over the event loop: measured 30-110 ms on the
    # reference single-core box (crypto plus verify-pool queueing); the
    # ceiling catches reintroducing a sweep-cadence stall (a parked
    # mid-handshake connection waits out the 100 ms slow scan), which
    # pushed p99 past 100 ms before mid-handshake parking was banned.
    "net_loopback": {
        "hs_p99_us": 1_000_000,
    },
}

# Ratio floors: ``numerator >= denominator * min_ratio``. Unlike the
# absolute floors these are machine-independent — both sides move together
# under throttling — so they pin *structural* relationships: the staged
# engine's fast paths must stay within small multiples of a bare signature
# verification no matter how large the URL is.
RATIO_FLOORS = {
    "perf_report": [
        ("vac_cached_n100000_ops_per_sec", "verify_prepared_ops_per_sec", 1 / 3),
        ("vac_cached_n10000_ops_per_sec", "verify_prepared_ops_per_sec", 1 / 3),
        ("vac_prefilter_n10000_ops_per_sec", "verify_prepared_ops_per_sec", 1 / 3),
    ],
}


class Checker:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def fail(self, where, msg):
        self.errors.append(f"{self.path}: {where}: {msg}")

    def expect(self, cond, where, msg):
        if not cond:
            self.fail(where, msg)
        return cond

    # -- telemetry snapshots ------------------------------------------------

    def check_histogram(self, where, h):
        if not self.expect(isinstance(h, dict), where, "histogram must be an object"):
            return
        for field in ("buckets", "count", "max", "min", "sum"):
            if field not in h:
                self.fail(where, f"missing histogram field {field!r}")
                return
        for field in ("count", "max", "min", "sum"):
            self.expect(
                isinstance(h[field], int) and h[field] >= 0,
                where,
                f"{field} must be a non-negative integer",
            )
        buckets = h["buckets"]
        if not self.expect(isinstance(buckets, list), where, "buckets must be a list"):
            return
        total, prev_floor = 0, -1
        for i, b in enumerate(buckets):
            ok = (
                isinstance(b, list)
                and len(b) == 2
                and all(isinstance(x, int) and x >= 0 for x in b)
            )
            if not self.expect(ok, where, f"bucket[{i}] must be [floor, count]"):
                return
            floor, n = b
            self.expect(
                floor > prev_floor, where, f"bucket[{i}] floor {floor} not increasing"
            )
            self.expect(n > 0, where, f"bucket[{i}] is empty (never serialized)")
            prev_floor, total = floor, total + n
        if isinstance(h.get("count"), int):
            self.expect(
                total == h["count"],
                where,
                f"bucket counts sum to {total}, count says {h['count']}",
            )
            if h["count"] > 0:
                self.expect(h["min"] <= h["max"], where, "min > max on non-empty histogram")

    def check_telemetry(self, where, doc):
        if not self.expect(isinstance(doc, dict), where, "snapshot must be an object"):
            return
        self.expect(
            doc.get("schema") == TELEMETRY_SCHEMA,
            where,
            f"schema must be {TELEMETRY_SCHEMA!r}",
        )
        counters = doc.get("counters")
        if self.expect(isinstance(counters, dict), where, "counters must be an object"):
            for k, v in counters.items():
                self.expect(
                    isinstance(v, int) and v >= 0,
                    f"{where}.counters[{k!r}]",
                    "must be a non-negative integer",
                )
            self.expect(
                list(counters) == sorted(counters), where, "counter keys not sorted"
            )
        hists = doc.get("histograms")
        if self.expect(isinstance(hists, dict), where, "histograms must be an object"):
            for k, h in hists.items():
                self.check_histogram(f"{where}.histograms[{k!r}]", h)
            self.expect(list(hists) == sorted(hists), where, "histogram keys not sorted")
        events = doc.get("events")
        if self.expect(isinstance(events, list), where, "events must be a list"):
            for i, e in enumerate(events):
                ew = f"{where}.events[{i}]"
                if not self.expect(isinstance(e, dict), ew, "event must be an object"):
                    continue
                for field, ty in (
                    ("at_ms", int),
                    ("code", str),
                    ("detail", str),
                    ("seq", int),
                ):
                    self.expect(
                        isinstance(e.get(field), ty), ew, f"{field} must be {ty.__name__}"
                    )

    # -- bench artifacts ----------------------------------------------------

    def check_bench(self, doc):
        keys = list(doc)
        self.expect(
            keys[:3] == ["schema", "bench", "when_ms"],
            "header",
            "first fields must be schema, bench, when_ms",
        )
        self.expect(isinstance(doc.get("bench"), str), "bench", "must be a string")
        self.expect(
            isinstance(doc.get("when_ms"), int) and doc.get("when_ms", -1) >= 0,
            "when_ms",
            "must be a non-negative integer",
        )
        for k, v in doc.items():
            if k in ("schema", "bench", "when_ms"):
                continue
            if isinstance(v, dict):
                # Embedded documents must themselves be schema-versioned.
                self.check_telemetry(k, v)
            elif isinstance(v, list):
                # Tabular results (e.g. ramp-search probes): a list of flat
                # rows, every cell a scalar.
                flat = all(
                    isinstance(row, dict)
                    and all(
                        isinstance(c, (bool, int, float, str))
                        for c in row.values()
                    )
                    for row in v
                )
                self.expect(flat, k, "list fields must hold flat scalar rows")
            else:
                self.expect(
                    isinstance(v, (int, float, str)),
                    k,
                    f"unsupported field type {type(v).__name__}",
                )
        for field, floor in FLOORS.get(doc.get("bench"), {}).items():
            v = doc.get(field)
            if self.expect(
                isinstance(v, (int, float)), field, "floored result field missing"
            ):
                self.expect(
                    v >= floor,
                    field,
                    f"{v} below regression floor {floor}",
                )
        for field, floor in OPTIONAL_FLOORS.get(doc.get("bench"), {}).items():
            v = doc.get(field)
            if isinstance(v, (int, float)):
                self.expect(
                    v >= floor,
                    field,
                    f"{v} below regression floor {floor}",
                )
        for field, ceiling in CEILINGS.get(doc.get("bench"), {}).items():
            v = doc.get(field)
            if self.expect(
                isinstance(v, (int, float)), field, "ceilinged result field missing"
            ):
                self.expect(
                    v <= ceiling,
                    field,
                    f"{v} above latency ceiling {ceiling}",
                )
        for num, den, min_ratio in RATIO_FLOORS.get(doc.get("bench"), []):
            nv, dv = doc.get(num), doc.get(den)
            ok = all(isinstance(x, (int, float)) for x in (nv, dv))
            if self.expect(ok, num, f"ratio check needs both {num!r} and {den!r}"):
                self.expect(
                    dv > 0 and nv >= dv * min_ratio,
                    num,
                    f"{nv} is below {min_ratio:.3g}x of {den} ({dv})",
                )

    def check(self):
        try:
            with open(self.path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            self.fail("parse", str(e))
            return self.errors
        if not isinstance(doc, dict):
            self.fail("top", "document must be a JSON object")
            return self.errors
        schema = doc.get("schema")
        if schema == BENCH_SCHEMA:
            self.check_bench(doc)
        elif schema == TELEMETRY_SCHEMA:
            self.check_telemetry("top", doc)
        else:
            self.fail("schema", f"unknown or missing schema: {schema!r}")
        return self.errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        errors = Checker(path).check()
        if errors:
            failures += 1
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
        else:
            print(f"ok   {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
