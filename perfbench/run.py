"""Closed-loop benchmark of mtgopt's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process runs ops back to back (workers=1, no threads) and
checks every output against perfbench/oracle.py; check time is not timed.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics that BENCHMARK.json lists, end_to_end ones with --trace 0 and
per_layer ones with --trace 1, each with its unit from BENCHMARK.json.

--trace 0 times ops until S seconds of op time and at least MIN_OPS ops
have passed, and takes setup_s as the median of SETUP_SPAWNS fresh
interpreters that each import what the workload calls and build its inputs.
Its timings are scaled by the host's speed during the run, measured with a
reference kernel outside the program (perfbench/hostref.py); the raw ones go
to stderr.
--trace 1 runs S/2 seconds untraced, then S/2 seconds with every layer
function wrapped (perfbench/tracer.py), writes the spans to
perfbench/out/spans_<workload>.npz and derives the per-layer metrics from
them. See perfbench/NOTES.md for the workloads and the measured spread.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from hostref import REF_NOMINAL_S, HostProbe

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
SETUP_SPAWNS = 7
MIN_OPS = 100
# a slow host may stretch the timed loop to reach MIN_OPS, up to this many
# times the requested seconds
MAX_STRETCH = 2.0
MAX_SPANS = 500_000
TIME_CHUNK = 1 << 16
SPAWN_TIMEOUT_S = 60


class Segment:
    """Timed ops of one loop, their failures and the first op's fingerprint."""

    def __init__(self):
        # fixed-size chunks of 8 bytes per op: one growing array would be
        # copied on every resize, and those copies would make peak RSS depend
        # on the op count
        self._chunks = [array("d")]
        self.ops = 0
        self.busy = 0.0
        self.failed = 0
        self.reasons: list[str] = []
        self.first_bits = None

    def add(self, seconds: float) -> None:
        if len(self._chunks[-1]) == TIME_CHUNK:
            self._chunks.append(array("d"))
        self._chunks[-1].append(seconds)
        self.ops += 1
        self.busy += seconds

    def times(self) -> np.ndarray:
        return np.concatenate([np.asarray(c) for c in self._chunks])

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy

    def fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"op {i}: {reason}")


def measure(work, first: int, seconds: float, min_ops: int, host: HostProbe,
            call=lambda i, fn: fn(), stop=lambda: False,
            pause=lambda: None, pause_every: float = math.inf) -> Segment:
    """Run ops first, first+1, ... and check each; the check is not timed.

    pause() runs untimed before the first op and after each further
    pause_every seconds of op time.
    """
    seg = Segment()
    next_pause = 0.0
    give_up = perf_counter() + MAX_STRETCH * seconds
    i = first
    while seg.busy < seconds or (seg.ops < min_ops and perf_counter() < give_up):
        if seg.busy >= next_pause:
            pause()
            next_pause += pause_every
        fn = work.prepare(i)
        out = None
        t0 = perf_counter()
        try:
            out = call(i, fn)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            t1 = perf_counter()
            seg.fail(i, f"raised {exc!r}")
        else:
            t1 = perf_counter()
            reason = work.check(i, out)
            if reason:
                seg.fail(i, reason)
        seg.add(t1 - t0)
        if i == 0 and out is not None:
            seg.first_bits = work.fingerprint(out)
        host.maybe()
        i += 1
        if stop():
            break
    return seg


def repeat_first(work, seg: Segment) -> bool:
    """Op 0 run again must give bit-identical outputs."""
    try:
        return seg.first_bits is not None and work.fingerprint(work.prepare(0)()) == seg.first_bits
    except Exception:  # a rerun that raises is a mismatch
        return False


def spawn_probe(name: str, seed: int, *flags: str) -> tuple[float, float, str]:
    """Seconds from spawn to built inputs in a fresh interpreter, the reference
    kernel's time measured in it right after, and its stderr."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, str(HERE / "probe.py"), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=SPAWN_TIMEOUT_S,
    )
    done, ref = map(float, proc.stdout.split()[-2:])
    return done - t0, ref, proc.stderr


def import_ms(name: str, seed: int) -> dict[str, float]:
    """Self import time per top-level package from ``-X importtime``."""
    *_, log = spawn_probe(name, seed, "-X", "importtime")
    totals = {"numpy": 0, "scipy": 0, "mtgopt": 0}
    for line in log.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        top = module.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us)
    return {f"setup.{k}_ms": v / 1e3 for k, v in totals.items()}


def percentile_ms(times: np.ndarray, q: float) -> float:
    """q-th percentile, lowered to the highest one with 10 ops beyond it."""
    usable = 100.0 * (1.0 - 10.0 / len(times))
    if usable < q:
        q, wanted = max(usable, 50.0), q
        print(f"op_ms_p{wanted:g}: only {len(times)} ops, reporting p{q:.0f}", file=sys.stderr)
    return 1e3 * float(np.percentile(times, q))


def raw_timings(seg: Segment) -> dict[str, float]:
    times = seg.times()
    return {
        "ops_per_s": seg.ops_per_s,
        "op_ms_p50": 1e3 * float(np.median(times)),
        "op_ms_p90": percentile_ms(times, 90),
    }


def end_to_end(args, work, host: HostProbe) -> tuple[dict, int, int]:
    # spawns spread over the run sample the host's fast and slow spells
    setups = []
    seg = measure(work, 0, args.seconds, MIN_OPS, host,
                  pause=lambda: setups.append(spawn_probe(args.workload, args.seed)[:2]),
                  pause_every=args.seconds / SETUP_SPAWNS)
    if not repeat_first(work, seg):
        seg.fail(0, "rerun is not bit-identical")
    # read before the op times are gathered into one array for the percentiles
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = raw_timings(seg)
    slowdown = host.slowdown()
    metrics = {
        "ops_per_s_hostnorm": raw["ops_per_s"] * slowdown,
        "op_ms_p90_hostnorm": raw["op_ms_p90"] / slowdown,
        "setup_s": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print(
        f"{args.workload}: {seg.ops} ops, raw "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
        + ", raw setup spawns " + " ".join(f"{t:.3f}" for t, _ in sorted(setups))
        + f" s, host slowdown {slowdown:.4f} over {len(host.samples)} probes",
        file=sys.stderr,
    )
    for r in seg.reasons:
        print(f"FAIL {r}", file=sys.stderr)
    return metrics, seg.ops, seg.failed


def per_layer(args, work, host: HostProbe) -> tuple[dict, int, int]:
    from tracer import Tracer

    metrics = import_ms(args.workload, args.seed)
    plain = measure(work, 0, args.seconds / 2, 1, host)
    tracer = Tracer(MAX_SPANS)
    tracer.install()
    try:
        traced = measure(work, plain.ops, args.seconds / 2, 1, host,
                         call=tracer.run_op, stop=lambda: tracer.full)
    finally:
        tracer.uninstall()
    if not repeat_first(work, plain):
        plain.fail(0, "rerun is not bit-identical")
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans_{args.workload}.npz"))
    attempted = plain.ops + traced.ops
    failed = plain.failed + traced.failed
    metrics.update(tracer.metrics())
    metrics["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
    metrics.update(raw_timings(plain))
    metrics["host.probe_us_p50"] = host.p50_us()
    metrics["fail_ratio"] = failed / attempted
    for r in plain.reasons + traced.reasons:
        print(f"FAIL {r}", file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    workloads.require_src()

    work = workloads.build(args.workload, args.seed)
    host = HostProbe()
    metrics, attempted, failed = (per_layer if args.trace else end_to_end)(args, work, host)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"metrics not computed: {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
