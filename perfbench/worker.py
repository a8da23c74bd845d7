"""One measuring process: ``python3 worker.py SPEC OUT``.

SPEC is a JSON file written by ``run.py``; OUT receives the results. The
process times its own set-up (importing semdiff and parsing every input),
then, by ``mode``:

- ``setup``: stops there;
- ``measure``: warms up, then runs whole passes over the query list, one
  call at a time, until ``seconds`` have been spent in passes; with
  ``trace`` it spends half of that time untraced and half traced;
- ``crosscheck``: runs every light query once and keeps the outputs.

The program's answers are converted to plain data outside the timed region.

The machine is shared and its speed drifts by tens of percent over spells of
seconds. So ``ScaledClock`` measures the machine's speed with a fixed
calibration loop before and after every timed call, and every 0.1 s during
it, and scales the call's time to the reference speed at which that loop
takes ``REFERENCE_S``: a time reported here is what the call takes on this
machine when it is calm. Time spent calibrating is not counted.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter


REFERENCE_S = 0.6e-3  # best time of calibration_loop on a calm 2-core sandbox, Python 3.11


def calibration_loop():
    """Fixed pure-Python work of the same kind as semdiff's: hashing small
    frozensets, filling a dict, formatting and sorting tuples."""
    table = {}
    for i in range(1500):
        table[frozenset((i % 37, i % 11))] = (i, str(i))
    return sorted(table.values())


def calibrate():
    """The machine's current slowness: best of three calibration loops."""
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        calibration_loop()
        best = min(best, perf_counter() - t)
    return best


class ScaledClock:
    """Times calls in reference seconds; see the module docstring."""

    INTERVAL = 0.1

    def __init__(self):
        self.cal = calibrate()
        self.during = None  # speed samples of the call in progress
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self.during is not None:
            t = perf_counter()
            self.during.append(calibrate())
            self.paused += perf_counter() - t

    def time(self, fn):
        """(result, scaled seconds, wall seconds) of ``fn()``."""
        self.during, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        t = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
            during, self.during = self.during, None
        wall = elapsed - self.paused
        after = calibrate()
        speeds = [self.cal, after, *during]
        self.cal = after
        return result, wall * REFERENCE_S * len(speeds) / sum(speeds), wall


def set_up(spec):
    import semdiff

    return semdiff, parse_all(semdiff, spec["files"])


def main(spec_path, out_path):
    spec = json.loads(Path(spec_path).read_text())
    os.chdir(spec["workdir"])
    sys.path.insert(0, spec["src"])
    clock = ScaledClock()
    (semdiff, models), setup_s, _ = clock.time(lambda: set_up(spec))
    result = {"setup_s": setup_s}
    if spec["mode"] == "crosscheck":
        result["outputs"] = {
            q["qid"]: serialize(call(semdiff, models, q["op"]))
            for q in spec["queries"] if not q["heavy"]
        }
    elif spec["mode"] == "measure":
        result.update(measure(semdiff, models, spec, clock))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(out_path).write_text(json.dumps(result))


def parse_all(semdiff, files):
    parsers = {".cd": semdiff.parse_cd, ".ad": semdiff.parse_ad, ".om": semdiff.parse_om,
               ".trace": semdiff.parse_trace}
    return {f: parsers[Path(f).suffix](Path(f).read_text(encoding="utf-8")) for f in files}


def call(semdiff, models, op):
    """Run one operation through the names semdiff exports at call time; an
    operation that raises gives an error record, which counts as failed."""
    name, *args = op
    try:
        if name == "cli":
            out, err = io.StringIO(), io.StringIO()
            code = semdiff.run(args, out, err)
            return {"code": code, "out": out.getvalue(), "err": err.getvalue()}
        return getattr(semdiff, name)(models[args[0]], models[args[1]], *args[2:])
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def serialize(result):
    if isinstance(result, dict):
        return result
    if hasattr(result, "value"):
        return {"verdict": result.value.value, "bounded": result.bounded}
    witnesses = []
    for w in result.witnesses:
        if hasattr(w, "objects"):
            witnesses.append([sorted(w.objects.items()), sorted(w.links)])
        else:
            witnesses.append([list(w.inputs), list(w.actions)])
    return {"exhausted": result.exhausted, "witnesses": witnesses}


def digest(output):
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def run_pass(semdiff, models, queries, samples, clock):
    """One pass over every query. Returns (scaled seconds, wall seconds, raw
    results), both times summed over the calls of the pass."""
    results, total, wall = [], 0.0, 0.0
    for q in queries:
        for _ in range(q["reps"]):
            res, seconds, elapsed = clock.time(lambda: call(semdiff, models, q["op"]))
            samples[q["qid"]].append(seconds)
            total += seconds
            wall += elapsed
        results.append(res)
    return total, wall, results


def measure(semdiff, models, spec, clock):
    queries = spec["queries"]
    for q in queries:
        if not q["heavy"]:
            call(semdiff, models, q["op"])
    budget = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    samples = {q["qid"]: [] for q in queries}
    first, digests, mismatches, pass_times = None, None, {q["qid"]: 0 for q in queries}, []
    start = perf_counter()
    while perf_counter() - start < budget or len(pass_times) < spec["min_passes"]:
        pass_s, _, results = run_pass(semdiff, models, queries, samples, clock)
        pass_times.append(pass_s)
        outputs = [serialize(r) for r in results]
        if first is None:
            first, digests = outputs, [digest(o) for o in outputs]
        else:
            for q, o, d in zip(queries, outputs, digests):
                mismatches[q["qid"]] += digest(o) != d
    out = {"passes": len(pass_times), "pass_times": pass_times, "samples": samples,
           "outputs": {q["qid"]: o for q, o in zip(queries, first)}, "mismatches": mismatches}
    if spec["trace"]:
        out["layers"] = traced(semdiff, models, spec, clock, statistics.median(pass_times))
    return out


def traced(semdiff, models, spec, clock, untraced_pass_s):
    """Per-layer values of one set-up parse plus one pass, medians over the
    traced passes; counts must come out the same in every traced pass. Layer
    times are scaled by the ratio of their pass's scaled to wall time."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import COUNTS, Tracer

    queries = spec["queries"]
    tracer = Tracer()
    tracer.install()
    per_pass, pass_times = [], []
    start = perf_counter()
    try:
        while perf_counter() - start < spec["seconds"] / 2 or len(pass_times) < spec["min_passes"]:
            tracer.reset()
            parse_all(semdiff, spec["files"])
            pass_s, wall, _ = run_pass(semdiff, models, queries, {q["qid"]: [] for q in queries}, clock)
            pass_times.append(pass_s)
            per_pass.append({name: v * pass_s / wall if name.endswith("_ms") else v
                             for name, v in tracer.finish().items()})
    finally:
        tracer.uninstall()
    layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    layers["trace.pass_s"] = statistics.median(pass_times)
    layers["trace.untraced_pass_s"] = untraced_pass_s
    layers["trace.overhead_pct"] = 100 * (layers["trace.pass_s"] / untraced_pass_s - 1)
    layers["unsteady_counts"] = [n for n in COUNTS if len({p[n] for p in per_pass}) > 1]
    return layers


if __name__ == "__main__":
    main(*sys.argv[1:3])
