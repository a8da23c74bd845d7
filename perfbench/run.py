"""semdiff benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout. The workload's inputs are generated from the
seed and written as diagram text under ``.perfbench-work/`` (which also keeps
the bytecode cache of the measuring processes); semdiff is then
driven by one measuring process at a time (see worker.py), each answer is
checked against the benchmark's own expected computation (checks.py), and
the last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import METRICS  # noqa: E402

SETUP_PROBES = 8
MIN_PASSES = 2
MEASURE_HASH_SEED = "0"  # every timed process runs under this hash seed
CHECK_HASH_SEED = "1"  # the cross-check repeats the light queries under another one
END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("verdict_geomean_ms", "ms"), ("diff_geomean_ms", "ms"),
    ("witnesses_per_s", "1/s"), ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def spawn(spec, workdir, tag, hash_seed, timeout):
    """Run one worker process to its end and return what it wrote. Bytecode is
    cached under the work directory, so imports are timed warm, as installed
    code runs, and nothing is written outside the checkout."""
    spec_path, out_path = workdir / f"{tag}.spec.json", workdir / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPYCACHEPREFIX=str(workdir.parent / "pycache"))
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(out_path.read_text())


def witness_count(q, out):
    """Witnesses a diff query returned, read from its output."""
    if "witnesses" in out:
        return len(out["witnesses"])
    if "code" not in out or out["code"] != 1:
        return 0
    fmt = q.expect["format"]
    if fmt == "json":
        return len(json.loads(out["out"])["witnesses"])
    if fmt == "dot":
        return len(checks.dot_blocks(out["out"]))
    return int(out["out"].split(" ", 1)[0])


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def judge(wl, measured, crossed):
    """(failed query ids, unexpected problems) over every checked output."""
    ctx = checks.Context(wl.texts)
    failed, unexpected = set(), []
    for q in wl.queries:
        out = measured["outputs"][q.qid]
        try:
            problems = checks.check(ctx, q, out)
        except Exception as exc:  # a checker that cannot read an answer rejects it
            problems = [f"unreadable answer ({type(exc).__name__}: {exc})"]
        if measured["mismatches"][q.qid]:
            problems.append(f"output changed in {measured['mismatches'][q.qid]} later passes")
        if q.qid in crossed and crossed[q.qid] != out:
            problems.append(f"output differs under PYTHONHASHSEED={CHECK_HASH_SEED}")
        if problems:
            failed.add(q.qid)
            if q.known_fault is None:
                unexpected.append((q.qid, problems))
            else:
                print(f"known fault, {q.qid}: {q.known_fault}; {problems[0]}", file=sys.stderr)
    return failed, unexpected


def end_to_end(wl, measured, setup_times):
    med = {q.qid: statistics.median(measured["samples"][q.qid]) for q in wl.queries}
    diffs = [q for q in wl.queries if q.kind == "diff"]
    found = sum(witness_count(q, measured["outputs"][q.qid]) for q in diffs)
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(measured["pass_times"]),
        "verdict_geomean_ms": 1e3 * geomean([med[q.qid] for q in wl.queries if q.kind == "verdict"]),
        "diff_geomean_ms": 1e3 * geomean([med[q.qid] for q in diffs]),
        "witnesses_per_s": found / sum(med[q.qid] for q in diffs),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def measure_workload(wl, root, seconds, trace):
    """Write the inputs, then run the set-up probes, the measuring process and
    the cross-check one after another. Returns (setup times, measured, crossed)."""
    workdir = root / ".perfbench-work" / f"{wl.name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        for f, text in wl.texts.items():
            (workdir / f).write_text(text, encoding="utf-8")
        base = {"workdir": str(workdir), "src": str(root / "src"), "files": sorted(wl.texts),
                "queries": [vars(q) for q in wl.queries], "seconds": seconds,
                "trace": trace, "min_passes": MIN_PASSES}

        def probe(i):
            return spawn(dict(base, mode="setup"), workdir, f"setup{i}", MEASURE_HASH_SEED, 60)["setup_s"]

        probe("warm")  # fills the bytecode cache
        # Half the set-up probes run before the measuring process and half after
        # it, so that one slow spell of the machine does not hold all of them.
        setup_times = [probe(i) for i in range(SETUP_PROBES // 2)]
        measured = spawn(dict(base, mode="measure"), workdir, "measure", MEASURE_HASH_SEED, 60 + 4 * seconds)
        setup_times += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
        crossed = spawn(dict(base, mode="crosscheck"), workdir, "cross", CHECK_HASH_SEED, 60)["outputs"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup_times, measured, crossed


def bench(args, root):
    wl = workloads.build(args.workload, args.seed, root / "tests" / "fixtures")
    setup_times, measured, crossed = measure_workload(wl, root, args.seconds, bool(args.trace))
    failed, unexpected = judge(wl, measured, crossed)
    for qid, problems in unexpected:
        print(f"WRONG {qid}: " + "; ".join(problems), file=sys.stderr)
    per_pass = sum(q.reps for q in wl.queries)
    failed_per_pass = sum(q.reps for q in wl.queries if q.qid in failed)
    correct = not unexpected
    if args.trace:
        layers = measured["layers"]
        if layers["unsteady_counts"]:
            print(f"counts differ between traced passes: {layers['unsteady_counts']}", file=sys.stderr)
            correct = False
        metrics = {name: (layers[name], unit) for name, unit, _ in METRICS}
        print(f"trace overhead: {layers['trace.overhead_pct']:.1f}% "
              f"(traced pass {layers['trace.pass_s']:.3f} s, untraced {layers['trace.untraced_pass_s']:.3f} s)")
    else:
        units = dict(END_TO_END)
        metrics = {name: (value, units[name]) for name, value in end_to_end(wl, measured, setup_times).items()}
    print(f"workload {args.workload}, seed {args.seed}: {measured['passes']} passes of "
          f"{len(wl.queries)} queries ({per_pass} calls each)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    return {
        "correct": correct,
        "attempted": measured["passes"] * per_pass,
        "failed": measured["passes"] * failed_per_pass,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "semdiff" / "__init__.py").is_file():
        print(f"no semdiff sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = bench(args, root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
