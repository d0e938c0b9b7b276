"""Benchmark of ``mouldnf``: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload normalize-cli-n3 --seed 1 --seconds 45 --trace 0

A run generates the workload's inputs from ``--seed``, times ``setup_s``
(fresh interpreters that import ``mouldnf`` and load the workload's
config), then runs jobs, each in a fresh process (``worker.py``).  It is
a closed loop with one client: each job of the program in ``src/`` is
paired with the same job on the frozen reference copy in ``reference/``,
the two run one after the other on one core, in alternating order, and
the next pair starts only when both have returned.  No pair starts once
``--seconds`` have passed and every job kind has run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate run whose first cycle is untraced and
whose later program jobs are traced, and reports the per-layer metrics.
The last line of standard output is the result as one JSON object;
details of the run, its environment and, when traced, its spans are
written under ``perfbench/out/``.

Each job's output is checked, and a job fails when it raises, exceeds its
time limit, fails its check, reports a digest other than the first job
of its kind, or its reference job fails.  Runs of one seed on the same
program source must also give the same digests and layer counts as
earlier runs in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
import workloads  # noqa: E402

RUN_DEADLINE_S = 170
SETUP_REPEATS = 11
# A job process gets this long beyond its own job time limit to end.
EXIT_GRACE_S = 15
# Child processes get one BLAS/OpenMP thread; the program is unchanged.
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
SETUP_CODE = """
import sys
from pathlib import Path
import mouldnf, mouldnf.cli
if Path(mouldnf.__file__).resolve().parent != Path(sys.argv[1]).resolve():
    sys.exit(f"imported mouldnf from {mouldnf.__file__}, not {sys.argv[1]}")
mouldnf.cli.load_config(sys.argv[2], exact=sys.argv[3] == "1").observable()
"""


class RunError(Exception):
    """The run cannot produce a result."""


def environment(root, package):
    def output(cmd):
        try:
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(package),
        "loadavg": os.getloadavg(),
    }


def source_digest(package):
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(env, package, config, exact):
    """Median wall time of fresh interpreters importing ``mouldnf`` and
    loading ``config``; one discarded launch first warms the file cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(package), str(config), "1" if exact else "0"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RunError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return statistics.median(times[1:])


def with_path(env, path):
    """``env`` with ``path`` first on ``PYTHONPATH``."""
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(path), env.get("PYTHONPATH")])))


def run_job(env, args, run_dir, package, config, job, traced):
    """Run one job in a fresh process on the ``mouldnf`` in ``package``;
    return its record."""
    result = run_dir / "job.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
        "--config", str(config), "--out", str(run_dir / "job-out"), "--job", str(job),
        "--trace", "1" if traced else "0", "--result", str(result),
    ]
    if traced:
        cmd += ["--spans", str(run_dir / "spans" / f"{job}.tsv")]
    with open(run_dir / "jobs.log", "a") as log:
        log.write(f"== job {job} {package}\n")
        log.flush()
        try:
            proc = subprocess.run(cmd, env=with_path(env, package.parent), stdout=log, stderr=log,
                                  timeout=worker.JOB_TIMEOUT_S + EXIT_GRACE_S)
        except subprocess.TimeoutExpired as err:
            raise RunError(f"job {job} process did not end; see jobs.log") from err
    if proc.returncode != 0:
        raise RunError(f"job {job} process exited {proc.returncode}; see jobs.log")
    record = json.loads(result.read_text())
    if Path(record["package"]).resolve() != package.resolve():
        raise RunError(f"job {job} imported mouldnf from {record['package']}, not {package}")
    return record


def drive(env, args, run_dir, workload, configs, packages, deadline):
    """The closed loop: pairs of one program job and one reference job,
    cycling through the workload's kinds; returns the pairs."""
    until = time.monotonic() + args.seconds
    # whole cycles run at least up to this one: the untraced cycle and,
    # when tracing, one traced cycle
    last_whole = 1 if args.trace else 0
    pairs = []
    cycle = 0
    while True:
        for i, kind in enumerate(workload.kinds):
            if time.monotonic() > deadline:
                raise RunError(f"run exceeded its deadline of {RUN_DEADLINE_S} s")
            pair = {"cycle": cycle, "kind": kind, "traced": bool(args.trace and cycle > 0)}
            # the order alternates for each kind from cycle to cycle
            order = ("program", "reference") if (cycle + i) % 2 == 0 else ("reference", "program")
            for name in order:
                traced = pair["traced"] and name == "program"
                pair[name] = run_job(env, args, run_dir, packages[name], configs[kind], len(pairs), traced)
            pairs.append(pair)
            whole = cycle > last_whole or (cycle == last_whole and i == len(workload.kinds) - 1)
            if whole and time.monotonic() >= until:
                return pairs
        cycle += 1


def scaled_time(pairs, reference_s):
    """Program job time on the scale of the host the benchmark was defined on:
    ``reference_s`` times the program's total job time over the reference's,
    summed over pairs where both jobs succeeded (over all, if none did).

    Pairing cancels what the host does to both: its cores slow down by up
    to a factor of two for spans of seconds to minutes as other tenants
    load them, which the program's time alone would report as its own.
    """
    ok = [p for p in pairs if p["program"]["error"] is None and p["reference"]["error"] is None] or pairs
    return reference_s * sum(p["program"]["seconds"] for p in ok) / sum(p["reference"]["seconds"] for p in ok)


def compare_with_earlier(records_dir, key, digests, counts):
    """Check this run against earlier runs of the same seed and source;
    return the kinds that differ."""
    path = records_dir / f"{key}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {"digests": {}, "counts": {}}
    differ = sorted(
        {k for k, d in digests.items() if earlier["digests"].get(k, d) != d}
        | {k for k, c in counts.items() if earlier["counts"].get(k, c) != c}
    )
    if not differ:
        earlier["digests"].update(digests)
        earlier["counts"].update(counts)
        records_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(earlier, indent=1, sort_keys=True) + "\n")
    return differ


def declared_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    root = Path.cwd()
    package = root / "src" / "mouldnf"
    if not (package / "__init__.py").is_file():
        print(f"error: no mouldnf sources at {package}", file=sys.stderr)
        return 2
    try:
        declared = declared_metrics(root, args.trace)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    env = dict(os.environ, **THREAD_CAPS)
    run_dir = BENCH_DIR / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    in_dir = run_dir / "inputs"
    in_dir.mkdir(parents=True, exist_ok=True)
    env_record = environment(root, package)
    print("env " + json.dumps(env_record, sort_keys=True), flush=True)

    packages = {"program": package, "reference": BENCH_DIR / "reference" / "mouldnf"}
    try:
        configs = workload.write_inputs(args.seed, in_dir)
        setup_s = measure_setup(with_path(env, root / "src"), package,
                                configs[workload.kinds[0]], workload.exact)
        # Every job runs on one core: the cores of a shared host slow down
        # independently, and the two jobs of a pair must see the same.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        shutil.rmtree(run_dir / "spans", ignore_errors=True)
        if args.trace:
            (run_dir / "spans").mkdir()
        (run_dir / "jobs.log").unlink(missing_ok=True)
        pairs = drive(env, args, run_dir, workload, configs, packages, deadline)
    except (RunError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failures = []
    jobs = {}
    for name in packages:
        jobs[name] = [dict(p[name], cycle=p["cycle"], kind=p["kind"], traced=p["traced"] and name == "program")
                      for p in pairs]
        failures += [f"{name} {line}" for line in worker.check(jobs[name])]
        for pair, job in zip(pairs, jobs[name]):
            pair[name]["error"] = job["error"]
    program_jobs = jobs["program"]
    layers, counts = worker.summarize(program_jobs, workload.kinds) if args.trace else ({}, {})
    digests = {j["kind"]: j["digest"] for j in program_jobs if j["error"] is None}
    key = f"{args.workload}-s{args.seed}-{env_record['source_sha256'][:16]}"
    differ = compare_with_earlier(BENCH_DIR / "out" / "records", key, digests, counts)
    for pair in pairs:
        if pair["program"]["error"] is None and pair["kind"] in differ:
            pair["program"]["error"] = "digest or layer counts differ from an earlier run of this seed"
            failures.append(f"program cycle {pair['cycle']} {pair['kind']}: {pair['program']['error']}")
        if pair["program"]["error"] is None and pair["reference"]["error"] is not None:
            failures.append(f"cycle {pair['cycle']} {pair['kind']}: not timed, its reference job failed")
    failed = sum(1 for p in pairs if p["program"]["error"] is not None or p["reference"]["error"] is not None)
    missing = sorted({n for p in pairs for n in p["program"].get("missing_names", [])})
    if args.trace:
        with open(run_dir / "spans.tsv", "w") as out:
            out.write("name\tstart\tend\tparent\tjob\n")
            for path in sorted((run_dir / "spans").glob("*.tsv"), key=lambda q: int(q.stem)):
                out.writelines(path.read_text().splitlines(keepends=True)[1:])
        shutil.rmtree(run_dir / "spans")
        for pair in pairs:
            for field in ("spans", "counts"):
                pair["program"].pop(field, None)

    untraced = [p for p in pairs if not p["traced"]]
    time_s = scaled_time(untraced, workload.reference_s)
    if args.trace:
        values = dict(layers)
        traced = [p for p in pairs if p["traced"]]
        values["trace.overhead.share"] = scaled_time(traced, workload.reference_s) / time_s - 1.0
    else:
        values = {
            "time_to_solution_s": time_s,
            "setup_s": setup_s,
            "peak_rss_mb": max(p["program"]["peak_rss_mb"] for p in pairs),
        }
    if set(values) != set(declared):
        print(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": declared[name]} for name in sorted(values)}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pairs": pairs, "failures": failures, "environment": env_record,
        "setup_s": setup_s, "missing_names": missing, "metrics": metrics,
    }
    (run_dir / "run.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for line in failures:
        print("failed " + line)
    if missing:
        print("not traced, absent from the program: " + ", ".join(missing))
    medians = {name: statistics.median(p[name]["seconds"] for p in untraced) for name in ("program", "reference")}
    print(f"jobs {len(pairs)} failed {failed} median job {medians['program']:.4f} s,"
          f" reference {medians['reference']:.4f} s, scaled {time_s:.4f} s")
    print(json.dumps({"correct": failed == 0, "attempted": len(pairs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
