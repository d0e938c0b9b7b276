"""One job of a benchmark run, in a process of its own.

``run.py`` starts this script once for every job, on the program in
``src/`` or on the frozen reference copy in ``reference/``; the process
finds ``mouldnf`` on its ``PYTHONPATH``.  It runs the job with one
thread, checks its output, and writes a JSON record to ``--result``:
wall time, report digest, error, peak resident memory and, when traced,
the job's span aggregates and counters; its spans go to ``--spans``,
once, at the end.  A fresh process per job is what a user of the CLI
gets on every command.

The checks that compare jobs, and the per-layer summary, are functions
here that ``run.py`` calls on the records.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 90
# Self time of the traced layers may miss at most this share of a job's
# traced wall time; the rest is the benchmark's own output check.
ACCOUNTING_TOLERANCE = 0.05

MODULES = ("liealg", "classical", "quantum", "estimates", "mould", "solver",
           "alphabet", "observables")


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def layer_metrics(spans, counts):
    """The per-layer metrics of one cycle from its span aggregates
    ``name -> [calls, inclusive s, self s]`` and counters."""

    def calls(name):
        return spans[name][0] if name in spans else 0

    def incl(name):
        return spans[name][1] if name in spans else 0.0

    def self_s(name):
        return spans[name][2] if name in spans else 0.0

    m = {
        "liealg.apply_exp_ad.s": incl("liealg.apply_exp_ad"),
        "liealg.apply_exp_ad.brackets": counts["liealg.apply_exp_ad.brackets"],
        "liealg.apply_exp_ad.out_modes": counts["liealg.apply_exp_ad.out_modes"],
        # the word-tree walk has two entry points; they never nest
        "liealg.contract.s": incl("liealg.contract") + incl("liealg.order_increment"),
        "liealg.contract.calls": calls("liealg.contract") + calls("liealg.order_increment"),
        "liealg.contract.brackets": counts["liealg.contract.brackets"],
        "liealg.contract.empty_brackets": counts["liealg.contract.empty_brackets"],
        "liealg.normalize.s": incl("liealg.normalize"),
        "liealg.normalize.E_modes": counts["liealg.normalize.E_modes"],
        "estimates.fit_growth_constants.s": incl("estimates.fit_growth_constants"),
        "estimates.fit_growth_constants.words": counts["estimates.fit_growth_constants.words"],
        "estimates.verify_remainder_bound.s": incl("estimates.verify_remainder_bound"),
        "mould.mlog.evals": calls("mould.mlog"),
        "mould.mlog.self_s": self_s("mould.mlog"),
        "mould.mexp.evals": calls("mould.mexp"),
        "mould.mexp.self_s": self_s("mould.mexp"),
        "mould.check_alternal.s": incl("mould.check_alternal"),
        "solver.values.calls": calls("solver.values"),
        "solver.values.self_s": self_s("solver.values"),
        "alphabet.Word.constructed": counts["alphabet.Word.constructed"],
        "alphabet.beta.s": incl("alphabet.beta"),
        "alphabet.beta.calls": calls("alphabet.beta"),
        "alphabet.shuffles.s": incl("alphabet.shuffles"),
        "alphabet.shuffles.calls": calls("alphabet.shuffles"),
        "alphabet.is_resonant.calls": counts["alphabet.is_resonant.calls"],
        "exact.qi_ops": counts["exact.qi_ops"],
        "observables.norm_rho.s": incl("observables.norm_rho"),
        "observables.norm_rho.calls": calls("observables.norm_rho"),
        "observables.add.s": incl("observables.add"),
        "observables.add.calls": calls("observables.add"),
        "observables.add.modes": counts["observables.add.modes"],
        "cli.self_s": self_s("cli.main"),
    }
    for prefix in ("classical.poisson_bracket", "quantum.moyal_bracket"):
        m[prefix + ".s"] = incl(prefix)
        m[prefix + ".calls"] = calls(prefix)
        m[prefix + ".pairs"] = counts[prefix + ".pairs"]
        m[prefix + ".out_modes"] = counts[prefix + ".out_modes"]
    m["quantum.weyl_matrix.s"] = incl("quantum.weyl_matrix")
    m["quantum.weyl_matrix.calls"] = calls("quantum.weyl_matrix")
    m["quantum.weyl_matrix.entries"] = counts["quantum.weyl_matrix.entries"]
    for module in MODULES:
        m[module + ".self_s"] = sum(v[2] for k, v in spans.items() if k.startswith(module + "."))
    return m


def deterministic(spans, counts):
    """Everything of a job's trace that must repeat exactly."""
    out = {name: agg[0] for name, agg in spans.items()}
    out.update(counts)
    return dict(sorted(out.items()))


def run_job(mouldnf, workload, config, out_dir, job_id, traced):
    """Run one job, wrapping the layers first when ``traced``; return its
    record and the tracer, or ``None``."""
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(mouldnf)
        tracer.job = job_id
        tracer.open(tracing.JOB)
    record = {}
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    start = time.perf_counter()
    try:
        record["digest"] = workload.run(mouldnf, config, out_dir)
        record["error"] = None
    except (Exception, SystemExit) as err:  # any raise fails the job, never the run
        record["digest"] = None
        record["error"] = f"{type(err).__name__}: {err}"
    finally:
        record["seconds"] = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.close()
            tracer.uninstall()
    if tracer is not None:
        spans = {k: list(v) for k, v in tracer.spans.items()}
        wall = spans.pop(tracing.JOB)[1]
        record["accounted_share"] = sum(v[2] for v in spans.values()) / wall
        record["spans"] = spans
        record["counts"] = dict(tracer.counts)
        record["missing_names"] = tracer.missing
    return record, tracer


def check(jobs):
    """Fail jobs whose report digest, or whose deterministic trace, differs
    from the first job of the same kind; return the failure messages."""
    digests, traces = {}, {}
    for job in jobs:
        if job["error"] is not None:
            continue
        kind = job["kind"]
        if job["digest"] != digests.setdefault(kind, job["digest"]):
            job["error"] = "report digest differs from the first job of its kind"
        elif "counts" in job:
            det = deterministic(job["spans"], job["counts"])
            if det != traces.setdefault(kind, det):
                job["error"] = "layer counts differ from the first traced job of its kind"
            elif not 1.0 - ACCOUNTING_TOLERANCE <= job["accounted_share"] <= 1.0 + 1e-9:
                job["error"] = f"layer self times cover {job['accounted_share']:.4f} of the job"
    return [f"cycle {j['cycle']} {j['kind']}: {j['error']}" for j in jobs if j["error"]]


def summarize(jobs, kinds):
    """The per-layer metrics of the traced jobs, per complete cycle and
    the median over cycles, and the deterministic trace of each kind."""
    traced = [j for j in jobs if j["traced"]]
    complete = {j["cycle"] for j in traced if j["kind"] == kinds[-1]}
    per_cycle = {}
    for j in traced:
        if j["cycle"] not in complete:
            continue
        spans, counts = per_cycle.setdefault(j["cycle"], ({}, {}))
        for name, agg in j["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += agg[i]
        for key, value in j["counts"].items():
            counts[key] = counts.get(key, 0) + value
    cycles = [layer_metrics(s, defaultdict(int, c)) for s, c in per_cycle.values()]
    metrics = {name: statistics.median(c[name] for c in cycles) for name in cycles[0]}
    metrics["trace.accounted.share"] = min(j["accounted_share"] for j in traced)
    counts = {}
    for j in traced:
        counts.setdefault(j["kind"], deterministic(j["spans"], j["counts"]))
    return metrics, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True, type=Path, help="the job's generated config")
    parser.add_argument("--out", required=True, type=Path, help="directory for the job's output")
    parser.add_argument("--job", required=True, type=int, help="the job's number in the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="file for the spans of a traced job")
    args = parser.parse_args(argv)

    import mouldnf
    import mouldnf.cli  # noqa: F401  (the CLI is not imported by the package)

    signal.signal(signal.SIGALRM, _on_alarm)
    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    record, tracer = run_job(mouldnf, workloads.WORKLOADS[args.workload], args.config,
                             args.out, args.job, bool(args.trace))
    if tracer is not None and args.spans is not None:
        tracer.write(args.spans)
    record["package"] = str(Path(mouldnf.__file__).parent)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
