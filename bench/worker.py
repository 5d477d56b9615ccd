"""One workload in one fresh interpreter: warm, in-process ``cli.main`` calls.

Modes:
  timed   closed loop, one client, a fixed number of calls planned to last
          about --seconds (workloads.calls_per_run); no tracing.
  traced  the same loop, tracing every other call so the untraced calls
          in between measure the tracing overhead under the same conditions.
  count   the first cycle of calls (one per case) with tracing and Jet
          operation counting; gives the machine-independent work counters.

Calls are timed by ``speed.Clock`` in raw and reference-speed seconds.
Each call writes into its own output prefix under the work directory; the
outputs are checked after the timed loop, so checking takes no time from
the calls.  The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

import speed
import workloads
from tracer import Tracer, layer_times, work_counts

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import nilscroll from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import nilscroll
    import nilscroll.cli

    where = Path(nilscroll.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"nilscroll imported from {where}, not from {SRC}")
    return nilscroll


def output_prefix(i):
    return f"c{i:05d}" if i >= 0 else "warmup"


def run_call(cli, clock, workload, seed, i, tracer=None):
    case, argv, _ = workloads.call_input(workload, seed, i, output_prefix(i))
    stdout, stderr = io.StringIO(), io.StringIO()

    def invoke():
        try:
            return (tracer.run(cli.main, argv) if tracer else cli.main(argv)), None
        except Exception as err:  # a crash is a failed call, not a benchmark error
            return None, f"{type(err).__name__}: {err}"

    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        (rc, error), raw_s, ref_s = clock.time(invoke)
    return {"i": i, "case": case.name, "argv": argv, "call_s": raw_s, "ref_s": ref_s,
            "rc": rc, "error": error, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()[-2000:]}


def check(record, workload, seed):
    """Add the call's failure reason (None when correct) and known defect."""
    out = output_prefix(record["i"])
    case, argv, expect = workloads.call_input(workload, seed, record["i"], out)
    stdout = record.pop("stdout")
    if record["error"] is not None:
        reason = f"raised {record['error']}"
    else:
        reason = workloads.check_call(case, argv, expect, record["rc"], stdout, out)
    record["failure"] = reason
    known = reason is not None and reason == case.known_failure
    record["known_defect"] = case.known_defect if known else None
    return record


def traced_call(cli, clock, tracer, workload, seed, i):
    tracer.install()
    tracer.begin_call(i)
    try:
        record = run_call(cli, clock, workload, seed, i, tracer)
    finally:
        tracer.uninstall()
    totals, counts = tracer.end_call()
    record["layers"] = layer_times(totals)
    record["counts"] = work_counts(totals, counts)
    return record


def installed_version(name):
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def traced_index(i, n_cases):
    """Trace every other call, and each case as often traced as not."""
    shift = i // n_cases if n_cases % 2 == 0 else 0
    return (i + shift) % 2 == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["timed", "traced", "count"], required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work", required=True, help="directory for the CLI outputs")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    result_path = Path(args.result).resolve()
    package = import_package()
    cli = package.cli
    os.makedirs(args.work, exist_ok=True)
    os.chdir(args.work)  # relative output paths keep report bytes machine-independent
    w, seed = args.workload, args.seed
    tracer = Tracer(package, count_jet_ops=args.mode == "count")
    records = []
    with speed.Clock() as clock:
        if args.mode == "count":
            for i in range(len(workloads.WORKLOADS[w])):
                records.append(traced_call(cli, clock, tracer, w, seed, i))
            warmup = window = None
        else:
            warmup = check(run_call(cli, clock, w, seed, -1), w, seed)
            t_start = time.perf_counter()
            for i in range(workloads.calls_per_run(w, args.seconds)):
                if args.mode == "traced" and traced_index(i, len(workloads.WORKLOADS[w])):
                    record = traced_call(cli, clock, tracer, w, seed, i)
                else:
                    record = run_call(cli, clock, w, seed, i)
                record["traced"] = "layers" in record
                records.append(record)
            window = time.perf_counter() - t_start
    # peak memory of the calls themselves, before the checks load any output
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = [check(r, w, seed) for r in records]
    argvs = [tuple(r["argv"]) for r in records]
    if len(set(argvs)) != len(argvs):
        raise SystemExit("benchmark error: two calls of one run share an input")

    spans_file = None
    if args.mode != "timed":
        spans_file = str(result_path.with_suffix(".spans"))
        tracer.write_spans(spans_file)
    result = {
        "mode": args.mode,
        "workload": w,
        "seed": seed,
        "window_s": window,
        "warmup": warmup,
        "calls": records,
        "peak_rss_mb": peak_rss_mb,
        "missing_wrap_targets": sorted(tracer.missing),
        "spans_file": spans_file,
        # read from the installed metadata: importing scipy here would add
        # to the process once the package no longer imports it
        "versions": {"python": sys.version.split()[0],
                     "numpy": installed_version("numpy"),
                     "scipy": installed_version("scipy")},
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
