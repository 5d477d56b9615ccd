"""nilscroll benchmark: one workload, end-to-end or per-layer.

    python3 bench/run.py --workload mesh --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: the median of several fresh-interpreter imports (setup_s), then
a worker interpreter that drives ``nilscroll.cli.main`` warm and in-process
in a closed loop with one client, for a fixed number of calls planned to
last about ``--seconds`` (see ``workloads.calls_per_run``).  ``--trace 1``
measures the per-layer metrics: an ``-X importtime`` breakdown, two counting passes
over the first cycle of calls (whose work counters must agree exactly),
and a timed loop that traces every other call.

Every call's outputs are checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full report (seed, every argument vector, per-case numbers, environment)
is printed on the line before it and written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TIMEOUT_S = 150

IMPORT_SNIPPET = "import sys; sys.path.insert(0, {src!r}); import nilscroll.cli"
# the same import, timed by speed.Clock: prints raw and reference-speed s
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, {bench!r}); import speed\n"
    "with speed.Clock() as clock:\n"
    "    sys.path.insert(0, {src!r}); _, raw, ref = clock.time(__import__, 'nilscroll.cli')\n"
    "print(repr(raw), repr(ref))"
)

# metric names and units come from the benchmark's own definition file
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def python(code_or_args, timeout=TIMEOUT_S, **kwargs):
    args = ["-c", code_or_args] if isinstance(code_or_args, str) else code_or_args
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-1500:]}")
    return proc


# -- set-up and import breakdown ----------------------------------------------


def measure_setup():
    """(raw s, reference-speed s) of importing nilscroll.cli in fresh interpreters.

    One untimed import first writes the bytecode caches, which users of an
    installed package also have.
    """
    python(IMPORT_SNIPPET.format(src=str(SRC)))
    code = SETUP_SNIPPET.format(src=str(SRC), bench=str(BENCH))
    runs = [python(code).stdout.split() for _ in range(SETUP_REPEATS)]
    return [(float(t), float(k)) for t, k in runs]


def parse_importtime(stderr):
    """Import cost by package from ``-X importtime`` output (seconds).

    A package's cost is the cumulative time of its outermost imports, so
    the modules it pulls in count towards it: numpy modules that scipy
    imports count as scipy's.  nilscroll's own cost is the self time of its
    modules, and import.total_s is the whole import of nilscroll.cli.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip())) // 2
        rows.append((level, name.strip(), int(self_us) / 1e6, int(cum_us) / 1e6))
    out = {"import.scipy_s": 0.0, "import.numpy_s": 0.0, "import.nilscroll_s": 0.0,
           "import.total_s": 0.0}
    stack = []  # ancestors' top-level package names; rows are in post-order
    for level, name, self_s, cum_s in reversed(rows):
        del stack[level:]
        top = name.split(".")[0]
        if top in ("scipy", "numpy") and not {"scipy", "numpy"} & set(stack):
            out[f"import.{top}_s"] += cum_s
        if top == "nilscroll":
            out["import.nilscroll_s"] += self_s
            if top not in stack:
                out["import.total_s"] += cum_s
        stack.append(top)
    return out


def measure_imports():
    code = IMPORT_SNIPPET.format(src=str(SRC))
    python(code)
    runs = [parse_importtime(python(["-X", "importtime", "-c", code]).stderr)
            for _ in range(IMPORTTIME_REPEATS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- workers ------------------------------------------------------------------


def worker_args(mode, args, work, tag):
    result = work / f"{tag}.json"
    return result, [str(BENCH / "worker.py"), "--mode", mode, "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--work", str(work / tag), "--result", str(result)]


def run_worker(mode, args, work, tag):
    result, argv = worker_args(mode, args, work, tag)
    python(argv, timeout=TIMEOUT_S)
    return json.loads(result.read_text())


def run_count_passes(args, work):
    """Two counting passes in parallel; their work counters must agree."""
    procs = []
    try:
        for tag in ("count-a", "count-b"):
            result, argv = worker_args("count", args, work, tag)
            procs.append((result, subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)))
        for result, proc in procs:
            _, err = proc.communicate(timeout=TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"count pass exited {proc.returncode}: {err[-1500:]}")
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return [json.loads(result.read_text()) for result, _ in procs]


# -- statistics ---------------------------------------------------------------


def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it.

    Below 21 samples that percentile would lie under the median, so the
    maximum is reported instead, as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, 0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def unexplained(records):
    """Failed calls that no known defect explains."""
    return [r for r in records if r["failure"] and not r["known_defect"]]


def layer_counts(calls):
    """Per-call means of the work counters over one cycle of cases."""
    out = {k: mean(c["counts"][k] for c in calls) for k in calls[0]["counts"]}
    with_frames = [c["counts"] for c in calls if c["counts"]["frames.evals"]]
    out["frames.distinct_ratio"] = mean(
        c["frames.distinct_s"] / c["frames.evals"] for c in with_frames)
    out["jets.ops_per_frame"] = mean(
        c["jets.frame_ops"] / c["frames.evals"] for c in with_frames)
    return out


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "src_lines": src_lines}


# -- the two kinds of run -----------------------------------------------------


def end_to_end(args, work):
    setup = measure_setup()
    res = run_worker("timed", args, work, "timed")
    calls = res["calls"]
    raw = [c["call_s"] for c in calls]
    times = [c["ref_s"] for c in calls]
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "call_s.p50": statistics.median(times),
        "call_s.tail": tail_s,
        "calls_per_s": len(calls) / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    bad = unexplained(calls + [res["warmup"]])
    failed = [c for c in calls if c["failure"]]
    notes = {
        "samples": len(times),
        "call_s.tail": {"percentile": tail_pct, "samples_beyond": beyond},
        "fail_frac": {"failed": len(failed), "attempted": len(calls)},
        "raw_wall_clock": {
            "setup_s": statistics.median(t for t, _ in setup),
            "call_s.p50": statistics.median(raw),
            "call_s.tail": tail(raw)[0],
            "calls_per_s": len(calls) / res["window_s"],
            "setup_samples": [{"raw_s": raw_s, "ref_s": ref} for raw_s, ref in setup],
        },
    }
    return res, metrics, notes, bad, failed


def per_layer(args, work):
    imports = measure_imports()
    count_a, count_b = run_count_passes(args, work)
    problems = []
    for a, b in zip(count_a["calls"], count_b["calls"]):
        if a["counts"] != b["counts"]:
            problems.append(f"work counters differ between two passes of call {a['i']}: "
                            f"{a['counts']} vs {b['counts']}")
    res = run_worker("traced", args, work, "traced")
    traced = [c for c in res["calls"] if c["traced"]]
    untraced = [c for c in res["calls"] if not c["traced"]]
    # span times scale to reference speed by their call's factor
    metrics = {k: mean(c["layers"][k] * c["ref_s"] / c["call_s"] for c in traced)
               for k in traced[0]["layers"]}
    metrics.update(layer_counts(count_a["calls"]))
    metrics.update(imports)
    p50_t = statistics.median(c["ref_s"] for c in traced)
    p50_u = statistics.median(c["ref_s"] for c in untraced) if untraced else p50_t
    metrics.update({"trace.traced_p50_s": p50_t, "trace.untraced_p50_s": p50_u,
                    "trace.overhead_ratio": p50_t / p50_u})
    bad = unexplained(count_a["calls"] + count_b["calls"] + res["calls"] + [res["warmup"]])
    failed = [c for c in res["calls"] if c["failure"]]
    notes = {
        "samples": {"traced": len(traced), "untraced": len(untraced)},
        "per_case_counts": {c["case"]: c["counts"] for c in count_a["calls"]},
        "count_pass_argv": [c["argv"] for c in count_a["calls"]],
        "counters_repeat_exactly": not problems,
        "spans_file": res["spans_file"],
    }
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return res, metrics, notes, bad + problems, failed


def show(name, value, unit, note=""):
    print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nilscroll" / "cli.py").is_file():
        print(f"error: no nilscroll sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        res, metrics, notes, bad, failed = measure(args, work)
        spans = notes.get("spans_file")
        if spans:  # keep the latest trace of this workload and seed
            kept = WORK / f"spans-{args.workload}-seed{args.seed}.txt"
            shutil.move(spans, kept)
            notes["spans_file"] = str(kept.relative_to(ROOT))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
        print(f"error: benchmark could not run: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    calls = res["calls"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**environment(), **res["versions"]},
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes,
        "missing_wrap_targets": res["missing_wrap_targets"],
        "warmup_argv": res["warmup"]["argv"],
        "argv": [c["argv"] for c in calls],
        "failures": [{"i": c["i"], "case": c["case"], "reason": c["failure"],
                      "known_defect": c["known_defect"]} for c in failed],
        "unexplained_failures": [u if isinstance(u, str) else
                                 f"call {u['i']} ({u['case']}): {u['failure']}"
                                 for u in bad],
    }
    report_path = WORK / f"report-{name}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"nilscroll benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  "
          f"({report['environment']['nproc']} cpus, Python "
          f"{report['environment']['python']})")
    for k, unit in units.items():
        note = ""
        if k == "call_s.p50":
            note = f"n={notes['samples']}"
        elif k == "call_s.tail":
            t = notes["call_s.tail"]
            note = (f"p{t['percentile']:.1f}, {t['samples_beyond']} samples beyond, "
                    f"n={notes['samples']}")
        elif k == "setup_s":
            note = f"median of {SETUP_REPEATS} fresh imports"
        elif k == "trace.overhead_ratio":
            note = "traced p50 / untraced p50, alternating calls of one loop"
        show(k, metrics[k], unit, note)
    if not args.trace:
        ff = notes["fail_frac"]
        show("fail_frac", ff["failed"] / ff["attempted"], "ratio",
             f"{ff['failed']} failed of {ff['attempted']} attempted")
        raw = notes["raw_wall_clock"]
        print("  (times above in reference-speed seconds; raw wall clock: "
              + ", ".join(f"{k} {raw[k]:.6g}" for k in
                          ("setup_s", "call_s.p50", "call_s.tail", "calls_per_s")) + ")")
    for f in report["failures"]:
        kind = "known defect" if f["known_defect"] else "FAILED"
        print(f"  {kind}: call {f['i']} {f['case']}: {f['reason']}")
    for u in report["unexplained_failures"]:
        print(f"  unexplained: {u}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
