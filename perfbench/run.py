#!/usr/bin/env python3
"""pinncert benchmark: one workload per call, in one process.

    python3 perfbench/run.py --workload decay1d --seed 1 --seconds 50 --trace 0

Runs the workload's CLI chain (``pinncert.cli.main``) repeatedly for
``--seconds`` seconds at one seed, checks every output and prints a report.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
traced run alternates untraced and traced repetitions, so it also reports
the tracing overhead.  Exit code 0 when the outputs are correct, 1 on a
rigor violation, a non-finite total, a determinism mismatch or a changed
exact-repeat count, 2 when the pinncert sources are missing.

The package is imported from ``src/`` next to this directory, never from an
installed copy.  Work files go to ``.perfbench_work/`` and span dumps to
``.perfbench_out/`` at the repository root; both are git-ignored.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

E2E = [
    ("setup_s", "s", "lower"),
    ("train_epochs_per_s", "1/s", "higher"),
    ("certify_per_s", "1/s", "higher"),
    ("reference_per_s", "1/s", "higher"),
    ("surrogate_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("final_loss", "1", "lower"),
    ("cert_over_actual_p50", "ratio", "lower"),
]
# printed with the end-to-end metrics but not gated: see README.md
REPORTED = [("surrogate_wrap_frac", "ratio", "higher"), ("ops_failed_frac", "ratio", "lower")]

SETUP_REPS = 3
MIN_REPS = 3            # determinism needs two
MIN_TRACED_REPS = 2     # exact-repeat counts need two


def import_seconds():
    """Seconds a fresh interpreter takes to import the pinncert CLI."""
    code = ("import time; t = time.perf_counter(); import pinncert.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    import numpy
    import scipy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or sha
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    return (f"git {sha}; python {sys.version.split()[0]}; numpy {numpy.__version__}; "
            f"scipy {scipy.__version__}; nproc {os.cpu_count()}; "
            f"blas {info.get('name')} {info.get('version')} threads {threads}")


def end_to_end(reps, setup_samples):
    """End-to-end values as {name: (value, how it was measured)}.

    Timings are medians of the per-call times scaled by their bracketing
    host-speed probes (hostspeed.py); the unscaled medians are printed beside
    them."""
    import numpy as np
    from hostspeed import scaled

    times, pairs = zip(*setup_samples)
    out = {"setup_s": (statistics.median(scaled(times, pairs)),
                       f"median of {len(times)} set-ups; unscaled "
                       f"{statistics.median(times):.4g} s")}
    for name, stage, work in (("train_epochs_per_s", "train", reps[0].epochs),
                              ("certify_per_s", "certify", reps[0].certificates),
                              ("reference_per_s", "reference", reps[0].references),
                              ("surrogate_s", "surrogate", None)):
        times = [s for r in reps for s in r.stage_s.get(stage, [])]
        pairs = [p for r in reps for p in r.probe_s.get(stage, [])]
        if not times:
            continue
        med = statistics.median(scaled(times, pairs))
        raw = statistics.median(times)
        value, unscaled = (med, raw) if work is None else (work / med, work / raw)
        out[name] = (value, f"median of {len(times)} calls; unscaled {unscaled:.4g}")
    same = f"identical in all {len(reps)} repetitions"
    out["final_loss"] = (reps[0].final_loss, same)
    if reps[0].cert_over_actual is not None and len(reps[0].cert_over_actual):
        out["cert_over_actual_p50"] = (float(np.median(reps[0].cert_over_actual)),
                                       f"over {len(reps[0].cert_over_actual)} certificates")
    out["surrogate_wrap_frac"] = (reps[0].wrap_frac, same)
    # after the first repetition: later ones only add allocator fragmentation
    out["peak_rss_mb"] = (reps[0].peak_rss_mb, "process peak after the first repetition")
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    out["ops_failed_frac"] = (failed / attempted,
                              f"{failed} of {attempted} operations in the repetitions")
    return out


def check_reps(reps):
    """Wrong outputs: rigor problems and determinism mismatches."""
    problems = []
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {p}" for p in rep.problems]
        diff = [n for n, h in rep.hashes.items() if h != reps[0].hashes.get(n)]
        if diff:
            problems.append(f"rep {i}: not byte-identical to rep 0: {', '.join(diff)}")
    return problems


def measure(wl, setup, seed, seconds, workdir, log, tracer=None):
    """Repetitions until the time is up.  In a traced run they alternate
    untraced and traced, starting untraced, and each traced repetition gets
    its own span window.  Only an untraced run brackets stages by probes."""
    from pipeline import run_rep

    untraced, traced, i = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = tracer is not None and i % 2 == 1
        if use_tracer:
            tracer.reset(f"{wl.name}-seed{seed}-rep{i}")
        rep_dir = workdir / f"rep{i}"
        rep = run_rep(wl, setup, rep_dir, log, tracer if use_tracer else None,
                      host_probe=tracer is None)
        shutil.rmtree(rep_dir, ignore_errors=True)
        if use_tracer:
            traced.append((rep, tracer.snapshot()))
        else:
            untraced.append(rep)
        i += 1
        walls = [r.wall_s for r in untraced] + [r.wall_s for r, _ in traced]
        enough = (len(walls) >= MIN_REPS
                  and (tracer is None or len(traced) >= MIN_TRACED_REPS))
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            break
    return untraced, traced


def run_untraced(wl, seed, seconds, workdir, log):
    from hostspeed import probe_seconds
    from pipeline import make_setup

    probe_seconds()                  # warm-up
    setups, setup_samples = [], []
    for k in range(SETUP_REPS):
        before = probe_seconds()
        imported = import_seconds()
        setups.append(make_setup(wl, seed, workdir / f"setup-{k}", log))
        setup_samples.append((imported + setups[-1].seconds, (before, probe_seconds())))
    reps, _ = measure(wl, setups[0], seed, seconds, workdir, log)
    metrics = end_to_end(reps, setup_samples)
    problems = check_reps(reps)
    attempted = sum(r.ops for r in reps) + sum(s.ops for s in setups)
    failed = sum(r.failed for r in reps) + sum(s.failed for s in setups)
    notes = sorted({n for r in reps for n in r.notes})
    return metrics, E2E + REPORTED, problems, attempted, failed, notes, len(reps)


def run_traced(wl, seed, seconds, workdir, log):
    import layers
    from pipeline import make_setup
    from spans import Tracer

    tracer = Tracer()
    layers.register_hooks(tracer)
    tracer.reset(f"{wl.name}-seed{seed}-setup")
    setup = make_setup(wl, seed, workdir / "setup", log, tracer)
    setup_snapshot = tracer.snapshot()
    untraced, traced = measure(wl, setup, seed, seconds, workdir, log, tracer)
    per_rep = [layers.rep_metrics(*snap) for _, snap in traced]
    from_setup = layers.rep_metrics(*setup_snapshot)
    missing = {name for name in layers.PROBED
               if name not in per_rep[0] and name not in from_setup}
    tracer.reset(f"{wl.name}-seed{seed}-probe")
    probes = layers.run_probes(tracer, wl, setup, missing)
    probe_snapshot = tracer.snapshot()
    values = layers.combine(per_rep, probes)
    from_probe = layers.rep_metrics(*probe_snapshot)
    for name in layers.PROBED:
        value = from_setup.get(name, from_probe.get(name))
        if name not in values and value is not None:
            values[name] = value
    walls_u = [r.wall_s for r in untraced]
    walls_t = [r.wall_s for r, _ in traced]
    values["trace.overhead_s"] = statistics.median(walls_t) - statistics.median(walls_u)
    reps = untraced + [r for r, _ in traced]
    problems = check_reps(reps)
    problems += [f"exact-repeat count changed: {m}"
                 for m in layers.count_mismatches(per_rep, probes)]
    snapshots = [setup_snapshot, probe_snapshot] + [snap for _, snap in traced]
    dump_spans(wl.name, snapshots)
    metrics = {name: (value, "") for name, value in values.items()}
    attempted = sum(r.ops for r in reps) + setup.ops
    failed = sum(r.failed for r in reps) + setup.failed
    notes = sorted({n for r in reps for n in r.notes})
    failed_hooks = {key.split(":", 1)[1] for _, counts, _ in snapshots
                    for key in counts if key.startswith("hook_failed:")}
    notes += [f"counter hook failed, its metrics are absent: {name}"
              for name in sorted(failed_hooks)]
    notes.append(f"{len(traced)} traced and {len(untraced)} untraced repetitions; tracing "
                 f"overhead {values['trace.overhead_s']:.4g} s per repetition (traced median "
                 f"{statistics.median(walls_t):.4g} s, untraced "
                 f"{statistics.median(walls_u):.4g} s)")
    if "surrogate.amortization" in values:
        notes.append(f"surrogate.amortization = certify.bound_ms_p50 "
                     f"{values['certify.bound_ms_p50']:.4g} ms / surrogate.evaluate_ms "
                     f"{values['surrogate.evaluate_ms']:.4g} ms")
    return metrics, layers.PER_LAYER, problems, attempted, failed, notes, len(traced)


def dump_spans(workload, snapshots):
    import gzip

    from spans import self_times

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with gzip.open(out / f"{workload}-spans.csv.gz", "wt") as fh:
        fh.write("run_id,index,name,start,end,parent,self_s\n")
        for spans, _, _ in snapshots:
            for i, (s, self_s) in enumerate(zip(spans, self_times(spans))):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.run_id},{i},{s.name},{s.start!r},{s.end!r},{parent},{self_s!r}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed; defaults to the preset's shipped seed")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "pinncert" / "__init__.py").is_file():
        print(f"error: pinncert sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads fixed, before numpy loads, for this process and its
    # children: two OpenBLAS threads on a 2-core host gain little at these
    # array sizes but make the timings and the peak memory vary between runs
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from pipeline import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.shipped_seed if args.seed is None else args.seed
    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {wl.name} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    print(environment())
    with open(workdir / "cli.log", "w") as log:
        run = run_traced if args.trace else run_untraced
        metrics, table, problems, attempted, failed, notes, samples = run(
            wl, seed, args.seconds, workdir, log)
    for name, unit, better in table:
        if name in metrics:
            value, how = metrics[name]
            print(f"  {name:38s} {value:14.6g} {unit:6s} {better} is better"
                  + (f"; {how}" if how else ""))
        else:
            print(f"  {name:38s} absent")
    for note in notes:
        print(f"  note: {note}")
    for problem in problems:
        print(f"  WRONG OUTPUT: {problem}")
    print(f"  wall {time.perf_counter() - started:.1f} s, {samples} repetitions measured")
    correct = not problems and all(math.isfinite(value) for value, _ in metrics.values())
    names = {name for name, _, _ in table} - {name for name, _, _ in REPORTED}
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name][0]), "unit": unit}
                    for name, unit, _ in table
                    if name in names and name in metrics and math.isfinite(metrics[name][0])},
    }
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
