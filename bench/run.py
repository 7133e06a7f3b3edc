"""masym benchmark: one workload per process, one op at a time.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload screen-radial --seed 1 --seconds 30 --known-failures 1

Four workloads are defined in ``workloads.py``; BENCHMARK.json at the
repository root declares the ones a regression gate runs and the
metrics.  A run makes its inputs from ``--seed``, sets the workload up
(``SETUP_REPEATS`` times untraced; ``setup_s`` is the import time plus
the median), then runs whole passes over the workload's ops in a closed
loop with one client until ``--seconds`` have elapsed.  Every op's output
is checked against a reference from theory; an op fails on an unexpected
exit code, an exception, a wrong verdict or outcome, or a missed accuracy
bound, and its reason is kept.  Ops that fail on the program as it
stands are marked ``known_failure`` in ``workloads.py`` and are left out
unless ``--known-failures 1`` is given, so a default run measures only
ops that succeed; with the flag they run in every pass, and their reasons
and the ``fail_ratio`` show what a fix changes.

``--trace 0`` reports the end-to-end metrics: ``op_rel`` (each op's
wall time over the reference kernel of ``calibration.py``, averaged over
a pass, median over passes), ``op_tail_rel`` (tail of the per-op ratio),
``setup_s`` and ``peak_rss_mb``; the same figures in seconds (``op_s``,
``op_tail_s``), ``fail_ratio`` and the workload's accuracy figures are
printed beside them.  ``--trace 1`` traces the
set-up once, runs untraced and then traced passes for ``--seconds``
each, and reports the per-layer metrics for one set-up plus one pass,
the pass figures averaged over the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  One record per
op (wall time, reference timings, outcome, reason, detail and,
traced, its spans) goes to ``bench/out/<workload>-seed<seed>-trace<trace>.jsonl``
after a header line with the machine stamp.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CALIBRATE_EVERY_S = 0.5
SETUP_REPEATS = 3


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _selected_ops(wl, traced, known_failures):
    return [op for op in wl.ops(traced) if known_failures or not op.known_failure]


def _run_passes(wl, seconds, recorder, op_ids, traced, known_failures):
    """Whole passes of the workload's ops until ``seconds`` have elapsed.

    The reference kernel is timed before the first op and again once at
    least ``CALIBRATE_EVERY_S`` have passed since it was last timed; each
    op's ``rel`` is its wall time over the mean of the two reference
    timings that bracket it.
    """
    from calibration import reference_seconds

    records, pending = [], []
    reference_seconds()  # the first timing in a process runs cold
    start = last_ref_t = time.perf_counter()
    ref = reference_seconds()
    for pass_no in itertools.count():
        for op in _selected_ops(wl, traced, known_failures):
            op_id = next(op_ids)
            span, first_span = None, len(recorder.spans) if traced else 0
            t0 = time.perf_counter()
            if traced:
                with recorder.op_span(op_id, "bench.op") as span:
                    result, error = _call(op.run)
            else:
                result, error = _call(op.run)
            wall = time.perf_counter() - t0
            if error is None:
                ok, reason, detail = op.check(result)
            else:
                ok, reason, detail = False, f"{type(error).__name__}: {error}", {}
            wl.after_op()
            record = {"op": op_id, "pass": pass_no, "name": op.name, "wall_s": wall,
                      "ref_before_s": ref,
                      "outcome": "ok" if ok else "failed", "reason": reason,
                      "detail": detail}
            if span is not None:
                span["attrs"].update({"op_name": op.name,
                                      "artifact_bytes": detail.get("artifact_bytes", 0)})
                record["spans"] = recorder.spans[first_span:]
            records.append(record)
            pending.append(record)
            if time.perf_counter() - last_ref_t >= CALIBRATE_EVERY_S:
                ref = _close_pending(pending)
                last_ref_t = time.perf_counter()
        if time.perf_counter() - start >= seconds:
            if pending:
                _close_pending(pending)
            return records, pass_no + 1


def _close_pending(pending):
    """Time the reference kernel and give the ops since the last timing their rel."""
    from calibration import reference_seconds

    ref = reference_seconds()
    for r in pending:
        r["ref_after_s"] = ref
        r["rel"] = r["wall_s"] / (0.5 * (r["ref_before_s"] + ref))
    pending.clear()
    return ref


def _call(fn):
    # The boundary between the benchmark and the program: any exception
    # an op raises is that op's failure, recorded with its reason.
    try:
        return fn(), None
    except Exception as err:
        return None, err


def _trace_targets():
    import masym.radial

    def frame_nodes(frame):
        return {"nodes": int(len(frame.node_idx))}

    def history_len(res):
        if isinstance(res, masym.radial.NoSolution):
            return {"nosolution_history_len": len(res.history)}
        return {}

    return [
        ("cli.main", "masym.cli", "main", None),
        ("gridsolve.solve_system_fd", "masym.gridsolve", "solve_system_fd", None),
        ("gridsolve.solve_scalar_fd", "masym.gridsolve", "solve_scalar_fd", None),
        ("gridsolve.write_solution_csv", "masym.gridsolve", "write_solution_csv", None),
        ("gridsolve.write_solution_binary", "masym.gridsolve", "write_solution_binary",
         None),
        ("rhs.eval_f", "masym.rhs", "eval_f", None),
        ("rhs.check_hypotheses", "masym.rhs", "check_hypotheses", None),
        ("radial.solve_coupled_radial", "masym.radial", "solve_coupled_radial",
         history_len),
        ("movingplane.lambda_sweep", "masym.movingplane", "lambda_sweep", None),
        ("movingplane.build_frame", "masym.movingplane", "build_frame", frame_nodes),
        ("movingplane.linearize", "masym.movingplane", "linearize", None),
        ("movingplane.verify_elliptic_inequality", "masym.movingplane",
         "verify_elliptic_inequality", None),
        ("movingplane.certify_monotonicity", "masym.movingplane",
         "certify_monotonicity", None),
        ("movingplane.certify_symmetry", "masym.movingplane", "certify_symmetry", None),
        ("movingplane.boundary_checks", "masym.movingplane", "boundary_checks", None),
        ("domains.critical_planes", "masym.domains", "critical_planes", None),
        ("domains.check_convex_in_direction", "masym.domains",
         "check_convex_in_direction", None),
        ("linalg.spsolve", "scipy.sparse.linalg", "spsolve", None),
        ("linalg.splu", "scipy.sparse.linalg", "splu", None),
        ("linalg.spilu", "scipy.sparse.linalg", "spilu", None),
        ("linalg.gmres", "scipy.sparse.linalg", "gmres", None),
    ]


def _traced_namespaces():
    # the workloads module imported the public names it calls, so it is
    # patched like the program's own modules
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "masym" or name.startswith("masym.")
                                  or name in ("scipy.sparse.linalg", "workloads"))]


def _stamp(args, wl):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "known_failures": bool(args.known_failures),
            "ops_left_out": [op.name for op in wl.ops(False)
                             if op.known_failure and not args.known_failures],
            "inputs": wl.inputs(), "nproc": NPROC,
            "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loop": "closed, one client",
            "setup_repeats": SETUP_REPEATS}


def _import_program():
    """Import masym from this checkout's src/; None after printing why not."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import masym
        import workloads
    except ImportError as err:
        print(f"cannot import the program from {src}: {err}", file=sys.stderr)
        return None
    if not os.path.abspath(masym.__file__).startswith(src + os.sep):
        print(f"masym was imported from {masym.__file__}, not from {src}",
              file=sys.stderr)
        return None
    return workloads.WORKLOADS


def run_workload(args, spec):
    t0 = time.perf_counter()
    registry = _import_program()  # timed as part of set-up
    if registry is None:
        return 2
    if args.workload not in registry:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(registry)}",
              file=sys.stderr)
        return 2
    from spans import Recorder
    import metrics
    import_s = time.perf_counter() - t0

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    recorder = Recorder() if args.trace else None
    wl = registry[args.workload](args.seed, workdir, recorder)
    op_ids = itertools.count(1)
    try:
        if args.trace:
            recorder.install(_trace_targets(), _traced_namespaces())
            try:
                with recorder.op_span(0, "bench.setup"):
                    wl.setup()
            finally:
                recorder.uninstall()
            untraced, _ = _run_passes(wl, args.seconds, recorder, op_ids, False,
                                       args.known_failures)
            recorder.install(_trace_targets(), _traced_namespaces())
            try:
                records, passes = _run_passes(wl, args.seconds, recorder, op_ids, True,
                                               args.known_failures)
            finally:
                recorder.uninstall()
            overhead = (statistics.median(r["wall_s"] for r in records)
                        - statistics.median(r["wall_s"] for r in untraced))
            setup_spans = [s for s in recorder.spans if s["op"] == 0]
            pass_spans = [s for s in recorder.spans if s["op"] not in (None, 0)]
            values = metrics.per_layer(setup_spans, pass_spans, passes, wl.probes(),
                                       overhead)
            declared = spec["per_layer"]
            shares = metrics.layer_shares(pass_spans)
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                s0 = time.perf_counter()
                wl.setup()
                setups.append(time.perf_counter() - s0)
            records, passes = _run_passes(wl, args.seconds, None, op_ids, False,
                                           args.known_failures)
            tail_p, tail_v, n, resolved = metrics.tail_percentile(
                [r["wall_s"] for r in records])
            values = {"op_rel": metrics.pass_median(records, "rel"),
                      "op_tail_rel": metrics.tail_percentile(
                          [r["rel"] for r in records])[1],
                      "setup_s": import_s + statistics.median(setups),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      / 1024.0}
            declared = spec["end_to_end"]
            setup_spans, shares = [], None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(names)}")
    failed = sum(1 for r in records if r["outcome"] != "ok")
    stamp = _stamp(args, wl)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"stamp": stamp, "passes": passes,
                             "setup_spans": setup_spans,
                             "layer_shares": shares}) + "\n")
        for r in records:
            fh.write(json.dumps(r) + "\n")

    w = args.workload
    print(f"{w}: nproc {NPROC}, threads {stamp['thread_caps']}, python "
          f"{stamp['python']}, numpy {stamp['numpy']}, scipy {stamp['scipy']}, "
          f"seed {args.seed}, inputs {stamp['inputs']}")
    print(f"{w}: {len(records)} ops in {passes} passes, {failed} failed; records in "
          f"{os.path.relpath(path, ROOT)}")
    if stamp["ops_left_out"]:
        print(f"{w}: known failures left out (run them with --known-failures 1): "
              + ", ".join(stamp["ops_left_out"]))
    for r in records:
        if r["outcome"] != "ok" and r["pass"] == 0:
            print(f"{w}: FAILED op {r['name']!r}: {r['reason']}")
    units = {m["name"]: m["unit"] for m in declared}
    for name in names:
        print(f"{w}: {name} = {values[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"{w}: op_s = {metrics.pass_median(records, 'wall_s'):.6g} s, "
              f"op_tail_s = {tail_v:.6g} s; "
              f"the tails are the p{tail_p:g} of {n} ops"
              + ("" if resolved else " (unresolved: fewer than 20 ops, so the median)"))
        print(f"{w}: fail_ratio = {metrics.fail_ratio(records):.6g} "
              f"({failed}/{len(records)})")
        for name, (value, unit) in wl.summary(records).items():
            print(f"{w}: {name} = {value:.6g} {unit}")
    else:
        print(f"{w}: layer shares of op time " + ", ".join(
            f"{k} {v:.3f}" for k, v in shares.items()))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in names}}))
    return 0


def run_all(args):
    """Every workload, each in its own process; returns the worst exit code."""
    registry = _import_program()
    if registry is None:
        return 2
    worst = 0
    for name in registry:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--known-failures", str(args.known_failures)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description="masym benchmark")
    ap.add_argument("--workload", required=True,
                    help="coupled-disk, certify-sweep, levelset-planes, screen-radial "
                         "or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--known-failures", type=int, choices=(0, 1), default=0,
                    help="also run the ops marked as failing on the program as it stands")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, _load_spec())


if __name__ == "__main__":
    # Cap BLAS and OpenMP threads at the cores this process may use,
    # before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.exit(main())
