"""cssol benchmark: one command, three single-threaded workloads.

    python3 perfbench/run.py --workload gamma_descent --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ./src. After
set-up, whole rounds of the workload's operations run until --seconds have
passed (at least one round). Every output is checked against references
made apart from the program. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics; with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
A fuller record of the run goes to perfbench/out/.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one thread everywhere, before NumPy loads: the plain single-threaded
# baseline, with no BLAS, OpenMP or scan threads competing for the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CSS_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("gamma_descent", "field_identities", "pair_algebra")
# set-ups per run, for the median setup_s: this process and the rest in
# child processes that stop after set-up
SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and print its time (used for setup_s)")
    return ap.parse_args(argv)


def import_program():
    """Import cssol from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "cssol", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no program at {init}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import cssol

    if os.path.dirname(os.path.abspath(cssol.__file__)) != os.path.dirname(init):
        sys.exit(f"perfbench: imported cssol from {cssol.__file__}, not {SRC}")


def child_setup_times(args) -> list[float]:
    """Set-up times of SETUP_REPEATS - 1 fresh processes, one after another."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up child failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_rounds(rnd, seconds: float, tracer=None):
    """Run whole rounds until `seconds` have passed; time, then check.

    With a tracer, also count the traced calls made by each kind of
    operation (the op name up to its first '[' or space).
    """
    from workloads import KnownFault

    walls, cpus, latencies = [], [], []
    attempted = failed = 0
    failures: list[str] = []  # operations that raised or hit a known fault
    wrong: list[str] = []  # outputs that failed a check
    per_kind: dict[str, dict[str, int]] = {}
    t_phase = time.perf_counter()
    while True:
        outputs = []
        ok = []
        t_round, c_round = time.perf_counter(), time.process_time()
        for op in rnd.ops:
            before = {k: v.calls for k, v in tracer.stats.items()} if tracer else None
            t0 = time.perf_counter()
            try:
                out, lats = op.run()
            except Exception:  # an operation that raises is a failed one
                failed += op.count
                failures.append(f"{op.name} raised:\n{traceback.format_exc(limit=3)}")
                outputs.append(None)
                ok.append(False)
                continue
            t1 = time.perf_counter()
            if tracer is not None:
                kind = per_kind.setdefault(op.kind, {"ops": 0})
                kind["ops"] += 1
                for k, v in tracer.stats.items():
                    kind[k] = kind.get(k, 0) + v.calls - before.get(k, 0)
            latencies += lats if lats else [t1 - t0]
            outputs.append(out)
            ok.append(True)
        walls.append(time.perf_counter() - t_round)
        cpus.append(time.process_time() - c_round)
        attempted += sum(op.count for op in rnd.ops)
        for op, out, good in zip(rnd.ops, outputs, ok):
            if not good:
                continue
            try:
                bad = op.check(out)
            except KnownFault as fault:
                failed += op.count
                failures.append(f"{op.name}: known fault: {fault}")
                continue
            wrong += [f"{op.name}: {p}" for p in bad]
        if time.perf_counter() - t_phase >= seconds:
            break
    return dict(walls=walls, cpus=cpus, latencies=latencies, attempted=attempted,
                failed=failed, failures=failures, wrong=wrong, outputs=outputs,
                per_kind=per_kind)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        rnd = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_trace = None
        if tracer is not None:
            setup_trace = {k: (v.calls, v.busy) for k, v in tracer.stats.items()}
            tracer.reset()
        res = run_rounds(rnd, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    for p in sorted(set(res["failures"])):
        print("FAILED", p)
    for p in sorted(set(res["wrong"])):
        print("WRONG", p)

    if tracer is None:
        setups = [setup_s] + child_setup_times(args)
        metrics = {
            "wall_s": (statistics.median(res["walls"]), "s"),
            "cpu_s": (statistics.median(res["cpus"]), "s"),
            "op_p50_s": (statistics.median(res["latencies"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        extra = {"setups_s": setups}
    else:
        from layers import layer_metrics

        metrics = layer_metrics(tracer, setup_trace, res, rnd)
        extra = {"spans": {k: [v.calls, v.busy, v.self_time] for k, v in tracer.stats.items()},
                 "edges": [[a, b, n] for (a, b), n in sorted(tracer.edges.items())]}
    result = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(res["walls"]), round_walls_s=res["walls"],
                  round_cpus_s=res["cpus"], latencies_s=res["latencies"],
                  failures=res["failures"], wrong=res["wrong"], **extra)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for k, (v, u) in metrics.items():
        print(f"{k:48s} {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
