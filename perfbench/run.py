"""Benchmark command for storemkt.

Run from the repository root:

    python3 perfbench/run.py --workload clear-fleet4 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all                # every workload in turn
    python3 perfbench/run.py --workload all --smoke        # one op per workload

A named workload runs in this process as a closed loop with one client:
op ``k`` starts only after op ``k - 1`` has finished, and new ops start
until ``--seconds`` have passed.  Every op's output is checked after its
timing stops.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the ops untraced for half the time, then replays the same ops with
spans recorded around the program's public functions, and prints the
per-layer metrics.  ``--workload all`` runs each workload in a fresh
process, one at a time.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any op failed.
"""
import time

T0 = time.perf_counter()  # process start, before the program is imported

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # pinned before numpy loads: thread count moves op times

import argparse
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("clear-fleet4", "payments-mixed3", "beam-mixed2", "days-theorem1")
#: fresh processes that each time set-up; with this process's own, setup_s is their median
SETUP_PROBES = 6
END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one op per phase, one set-up sample")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        # the build's directories name the machine it was made on, not the build
        blas = {k: v for k, v in blas.items() if "directory" not in k}
    except (TypeError, KeyError):
        blas = None
    sha = None
    git = shutil.which("git")
    if git and (ROOT / ".git").exists():
        res = subprocess.run(
            [git, "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        sha = res.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def check_manifest(per_layer) -> None:
    """BENCHMARK.json must name exactly the metrics this script prints."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = tuple((m["name"], m["unit"]) for m in manifest["end_to_end"])
    layer = tuple((m["name"], m["unit"]) for m in manifest["per_layer"])
    if sorted(e2e) != sorted(END_TO_END) or layer != tuple((n, u) for n, u, _ in per_layer):
        raise SystemExit("error: BENCHMARK.json metrics differ from perfbench/run.py")


def failure_layer(exc: BaseException) -> str:
    """Module of the innermost program frame the exception passed through."""
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        path = Path(frame.filename)
        if path.parent.name == "storemkt":
            return path.stem
    return "perfbench"


def run_ops(wl, setups, golden, ks, seconds=None, rec=None, smoke=False) -> list[dict]:
    """Closed loop over op indices ``ks``, stopping once ``seconds`` have
    passed; the first op always runs."""
    import workloads

    records = []
    start = time.perf_counter()
    for k in ks:
        if records and seconds is not None and time.perf_counter() - start >= seconds:
            break
        idx, extra = wl.op_input(k)
        setup = setups[idx]
        error = out = None
        if rec is not None:
            rec.current_op, rec.active = k, True
        t, cpu = time.perf_counter(), time.process_time()
        try:
            out = wl.run(setup, extra)
        except Exception as exc:  # the loop must go on and count the failure
            error = exc
        seconds_op = time.perf_counter() - t
        cpu_op = time.process_time() - cpu
        if rec is not None:
            rec.active = False
        key = None
        if error is None:
            try:
                wl.check(out, setup, idx)
                key = wl.golden_key(k, idx)
                if key is not None:
                    if key not in golden:
                        raise workloads.CheckFailed("perfbench", f"golden.json has no op {key}")
                    workloads.check_golden(wl.summary(out), golden[key])
            except Exception as exc:  # a check that raises fails the op as well
                error = exc
        record = {"op": k, "input": idx, "seconds": seconds_op, "cpu_seconds": cpu_op,
                  "golden": key, "error": None}
        if error is not None:
            layer = getattr(error, "layer", None) or failure_layer(error)
            record["error"] = {"type": type(error).__name__, "layer": layer, "message": str(error)[:500]}
            print(f"op {k} failed in {layer}: {type(error).__name__}: {error}", file=sys.stderr)
            if not isinstance(error, workloads.CheckFailed):
                traceback.print_exception(error, file=sys.stderr)
        records.append(record)
        if smoke:
            break
    return records


def setup_probe(args) -> float:
    """Set-up time of a fresh process that only imports and loads the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"error: set-up probe exited with {res.returncode}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args) -> int:
    if not (SRC / "storemkt" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from storemkt import config

    wl = workloads.WORKLOADS[args.workload](args.seed)
    configs = wl.configs()
    setups = [config.load_setup(c) for c in configs]
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans

    check_manifest(spans.PER_LAYER)
    golden = json.loads((HERE / "golden.json").read_text()).get(wl.name, {})
    env = environment()
    if args.trace == 0:
        samples = [setup_s] + [setup_probe(args) for _ in range(0 if args.smoke else SETUP_PROBES)]
        records = run_ops(wl, setups, golden, itertools.count(), args.seconds, smoke=args.smoke)
        times = [r["seconds"] for r in records]
        done = sum(r["error"] is None for r in records)
        metrics = {
            "ops_per_s": done / sum(times),
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(samples),
        }
        units = dict(END_TO_END)
    else:
        samples = [setup_s]
        untraced = run_ops(wl, setups, golden, itertools.count(), args.seconds / 2,
                           smoke=args.smoke)
        rec = spans.Recorder()
        spans.install(rec)
        rec.active = True
        traced_setups = [config.load_setup(c) for c in configs]
        rec.active = False
        traced = run_ops(wl, traced_setups, golden, range(len(untraced)), rec=rec)
        # op 0 pays first-call costs untraced only, so it is left out of the ratio
        skip = 1 if len(untraced) > 1 else 0
        overhead = (sum(r["seconds"] for r in traced[skip:])
                    / sum(r["seconds"] for r in untraced[skip:]) - 1.0)
        metrics = rec.metrics(len(traced), overhead)
        units = {n: u for n, u, _ in spans.PER_LAYER}
        rec.write(OUT / f"{wl.name}-seed{args.seed}.spans.npz")
        records = untraced + traced
    failed = sum(r["error"] is not None for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "env": env, "setup_s": samples, "ops": records, "result": result}, indent=1) + "\n"
    )
    print("env " + json.dumps(env, sort_keys=True))
    golden_checked = sum(r["golden"] is not None for r in records)
    print(f"{wl.name}: {len(records)} ops, {failed} failed (failed_frac "
          f"{failed / len(records):.6g} ratio), {golden_checked} checked against golden.json")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time."""
    results, worst = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if res.returncode != 0 or not (results[name] or {}).get("correct"):
            worst = 1
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
