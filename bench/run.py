"""kgembed pipeline benchmark.

Run one workload in this process and print its result as the last line of
standard output, one JSON object:

    python3 bench/run.py --workload tokenized --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (its spans go to .bench_out/).  ``--repeat N`` runs
the workload N times, each in a fresh process with seeds seed..seed+N-1,
and prints every metric's median, quartiles and spread against the bounds
in BENCHMARK.json.  Run from the root of a kgembed checkout; the program
is imported from its src/ directory.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: OpenBLAS's default thread pool
# made step times on 2 cores spread about twice as wide.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "kgembed" / "__init__.py").is_file():
        sys.exit(f"bench: no kgembed sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import kgembed
    if Path(kgembed.__file__).resolve().parent != src / "kgembed":
        sys.exit(f"bench: imported kgembed from {kgembed.__file__}, not {src}")


def run_once(args) -> int:
    _import_program()
    from pipeline import execute
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    trace_path = (ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.tsv"
                  if args.trace else None)
    try:
        result = execute(WORKLOADS[args.workload], args.seed, args.seconds,
                         work, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_repeated(args) -> int:
    """Fresh process per run; summarise each metric over the runs."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"run {i}: incorrect output", file=sys.stderr)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {i} seed {args.seed + i}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            file=sys.stderr)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        b = bounds.get(name)
        flag = "" if b is None else ("  ok" if spread < b / 3 else "  WIDE")
        print(f"{name:48s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
              f"  spread {spread:7.2%}" + ("" if b is None else
                                           f" (bound {b:.0%}){flag}"))
    print(f"failed share per run: {sorted(set(shares))}")
    print(json.dumps({"runs": args.repeat, "failed_shares": shares,
                      "metrics": summary}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N fresh processes and summarise (0: run once)")
    args = ap.parse_args(argv)
    return run_repeated(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
