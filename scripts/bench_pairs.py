"""Run perfbench on a parent commit and on the working tree in alternating pairs.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--pairs 10] [--workload NAME ...] [--seed N] [--trace 0|1]

Both sides are exported fresh into a temporary directory, with no
``__pycache__`` in either: the parent with ``git archive``, the working
tree as the files ``git add -A`` would commit. The repository's own
checkout and metadata are left as they are. Each pair runs
``perfbench/run.py`` once on each side with the same seed (100 + pair
number unless ``--seed`` fixes one); the parent goes first on odd pairs
and the working tree on even ones. Each run lasts BENCHMARK.json's
``run_seconds``, and the workloads default to its list. The runs use
Python's default bytecode handling, as ``perfbench/run.py`` is run on
its own: each tree's first run writes its ``__pycache__``, later runs
read it. The ``PYTHON*`` environment of the runs is recorded per set.

Every metric a run prints is kept per pair, with each side's median and
quartiles and the number of pairs the working tree won, by the direction
BENCHMARK.json gives the metric. Each gated metric also gets the inputs
of the benchmark's rule: ``worse_by``, its ``bound`` and
``beats_parent_iqr``; the progress line on stderr prints every gated
metric of each run. The first set a file gets records the
interpreter, the CPU count and perfbench's layout record; running again
with the same ``--out`` appends a further set, such as a confirm seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pair_count(text: str) -> int:
    """An argparse type: quartiles need at least two pairs."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs, got {n}")
    return n


def export(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` under ``into``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def export_working_tree(into: Path) -> None:
    """Copy under ``into`` every file ``git add -A`` would commit."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        if name and (ROOT / name).is_file():  # a deleted file stays listed until staged
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int,
             env: dict) -> dict:
    """One perfbench run in ``tree``: every printed metric and the final
    line's correctness fields."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    metrics = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload and parts[-1].startswith("n="):
            metrics[parts[1]] = float(parts[2])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric, each side's quartiles and, by the metric's direction, the
    pairs the change won. A gated metric also gets the gate's inputs:
    ``worse_by``, the change in medians over the parent's median, positive
    when worse; its ``bound``; and ``beats_parent_iqr``, whether the medians
    differ by more than the parent's q3 - q1."""
    names = sorted(set(pairs[0]["parent"]["metrics"]) & set(pairs[0]["change"]["metrics"]))
    out = {}
    for name in names:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        row = {"parent": quartiles(parent), "change": quartiles(change)}
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            row["better"] = better[name]
            row["change_wins"] = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
        if name in bounds:
            p, c = row["parent"], row["change"]
            delta = c["median"] - p["median"]
            row["worse_by"] = sign * delta / p["median"] if p["median"] else None
            row["bound"] = bounds[name]
            row["beats_parent_iqr"] = abs(delta) > p["q3"] - p["q1"]
        out[name] = row
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree with")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=pair_count, default=10, help="at least 2 (default: 10)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, help="one seed for every pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = json.loads(args.out.read_text()) if args.out.exists() else {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "layout": json.loads((ROOT / "perfbench" / "layout.json").read_text()),
        "sets": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commit = export(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        result = {"parent": commit, "change": "working tree", "seconds": spec["run_seconds"],
                  "trace": args.trace, "pairs": args.pairs,
                  "env": {k: v for k, v in env.items() if k.startswith("PYTHON")},
                  "trees": "fresh exports, no __pycache__ before the first run",
                  "workloads": {}}
        out["sets"].append(result)
        for workload in workloads:
            pairs = []
            for pair in range(1, args.pairs + 1):
                seed = args.seed if args.seed is not None else 100 + pair
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                record = {"pair": pair, "seed": seed, "first": order[0]}
                for side in order:
                    record[side] = run_once(trees[side], workload, seed, spec["run_seconds"],
                                            args.trace, env)
                    gated = " ".join(f"{name}={record[side]['metrics'].get(name)}"
                                     for name in bounds)
                    print(f"{workload} pair {pair} {side}: {gated} "
                          f"correct={record[side]['correct']}", file=sys.stderr, flush=True)
                pairs.append(record)
            result["workloads"][workload] = {
                "pairs": pairs, "summary": summarize(pairs, better, bounds)}
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
