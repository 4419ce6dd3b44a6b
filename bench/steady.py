"""Steadiness check and smoke test for the benchmark.

    python3 bench/steady.py --label A             # ten seeds per workload
    python3 bench/steady.py --compare A B         # medians of two sets
    python3 bench/steady.py --smoke               # every workload, briefly

Run from the root of a checkout. A steadiness set runs bench/run.py once per
seed and workload, untraced, for the run length in BENCHMARK.json; it prints,
per workload and end-to-end metric, the median, the quartiles and their
distance as a share of the median (the spread) against the metric's bound,
the share of failed operations of every run, and the spread of a fixed
reference loop that measures the machine's own drift; it saves everything to
.bench_out/steady-<label>.json. --compare prints how far each median of set
B is worse than set A's. Exit status 1 means a spread, a comparison or a
failed share is out of line.

--smoke runs every workload for one second with tracing, which checks every
operation once untraced and once traced, and fails on a failed operation
other than the known over-horizon fault. The share of known faults must be
their fixed share of a pass, or 0 once the fault is fixed. It also checks
that the benchmark exits without a result when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 180
RUNS = 10  # seeds per workload in a steadiness set
# The over-horizon operations are 8 of the 200 in a `certify` pass.
KNOWN_SHARE = {"certify": 8 / 200}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: int, cwd=ROOT) -> tuple:
    """(exit code, result or None, stdout lines before the result)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, lines[:-1]


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def steadiness(label: str, first_seed: int) -> int:
    s = spec()
    bad = 0
    report = {"runs": RUNS, "seconds": s["run_seconds"], "workloads": {}}
    for w in s["workloads"]:
        name = w["name"]
        results, shares, reference = [], set(), []
        for seed in range(first_seed, first_seed + RUNS):
            code, result, lines = run_once(name, seed, s["run_seconds"], 0)
            if code != 0 or result is None or not result["correct"]:
                print(f"{name} seed {seed}: exit {code}, result {result}")
                bad += 1
                continue
            results.append(result)
            shares.add(result["failed"] / result["attempted"])
            reference.extend(float(line.split()[2]) for line in lines
                             if line.startswith("reference loop:"))
        rows = {}
        for m in s["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            median, q1, q3, sp = spread(values)
            held = sp <= m["bound"]
            bad += not held
            rows[m["name"]] = {"values": values, "median": median, "q1": q1, "q3": q3,
                               "spread": sp, "bound": m["bound"]}
            print(f"{name:14} {m['name']:12} median {median:10.4f} {m['unit']:4} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {sp:6.2%} bound {m['bound']:.0%}"
                  f"{'' if held else '  OUT OF BOUND'}")
        ref = spread(reference)
        print(f"{name:14} failed share {sorted(shares)}; reference loop median {ref[0]:.3f} ms, "
              f"spread {ref[3]:.2%} (machine drift, no bound)")
        bad += len(shares) != 1
        report["workloads"][name] = {"metrics": rows, "failed_shares": sorted(shares),
                                     "attempted": [r["attempted"] for r in results],
                                     "reference_ms": reference}
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{label}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 1 if bad else 0


def compare(label_a: str, label_b: str) -> int:
    s = spec()
    a, b = (json.loads((OUT / f"steady-{x}.json").read_text(encoding="utf-8"))
            for x in (label_a, label_b))
    bad = 0
    for w in s["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for m in s["end_to_end"]:
            ma = a["workloads"][name]["metrics"][m["name"]]["median"]
            mb = b["workloads"][name]["metrics"][m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            held = worse <= m["bound"]
            bad += not held
            print(f"{name:14} {m['name']:12} {ma:10.4f} -> {mb:10.4f} worse by {worse:7.2%} "
                  f"bound {m['bound']:.0%}{'' if held else '  OUT OF BOUND'}")
        shares = (a["workloads"][name]["failed_shares"], b["workloads"][name]["failed_shares"])
        print(f"{name:14} failed shares {shares[0]} vs {shares[1]}")
        bad += shares[0] != shares[1]
    return 1 if bad else 0


def smoke() -> int:
    bad = 0
    for w in spec()["workloads"]:
        name = w["name"]
        code, result, lines = run_once(name, 1, 1, 1)
        unexpected = [line for line in lines
                      if line.startswith("FAILED") and "(known fault)" not in line]
        share = result["failed"] / result["attempted"] if result else None
        ok = (code == 0 and result is not None and result["correct"] and not unexpected
              and share in (0, KNOWN_SHARE.get(name, 0)))
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {code}, "
              f"{result and result['attempted']} attempted, failed share {share}")
        for line in unexpected:
            print(f"     {line}")
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result, _ = run_once(spec()["workloads"][0]["name"], 1, 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    ok = code != 0 and result is None
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} without the program: exit {code}, no result printed")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="Steadiness check and smoke test.")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--label", default="steady")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.compare:
        return compare(*args.compare)
    return steadiness(args.label, args.first_seed)


if __name__ == "__main__":
    sys.exit(main())
