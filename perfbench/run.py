#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload prefill_bert --seed 1 --seconds 40 --trace 0

Builds perfbench/ (the libraries under src/ plus perfbench.cpp) with CMake
into $CARGO_TARGET_DIR (default .bench_build), runs one workload, and prints
the binary's report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones (and writes the recorded spans to <build>/traces/).  Besides
the workloads BENCHMARK.json lists, the binary runs decode_long, whose host
time is too noisy on a shared host to be a gated workload.

Simulated quantities are deterministic.  Each run's signature over them is
kept in <build>/sim_record.json, keyed by a hash of the sources, workload,
seed and trace flag; a later run of the same key that disagrees is a bug,
and the command fails without printing a result.  It also exits non-zero
when a correctness gate fails.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", "4"]]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail), 3)
    return build_dir / "perfbench"


def source_hash():
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if path.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_determinism(build_dir, key, signature):
    record_path = build_dir / "sim_record.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    seen = record.get(key)
    if seen is not None and seen != signature:
        fail(f"simulated quantities changed between runs of identical code and seed "
             f"({key}: {seen} then {signature})", 5)
    record[key] = signature
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(record_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(build_dir)
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 6)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}", 4)
    source = source_hash()
    print(f"host {platform.node()} cpu {cpu_model()} source {source}")
    print("\n".join(lines[:-1]))
    report = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in wanted})
    if missing or extra:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}", 4)
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got[m['name']]['unit']} != {m['unit']}", 4)

    key = f"{source}:{args.workload}:{args.seed}:{args.trace}"
    check_determinism(build_dir, key, report["sim_signature"])

    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: got[m["name"]] for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
