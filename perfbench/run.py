#!/usr/bin/env python3
"""Builds the engine and the benchmark of record, then runs one workload.

    python3 perfbench/run.py --workload tpch_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload spill_join --seed 1 --seconds 1 --trace 1 --smoke
    python3 perfbench/run.py --record-digests

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), spill files and traces to .bench_out, both inside the
checkout. The last line of stdout is the result object: correct, attempted,
failed and metrics. README.md describes the workloads and every metric.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.tsv"
OUT_DIR = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    bdir = build_dir()
    if not any((bdir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return bdir / "perfbench"


def source_id():
    """Git commit when available, plus a hash of the engine and benchmark
    sources (a benchmark checkout need not be a git repository)."""
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return f"{commit}/src-sha1:{digest.hexdigest()[:12]}"


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            raise ValueError(f"metrics differ from BENCHMARK.json: "
                             f"missing {missing}, extra {extra}, "
                             f"or units differ")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale factors, for the benchmark's tests")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} from DOP-1 runs")
    args = parser.parse_args()
    if not args.record_digests and None in (args.workload, args.seed,
                                             args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return 1
    OUT_DIR.mkdir(exist_ok=True)

    if args.record_digests:
        cmd = [str(binary), "--record-digests", str(DIGESTS),
               "--out-dir", str(OUT_DIR)]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--digests", str(DIGESTS),
               "--out-dir", str(OUT_DIR), "--commit", source_id()]
        if args.smoke:
            cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(OUT_DIR / "spill", ignore_errors=True)
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    if args.record_digests:
        return 0

    lines = proc.stdout.strip().splitlines()
    try:
        check_result(lines[-1], args.trace == 1)
    except (IndexError, ValueError) as err:
        log(f"malformed result: {err}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
