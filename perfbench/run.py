#!/usr/bin/env python3
"""Repository benchmark for the malicious-crash diners.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library under src/) into .bench_build/perfbench, runs one workload for a
fixed time, checks its result, and prints every metric by name and unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload e1-ring --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

--self-test runs every workload at a tiny size (each gate must pass) and
every teeth case (each must be reported as failed).

Besides the result line, each run records a JSON file under
.bench_build/perfbench/results/ with the host fingerprint (CPU model,
nproc, compiler, build type, source revision), the simulated-statistic
fingerprint, the per-iteration samples and the attribution check. The
fingerprint of every (workload, seed) is kept under
.bench_build/perfbench/fingerprints/<source digest>/; a later run of the
same seed and sources whose simulated statistics differ, traced or not, is
reported as incorrect.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_TYPE = "Release"
# Caps one run of the benchmark program; a run must end within 180 s.
RUN_TIMEOUT_S = 170

# Workload name -> tiny-size teeth case that must be reported as failed.
TEETH = {
    "e1-ring": "e1-budget",
    "verify-ring4": "verify-no-fixdepth",
    "svc-ring": "svc-overlap",
}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec


def build():
    """Configures once and (re)builds the program; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_program(workload, seed, seconds, trace, tiny=False, teeth=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if teeth:
        cmd += ["--teeth", teeth]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


def host_fingerprint():
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                out = subprocess.run([path, "--version"], capture_output=True,
                                     text=True)
                compiler = out.stdout.splitlines()[0] if out.stdout else path
                break
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def git_revision():
    """HEAD of the repository at ROOT; None where ROOT is not the top of a
    git work tree (a plain checkout, possibly inside some other repo)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def source_digest():
    """Content hash of the sources the benchmark builds: it names the code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt",
                                                  ".py"}:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def check_fingerprint(workload, seed, fingerprint, digest):
    """Returns a failure line if this seed's simulated statistics differ
    from an earlier run's of the same sources, else None (and records
    them)."""
    store = BUILD / "fingerprints" / digest[:16] / f"{workload}-seed{seed}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.is_file():
        before = json.loads(store.read_text())
        if before != fingerprint:
            return (f"simulated statistics differ from an earlier run of seed "
                    f"{seed}: {before} vs {fingerprint}")
        return None
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(fingerprint, sort_keys=True))
    tmp.replace(store)
    return None


def bench(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r} (want one of "
                         f"{', '.join(names)})")
    build()
    out = run_program(args.workload, args.seed, args.seconds, args.trace)
    host = host_fingerprint()
    failures = list(out["failures"])
    drift = check_fingerprint(args.workload, args.seed, out["fingerprint"],
                              host["source_sha256"])
    if drift:
        failures.append(drift)
    failed = out["failed"] + (1 if drift else 0)
    correct = out["correct"] and not drift

    source = out["per_layer"] if args.trace else out["end_to_end"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in listed}

    record = {
        "schema": "diners-perfbench/v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "correct": correct,
        "attempted": out["attempted"],
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "program_output": out,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, "
          f"{host['compiler']}, {host['build_type']}, revision "
          f"{host['git_revision'] or 'n/a'}, source {host['source_sha256'][:12]}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{out['iterations']} iterations, {out['attempted']} operations, "
          f"{failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        att = out["attribution"]
        print(f"  unattributed = {out['per_layer'].get('trace.unattributed_s', 0):.6g} s "
              f"(worst share {att['worst_unattributed_share']:.3g}, "
              f"tolerance {att['tolerance']}, {'ok' if att['ok'] else 'FAILED'})")
    for f in failures:
        print(f"  FAILED: {f}")
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))


def self_test():
    """Tiny runs: every gate passes on the code as it is, and every teeth
    case is reported as failed."""
    spec = load_spec()
    build()
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            out = run_program(name, 1, 0.5, trace, tiny=True)
            good = out["correct"] and out["failed"] == 0
            ok &= good
            print(f"gate  {name:16s} trace={int(trace)}: "
                  f"{'pass' if good else 'FAIL ' + '; '.join(out['failures'])}")
        if name in TEETH:
            out = run_program(name, 1, 0.5, False, tiny=True, teeth=TEETH[name])
            bit = not out["correct"] and out["failed"] > 0
            ok &= bit
            print(f"teeth {name:16s} {TEETH[name]}: "
                  f"{'reported failed' if bit else 'NOT CAUGHT'}"
                  f" ({out['failed']}/{out['attempted']}: "
                  f"{'; '.join(out['failures'])[:160]})")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            p.error("--workload is required")
        bench(args)
        return 0
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
