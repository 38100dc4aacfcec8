#!/usr/bin/env python3
"""Builds the archive benchmark from source and runs one workload.

Run from the repository root:

  python3 archbench/run.py --workload browse|curate|analyse --seed N \
      --seconds S --trace 0|1
  python3 archbench/run.py --smoke

The last line of standard output is the result object
({"correct", "attempted", "failed", "metrics"}). --smoke is the
benchmark's own test: every workload with all checks on, plus the
determinism check (same seed, same sequence and counts; another seed,
another sequence). See archbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("browse", "curate", "analyse")
RUN_TIMEOUT_S = 170
# Smoke runs: timed operations per workload (after the fixed warm-up).
SMOKE_OPS = {"browse": 1500, "curate": 60, "analyse": 150}


def fail(message, code=2):
    print("archbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "archbench")


def build():
    """Configures (once) and builds the archbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("EASIA sources (src/) not found next to the benchmark")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "archbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "archbench")


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout.

    git runs only when ROOT is itself a checkout, so no directory above
    ROOT is searched for one.
    """
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0 and proc.stdout.strip():
                return proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "archbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_binary(binary, rev, workload, seed, seconds, trace, max_ops=0):
    """Runs one workload in a fresh work directory (WAL, job journal)."""
    work = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(binary))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--rev", rev]
    if max_ops:
        cmd += ["--max-ops", str(max_ops)]
    try:
        # On timeout, subprocess.run kills the child and waits for it.
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %s timed out" % (workload, seed), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail("%s seed %s produced no result (exit %d)" %
             (workload, seed, proc.returncode), 1)
    return lines, result


def tagged(lines, tag):
    for line in lines:
        if line.startswith('{"%s":' % tag):
            return json.loads(line)[tag]
    return None


def smoke(binary, rev):
    """Every workload with all checks on, plus the determinism check."""
    ok = True
    for workload in WORKLOADS:
        ops = SMOKE_OPS[workload]
        runs = []
        for seed in (1, 1, 2):
            lines, result = run_binary(binary, rev, workload, seed, 60, True,
                                       ops)
            runs.append((tagged(lines, "determinism"),
                         tagged(lines, "determinism_traced"), result))
        checks = {
            "all checks pass": all(r["correct"] and r["failed"] == 0
                                   for _, _, r in runs),
            "same seed, same sequence and counts":
                runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1],
            "traced run repeats the sequence":
                all(u["sequence_digest"] == t["sequence_digest"] and
                    u["output_digest"] == t["output_digest"]
                    for u, t, _ in runs),
            "another seed, another sequence":
                runs[0][0]["sequence_digest"] != runs[2][0]["sequence_digest"],
        }
        for name, passed in checks.items():
            print("%-8s %-36s %s" % (workload, name,
                                     "ok" if passed else "FAILED"))
            ok = ok and passed
        if not checks["same seed, same sequence and counts"]:
            print("  first:  %s\n  second: %s" % (runs[0][:2], runs[1][:2]))
    print("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    rev = source_rev()
    if args.smoke:
        return smoke(binary, rev)
    lines, result = run_binary(binary, rev, args.workload, args.seed,
                               args.seconds, args.trace == 1)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
