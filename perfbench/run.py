#!/usr/bin/env python3
"""streamqp end-to-end benchmark launcher.

Builds the benchmark binary from the checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints the
binary's provenance line and, as the last line, its JSON result:

    python3 perfbench/run.py --workload parallel --seed 1 --seconds 40 --trace 0

--selftest runs the fast checks instead: every metric named in
BENCHMARK.json prints with its unit on every workload, the correctness
gate trips on a corrupted reference, and a load above capacity shows up
as generator lateness.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: streamqp sources (src/) not found beside perfbench/")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            log("run.py: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    b = subprocess.run(
        ["cmake", "--build", out, "--target", "streamqp_bench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(out, "streamqp_bench")
    if b.returncode != 0 or not os.path.isfile(binary):
        log("run.py: build failed")
        sys.exit(2)
    return binary


def source_digest():
    """sha256 over the library and benchmark sources (the checkout need
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, extra):
    """Runs the binary; returns (stdout lines, parsed result, provenance)."""
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workdir", workdir, "--commit", commit(),
           "--source-digest", source_digest()] + extra
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        sys.exit(1)
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or len(lines) < 2:
        log("run.py: benchmark failed (exit %d)" % r.returncode)
        sys.exit(1)
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2]).get("provenance", {})
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        log("run.py: malformed result line")
        sys.exit(1)
    return lines, result, provenance


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest(binary):
    spec = load_spec()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    late = {}
    for w in spec["workloads"]:
        name = w["name"]
        m = re.search(r"open loop at (\d+) tuples/s", w["why"])
        for trace in (0, 1):
            _, res, prov = run_binary(binary, [
                "--workload", name, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--quick"])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace=%d: metrics/units differ: %s" % (
                    name, trace, sorted(set(got.items()) ^ set(want[trace].items()))))
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace=%d: gate failed" % (name, trace))
            if m is None or float(m.group(1)) != prov.get("offered_rate_tps"):
                problems.append("%s: offered rate in BENCHMARK.json (%s) is "
                                "not the one run (%s)" % (
                                    name, m and m.group(1),
                                    prov.get("offered_rate_tps")))
            if trace == 1:
                late[name] = res["metrics"]["gen.late_p99_ms"]["value"]

    # The gate must trip on a corrupted reference.
    first = spec["workloads"][0]["name"]
    _, res, _ = run_binary(binary, [
        "--workload", first, "--seed", "7", "--seconds", "1", "--trace",
        "0", "--quick", "--corrupt-ref"])
    if res["correct"] or res["failed"] == 0:
        problems.append("corrupted reference did not trip the gate")

    # Offered far above capacity, the generator must fall behind.
    _, res, _ = run_binary(binary, [
        "--workload", first, "--seed", "7", "--seconds", "1", "--trace",
        "1", "--quick", "--offered-rate", "1000000000"])
    over = res["metrics"]["gen.late_p99_ms"]["value"]
    if not (over > 0.5 and over > 10 * late.get(first, 0.0)):
        problems.append("overload lateness %.4f ms not above normal %.4f ms"
                        % (over, late.get(first, 0.0)))

    for p in problems:
        log("selftest: " + p)
    print("selftest %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.selftest:
        return selftest(binary)
    if not args.workload:
        ap.error("--workload is required")
    lines, _, _ = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    print("\n".join(lines[-2:]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
