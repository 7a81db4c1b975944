#!/usr/bin/env python3
"""perfbench launcher.

Run one workload (run from the repository root):

    python3 perfbench/run.py --workload warm-hits --seed 1 --trace 0

builds the benchmark program and the daemon from source (dune, into
$CARGO_TARGET_DIR or .bench_build), then runs the workload.  The last line
of standard output is the result object.  `--workload all` runs the four
workloads in turn and ends with one combined result line.  The timed
length is `run_seconds` of BENCHMARK.json, the same on every commit;
`--seconds` is accepted only with that value.

Compare two result sets:

    python3 perfbench/run.py --compare OLD NEW

OLD and NEW are files (or directories of files) holding the captured
standard output of any number of runs.  Every end-to-end metric of every
workload is reported as better, worse, unchanged or unresolved, using the
bounds in BENCHMARK.json (see perfbench/README.md).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["warm-hits", "cold-solves", "optimize", "pattern-cold"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Build the benchmark and the daemon; return their paths."""
    for needed in ("dune-project", os.path.join("bin", "dune"), "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full checkout of the repository" % needed)
    bdir = build_dir()
    cmd = ["dune", "build", "--root", ".", "--build-dir", bdir,
           "./perfbench/bench.exe", "./bin/streaming_cli.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (exit %d)" % done.returncode)
    return (os.path.join(bdir, "default", "perfbench", "bench.exe"),
            os.path.join(bdir, "default", "bin", "streaming_cli.exe"))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def run_one(bench, daemon, workload, seed, seconds, trace, capture=False):
    """Run one workload; returns (exit code, stdout text or None)."""
    work = os.path.join(build_dir(), "perfbench-work")
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--daemon", daemon, "--work", work, "--commit", commit()]
    # a process group of its own, so a timeout also takes down the daemon it started
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, out


def run_all(bench, daemon, seed, seconds, trace):
    """Every workload in turn, then one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        code, out = run_one(bench, daemon, w, seed, seconds, trace, capture=True)
        sys.stdout.write(out)
        if code not in (0, 1):
            fail("%s could not complete" % w)
        result = json.loads(out.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics["%s/%s" % (w, name)] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# ---- compare mode ----

def load_runs(path):
    """{(workload, trace): {metric: [values]}} and the set of run lengths,
    from captured outputs."""
    files = []
    if os.path.isdir(path):
        for base, _, names in os.walk(path):
            files += [os.path.join(base, n) for n in sorted(names)]
    else:
        files = [path]
    runs, lengths = {}, set()
    for f in files:
        header = None
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if "header" in obj:
                    header = obj["header"]
                elif "metrics" in obj and header is not None:
                    key = (header["workload"], header["trace"])
                    lengths.add(header["seconds"])
                    for name, m in obj["metrics"].items():
                        runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
                    header = None
    return runs, lengths


def verdict(old, new, better, bound):
    """better | worse | unchanged | unresolved for one metric x workload.

    A gain needs the new side to win at least nine tenths of the pairs and
    the medians to differ by more than the old side's quartile spread.  A
    loss is a median worse by more than the bound.  Where the old side's
    own spread exceeds the bound, only a complete separation of the two
    sides decides; anything else is unresolved.
    """
    sign = 1.0 if better == "higher" else -1.0
    m_old, m_new = statistics.median(old), statistics.median(new)
    q = statistics.quantiles(old, n=4) if len(old) >= 2 else [m_old, m_old, m_old]
    iqr = q[2] - q[0]
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (m_new - m_old) > iqr:
        return "better"
    spread = iqr / abs(m_old) if m_old else float("inf")
    if spread > bound:
        if min(sign * n for n in new) > max(sign * o for o in old):
            return "better"
        if max(sign * n for n in new) < min(sign * o for o in old):
            return "worse"
        return "unresolved"
    if sign * (m_new - m_old) < -bound * abs(m_old):
        return "worse"
    return "unchanged"


def compare(old_path, new_path):
    spec = json.load(open(SPEC))
    (old, old_len), (new, new_len) = load_runs(old_path), load_runs(new_path)
    # runs of different lengths measure different things
    if len(old_len | new_len) > 1:
        fail("the result sets mix run lengths %s; compare runs of one length"
             % sorted(old_len | new_len))
    print("%-13s %-18s %14s %14s %8s  %s" % ("workload", "metric", "old median", "new median",
                                             "change", "verdict"))
    worse = False
    for w in WORKLOADS:
        o, n = old.get((w, 0), {}), new.get((w, 0), {})
        for m in spec["end_to_end"]:
            name = m["name"]
            if not o.get(name) or not n.get(name):
                continue
            v = verdict(o[name], n[name], m["better"], m["bound"])
            worse = worse or v == "worse"
            mo, mn = statistics.median(o[name]), statistics.median(n[name])
            change = "%+.1f%%" % (100.0 * (mn - mo) / mo) if mo else "n/a"
            print("%-13s %-18s %14.6g %14.6g %8s  %s (%d vs %d runs)"
                  % (w, name, mo, mn, change, v, len(o[name]), len(n[name])))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description="perfbench: the repository's benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="must equal run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    a = p.parse_args()
    if a.compare:
        sys.exit(compare(*a.compare))
    if not a.workload:
        p.error("--workload or --compare is required")
    seconds = json.load(open(SPEC))["run_seconds"]
    if a.seconds is not None and a.seconds != seconds:
        fail("the run length is run_seconds of BENCHMARK.json (%s s), not %s s" % (seconds, a.seconds))
    bench, daemon = build()
    if a.workload == "all":
        sys.exit(run_all(bench, daemon, a.seed, seconds, a.trace))
    code, _ = run_one(bench, daemon, a.workload, a.seed, seconds, a.trace)
    sys.exit(code if code in (0, 1) else 2)


if __name__ == "__main__":
    main()
