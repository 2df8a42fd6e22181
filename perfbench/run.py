#!/usr/bin/env python3
"""Build hpt from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  The last line of standard output is
the result object; everything the build prints goes to standard error.
--self-test runs every workload twice at a tiny size and fails if a count
metric differs between the two runs or a metric lacks its unit.
"""

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["classify", "spec", "large", "serve"]
# metrics that count work and must repeat exactly for one seed
EXACT = ["ticks_m", "alloc_mwords", "exact_share", "ok_share"]
RUN_TIMEOUT_S = 170
# an address-space cap, so an input that blows up aborts the run
# instead of exhausting the machine's memory
MEMORY_CAP = 6 << 30


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found")


def build():
    for needed in ["dune-project", "lib", os.path.join("bin", "hpt.ml")]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a source tree of hpt: %s is missing" % needed)
    dune = find_dune()
    # the shared dune cache lives outside the source tree; keep the
    # build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./bin/hpt.exe", "./perfbench/hptbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed", 3)


def commit_id():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
        )
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def detach_and_cap():
    """Run in a process group of its own, under the address-space cap."""
    os.setsid()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def bench(args, commit):
    """Run the benchmark binary; return its exit code and stdout lines."""
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "hptbench.exe")
    hpt = os.path.join(ROOT, "_build", "default", "bin", "hpt.exe")
    proc = subprocess.Popen(
        [exe] + args + ["--hpt", hpt, "--commit", commit],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=detach_and_cap,
    )

    def stop(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        # the daemons the benchmark starts share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test(commit):
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        runs = []
        for trace in ["0", "0", "1"]:
            code, lines = bench(
                ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny"], commit
            )
            r = result_of(lines)
            if code != 0 or r is None or not r.get("correct"):
                problems.append("%s --trace %s: exit %s, result %s" % (w, trace, code, r))
                continue
            record = json.loads(lines[-2])["record"]
            for name, m in list(r["metrics"].items()) + list(record["metrics"].items()):
                if not m.get("unit"):
                    problems.append("%s: metric %s has no unit" % (w, name))
            runs.append(r)
        if len(runs) == 3:
            for name in EXACT:
                a, b = (x["metrics"][name]["value"] for x in runs[:2])
                if a != b:
                    problems.append("%s: %s differs between runs: %r vs %r" % (w, name, a, b))
        print("%-9s %s" % (w, "ok" if len(problems) == before else "FAILED"), file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        fail("--workload is required")
    build()
    commit = commit_id()
    if a.self_test:
        sys.exit(self_test(commit))
    code, lines = bench(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace],
        commit,
    )
    if code != 0 or result_of(lines) is None:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("benchmark run failed (exit %s)" % code, 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
