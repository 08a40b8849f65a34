#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark from a source checkout.

    python3 perfbench/run.py --workload spec-classify --seed 1 --seconds 20 --trace 0

Builds the benchmark runner (this directory's Go module) and temporald from
the checkout containing this file, then runs it. The last line of
standard output is the result object. Everything built or written goes under
.bench_build/ in the checkout (or $CARGO_TARGET_DIR when set relative to it).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec-classify", "mc-scenarios", "spec-contains", "daemon-mixed")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.normpath(os.path.join(ROOT, d))
    if os.path.relpath(d, ROOT).startswith(".."):
        d = os.path.join(ROOT, ".bench_build")
    return d


def go_env(out):
    """Keep every cache, temp file and config write inside the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"),
                     ("TMPDIR", "tmp")):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off", CGO_ENABLED="0")
    return env


def source_hash():
    """Hash of the Go sources, which identifies the measured tree when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(env, out):
    bins = os.path.join(out, "bin")
    steps = (
        (["go", "build", "-o", os.path.join(bins, "perfbench"), "."], HERE),
        (["go", "build", "-o", os.path.join(bins, "temporald"), "./cmd/temporald"], ROOT),
    )
    for cmd, cwd in steps:
        try:
            res = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if res.returncode != 0:
            fail("build failed: %s\n%s" % (" ".join(cmd), res.stderr))
    return bins


def stop_session(proc):
    """Kill whatever is left of the runner's session and wait until it is gone."""
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            proc.wait()
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "cmd", "temporald"))):
        fail("no source tree at %s (need go.mod and cmd/temporald)" % ROOT)
    out = build_dir()
    env = go_env(out)
    bins = build(env, out)
    run_dir = os.path.join(out, "run")
    os.makedirs(run_dir, exist_ok=True)

    cmd = [os.path.join(bins, "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-temporald", os.path.join(bins, "temporald"), "-workdir", run_dir,
           "-commit", git_commit(), "-source-hash", source_hash()]
    # A session of its own, so a timeout stops the runner and every
    # process it started (temporald, set-up probes) together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_session(proc)
        fail("workload did not finish within %ds" % RUN_TIMEOUT_S)
    except BaseException:
        stop_session(proc)
        raise
    stop_session(proc)
    sys.exit(code)


if __name__ == "__main__":
    main()
