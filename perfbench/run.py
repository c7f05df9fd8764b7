#!/usr/bin/env python3
"""Build and run the vote-to-forecast benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root.  The first form builds perfbench/main.exe
from source (dune, into $CARGO_TARGET_DIR or .bench_build) and runs one
workload; its last stdout line is the JSON result.  The second runs
every workload untraced and traced and prints every metric with its
unit.  Everything the benchmark writes stays under the build directory.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["offline-forecast", "serve-predict", "live-ingest"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    i = 0
    while i < len(argv):
        if argv[i] not in args or i + 1 >= len(argv):
            fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
        args[argv[i]] = argv[i + 1]
        i += 2
    if args["--workload"] not in WORKLOADS + ["all"]:
        fail("--workload must be one of " + ", ".join(WORKLOADS + ["all"]))
    return args


def source_id(root):
    """The commit when the tree is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def build(root, build_dir, env):
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    r = subprocess.run([dune, "build", "--root", root, "--build-dir", build_dir,
                        "./perfbench/main.exe"], env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def run_one(exe, root, work_dir, env, workload, seed, seconds, trace, commit):
    """Run one workload; returns (exit code, stdout text)."""
    cmd = [exe, "--workload", workload, "--seed", seed, "--seconds", seconds,
           "--trace", trace, "--work-dir", work_dir, "--commit", commit]
    # its own session, so a timeout also reaches the forked server
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return proc.returncode, out


def complete(result, bench, trace):
    """Check the result against BENCHMARK.json and order its metrics.

    An untraced run must report every end-to-end metric.  A traced run
    reports every per-layer metric: one whose layer this workload does
    not exercise reads 0.  Returns the result, or None when a metric is
    missing or unknown.
    """
    listed = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    names = [m["name"] for m in listed]
    got = result["metrics"]
    if any(n not in names for n in got):
        return None
    if trace == "0" and any(n not in got for n in names):
        return None
    result["metrics"] = {m["name"]: got.get(m["name"], {"value": 0, "unit": m["unit"]})
                         for m in listed}
    return result


def main():
    args = parse_args(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        fail("no dune-project and lib/ here: run from a checkout of the repository")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work_dir = os.path.join(build_dir, "perfbench-work")
    tmp = os.path.join(build_dir, "tmp")
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    os.makedirs(tmp, exist_ok=True)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    exe = build(root, build_dir, env)
    commit = source_id(root)
    seed, seconds = args["--seed"], args["--seconds"]

    if args["--workload"] != "all":
        code, out = run_one(exe, root, work_dir, env, args["--workload"], seed,
                            seconds, args["--trace"], commit)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.stdout.write("\n".join(lines[:-1] if code == 0 else lines) + "\n")
            fail("run failed (exit %d)" % code)
        result = complete(json.loads(lines[-1]), bench, args["--trace"])
        if result is None:
            fail("metrics do not match BENCHMARK.json: " + lines[-1])
        results = os.path.join(build_dir, "perfbench-results")
        os.makedirs(results, exist_ok=True)
        name = "%s.seed%s.trace%s.json" % (args["--workload"], seed, args["--trace"])
        with open(os.path.join(results, name), "w") as fh:
            json.dump({"facts": lines[0], "result": result}, fh, indent=1)
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
        sys.exit(0)

    worst = 0
    for workload in WORKLOADS:
        for trace in ["0", "1"]:
            code, out = run_one(exe, root, work_dir, env, workload, seed, seconds, trace, commit)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print("%s trace %s: FAILED (exit %d)" % (workload, trace, code))
                worst = max(worst, code or 1)
                continue
            res = json.loads(lines[-1])
            if complete(dict(res), bench, trace) is None:
                print("%s trace %s: metrics do not match BENCHMARK.json" % (workload, trace))
                worst = max(worst, 1)
            print("%s trace %s: correct %s, attempted %d, failed %d (%s)"
                  % (workload, trace, res["correct"], res["attempted"], res["failed"], lines[0]))
            for name, m in res["metrics"].items():
                print("  %-44s %16.6g %s" % (name, m["value"], m["unit"]))
    sys.exit(worst)


if __name__ == "__main__":
    main()
