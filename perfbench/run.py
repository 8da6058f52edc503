#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Everything the build and the run write
(the Go build cache, the binary, temporary WAL directories, span dumps) stays
under .bench_build/ in that checkout. The last line of standard output is the
benchmark's JSON result; a build failure or a failed check exits non-zero
without printing one.

The run's temporary directory, where standalone-durable keeps its WAL, is a
RAM-backed tmpfs mounted in a private mount namespace of the benchmark process
when the host allows one (unshare(1)). Every acknowledgement still waits for
its fsync, but the figures then measure the program rather than the host
disk's fsync rate, which on shared storage drifts threefold within hours. The
mount disappears with the process. Where no namespace is allowed, the
directory stays on disk and the run logs that.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TMPFS_SIZE = "512m"

# Runs "$@" with a tmpfs mounted at $1; run as: sh -c MOUNT_AND_EXEC sh <dir> <cmd...>
MOUNT_AND_EXEC = 'mount -t tmpfs -o size=%s,mode=0700 perfbench "$1" && shift && exec "$@"' % TMPFS_SIZE
NAMESPACES = (
    ["unshare", "--mount", "--propagation", "private"],
    ["unshare", "--user", "--map-root-user", "--mount", "--propagation", "private"],
)


def ram_tmp_prefix(mountpoint: str) -> list:
    """Return the command prefix that runs a program with a private tmpfs at
    mountpoint, or [] when this host allows no mount namespace."""
    for ns in NAMESPACES:
        probe = ns + ["sh", "-c", MOUNT_AND_EXEC, "sh", mountpoint, "true"]
        try:
            ok = subprocess.run(probe, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                timeout=10).returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            ok = False
        if ok:
            return ns + ["sh", "-c", MOUNT_AND_EXEC, "sh", mountpoint]
    return []


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    for d in (build, home, os.path.join(build, "tmp"), os.path.join(build, "spans")):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )

    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: building the benchmark failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args(args)
    if known.trace == "1":
        args += ["--spans", os.path.join(build, "spans", f"{known.workload}-seed{known.seed}.tsv")]

    # A fresh temporary directory per run, removed even if the run is stopped.
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(build, "tmp"))
    env["TMPDIR"] = tmp
    proc = None

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        prefix = ram_tmp_prefix(tmp)
        if not prefix:
            print("run.py: no private mount namespace on this host; the run's temporary directory stays on disk",
                  file=sys.stderr)
        proc = subprocess.Popen(prefix + [binary] + args, cwd=root, env=env)
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran past {RUN_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return 3
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
