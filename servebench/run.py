#!/usr/bin/env python3
"""Build `nalist` and the `servebench` harness from source, then run one
benchmark workload.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`); span files and scratch state go to
`.servebench/`. The harness's report goes to standard output and its
last line is the result JSON. The exit code is the harness's: 0 when
every answer was correct, 1 when any request failed or any answer was
wrong, 2 on a usage or build error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# A run that has not finished by then is stopped, with its servers.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit, or in a checkout without git history a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file() and p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "nalist-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "serve").is_dir():
        fail(f"{ROOT} holds no nalist sources to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(target)
    out = ROOT / ".servebench"
    out.mkdir(exist_ok=True)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    cmd = [
        str(target / "release" / "servebench"),
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--nalist", str(target / "release" / "nalist"),
        "--out", str(out),
        "--commit", source_id(),
        "--rustc", rustc.replace(" ", "_") or "unknown",
    ]
    # Its own process group, so a stuck run is stopped with its servers.
    proc = subprocess.Popen(cmd, cwd=ROOT, process_group=0)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
