"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-score --seed 1 --seconds 16 \
        --trace 0

Run it from the root of a checkout. The first run builds the backbone
checkpoint into ``.bench_build/cache`` (a deterministic pre-training
pass); later runs reuse it. Each workload runs in its own child process
with a hard timeout, in its own process group, which is killed when the
child ends so no pool replica outlives the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). Full records,
with the environment fingerprint, go to ``.bench_build/records``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
MODEL = "minilm-base"

WORKLOADS = ("train-row", "serve-score", "pool-match", "catalog-scale")

#: end-to-end metric -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "cpu_ms_per_op": "ms",
    "ops_per_s": "ops/s",
}

#: seconds a workload child may run before its process group is killed;
#: with the grace and the group wait (10 s each) a run ends within 170 s,
#: and a first run that also builds the backbone within 870 s
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 680
TERM_GRACE_S = 10


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("per_s"):
        return "1/s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".mean", "per_query", "per_forward")):
        return "count"
    return "ratio"


def child_env() -> dict:
    """Environment of every child: pinned BLAS threads, caches in BUILD.

    One BLAS thread per process is part of the benchmark's definition (it
    is recorded in the fingerprint): with default threading a fit burns
    about twice its wall time in CPU on a 2-core machine, and replicas of a
    pool fight over cores.
    """
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "REPRO_CACHE_DIR": str(BUILD / "cache"),
        "TMPDIR": str(BUILD / "tmp"),
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def run_child(argv, timeout: float, env: dict) -> int:
    """Run ``argv`` in a new process group; kill the group afterwards.

    The child's standard output goes to our standard error, so nothing a
    child (or a replica it forked) prints can land after the result line.
    Returns the exit code, or -1 on timeout.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = -1
        print(f"perfbench: {argv[1]} timed out after {timeout:.0f} s",
              file=sys.stderr)
        # SIGTERM first: the child stops its pool, which unlinks the
        # shared-memory weights a SIGKILL would leave behind
        proc.terminate()
        try:
            proc.wait(timeout=TERM_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10.0
        while group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
    return code


def ensure_backbone(env: dict) -> None:
    """Pre-train the backbone checkpoint once per checkout."""
    cache = BUILD / "cache"
    if (cache / f"{MODEL}.npz").exists() and \
            (cache / f"{MODEL}.vocab.json").exists():
        return
    staging = BUILD / f"cache.staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    build_env = dict(env, REPRO_CACHE_DIR=str(staging))
    code = run_child(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src'); from repro.lm import zoo; "
         f"zoo.load_pretrained({MODEL!r})"],
        BUILD_TIMEOUT_S, build_env)
    if code != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise SystemExit(f"perfbench: building {MODEL} failed ({code})")
    shutil.rmtree(cache, ignore_errors=True)
    staging.rename(cache)


def number(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2

    env = child_env()
    for sub in ("tmp", "records", "traces"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    ensure_backbone(env)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = BUILD / "records" / f"{stem}.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out)]
    if args.trace:
        argv += ["--spans", str(BUILD / "traces" / f"{stem}.spans.json")]
    code = run_child(argv, CHILD_TIMEOUT_S, env)
    if code != 0 or not out.exists():
        print(f"perfbench: workload {args.workload} failed (exit {code})",
              file=sys.stderr)
        return 1
    record = json.loads(out.read_text())

    if args.trace:
        (BUILD / "traces" / f"{stem}.layers.txt").write_text(
            record["layer_table"] + "\n")
        names = record["metrics"]
        metrics = {name: {"value": number(names[name]),
                          "unit": unit_of(name)} for name in names}
    else:
        metrics = {name: {"value": number(record["metrics"][name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}

    fp = record["fingerprint"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# source {fp['source_sha1'][:12]} commit {fp['commit']} "
          f"dirty {fp['dirty']} | python {fp['python']} numpy {fp['numpy']} "
          f"| blas {fp['blas']['name']} {fp['blas']['version']} "
          f"threads={fp['blas_threads']} | nproc {fp['nproc']}")
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:14.4f} {entry['unit']}")
    print(f"{'attempted':40s} {record['attempted']:14d}")
    print(f"{'failed':40s} {record['failed']:14d}")
    print(f"{'fail_share':40s} {record['fail_share']:14.4f} ratio")
    if record.get("steal_share") is not None:
        print(f"# cpu time stolen by the hypervisor during the measured "
              f"phase: {100 * record['steal_share']:.1f}% of all ticks")
    for reason, count in record["failures"].items():
        print(f"#   failed: {reason}: {count}")
    if args.trace:
        print(record["layer_table"])
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
