"""Pipeline benchmark: one seeded batch job per workload, checked and timed.

    python3 pipebench/run.py --workload dump-to-shards --seed 1 --seconds 20 --trace 0

Run from the repository root. Inputs for (workload, seed) are generated
once into ``pipebench/.state/inputs`` (see gen.py). With ``--trace 0`` the
job process runs untraced and the last line of output is the end-to-end
result: ``setup_s`` (median over several fresh processes), ``wall_s``
(median job time, scaled to a quiet host's speed) and ``peak_rss_mb``.
With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer figures instead; the spans are written to
``pipebench/.state/traces``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"
SETUP_PROBES = 2  # fresh processes that only set up, before and after the job
JOB_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


def _job_cmd(args, inputs: Path, work: Path, extra: list[str]) -> list[str]:
    return [
        sys.executable, str(HERE / "job.py"),
        "--workload", args.workload, "--inputs", str(inputs), "--work", str(work),
        "--t0", str(time.monotonic_ns()), *extra,
    ]


def _run_job(cmd: list[str]) -> dict:
    """Run one job process to completion; its last stdout line is JSON."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=JOB_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"job process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sopipeline" / "__init__.py").is_file():
        print(f"no sopipeline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))  # the generator writes vocab and shards with the program
    inputs = gen.cached_inputs(args.workload, args.seed, STATE / "inputs")
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            traces = STATE / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            out = traces / f"{args.workload}-s{args.seed}.json"
            result = _run_job(_job_cmd(args, inputs, work, [
                "--seconds", str(args.seconds), "--trace", "1", "--trace-out", str(out)]))
        else:
            # setup_s samples are spread over the run, so its median sees
            # the same drift in machine speed as the job's
            def probes() -> list[float]:
                return [
                    _run_job(_job_cmd(args, inputs, work, ["--setup-only"]))["setup_s"]
                    for _ in range(SETUP_PROBES)
                ]

            setup = probes()
            result = _run_job(_job_cmd(args, inputs, work, ["--seconds", str(args.seconds), "--trace", "0"]))
            setup += probes() + [result["setup_s"]]
            result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload} seed={args.seed}: {result['reps']} jobs, median elapsed {result['elapsed_s']:.3f} s",
          file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
