"""divsel benchmark entry point.

    python3 bench/run.py --workload online_n10k --seed 1 --seconds 55 --trace 0

Generates the workload's inputs from the seed with synth_corpus, persists them
with persist/write_corpus under .bench_build/, then runs the workload in a
process of its own (bench/loop.py: one Python thread, BLAS pinned to one
thread) and relays its output. The last line of stdout is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy loads; inherited by the workload process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "divsel"
DEADLINE_S = 170.0  # every run must end within 180 s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="divsel closed-loop benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="workload seed (default: the default seed)")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "divsel" / "__init__.py").is_file():
        print(f"error: no divsel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    WORK.mkdir(parents=True, exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        workloads.generate(workload, seed, inputs)
        cmd = [sys.executable, str(HERE / "loop.py"), "--workload", workload.name,
               "--inputs", str(inputs), "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.Popen(cmd, cwd=ROOT)
        try:
            return proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
        except subprocess.TimeoutExpired:
            print("error: workload process overran its deadline", file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
