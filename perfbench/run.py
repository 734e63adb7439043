"""laplaceqm benchmark: three closed-loop CLI workloads, checked against oracles.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload continuum_validate --seed 1 --seconds 20 --trace 0

One caller runs ``laplaceqm.cli.main([...])`` in this process, capturing its
output in memory, and sends the next operation only when the previous one
has returned.  The seed fixes the operations (see workloads.py).  The run
repeats whole passes over them until ``--seconds`` of operation time and at
least MIN_SAMPLES operations have accumulated.  Every output is checked
against an oracle computed before timing starts (see oracles.py).

Times are reported at the host's reference speed: a fixed computation that
does not touch laplaceqm is timed after every operation, and each operation
time is scaled by REFERENCE_S over the median of the REFERENCE_WINDOW
reference times nearest to it in its pass (see ``time_reference``).  The raw
operation time and the scale factors are printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one pass traced (see tracer.py), prints the per-layer metrics
for the traced pass, and writes its spans under ``.bench_build/perfbench``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# cap the BLAS / OpenMP pools before numpy loads, in this process and the
# set-up probes it starts
THREAD_CAPS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"

MIN_SAMPLES = 110  # so that at least 10 operations lie beyond p90
SETUP_REPEATS = 9
REFERENCE_WINDOW = 11  # reference timings around an operation that set its scale

# The host shares its cores with other tenants, and its speed drifts by up
# to 1.7x for seconds to minutes at a time, which moves every timing of a
# 30 s run by as much as any change to the program would.  A reference
# computation timed next to the operations follows that drift.  It uses only
# Python and numpy, never laplaceqm, so no change to the program moves it.
REFERENCE_S = 1.15e-3  # the reference's time on a 2-vCPU Xeon VM when the host is idle


def _reference_work() -> float:
    total = 0j
    for k in range(1, 3000):
        z = complex(k, 0.5)
        total += z ** -2 + abs(z) * 1e-9
    a = np.linspace(0.1, 5.0, 200)
    for _ in range(20):
        total += float(np.sum(np.sqrt(a) * np.exp(-a)))
    return abs(total)


def time_reference() -> float:
    """Seconds one run of the reference computation takes now."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "laplaceqm" / "__init__.py").is_file():
        _fail(f"no laplaceqm package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from laplaceqm import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        _fail(f"imported laplaceqm from {cli.__file__}, not from {SRC}")
    return cli


def _environment(args) -> dict:
    import mpmath
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)), "thread_caps": THREAD_CAPS,
    }


class Runner:
    """Invokes operations in process and judges each output once."""

    def __init__(self, cli, wants):
        from oracles import check, digest

        self.cli, self.wants = cli, wants
        self._check, self._digest = check, digest
        self._verdicts = {}
        self.bytes_out = 0
        self.raw_s = 0.0  # operation time as measured, before scaling
        self.scales = []  # the reference scale factor of each sample

    def invoke(self, op):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(op.argv))
            except Exception:  # a crash is recorded as an unexpected failure
                traceback.print_exc()
                code = 1
        elapsed = time.perf_counter() - start
        out, err = out.getvalue(), err.getvalue()
        self.bytes_out += len(out.encode())
        return elapsed, self.judge(op, code, out, err)

    def judge(self, op, code, out, err):
        # the CLI is deterministic: identical output gets the identical verdict
        key = (op.argv, self._digest(code, out if code == 0 else err))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op.params, self.wants[op.argv], code, out, err)
        return self._verdicts[key]

    def passes(self, ops, seconds: float, min_samples: int):
        """Whole passes over ops until both budgets are met; [(seconds, verdict)].

        The budget counts operation time as measured; each sample is that
        time scaled to the reference speed by the reference times nearest
        to it, which follow the host's speed better than a whole pass's.
        """
        samples, busy = [], 0.0
        while True:
            timed, refs = [], []
            for op in ops:
                elapsed, verdict = self.invoke(op)
                timed.append((elapsed, verdict))
                refs.append(time_reference())
                busy += elapsed
            width = min(REFERENCE_WINDOW, len(refs))
            for i, (elapsed, verdict) in enumerate(timed):
                lo = min(max(0, i - width // 2), len(refs) - width)
                scale = REFERENCE_S / statistics.median(refs[lo:lo + width])
                self.scales.append(scale)
                samples.append((elapsed * scale, verdict))
            if busy >= seconds and len(samples) >= min_samples:
                self.raw_s += busy
                return samples


def _points_per_s(samples) -> float:
    return sum(v.points for _, v in samples if v.ok) / sum(t for t, _ in samples)


def _setup_seconds(warm) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        refs = [time_reference() for _ in range(3)]
        start = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantise the reading; a blocking wait does not
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *warm.argv],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        refs += [time_reference() for _ in range(3)]
        times.append(elapsed * REFERENCE_S / statistics.median(refs))
        if proc.returncode != 0:
            _fail(f"set-up probe exited {proc.returncode} on {' '.join(warm.argv)}")
    return statistics.median(times)


def _end_to_end(runner, samples, setup_s: float) -> dict:
    ms = [t * 1e3 for t, _ in samples]
    p90 = statistics.quantiles(ms, n=10)[-1]
    good = [v for _, v in samples if v.ok]
    scales = statistics.quantiles(runner.scales, n=4)
    print(f"samples = {len(ms)}, beyond_p90 = {sum(t > p90 for t in ms)}, "
          f"failed = {len(ms) - len(good)}, operation_s = {runner.raw_s:.3f} as measured, "
          f"{sum(ms) / 1e3:.3f} at reference speed")
    print(f"reference scale over {len(runner.scales)} operations: quartiles "
          + ", ".join(f"{q:.3f}" for q in scales))
    return {
        "points_per_s": (_points_per_s(samples), "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_p90": (p90, "ms"),
        "ok_share": (len(good) / len(ms), "ratio"),
        "agree_digits": (min((v.digits for v in good), default=0.0), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(runner, ops, env):
    """One untraced and one traced pass; (samples, per-layer metrics)."""
    from laplaceqm.contour_eval import PrecisionLoss
    from tracer import Tracer

    plain = runner.passes(ops, 0.0, 0)
    tracer = Tracer()
    bytes_before = runner.bytes_out
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced = runner.passes(ops, 0.0, 0)
    finally:
        tracer.uninstall()
    tracer.counts["bytes_out"] = runner.bytes_out - bytes_before
    tracer.counts["precision_loss"] = sum(issubclass(w.category, PrecisionLoss) for w in caught)
    plain_pps, traced_pps = _points_per_s(plain), _points_per_s(traced)
    print(f"points_per_s untraced = {plain_pps:.6g}, traced = {traced_pps:.6g}")
    metrics = tracer.metrics()
    metrics["trace.overhead_share"] = (1.0 - traced_pps / plain_pps, "ratio")
    path = TRACE_DIR / f"trace-{env['workload']}-{env['seed']}.jsonl"
    tracer.write(path, {"env": env, "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"spans = {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return plain + traced, metrics


def prepare(workload: str, seed: int):
    """(runner, warm-up op, one pass of ops) with oracles computed and the warm-up run."""
    from oracles import expected
    from workloads import generate

    cli = _import_package()
    warm, ops = generate(workload, seed)
    runner = Runner(cli, {op.argv: expected(op.params) for op in [warm, *ops]})
    _, verdict = runner.invoke(warm)
    if not verdict.ok:
        _fail(f"warm-up operation failed: {verdict.detail}")
    for _ in range(20):
        time_reference()
    return runner, warm, ops


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner, warm, ops = prepare(args.workload, args.seed)
    env = _environment(args)
    print("env = " + json.dumps(env, sort_keys=True))
    if args.trace:
        samples, metrics = per_layer(runner, ops, env)
    else:
        samples = runner.passes(ops, args.seconds, MIN_SAMPLES)
        metrics = _end_to_end(runner, samples, _setup_seconds(warm))

    unexpected = [v.detail for _, v in samples if not (v.ok or v.expected_failure)]
    for detail in sorted(set(unexpected)):
        print(f"unexpected failure: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(samples),
        "failed": sum(not v.ok for _, v in samples),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
