"""One benchmark invocation in a fresh interpreter.

Protocol: the worker imports ``bihermite`` and writes ``ready`` on stdout, so
the parent can time interpreter start plus import.  It then reads one JSON job
from stdin, runs it, and writes one JSON result line on stdout.  Right after
``ready``, during an untraced CLI call and after the job it times a fixed
exact computation (``Reference``), which tells the parent how fast the host
ran at those moments.

Jobs:
  {"type": "probe"}                           set-up only
  {"type": "cli", "argv": [...], "trace": 0|1, "trace_file": path|null}
  {"type": "micro", "inputs": {...}}          layer microbenchmarks + oracle outputs
  {"type": "outputs", "inputs": {...}}        oracle outputs only
"""

import contextlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import bihermite.cli


BRACKET_SAMPLES = 5
SAMPLE_EVERY_S = 0.1


class Reference:
    """Times of a fixed exact computation, the square of a rational 8x8
    matrix, which allocates and multiplies Fractions as the library does
    (about 1.5 ms on a quiet host)."""

    def __init__(self):
        rng = random.Random(0)
        self.a = [[Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(8)]
                  for _ in range(8)]
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_):
        a = self.a
        t = perf_counter()
        [[sum(a[i][k] * a[k][j] for k in range(8)) for j in range(8)] for i in range(8)]
        dt = perf_counter() - t
        self.samples.append(dt)
        self.spent += dt

    @contextlib.contextmanager
    def every(self, seconds: float):
        """Sample from a timer signal every ``seconds`` while the block runs."""
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def run_cli(job: dict, ref: Reference) -> dict:
    tracer = None
    # untraced calls sample the host's speed as they run; traced calls do
    # not, so that no span holds a sample
    sampling = contextlib.nullcontext() if job.get("trace") else ref.every(SAMPLE_EVERY_S)
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    # suite stopwatch outside any span, so it never counts as layer time
    suites = []
    run_suite = bihermite.cli.run_suite

    def timed_run_suite(name, args):
        t, spent = perf_counter(), ref.spent
        try:
            return run_suite(name, args)
        finally:
            suites.append([name, perf_counter() - t - (ref.spent - spent)])

    bihermite.cli.run_suite = timed_run_suite
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    spent = ref.spent
    t0 = perf_counter()
    try:
        with sampling, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = bihermite.cli.main(job["argv"])
    except Exception:  # a crash is a failed invocation, reported to the parent
        error = traceback.format_exc()
    t1 = perf_counter()
    bihermite.cli.run_suite = run_suite
    result = {"rc": rc, "elapsed_s": t1 - t0 - (ref.spent - spent), "suites": suites,
              "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(t0, t1)
        if job.get("trace_file"):
            tracer.write(job["trace_file"], t0, t1)
    return result


def main():
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    ref = Reference()
    for _ in range(BRACKET_SAMPLES):
        ref.sample()
    after_setup = statistics.mean(ref.samples)
    job = json.loads(sys.stdin.readline())
    kind = job["type"]
    if kind == "probe":
        import numpy

        result = {"numpy": numpy.__version__}
    elif kind == "cli":
        result = run_cli(job, ref)
    elif kind in ("micro", "outputs"):
        import micro

        result = {"outputs": micro.outputs(job["inputs"])}
        if kind == "micro":
            result["micro"] = micro.run(job["inputs"])
    else:
        raise ValueError(f"unknown job type {kind!r}")
    for _ in range(BRACKET_SAMPLES):
        ref.sample()
    result["ref_after_setup_s"] = after_setup
    result["ref_samples_s"] = ref.samples
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["os_threads"] = _os_threads()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
