"""Benchmark of the bihermite exact-verification battery.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library is driven from outside, through
``bihermite.cli.main(argv)`` for whole suites and through each module's public
functions for the layer numbers; nothing under ``src/`` is modified.

Every CLI invocation runs in a fresh single-threaded interpreter
(``worker.py``), because a CLI user pays interpreter start and imports each
time.  Workers run one after another, never side by side.  A run repeats
passes of its workload (see ``workloads.py``) until ``--seconds`` is used up,
then checks every output outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
each pass twice, untraced and traced, adds the layer microbenchmarks, and
reports the per-layer metrics.  The last line of stdout is one JSON object;
a provenance record goes to .bench_build/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
BUILD_DIR = ".bench_build"
# one process, no thread pools: the library's optional level pool and the BLAS
# pools numpy may start at import are all pinned to a single thread
PINNED_ENV = {
    "HERMITE_DEFORM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 5
# times are reported as on a host where one worker.Reference sample takes this
REFERENCE_S = 0.0015
WORKER_TIMEOUT_S = 150.0
SUITE_METRICS = ("orthonormal", "biorth", "repmat", "eigen", "intertwine", "lie")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


class Context:
    def __init__(self, root: Path, args):
        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.build = root / BUILD_DIR
        for sub in ("pycache", "results", "traces"):
            (self.build / sub).mkdir(parents=True, exist_ok=True)
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(root / "src"),
            "PYTHONPYCACHEPREFIX": str(self.build / "pycache"),
            **PINNED_ENV,
        }
        # (set-up time, reference time right after it) per interpreter
        self.setups: list[tuple[float, float]] = []
        self.worker_threads = 0

    def run_worker(self, job: dict) -> dict | None:
        """Start a worker, time it up to ``ready``, run ``job``; None on failure."""
        cmd = [sys.executable, str(HERE / "worker.py")]
        with open(self.build / "worker.stderr", "w") as err:
            t0 = perf_counter()
            with subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=self.root, text=True,
            ) as proc:
                timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    ready = proc.stdout.readline()
                    setup = perf_counter() - t0
                    if ready != "ready\n":
                        proc.kill()
                        return None
                    proc.stdin.write(json.dumps(job) + "\n")
                    proc.stdin.close()
                    out = proc.stdout.read()
                except OSError:
                    proc.kill()
                    return None
                finally:
                    proc.wait()
                    timer.cancel()
        if proc.returncode != 0 or not out.strip():
            return None
        result = json.loads(out.strip().splitlines()[-1])
        self.setups.append((setup, result["ref_after_setup_s"]))
        self.worker_threads = max(self.worker_threads, result.get("os_threads", 0))
        return result


def median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def run_passes(ctx: Context, seconds: float, traced: bool) -> list[dict]:
    """Passes over the workload until ``seconds`` are used up.

    The first pass always completes; after it, the run stops before an
    invocation that would not fit.  Traced runs follow every untraced
    invocation with a traced one on the same inputs.
    """
    passes = []
    start = perf_counter()
    for index in itertools.count():
        invs = workloads.make_pass(ctx.workload, ctx.seed, index)
        rec = {"invocations": [], "untraced": [], "traced": []}
        passes.append(rec)
        for j, inv in enumerate(invs):
            t = perf_counter()
            rec["invocations"].append(inv)
            rec["untraced"].append(ctx.run_worker({"type": "cli", "argv": inv["argv"]}))
            if traced:
                name = f"{ctx.workload}-seed{ctx.seed}-pass{index}-{j}.npz"
                rec["traced"].append(ctx.run_worker({
                    "type": "cli", "argv": inv["argv"], "trace": 1,
                    "trace_file": str(ctx.build / "traces" / name),
                }))
            now = perf_counter()
            first_pass_open = index == 0 and j + 1 < len(invs)
            if not first_pass_open and now - start + (now - t) > seconds:
                return passes
    raise AssertionError("unreachable")


def by_position(passes: list[dict], kind: str, value) -> list[list]:
    """value(result) of the j-th invocation of every pass, per position j.

    Passes share their structure, so position j is one kind of invocation
    (one suite at one level); failed invocations are left out."""
    cols: list[list] = [[] for _ in passes[0]["invocations"]]
    for p in passes:
        for j, res in enumerate(p[kind]):
            if res is not None:
                cols[j].append(value(res))
    return cols


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference computation took ``ref_s``
    on average, scaled to a host on which it takes REFERENCE_S.

    A shared host's speed changes by 2x and more in phases lasting from
    seconds to minutes, which no amount of repetition within one run
    averages out; the reference computation, timed in the same interpreter
    before, during and after each measurement, slows down with the library."""
    return seconds * REFERENCE_S / ref_s


def untraced_metrics(passes: list[dict]) -> dict:
    suite_times: dict[str, list[float]] = {}
    nonzero_share = []
    for p in passes:
        for inv, r in zip(p["invocations"], p["untraced"]):
            if r is None:
                continue
            for name, secs in r["suites"]:
                suite_times.setdefault(name, []).append(secs)
            lmax = inv["expect"]["biorth_lmax"]
            if lmax is None:
                continue
            try:
                summary = checks.reports_of(inv, r)["biorth"]["summary"]
                pairs = int(checks.PAIRINGS.search(summary).group(1))
            except (ValueError, KeyError, AttributeError):
                continue
            nonzero_share.append((lmax + 1) * (lmax + 2) / 2 / pairs)
    ncqm_qp = by_position(passes, "untraced", lambda r: sum(
        secs for name, secs in r["suites"] if name in ("ncqm", "qp")))
    rss = by_position(passes, "untraced", lambda r: r["rss_mb"])
    elapsed = by_position(passes, "untraced", lambda r: at_reference_speed(
        r["elapsed_s"], statistics.mean(r["ref_samples_s"])))
    raw = by_position(passes, "untraced", lambda r: r["elapsed_s"])
    out = {
        # one pass of the workload: per kind of invocation, the median time
        # over the run's passes
        "wall_s": sum(median(col) for col in elapsed),
        "wall_raw_s": sum(median(col) for col in raw),
        "peak_rss_mb": max(median(col) for col in rss),
        "suite.ncqm_qp_s": sum(median(col) for col in ncqm_qp),
        "deform.biorth_nonzero_pair_share": median(nonzero_share),
    }
    for name in SUITE_METRICS:
        out[f"suite.{name}_s"] = median(suite_times.get(name, []))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def traced_metrics(passes: list[dict]) -> dict:
    """Per-layer counts and self times, one value per traced pass, then medians."""
    import spans

    per_pass: dict[str, list[float]] = {}
    for p in passes:
        if len(p["traced"]) < len(passes[0]["invocations"]) or None in p["traced"]:
            continue
        tr = [r["trace"] for r in p["traced"]]
        count: dict[str, int] = {}
        self_name: dict[str, float] = {}
        for t in tr:
            for k, v in t["count_by_name"].items():
                count[k] = count.get(k, 0) + v
            for k, v in t["self_by_name"].items():
                self_name[k] = self_name.get(k, 0.0) + v
        wall = sum(t["wall_s"] for t in tr)
        layer_self = {lay: sum(t["self_by_layer"][lay] for t in tr) for lay in spans.LAYERS}
        mul_exact = sum(t["mul_exact"] for t in tr)
        values = {
            "trace.wall_s": wall,
            "trace.untraced_s": sum(t["untraced_s"] for t in tr),
            "coeffs.mul_calls": count.get("coeffs.Coeff.__mul__", 0),
            "coeffs.add_calls": count.get("coeffs.Coeff.__add__", 0),
            "coeffs.mul_sqrt2_share": _ratio(sum(t["mul_sqrt2"] for t in tr), mul_exact),
            "poly.inner_product_calls": count.get("poly.inner_product", 0),
            "weyl.mul_calls": count.get("weyl.WeylOp.__mul__", 0),
            "hermite.hermite_sum_calls": count.get("hermite.hermite_sum", 0),
            "hermite.hermite_sum_distinct_share": _ratio(
                sum(t["hermite_sum_distinct"] for t in tr), count.get("hermite.hermite_sum", 0)),
            "deform.rep_matrix_calls": count.get("deform.rep_matrix", 0),
            "deform.rep_matrix_self_s": self_name.get("deform.rep_matrix", 0.0),
            "deform.deformed_hermite_calls": count.get("deform.deformed_hermite", 0),
            "deform.deformed_hermite_distinct_share": _ratio(
                sum(t["deformed_hermite_distinct"] for t in tr), count.get("deform.deformed_hermite", 0)),
            "lie.jacobi_ok_calls": count.get("lie.StructureConstants.jacobi_ok", 0),
            "lie.jacobi_ok_self_s": self_name.get("lie.StructureConstants.jacobi_ok", 0.0),
            "linalg.rank_calls": count.get("linalg.rank", 0),
        }
        values.update({f"{lay}.self_s": v for lay, v in layer_self.items()})
        # shares of the traced wall time: zero, not a time, where a workload
        # never reaches a layer, and less sensitive to the machine's speed
        for name in [f"{lay}.self_s" for lay in spans.LAYERS] + [
                "deform.rep_matrix_self_s", "lie.jacobi_ok_self_s"]:
            values[name.removesuffix("_s") + "_share"] = _ratio(values[name], wall)
        for k, v in values.items():
            per_pass.setdefault(k, []).append(v)
    out = {k: median(v) for k, v in per_pass.items()}
    # each traced invocation ran right after its untraced twin: compare pairs
    ratios = [t["elapsed_s"] / u["elapsed_s"] for p in passes
              for u, t in zip(p["untraced"], p["traced"]) if u and t]
    out["trace.overhead_share"] = median(ratios, 1.0) - 1.0
    return out


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(ctx: Context, args, numpy_version: str | None) -> dict:
    import sympy

    return {
        "git_commit": git_commit(ctx.root),
        "src_sha256": source_digest(ctx.root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "worker_env": {k: v for k, v in ctx.env.items() if k != "PATH"},
        "worker_os_threads_max": ctx.worker_threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bihermite" / "__init__.py").is_file():
        raise BenchError(f"no bihermite sources under {root / 'src'}; run from the repository root")
    ctx = Context(root, args)

    # build: the first start compiles the sources into the bytecode cache
    probe = ctx.run_worker({"type": "probe"})
    if probe is None:
        raise BenchError(f"bihermite does not import; see {ctx.build / 'worker.stderr'}")
    ctx.setups.clear()
    for _ in range(SETUP_PROBES):
        ctx.run_worker({"type": "probe"})

    traced = bool(args.trace)
    inputs = workloads.micro_inputs(args.seed)
    budget = args.seconds
    if traced:
        # the layer microbenchmarks count against --seconds, so that a traced
        # run takes about as long as an untraced one
        t = perf_counter()
        lib = ctx.run_worker({"type": "micro", "inputs": inputs})
        budget -= perf_counter() - t
    passes = run_passes(ctx, budget, traced)
    setup_s = median([at_reference_speed(s, ref) for s, ref in ctx.setups])

    # correctness, outside the timed region
    tally = checks.Tally()
    for p in passes:
        for kind in ("untraced", "traced") if traced else ("untraced",):
            for inv, res in zip(p["invocations"], p[kind]):
                checks.check_invocation(inv, res, tally)
                if kind == "traced":
                    checks.check_trace(" ".join(inv["argv"]), res and res.get("trace"), tally)
    if not traced:
        # untimed, but it lengthens every run: the high levels wait for --trace 1
        inputs["rep_levels"] = [L for L in inputs["rep_levels"] if L <= 8]
        lib = ctx.run_worker({"type": "outputs", "inputs": inputs})
    checks.check_oracle(inputs, lib and lib["outputs"], tally)

    measured = {"setup_s": setup_s, "setup_raw_s": median([s for s, _ in ctx.setups]),
                "reference_after_setup_s": median([ref for _, ref in ctx.setups]),
                **untraced_metrics(passes)}
    if traced:
        measured.update(traced_metrics(passes))
        measured.update((lib or {}).get("micro", {}))
    with open(root / "BENCHMARK.json") as fh:
        wanted = json.load(fh)["per_layer" if traced else "end_to_end"]
    for m in wanted:
        tally.check(m["name"] in measured, f"metric {m['name']} not produced")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    measured["fail_share"] = tally.fail_share

    n_inv = sum(len(p["invocations"]) for p in passes)
    print(f"workload {ctx.workload}  seed {ctx.seed}  trace {args.trace}  "
          f"passes {len(passes)}  invocations {n_inv}  interpreter starts {len(ctx.setups)}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    for name in ["wall_raw_s", "setup_raw_s"] + [f"suite.{s}_s" for s in SUITE_METRICS] + ["suite.ncqm_qp_s"]:
        if measured[name]:
            print(f"  {name:42s} {measured[name]:>14.6g} s")
    print(f"  {'fail_share':42s} {tally.fail_share:>14.6g} ({tally.failed}/{tally.attempted})")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")

    record = {
        "provenance": provenance(ctx, args, probe.get("numpy")),
        "metrics": measured,
        "setups_s": ctx.setups,
        "elapsed_s": by_position(passes, "untraced", lambda r: r["elapsed_s"]),
        "reference_samples_s": by_position(passes, "untraced", lambda r: r["ref_samples_s"]),
        "failures": tally.failures,
    }
    out = ctx.build / "results" / f"{ctx.workload}-seed{ctx.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
