"""The lucasmagic benchmark.

Run from the repository root:

    python3 bench/run.py --workload build_verify --seed 1 --seconds 15 --trace 0

One process, one closed-loop client: the next operation starts when the
previous one has returned and been checked.  A run executes whole rounds
(see inputs.py) until --seconds have passed, so every run measures the
same mix of operations.  Operations are timed one by one; the output
checks run between them, outside the timed region.

Times are reported at a reference CPU speed.  On a shared machine the
speed of one hardware thread can change by 1.5-2x from one minute to the
next (another tenant on the sibling thread), which would swamp any change
in lucasmagic.  So a fixed pure-Python loop is timed between operations
(at least every CALIBRATE_EVERY_S of measured time), and each measured
time is multiplied by (REFERENCE_LOOP_S / the loop's time around it) **
SLOWDOWN_EXPONENT: between the fast and the slow quartile of loop times,
lucasmagic ops slowed by the loop's slowdown to the power 0.81-0.94.  The
process and its children are pinned to one CPU so that the loop and the
work share it.  Raw times, and the loop times, are kept in the record.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first rounds
untraced and then again traced (tracer.py) and prints the per-layer
metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a fuller record (environment,
per-kind latencies, per-level layer tables) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

SETUP_SPAWNS = 7
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.stdout.write('up\\n'); sys.stdout.flush()\n"
    "import {module}\n"
    "sys.stdout.write(repr(time.perf_counter() - t0) + '\\n'); sys.stdout.flush()\n"
)
SETUP_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 5
REFERENCE_LOOP_S = 0.004
SLOWDOWN_EXPONENT = 0.85
CALIBRATE_EVERY_S = 0.1

# Published single-run timings (ROADMAP baseline, Python 3.11, numpy 2.4)
# that the workloads reach; lucas at levels 5 and 6 is built by none.
ROADMAP_ANCHORS_MS = {
    "construct.lucas@L4": 7.3,
    "construct.apply_phase(two products)@L4": 82.0,
    "enumeration.enumerate_fundamental(lucas, materialized)@L3": 2300.0,
    "cli.fastest_call": 210.0,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("build_verify", "spectra", "enumerate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    problem = use_source_tree(src)
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    env_record = environment(root, args.seed)
    os.sched_setaffinity(0, {env_record["pinned_cpu"]})
    env = dict(os.environ, PYTHONPATH=str(src))
    bench = Bench(args.workload, args.seed, args.seconds, root, env)

    setup = bench.measure_setup()
    record = {"environment": env_record, "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "setup": setup}
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        bench.workdir = Path(workdir)
        if args.trace:
            result, metrics = bench.traced_run(setup, out_dir)
        else:
            result, metrics = bench.timed_run(setup)
    record.update(result)
    record["metrics"] = metrics
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    summarize(record, file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def use_source_tree(src: Path):
    """Import lucasmagic from `src`; returns a problem description or None."""
    if not (src / "lucasmagic" / "__init__.py").is_file():
        return "no src/lucasmagic here; run from the repository root"
    sys.path.insert(0, str(src))
    import lucasmagic

    if Path(lucasmagic.__file__).resolve().parent != (src / "lucasmagic").resolve():
        return f"imported lucasmagic from {lucasmagic.__file__}, not {src}"
    return None


def reference_loop() -> int:
    """Integer arithmetic and small-object churn, like lucasmagic's loops."""
    total = 0
    recent = {}
    for i in range(20000):
        total += (i * 2654435761) % 1000003
        recent[i & 255] = (i, total)
    return total


def loop_time() -> float:
    """The reference loop's time right now (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best


def speed_factor(loop_before: float, loop_after: float) -> float:
    """The factor that takes a time measured between two loop timings to the
    reference speed."""
    return (REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)) ** SLOWDOWN_EXPONENT


class SpeedScale:
    """Assigns each sample the speed factor of the loop timings around it."""

    def __init__(self):
        self.last = loop_time()
        self.loop_times = [self.last]
        self.pending = []
        self.since = 0.0

    def add(self, sample: list) -> None:
        self.pending.append(sample)
        self.since += sample[3]
        if self.since >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        now = loop_time()
        factor = speed_factor(self.last, now)
        for sample in self.pending:
            sample[5] = factor
        self.last = now
        self.loop_times.append(now)
        self.pending, self.since = [], 0.0


def scaled(samples) -> list[float]:
    return [s[3] * s[5] for s in samples]


class Bench:
    def __init__(self, workload, seed, seconds, root, env):
        import inputs
        import ops

        self.inputs, self.ops = inputs, ops
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.ctx = SimpleNamespace(root=root, env=env, in_process=False)
        self.workdir = None

    # -- set-up time -----------------------------------------------------------

    def measure_setup(self) -> dict:
        """Fresh interpreters, from spawn until `import lucasmagic` returns."""
        module = "lucasmagic.cli" if self.workload == "cli" else "lucasmagic"
        code = SETUP_CHILD.format(module=module)
        spawns = []
        loop_before = loop_time()
        for i in range(SETUP_SPAWNS + 1):
            t0 = perf_counter()
            with subprocess.Popen([sys.executable, "-c", code], cwd=self.ctx.root,
                                  env=self.ctx.env, stdout=subprocess.PIPE, text=True) as proc:
                try:
                    proc.stdout.readline()
                    t_up = perf_counter()
                    import_s = float(proc.stdout.readline())
                    t_done = perf_counter()
                finally:
                    proc.wait(SETUP_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child exited {proc.returncode}")
            loop_after = loop_time()
            factor = speed_factor(loop_before, loop_after)
            loop_before = loop_after
            if i:  # the first spawn also writes the bytecode cache
                spawns.append({"setup_s": t_done - t0, "interp_s": t_up - t0,
                               "import_s": import_s, "scale": factor})

        def median(key):
            return statistics.median(s[key] * s["scale"] for s in spawns)

        return {
            "module": module,
            "spawns": spawns,
            "setup_s": median("setup_s"),
            "setup_s_raw": statistics.median(s["setup_s"] for s in spawns),
            "interp_ms": 1e3 * median("interp_s"),
            "import_ms": 1e3 * median("import_s"),
        }

    # -- the closed loop -------------------------------------------------------

    def prepare(self, index: int) -> list[dict]:
        """Round `index`'s operations, with their input files written (untimed)."""
        ops = self.inputs.round_ops(self.workload, self.seed, index)
        for i, op in enumerate(ops):
            files = op.get("files")
            if files:
                op["dir"] = self.workdir / f"r{index}-{i}"
                op["dir"].mkdir()
                for name, text in files.items():
                    (op["dir"] / name).write_text(text)
        return ops

    def run_rounds(self, rounds, tracer=None, first_op_id=0) -> dict:
        """Run and check every op of `rounds`; returns timings and failures.

        A sample is [op id, kind, level, seconds, ok, speed factor].
        """
        samples, failures = [], []
        speed = SpeedScale()
        op_id = first_op_id
        for ops in rounds:
            gc.collect()
            for op in ops:
                if tracer is not None:
                    tracer.begin(op_id)
                error = None
                t0 = perf_counter()
                try:
                    out = self.ops.run_op(self.workload, op, self.ctx)
                except Exception:  # an operation that raises counts as failed
                    error = traceback.format_exc(limit=-3)
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.finish()
                if error is None:
                    try:
                        self.ops.check_op(self.workload, op, out)
                    except self.ops.CheckFailed as exc:
                        error = f"check failed: {exc}"
                    except Exception:
                        error = "checker raised: " + traceback.format_exc(limit=-3)
                if error is not None:
                    failures.append({"op": describe(op), "error": error})
                samples.append([op_id, op["kind"], op["level"], dt, error is None, None])
                speed.add(samples[-1])
                op_id += 1
        speed.flush()
        return {"samples": samples, "failures": failures, "loop_times": speed.loop_times}

    def timed_run(self, setup):
        if self.workload == "cli":
            usage = resource.RUSAGE_CHILDREN
        else:
            usage = resource.RUSAGE_SELF
        samples, failures, loop_times, rounds = [], [], [], 0
        t_start = perf_counter()
        while rounds == 0 or perf_counter() - t_start < self.seconds:
            res = self.run_rounds([self.prepare(rounds)], first_op_id=len(samples))
            samples += res["samples"]
            failures += res["failures"]
            loop_times += res["loop_times"]
            rounds += 1
        lat = scaled(samples)
        raw = [s[3] for s in samples]
        ok = sum(1 for s in samples if s[4])
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "ops_per_s": (ok / sum(lat), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_p90_ms": (1e3 * p90(lat), "ms"),
            "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
        }
        result = {
            "rounds": rounds, "elapsed_s": perf_counter() - t_start,
            "attempted": len(samples), "failed": len(failures),
            "fail_ratio": len(failures) / len(samples),
            "latency_samples": len(samples), "samples_beyond_p90": sum(x > p90(lat) for x in lat),
            "raw": {"ops_per_s": ok / sum(raw), "latency_p50_ms": 1e3 * statistics.median(raw),
                    "latency_p90_ms": 1e3 * p90(raw), "latency_min_ms": 1e3 * min(raw),
                    "setup_s": setup["setup_s_raw"]},
            "reference_loop_ms": loop_summary(loop_times),
            "by_kind": by_kind(samples), "failures": failures[:MAX_FAILURES_SHOWN],
        }
        if self.workload == "cli":
            result["anchors"] = anchors({"cli.fastest_call": 1e3 * min(raw)})
        return result, metrics

    def traced_run(self, setup, out_dir):
        """Untraced rounds, then the same rounds traced: per-layer metrics."""
        import tracer as tracing

        # the traced run calls cli.main in-process, so both passes do
        self.ctx.in_process = True
        rounds = []
        samples, failures, loop_times = [], [], []
        t_start = perf_counter()
        while not rounds or perf_counter() - t_start < self.seconds / 2:
            rounds.append(self.prepare(len(rounds)))
            res = self.run_rounds([rounds[-1]], first_op_id=len(samples))
            samples += res["samples"]
            failures += res["failures"]
            loop_times += res["loop_times"]
        busy_untraced = sum(scaled(samples))

        tr = tracing.Tracer()
        tr.install()
        try:
            traced = self.run_rounds(rounds, tracer=tr)
        finally:
            tr.uninstall()
        failures += traced["failures"]
        loop_times += traced["loop_times"]
        busy_traced = sum(scaled(traced["samples"]))
        ops_by_id = [op for ops in rounds for op in ops]
        tables = layer_tables(tr, traced["samples"])
        tr.save(out_dir / f"{self.workload}-seed{self.seed}-spans.npz")

        totals = tables["total"]
        n_ops = len(traced["samples"])

        def share(ms):
            return ms / totals["op_ms"]

        metrics = {}
        for layer in tracing.LAYERS:
            metrics[f"{layer}.calls"] = (totals["calls"].get(layer, 0) / n_ops, "count/op")
        for key in ("construct.entries_built", "exactmat.matmul_ops", "algebra.commutators",
                    "radical.radicals_built", "radical.squarefree_calls",
                    "enumeration.assignments_visited", "enumeration.canonical_calls"):
            metrics[key] = (totals["counts"][key] / n_ops, "count/op")
        for layer in tracing.LAYERS:
            metrics[f"{layer}.self_share"] = (share(totals["self_ms"].get(layer, 0.0)), "ratio")
        for key, ms in totals["named_ms"].items():
            metrics[key.replace("_ms", "_share")] = (share(ms), "ratio")
        metrics["spectra.nonzero_ratio"] = (totals["ratios"]["spectra.nonzero_ratio"], "ratio")
        metrics["enumeration.useful_ratio"] = (totals["ratios"]["enumeration.useful_ratio"],
                                               "ratio")
        metrics["trace.overhead"] = (busy_traced / busy_untraced, "ratio")
        metrics["cli.interp_ms"] = (setup["interp_ms"], "ms")
        metrics["cli.import_ms"] = (setup["import_ms"], "ms")

        result = {
            "rounds": len(rounds), "elapsed_s": perf_counter() - t_start,
            "attempted": len(samples) + n_ops, "failed": len(failures),
            "fail_ratio": len(failures) / (len(samples) + n_ops),
            "untraced_ops_per_s": len(samples) / busy_untraced,
            "traced_ops_per_s": n_ops / busy_traced,
            "spans": len(tr.start),
            "reference_loop_ms": loop_summary(loop_times),
            "layers": tables,
            "anchors": anchors(anchor_points(tr, ops_by_id, samples)),
            "failures": failures[:MAX_FAILURES_SHOWN],
        }
        return result, metrics


# -- statistics ---------------------------------------------------------------


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def loop_summary(times) -> dict:
    ms = sorted(1e3 * t for t in times)
    return {"count": len(ms), "min": ms[0], "median": statistics.median(ms), "max": ms[-1]}


def by_kind(samples) -> dict:
    """Raw latencies by operation kind and level."""
    groups = {}
    for _, kind, level, dt, *_ in samples:
        groups.setdefault(f"{kind}@L{level}", []).append(1e3 * dt)
    return {k: {"count": len(v), "median_ms": statistics.median(v), "max_ms": max(v)}
            for k, v in sorted(groups.items())}


def describe(op) -> dict:
    return {k: v for k, v in op.items() if k not in ("files", "dir")}


# Sub-layer busy times, summed over the spans of these functions.
NAMED_TIMES = {
    "construct.apply_phase_ms": ("construct.apply_phase",),
    "exactmat.rank_ms": ("exactmat.SquareMatrix.exact_rank",),
    "exactmat.grid_parse_ms": ("exactmat.SquareMatrix.from_grid",),
    "verify.recover_ms": ("verify.recover_lucas_params",),
    "radical.squarefree_ms": ("radical.squarefree_split",),
    "spectra.factor_ms": ("spectra.jcf_matrices", "spectra.svd_matrices"),
    "spectra.residual_ms": ("spectra.jcf_residual", "spectra.svd_residual",
                            "spectra.orthonormality_residual"),
    "cli.main_ms": ("cli.main",),
}
NAMED_COUNTS = {
    "algebra.commutators": ("exactmat.commutator",),
    "radical.radicals_built": ("radical.Radical.__init__",),
    "radical.squarefree_calls": ("radical.squarefree_split",),
    "enumeration.canonical_calls": ("construct.canonical_parameters",),
}


def layer_tables(tr, samples) -> dict:
    """Per-layer calls, self time and work counts: in total and per op level."""
    a = tr.arrays()
    names = tr.names
    dur = a["end"] - a["start"]
    inner = a["parent"] >= 0
    child = np.bincount(a["parent"][inner], weights=dur[inner], minlength=len(dur))
    self_ms = 1e3 * (dur - child)
    layers = sorted({n.split(".", 1)[0] for n in names})
    layer_of_name = np.array([layers.index(n.split(".", 1)[0]) for n in names], dtype=np.int32)
    span_layer = layer_of_name[a["name"]]
    op_level = {s[0]: s[2] for s in samples}
    op_ms = {s[0]: 1e3 * s[3] for s in samples}
    span_level = np.array([op_level[o] for o in a["op"]], dtype=np.int32)

    def table(mask, ops):
        n = max(len(ops), 1)
        row = {"ops": len(ops), "op_ms": sum(op_ms[o] for o in ops),
               "calls": {}, "self_ms": {}, "named_ms": {}, "counts": {}}
        for lid, layer in enumerate(layers):
            sel = mask & (span_layer == lid)
            row["calls"][layer] = int(sel.sum())
            row["self_ms"][layer] = float(self_ms[sel].sum())
        for key, fns in NAMED_TIMES.items():
            ids = [names.index(f) for f in fns if f in names]
            sel = mask & np.isin(a["name"], ids)
            row["named_ms"][key] = float(1e3 * dur[sel].sum())
        for key, fns in NAMED_COUNTS.items():
            ids = [names.index(f) for f in fns if f in names]
            row["counts"][key] = int((mask & np.isin(a["name"], ids)).sum())
        counters = {}
        for o in ops:
            for key, value in tr.counts[o].items():
                counters[key] = counters.get(key, 0) + value
        row["counts"]["construct.entries_built"] = counters.get("construct.entries_built", 0)
        row["counts"]["exactmat.matmul_ops"] = counters.get("exactmat.matmul_ops", 0)
        visited = counters.get("enumeration.natural_parameter_assignments.items", 0)
        row["counts"]["enumeration.assignments_visited"] = visited
        returned = counters.get("spectra.values_returned", 0)
        row["ratios"] = {
            "spectra.nonzero_ratio":
                counters.get("spectra.values_nonzero", 0) / returned if returned else 0.0,
            "enumeration.useful_ratio":
                counters.get("enumeration.fundamentals_found", 0) / visited if visited else 0.0,
        }
        row["per_op"] = {
            "self_ms": {k: v / n for k, v in row["self_ms"].items()},
            "calls": {k: v / n for k, v in row["calls"].items()},
        }
        return row

    all_ops = [s[0] for s in samples]
    out = {"total": table(np.ones(len(dur), dtype=bool), all_ops),
           "matmul_ops_note": "exactmat.matmul_ops is computed from sizes: n**3 per product"}
    for level in sorted(set(op_level.values())):
        ops = [o for o in all_ops if op_level[o] == level]
        out[f"L{level}"] = table(span_level == level, ops)
    return out


def anchor_points(tr, ops, untraced) -> dict:
    """Raw timings comparable with the ROADMAP baseline points: whole ops
    from the untraced pass, calls inside ops from the traced spans."""
    a = tr.arrays()
    names = tr.names
    dur_ms = 1e3 * (a["end"] - a["start"])
    levels = np.array([ops[o]["level"] for o in a["op"]], dtype=np.int32)
    out = {}

    def ids(name):
        return a["name"] == names.index(name)

    lucas = ids("construct.lucas") & (levels == 4)
    if lucas.any():
        out["construct.lucas@L4"] = float(np.median(dur_ms[lucas]))
    phase = ids("construct.apply_phase") & (levels == 4)
    if phase.any():
        matmul = ids("exactmat.SquareMatrix.__matmul__")
        products = np.bincount(a["parent"][matmul & (a["parent"] >= 0)],
                               minlength=len(dur_ms))
        sel = phase & (products == 2)
        if sel.any():
            out["construct.apply_phase(two products)@L4"] = float(np.median(dur_ms[sel]))
    enum = [1e3 * s[3] for s in untraced
            if ops[s[0]]["kind"] == "enum" and ops[s[0]]["level"] == 3
            and ops[s[0]]["family"] == "lucas" and ops[s[0]]["materialize"]]
    if enum:
        out["enumeration.enumerate_fundamental(lucas, materialized)@L3"] = statistics.median(enum)
    return out


def anchors(measured: dict) -> dict:
    out = {}
    for key, ref in ROADMAP_ANCHORS_MS.items():
        if key in measured:
            ratio = measured[key] / ref
            out[key] = {"measured_ms": measured[key], "roadmap_ms": ref, "ratio": ratio,
                        "off_by_more_than_2x": not 0.5 <= ratio <= 2.0}
    return out


# -- environment --------------------------------------------------------------


def git_sha(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "loadavg": loadavg,
    }


def summarize(record, file) -> None:
    env = record["environment"]
    print(f"bench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"sha={env['git_sha']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} loadavg={env['loadavg']}", file=file)
    print(f"  rounds={record['rounds']} elapsed={record['elapsed_s']:.1f}s "
          f"attempted={record['attempted']} failed={record['failed']}", file=file)
    for key, (value, unit) in record["metrics"].items():
        print(f"  {key} = {value:.6g} {unit}", file=file)
    if "untraced_ops_per_s" in record:
        print(f"  tracing: {record['untraced_ops_per_s']:.4g} ops/s untraced, "
              f"{record['traced_ops_per_s']:.4g} ops/s traced, {record['spans']} spans",
              file=file)
    for key, a in record.get("anchors", {}).items():
        flag = "  OFF BY >2x" if a["off_by_more_than_2x"] else ""
        print(f"  anchor {key}: {a['measured_ms']:.1f} ms vs ROADMAP {a['roadmap_ms']} ms{flag}",
              file=file)
    for f in record["failures"]:
        print(f"  FAILED {f['op']}: {f['error']}", file=file)


if __name__ == "__main__":
    sys.exit(main())
