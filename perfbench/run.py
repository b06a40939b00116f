"""Benchmark for the layerburn command line, end to end and layer by layer.

Run from the root of a layerburn checkout:

    python3 perfbench/run.py --workload drift-roundtrip --seed 0 --seconds 52 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 52 --trace 1

One run generates the workload's configs from the seed, then repeats the
workload in this process (BLAS and OpenMP pinned to one thread) while another
repetition fits in --seconds, timing set-up in fresh interpreters between
repetitions, and checks the outputs.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
repetitions and reports the per-layer metrics, the tracing overhead and the
kernel microbench.  The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; a full record with provenance goes to .bench_out/.
`--workload all` runs every workload one after another, each in its own
process.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIPPED = ("drift_benchmark", "ignition_coupled", "dependence_study", "reactive_two_layer")
SETUP_REPEATS = 7

# A fresh interpreter doing what every CLI call starts with; times exclude
# interpreter start-up.
_SETUP = r"""
import sys, time, json
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import layerburn.io_cli as io_cli
t1 = time.perf_counter()
configs = [io_cli.parse_config(open(path).read()) for path in sys.argv[2:]]
t2 = time.perf_counter()
for config in configs:
    config.problem()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_config_s": t2 - t1,
                  "problem_s": t3 - t2, "total_s": t3 - t0, "file": io_cli.__file__}))
"""


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "layerburn" / "__init__.py").is_file() or not all(
        (ROOT / "configs" / f"{name}.cfg").is_file() for name in SHIPPED):
    _fail(f"{ROOT} is not a layerburn checkout (need src/layerburn and configs/*.cfg)")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layerburn  # noqa: E402
from layerburn import io_cli  # noqa: E402

if not Path(layerburn.__file__).resolve().is_relative_to(SRC):
    _fail(f"layerburn imported from {layerburn.__file__}, not from {SRC}")

import kernel  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, span_cost_us  # noqa: E402


def provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def time_setup(config_paths: list[Path]) -> dict:
    """One set-up in a fresh interpreter: import, parse and build every config."""
    proc = subprocess.run([sys.executable, "-c", _SETUP, str(SRC), *map(str, config_paths)],
                          capture_output=True, text=True, timeout=120, env=os.environ)
    if proc.returncode != 0:
        _fail(f"set-up failed:\n{proc.stderr}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    if not Path(rec["file"]).resolve().is_relative_to(SRC):
        _fail(f"set-up imported layerburn from {rec['file']}")
    return rec


def survey(out_dir: Path) -> tuple[int, int, str]:
    """(files, bytes, sha256 over names and contents) of one run's outputs."""
    h = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
        files += 1
        nbytes += len(data)
    return files, nbytes, h.hexdigest()


def iterate(steps, config_paths, out_dir: Path, tracer: Tracer | None) -> tuple:
    """One repetition of the workload; returns (record, drift read-back or None)."""
    out_dir.mkdir()
    sink = io.StringIO()
    rc = product = None
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc, product = workloads.run_calls(steps, config_paths, out_dir)
    except Exception:  # a bug in the program: count the repetition as failed
        print(traceback.format_exc(), file=sys.stderr)
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if rc != 0:
        print(f"exit code {rc}\n{sink.getvalue()}", file=sys.stderr)
    files, nbytes, digest = survey(out_dir)
    rec = {"traced": tracer is not None, "rc": rc, "wall_s": wall, "files": files,
           "bytes": nbytes, "digest": digest}
    return rec, product


def tally(records: list[dict], check_ok: bool) -> int:
    """Failed repetitions: nonzero exit, or output other than the checked one."""
    d0 = records[0]["digest"]
    return sum(1 for r in records if not (check_ok and r["rc"] == 0 and r["digest"] == d0))


def _median(values):
    return statistics.median(values) if values else math.nan


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    steps = workloads.WORKLOADS[name]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        texts = workloads.make_configs(ROOT, steps, seed)
        config_paths = [tmp / Path(step.config).name for step in steps]
        for path, text in zip(config_paths, texts):
            path.write_text(text)

        records, layer_recs, setups, product = [], [], [], None
        last_spans = []
        start = perf_counter()
        # Start a repetition only if it should end within the time given;
        # a traced run needs one untraced and one traced repetition.
        while (not records or (trace and len(records) < 2)
               or (perf_counter() - start) * (len(records) + 1) / len(records) <= seconds):
            # Set-up samples are spread evenly over the run, between repetitions,
            # so that they see the same host speed as the repetitions do.
            while (len(setups) < SETUP_REPEATS
                   and len(setups) * seconds / SETUP_REPEATS <= perf_counter() - start):
                setups.append(time_setup(config_paths))
            k = len(records)
            tracer = Tracer() if trace and k % 2 == 1 else None
            rec, prod = iterate(steps, config_paths, tmp / f"run{k}", tracer)
            if k == 0:
                product = prod
            else:
                shutil.rmtree(tmp / f"run{k}")
            if tracer is not None:
                summary = tracer.summary()
                rec["self_sum_s"] = summary["self_sum"]
                rec["spans"] = len(tracer.spans)
                layer_recs.append(layer_metrics(summary, tracer.counts))
                last_spans = tracer.spans
            records.append(rec)
        while len(setups) < SETUP_REPEATS:
            setups.append(time_setup(config_paths))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        first = records[0]
        if first["rc"] == 0:
            ok, ref_err, notes = workloads.check(steps, texts, tmp / "run0", product)
        else:
            ok, ref_err, notes = False, math.nan, [f"exit code {first['rc']}"]
        if any(r["digest"] != first["digest"] for r in records):
            notes.append("repetitions (traced or not) wrote different bytes")
        failed = tally(records, ok)

        untraced = [r["wall_s"] for r in records if not r["traced"] and r["rc"] == 0]
        run_s = _median(untraced)
        if not trace:
            node_steps = sum(workloads.node_steps(step, io_cli.parse_config(text))
                             for step, text in zip(steps, texts))
            metrics = {
                "setup_s": (_median([s["total_s"] for s in setups]), "s"),
                "run_s": (run_s, "s"),
                "node_steps_per_s": (node_steps / run_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "output_bytes": (first["bytes"], "B"),
                "output_files": (first["files"], "count"),
                "ref_err": (ref_err, "rel"),
            }
        else:
            traced = [r for r in records if r["traced"] and r["rc"] == 0]
            traced_s = _median([r["wall_s"] for r in traced])
            span_us = span_cost_us()
            metrics = {key: (_median([lr[key][0] for lr in layer_recs]), unit)
                       for key, (_, unit) in layer_recs[0].items()}
            metrics.update({
                "trace.run_s": (traced_s, "s"),
                "trace.untraced_run_s": (run_s, "s"),
                "trace.overhead_s": (traced_s - run_s, "s"),
                "trace.overhead_frac": ((traced_s - run_s) / run_s, "rel"),
                "trace.self_sum_s": (_median([r["self_sum_s"] for r in traced]), "s"),
                "trace.spans": (_median([r["spans"] for r in traced]), "count"),
                "trace.span_cost_us": (span_us, "us"),
                "trace.overhead_est_s":
                    (1e-6 * span_us * _median([r["spans"] for r in traced]), "s"),
            })
            for part in ("import_s", "parse_config_s", "problem_s"):
                metrics[f"setup.{part}"] = (_median([s[part] for s in setups]), "s")
            metrics.update(kernel.microbench())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "provenance": provenance(), "checks": {"ok": ok, "notes": notes},
            "records": records, "setups": setups,
            "correct": bool(ok and failed == 0), "attempted": len(records),
            "failed": failed, "metrics": metrics, "spans": last_spans}


def _num(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def report(res: dict) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}"
    spans = res.pop("spans")
    metrics = {k: {"value": _num(v), "unit": u} for k, (v, u) in res["metrics"].items()}
    (out_dir / f"{stem}.json").write_text(json.dumps(dict(res, metrics=metrics), indent=1))
    if spans:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))

    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  "
          f"repetitions {res['attempted']}  failed {res['failed']}  "
          f"fail_frac {res['failed'] / res['attempted']:.3g}")
    print("provenance " + json.dumps(res["provenance"]))
    print(f"checks {'pass' if res['checks']['ok'] else 'FAIL'}"
          + "".join(f"; {n}" for n in res["checks"]["notes"]))
    for name, (v, u) in res["metrics"].items():
        print(f"  {name:48s} {v:14.6g} {u}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=52)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        rcs = [subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
               for name in workloads.WORKLOADS]
        return max(rcs)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(res)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
