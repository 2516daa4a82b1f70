"""sentigru benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload train_paper --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric carries
its unit. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer split from a traced run. The lines above it repeat each metric by
name and unit and list the environment. See README.md in this directory.

This script only orchestrates. It generates the seeded inputs with the
standard library, then starts ``worker.py`` in fresh processes that import
sentigru from ``src/`` of the checkout this file sits in, with BLAS pinned to
one thread. The program never sees the seed, only the generated files.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import synth

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The paper configuration, spelled out so the benchmark keeps measuring it
# even if the library defaults change.
PAPER = {
    "model": {"vocab_size": 50_000, "embed_dim": 50, "seq_len": 79,
              "gru_units": [120, 64, 64], "dropout_rate": 0.3,
              "num_classes": 6, "dtype": "float32"},
    "train_records": 80,      # 64 training rows = 1 batch of 64, 16 validation
    "vocab_records": 6_000,   # texts the model file's vocabulary is built from
    "predict_texts": 2_000,   # more than one run predicts, so none repeats
    "eval_rows": 128,         # 2 batches of 64 per evaluation
    "ingest_records": 12_000,
    "check_rows": 16,         # evaluate rows recomputed at batch 1
    "setup_runs": 5,          # set-up samples per run; setup_s is their median
}

WORKLOADS = {
    "train_paper": "GRU forward plus BPTT backward, BatchNorm train mode, dropout "
                   "and Adam over 2.8M parameters do about 97% of the work; GRU "
                   "hot-path changes have to show here",
    "predict_single": "a batch-1 forward makes about 950 tiny matmul calls per text: "
                      "per-call overhead dominates, backward and Adam are bypassed, "
                      "big-matmul-only optimisations show their cost",
    "evaluate_bulk": "the sentigru evaluate path: the training GRU layers, forward "
                     "only in infer mode at batch 64; an infer path without BPTT "
                     "caches shows here and not in train_paper",
    "ingest_corpus": "corpus and wordstats take under 1% of the other workloads; "
                     "here they run alone on 12k records with no model, so a token "
                     "cache shows and GRU changes move nothing",
}

# (name, unit, better, bound); every workload reports every one of them.
# The host's speed swings by up to 2x over tens of seconds, so throughput is
# taken from a run's fastest operation: the program's own cost, which that
# swing cannot lower. Median and mean latency are printed beside it.
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

LAYERS = ("embedding", "dropout", "bidirectional_gru_1", "bidirectional_gru_2",
          "batch_norm", "bidirectional_gru_3", "dense")
SPANS = [f"layers.{layer}.{d}" for layer in LAYERS for d in ("fwd", "bwd")] + [
    "layers.softmax_cross_entropy",
    "numerics.matmul", "numerics.sigmoid",
    "trainer.fit", "trainer.train_epoch", "trainer.evaluate", "trainer.adam",
    "trainer.predict_codes",
    "model.forward_train", "model.forward_infer", "model.backward",
    "model.zero_grad", "model.predict",
    "serialize.load", "serialize.load.build_model", "serialize.save",
    "corpus.load_dataset", "corpus.text_to_tokens", "corpus.build_vocabulary",
    "corpus.encode_corpus", "corpus.split",
    "wordstats.frequency_by_label", "metrics.report_from_predictions",
]
CALLS = ("numerics.matmul", "numerics.sigmoid", "corpus.text_to_tokens")
COUNTS = [("numerics.matmul.macs", "MAC", "lower"),
          ("numerics.matmul.gmacs_per_s", "GMAC/s", "higher"),
          ("trainer.adam.params", "count", "lower"),
          ("serialize.file_bytes", "bytes", "lower"),
          ("model.forward_train.alloc_peak_mb", "MB", "lower"),
          ("model.forward_infer.alloc_peak_mb", "MB", "lower"),
          ("trace.spans", "count", "lower"), ("trace.wall_s", "s", "lower"),
          ("trace.self_s_total", "s", "lower"), ("trace.untraced_ops_s", "s", "lower"),
          ("trace.traced_ops_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]


def time_keys(span: str) -> tuple[str, str]:
    """Metric names for a span's total and self time."""
    if span.endswith((".fwd", ".bwd")):
        return f"{span}_s", f"{span}_self_s"
    return f"{span}.s", f"{span}.self_s"


# (name, unit, better)
PER_LAYER = ([(key, "s", "lower") for span in SPANS for key in time_keys(span)]
             + [(f"{span}.calls", "count", "lower") for span in CALLS] + COUNTS)


class BenchError(RuntimeError):
    """A worker process failed; the run reports no result."""


def make_inputs(workload: str, seed: int, work: Path, sizes: dict) -> None:
    """Seeded CSV inputs for one workload; the same seed gives the same files."""
    gen = synth.TextGenerator(seed)
    if workload == "train_paper":
        synth.write_csv(work / "train.csv", gen.records(sizes["train_records"]))
    elif workload == "ingest_corpus":
        synth.write_csv(work / "ingest.csv", gen.records(sizes["ingest_records"]))
    else:
        synth.write_csv(work / "vocab.csv", gen.records(sizes["vocab_records"]))
        if workload == "predict_single":
            synth.write_csv(work / "texts.csv", gen.records(sizes["predict_texts"]))
        else:
            synth.write_csv(work / "eval.csv", gen.records(sizes["eval_rows"]))


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(workload: str, seed: int, work: Path, sizes: dict, phase: str,
           *extra: str) -> tuple[float, dict]:
    """Run worker.py once; returns (seconds from start to ready, its result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--work", str(work), "--seed", str(seed), "--sizes", json.dumps(sizes),
           "--phase", phase, *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=worker_env()) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=170)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or (phase != "prepare" and ready != "ready\n"):
        raise BenchError(f"worker {phase} for {workload} exited with {proc.returncode}")
    lines = (ready + rest).strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if phase == "measure" else {})


def end_to_end(res: dict, setup_samples: list) -> dict:
    return {
        "throughput_per_s": max(n / t for n, t in zip(res["items"], res["latencies"])),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    totals, counters = traced["totals"], traced["counters"]
    out = {}
    for span in SPANS:
        _, seconds, own = totals.get(span, (0, 0.0, 0.0))
        total_key, self_key = time_keys(span)
        out[total_key], out[self_key] = seconds, own
    for span in CALLS:
        out[f"{span}.calls"] = totals.get(span, (0,))[0]
    macs, mm_s = counters.get("numerics.matmul.macs", 0), out["numerics.matmul.s"]
    adam_calls = totals.get("trainer.adam", (0,))[0]
    n = len(traced["latencies"])
    out.update({
        "numerics.matmul.macs": macs,
        "numerics.matmul.gmacs_per_s": macs / mm_s / 1e9 if mm_s else 0.0,
        "trainer.adam.params": (counters.get("trainer.adam.params", 0) // adam_calls
                                if adam_calls else 0),
        "serialize.file_bytes": counters["serialize.file_bytes"],
        "model.forward_train.alloc_peak_mb": 0.0,
        "model.forward_infer.alloc_peak_mb": 0.0,
        **traced["alloc_peak_mb"],
        "trace.spans": traced["spans"],
        "trace.wall_s": traced["traced_wall"],
        "trace.self_s_total": sum(own for _, _, own in totals.values()),
        "trace.untraced_ops_s": sum(untraced["latencies"][:n]),
        "trace.traced_ops_s": sum(traced["latencies"]),
    })
    out["trace.overhead_s"] = out["trace.traced_ops_s"] - out["trace.untraced_ops_s"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict = PAPER) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    work = BENCH_DIR / "_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        make_inputs(workload, seed, work, sizes)
        if workload in ("predict_single", "evaluate_bulk"):
            worker(workload, seed, work, sizes, "prepare")
        if not trace:
            samples = [worker(workload, seed, work, sizes, "setup")[0]
                       for _ in range(sizes["setup_runs"] - 1)]
            setup_s, res = worker(workload, seed, work, sizes, "measure",
                                  "--seconds", str(seconds))
            values, units = end_to_end(res, samples + [setup_s]), END_TO_END
            results = [res]
        else:
            # the untraced half fixes the op count the traced half repeats
            _, base = worker(workload, seed, work, sizes, "measure",
                             "--seconds", str(seconds / 2))
            out_dir = BENCH_DIR / "_out"
            out_dir.mkdir(exist_ok=True)
            _, traced = worker(workload, seed, work, sizes, "measure",
                               "--ops", str(len(base["latencies"])), "--trace-out",
                               str(out_dir / f"trace-{workload}-{seed}.tsv"))
            values, units, results = per_layer(traced, base), PER_LAYER, [base, traced]
            res = traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m[0]: {"value": values[m[0]], "unit": m[1]} for m in units},
        "_facts": facts(res),
    }


def facts(res: dict) -> dict:
    """Figures that are not metrics on every workload, for the report lines."""
    lat = sorted(res["latencies"])
    out = dict(res["facts"], ops=len(lat), errors=res["errors"][:5], env=res["env"],
               peak_rss_mb=res["peak_rss_mb"],
               **{"op_ms.min": lat[0] * 1e3, "op_ms.p50": statistics.median(lat) * 1e3,
                  "op_ms.mean": statistics.mean(lat) * 1e3})
    if len(lat) >= 200:   # at least ten samples lie beyond p95
        p95 = statistics.quantiles(lat, n=20)[-1]
        out["op_ms.p95"] = p95 * 1e3
        out["ops_beyond_p95"] = sum(x > p95 for x in lat)
    return out


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": sys.version.split()[0],
            "threads": {k: v for k, v in worker_env().items() if k.endswith("_THREADS")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one sentigru benchmark workload.")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "sentigru" / "__init__.py").is_file():
        print(f"error: no sentigru sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = result.pop("_facts")
    info["env"].update(environment())
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
