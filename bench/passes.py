"""One benchmark pass in a fresh process; run.py starts it.

    python3 bench/passes.py MODE --workload W --seed N --workdir DIR [--ops I,J,...] [--reverse]
                            [--spans FILE]

MODE is one of
  setup    import, generate, write input files; report the set-up time
           and the calibration samples (reference.py) taken after it;
  timed    the same, then run the op pool (or the ops named by --ops)
           once, untraced, with calibration samples before every op;
  traced   the same with the spans of tracing.py installed;
  counters the same as traced, reporting only the deterministic counters.
The pass prints one JSON object on its last stdout line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import storesched  # noqa: E402

if Path(storesched.__file__).resolve().parent != ROOT / "src" / "storesched":
    sys.exit(f"storesched imported from {storesched.__file__}, not from {ROOT / 'src'}")

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def checksum(results) -> str:
    digest = hashlib.sha256()
    for r in results:
        if r.status == "ok":
            digest.update(repr(r.objectives).encode())
    return digest.hexdigest()[:16]


def openblas_info() -> dict:
    """Version from numpy's build configuration; the thread count from the
    environment the pass was started with (run.py pins it)."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def op_record(label, r, start, ref):
    return {"label": label, "start": start, "seconds": r.seconds, "status": r.status,
            "detail": r.detail, "objectives": list(r.objectives), "bytes": r.bytes_written,
            "ref": ref}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "timed", "traced", "counters"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", help="comma-separated op indices (default: the whole pool)")
    parser.add_argument("--reverse", action="store_true", help="run the ops in reverse order")
    parser.add_argument("--spans", help="write the spans of a traced pass to this JSONL file")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        out = {"setup_s": setup_s}
        if args.mode != "counters":  # the counters pass times nothing
            reference.warm_up()
            out["setup_ref"] = reference.samples(reference.SETUP_SAMPLES)
        if args.mode != "setup":
            out.update(run(args, workload))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["provenance"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "openblas": openblas_info(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


def run(args, workload) -> dict:
    indices = ([int(i) for i in args.ops.split(",")] if args.ops
               else list(range(len(workload.labels))))
    if args.reverse:
        indices.reverse()
    refs = 0 if args.mode == "counters" else reference.per_op(len(workload.labels))
    tracer = None
    if args.mode in ("traced", "counters"):
        tracer = tracing.Tracer()
        tracer.install()
    results, starts, ref = [], [], []
    try:
        for k in indices:
            ref.append(reference.samples(refs))
            if tracer is not None:
                tracer.op = len(results)
            starts.append(time.perf_counter())
            results.append(workload.run_op(k))
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "indices": indices,
        "ops": [op_record(workload.labels[k], r, start, samples)
                for k, r, start, samples in zip(indices, results, starts, ref)],
        "checksum": checksum(results),
    }
    if tracer is not None:
        completed = {n for n, r in enumerate(results) if r.status == "ok"}
        out["counters"] = tracing.counters(tracer, completed)
        if args.mode == "traced":
            out["layers"] = tracing.layer_metrics(tracer)
            out["bytes_written"] = sum(r.bytes_written for r in results)
            if args.spans:
                tracer.dump(args.spans)
    return out


if __name__ == "__main__":
    main()
