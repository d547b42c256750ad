"""storesched benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout.  Every pass runs in a fresh
process (bench/passes.py) with OpenBLAS pinned to one thread; end-to-end
times are scaled to a nominal host speed (bench/reference.py).  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass.  The full record (every op time,
counters, provenance) goes to .bench_out/.  See bench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "storesched"
WORKLOADS = ("bnb_mixed", "horizon_ladder", "cli_compare")
SETUP_SAMPLES = 5  # set-up times per run, from the timed rounds and set-up-only passes
# Seconds of --seconds that one round of each pool stands for: a run makes
# round(--seconds / ROUND_S) rounds, at least one, so the estimator never
# depends on how fast the code under test is.
ROUND_S = {"bnb_mixed": 13.0, "horizon_ladder": 15.0, "cli_compare": 10.0}
RUN_LIMIT_S = 170.0
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class PassFailed(RuntimeError):
    pass


class Runner:
    """Starts passes, each in its own process and work directory, and
    stops them at the run's deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workroot = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.count = 0

    def run(self, mode, *extra) -> dict:
        self.count += 1
        workdir = self.workroot / str(self.count)
        cmd = [sys.executable, str(BENCH / "passes.py"), mode, "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(workdir), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed(f"{mode} pass: run time limit of {RUN_LIMIT_S} s reached")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREADS},
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{mode} pass: run time limit of {RUN_LIMIT_S} s reached") from None
        if proc.returncode != 0:
            raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def close(self):
        shutil.rmtree(self.workroot, ignore_errors=True)
        try:
            self.workroot.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is gone


def source_facts() -> dict:
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_loc": loc,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": THREADS}


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 301):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 3e-14:
            break
    return h


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def harrell_davis(samples, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, so that it does not jump between neighbouring ops
    the way a single order statistic of a small pool does."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def tail(samples):
    """The highest percentile with at least ten ops beyond it, (n - 10) / n,
    as (value, percentile, ops beyond).  Below 20 ops that percentile would
    lie under the median, so small pools report p90 instead."""
    n = len(samples)
    p = (n - 10) / n if n >= 20 else 0.9
    return harrell_davis(samples, p), 100.0 * p, n * (1 - p)


def failures(*passes):
    return [op for p in passes for op in p["ops"] if op["status"] != "ok"]


def incorrect(*passes):
    """Failures other than a hit budget: an exception, a wrong exit code or
    a failed verification."""
    return [op for op in failures(*passes) if op["status"] != "timeout"]


def scaled(pass_):
    """The op times of one pass at the nominal host speed; an op that hit
    its budget keeps the budget."""
    factors = reference.op_speeds(pass_["ops"])
    return [op["seconds"] * (1.0 if op["status"] == "timeout" else f)
            for op, f in zip(pass_["ops"], factors)]


def wall(pass_):
    return [op["seconds"] for op in pass_["ops"]]


def op_times(rounds, times_of):
    """Each op's median time over the rounds, times_of(round) giving the
    times of one round."""
    times = {}
    for r in rounds:
        for op, t in zip(r["ops"], times_of(r)):
            times.setdefault(op["label"], []).append(t)
    return [statistics.median(t) for t in times.values()]


def timing(per_op):
    tail_s, tail_pct, beyond = tail(per_op)
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_s.p50": (harrell_davis(per_op, 0.5), "s"),
        "op_s.tail": (tail_s, "s"),
    }, tail_pct, beyond


def end_to_end(runner, seconds):
    """Rounds of the whole pool, each in a fresh process, every other one
    in reverse order; an op that hit its budget is not run again, since
    its time is the budget.  Every time is scaled to the nominal host
    speed by the calibration samples taken next to it (reference.py), and
    an op's time is the median of its rounds."""
    count = max(1, round(seconds / ROUND_S[runner.workload]))
    rounds = [runner.run("timed")]
    for r in range(1, count):
        hit = {op["label"] for p in rounds for op in p["ops"] if op["status"] == "timeout"}
        again = [str(k) for k, op in zip(rounds[0]["indices"], rounds[0]["ops"])
                 if op["label"] not in hit]
        if not again:
            break
        rounds.append(runner.run("timed", "--ops", ",".join(again),
                                 *(["--reverse"] if r % 2 else [])))
    passes = rounds + [runner.run("setup") for _ in range(SETUP_SAMPLES - len(rounds))]
    setup_speed = [reference.speed([s for t, s in p["setup_ref"]]) for p in passes]
    setup_wall = [p["setup_s"] for p in passes]
    setups = [s * f for s, f in zip(setup_wall, setup_speed)]
    timings, tail_pct, beyond = timing(op_times(rounds, scaled))
    wall_timings, _, _ = timing(op_times(rounds, wall))
    # an op of the pool is ok when it passed in every round it ran in
    failed_labels = {op["label"] for op in failures(*rounds)}
    ok_ratio = 1 - len(failed_labels) / len(rounds[0]["ops"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **timings,
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    # the same op must give the same objectives in every round it completed
    objectives = {}
    for r in rounds:
        for op in r["ops"]:
            if op["status"] == "ok":
                objectives.setdefault(op["label"], set()).add(json.dumps(op["objectives"]))
    repeats = all(len(v) == 1 for v in objectives.values())
    notes = {"setup_samples_s": setups, "rounds": len(rounds),
             "ops_per_round": len(rounds[0]["ops"]), "op_s.tail_percentile": tail_pct,
             "op_s.tail_ops_beyond": beyond, "fail_ratio": 1 - ok_ratio,
             "objectives_repeat_exactly": repeats,
             "speed_factors": [statistics.median(reference.op_speeds(r["ops"])) for r in rounds],
             "wall": {"setup_s": statistics.median(setup_wall),
                      **{k: v for k, (v, u) in wall_timings.items()}}}
    return metrics, notes, rounds, repeats


def per_layer(runner, spans_path, src_loc):
    untraced = runner.run("timed")
    traced = runner.run("traced", "--spans", str(spans_path))
    done = [str(k) for k, op in zip(traced["indices"], traced["ops"]) if op["status"] == "ok"]
    repeat = runner.run("counters", "--ops", ",".join(done)) if done else traced
    repeats = (repeat["counters"] == traced["counters"]
               and repeat["checksum"] == traced["checksum"])
    overhead = sum(scaled(traced)) - sum(scaled(untraced))
    timeouts = sum(op["status"] == "timeout" for op in traced["ops"])
    metrics = dict(traced["layers"])
    metrics["milp.timeouts"] = (timeouts, "count")
    metrics["cli.bytes_written"] = (traced["bytes_written"], "bytes")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["src.loc"] = (src_loc, "lines")
    for key, value in traced["counters"].items():
        metrics[f"det.{key}"] = (value, "count")
    notes = {"counters": traced["counters"], "counters_repeat": repeat["counters"],
             "checksum": traced["checksum"], "checksum_repeat": repeat["checksum"],
             "counters_repeat_exactly": repeats, "spans": str(spans_path.relative_to(ROOT))}
    return metrics, notes, [untraced, traced, repeat], repeats


def measure(args) -> int:
    runner = Runner(args.workload, args.seed)
    facts = source_facts()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, notes, passes, repeats = per_layer(runner, spans, facts["src_loc"])
            counted = passes[1:2]  # the traced pass
        else:
            metrics, notes, passes, repeats = end_to_end(runner, args.seconds)
            counted = passes
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.close()

    bad = incorrect(*passes)
    correct = repeats and not bad
    attempted = sum(len(p["ops"]) for p in counted)
    failed = len(failures(*counted))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "incorrect_ops": bad,
        "provenance": {**facts, **passes[0]["provenance"]},
        "ops": [op for p in counted for op in p["ops"]],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for op in failures(*counted):
        print(f"# failed op {op['label']}: {op['status']} {op['detail']}")
    for op in bad:
        print(f"# INCORRECT {op['label']}: {op['status']} {op['detail']}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def smoke() -> int:
    """Each workload on its first two ops: traced, then the counters pass
    again, checking outputs and that the counters repeat."""
    status = 0
    for workload in WORKLOADS:
        runner = Runner(workload, 0)
        try:
            traced = runner.run("traced", "--ops", "0,1")
            repeat = runner.run("counters", "--ops", "0,1")
        except PassFailed as exc:
            print(f"{workload}: FAIL {exc}")
            status = 1
            continue
        finally:
            runner.close()
        bad = incorrect(traced, repeat)
        same = traced["counters"] == repeat["counters"] and traced["checksum"] == repeat["checksum"]
        ok = not bad and same
        status |= not ok
        print(f"{workload}: {'ok' if ok else 'FAIL'} ops={[op['label'] for op in traced['ops']]} "
              f"statuses={[op['status'] for op in traced['ops']]} counters={traced['counters']} "
              f"repeat={'same' if same else repeat['counters']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run each workload on two ops")
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: no storesched sources at {SRC.relative_to(ROOT)}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
