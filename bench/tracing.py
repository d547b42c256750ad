"""Spans recorded from outside the package.

Tracer.install() replaces the module attributes through which the
package calls its own layers (for example storesched.milp.solve_lp, the
name solve_milp looks up for every node LP) with thin wrappers that
record a span per call: name, start, end, parent.  Nothing under src/
changes; uninstall() puts the originals back.
"""

import functools
import json
import math
import statistics
import time

from storesched import cli, conditions, dp, lp, milp, prices, storage

# (module, attribute, span name): the span name is the layer that defines
# the function, whichever module the call goes through
TARGETS = (
    (lp, "solve_bounded_lp", "simplex.solve_bounded_lp"),
    (lp, "build_lp", "lp.build_lp"),
    (milp, "build_lp", "lp.build_lp"),
    (lp, "solve_lp", "lp.solve_lp"),
    (milp, "solve_lp", "lp.solve_lp"),
    (lp, "kkt_verify", "lp.kkt_verify"),
    (lp, "solve_storage_lp", "lp.solve_storage_lp"),
    (cli, "solve_storage_lp", "lp.solve_storage_lp"),
    (milp, "solve_milp", "milp.solve_milp"),
    (cli, "solve_milp", "milp.solve_milp"),
    (milp, "build_milp", "milp.build_milp"),
    (cli, "build_milp", "milp.build_milp"),
    (milp, "solve_storage_milp", "milp.solve_storage_milp"),
    (storage, "detect_scd", "storage.detect_scd"),
    (lp, "detect_scd", "storage.detect_scd"),
    (milp, "detect_scd", "storage.detect_scd"),
    (cli, "detect_scd", "storage.detect_scd"),
    (milp, "repair_scd", "storage.repair_scd"),
    (cli, "feasibility_check", "storage.feasibility_check"),
    (cli, "solve_dp", "dp.solve_dp"),
    (conditions, "advise", "conditions.advise"),
    (cli, "advise", "conditions.advise"),
    (cli, "lemma1_classify", "conditions.lemma1_classify"),
    (prices, "partition", "prices.partition"),
    (cli, "partition", "prices.partition"),
    (cli, "read_price_csv", "prices.read_price_csv"),
    (cli, "main", "cli.main"),
    (cli, "cmd_compare", "cli.compare"),
    (cli, "cmd_solve", "cli.solve"),
    (cli, "cmd_check", "cli.check"),
    (cli, "read_params_file", "cli.read_params_file"),
)


class Tracer:
    """In-memory span log.  spans[i] = [name, start, end, parent, op]; the
    parent is a span index or -1, op the index of the benchmark op."""

    def __init__(self):
        self.spans = []
        self.iterations = {}  # span index -> simplex iterations
        self.kkt_residuals = []
        self.dp_calls = []  # (span index, params, prices, config) per solve_dp call
        self.op = -1
        self._stack = []
        self._saved = []

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if name == "simplex.solve_bounded_lp":
                self.iterations[index] = result.iterations
            elif name == "lp.kkt_verify":
                self.kkt_residuals.append(result)
            elif name == "dp.solve_dp":
                self.dp_calls.append((index, args[0], args[1], args[2]))
            return result

        return wrapper

    def install(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                fh.write(json.dumps(record) + "\n")


def dp_cells(params, prices_, config) -> int:
    """Computed work of one solve_dp call: T x grid points x candidate
    actions, the candidate count being the rows of dp._action_table."""
    n = config.grid_points
    h = (params.s_max - params.s_min) / (n - 1)
    reach_chg = math.floor(params.dt * params.eta_c * params.p_chg_max / h + 1e-9) + 1
    reach_dis = math.floor(params.dt * params.p_dis_max / (params.eta_d * h) + 1e-9) + 1
    actions = min(reach_chg + 1, n) + min(reach_dis + 1, n)
    return len(prices_) * n * actions


def counters(tracer, ops=None) -> dict:
    """Deterministic counts, optionally restricted to a set of op indices."""
    keep = (lambda op: True) if ops is None else (lambda op: op in ops)
    spans = tracer.spans
    simplex = [i for i, s in enumerate(spans) if s[0] == "simplex.solve_bounded_lp" and keep(s[4])]
    nodes = sum(
        1 for s in spans
        if s[0] == "lp.solve_lp" and s[3] >= 0 and spans[s[3]][0] == "milp.solve_milp"
        and keep(s[4])
    )
    cells = sum(dp_cells(p, c, cfg) for i, p, c, cfg in tracer.dp_calls if keep(spans[i][4]))
    return {
        "simplex.calls": len(simplex),
        "simplex.iterations": sum(tracer.iterations.get(i, 0) for i in simplex),
        "milp.nodes": nodes,
        "dp.cells": cells,
    }


def layer_metrics(tracer) -> dict:
    """Per-layer figures of one traced pass: totals in seconds, counts,
    and the self time of a span (its duration minus its children's)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_time, count = {}, {}, {}
    durations = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
        count[name] = count.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)

    def tot(name):
        return total.get(name, 0.0)

    def med(name, scale):
        values = durations.get(name)
        return statistics.median(values) * scale if values else 0.0

    node_lp = [
        end - start for name, start, end, parent, op in spans
        if name == "lp.solve_lp" and parent >= 0 and spans[parent][0] == "milp.solve_milp"
    ]
    incumbents = sum(
        1 for name, start, end, parent, op in spans
        if name == "storage.repair_scd" and parent >= 0 and spans[parent][0] == "milp.solve_milp"
    )
    det = counters(tracer)
    iters, calls, nodes = det["simplex.iterations"], det["simplex.calls"], det["milp.nodes"]
    simplex_s = tot("simplex.solve_bounded_lp")
    dp_s = tot("dp.solve_dp")
    errors = [dp.dp_value_error_bound(p, c, cfg) for i, p, c, cfg in tracer.dp_calls]
    return {
        "simplex.calls": (calls, "count"),
        "simplex.iterations": (iters, "count"),
        "simplex.iters_per_call": (iters / calls if calls else 0.0, "count"),
        "simplex.us_per_iter": (simplex_s / iters * 1e6 if iters else 0.0, "us"),
        "simplex.s": (simplex_s, "s"),
        "milp.solve.s": (tot("milp.solve_milp"), "s"),
        "milp.nodes": (nodes, "count"),
        "milp.node_lp.ms": (statistics.median(node_lp) * 1e3 if node_lp else 0.0, "ms"),
        "milp.nodes_per_s": (nodes / tot("milp.solve_milp") if nodes else 0.0, "1/s"),
        "milp.incumbent_updates": (incumbents, "count"),
        "milp.useful_ratio": (incumbents / nodes if nodes else 0.0, "ratio"),
        "milp.self.s": (sum(v for k, v in self_time.items() if k.startswith("milp.")), "s"),
        "lp.build.s": (tot("lp.build_lp"), "s"),
        "lp.solve.s": (tot("lp.solve_lp"), "s"),
        "lp.kkt_verify.s": (tot("lp.kkt_verify"), "s"),
        "lp.kkt_max_residual": (max(tracer.kkt_residuals, default=0.0), "abs"),
        "storage.detect_scd.s": (tot("storage.detect_scd"), "s"),
        "storage.repair_scd.s": (tot("storage.repair_scd"), "s"),
        "storage.feasibility_check.s": (tot("storage.feasibility_check"), "s"),
        "dp.solve.s": (dp_s, "s"),
        "dp.cells": (det["dp.cells"], "count"),
        "dp.cells_per_s": (det["dp.cells"] / dp_s if dp_s else 0.0, "1/s"),
        "dp.error_bound": (max(errors, default=0.0), "EUR"),
        "conditions.advise.us": (med("conditions.advise", 1e6), "us"),
        "conditions.advise.calls": (count.get("conditions.advise", 0), "count"),
        "prices.read_csv.s": (tot("prices.read_price_csv"), "s"),
        "prices.partition.s": (tot("prices.partition"), "s"),
        "cli.compare.s": (tot("cli.compare"), "s"),
        "cli.solve.s": (tot("cli.solve"), "s"),
        "cli.check.s": (tot("cli.check"), "s"),
        "cli.self.s": (sum(v for k, v in self_time.items() if k.startswith("cli.")), "s"),
    }
