#!/usr/bin/env python3
"""Benchmark for srcy.

    python3 bench/run.py --workload {run-all,complexes,pfaffians} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  With `--trace 0` the workload runs in whole rounds for
at least S seconds, untraced, and the end-to-end metrics are reported.
With `--trace 1` one fixed round of every workload runs under the tracer
in `tracing.py`, and the per-layer metrics are reported (S is not used).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A record of the run (and
in traced runs, the spans) is written to `bench/out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import inputs
import oracles
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("run-all", "complexes", "pfaffians")
SECTIONS = ("sr", "t1", "aut", "orbits", "pfaffian", "torus", "toric", "cohom", "milnor")
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 150

# The `srcy` console script, so that one operation is what a user runs.
RUN_ALL_ARGV = ["-c", "import sys; from srcy.cli import main; sys.exit(main())",
                "run-all", "--format", "json"]

SETUP_CODE = """
import sys
from time import perf_counter
start = perf_counter()
import srcy
from srcy import fixtures
for name in fixtures.TRIANGULATIONS:
    fixtures.triangulation(name)
for name in ("p7_1", "p7_2", "p7_3", "p7_4", "p7_5", "degree13_oneparam", "degree14_oneparam"):
    fixtures.family_matrix(name)
for name in ("quintic", "degree13_expected", "degree14_expected"):
    fixtures.generator_vector(name)
fixtures.subdivision_fan()
fixtures.hypersurface_monomials()
fixtures.component_table()
fixtures.scroll_polytope()
fixtures.ci_complexes()
sys.stdout.write(repr(perf_counter() - start))
"""

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced round of each workload: self times (`_s`)
# of public functions, and call counts (`_calls`).
RUN_ALL_SELF = (
    "pfaffian.principal_pfaffians", "families.check_first_order_lift",
    "deformation.t1_degree_zero_basis", "symmetry.automorphism_group",
    "symmetry.orbits_on_t1", "toric.verify_smooth_subdivision", "toric.all_charts",
    "toric.derive_component_structure", "toric.match_component_table",
    "toric.intersection_complex", "report.emit",
)
RUN_ALL_CALLS = (
    "pfaffian.pfaffian", "polynomial.mul", "deformation.t1_degree_zero_basis",
    "symmetry.automorphism_group", "intlinalg.det",
)
RUN_ALL_LAYERS = (
    "simplicial", "sr_ideal", "deformation", "symmetry", "polynomial", "pfaffian",
    "families", "torusgroup", "intlinalg", "toric", "cohomology", "fileio", "report",
    "verify", "cli", "fixtures",
)
COMPLEXES_SELF = (
    "simplicial.is_combinatorial_3sphere_candidate", "sr_ideal.minimal_nonfaces",
    "sr_ideal.hilbert_numerator", "deformation.t1_degree_zero_basis",
    "deformation.admissible_b", "deformation.t1_link_table_crosscheck",
    "deformation.first_order_family", "symmetry.automorphism_group",
    "symmetry.orbits_on_t1",
)
COMPLEXES_CALLS = ("deformation.admissible_b",)
COMPLEXES_LAYERS = ("simplicial", "sr_ideal", "deformation", "symmetry", "polynomial")
PFAFFIANS_SELF = ("pfaffian.pfaffian", "pfaffian.principal_pfaffians", "polynomial.mul",
                  "polynomial.add")
PFAFFIANS_CALLS = ("polynomial.mul", "polynomial.add")
PFAFFIANS_LAYERS = ("pfaffian", "polynomial")


class Tally:
    """Operations attempted and failed, and problems with the outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []

    def fail(self, what, detail):
        self.failed += 1
        self.errors.append("%s: %s" % (what, detail))

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:20], "problems": self.problems[:20]}


# -- child processes --------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv):
    """Run `python argv...`; return (stdout, stderr, exit code, peak RSS in MB, wall s)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter() - start
    return out, err[0] if err else b"", proc.returncode, usage.ru_maxrss / 1024, wall


def measure_setup():
    """Median time to import srcy and parse the fixture tree in a fresh interpreter."""
    samples = []
    for i in range(SETUP_REPEATS + 1):  # the first one may write bytecode caches
        out, err, code, _rss, _wall = run_child(["-c", SETUP_CODE])
        if code != 0:
            raise RuntimeError("set-up child failed: %s" % err.decode(errors="replace")[-500:])
        if i:
            samples.append(float(out))
    return statistics.median(samples), samples


# -- untraced workloads --------------------------------------------------------------


class RunAllRound:
    """One `srcy run-all --format json` process per round.

    Every payload must be byte-identical to the first one of the run.
    """

    def __init__(self, tally):
        self.tally = tally
        self.first = None
        self.rss_mb = []

    def __call__(self, round_index):
        tally = self.tally
        tally.attempted += 1
        out, err, code, peak, wall = run_child(RUN_ALL_ARGV)
        if code not in (0, 1) or not out.strip():
            tally.fail("run-all", "exit %s: %s" % (code, err.decode(errors="replace")[-300:]))
            return []
        self.rss_mb.append(peak)
        if code != 0:
            tally.problems.append("run-all exited %d" % code)
        if self.first is None:
            self.first = out
            tally.problems.extend(oracles.run_all_problems(out))
        elif out != self.first:
            tally.problems.append("payload of round %d differs from the first one" % round_index)
        return [("run-all", wall)]


def complexes_op(srcy, k):
    sphere = srcy.is_combinatorial_3sphere_candidate(k)
    nonfaces = srcy.minimal_nonfaces(k)
    numerator = srcy.hilbert_numerator(k)
    basis = srcy.t1_degree_zero_basis(k)
    rows = srcy.t1_link_table_crosscheck(k)
    family = srcy.first_order_family(k)
    group = srcy.automorphism_group(k)
    orbits = srcy.orbits_on_t1(group, basis)
    return sphere, nonfaces, numerator, basis, rows, family, group, orbits


def complexes_summary(outputs):
    sphere, nonfaces, numerator, basis, rows, family, group, orbits = outputs
    h = [numerator.coefficient_of("t", i).constant_value()
         for i in range(numerator.total_degree() + 1)]
    return {
        "sphere_ok": sphere.ok,
        "nonfaces": sorted(tuple(g) for g in nonfaces.generators),
        "h_vector": h,
        "t1_dim": len(basis),
        "link_table_ok": all(r.ok for r in rows),
        "family_shape": (len(family.params), len(family.generators), family.ring.nvars),
        "aut_order": group.order,
        "orbit_sizes": orbits.sizes(),
    }


def complexes_round(srcy, spheres, seed, round_index, tally):
    """One round of the chain; returns (sphere name, wall s) per operation."""
    items = inputs.complexes_round(spheres, seed, round_index)
    walls = []
    results = []
    for item in items:
        k = inputs.build_complex(srcy, item)
        tally.attempted += 1
        start = perf_counter()
        try:
            outputs = complexes_op(srcy, k)
        except Exception as exc:  # counted, and the round goes on
            tally.fail(item.sphere.name, repr(exc))
            continue
        walls.append((item.sphere.name, perf_counter() - start))
        result = complexes_summary(outputs)
        results.append((item, result))
        tally.problems.extend("%s copy %d: %s" % (item.sphere.name, item.copy, p)
                              for p in oracles.complex_problems(item, result))
    tally.problems.extend(oracles.relabeling_problems(results))
    return walls


def pfaffians_op(srcy, m):
    if m.dim % 2 == 0:
        return [srcy.pfaffian(m)]
    return srcy.principal_pfaffians(m)


def pfaffians_round(srcy, seed, round_index, tally, outputs=None):
    """One matrix per size; returns (size, wall s) per operation."""
    items = inputs.pfaffians_round(seed, round_index)
    matrices = [inputs.build_matrix(srcy, item) for item in items]
    walls = []
    for item, m in zip(items, matrices):
        tally.attempted += 1
        start = perf_counter()
        try:
            polys = pfaffians_op(srcy, m)
        except Exception as exc:  # counted, and the round goes on
            tally.fail("matrix %d (size %d)" % (item.index, item.dim), repr(exc))
            continue
        walls.append((item.dim, perf_counter() - start))
        if outputs is not None:
            outputs.extend(polys)
        values = [[p.evaluate(point) for p in polys] for point in item.points]
        tally.problems.extend("size %d: %s" % (item.dim, p)
                              for p in oracles.pfaffian_problems(item, values))
    return walls


def rounds_for(seconds, one_round):
    """Whole rounds until `seconds` have passed; one list of walls per round."""
    start = perf_counter()
    rounds = []
    while not rounds or perf_counter() - start < seconds:
        rounds.append(one_round(len(rounds)))
    return rounds


def untraced(srcy, workload, seed, seconds, tally, record):
    setup, setup_samples = measure_setup()
    record["setup_samples_s"] = setup_samples
    if workload == "run-all":
        one_round = RunAllRound(tally)
    elif workload == "complexes":
        spheres = inputs.sphere_classes(ROOT)
        one_round = lambda r: complexes_round(srcy, spheres, seed, r, tally)
    else:
        one_round = lambda r: pfaffians_round(srcy, seed, r, tally)
    rounds = [walls for walls in rounds_for(seconds, one_round) if walls]
    record["op_walls_s"] = rounds
    if not rounds:
        raise RuntimeError("no operation completed: %s" % tally.errors[:3])
    if workload == "run-all":
        rss = statistics.median(one_round.rss_mb)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Medians over rounds: the machine's speed drifts between rounds, and a
    # mean would follow its fastest and slowest stretches.
    round_s = [sum(w for _, w in r) for r in rounds]
    return {
        "setup_s": setup,
        "op_s": statistics.median(t / len(r) for t, r in zip(round_s, rounds)),
        "ops_per_s": statistics.median(len(r) / t for t, r in zip(round_s, rounds)),
        "peak_rss_mb": rss,
    }


# -- traced round ---------------------------------------------------------------------


def cli_in_process(srcy, argv):
    """`srcy.cli.main(argv)` with standard output captured as bytes."""
    buf = io.BytesIO()
    stream = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = stream
    try:
        code = srcy.cli.main(argv)
    finally:
        stream.flush()
        sys.stdout = saved
    return code, buf.getvalue().strip()


def traced_call(label, fn, spans_path):
    """Run fn() untraced, traced, and untraced again.

    Returns the tracer, the mean untraced and the traced wall time, and the
    untraced and traced results; the difference of the wall times is the
    tracing overhead, with drift between passes averaged out.
    """
    untraced_walls = []

    def untraced():
        gc.collect()
        start = perf_counter()
        result = fn()
        untraced_walls.append(perf_counter() - start)
        return result

    untraced_result = untraced()
    gc.collect()
    with Tracer() as tracer:
        start = perf_counter()
        traced_result = fn()
        traced_s = perf_counter() - start
    untraced()
    tracer.write_spans(spans_path, label)
    return tracer, statistics.mean(untraced_walls), traced_s, untraced_result, traced_result


def layer_metrics(prefix, tracer, untraced_s, traced_s, self_names, call_names, layers):
    out = {}
    for name in self_names:
        out["%s.%s_s" % (prefix, name)] = tracer.self_time.get(name, 0.0)
    for name in call_names:
        out["%s.%s_calls" % (prefix, name)] = tracer.calls.get(name, 0)
    layer_self = tracer.layer_self_time()
    for layer in layers:
        out["%s.%s.self_s" % (prefix, layer)] = layer_self.get(layer, 0.0)
    out["%s.untraced_s" % prefix] = untraced_s
    out["%s.traced_s" % prefix] = traced_s
    out["%s.trace_overhead_s" % prefix] = traced_s - untraced_s
    return out


def trace_run_all(srcy, spans_path, tally):
    argv = ["run-all", "--format", "json"]
    tally.attempted += 3
    tracer, untraced_s, traced_s, (_, untraced_payload), (code, payload) = traced_call(
        "run-all", lambda: cli_in_process(srcy, argv), spans_path)
    if code != 0:
        tally.problems.append("in-process run-all returned %s" % code)
    tally.problems.extend(oracles.run_all_problems(payload))
    if payload != untraced_payload:
        tally.problems.append("traced and untraced payloads differ")
    out = layer_metrics("run_all", tracer, untraced_s, traced_s,
                        RUN_ALL_SELF, RUN_ALL_CALLS, RUN_ALL_LAYERS)
    out["run_all.fileio.parse_s"] = sum(
        t for name, t in tracer.self_time.items() if name.startswith("fileio.parse_"))
    for section in SECTIONS:
        tally.attempted += 1
        start = perf_counter()
        report = srcy.run_all(only=[section])
        out["run_all.verify.%s_s" % section] = perf_counter() - start
        if not report.ok:
            tally.problems.append("section %s has failing checks" % section)
    tally.attempted += 1
    with Tracer() as section_tracer:
        srcy.run_all(only=["pfaffian"])
    out["run_all.verify.pfaffian_self_s"] = section_tracer.layer_self_time().get("verify", 0.0)
    return out


def trace_complexes(srcy, seed, spans_path, tally):
    spheres = inputs.sphere_classes(ROOT)
    tracer, untraced_s, traced_s, _, _ = traced_call(
        "complexes", lambda: complexes_round(srcy, spheres, seed, 0, tally), spans_path)
    return layer_metrics("complexes", tracer, untraced_s, traced_s,
                         COMPLEXES_SELF, COMPLEXES_CALLS, COMPLEXES_LAYERS)


def trace_pfaffians(srcy, seed, spans_path, tally):
    polys = []

    def one_round():
        del polys[:]
        pfaffians_round(srcy, seed, 0, tally, polys)

    tracer, untraced_s, traced_s, _, _ = traced_call("pfaffians", one_round, spans_path)
    out = layer_metrics("pfaffians", tracer, untraced_s, traced_s,
                        PFAFFIANS_SELF, PFAFFIANS_CALLS, PFAFFIANS_LAYERS)
    out["pfaffians.polynomial.result_terms"] = sum(len(p.monomials()) for p in polys)
    return out


def traced(srcy, seed, spans_path, tallies):
    metrics = {}
    metrics.update(trace_run_all(srcy, spans_path, tallies["run-all"]))
    metrics.update(trace_complexes(srcy, seed, spans_path, tallies["complexes"]))
    metrics.update(trace_pfaffians(srcy, seed, spans_path, tallies["pfaffians"]))
    return metrics


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") else "count"


# -- entry point ---------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "srcy" / "__init__.py").is_file():
        sys.stderr.write("bench: no srcy sources at %s; run inside a checkout\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    import srcy
    import srcy.cli  # noqa: F401  (bound on the package for cli_in_process)

    if Path(srcy.__file__).resolve().parent != SRC / "srcy":
        sys.stderr.write("bench: imported srcy from %s, not %s\n" % (srcy.__file__, SRC))
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        tallies = {w: Tally() for w in WORKLOADS}
        spans_path = OUT / (stem + "-spans.jsonl.gz")
        if spans_path.exists():
            spans_path.unlink()
        metrics = traced(srcy, args.seed, spans_path, tallies)
        record["spans"] = spans_path.name
    else:
        tallies = {args.workload: Tally()}
        metrics = untraced(srcy, args.workload, args.seed, args.seconds,
                           tallies[args.workload], record)
    record["workloads"] = {w: t.as_dict() for w, t in tallies.items()}

    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    correct = not any(t.problems for t in tallies.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record["result"] = result
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("# srcy bench: workload=%s seed=%d trace=%d nproc=%s python=%s"
          % (args.workload, args.seed, args.trace, record["nproc"], record["python"]))
    for w, t in tallies.items():
        print("# %-10s attempted=%d failed=%d problems=%d"
              % (w, t.attempted, t.failed, len(t.problems)))
        for line in t.errors[:5] + t.problems[:5]:
            print("#   %s" % line)
    for name, m in result["metrics"].items():
        print("# %-58s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
