#!/usr/bin/env python3
"""The dynex benchmark: four user workloads, end-to-end and per-layer.

Run one workload from the root of a dynex checkout:

    python3 perfbench/run.py --workload suite_sweep --seed 1 --seconds 20 --trace 0

It builds the shipped binaries and the benchmark's probe from source
(into $CARGO_TARGET_DIR, default .bench_build), sets the workload up,
repeats it for --seconds, checks every simulated result, and prints
the metrics. --trace 0 times the shipped binaries and prints the
end-to-end metrics; --trace 1 alternates untraced passes with traced
passes of the same in-process code and prints the per-layer metrics.
The last stdout
line is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --self-test

shows that every output check catches a corrupted expected output.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")

# Fixed by the benchmark and recorded with every result: the worker
# count of the batch binaries, and the serve_mixed client and daemon
# worker counts. Never more than the host's processors.
WORKERS = max(1, min(4, os.cpu_count() or 1))
# Set-up runs per measured run: at least SETUPS of them, and more
# until SETUP_SECONDS have passed. Set-up time is their median.
SETUPS = 5
SETUP_SECONDS = 1.5

SUITE_BINS = ["bench_fig04_size_sweep", "bench_fig14_data_cache"]
HIERARCHY_BINS = ["bench_fig07_l1_vs_l2", "bench_fig08_l2_missrate",
                  "bench_fig09_l1_improvement"]
TARGETS = SUITE_BINS + HIERARCHY_BINS + ["dynex", "dynex_serve"]

# Input sizes (references per trace). The fixed-input figures run at
# these DYNEX_REFS budgets; their recorded stdout digests hold only
# for these values.
SUITE_REFS = 500000
HIERARCHY_REFS = 100000
SERVE_REFS = 50000
CAMPAIGN_REFS = 100000
# Warm-up budgets for the fixed-input set-up runs.
SUITE_WARM_REFS = 50000
HIERARCHY_WARM_REFS = 5000

# serve_mixed: requests per client per pass, and the daemon's store
# budget, below the working set so a share of requests cold-load.
# Admission runs at its defaults.
SERVE_PER_PASS = 50
SERVE_STORE_BUDGET = "8MB"

# Metric names and units, in the order the result line prints them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    _METRICS = json.load(_spec)
END_TO_END = [(m["name"], m["unit"]) for m in _METRICS["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _METRICS["per_layer"]]


class BenchError(Exception):
    """A set-up or build step failed; the run prints no result."""


# ---------------------------------------------------------------- build

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(argv, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(argv) + "\n")
        out.flush()
        if subprocess.call(argv, stdout=out, stderr=subprocess.STDOUT,
                           cwd=ROOT) != 0:
            raise BenchError("command failed: %s (see %s)"
                             % (" ".join(argv), log))


def build():
    """Configure and build the shipped binaries, then the probe."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    dynex = os.path.join(out, "dynex")
    probe = os.path.join(out, "probe")
    if not os.path.exists(os.path.join(dynex, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", dynex,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator, log)
    run_logged(["cmake", "--build", dynex, "-j", jobs, "--target"]
               + TARGETS, log)
    if not os.path.exists(os.path.join(probe, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", probe,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DDYNEX_BUILD_DIR=" + dynex] + generator, log)
    run_logged(["cmake", "--build", probe, "-j", jobs], log)
    tools = {name: os.path.join(dynex, "bench", name)
             for name in SUITE_BINS + HIERARCHY_BINS}
    tools["dynex"] = os.path.join(dynex, "tools", "dynex")
    tools["dynex_serve"] = os.path.join(dynex, "tools", "dynex_serve")
    tools["probe"] = os.path.join(probe, "perfbench_probe")
    tools["cmake_cache"] = os.path.join(dynex, "CMakeCache.txt")
    return tools


def environment(tools):
    """What the timings depend on, written beside every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    with open(tools["cmake_cache"]) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    probe = json.loads(subprocess.check_output([tools["probe"], "env"]))
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "kernel_isa": probe["kernel_isa"],
            "compiler": probe["compiler"], "build_type": build_type,
            "workers": WORKERS}


# ------------------------------------------------------------ processes

class Run:
    """One finished child process."""

    def __init__(self, stdout, code, wall_s, cpu_s, rss_mb):
        self.stdout, self.code = stdout, code
        self.wall_s, self.cpu_s, self.rss_mb = wall_s, cpu_s, rss_mb


def run_child(argv, env=None, log=None):
    """Run argv to completion; wall time, CPU time and peak RSS come
    from the child's own rusage."""
    child_env = dict(os.environ)
    child_env.update(env or {})
    err = open(log, "ab") if log else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env, cwd=ROOT)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        if log:
            err.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(stdout, proc.returncode, wall,
               usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def probe_json(tools, args, log):
    run = run_child([tools["probe"]] + [str(a) for a in args], log=log)
    if run.code != 0:
        raise BenchError("perfbench_probe %s exited %d (see %s)"
                         % (args[0], run.code, log))
    return json.loads(run.stdout)


class Daemon:
    """dynex_serve on an ephemeral loopback port."""

    def __init__(self, tools, traces, work):
        port_file = os.path.join(work, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        argv = [tools["dynex_serve"], "--port", "0", "--port-file",
                port_file, "--workers", str(WORKERS), "--store-budget",
                SERVE_STORE_BUDGET]
        for trace in traces:
            argv += ["--trace", trace]
        self.log = open(os.path.join(work, "daemon.log"), "ab")
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT, cwd=ROOT)
        deadline = time.monotonic() + 30
        while True:
            text = ""
            if os.path.exists(port_file):
                with open(port_file) as f:
                    text = f.read()
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("dynex_serve did not start")
            time.sleep(0.005)
        self.port = int(text)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for dynex_serve")

    def stop(self):
        """SIGTERM, then wait; True when the daemon drained cleanly."""
        clean = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                clean = self.proc.wait(timeout=20) == 0
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return clean


# --------------------------------------------------------------- checks

def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def corrupted(expected):
    """@expected with every recorded digest altered (self-test)."""
    flip = lambda digest: ("0" if digest[0] != "0" else "1") + digest[1:]
    return dict(expected,
                stdout_sha256={k: flip(v) for k, v in
                               expected["stdout_sha256"].items()},
                traced_sha256=flip(expected["traced_sha256"]))


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def figure_failures(run, name, expected):
    """Why one figure binary's output is wrong (empty when right)."""
    problems = []
    if run.code != 0:
        problems.append("%s exited %d" % (name, run.code))
    if b"[MISS]" in run.stdout or b"[FAIL]" in run.stdout:
        problems.append("%s printed a failing verdict" % name)
    if sha256(run.stdout) != expected[name]:
        problems.append("%s stdout differs from the recorded digest" % name)
    return problems


def campaign_report(work, prefix):
    """The merged report minus the engine name, which is the one field
    the engines may differ in, plus the CSV bytes."""
    with open(os.path.join(work, prefix + ".json")) as f:
        report = json.load(f)
    report["campaign"].pop("engine", None)
    with open(os.path.join(work, prefix + ".csv"), "rb") as f:
        csv = f.read()
    return report, csv


def campaign_failures(work, reference):
    try:
        got = campaign_report(work, "out")
    except (OSError, ValueError, KeyError) as e:
        return ["campaign outputs unreadable: %s" % e]
    problems = []
    if got[0] != reference[0]:
        problems.append("campaign JSON differs from the per-leg reference")
    if got[1] != reference[1]:
        problems.append("campaign CSV differs from the per-leg reference")
    return problems


def remove_outputs(work):
    for name in ("out.json", "out.csv"):
        path = os.path.join(work, name)
        if os.path.exists(path):
            os.remove(path)


# ------------------------------------------------------------ workloads

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def repeat(seconds, minimum, one_pass):
    """Run passes until --seconds have elapsed (at least @minimum)."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(one_pass())
    return results


def timed_setup(step):
    """Median time of repeated set-up runs; returns (median, last value)."""
    times, value = [], None
    while len(times) < SETUPS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        value = step()
        times.append(time.perf_counter() - start)
    return statistics.median(times), value


class FigureWorkload:
    """Fixed-input shipped figure binaries run back to back."""

    def __init__(self, name, bins, refs, warm_refs, probe_cmd):
        self.name, self.bins, self.refs = name, bins, refs
        self.warm_refs, self.probe_cmd = warm_refs, probe_cmd

    def env(self, refs):
        return {"DYNEX_REFS": str(refs), "DYNEX_THREADS": str(WORKERS)}

    def run_pass(self, tools, tally, expected, log):
        runs = [run_child([tools[b]], self.env(self.refs), log)
                for b in self.bins]
        for b, run in zip(self.bins, runs):
            tally.record(figure_failures(run, b, expected["stdout_sha256"]))
        return {"wall_s": sum(r.wall_s for r in runs),
                "cpu_s": sum(r.cpu_s for r in runs),
                "peak_rss_mb": max(r.rss_mb for r in runs)}

    def __call__(self, tools, args, work):
        log = os.path.join(work, "stderr.log")
        expected = load_expected()[self.name]
        if expected["refs"] != self.refs:
            raise BenchError("expected.json was recorded at another budget")
        if args.corrupt_expected:
            expected = corrupted(expected)
        tally = Tally()

        def warm_up():
            for b in self.bins:
                # A warm-up at a tiny budget may miss a verdict (exit 1);
                # anything else is a crash.
                if run_child([tools[b]], self.env(self.warm_refs),
                             log).code not in (0, 1):
                    raise BenchError("%s failed to start" % b)
        setup_s, _ = timed_setup(warm_up)

        if not args.trace:
            passes = repeat(args.seconds, 3,
                            lambda: self.run_pass(tools, tally, expected,
                                                  log))
            return tally, end_to_end(passes, setup_s), {"passes": passes}

        def probe_pass(spans):
            run = probe_json(tools, self.probe_cmd + [
                "--spans", 1 if spans else 0, "--spans-out",
                os.path.join(work, "spans.json") if spans else ""], log)
            problems = []
            if sha256(json.dumps(run["results"])) != \
                    expected["traced_sha256"]:
                problems.append("in-process results differ from the "
                                "recorded digest")
            if spans and run["missing_legs"]:
                problems.append("traced pass lost per-model replay times")
            tally.record(problems)
            return run
        pairs = repeat(args.seconds, 2,
                       lambda: (probe_pass(False), probe_pass(True)))
        metrics = batch_layers([t for _, t in pairs],
                               [u["wall_s"] for u, _ in pairs], {})
        return tally, metrics, {"pairs": pairs}


def end_to_end(passes, setup_s):
    metrics = {"setup_s": setup_s}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(p[key] for p in passes)
    return metrics


def layer_medians(rows, traced_walls, untraced_walls):
    """Median of each per-layer metric over the traced passes, plus the
    tracing overhead: the same code's pass time with spans on over its
    pass time with spans off."""
    metrics = {name: statistics.median(r.get(name, 0.0) for r in rows)
               for name, _ in PER_LAYER}
    metrics["trace.overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls))
    return metrics


def batch_layers(traced, untraced_walls, fixed):
    """Per-layer metrics of in-process traced passes (medians)."""
    rows = []
    for p in traced:
        self_s = p["self_s"]
        gen = self_s.get("tracegen", 0.0)
        replay = self_s.get("sim.replay", 0.0)
        rows.append(dict(fixed, **{
            "tracegen.gen_s": gen,
            "tracegen.refs_per_s":
                p.get("generated_refs", 0.0) / gen if gen else 0.0,
            "trace.next_use.build_s": self_s.get("trace.next_use", 0.0),
            "trace.next_use.builds": p["next_use_builds"],
            "trace.decode.dxt2_s": self_s.get("trace.decode.dxt2", 0.0),
            "trace.decode.dxt3_s": self_s.get("trace.decode.dxt3", 0.0),
            "workload.import.text_s":
                self_s.get("workload.import.text", 0.0),
            "workload.import.lackey_s":
                self_s.get("workload.import.lackey", 0.0),
            "workload.report.write_s":
                self_s.get("workload.report.write", 0.0),
            "sim.replay_s": replay,
            "sim.replay.dm_s": p["replay_dm_s"],
            "sim.replay.de_s": p["replay_de_s"],
            "sim.replay.opt_s": p["replay_opt_s"],
            "sim.model_steps_per_s":
                p["model_steps"] / replay if replay else 0.0,
            "sim.parallel.efficiency":
                p["tasks_s"] / (p["wall_s"] * p["workers"])
                if "tasks_s" in p else 0.0,
            "cache.hierarchy_s": self_s.get("cache.hierarchy", 0.0),
            "cache.hierarchy.legs": p["hierarchy_legs"],
            "residual_s": p["residual_s"],
        }))
    return layer_medians(rows, [p["wall_s"] for p in traced],
                         untraced_walls)


def import_campaign(tools, args, work):
    log = os.path.join(work, "stderr.log")
    spec = os.path.join(work, "campaign.dxc")
    tally = Tally()

    def setup():
        gen = probe_json(tools, ["gen", "--kind", "campaign", "--seed",
                                 args.seed, "--dir", work, "--refs",
                                 CAMPAIGN_REFS], log)
        if run_child([tools["dynex"], "campaign", "check", spec],
                     log=log).code != 0:
            raise BenchError("campaign check rejected the spec")
        return gen
    setup_s, gen = timed_setup(setup)

    # The per-leg reference engine's report, outside the timed region.
    if run_child([tools["dynex"], "campaign", "run",
                  os.path.join(work, "reference.dxc"), "--threads",
                  str(WORKERS)], log=log).code != 0:
        raise BenchError("reference campaign failed")
    reference = campaign_report(work, "ref")
    if args.corrupt_expected:
        reference[0]["legs"][0]["dmMissPct"] += 1.0
        reference = (reference[0], reference[1].replace(b"1", b"2", 1))

    def run_pass():
        remove_outputs(work)
        run = run_child([tools["dynex"], "campaign", "run", spec,
                         "--threads", str(WORKERS)], log=log)
        problems = campaign_failures(work, reference)
        if run.code != 0:
            problems.append("campaign run exited %d" % run.code)
        tally.record(problems)
        return {"wall_s": run.wall_s, "cpu_s": run.cpu_s,
                "peak_rss_mb": run.rss_mb}

    if not args.trace:
        passes = repeat(args.seconds, 3, run_pass)
        return tally, end_to_end(passes, setup_s), {"passes": passes}

    def probe_pass(spans):
        remove_outputs(work)
        run = probe_json(tools, [
            "trace-campaign", "--spec", spec, "--spans", 1 if spans else 0,
            "--spans-out", os.path.join(work, "spans.json") if spans else ""],
            log)
        problems = campaign_failures(work, reference)
        if spans and run["missing_legs"]:
            problems.append("traced pass lost per-model replay times")
        tally.record(problems)
        return run
    pairs = repeat(args.seconds, 2,
                   lambda: (probe_pass(False), probe_pass(True)))
    metrics = batch_layers(
        [t for _, t in pairs], [u["wall_s"] for u, _ in pairs],
        {"trace.decode.bytes_per_ref": gen["dxt_bytes_per_ref"]})
    return tally, metrics, {"pairs": pairs}


def serve_mixed(tools, args, work):
    log = os.path.join(work, "stderr.log")
    serve_dir = os.path.join(work, "serve")
    tally = Tally()
    state = {}

    def setup():
        # Inputs, daemon start, and a warm-up `remote-ls` round trip.
        if "daemon" in state:
            state.pop("daemon").stop()
        gen = probe_json(tools, ["gen", "--kind", "serve", "--seed",
                                 args.seed, "--dir", serve_dir, "--refs",
                                 SERVE_REFS], log)
        daemon = Daemon(tools, gen["files"], work)
        state["daemon"] = daemon
        if run_child([tools["dynex"], "remote-ls", "--port",
                      str(daemon.port)], log=log).code != 0:
            raise BenchError("dynex_serve did not answer remote-ls")
        return gen

    try:
        setup_s, gen = timed_setup(setup)
        daemon = state["daemon"]
        load = probe_json(tools, [
            "serve-load", "--port", daemon.port, "--pid", daemon.proc.pid,
            "--dir", serve_dir, "--seed", args.seed, "--clients", WORKERS,
            "--per-pass", SERVE_PER_PASS, "--seconds", args.seconds,
            "--trace", 1 if args.trace else 0, "--corrupt-expected",
            1 if args.corrupt_expected else 0, "--spans-out",
            os.path.join(work, "spans.json")], log)
        peak_rss = daemon.peak_rss_mb()
    finally:
        daemon = state.pop("daemon", None)
        clean = daemon.stop() if daemon else False
    tally.attempted += load["attempted"]
    tally.failed += load["failed"]
    tally.problems += load["failures"]
    if not clean:
        tally.failed += 1
        tally.problems.append("dynex_serve did not drain cleanly")

    passes = load["passes"]
    untraced = [p for p in passes if not p["traced"]]
    details = {"passes": passes, "latency": load["latency"],
               "reference_s": load["reference_s"]}
    if not args.trace:
        metrics = end_to_end(
            [{"wall_s": p["wall_s"], "cpu_s": p["daemon_cpu_s"],
              "peak_rss_mb": peak_rss} for p in untraced], setup_s)
        return tally, metrics, details

    # The daemon replays in-process, so its replay time is
    # server.replay_s; decode and index build sit inside store-load.
    traced = [p for p in passes if p["traced"]]
    rows = [dict(p["layers"], **{"trace.decode.bytes_per_ref":
                                 gen["dxt_bytes_per_ref"]})
            for p in traced]
    metrics = layer_medians(rows, [p["wall_s"] for p in traced],
                            [p["wall_s"] for p in untraced])
    return tally, metrics, details


WORKLOADS = {
    "suite_sweep": FigureWorkload(
        "suite_sweep", SUITE_BINS, SUITE_REFS, SUITE_WARM_REFS,
        ["trace-suite", "--refs", str(SUITE_REFS), "--workers",
         str(WORKERS)]),
    "hierarchy_grid": FigureWorkload(
        "hierarchy_grid", HIERARCHY_BINS, HIERARCHY_REFS,
        HIERARCHY_WARM_REFS,
        ["trace-hierarchy", "--refs", str(HIERARCHY_REFS)]),
    "serve_mixed": serve_mixed,
    "import_campaign": import_campaign,
}


def run_workload(name, tools, args, work):
    return WORKLOADS[name](tools, args, work)


# ----------------------------------------------------------------- main

def print_result(name, args, env, tally, metrics, details):
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print("workload %s  seed %d  seconds %d  trace %d"
          % (name, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for key in sorted(metrics):
        print("  %-32s %.6g %s" % (key, metrics[key], units[key]))
    if name == "serve_mixed" and not args.trace:
        lat = details["latency"]
        print("  %-32s %.6g ms" % ("sweep_p50_ms", lat["sweep_p50_ms"]))
        print("  %-32s %.6g ms  (%d of %d sweeps beyond)"
              % ("sweep_p99_ms", lat["sweep_p99_ms"],
                 lat["sweeps_beyond_p99"], lat["sweeps"]))
        print("  %-32s %.6g 1/s" % ("throughput_rps", lat["throughput_rps"]))
    print("  attempted %d  failed %d" % (tally.attempted, tally.failed))
    for problem in tally.problems[:10]:
        print("  FAILED: " + problem)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in (n for n, _ in (PER_LAYER if args.trace
                                               else END_TO_END))},
    }))


def self_test(tools, args):
    """Each workload's checks pass on the recorded expectations and
    catch a corrupted copy of them (the traced checks too, for one
    workload of each kind)."""
    cases = [(name, 0) for name in sorted(WORKLOADS)]
    cases += [("suite_sweep", 1), ("import_campaign", 1)]
    ok = True
    for name, trace in cases:
        for corrupt in (False, True):
            work = os.path.join(build_dir(), "work", "selftest-" + name)
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            case = argparse.Namespace(seed=args.seed, seconds=1,
                                      trace=trace, corrupt_expected=corrupt)
            tally, _, _ = run_workload(name, tools, case, work)
            good = (tally.failed > 0) == corrupt
            ok = ok and good
            print("%-4s %s trace=%d %s expectations: %d of %d failed"
                  % ("ok" if good else "BAD", name, trace,
                     "corrupted" if corrupt else "recorded", tally.failed,
                     tally.attempted))
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def is_checkout():
    return all(os.path.exists(os.path.join(ROOT, p))
               for p in ("CMakeLists.txt", "src/sim/sweep.h",
                         "tools/dynex_serve.cc"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.set_defaults(corrupt_expected=False)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so the daemon is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not is_checkout():
        print("perfbench: %s is not a dynex source checkout" % ROOT,
              file=sys.stderr)
        return 2
    try:
        tools = build()
        if args.self_test:
            return self_test(tools, args)
        if not args.workload:
            parser.error("--workload is required")
        work = os.path.join(build_dir(), "work", args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        env = environment(tools)
        tally, metrics, details = run_workload(args.workload, tools, args,
                                               work)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 3
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as out:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": env, "attempted": tally.attempted,
                   "failed": tally.failed, "problems": tally.problems,
                   "metrics": metrics, "details": details}, out, indent=1)
    print_result(args.workload, args, env, tally, metrics, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
