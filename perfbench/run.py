#!/usr/bin/env python3
"""Serving benchmark for met: met_server driven over TCP, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 5 --trace 0

The first run configures and builds met_server and the generator
(perfbench_gen) into $CARGO_TARGET_DIR, or .bench_build when that is unset.

--trace 0 starts `met_server --shards 2` as a child process, sets it up
several times (start + preload of the whole keyset until the merges the
preload triggered have finished) and keeps the last one. The generator then
drives it from 2 threads over 2 connections for --seconds of half-second
slices, checks every answer, probes the operation types the workload's mix
does not issue, and reports the end-to-end metrics as medians over the
slices the hypervisor did not disturb (see perfbench/NOTES.md). durable-mixed
then restarts the server on the same directory and re-reads every
acknowledged key.

--trace 1 makes one such untraced run, then a traced run of the same
workload against an in-process server whose shard engines are timed, and
reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/NOTES.md for the workloads and
what every metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

SHARDS = 2
CALL_TIMEOUT_S = 150

# name -> (durable engine, setups per --trace 0 run)
WORKLOADS = {
    "serve-small": (False, 3),
    "index-large": (False, 1),
    "write-churn": (False, 3),
    "durable-mixed": (True, 2),
}


def metric_spec(kind):
    """(name, unit) of every metric BENCHMARK.json lists under `kind`."""
    with open("BENCHMARK.json") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Children:
    """Every process the benchmark starts; all are stopped on exit."""

    procs = []

    @classmethod
    def stop_all(cls):
        for p in cls.procs:
            if p.poll() is None:
                p.kill()
            try:
                p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        cls.procs = []


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "met_server", "perfbench_gen"],
        stdout=sys.stderr, check=True)


class Server:
    """met_server --shards 2 as a child process."""

    def __init__(self, binary, data_dir):
        cmd = [binary, "--port", "0", "--shards", str(SHARDS)]
        if data_dir is not None:
            cmd += ["--durable", "--dir", data_dir]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        Children.procs.append(self.proc)
        line = self.proc.stdout.readline()
        if not line.startswith("met_server listening"):
            raise BenchError("met_server did not start: %r" % line)
        self.start_s = time.monotonic() - t0
        self.port = int(line.split("port=")[1].split()[0])
        self.pid = self.proc.pid

    def stop(self):
        """Graceful drain (SIGTERM), as a deployment would shut down."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("met_server did not drain within 60 s")
        if self.proc.returncode != 0:
            raise BenchError("met_server exited with %d" % self.proc.returncode)


def gen(binary, phase, args, allow_fail=False):
    """Runs one generator phase; returns its JSON result line."""
    cmd = [binary, phase] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    Children.procs.append(proc)
    try:
        out, _ = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("perfbench_gen %s timed out" % phase)
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise BenchError("perfbench_gen %s printed no result (exit %d)"
                         % (phase, proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0 and not allow_fail:
        raise BenchError("perfbench_gen %s failed: %s"
                         % (phase, result.get("problem", "")))
    return result


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(base, f))
    return total


def untraced_run(bins, workload, seed, seconds, setups, data_dir):
    """Setups, the measured window, and the durable reopen check."""
    server_bin, gen_bin = bins
    wargs = ["--workload", workload, "--seed", seed]
    setup_times = []
    server = None
    for i in range(setups):
        if data_dir is not None:
            reset_dir(data_dir)
        server = Server(server_bin, data_dir)
        r = gen(gen_bin, "setup",
                wargs + ["--port", server.port, "--server-pid", server.pid])
        setup_times.append(server.start_s + r["preload_s"])
        if i + 1 < setups:
            server.stop()
    state = data_dir + ".state" if data_dir is not None else None
    m = gen(gen_bin, "measure",
            wargs + ["--seconds", seconds, "--port", server.port,
                     "--server-pid", server.pid]
            + (["--state", state] if state else []), allow_fail=True)
    m["setup_s"] = statistics.median(setup_times)
    log("window: %d slices, %d clean, mean steal %.3f"
        % (m["slices"], m["clean_slices"], m["steal_frac"]))
    m["verify_ok"] = True
    if data_dir is not None:
        m["disk_bytes"] = dir_bytes(data_dir)
    server.stop()
    if data_dir is not None:
        server = Server(server_bin, data_dir)
        v = gen(gen_bin, "verify",
                wargs + ["--port", server.port, "--state", state],
                allow_fail=True)
        server.stop()
        m["verify_ok"] = v["failed"] == 0
        if v["failed"]:
            log("durable reopen check failed: " + v.get("problem", ""))
        else:
            log("durable reopen check: %d keys read back intact"
                % v["verified_keys"])
    return m


def require_latency_samples(m):
    for cls in ("get", "mget", "write", "scan"):
        if m[cls + "_count"] == 0:
            raise BenchError("no %s latency samples" % cls)


def emit(correct, attempted, failed, values, spec):
    metrics = {}
    for name, unit in spec:
        v = values.get(name, 0.0)
        metrics[name] = {"value": v, "unit": unit}
        print("%-32s %16.6g %s" % (name, v, unit))
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for need in ("src/CMakeLists.txt", "tools/met_server.cc",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(need):
            raise BenchError("run from the root of a met checkout: %s missing"
                             % need)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    build(build_dir)
    bins = (os.path.join(build_dir, "met_server"),
            os.path.join(build_dir, "perfbench_gen"))
    durable, setups = WORKLOADS[a.workload]
    data_dir = (os.path.join(build_dir, "data", a.workload)
                if durable else None)
    seed = str(a.seed)
    seconds = "%g" % a.seconds

    m = untraced_run(bins, a.workload, seed, seconds,
                     setups if a.trace == 0 else 1, data_dir)
    correct = m["wrong"] == 0 and m["verify_ok"]
    attempted, failed = m["attempted"], m["failed"]
    if failed:
        log("%d of %d ops failed; first: %s"
            % (failed, attempted, m.get("problem", "")))
    if a.trace == 0:
        require_latency_samples(m)
        emit(correct, attempted, failed, m, metric_spec("end_to_end"))
        return 0 if correct else 1

    if data_dir is not None:
        reset_dir(data_dir)
    t = gen(bins[1], "traced",
            ["--workload", a.workload, "--seed", seed, "--seconds", seconds]
            + (["--dir", data_dir] if data_dir else []),
            allow_fail=True)
    correct = correct and t["wrong"] == 0
    values = dict(t)
    values["client.cpu_frac"] = t["client_cpu_frac"]
    values["trace.ops_per_s"] = t["ops_per_s"]
    values["trace.untraced_ops_per_s"] = m["ops_per_s"]
    values["trace.overhead_frac"] = 1.0 - t["ops_per_s"] / m["ops_per_s"]
    values["window.ops_per_s"] = m["window_ops_per_s"]
    values["host.steal_frac"] = m["steal_frac"]
    values["host.slices"] = m["slices"]
    values["host.clean_slices"] = m["clean_slices"]
    values["attempted"] = attempted
    values["failed_frac"] = failed / attempted
    live_user_bytes = 16.0 * m["live_keys"]
    values["bytes_per_key"] = m["bytes_per_key"]
    values["mem.rss_mean_per_key"] = m["rss_mean_per_key"]
    for cls in ("get", "mget", "write", "scan"):
        values[cls + "_p99_us"] = m[cls + "_p99_us"]
        values[cls + ".samples"] = m[cls + "_count"]
    values["disk.bytes"] = m.get("disk_bytes", 0)
    values["disk_bytes_per_user_byte"] = values["disk.bytes"] / live_user_bytes
    emit(correct, attempted + t["attempted"], failed + t["failed"], values,
         metric_spec("per_layer"))
    return 0 if correct else 1


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = main()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        code = 2
    finally:
        Children.stop_all()
    sys.exit(code)
