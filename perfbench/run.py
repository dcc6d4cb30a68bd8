#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the release binaries
(`all_experiments`, `memo-serve`, `memo-router`) and the in-process harness
(`perfbench/harness`) into $CARGO_TARGET_DIR (default `.bench_build`), runs
the workload, checks every output, and prints one JSON object as the last
line of standard output. Human-readable lines before it give each metric
with its unit and sample count. See perfbench/NOTES.md for the workloads,
the metrics and what each layer metric should move.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# What the simulated statistics and the repro report digest must equal,
# per experiment config. A change that alters them on purpose updates this
# file in the same commit.
EXPECTED_FILE = os.path.join(ROOT, "perfbench", "results", "expected.json")

# Problem sizes. repro is the whole registry at a reduced scale; the
# servers run at the quick scale the serve tests use.
REPRO_ENV = {"MEMO_SCALE": "8", "MEMO_SCI_N": "24", "MEMO_JOBS": "2"}
SERVE_ENV = {"MEMO_SCALE": "16", "MEMO_SCI_N": "16", "MEMO_JOBS": "2"}
# serve_fill: an in-memory cache far below the working set (8 shards of
# 4 entries).
FILL_CACHE_CAP = 32
# Set-ups per serve run; setup_s is their lower quartile.
SETUPS = 5
# One repro registry run takes about this long at the seed.
REPRO_RUN_S = 7
# repro start-ups per run, each stopped at its first byte of output;
# setup_s is their lower quartile.
START_PROBES = 60
# The request mix of each serve workload (see the harness's load module).
MIX = {"serve_hot": "hot", "serve_fill": "fill", "route_hot": "hot"}
# The experiment config each workload renders at, as named in EXPECTED_FILE.
CONFIG = {"repro": "repro", "serve_hot": "serve", "serve_fill": "serve", "route_hot": "serve"}


class BenchError(Exception):
    """A failure that stops the run without a result."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    """Nearest-rank quantile, as the harness computes it."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    rank = max(1, min(len(xs), math.ceil(round(q * len(xs), 9))))
    return xs[rank - 1]


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "memo-experiments", "-p", "memo-serve", "-p", "memo-cluster",
         "--bin", "all_experiments", "--bin", "memo-serve", "--bin", "memo-router"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    ]
    for cmd in commands:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release")


# ---------------------------------------------------------------------------
# Processes under test
# ---------------------------------------------------------------------------


def reap(proc, timeout):
    """Wait for `proc` (killing it after `timeout`); return its resource
    usage, whose `ru_maxrss` is its peak RSS in KiB."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            deadline = time.monotonic() + 10
        time.sleep(0.01)


class Server:
    """A memo-serve node or memo-router on an ephemeral port."""

    def __init__(self, argv, env, name):
        os.makedirs(STATE, exist_ok=True)
        self.name = name
        self.stderr = open(os.path.join(STATE, f"{name}.log"), "w")
        self.proc = subprocess.Popen(
            argv, env=dict(os.environ, **env), stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        banner = self.proc.stdout.readline()
        m = re.search(r"listening on http://(\S+)", banner)
        self.rss_mb = 0.0
        if not m:
            self.proc.kill()
            reap(self.proc, timeout=10)
            self.proc.stdout.close()
            self.stderr.close()
            raise BenchError(f"{name} did not start: {banner!r}")
        self.addr = m.group(1)

    def hwm_mb(self):
        """Peak RSS so far (VmHWM) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError(f"no VmHWM for {self.name}")

    def get(self, path, timeout=60):
        host, port = self.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
        try:
            conn.request("GET", path)
            r = conn.getresponse()
            return r.status, r.read()
        finally:
            conn.close()

    def metrics(self):
        status, body = self.get("/metrics")
        if status != 200:
            raise BenchError(f"{self.name} /metrics answered {status}")
        out = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def stop(self):
        if self.proc.returncode is None:
            try:
                self.get("/quitquitquit", timeout=5)
            except OSError:
                self.proc.kill()
            self.rss_mb = reap(self.proc, timeout=20).ru_maxrss / 1024.0
        self.proc.stdout.close()
        self.stderr.close()


def wait_until(check, what, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if check():
                return
        except OSError:
            pass
        time.sleep(0.005)
    raise BenchError(f"timed out waiting for {what}")


def warm(node, keys):
    """GET every key on `node`, on one connection; raise on any non-200."""
    host, port = node.addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=120)
    try:
        for k in keys:
            conn.request("GET", k)
            r = conn.getresponse()
            r.read()
            if r.status != 200:
                raise BenchError(f"warming {k} on {node.name}: HTTP {r.status}")
    finally:
        conn.close()


def in_parallel(jobs):
    """Run callables on their own threads; re-raise the first failure."""
    errors = []

    def wrap(job):
        try:
            job()
        except Exception as e:  # noqa: BLE001 - re-raised below
            errors.append(e)

    threads = [threading.Thread(target=wrap, args=(j,)) for j in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class Fleet:
    """The processes under test for one serve workload, set up and warmed."""

    def __init__(self, bins, workload, tag):
        keys = warm_keys(bins)
        self.servers = []
        self.node_addrs = []
        self.router = None
        self.store = None
        t0 = time.perf_counter()
        try:
            if workload == "route_hot":
                nodes = [self.node(bins, n, ["--node-id=" + n]) for n in ("a", "b")]
                wait_until(lambda: all(n.get("/healthz")[0] == 200 for n in nodes), "nodes")
                # Every node is warmed directly, never through the router.
                in_parallel([lambda n=n: warm(n, keys) for n in nodes])
                fleet = ",".join(f"{n.name}={n.addr}" for n in nodes)
                self.router = Server(
                    [os.path.join(bins, "memo-router"), "--addr=127.0.0.1:0",
                     "--nodes=" + fleet, "--rf=2"], SERVE_ENV, "router")
                self.servers.append(self.router)
                wait_until(lambda: self.health() == [2, 2], "router to see every node up")
                self.target = self.router
            else:
                extra = []
                if workload == "serve_fill":
                    self.store = os.path.join(STATE, f"store-{tag}")
                    shutil.rmtree(self.store, ignore_errors=True)
                    extra = [f"--store-dir={self.store}", f"--cache-cap={FILL_CACHE_CAP}"]
                node = self.node(bins, "node", extra)
                wait_until(lambda: node.get("/healthz")[0] == 200, "node")
                # One connection renders the keys one after another. Two in
                # parallel set up faster, but the node's peak RSS then
                # varied by 20% between set-ups.
                warm(node, keys)
                self.target = node
            self.setup_s = time.perf_counter() - t0
            self.setup_rss_mb = sum(s.hwm_mb() for s in self.servers)
        except BaseException:
            self.stop()
            raise

    def node(self, bins, name, extra):
        s = Server([os.path.join(bins, "memo-serve"), "--addr=127.0.0.1:0"] + extra, SERVE_ENV, name)
        self.servers.append(s)
        if name != "node":
            self.node_addrs.append((name, s.addr))
        return s

    def health(self):
        m = self.router.metrics()
        return [int(m.get(f'memo_router_node_health{{node="{n}"}}', -1)) for n in ("a", "b")]

    def stop(self):
        """Stop every process; return their summed peak RSS in MiB."""
        for s in reversed(self.servers):
            s.stop()
        if self.store:
            shutil.rmtree(self.store, ignore_errors=True)
        return sum(s.rss_mb for s in self.servers)


def harness(bins, args, env, on_line=None):
    """Run a harness subcommand and return the JSON object on its last
    line; `on_line` sees every line as it arrives."""
    proc = subprocess.Popen(
        [os.path.join(bins, "perfbench-harness")] + args, cwd=ROOT,
        env=dict(os.environ, **env), stdout=subprocess.PIPE, text=True,
    )
    last = ""
    try:
        for line in proc.stdout:
            last = line.strip()
            if on_line:
                on_line(last)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        reap(proc, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"harness {args[0]} exited {proc.returncode}")
    return json.loads(last)


_warm_keys = []


def warm_keys(bins):
    """Every artifact key a serve workload warms, from the harness that
    draws the mix from them."""
    if not _warm_keys:
        _warm_keys.extend(harness(bins, ["keys"], {})["warm"])
    return _warm_keys


# ---------------------------------------------------------------------------
# Values that must repeat exactly: committed in EXPECTED_FILE
# ---------------------------------------------------------------------------


def as_expected(config, name, value, notes):
    with open(EXPECTED_FILE) as f:
        want = json.load(f)[config][name]
    if value != want:
        notes.append(f"{name} at the {config} config is {value!r}, "
                     f"{os.path.relpath(EXPECTED_FILE, ROOT)} expects {want!r}")
        return False
    return True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

SUMMARY_LINE = re.compile(r"^  (PASS|FAIL)  (.{16}) +\d+ ms", re.M)


def spawn_registry(bins):
    return subprocess.Popen([os.path.join(bins, "all_experiments")], cwd=ROOT,
                            env=dict(os.environ, **REPRO_ENV), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)


def registry_run(bins):
    """One all_experiments process: timings, peak RSS, digest, entries."""
    t0 = time.perf_counter()
    proc = spawn_registry(bins)
    try:
        text = proc.stdout.read().decode()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.stdout.close()
    usage = reap(proc, timeout=170)
    wall = time.perf_counter() - t0
    reports = text.split("\n=== experiment summary ===")[0]
    return {
        "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime, "exit": proc.returncode,
        "digest": hashlib.sha256(reports.encode()).hexdigest(),
        "entries": [(m[0], m[1].strip()) for m in SUMMARY_LINE.findall(text)],
    }


def first_output_s(bins):
    """Spawn all_experiments and time its first byte of output (the
    first registry entry, table 1, renders in microseconds); stop it."""
    t0 = time.perf_counter()
    proc = spawn_registry(bins)
    try:
        proc.stdout.read(1)
        return time.perf_counter() - t0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def repro(bins, args, notes):
    runs = [registry_run(bins) for _ in range(1 if args.trace else max(1, args.seconds // REPRO_RUN_S))]
    starts = [first_output_s(bins) for _ in range(START_PROBES)]
    correct = True
    for r in runs:
        failed = [e for e in r["entries"] if e[0] != "PASS"]
        if r["exit"] != 0 or len(r["entries"]) != 20 or failed:
            notes.append(f"all_experiments exit {r['exit']}, failed entries {failed}")
            correct = False
    print(f"repro.digest sha256:{runs[0]['digest']}")
    for r in runs:
        correct &= as_expected("repro", "digest", r["digest"], notes)
    attempted = sum(len(r["entries"]) for r in runs)
    passed = sum(1 for r in runs for e in r["entries"] if e[0] == "PASS")
    walls_ms = [r["wall_s"] * 1e3 for r in runs]
    wall = median([r["wall_s"] for r in runs])
    result = {
        "correct": correct, "attempted": max(attempted, 1), "failed": attempted - passed,
        "e2e": {
            # The lower quartile of the start-ups: a start-up cannot be
            # faster than the program allows, only slower when the host
            # is busy.
            "setup_s": (statistics.quantiles(starts, n=4)[0], len(starts)),
            "wall_s": (wall, len(runs)),
            "peak_rss_mb": (median([r["rss_mb"] for r in runs]), len(runs)),
            "rps": (passed / sum(r["wall_s"] for r in runs), attempted),
            "p50_ms": (quantile(walls_ms, 0.5), len(walls_ms)),
            "p99_ms": (quantile(walls_ms, 0.99), len(walls_ms)),
            "ok_ratio": (passed / max(attempted, 1), attempted),
        },
    }
    if args.trace:
        layers, registry_s = traced_layers(bins, REPRO_ENV)
        result["correct"] &= check_layers(layers, "repro", notes)
        layers["bench.trace_overhead_s"] = registry_s - wall
        layers["memo-experiments.registry_cpu_s"] = median([r["cpu_s"] for r in runs])
        layers["bench.samples"] = len(runs)
        result["layers"] = layers
    return result


def traced_layers(bins, env):
    """`perfbench-harness layers`, and the seconds from its spawn until its
    registry is done: the span an untraced registry process's wall_s covers."""
    t0 = time.perf_counter()
    done = []

    def on_line(line):
        if line == "registry-done":
            done.append(time.perf_counter() - t0)

    layers = harness(bins, ["layers"], env, on_line)
    if not done:
        raise BenchError("the layers probe never reported its registry done")
    return layers, done[0]


SIMULATED = ("memo-table.hit_ratio", "memo-workloads.grids_fused",
             "memo-workloads.direct_replays", "memo-workloads.record_ops")


def check_layers(layers, workload, notes):
    ok = layers["failures"] == 0
    if not ok:
        notes.append(f"layer probe failed: {layers['first_failure']}")
    for name in SIMULATED:
        ok &= as_expected(CONFIG[workload], name, layers[name], notes)
    return ok


def load_args(fleet, mix, args):
    return ["load", "--addr=" + fleet.target.addr, "--mix=" + mix,
            f"--seconds={args.seconds}", f"--seed={args.seed}"]


def traced_window(bins, fleet, mix, args, extra=()):
    """One traced load window with /metrics scraped around it; behind a
    router it is followed by the direct-to-owner phase and the
    `router::start` timing."""
    before = [s.metrics() for s in fleet.servers]
    fleet_spec = ",".join(f"{n}={a}" for n, a in fleet.node_addrs)
    direct = ["--direct=" + fleet_spec] if fleet.router else []
    t = harness(bins, load_args(fleet, mix, args) + ["--trace=1", *extra] + direct, SERVE_ENV)
    after = [s.metrics() for s in fleet.servers]
    if fleet.router:
        t["router_start_ms"] = harness(bins, ["router-start", "--nodes=" + fleet_spec], SERVE_ENV)["start_ms"]
    return t, before, after


def phase(bins, args, workload):
    """A traced half window on a fresh fleet of an ungated workload.
    serve_hot's traced run measures the store and the router hop here."""
    fleet = Fleet(bins, workload, f"{os.getpid()}-{workload}")
    half = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
    try:
        traced = traced_window(bins, fleet, MIX[workload], half)
    finally:
        rss = fleet.stop()
    traced[0]["rss_growth_mb"] = rss - fleet.setup_rss_mb
    return traced


def check_load(run, notes):
    if run["mismatches"] or run["prep_failures"]:
        notes.append(f"{run['mismatches']} body mismatches (first {run['first_mismatch']!r}), "
                     f"{run['prep_failures']} failed preparation requests")
        return False
    return True


def serve(bins, args, notes, workload):
    mix = MIX[workload]
    setups, setup_rss, rss = [], [], 0.0
    fleet = None
    try:
        for i in range(SETUPS):
            fleet = Fleet(bins, workload, f"{os.getpid()}-{i}")
            setups.append(fleet.setup_s)
            setup_rss.append(fleet.setup_rss_mb)
            if i < SETUPS - 1:
                fleet.stop()
                fleet = None
        load = harness(bins, load_args(fleet, mix, args), SERVE_ENV)
        if args.trace:
            # The traced window continues the fill sequence where the
            # untraced one stopped, so its sweeps are new to the store too.
            start = [f"--fill-start={load['fill_next']}"] if mix == "fill" else []
            traced = traced_window(bins, fleet, mix, args, start)
    finally:
        if fleet:
            rss = fleet.stop()
    print(f"{workload}.load " + json.dumps(load))
    result = {
        "correct": check_load(load, notes), "attempted": max(load["attempted"], 1),
        "failed": load["attempted"] - load["ok"],
        "e2e": {
            # The lower quartile, as on repro: a busy host slows set-up,
            # the program alone decides how fast it can be.
            "setup_s": (statistics.quantiles(setups, n=4)[0], len(setups)),
            "wall_s": (load["window_s"], 1),
            "peak_rss_mb": (median(setup_rss), len(setup_rss)),
            "rps": (load["rps"], load["ok"]),
            "p50_ms": (load["p50_ms"], load["samples"]),
            "p99_ms": (load["p99_ms"], load["samples"]),
            "ok_ratio": (load["ok"] / max(load["attempted"], 1), load["attempted"]),
        },
    }
    if args.trace:
        t = traced[0]
        t["rss_growth_mb"] = rss - fleet.setup_rss_mb
        layers, _ = traced_layers(bins, SERVE_ENV)
        result["correct"] &= check_layers(layers, workload, notes)
        layers.update(node_layers(t))
        # The store and router layers come from the workload's own window
        # where it has one, else from a phase on their ungated fleets.
        windows = {workload: traced}
        if workload == "serve_hot":
            windows["serve_fill"] = phase(bins, args, "serve_fill")
            windows["route_hot"] = phase(bins, args, "route_hot")
        for name, window in windows.items():
            print(f"{workload}.traced.{name} " + json.dumps(window[0]))
            result["correct"] &= check_load(window[0], notes)
        if "serve_fill" in windows:
            layers.update(fill_layers(*windows["serve_fill"]))
        if "route_hot" in windows:
            layers.update(cluster_layers(*windows["route_hot"]))
        layers["bench.trace_overhead_ms"] = t["p50_ms"] - load["p50_ms"]
        layers["bench.samples"] = t["samples"]
        result["layers"] = layers
    return result


def delta(before, after, name):
    return sum(a.get(name, 0.0) - b.get(name, 0.0) for b, a in zip(before, after))


def node_layers(t):
    return {
        "memo-serve.handle_p50_us": t["handle_p50_us"],
        "memo-serve.write_p50_us": t["write_p50_us"],
        "memo-serve.socket_p50_us": t["hit_p50_ms"] * 1e3 - t["handle_p50_us"] - t["write_p50_us"],
    }


def fill_layers(t, before, after):
    hits = delta(before, after, "memo_store_block_cache_hits_total")
    misses = delta(before, after, "memo_store_block_cache_misses_total")
    return {
        "memo-serve.fill_rps": t["rps"],
        "memo-serve.fill_p50_ms": t["p50_ms"],
        "memo-serve.fill_p99_ms": t["p99_ms"],
        "memo-serve.fill_ok_ratio": t["ok"] / max(t["attempted"], 1),
        "memo-serve.cache_hit_share": t["hit_share"],
        "memo-serve.disk_share": t["disk_share"],
        "memo-serve.miss_share": t["miss_share"],
        "memo-serve.disk_p50_ms": t["disk_p50_ms"],
        "memo-serve.miss_p50_ms": t["miss_p50_ms"],
        "memo-serve.window_rss_growth_mb": t["rss_growth_mb"],
        "memo-store.flushes": delta(before, after, "memo_store_flushes_total"),
        "memo-store.bloom_negatives": delta(before, after, "memo_store_bloom_negatives_total"),
        "memo-store.io_errors": delta(before, after, "memo_store_io_errors_total"),
        "memo-store.block_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def cluster_layers(t, before, after):
    final = after[-1]
    return {
        "memo-cluster.route_rps": t["rps"],
        "memo-cluster.route_p50_ms": t["p50_ms"],
        "memo-cluster.route_p99_ms": t["p99_ms"],
        "memo-cluster.route_ok_ratio": t["ok"] / max(t["attempted"], 1),
        "memo-cluster.hop_p50_ms": t["p50_ms"] - t["direct_p50_ms"],
        "memo-cluster.ring_gen_changes": t["ring_gen_max"] - t["ring_gen_min"],
        "memo-cluster.failovers": delta(before, after, "memo_router_failovers_total"),
        "memo-cluster.read_repairs": delta(before, after, "memo_router_read_repairs_total"),
        "memo-cluster.node_share_max": t["node_share_max"],
        "memo-cluster.miss_share": t["miss_share"],
        "memo-cluster.node_a_health": final.get('memo_router_node_health{node="a"}', 0.0),
        "memo-cluster.node_b_health": final.get('memo_router_node_health{node="b"}', 0.0),
        "memo-cluster.router_start_ms": t["router_start_ms"],
    }


# Per-layer metrics a workload's traced run leaves at 0, by name prefix.
FILL = ("memo-serve.fill_", "memo-serve.cache_hit_share", "memo-serve.disk_", "memo-serve.miss_",
        "memo-serve.window_rss_growth_mb", "memo-store.")
OFFLINE_ONLY = ("memo-experiments.registry_cpu_s", "bench.trace_overhead_s")
NOT_ENTERED = {
    "repro": ("memo-serve.", "memo-store.", "memo-cluster.", "bench.trace_overhead_ms"),
    "serve_hot": OFFLINE_ONLY,
    "serve_fill": ("memo-cluster.",) + OFFLINE_ONLY,
    "route_hot": FILL + OFFLINE_ONLY,
}

WORKLOADS = {
    "repro": repro,
    "serve_hot": lambda b, a, n: serve(b, a, n, "serve_hot"),
    "serve_fill": lambda b, a, n: serve(b, a, n, "serve_fill"),
    "route_hot": lambda b, a, n: serve(b, a, n, "route_hot"),
}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bins = build()
    notes = []
    result = WORKLOADS[args.workload](bins, args, notes)
    for n in notes:
        log(n)

    metrics = {}
    if args.trace:
        for m in SPEC["per_layer"]:
            value = result["layers"].get(m["name"])
            if value is None:
                # A layer this workload never enters did no work in it.
                if not m["name"].startswith(NOT_ENTERED[args.workload]):
                    raise BenchError(f"traced run did not measure {m['name']}")
                value = 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:<44} {value:>14.6g} {m['unit']}")
    else:
        for m in SPEC["end_to_end"]:
            value, samples = result["e2e"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:<14} {value:>14.6g} {m['unit']:<6} samples={samples}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    # Turn SIGTERM into an exception so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
