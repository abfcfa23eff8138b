#!/usr/bin/env python3
"""End-to-end benchmark of the dpmd policy daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds dpmd (and the in-process layer tracer, layers.cpp) from the
checkout it sits in into .bench_build/, starts a daemon on an ephemeral
localhost port with its default settings, drives one workload over TCP
for S seconds, checks every answer, and prints one JSON result object as
the last line of stdout.  Build output and diagnostics go to stderr.

Workloads.  Inputs come from --seed alone; the daemon only sees request
lines.  Every design is an on/off provider x bursty requester with a
64-slot queue (256 states, 512 LP columns), discount 0.99, minimizing
power under a queue-length bound.  Designs are drawn as low-discrepancy
points of one parameter box, so every seed gets an alike mix of easy and
hard designs.

  fleet_half     Open loop, the fleet shape of the repository's serve
                 scenario (src/scenario/scenarios_serve.cpp): few designs
                 (32), many devices, 90% of device requests at their
                 design's default queue bound (exact cache hits) and 10%
                 at a moved bound (warm near hits; the bound moves
                 continuously, so every moved request is a fresh solve).
                 Devices reach the daemon through 8 gateway connections,
                 each design's through one, and a gateway keeps one
                 request in flight, queueing the rest in arrival order
                 (so a near hit delays the exact hits queued behind it,
                 and one design's requests reach the daemon in order).
                 A closed-loop calibration on one
                 connection first measures the saturation rate of this
                 mix (closed_loop_rps); Poisson arrivals then run at 0.5x
                 of it, the lowest level bench/bench_serve_load.cpp
                 offers.  (At 0.75x and 1x the p98 latency varied by a
                 sixth and a third from run to run, too much to gate.)
                 The gaps are seeded
                 unit-rate draws scaled by the measured rate.  Latency
                 runs from each request's due time, so a stall counts
                 against the requests queued behind it.
  design_closed  Closed loop, one designer: walks the trade-off curves of
                 12 designs in turn, each bound a small random step from
                 the last, so every request is a warm dual repair plus
                 the canonical finish on a live session; no cache hits.
  cold_solve     Closed loop, one client: every request is a design the
                 daemon has never seen, so it pays model compose, LP
                 assembly and a cold simplex solve; past 256 designs each
                 also evicts the stalest session.

End-to-end metrics (--trace 0): p50_ms and p98_ms, the median over up
to SLICES consecutive slices of the window of each slice's percentile
latency, with as many slices as leave ten latencies above the percentile
in each.  98 is the highest percentile with ten latencies above it in
the smallest sample, a 15 s cold_solve window of about 500 requests,
where p98_ms is one slice.  closed_loop_rps, the requests per second one
closed-loop client completes (the calibration phase on the fleet
workloads, the window otherwise); setup_s, the median over SETUPS
set-ups of starting a daemon and registering the workload's designs
(cold solves).

Per-layer metrics (--trace 1): the daemon's tier shares and pivots per
solve over the window (stats counter deltas divided by the window's
requests and solves); the generator's p99 lateness (open loop); and,
from replaying every line the daemon served, in order, through
layers.cpp: the median time a request spends outside the in-process
layers (wire, admission, queueing), and the mean per-request time in
parse, compose, LP assembly, rhs install and keys, working solve,
canonical finish and serialization, with the solver's factorize,
Forrest-Tomlin update and triangular sweep time and refactorizations.

Checks.  Every timed request is answered "ok" and feasible, within its
bound; repeats of one request answer identically; within a design the
optimum never rises as the bound loosens.  For a sample of points the
returned policy, evaluated by the daemon, reproduces the optimum and
the queue value; the optimum is no worse than the always-on policy when
that is feasible; and a fresh daemon solving the point cold reaches the
same optimum.  The traced run also requires the replay's optima to match
the daemon's answers, and its exact/near/cold counts and repair/cold
pivot totals to equal the daemon's counter deltas over the window.
"""

import argparse
import json
import math
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

GAMMA = 0.99
CAP = 63  # queue capacity; larger LPs draw false "infeasible" answers
# Queue bounds lie in [LO, HI]: above every design's minimum reachable
# queue (always-on stays below 0.9 over the parameter box) and below the
# unconstrained optimum's queue, so the constraint binds.
LO, HI = 1.2, 2.0
PRIME_BOUND = 1.6       # the bound set-up registers a design at
SETUPS = 9              # set-ups per run; setup_s is their median
SLICES = 10             # window slices; p50_ms is the median of theirs
SAMPLE_CHECKS = 3       # points re-verified after the timed window
CALIBRATE_SHARE = 0.2   # fleet calibration length, as a share of --seconds
DRAIN_SECONDS = 30.0    # wait for outstanding answers after the window
COUNTERS = ("exact_hits", "near_hits", "cold_solves", "repair_pivots",
            "cold_pivots")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Builds dpmd and the layer tracer; returns (dpmd, dpm_layers)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise SystemExit("perfbench: no program source here (run from the "
                         "root of a source checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "dpmd",
                    "dpm_layers", "-j", "4"], stdout=sys.stderr, check=True)
    return (os.path.join(BUILD, "dpmopt", "dpmd"),
            os.path.join(BUILD, "dpm_layers"))


# --------------------------------------------------------------- models

class DesignSpace:
    """Seeded low-discrepancy points in the design parameter box (the
    additive recurrence on square roots of primes, from a random start):
    each run covers the box evenly, so runs with different seeds draw
    alike mixes of easy and hard designs."""

    STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19)]

    def __init__(self, rng):
        self.point = [rng.random() for _ in self.STEPS]

    def draw(self):
        """The next design; also returns a spare coordinate in [0, 1)."""
        self.point = [(x + a) % 1.0 for x, a in zip(self.point, self.STEPS)]
        return design(self.point), self.point[-1]


def design(u):
    """An on/off provider x bursty requester design (the paper's running
    example shape) at point `u` of the parameter box."""
    def lerp(k, lo, hi):
        return lo + (hi - lo) * u[k]

    sr = lerp(0, 0.80, 0.95)       # service rate while on
    wake = lerp(1, 0.08, 0.20)     # off -> on per slice under s_on
    shut = lerp(2, 0.60, 0.95)     # on -> off per slice under s_off
    p_on = lerp(3, 2.5, 3.5)
    p_tr = lerp(4, 3.5, 4.5)
    start = lerp(5, 0.02, 0.08)    # idle -> burst
    persist = lerp(6, 0.50, 0.80)  # burst -> burst
    model = {
        "provider": {
            "commands": ["s_on", "s_off"],
            "power": [[p_on, p_tr], [p_tr, 0.0]],
            "service_rate": [[sr, 0.0], [0.0, 0.0]],
            "transitions": [[[1.0, 0.0], [wake, 1.0 - wake]],
                            [[1.0 - shut, shut], [0.0, 1.0]]],
        },
        "requester": {"transitions": [[1.0 - start, start],
                                      [1.0 - persist, persist]],
                      "requests": [0, 1]},
        "queue_capacity": CAP,
    }
    return Design(model)


class Design:
    def __init__(self, model):
        self.model = model
        self.states = 4 * (CAP + 1)
        # Devices mostly start with an empty queue (state index is
        # (sp * 2 + sr) * (CAP + 1) + q), plus a little mass on every
        # state: with point masses alone the LP is so degenerate that the
        # solver answers a few feasible designs "infeasible".
        p0 = [0.05 / self.states] * self.states
        for k in range(4):
            p0[k * (CAP + 1)] += 0.95 / 4
        self.initial = p0
        self.initial_json = json.dumps(p0)
        self.model_json = json.dumps(model, separators=(",", ":"))
        self.ref = None  # model_ref, learned at set-up

    def optimize_line(self, rid, bound, want_policy=False):
        extra = ',"want_policy":true' if want_policy else ""
        return (f'{{"id":"{rid}","op":"optimize","model":{self.model_json},'
                f'"discount":{GAMMA!r},"objective":"power",'
                f'"initial":{self.initial_json},"constraints":'
                f'[{{"metric":"queue_length","bound":{bound!r}}}]{extra}}}')

    def reoptimize_line(self, rid, bound):
        return (f'{{"id":"{rid}","op":"reoptimize","model_ref":"{self.ref}",'
                f'"initial":{self.initial_json},"constraints":'
                f'[{{"metric":"queue_length","bound":{bound!r}}}]}}')

    def evaluate_line(self, rid, policy):
        return json.dumps({"id": rid, "op": "evaluate", "model": self.model,
                           "discount": GAMMA, "initial": self.initial,
                           "policy": policy,
                           "metrics": ["power", "queue_length"]})


# --------------------------------------------------------------- daemon

class Conn:
    """One blocking client connection speaking line-delimited JSON."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def read_available(self):
        """Returns the complete lines received by one recv()."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk
        *lines, self.buf = self.buf.split(b"\n")
        return lines

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply

    def call(self, line):
        self.send(line)
        return json.loads(self.read_line())

    def close(self):
        self.sock.close()


class Daemon:
    def __init__(self, exe):
        self.proc = subprocess.Popen([exe], stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, cwd=BUILD)
        first = self.proc.stdout.readline().decode().strip()
        if "listening on" not in first:
            self.stop()
            raise RuntimeError(f"dpmd did not start: {first!r}")
        self.port = int(first.rsplit(":", 1)[1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ------------------------------------------------------------ workloads

class Request:
    __slots__ = ("rid", "design", "bound", "line", "stream", "due", "issued",
                 "sent", "done", "reply")

    def __init__(self, rid, design, bound, line, stream=0):
        self.rid, self.design, self.bound, self.line = rid, design, bound, line
        self.stream = stream  # the connection it is sent on (open loop)
        self.due = self.issued = self.sent = self.done = None
        self.reply = None


class Fleet:
    """Few designs, many devices: most device requests repeat their
    design's default bound, MOVED of them move it by up to MOVE.  Design
    k's devices reach the daemon through gateway connection k % GATEWAYS."""
    DESIGNS, GATEWAYS, MOVED, MOVE = 32, 8, 0.1, 0.2
    LOAD = 0.5  # offered rate, as a share of the measured closed-loop rate

    def __init__(self, rng):
        self.rng, self.n = rng, 0
        space = DesignSpace(rng)
        self.designs = [space.draw()[0] for _ in range(self.DESIGNS)]
        self.defaults = [rng.uniform(LO + self.MOVE, HI - self.MOVE)
                         for _ in self.designs]
        self.calibration_rng = random.Random(rng.random())

    def prime(self):
        return list(zip(self.designs, self.defaults))

    def next_request(self, rng=None):
        rng = rng or self.rng
        k = rng.randrange(self.DESIGNS)
        bound = self.defaults[k]
        if rng.random() < self.MOVED:
            bound += rng.uniform(-self.MOVE, self.MOVE)
        d, rid = self.designs[k], f"r{self.n}"
        self.n += 1
        return Request(rid, d, bound, d.reoptimize_line(rid, bound),
                       stream=k % self.GATEWAYS)

    def plan(self, seconds, rate):
        """Arrival schedule (offset_s, Request): seeded unit-rate gaps
        scaled to `rate`."""
        arrivals, t = [], 0.0
        while True:
            t += self.rng.expovariate(1.0) / rate
            if t >= seconds:
                return arrivals
            arrivals.append((t, self.next_request()))


class DesignClosed:
    DESIGNS, STEP = 12, 0.05

    def __init__(self, rng):
        self.rng = rng
        space = DesignSpace(rng)
        self.designs = [space.draw()[0] for _ in range(self.DESIGNS)]
        self.bounds = [PRIME_BOUND] * self.DESIGNS
        self.n = 0

    def prime(self):
        return [(d, PRIME_BOUND) for d in self.designs]

    def next_request(self):
        """The next design in turn, one step further along its trade-off
        curve (a random walk of the bound, reflected into [LO, HI])."""
        k = self.n % self.DESIGNS
        b = self.bounds[k] + self.rng.gauss(0.0, self.STEP)
        if b < LO:
            b = 2 * LO - b
        if b > HI:
            b = 2 * HI - b
        self.bounds[k] = b
        d = self.designs[k]
        rid = f"r{self.n}"
        self.n += 1
        return Request(rid, d, b, d.reoptimize_line(rid, b))


class ColdSolve:
    WARMUP = 12

    def __init__(self, rng):
        self.space = DesignSpace(rng)
        self.warmup = [self.space.draw()[0] for _ in range(self.WARMUP)]
        self.n = 0

    def prime(self):
        return [(d, PRIME_BOUND) for d in self.warmup]

    def next_request(self):
        d, u = self.space.draw()
        b = LO + (HI - LO) * u
        rid = f"r{self.n}"
        self.n += 1
        return Request(rid, d, b, d.optimize_line(rid, b))


WORKLOADS = {
    "fleet_half": Fleet,
    "design_closed": DesignClosed,
    "cold_solve": ColdSolve,
}


# ------------------------------------------------------------- driving

def set_up(exe, workload):
    """Starts a daemon and registers the workload's designs (cold
    solves).  Returns (daemon, seconds, the lines it served)."""
    t0 = time.perf_counter()
    daemon = Daemon(exe)
    conn = Conn(daemon.port)
    lines = []
    for i, (d, bound) in enumerate(workload.prime()):
        line = d.optimize_line(f"p{i}", bound)
        reply = conn.call(line)
        if reply.get("status") != "ok" or not reply.get("feasible"):
            conn.close()
            daemon.stop()
            raise RuntimeError(f"set-up solve failed: {reply}")
        d.ref = reply["model_ref"]
        lines.append(line)
    elapsed = time.perf_counter() - t0
    conn.close()
    return daemon, elapsed, lines


def drive_closed(port, next_request, seconds):
    """One client sends its next request as soon as the previous one is
    answered, until the window closes; returns (elapsed seconds, the
    timed requests)."""
    conn = Conn(port)
    done = []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        req = next_request()
        req.due = req.issued = req.sent = time.perf_counter()
        conn.send(req.line)
        req.reply = conn.read_line()
        req.done = time.perf_counter()
        done.append(req)
    conn.close()
    return time.perf_counter() - start, done


def drive_open(port, workload, seconds, rate):
    """Makes each request due on schedule at its design's gateway.  A
    gateway keeps one request in flight on its connection and queues the
    rest in arrival order.  Returns the timed requests."""
    plan = workload.plan(seconds, rate)
    conns = [Conn(port) for _ in range(workload.GATEWAYS)]
    inflight = [None] * len(conns)
    queued = [[] for _ in conns]
    sel = selectors.DefaultSelector()
    for i, c in enumerate(conns):
        sel.register(c.sock, selectors.EVENT_READ, i)

    def send(i, req):
        inflight[i] = req
        req.sent = time.perf_counter()
        conns[i].send(req.line)

    def receive(timeout):
        for key, _ in sel.select(timeout):
            i = key.data
            for reply in conns[i].read_available():
                req = inflight[i]
                req.done, req.reply = time.perf_counter(), reply
                inflight[i] = None
                if queued[i]:
                    send(i, queued[i].pop(0))

    start = time.perf_counter()
    for offset, req in plan:
        req.due = start + offset
        while True:
            wait = req.due - time.perf_counter()
            if wait <= 0:
                break
            receive(wait)
        req.issued = time.perf_counter()
        if inflight[req.stream] is None:
            send(req.stream, req)
        else:
            queued[req.stream].append(req)
    deadline = time.perf_counter() + DRAIN_SECONDS
    while (any(inflight) or any(queued)) and time.perf_counter() < deadline:
        receive(0.1)
    sel.close()
    for c in conns:
        c.close()
    return [req for _, req in plan]


# -------------------------------------------------------------- checks

def close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_window(requests):
    """Parses every answer; returns (failed, problems, answers) where
    answers maps (design, bound) -> (first request, parsed reply)."""
    failed, problems, answers = 0, [], {}
    for req in requests:
        if req.reply is None:
            failed += 1
            continue
        try:
            r = json.loads(req.reply)
        except ValueError:
            failed += 1
            continue
        if (r.get("id") != req.rid or r.get("status") != "ok"
                or r.get("feasible") is not True):
            failed += 1
            log(f"{req.rid} failed: {req.reply[:300]!r}")
            continue
        del r["id"]
        if r["constraint_per_step"][0] > req.bound + 1e-6 * max(1.0, req.bound):
            problems.append(f"{req.rid}: queue {r['constraint_per_step'][0]} "
                            f"over bound {req.bound}")
        key = (id(req.design), req.bound)
        if key in answers and answers[key][1] != r:
            problems.append(f"{req.rid}: a repeated request answered "
                            "differently")
        answers.setdefault(key, (req, r))

    by_design = {}
    for (design, bound), (_, r) in answers.items():
        by_design.setdefault(design, []).append((bound, r["objective_per_step"]))
    for points in by_design.values():
        points.sort()
        for (b0, o0), (b1, o1) in zip(points, points[1:]):
            if o1 > o0 + 1e-6 * max(1.0, abs(o0)):
                problems.append(f"optimum rises from {o0} to {o1} as the "
                                f"bound loosens from {b0} to {b1}")
    return failed, problems, answers


def check_sample(exe, port, answers, rng):
    """Re-verifies a few answered points after the window."""
    problems = []
    sample = rng.sample(sorted(answers.values(), key=lambda a: a[0].rid),
                        min(SAMPLE_CHECKS, len(answers)))
    conn = Conn(port)
    for i, (req, r) in enumerate(sample):
        d, b, opt = req.design, req.bound, r["objective_per_step"]
        q = r["constraint_per_step"][0]
        with_policy = conn.call(d.optimize_line(f"v{i}", b, want_policy=True))
        if not close(with_policy.get("objective_per_step", float("nan")), opt, 1e-6):
            problems.append(f"{req.rid}: want_policy re-solve disagrees")
            continue
        ev = conn.call(d.evaluate_line(f"e{i}", with_policy["policy"]))
        m = ev.get("metrics", {})
        if not (close(m.get("power", float("nan")), opt, 1e-6)
                and close(m.get("queue_length", float("nan")), q, 1e-6)):
            problems.append(f"{req.rid}: the returned policy evaluates to {m}, "
                            f"not ({opt}, {q})")
        always_on = [[1.0, 0.0]] * d.states
        ev = conn.call(d.evaluate_line(f"a{i}", always_on))
        m = ev.get("metrics", {})
        if m.get("queue_length", float("inf")) <= b and \
                opt > m.get("power", float("inf")) + 1e-9:
            problems.append(f"{req.rid}: optimum {opt} worse than the feasible "
                            f"always-on policy ({m})")
    conn.close()

    fresh = Daemon(exe)
    try:
        conn = Conn(fresh.port)
        for i, (req, r) in enumerate(sample):
            cold = conn.call(req.design.optimize_line(f"c{i}", req.bound))
            if not close(cold.get("objective_per_step", float("nan")),
                         r["objective_per_step"], 1e-6):
                problems.append(f"{req.rid}: a cold solve in a fresh daemon "
                                f"gets {cold.get('objective_per_step')}, not "
                                f"{r['objective_per_step']}")
        conn.close()
    finally:
        fresh.stop()
    return problems


# ---------------------------------------------------------------- trace

def counters(port):
    conn = Conn(port)
    s = conn.call('{"id":"s","op":"stats"}')
    conn.close()
    return {name: s["counters"][name] for name in COUNTERS}


def replay(tracer, served_lines, requests, answers):
    """Replays every line the daemon served, in order, through the
    in-process tracer (the window's lines timed); returns (the tracer's
    sums, per-request in-process ms, problems)."""
    tmp = os.path.join(BUILD, "trace")
    os.makedirs(tmp, exist_ok=True)
    prime_path = os.path.join(tmp, "prime.jsonl")
    sample_path = os.path.join(tmp, "sample.jsonl")
    with open(prime_path, "w") as f:
        f.writelines(line + "\n" for line in served_lines)
    with open(sample_path, "w") as f:
        f.writelines(req.line + "\n" for req in requests)
    out = subprocess.run([tracer, prime_path, sample_path], check=True,
                         stdout=subprocess.PIPE, timeout=150).stdout
    split = json.loads(out)
    problems = []
    for req, obj in zip(requests, split.pop("objectives")):
        theirs = answers[(id(req.design), req.bound)][1]["objective_per_step"]
        if not close(obj, theirs, 1e-6):
            problems.append(f"{req.rid}: the in-process replay gets {obj}, "
                            f"the daemon {theirs}")
    return split, split.pop("request_ms"), problems


def trace_metrics(tracer, served_lines, requests, answers, before, after,
                  problems):
    """The per-layer metrics of a traced run (see the module docstring)."""
    delta = {name: after[name] - before[name] for name in COUNTERS}
    split, in_process, replay_problems = replay(tracer, served_lines,
                                                requests, answers)
    problems += replay_problems
    for name in COUNTERS:
        if split[name] != delta[name]:
            problems.append(f"the replay counts {split[name]} {name}, the "
                            f"daemon {delta[name]}")

    n = len(requests)
    near, cold = delta["near_hits"], delta["cold_solves"]
    late = [(r.issued - r.due) * 1e3 for r in requests]
    outside = [(r.done - r.due) * 1e3 - ms
               for r, ms in zip(requests, in_process)]
    metrics = {
        "exact_hit_share": (delta["exact_hits"] / n, "share"),
        "near_hit_share": (near / n, "share"),
        "cold_share": (cold / n, "share"),
        "repair_pivots_per_near_hit":
            (delta["repair_pivots"] / near if near else 0.0, "count"),
        "cold_pivots_per_cold_solve":
            (delta["cold_pivots"] / cold if cold else 0.0, "count"),
        "gen_late_p99_ms": (percentile(late, 99), "ms"),
        "outside_ms": (statistics.median(outside), "ms"),
    }
    for name in ("parse_ms", "compose_ms", "lp_build_ms", "rhs_key_ms",
                 "solve_ms", "finish_ms", "serialize_ms", "factorize_ms",
                 "ft_update_ms", "sweep_ms", "refactorizations"):
        metrics[name] = (split[name] / n,
                         "ms" if name.endswith("_ms") else "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ----------------------------------------------------------------- main

def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def sliced_percentile(requests, p):
    """The p-th latency percentile (ms) of each of up to SLICES
    consecutive equal slices of the window, as many as leave at least
    ten latencies above the percentile in every slice, and their median:
    a stall on the host moves one slice, not the result."""
    lat = [(r.done - r.due) * 1e3 for r in requests]
    k = max(1, min(SLICES, len(lat) * (100 - p) // 1000))
    return statistics.median(
        percentile(lat[i * len(lat) // k:(i + 1) * len(lat) // k], p)
        for i in range(k))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    dpmd, tracer = build()
    rng = random.Random(f"{args.workload}/{args.seed}")
    workload = WORKLOADS[args.workload](rng)

    setup_times, daemon = [], None
    try:
        for _ in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            daemon, elapsed, served = set_up(dpmd, workload)
            setup_times.append(elapsed)

        if isinstance(workload, Fleet):
            elapsed, calibration = drive_closed(
                daemon.port,
                lambda: workload.next_request(workload.calibration_rng),
                args.seconds * CALIBRATE_SHARE)
            served += [req.line for req in calibration]
            closed_rps = len(calibration) / elapsed
            before = counters(daemon.port)
            requests = drive_open(daemon.port, workload, args.seconds,
                                  Fleet.LOAD * closed_rps)
        else:
            before = counters(daemon.port)
            elapsed, requests = drive_closed(
                daemon.port, workload.next_request, args.seconds)
            closed_rps = len(requests) / elapsed
        after = counters(daemon.port)

        failed, problems, answers = check_window(requests)
        check_rng = random.Random(f"check/{args.seed}")
        if answers:
            problems += check_sample(dpmd, daemon.port, answers, check_rng)
    finally:
        if daemon is not None:
            daemon.stop()

    if failed:
        problems.append(f"{failed} of {len(requests)} requests failed")
        metrics = {}
    elif args.trace:
        metrics = trace_metrics(tracer, served, requests, answers, before,
                                after, problems)
    else:
        metrics = {
            "p50_ms": {"value": sliced_percentile(requests, 50), "unit": "ms"},
            "p98_ms": {"value": sliced_percentile(requests, 98), "unit": "ms"},
            "closed_loop_rps": {"value": closed_rps, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    for p in problems[:20]:
        log(p)
    print(json.dumps({"correct": not problems,
                      "attempted": len(requests), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
