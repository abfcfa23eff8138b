// PolicyEngine: the dpmd request processor.
//
// One engine owns the full serving state — the model/LP session table,
// the content-addressed response cache, and the telemetry counters.
// Each caller serves its own line on its own thread, under per-session
// locks: one session's requests run one at a time, different sessions
// run in parallel.  Every request sequence produces the same responses
// at any client thread count (the serving restatement of the scenario
// engine's --jobs invariance): the canonical finish below makes bytes
// independent of the tier that served them, and the cache is
// content-addressed.
//
// Lock order: the session table's lock is released before anything
// else is taken; a session's lock may then be held while taking the
// cache lock or the stats lock, never the other way round.
//
// Three economic tiers per solve request (docs/serving.md):
//   * exact hit  — the full request key (protocol.h) matches a cached
//     response: replay the recorded bytes, zero simplex pivots;
//   * near hit   — the structural key matches a live session: reuse its
//     LP and its simplex engine, and warm-start the boxed dual simplex
//     from the session's last optimal basis (the 303-vs-10480-pivot
//     economics of PR 4);
//   * cold solve — first sighting of a structure: build the LP once,
//     solve from scratch (policy-iteration crash basis at >= 4096
//     columns, mirroring PolicyOptimizer), register the session.
//
// Determinism of response bytes: every optimal solve is finished
// *canonically* — after the working solve (warm or cold) lands on an
// optimal basis, the solution is recomputed from a fresh factorization
// of that basis (a zero-pivot warm re-solve).  The reported numbers are then a pure function of (LP,
// optimal basis), so a warm-started repair and a cold solve that reach
// the same vertex answer with identical bytes, and a cached replay is
// indistinguishable from a recompute.
//
// What a session retains (lp::RetainedSimplex): besides the LP and the
// canonical basis, the revised-simplex engine built for the LP — its
// standard form (columns, row mirror, bounds, artificial signs) — and
// that engine's last LU, which after a canonical finish is the fresh
// factorization of the session basis.  A near hit copies the new rhs
// in O(m), installs the session basis and adopts that LU without
// refactorizing (it is bit for bit what a refactorization would
// rebuild).  When the repair then leaves the basis and its bound flags
// unchanged, the canonical finish would be a warm solve from that same
// basis in the same configuration — the computation just run — so the
// repair's answer is returned as canonical with no second solve.  When
// it pivoted, the finish refactorizes in place on the same engine.
// Every other piece of engine state is reset between solves, so the
// bytes, pivots and saved bases are those of a new engine per solve.
// The engine is rebuilt when a new rhs would change its standard form
// (an artificial column's sign, a row the bound absorption judged by
// its rhs) and dropped after any undetermined solve (failure, deadline,
// injected fault) and with the session on LRU eviction.  Cost: about
// 0.5 MB more per session for the 256-state, 512-column benchmark
// design, about 18 MB for a 16k-state model (mostly its LU).
//
// All solves run under robust::SolveSupervisor with an optional
// cooperative per-request deadline: a poisoned or over-budget request
// degrades to a typed {"status":"failed"} response (never cached) and
// the worker survives to serve the next line.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dpm/optimizer.h"
#include "lp/revised_simplex.h"
#include "scenario/cache.h"
#include "serve/protocol.h"

namespace dpm::serve {

struct EngineOptions {
  /// Response cache on/off (exact-hit tier).  Sessions (near-hit tier)
  /// are always kept.
  bool cache = true;
  /// Cache directory; empty keeps the cache in memory only (no load on
  /// construction, flush_cache() is a no-op).
  std::string cache_dir;
  std::size_t cache_entries = scenario::ResultCache::kDefaultMaxEntries;
  /// Cooperative per-request solve deadline in wall ms; 0 disables.
  double request_deadline_ms = 0.0;
  /// Admission budget: requests concurrently inside submit().  A caller
  /// arriving at the cap is shed with a typed "overloaded" error
  /// response instead of queuing — the engine's memory and latency stay
  /// bounded under a request flood.  0 disables shedding (unbounded).
  std::size_t max_inflight = 64;
  /// LRU bound on live sessions (the near-hit warm-start state: one
  /// built LP, optimal basis and retained simplex engine per model
  /// structure).  Inserting past the cap evicts the least-recently-used
  /// session; the next request for an evicted structure pays a cold
  /// solve whose response bytes are identical to the original cold
  /// solve (the canonical-finish invariant).  0 disables eviction
  /// (unbounded).
  std::size_t max_sessions = 256;
};

/// Per-engine request accounting.  Plain members guarded by the engine's
/// stats lock, into which each request folds its own delta once —
/// deterministic for a deterministic request sequence, unlike the
/// process-wide odometers.  scripts/check_docs.sh gates this field
/// list against docs/serving.md.
struct EngineCounters {
  std::uint64_t requests = 0;       ///< lines accepted (any op)
  std::uint64_t exact_hits = 0;     ///< replayed from the response cache
  std::uint64_t near_hits = 0;      ///< warm-started from a session basis
  std::uint64_t cold_solves = 0;    ///< solved with no warm basis
  std::uint64_t evaluations = 0;    ///< evaluate requests computed
  std::uint64_t rejections = 0;     ///< typed protocol errors returned
  std::uint64_t failures = 0;       ///< solves abandoned (SolveFailure)
  std::uint64_t repair_pivots = 0;  ///< simplex iterations on near hits
  std::uint64_t cold_pivots = 0;    ///< simplex iterations on cold solves
  std::uint64_t sheds = 0;          ///< requests shed by the admission budget
  std::uint64_t conn_sheds = 0;     ///< connections refused at the accept cap
  std::uint64_t session_evictions = 0;  ///< sessions evicted by the LRU bound
};

/// Process-wide serving telemetry (relaxed atomics, same contract as
/// lp::sweep_telemetry): aggregates every PolicyEngine since process
/// start.  For the deterministic per-engine numbers use counters().
EngineCounters serve_telemetry() noexcept;

/// Request latency summary from a bounded reservoir of recent samples,
/// each timed from entry to submit()/handle_line to the composed
/// response, so lock waits count.  Real wall time — admin/stdout
/// surface only, never part of a deterministic record.
struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::size_t samples = 0;
};

class PolicyEngine {
 public:
  explicit PolicyEngine(EngineOptions options = {});
  ~PolicyEngine();

  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  /// Serves one request line on the calling thread; always returns
  /// exactly one response line (never returns empty).  Thread-safe.
  std::string handle_line(const std::string& line);

  /// handle_line behind the admission budget: a caller arriving with
  /// max_inflight requests already inside submit() is shed with a typed
  /// "overloaded" response instead.
  std::string submit(const std::string& line);

  /// Folds a server-side event into this engine's counters so `stats`
  /// sees the whole overload picture: a connection refused at the
  /// accept cap (the static overloaded line)…
  void note_shed_connection();
  /// …or a request line dropped for exceeding the framing bound (the
  /// server answered a typed bad-request and closed the connection).
  void note_oversized_line();

  /// Requests currently inside submit().  The quantity the max_inflight
  /// budget bounds.
  std::size_t inflight() const;

  /// Persists the response cache (no-op for in-memory engines).
  bool flush_cache();

  /// True once a shutdown request has been served.
  bool shutdown_requested() const noexcept;

  EngineCounters counters() const;
  LatencySummary latency() const;
  scenario::CacheStats cache_stats() const;
  std::size_t num_sessions() const;

 private:
  struct Session;
  struct Parsed;

  // Every request accumulates its counters in a local `delta`, folded
  // into counters_ once by record().
  Parsed parse_one(const std::string& line) const;
  std::string process(Parsed& parsed, EngineCounters& delta);
  std::string process_solve(Parsed& parsed, EngineCounters& delta);
  std::string process_evaluate(const Parsed& parsed, EngineCounters& delta);
  std::string stats_body(const EngineCounters& delta) const;

  std::shared_ptr<Session> resolve_session(Parsed& parsed,
                                           EngineCounters& delta);
  std::string solve_in_session(Session& session, const Request& request,
                               EngineCounters& delta);
  bool cache_lookup(std::uint64_t key, std::string& body);
  void cache_store(std::uint64_t key, const std::string& body);
  void record(const EngineCounters& delta,
              double elapsed_ms = -1.0);  // < 0: no latency sample

  EngineOptions options_;

  mutable std::mutex table_mutex_;  // sessions_, session_clock_, Session::lru
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t session_clock_ = 0;  // LRU clock for session eviction

  mutable std::mutex cache_mutex_;  // cache_
  std::unique_ptr<scenario::ResultCache> cache_;

  mutable std::mutex stats_mutex_;  // counters_, latency_samples_
  EngineCounters counters_;
  std::vector<double> latency_samples_;  // bounded reservoir, ms

  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> inflight_{0};  // callers inside submit()
};

}  // namespace dpm::serve
