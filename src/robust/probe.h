// Fault-injection probe points for the solve path.
//
// This header is the *only* robustness header the hot layers (linalg,
// lp, scenario) include.  It is deliberately self-contained — nothing
// above <atomic>/<cstdint> — so the lowest layer (`src/linalg`) can
// compile probes in without a dependency inversion.  The richer
// machinery (FaultPlan construction, scoped arming, the supervisor)
// lives in `src/robust/fault_injection.h` / `supervisor.h` and is only
// included by tests, the scenario runner, and the bench CLI.
//
// Contract:
//   * `probe(site)` returns true when an armed fault plan fires at this
//     probe point.  When no plan is armed anywhere in the process the
//     cost is one relaxed atomic load and a predictable branch — the
//     hot loops pay nothing measurable in production builds.
//   * Plans are armed per *thread* (see FaultScope).  Firing depends
//     only on the armed plan and the calling thread's own probe
//     sequence, never on other threads — this is what keeps
//     `--jobs 1` == `--jobs N` byte-identical under injection.
//   * `deadline_expired()` implements the cooperative per-unit
//     wall-clock deadline.  Solvers poll it inside their pivot loops;
//     it is false whenever no deadline is armed on the calling thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dpm::robust {

/// Named probe points compiled into the hot layers.  Each enumerator is
/// one failure mode the fault matrix exercises; docs/robustness.md
/// documents where each probe physically sits and what firing does.
enum class FaultSite : std::uint8_t {
  kLuFactorize = 0,  ///< BasisFactorization::refactorize reports singular
  kFtUpdate,         ///< Forrest-Tomlin update refuses (stability/cap storm)
  kFtranSpike,       ///< ftran result poisoned with a quiet NaN
  kBtranSpike,       ///< btran result poisoned with a quiet NaN
  kWarmBasis,        ///< warm-start basis rejected as corrupted
  kCacheLine,        ///< scenario result cache flush writes a poisoned line
  kDeadline,         ///< per-unit wall-clock deadline expires immediately
};
inline constexpr std::size_t kNumFaultSites = 7;

/// Stable lower-case name for CLI flags and telemetry ("lu-factorize",
/// "ft-update", ...).  Returns nullptr for out-of-range values.
const char* to_string(FaultSite site) noexcept;

namespace detail {
/// Number of threads with an armed plan; zero in production, so the
/// fast path below is a single relaxed load of a never-written word.
extern std::atomic<int> g_armed_threads;
bool probe_slow(FaultSite site) noexcept;
}  // namespace detail

/// True when an armed fault plan fires at this probe point (and consumes
/// one firing from the plan's budget).  Zero-cost when disabled.
inline bool probe(FaultSite site) noexcept {
  if (detail::g_armed_threads.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return detail::probe_slow(site);
}

/// Total faults fired process-wide since start (relaxed; telemetry only).
std::uint64_t faults_fired() noexcept;

/// Arms a cooperative wall-clock deadline on the calling thread,
/// `wall_ms` from now.  Solvers poll `deadline_expired()`; nothing is
/// interrupted preemptively.  `wall_ms <= 0` disarms.
void set_thread_deadline(double wall_ms) noexcept;
void clear_thread_deadline() noexcept;

/// True when the calling thread's armed deadline has passed, or when an
/// injected kDeadline fault fires.  False when no deadline is armed —
/// the no-deadline check is one thread-local flag read.
bool deadline_expired() noexcept;

}  // namespace dpm::robust
