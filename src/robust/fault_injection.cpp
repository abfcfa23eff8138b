#include "robust/fault_injection.h"

#include <chrono>
#include <cstdlib>
#include <string>

#include "sim/rng.h"

namespace dpm::robust {
namespace {

/// Per-thread armed plan + probe counters.  Thread-locality is what
/// makes injection deterministic under `--jobs N`: a unit's faults
/// depend only on its own probe sequence.
struct ActivePlan {
  FaultPlan plan;
  std::uint64_t hits = 0;   // probe ordinals of plan.site seen
  std::uint64_t fired = 0;  // firings consumed
  bool armed = false;
};

thread_local ActivePlan t_plan;

/// Per-thread cooperative deadline.  `active` keeps the disarmed check
/// to one thread-local flag read (no clock call).
struct ThreadDeadline {
  std::chrono::steady_clock::time_point at{};
  bool active = false;
};

thread_local ThreadDeadline t_deadline;

std::atomic<std::uint64_t> g_faults_fired{0};

}  // namespace

namespace detail {

std::atomic<int> g_armed_threads{0};

bool probe_slow(FaultSite site) noexcept {
  ActivePlan& ap = t_plan;
  if (!ap.armed || ap.plan.site != site) return false;
  const std::uint64_t ordinal = ++ap.hits;
  if (ordinal < ap.plan.fire_at || ordinal >= ap.plan.fire_at + ap.plan.count) {
    return false;
  }
  ++ap.fired;
  g_faults_fired.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace detail

const char* to_string(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kLuFactorize: return "lu-factorize";
    case FaultSite::kFtUpdate: return "ft-update";
    case FaultSite::kFtranSpike: return "ftran";
    case FaultSite::kBtranSpike: return "btran";
    case FaultSite::kWarmBasis: return "warm-basis";
    case FaultSite::kCacheLine: return "cache-line";
    case FaultSite::kDeadline: return "deadline";
  }
  return nullptr;
}

std::uint64_t faults_fired() noexcept {
  return g_faults_fired.load(std::memory_order_relaxed);
}

void set_thread_deadline(double wall_ms) noexcept {
  if (wall_ms <= 0.0) {
    clear_thread_deadline();
    return;
  }
  t_deadline.at = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(wall_ms));
  t_deadline.active = true;
}

void clear_thread_deadline() noexcept { t_deadline.active = false; }

bool deadline_expired() noexcept {
  if (probe(FaultSite::kDeadline)) return true;
  if (!t_deadline.active) return false;
  return std::chrono::steady_clock::now() >= t_deadline.at;
}

FaultPlan FaultPlan::derive(FaultSite site, std::string_view scope,
                            std::uint64_t index, std::uint64_t window,
                            std::uint64_t count) noexcept {
  FaultPlan plan;
  plan.site = site;
  const std::uint64_t span = window < 2 ? 1 : window;
  const std::uint64_t salt =
      0xFA017ull ^ (static_cast<std::uint64_t>(site) << 8);
  plan.fire_at = 1 + sim::derive_seed(scope, index, salt) % span;
  plan.count = count < 1 ? 1 : count;
  return plan;
}

std::optional<FaultSpec> parse_fault_spec(std::string_view text) noexcept {
  FaultSpec spec;
  const std::size_t c1 = text.find(':');
  const std::string_view name = text.substr(0, c1);
  bool known = false;
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    const auto site = static_cast<FaultSite>(i);
    if (name == to_string(site)) {
      spec.site = site;
      known = true;
      break;
    }
  }
  if (!known) return std::nullopt;
  const auto parse_u64 = [](std::string_view s,
                            std::uint64_t& out) noexcept -> bool {
    if (s.empty()) return false;
    std::uint64_t v = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
  };
  if (c1 != std::string_view::npos) {
    const std::string_view rest = text.substr(c1 + 1);
    const std::size_t c2 = rest.find(':');
    if (!parse_u64(rest.substr(0, c2), spec.window)) return std::nullopt;
    if (c2 != std::string_view::npos &&
        !parse_u64(rest.substr(c2 + 1), spec.count)) {
      return std::nullopt;
    }
  }
  if (spec.window < 1) spec.window = 1;
  if (spec.count < 1) spec.count = 1;
  return spec;
}

FaultScope::FaultScope(const FaultPlan& plan) noexcept
    : prev_plan_(t_plan.plan),
      prev_hits_(t_plan.hits),
      prev_fired_(t_plan.fired),
      prev_armed_(t_plan.armed) {
  t_plan.plan = plan;
  t_plan.hits = 0;
  t_plan.fired = 0;
  t_plan.armed = true;
  if (!prev_armed_) {
    detail::g_armed_threads.fetch_add(1, std::memory_order_relaxed);
  }
}

FaultScope::~FaultScope() {
  t_plan.plan = prev_plan_;
  t_plan.hits = prev_hits_;
  t_plan.fired = prev_fired_;
  t_plan.armed = prev_armed_;
  if (!prev_armed_) {
    detail::g_armed_threads.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::uint64_t FaultScope::hits() const noexcept { return t_plan.hits; }

std::uint64_t FaultScope::fired() const noexcept { return t_plan.fired; }

}  // namespace dpm::robust
