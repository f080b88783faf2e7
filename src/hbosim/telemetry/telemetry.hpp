#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "hbosim/common/types.hpp"
#include "hbosim/telemetry/metrics.hpp"

/// \file telemetry.hpp
/// Unified runtime tracing for hbosim: a per-thread, lock-free ring-buffer
/// event tracer with RAII scope macros, plus the TelemetrySession that owns
/// the buffers, the metrics registry, and the exporters.
///
/// Design targets (see DESIGN.md "Telemetry"):
///  - With no session active, every instrumentation point costs one relaxed
///    atomic load and a predictable branch — nothing else. Hot paths (DES
///    event dispatch, per-inference completion) stay within noise of an
///    uninstrumented build.
///  - With a session active, the record path is wait-free for the writing
///    thread: one TLS lookup plus a store into that thread's private ring
///    (single producer, no CAS). The ring overwrites its oldest events on
///    wraparound, so tracing never allocates after thread registration and
///    never blocks the simulation.
///  - Export understands both clocks: wall-time scopes become per-thread
///    tracks ("X" complete events) and DES sim-time spans become async
///    tracks ("b"/"e" pairs under a synthetic "sim-time" process), so a
///    single Perfetto / chrome://tracing load shows fleet workers and
///    per-session simulated timelines side by side.
///
/// Exports must only run while instrumented threads are quiescent (e.g.
/// after the fleet's worker pool has joined); the writer fast path is
/// unsynchronized by design.
///
/// Lifetime: rings live in a process-lifetime pool (never freed), so a
/// ScopeTimer or cached TLS ring pointer that outlives its session writes
/// into stale-but-live memory instead of freed memory, and such writes are
/// dropped by an epoch check anyway. Threads must still not *enter* new
/// instrumentation points (first-time thread registration) concurrently
/// with ~TelemetrySession — destroy the session only after instrumented
/// worker threads have joined.

namespace hbosim::telemetry {

class ThreadRing;

namespace detail {
/// Global tracing switch, read relaxed on every instrumentation point.
extern std::atomic<bool> g_enabled;
/// steady_clock nanoseconds captured when the active session started.
extern std::atomic<std::int64_t> g_session_t0_ns;
/// Bumped once per TelemetrySession construction; lets cached handles and
/// TLS buffers detect that they belong to a previous session.
extern std::atomic<std::uint64_t> g_epoch;

/// Nanoseconds since the active session started.
std::int64_t now_ns();

/// The calling thread's ring for the active session, or nullptr. The fast
/// path is a pure TLS + epoch check that never dereferences the session.
ThreadRing* active_ring();
}  // namespace detail

/// True while a TelemetrySession is active. The one-branch gate every
/// macro compiles down to when tracing is off.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotone session counter (0 = no session has ever started).
inline std::uint64_t session_epoch() {
  return detail::g_epoch.load(std::memory_order_acquire);
}

enum class EventKind : std::uint8_t {
  Scope,    ///< Wall-clock span on the recording thread's track.
  Counter,  ///< Sampled numeric series on the recording thread's track.
  Instant,  ///< Point event on the recording thread's track.
  SimSpan,  ///< Simulated-time span on async track `track`.
};

/// One fixed-size trace record. `name` and `cat` must point at static
/// storage or strings interned via telemetry::intern() — the ring stores
/// only the pointers.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;   ///< Wall ns since session start (record time).
  std::uint64_t dur_ns = 0;  ///< Scope duration; 0 otherwise.
  std::uint64_t track = 0;   ///< Async track id for SimSpan (session id).
  double value = 0.0;        ///< Counter value, or SimSpan begin (seconds).
  double value2 = 0.0;       ///< SimSpan end (seconds).
  EventKind kind = EventKind::Instant;
};

/// Single-producer ring of TraceEvents owned by one thread. The write
/// index is atomic only so that a post-quiescence reader sees a consistent
/// prefix; the producer never synchronizes with other producers.
class ThreadRing {
 public:
  ThreadRing(std::size_t capacity_pow2, std::string name, int tid);

  void push(const TraceEvent& ev) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & mask_] = ev;
    head_.store(h + 1, std::memory_order_release);
  }

  int tid() const { return tid_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Total events ever pushed (monotone; exceeds capacity on wraparound).
  std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return slots_.size(); }

  /// Copy of the retained events, oldest first. Caller must guarantee the
  /// owning thread is quiescent.
  std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> slots_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::string name_;
  int tid_;
};

/// Retained events of one thread, as captured by TelemetrySession.
struct ThreadSnapshot {
  int tid = 0;
  std::string name;
  std::uint64_t dropped = 0;  ///< Events lost to ring wraparound.
  std::vector<TraceEvent> events;
};

// Forward declaration; full definition in report.hpp.
struct ProfileReport;

struct TelemetryConfig {
  /// Ring capacity per thread, rounded up to a power of two. At 64 bytes
  /// per event the default retains ~4 MiB (65536 events) per thread.
  std::size_t events_per_thread = 1 << 16;
};

/// Enables tracing and metrics for its lifetime. At most one session may
/// be active per process; nested construction throws hbosim::Error.
class TelemetrySession {
 public:
  explicit TelemetrySession(TelemetryConfig cfg = {});
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// The active session, or nullptr. Relaxed read; callers must not cache
  /// the pointer across session boundaries (use handles for that).
  static TelemetrySession* active();

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  const TelemetryConfig& config() const { return cfg_; }

  /// Registers the calling thread, creating its ring on first use.
  ThreadRing* ring_for_this_thread();

  // --- export (writers must be quiescent) --------------------------------
  std::vector<ThreadSnapshot> snapshot() const;
  std::uint64_t events_recorded() const;
  std::uint64_t events_dropped() const;

  /// Chrome trace-event JSON: thread tracks for wall-time scopes and
  /// counters, async sim-time tracks, and thread/process metadata. Loads
  /// in Perfetto / chrome://tracing.
  void write_chrome_trace(std::ostream& os) const;

  /// Roll the recorded scopes up into an inclusive/exclusive wall-time
  /// tree (merged across threads).
  ProfileReport report() const;

 private:
  TelemetryConfig cfg_;
  MetricsRegistry metrics_;
  std::uint64_t epoch_;

  mutable std::mutex mu_;
  /// Non-owning: rings live in a process-lifetime pool (telemetry.cpp) so
  /// late writers never touch freed memory after the session is gone.
  std::vector<ThreadRing*> rings_;
};

/// Intern a dynamic name into process-lifetime storage so it can be used
/// as a TraceEvent name/category. Interned strings are never freed; use
/// for bounded sets (resource names, session labels), not per-event data.
const char* intern(std::string_view s);

/// Name the calling thread's track. With `append_index`, the thread's
/// registration index is appended ("fleet-worker" -> "fleet-worker-3"),
/// which gives stable distinct names to pool workers. No-op without an
/// active session.
void set_thread_name(const std::string& name, bool append_index = false);

/// Async-track id used by sim_span() emitters that have no explicit track
/// (thread-local; fleet workers set it to the running session's id).
void set_current_track(std::uint64_t track);

// --- record primitives (no-ops without an active session) ----------------
void counter(const char* cat, const char* name, double value);
void instant(const char* cat, const char* name);
void sim_span(const char* cat, const char* name, std::uint64_t track,
              SimTime begin_s, SimTime end_s);
/// sim_span on the thread's current track (see set_current_track).
void sim_span(const char* cat, const char* name, SimTime begin_s,
              SimTime end_s);

/// RAII wall-clock scope. Cheap enough to put on per-activation and
/// per-suggest paths; the disabled cost is the enabled() branch.
class ScopeTimer {
 public:
  ScopeTimer(const char* cat, const char* name) {
    if (!enabled()) return;
    ring_ = detail::active_ring();
    if (!ring_) return;
    epoch_ = session_epoch();
    cat_ = cat;
    name_ = name;
    start_ = detail::now_ns();
  }
  ~ScopeTimer() {
    if (!ring_) return;
    // The ring is process-lifetime memory, so this push is safe even if
    // the session was destroyed while the scope was open; the checks keep
    // a straddling scope out of a newer session's trace.
    if (!enabled() || session_epoch() != epoch_) return;
    TraceEvent ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.kind = EventKind::Scope;
    ev.ts_ns = static_cast<std::uint64_t>(start_);
    ev.dur_ns = static_cast<std::uint64_t>(detail::now_ns() - start_);
    ring_->push(ev);
  }

  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  ThreadRing* ring_ = nullptr;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t start_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Call-site handle that caches a metric id across calls and re-resolves
/// when a new session starts. Safe as a function-local static shared by
/// threads: resolution is idempotent and the id/epoch pair is published
/// release/acquire.
class CounterHandle {
 public:
  explicit CounterHandle(const char* name) : name_(name) {}
  void add(double delta = 1.0) {
    TelemetrySession* s = TelemetrySession::active();
    if (!s) return;
    s->metrics().add(resolve(*s), delta);
  }

 private:
  MetricId resolve(TelemetrySession& s) {
    const std::uint64_t e = session_epoch();
    if (epoch_.load(std::memory_order_acquire) != e) {
      id_.store(s.metrics().counter(name_), std::memory_order_relaxed);
      epoch_.store(e, std::memory_order_release);
    }
    return id_.load(std::memory_order_relaxed);
  }
  const char* name_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<MetricId> id_{0};
};

/// Same idea for histograms; registers with the default microsecond
/// latency buckets.
class HistogramHandle {
 public:
  explicit HistogramHandle(const char* name) : name_(name) {}
  void observe(double value) {
    TelemetrySession* s = TelemetrySession::active();
    if (!s) return;
    s->metrics().observe(resolve(*s), value);
  }

 private:
  MetricId resolve(TelemetrySession& s) {
    const std::uint64_t e = session_epoch();
    if (epoch_.load(std::memory_order_acquire) != e) {
      id_.store(
          s.metrics().histogram(name_, MetricsRegistry::default_us_buckets()),
          std::memory_order_relaxed);
      epoch_.store(e, std::memory_order_release);
    }
    return id_.load(std::memory_order_relaxed);
  }
  const char* name_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<MetricId> id_{0};
};

}  // namespace hbosim::telemetry

#define HB_TELEMETRY_CONCAT2(a, b) a##b
#define HB_TELEMETRY_CONCAT(a, b) HB_TELEMETRY_CONCAT2(a, b)

/// RAII wall-clock span named by string literals; a single predictable
/// branch when no session is active.
#define HB_TRACE_SCOPE(cat, name)                                     \
  ::hbosim::telemetry::ScopeTimer HB_TELEMETRY_CONCAT(hb_trace_scope_, \
                                                      __LINE__)(cat, name)

/// Sample a numeric series onto the calling thread's track.
#define HB_TRACE_COUNTER(cat, name, value)                        \
  do {                                                            \
    if (::hbosim::telemetry::enabled())                           \
      ::hbosim::telemetry::counter((cat), (name), (value));       \
  } while (0)

/// Bump a registry counter through a call-site-cached handle.
#define HB_TELEM_COUNT(name, delta)                                  \
  do {                                                               \
    if (::hbosim::telemetry::enabled()) {                            \
      static ::hbosim::telemetry::CounterHandle hb_telem_ch{(name)}; \
      hb_telem_ch.add((delta));                                      \
    }                                                                \
  } while (0)

/// Observe a microsecond latency into a registry histogram.
#define HB_TELEM_HIST_US(name, us)                                     \
  do {                                                                 \
    if (::hbosim::telemetry::enabled()) {                              \
      static ::hbosim::telemetry::HistogramHandle hb_telem_hh{(name)}; \
      hb_telem_hh.observe((us));                                       \
    }                                                                  \
  } while (0)
