#include "hbosim/telemetry/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <unordered_set>

#include "hbosim/common/error.hpp"
#include "hbosim/telemetry/report.hpp"

namespace hbosim::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_session_t0_ns{0};
std::atomic<std::uint64_t> g_epoch{0};

std::int64_t now_ns() {
  const auto since_epoch =
      std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
             .count() -
         g_session_t0_ns.load(std::memory_order_relaxed);
}
}  // namespace detail

namespace {

std::atomic<TelemetrySession*> g_session{nullptr};

thread_local ThreadRing* t_ring = nullptr;
thread_local std::uint64_t t_ring_epoch = 0;
thread_local std::uint64_t t_track = 0;

/// Process-lifetime interned strings; node-based set keeps c_str() stable
/// across rehashes. Intended for bounded name sets, so never freed.
std::mutex& intern_mutex() {
  static std::mutex mu;
  return mu;
}
std::unordered_set<std::string>& intern_table() {
  static std::unordered_set<std::string> table;
  return table;
}

/// Process-lifetime ring storage. A ScopeTimer (or a thread's cached TLS
/// ring pointer) can outlive the session that created its ring, so rings
/// are intentionally never freed: a late write lands in a stale ring that
/// no exporter reads instead of freed memory. Heap-allocated so it also
/// survives static destruction order. Growth is bounded by
/// sessions-started x threads-registered.
std::mutex& ring_pool_mutex() {
  static std::mutex mu;
  return mu;
}
std::vector<std::unique_ptr<ThreadRing>>& ring_pool() {
  static auto* pool = new std::vector<std::unique_ptr<ThreadRing>>();
  return *pool;
}

}  // namespace

ThreadRing::ThreadRing(std::size_t capacity_pow2, std::string name, int tid)
    : slots_(capacity_pow2), mask_(capacity_pow2 - 1), name_(std::move(name)),
      tid_(tid) {
  HB_ASSERT(capacity_pow2 >= 2 && (capacity_pow2 & mask_) == 0,
            "ring capacity must be a power of two");
}

std::vector<TraceEvent> ThreadRing::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(head, slots_.size());
  std::vector<TraceEvent> out;
  out.reserve(n);
  for (std::uint64_t i = head - n; i < head; ++i)
    out.push_back(slots_[i & mask_]);
  return out;
}

const char* intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(intern_mutex());
  return intern_table().emplace(s).first->c_str();
}

TelemetrySession* TelemetrySession::active() {
  return g_session.load(std::memory_order_relaxed);
}

TelemetrySession::TelemetrySession(TelemetryConfig cfg) : cfg_(cfg) {
  HB_REQUIRE(g_session.load() == nullptr,
             "a TelemetrySession is already active");
  HB_REQUIRE(cfg_.events_per_thread >= 2,
             "events_per_thread must be at least 2");
  cfg_.events_per_thread = std::bit_ceil(cfg_.events_per_thread);

  epoch_ = detail::g_epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
  detail::g_session_t0_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);

  g_session.store(this, std::memory_order_release);
  detail::g_enabled.store(true, std::memory_order_release);

  // The constructing thread is almost always the interesting "main" track;
  // register it eagerly so it gets tid 0.
  set_thread_name("main");
}

TelemetrySession::~TelemetrySession() {
  detail::g_enabled.store(false, std::memory_order_release);
  g_session.store(nullptr, std::memory_order_release);
  // Stale TLS ring pointers are invalidated lazily: the next session has a
  // new epoch, so every thread re-registers before writing again. The
  // rings themselves stay alive in the process-lifetime pool, so a scope
  // still open on another thread closes into stale-but-live memory.
}

ThreadRing* TelemetrySession::ring_for_this_thread() {
  if (t_ring_epoch == epoch_ && t_ring != nullptr) return t_ring;
  std::lock_guard<std::mutex> lock(mu_);
  const int tid = static_cast<int>(rings_.size());
  auto ring = std::make_unique<ThreadRing>(
      cfg_.events_per_thread, "thread-" + std::to_string(tid), tid);
  ThreadRing* ptr = ring.get();
  {
    std::lock_guard<std::mutex> pool_lock(ring_pool_mutex());
    ring_pool().push_back(std::move(ring));
  }
  rings_.push_back(ptr);
  t_ring = ptr;
  t_ring_epoch = epoch_;
  return ptr;
}

std::vector<ThreadSnapshot> TelemetrySession::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadSnapshot> out;
  out.reserve(rings_.size());
  for (const auto& ring : rings_) {
    ThreadSnapshot snap;
    snap.tid = ring->tid();
    snap.name = ring->name();
    const std::uint64_t pushed = ring->pushed();
    snap.dropped = pushed > ring->capacity() ? pushed - ring->capacity() : 0;
    snap.events = ring->snapshot();
    out.push_back(std::move(snap));
  }
  return out;
}

std::uint64_t TelemetrySession::events_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->pushed();
  return total;
}

std::uint64_t TelemetrySession::events_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t pushed = ring->pushed();
    if (pushed > ring->capacity()) total += pushed - ring->capacity();
  }
  return total;
}

ProfileReport TelemetrySession::report() const {
  return build_profile(snapshot());
}

namespace {

constexpr int kWallPid = 1;  ///< Wall-clock process: one track per thread.
constexpr int kSimPid = 2;   ///< Sim-time process: one async track per id.

/// Comma-separation helper for streaming a JSON array.
struct Sep {
  bool first = true;
  const char* next() {
    if (first) {
      first = false;
      return "\n  ";
    }
    return ",\n  ";
  }
};

}  // namespace

void TelemetrySession::write_chrome_trace(std::ostream& os) const {
  const std::vector<ThreadSnapshot> snaps = snapshot();

  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  Sep sep;

  auto meta = [&](int pid, int tid, const char* what,
                  const std::string& value, bool process_scope) {
    os << sep.next() << "{\"ph\": \"M\", \"pid\": " << pid;
    if (!process_scope) os << ", \"tid\": " << tid;
    os << ", \"name\": \"" << what << "\", \"args\": {\"name\": ";
    detail::write_json_string(os, value);
    os << "}}";
  };
  meta(kWallPid, 0, "process_name", "hbosim (wall time)", true);
  meta(kSimPid, 0, "process_name", "hbosim (sim time)", true);
  for (const ThreadSnapshot& snap : snaps)
    meta(kWallPid, snap.tid, "thread_name", snap.name, false);

  os << std::fixed;
  os.precision(3);
  for (const ThreadSnapshot& snap : snaps) {
    for (const TraceEvent& ev : snap.events) {
      switch (ev.kind) {
        case EventKind::Scope:
          os << sep.next() << "{\"ph\": \"X\", \"pid\": " << kWallPid
             << ", \"tid\": " << snap.tid << ", \"ts\": "
             << static_cast<double>(ev.ts_ns) * 1e-3 << ", \"dur\": "
             << static_cast<double>(ev.dur_ns) * 1e-3 << ", \"cat\": ";
          detail::write_json_string(os, ev.cat);
          os << ", \"name\": ";
          detail::write_json_string(os, ev.name);
          os << "}";
          break;
        case EventKind::Counter:
          os << sep.next() << "{\"ph\": \"C\", \"pid\": " << kWallPid
             << ", \"tid\": " << snap.tid << ", \"ts\": "
             << static_cast<double>(ev.ts_ns) * 1e-3 << ", \"cat\": ";
          detail::write_json_string(os, ev.cat);
          os << ", \"name\": ";
          detail::write_json_string(os, ev.name);
          os << ", \"args\": {\"value\": " << ev.value << "}}";
          break;
        case EventKind::Instant:
          os << sep.next() << "{\"ph\": \"i\", \"pid\": " << kWallPid
             << ", \"tid\": " << snap.tid << ", \"ts\": "
             << static_cast<double>(ev.ts_ns) * 1e-3
             << ", \"s\": \"t\", \"cat\": ";
          detail::write_json_string(os, ev.cat);
          os << ", \"name\": ";
          detail::write_json_string(os, ev.name);
          os << "}";
          break;
        case EventKind::SimSpan:
          // Async begin/end pair on the sim-time process; (cat, id, name)
          // selects the track, so each session id gets its own lane.
          for (int phase = 0; phase < 2; ++phase) {
            const double ts_us =
                (phase == 0 ? ev.value : ev.value2) * 1e6;
            os << sep.next() << "{\"ph\": \"" << (phase == 0 ? 'b' : 'e')
               << "\", \"pid\": " << kSimPid << ", \"tid\": " << ev.track
               << ", \"id\": " << ev.track << ", \"ts\": " << ts_us
               << ", \"cat\": ";
            detail::write_json_string(os, ev.cat);
            os << ", \"name\": ";
            detail::write_json_string(os, ev.name);
            os << "}";
          }
          break;
      }
    }
  }

  os << "\n]}\n";
}

// --- free-function record primitives --------------------------------------

namespace detail {
ThreadRing* active_ring() {
  if (!g_enabled.load(std::memory_order_relaxed)) return nullptr;
  // Fast path: the TLS ring already belongs to the current epoch — no
  // session dereference, so it cannot race with ~TelemetrySession.
  if (t_ring != nullptr &&
      t_ring_epoch == g_epoch.load(std::memory_order_acquire))
    return t_ring;
  TelemetrySession* s = TelemetrySession::active();
  return s ? s->ring_for_this_thread() : nullptr;
}
}  // namespace detail

namespace {
using detail::active_ring;
}  // namespace

void counter(const char* cat, const char* name, double value) {
  ThreadRing* ring = active_ring();
  if (!ring) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.kind = EventKind::Counter;
  ev.ts_ns = static_cast<std::uint64_t>(detail::now_ns());
  ev.value = value;
  ring->push(ev);
}

void instant(const char* cat, const char* name) {
  ThreadRing* ring = active_ring();
  if (!ring) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.kind = EventKind::Instant;
  ev.ts_ns = static_cast<std::uint64_t>(detail::now_ns());
  ring->push(ev);
}

void sim_span(const char* cat, const char* name, std::uint64_t track,
              SimTime begin_s, SimTime end_s) {
  ThreadRing* ring = active_ring();
  if (!ring) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.kind = EventKind::SimSpan;
  ev.ts_ns = static_cast<std::uint64_t>(detail::now_ns());
  ev.track = track;
  ev.value = begin_s;
  ev.value2 = end_s;
  ring->push(ev);
}

void sim_span(const char* cat, const char* name, SimTime begin_s,
              SimTime end_s) {
  sim_span(cat, name, t_track, begin_s, end_s);
}

void set_current_track(std::uint64_t track) { t_track = track; }

void set_thread_name(const std::string& name, bool append_index) {
  TelemetrySession* s = TelemetrySession::active();
  if (!s) return;
  ThreadRing* ring = s->ring_for_this_thread();
  ring->set_name(append_index ? name + "-" + std::to_string(ring->tid())
                              : name);
}

}  // namespace hbosim::telemetry
