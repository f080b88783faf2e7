// The repository benchmark program. One run measures one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <text>] [--setup-only]
//
// --trace 0 repeats the workload's closed fleet batch (base_seed = seed,
// threads = nproc) for about `seconds` and reports the end-to-end metrics;
// --trace 1 runs the traced pass of traced.cpp and reports per-layer
// metrics. --setup-only measures set-up and exits (perfbench/run.py takes
// the median over several such processes). The last stdout line is the
// JSON result; the exit code is non-zero when a correctness check failed.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iomanip>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "benchstats.hpp"
#include "hbosim/common/meminfo.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

namespace hb = hbosim;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Process start for setup_s: stamped by the earliest-priority static
// constructor, so the simulator libraries' static initialisation counts
// as set-up too.
Clock::time_point g_process_start;
__attribute__((constructor(101))) void mark_process_start() {
  g_process_start = Clock::now();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  bool setup_only = false;
  std::string revision = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--revision") {
      a.revision = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || (!have_seconds && !a.setup_only))
    throw std::invalid_argument("need --workload, --seed and --seconds");
  if (!a.setup_only && !(a.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

void print_host(const Args& a, std::size_t threads) {
  char date[32] = {0};
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::cout << "host: nproc=" << threads << " compiler=\"" << PERFBENCH_COMPILER
            << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " revision=" << a.revision << " date=" << date << "\n";
}

/// Re-run a fixed sample of session ids on the calling thread and compare
/// them with the fleet's results bitwise (wall time excepted): the
/// 1-vs-N-thread invariant, checked from outside the fleet. Prior-mode
/// samples come from the first epoch, whose snapshot needs no feed.
std::size_t check_solo_sample(const Workload& w, hb::fleet::FleetSimulator& fleet,
                              const std::vector<hb::fleet::SessionResult>& results,
                              std::size_t* checked) {
  const hb::fleet::FleetSpec& fs = fleet.spec();
  EpochReplay replay(fs);
  const bool prior = fs.policy.mode == hb::fleet::PolicyMode::Prior;
  const std::size_t range =
      prior ? std::min(replay.epoch_sessions(), fs.sessions) : fs.sessions;
  constexpr std::size_t kSamples = 8;
  std::vector<bool> sampled(fs.sessions, false);
  for (std::size_t k = 0; k < kSamples; ++k)
    sampled[(2 * k + 1) * range / (2 * kSamples)] = true;
  std::size_t mismatches = 0;
  *checked = 0;
  for (std::size_t start = 0; start < range; start += replay.epoch_sessions()) {
    replay.begin_epoch(start);
    const std::size_t end = std::min(start + replay.epoch_sessions(), fs.sessions);
    for (std::size_t id = start; id < end; ++id) {
      if (sampled[id]) {
        ++*checked;
        if (!same_result(replay.run(fleet, id).result, results.at(id))) {
          ++mismatches;
          std::cout << "FAIL: " << w.name << " session " << id
                    << " differs when re-run on the calling thread\n";
        }
      }
      hb::fleet::PolicySessionOutput fed;
      fed.result = results.at(id);
      replay.observe(fed);
    }
  }
  return mismatches;
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

RunOutcome run_untraced(const Workload& w, hb::fleet::FleetSimulator& exact,
                        hb::fleet::FleetSimulator* streaming, double seconds) {
  RunOutcome out;
  const std::size_t n = exact.spec().sessions;
  const std::size_t threads = exact.spec().threads;
  const double duration = exact.spec().duration_s;
  // Batch 0 is the warm-up (lazy caches, first thread pool) and the
  // reference the later batches and the solo re-runs are checked
  // against; only batches 1.. are timed. Streaming workloads alternate
  // streaming (odd) and exact (even) batches after it.
  const std::size_t min_batches = w.streaming ? 5 : 4;
  std::vector<double> throughput, p50s, p99s;
  std::vector<hb::fleet::SessionResult> first;
  hb::fleet::FleetMetrics first_metrics;
  std::uint64_t digest = 0;
  std::cout << std::setprecision(6);
  const Clock::time_point t_start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const bool is_exact = !w.streaming || k % 2 == 0;
    hb::fleet::FleetSimulator& fleet = is_exact ? exact : *streaming;
    out.attempted += n;
    const Clock::time_point t0 = Clock::now();
    hb::fleet::FleetResult res;
    try {
      res = fleet.run();
    } catch (const std::exception& e) {
      std::cout << "FAIL: batch " << k << " threw: " << e.what() << "\n";
      out.failed += n;
      break;
    }
    const double wall = secs(t0, Clock::now());
    const hb::fleet::FleetMetrics& m = res.metrics;
    std::size_t bad = 0;
    if (is_exact) {
      std::vector<double> ms;
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (std::size_t i = 0; i < res.sessions.size(); ++i) {
        const hb::fleet::SessionResult& r = res.sessions[i];
        const bool ok = r.session_id == i && session_ok(r, duration) &&
                        (first.empty() || same_result(r, first[i]));
        if (!ok) ++bad;
        h = result_digest(r, h);
        ms.push_back(r.wall_seconds * 1e3);
      }
      bad += n - std::min(n, res.sessions.size());
      if (k > 0 && !ms.empty()) {
        p50s.push_back(hb::percentile(ms, 50.0));
        p99s.push_back(hb::percentile(ms, 99.0));
      }
      if (first.empty()) {
        first = res.sessions;
        first_metrics = m;
        digest = h;
        std::size_t checked = 0;
        const std::size_t mism = check_solo_sample(w, exact, first, &checked);
        out.attempted += checked;
        out.failed += mism;
        std::cout << "1-vs-" << threads << "-thread check: " << checked
                  << " sessions re-run on the calling thread, " << mism
                  << " differ\n";
      }
    } else {
      // The streaming roll-up must agree with the exact one on every
      // exact counter and on min/mean/max of the per-session reward.
      const bool agree =
          m.sessions == first_metrics.sessions &&
          m.total_activations == first_metrics.total_activations &&
          near(m.total_sim_seconds, first_metrics.total_sim_seconds) &&
          m.reward.min == first_metrics.reward.min &&
          m.reward.max == first_metrics.reward.max &&
          near(m.reward.mean, first_metrics.reward.mean) &&
          m.policy.prior_activations == first_metrics.policy.prior_activations &&
          m.offload.remote_inferences == first_metrics.offload.remote_inferences &&
          std::isfinite(m.reward.p50) && std::isfinite(m.reward.p99);
      if (!agree) {
        bad = n;
        std::cout << "FAIL: streaming batch " << k
                  << " disagrees with the exact roll-up\n";
      }
    }
    out.failed += bad;
    const double tput = m.total_sim_seconds / (wall * static_cast<double>(threads));
    if (k > 0 && (!w.streaming || !is_exact)) throughput.push_back(tput);
    std::cout << "batch " << k
              << (k == 0 ? " warm-up  " : is_exact ? " exact    " : " streaming")
              << ": " << n << " sessions, wall " << wall << " s, "
              << tput << " sim-s/core-s, failed " << bad << "\n";
    const double elapsed = secs(t_start, Clock::now());
    if (k + 1 >= min_batches && elapsed + wall > seconds) break;
  }
  out.correct = out.failed == 0;

  std::printf("result digest (%s, seed %llu): %016llx\n", w.name.c_str(),
              static_cast<unsigned long long>(exact.spec().base_seed),
              static_cast<unsigned long long>(digest));
  std::cout << "session host-time samples per exact batch: " << n;
  if (const auto tail = tail_percentile(n))
    std::cout << " (highest percentile with >= 10 samples beyond: p" << *tail
              << ")";
  std::cout << "\nfailed_frac: "
            << static_cast<double>(out.failed) /
                   static_cast<double>(std::max<std::uint64_t>(out.attempted, 1))
            << " (" << out.failed << " of " << out.attempted << ")\n";
  auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  out.metrics.push_back({"sim_s_per_core_s", med(throughput), "s/s"});
  out.metrics.push_back({"session_ms_p50", med(p50s), "ms"});
  out.metrics.push_back({"session_ms_p99", med(p99s), "ms"});
  out.metrics.push_back(
      {"peak_rss_mb",
       static_cast<double>(hb::peak_rss_bytes()) / (1024.0 * 1024.0), "MB"});
  // B = Q - w*eps sits near zero on some workloads, where a spread taken
  // relative to the median says nothing; B + w = Q + w*(1 - eps) moves
  // one for one with B and stays well away from zero.
  const double w_latency = exact.spec().session.hbo.w;
  std::cout << "mean_reward: " << first_metrics.reward.mean << " (reported "
            << "as mean_reward_plus_w with w = " << w_latency << ")\n";
  out.metrics.push_back({"mean_reward_plus_w",
                         first_metrics.reward.mean + w_latency, "reward"});
  return out;
}

void print_result(const RunOutcome& r) {
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    std::cout << (i ? ", " : "") << "\"" << r.metrics[i].name
              << "\": {\"value\": " << value << ", \"unit\": \""
              << r.metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    // Set-up: spec validation, builtin device and mesh-asset caches, and
    // FleetSimulator construction; ends where the first session can start.
    const std::size_t threads = nproc();
    const Workload w = make_workload(args.workload, args.seed, threads);
    hb::fleet::FleetSimulator exact(w.spec);
    warm_caches(exact.spec());
    std::optional<hb::fleet::FleetSimulator> streaming;
    if (w.streaming) {
      hb::fleet::FleetSpec s = w.spec;
      s.retain_results = false;
      streaming.emplace(s);
    }
    const double setup_s = secs(g_process_start, Clock::now());
    if (args.setup_only) {
      std::printf("{\"setup_s\": %.17g}\n", setup_s);
      return 0;
    }

    print_host(args, threads);
    std::cout << "workload " << w.name << ": " << w.spec.sessions
              << " sessions x " << w.spec.duration_s << " simulated s per batch, "
              << threads << " threads, seed " << args.seed << "\n";
    RunOutcome r;
    if (args.trace == 1) {
      r = run_traced(w, exact, args.seconds);
    } else {
      r = run_untraced(w, exact, streaming ? &*streaming : nullptr,
                       args.seconds);
      r.metrics.push_back({"setup_s", setup_s, "s"});
    }
    print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
