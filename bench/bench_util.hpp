#pragma once

#include <cstdlib>
#include <ctime>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

/// Shared pretty-printing for the reproduction harnesses. Each bench
/// prints the paper artefact it regenerates, the measured series/rows,
/// and a PAPER vs MEASURED recap so EXPERIMENTS.md can be cross-checked
/// directly against bench output.

namespace benchutil {

inline void banner(const std::string& artefact, const std::string& what) {
  std::cout << "\n================================================================\n"
            << artefact << " — " << what << "\n"
            << "================================================================\n";
}

inline void section(const std::string& name) {
  std::cout << "\n--- " << name << " ---\n";
}

inline void recap_line(const std::string& metric, const std::string& paper,
                       const std::string& measured) {
  std::cout << "  " << metric << ": paper=" << paper
            << "  measured=" << measured << "\n";
}

/// The host a bench ran on, as a JSON object for its summary: core count,
/// compiler, build type, source revision and UTC date — what a reader
/// needs before comparing its numbers with another run's.
inline std::string host_json() {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << HBOSIM_BENCH_COMPILER
     << "\", \"build_type\": \"" << HBOSIM_BENCH_BUILD_TYPE
     << "\", \"git_revision\": \"" << HBOSIM_BENCH_REVISION
     << "\", \"date\": \"" << date << "\"}";
  return os.str();
}

/// Minimal scan for `"key": <number>` inside a JSON text; good enough for
/// the flat smoke_gate blocks the benches themselves write.
inline bool json_number(const std::string& text, const std::string& key,
                        double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  *out = std::atof(text.c_str() + at + needle.size());
  return true;
}

}  // namespace benchutil
