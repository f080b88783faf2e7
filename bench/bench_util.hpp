#pragma once

#include <cstdlib>
#include <ctime>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

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

/// Print `<bench>: <message>` to stderr and return 2, the exit status of a
/// rejected command line.
inline int usage_error(std::string_view bench, std::string_view message) {
  std::cerr << bench << ": " << message << "\n";
  return 2;
}

/// A bench's command line.
struct Args {
  bool smoke = false;
  std::string json_path;  ///< --json, else the bench's default.
  std::string gate_path;  ///< --gate, else empty.
  std::vector<std::string_view> positional;
};

/// The benches' one command-line parser: `--smoke`, `--json <path>` and,
/// where `gate` is set, `--gate <committed.json>`, which only a smoke run
/// accepts (a full run regenerates the committed JSON, so gating it
/// against that file would be circular). Up to `max_positional` other
/// arguments are kept for the bench to parse. Anything else (an unknown
/// option, a flag without its path, a surplus argument) is reported
/// through usage_error and gives nullopt, and the bench exits 2 before it
/// runs anything.
inline std::optional<Args> parse_args(int argc, char** argv,
                                      std::string_view bench,
                                      std::string json_path, bool gate = false,
                                      std::size_t max_positional = 0) {
  Args args;
  args.json_path = std::move(json_path);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--json" || (gate && arg == "--gate")) {
      if (i + 1 == argc) {
        usage_error(bench, std::string(arg) + " needs a path");
        return std::nullopt;
      }
      (arg == "--json" ? args.json_path : args.gate_path) = argv[++i];
    } else if (arg.starts_with("--") ||
               args.positional.size() == max_positional) {
      std::string message =
          arg.starts_with("--") ? "unknown option " : "unexpected argument ";
      message += arg;
      usage_error(bench, message);
      return std::nullopt;
    } else {
      args.positional.push_back(arg);
    }
  }
  if (!args.gate_path.empty() && !args.smoke) {
    usage_error(bench, "--gate needs --smoke");
    return std::nullopt;
  }
  return args;
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
