/// perfbench — the repository benchmark.
///
///   perfbench --workload grid_fixed|sampled_dram|served_mix --seed N
///             --seconds S --trace 0|1
///
/// Runs the workload for S seconds against the simulator library and
/// `mflushsim`, checks every delivered result bit-for-bit against a
/// serial run_job reference, and prints human-readable lines followed by
/// one JSON object as the last line of stdout:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
/// (see perfbench/README.md for every name, unit and direction).
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "benchlib.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// Host/build record. Numbers from an unoptimised build, one without
/// NDEBUG, or one whose flags differ from the library's are invalid.
bool print_record(unsigned nproc) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string lib_flags = PERFBENCH_LIB_FLAGS;
  const std::string self_flags = PERFBENCH_SELF_FLAGS;
  const bool optimised = self_flags.find("-O1") != std::string::npos ||
                         self_flags.find("-O2") != std::string::npos ||
                         self_flags.find("-O3") != std::string::npos;
  const bool same_flags = lib_flags.rfind(self_flags, 0) == 0;
  const bool valid = optimised && kNdebug && same_flags;
  std::cout << "record {\"nproc\": " << nproc
            << ", \"cpu\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string(__VERSION__)
            << ", \"build_type\": " << json_string(build_type)
            << ", \"flags\": " << json_string(self_flags)
            << ", \"library_flags\": " << json_string(lib_flags)
            << ", \"ndebug\": " << (kNdebug ? "true" : "false")
            << ", \"commit\": "
            << json_string(env_or("PERFBENCH_COMMIT", "unknown"))
            << ", \"source_digest\": "
            << json_string(env_or("PERFBENCH_SOURCE_DIGEST", "unknown"))
            << ", \"valid\": " << (valid ? "true" : "false") << "}\n";
  if (!valid)
    std::cerr << "perfbench: invalid build (unoptimised, no NDEBUG, or "
                 "flags differ from the library's) — results marked "
                 "incorrect\n";
  return valid;
}

/// Machine-wide CPU jiffies from /proc/stat: {total, steal}.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

/// Removes the per-invocation scratch directory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

int usage() {
  std::cerr << "usage: perfbench --workload grid_fixed|sampled_dram|"
               "served_mix --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--coordinator") {
    try {
      return sampled_coordinator(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "perfbench coordinator: " << e.what() << '\n';
      return 1;
    }
  }

  std::map<std::string, std::string> opt;
  for (int i = 1; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace"})
    if (!opt.count(key)) return usage();

  RunArgs a;
  a.workload = opt["--workload"];
  try {
    a.seed = std::stoull(opt["--seed"]);
    a.seconds = std::stod(opt["--seconds"]);
    a.trace = std::stoi(opt["--trace"]) != 0;
  } catch (const std::exception&) {
    return usage();
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // One CPU is left to the OS and the harness: on a 4-vCPU machine the
  // same seed's grid makespan moved ±8% between runs at width 4 and ±4%
  // at width 3.
  a.width = std::clamp(nproc - 1, 1u, 3u);
  a.self_exe = fs::read_symlink("/proc/self/exe").string();
  a.mflushsim =
      (fs::path(a.self_exe).parent_path() / "mflush" / "mflushsim").string();
  a.run_dir = ".bench_run/" + std::to_string(::getpid());
  a.out_dir = ".bench_out";
  fs::create_directories(a.run_dir);
  const ScratchDir scratch{a.run_dir};

  const bool valid = print_record(nproc);
  const auto [total0, steal0] = cpu_jiffies();
  Outcome o;
  try {
    if (a.workload == "grid_fixed") {
      o = run_grid_fixed(a);
    } else if (a.workload == "sampled_dram") {
      o = run_sampled_dram(a);
    } else if (a.workload == "served_mix") {
      o = run_served_mix(a);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << ": " << e.what() << '\n';
    return 1;
  }

  // Time the hypervisor gave other guests: on a shared host it, not the
  // code, is often what moved a run's timings.
  const auto [total1, steal1] = cpu_jiffies();
  std::cout << "host steal_frac "
            << (total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0)
            << " (share of all CPU time during the run)\n";
  for (const std::string& n : o.notes) std::cout << n << '\n';
  std::cout << "digest " << o.digest << "  (FNV-1a over every SimMetrics)\n"
            << "end-to-end:\n"
            << o.end_to_end.text();
  if (a.trace) std::cout << "per-layer:\n" << o.layers.text();
  const bool correct = valid && o.mismatched == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << o.attempted
            << ", \"failed\": " << o.failed << ", \"metrics\": "
            << (a.trace ? o.layers : o.end_to_end).json() << "}" << std::endl;
  return 0;
}
