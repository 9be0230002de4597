#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/fsio.h"
#include "sim/backend.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

/// Runs mflushsim with `args` and returns its exit code; `err` receives
/// its stderr. A run that would not end on its own (a wrapped --cycles)
/// is cut by the deadline and fails the test with a throw.
int run_cli(const std::vector<std::string>& args, std::string& err) {
  const fs::path log = fs::path(::testing::TempDir()) /
                       ("cli-" + std::to_string(::getpid()) + ".err");
  std::vector<std::string> sh = {
      "-c", "exec \"$0\" \"$@\" > /dev/null 2> '" + log.string() + "'",
      default_worker_binary()};
  sh.insert(sh.end(), args.begin(), args.end());
  const int rc = proc::spawn_and_wait("/bin/sh", sh, "mflushsim", 60);
  const auto bytes = fsio::read_file_bytes(log.string(), "stderr log");
  err.assign(bytes.begin(), bytes.end());
  fs::remove(log);
  return rc;
}

/// A single short point: any flag below that parses runs in well under a
/// second.
std::vector<std::string> short_run(const std::string& flag,
                                   const std::string& value) {
  std::vector<std::string> args = {"--workload", "2W1", "--policy",
                                   "icount",     "--cycles", "2000",
                                   "--warmup",   "500"};
  args.insert(args.end(), {flag, value});
  return args;
}

TEST(CliFlags, MalformedNumbersExitTwoNamingTheFlag) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--cycles", "2e6"},
      {"--cycles", "-1"},
      {"--cycles", ""},
      {"--cycles", "18446744073709551616"},  // 2^64
      {"--warmup", "1O00"},
      {"--warmup", " 500"},
      {"--warmup", "+500"},
      {"--seed", "x7"},
      {"--seed", "7x"},
      {"--jobs", "0"},
      {"--jobs", "2.5"},
      {"--jobs", "4294967297"},  // 2^32 + 1: would wrap to 1
      // 2^32 + 4 as a history depth would wrap to MFLUSH-H4.
      {"--policy", "mflush-h4294967300"},
  };
  for (const auto& [flag, value] : bad) {
    SCOPED_TRACE(flag + " '" + value + "'");
    std::string err;
    EXPECT_EQ(run_cli(short_run(flag, value), err), 2);
    EXPECT_NE(err.find(flag), std::string::npos) << err;
  }
}

TEST(CliFlags, WellFormedNumbersStillRun) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--cycles", "3000"},
           {"--warmup", "0"},
           {"--seed", "18446744073709551615"},  // 2^64 - 1
           {"--jobs", "1"}}) {
    SCOPED_TRACE(flag + " " + value);
    std::string err;
    EXPECT_EQ(run_cli(short_run(flag, value), err), 0) << err;
  }
}

}  // namespace
}  // namespace mflush
