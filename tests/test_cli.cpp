#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fsio.h"
#include "sim/backend.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

/// Runs mflushsim with `args` and returns its exit code; `err` receives
/// its stderr and a non-null `out` its stdout. A run that would not end on
/// its own (a wrapped --cycles) is cut by the deadline and fails the test
/// with a throw.
int run_cli(const std::vector<std::string>& args, std::string& err,
            std::string* out = nullptr) {
  const fs::path log = fs::path(::testing::TempDir()) /
                       ("cli-" + std::to_string(::getpid()) + ".err");
  const fs::path stdout_log = fs::path(log).replace_extension(".out");
  std::vector<std::string> sh = {
      "-c",
      "exec \"$0\" \"$@\" > '" +
          (out != nullptr ? stdout_log.string() : "/dev/null") + "' 2> '" +
          log.string() + "'",
      default_worker_binary()};
  sh.insert(sh.end(), args.begin(), args.end());
  const int rc = proc::spawn_and_wait("/bin/sh", sh, "mflushsim", 60);
  const auto read = [](const fs::path& path, std::string& text) {
    const auto bytes = fsio::read_file_bytes(path.string(), "mflushsim log");
    text.assign(bytes.begin(), bytes.end());
    fs::remove(path);
  };
  read(log, err);
  if (out != nullptr) read(stdout_log, *out);
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

// ------------------------------------------------------ distributed smoke
//
// A distributed sweep end to end, as a user runs it: describe the sweep
// as a spec file, run it on every backend, and require every CSV field
// but the wall clock to equal the serial run's.

class DistributedSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    if (default_worker_binary().empty())
      GTEST_SKIP() << "mflushsim binary not found next to the test binary";
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           ("smoke-" + std::string(info->name()) + "-" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    spec_ = (dir_ / "smoke.spec").string();
    std::string err;
    ASSERT_EQ(run_cli({"--workload", "4W1,2W3", "--policy",
                       "icount,flush-s30,mflush", "--cycles", "8000",
                       "--warmup", "2000", "--emit-spec", spec_},
                      err),
              0)
        << err;
    serial_ = csv({"--backend", "serial"});
    ASSERT_EQ(serial_.size(), 7u) << "header and 2 x 3 points";
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The spec's CSV on `backend_args`, one row a line, without the wall_s
  /// column; `err` receives stderr.
  std::vector<std::string> csv(std::vector<std::string> backend_args,
                               std::string* err = nullptr) {
    backend_args.insert(backend_args.begin(), {"--spec", spec_, "--csv"});
    std::string out;
    std::string log;
    EXPECT_EQ(run_cli(backend_args, log, &out), 0) << log;
    if (err != nullptr) *err = log;
    std::vector<std::string> rows;
    std::istringstream lines(out);
    std::size_t wall = std::string::npos;
    for (std::string line; std::getline(lines, line);) {
      std::vector<std::string> fields;
      std::istringstream cells(line);
      for (std::string f; std::getline(cells, f, ',');) fields.push_back(f);
      if (rows.empty()) {
        const auto at = std::find(fields.begin(), fields.end(), "wall_s");
        EXPECT_NE(at, fields.end()) << line;
        wall = static_cast<std::size_t>(at - fields.begin());
      }
      if (wall < fields.size())
        fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(wall));
      std::string row;
      for (const std::string& f : fields) row += f + ",";
      rows.push_back(row);
    }
    return rows;
  }

  fs::path dir_;
  std::string spec_;
  std::vector<std::string> serial_;
};

TEST_F(DistributedSmoke, EveryBackendMatchesSerial) {
  EXPECT_EQ(csv({"--backend", "inprocess"}), serial_);
  EXPECT_EQ(csv({"--backend", "worker"}), serial_);
}

TEST_F(DistributedSmoke, RemoteSurvivesAHostFailure) {
  // The second host fails its first two batches and is retired; its work
  // re-queues onto the first with no effect on the results.
  const std::string hosts = (dir_ / "hosts.txt").string();
  std::ofstream(hosts) << "local slots=2\nlocal slots=2 fail=2\n";
  std::string err;
  EXPECT_EQ(csv({"--backend", "remote", "--hosts", hosts}, &err), serial_);
  EXPECT_NE(err.find("local#1 retired after 2 failures"), std::string::npos)
      << err;
}

}  // namespace
}  // namespace mflush
