#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/archive.h"
#include "common/envelope.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/daemon.h"
#include "sim/warmstore.h"
#include "sim/wire.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------- wire codec

daemon::Message full_message() {
  daemon::Message m;
  m.type = daemon::MsgType::kResult;
  m.campaign = "00deadbeef00cafe";
  m.text = "finished";
  m.job_id = 42;
  m.total = 1000;
  m.done = 999;
  m.executed = 500;
  m.cached = 499;
  m.follow = 1;
  m.blob = {0x01, 0x02, 0x03, 0xff, 0x00, 0x7f};
  return m;
}

void expect_equal(const daemon::Message& a, const daemon::Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.campaign, b.campaign);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.job_id, b.job_id);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.cached, b.cached);
  EXPECT_EQ(a.follow, b.follow);
  EXPECT_EQ(a.blob, b.blob);
}

TEST(Wire, RoundTripsEveryFieldAndType) {
  for (std::uint8_t t = 1; t <= 11; ++t) {
    daemon::Message m = full_message();
    m.type = static_cast<daemon::MsgType>(t);
    const std::vector<std::uint8_t> frame = daemon::encode_frame(m);
    const daemon::Extract ex = daemon::try_extract(frame);
    ASSERT_EQ(ex.status, daemon::ExtractStatus::kFrame)
        << "type " << int(t) << ": " << ex.error;
    EXPECT_EQ(ex.consumed, frame.size());
    expect_equal(ex.msg, m);
  }
}

TEST(Wire, RoundTripsEmptyMessage) {
  const daemon::Message m;  // all defaults
  const auto frame = daemon::encode_frame(m);
  const daemon::Extract ex = daemon::try_extract(frame);
  ASSERT_EQ(ex.status, daemon::ExtractStatus::kFrame) << ex.error;
  expect_equal(ex.msg, m);
}

TEST(Wire, DecodesBackToBackFramesIncrementally) {
  daemon::Message a = full_message();
  daemon::Message b = full_message();
  b.type = daemon::MsgType::kDone;
  b.job_id = 7;
  std::vector<std::uint8_t> stream = daemon::encode_frame(a);
  const auto fb = daemon::encode_frame(b);
  stream.insert(stream.end(), fb.begin(), fb.end());

  const daemon::Extract first = daemon::try_extract(stream);
  ASSERT_EQ(first.status, daemon::ExtractStatus::kFrame) << first.error;
  expect_equal(first.msg, a);
  const daemon::Extract second = daemon::try_extract(
      std::span(stream).subspan(first.consumed));
  ASSERT_EQ(second.status, daemon::ExtractStatus::kFrame) << second.error;
  expect_equal(second.msg, b);
  EXPECT_EQ(first.consumed + second.consumed, stream.size());
}

// Every truncation (need more, never a frame) and every single-bit flip
// (never a frame; damage past the length prefix is fatal) are fuzzed with
// the other formats by the shared harness in test_envelope.cpp.

TEST(Wire, OversizedAndZeroLengthPrefixesAreFatal) {
  // 256 MiB announced: must fail fast, not wait for bytes that will never
  // arrive.
  ArchiveWriter big;
  big.put(std::uint32_t{256u << 20});
  EXPECT_EQ(daemon::try_extract(big.bytes()).status,
            daemon::ExtractStatus::kBad);

  ArchiveWriter zero;
  zero.put(std::uint32_t{0});
  EXPECT_EQ(daemon::try_extract(zero.bytes()).status,
            daemon::ExtractStatus::kBad);
}

TEST(Wire, WrongProtocolVersionIsRejectedByName) {
  // A valid checksum over a payload from "the future": the version gate,
  // not the checksum, must reject it — and say so.
  ArchiveWriter payload;
  payload.put(daemon::kFrameMagic);
  payload.put(daemon::kProtocolVersion + 1);
  daemon::Message m;
  payload.io(m);
  const daemon::Extract ex =
      daemon::try_extract(envelope::frame(payload.bytes()));
  ASSERT_EQ(ex.status, daemon::ExtractStatus::kBad);
  EXPECT_NE(ex.error.find("version"), std::string::npos) << ex.error;
}

TEST(Wire, WrongMagicAndTrailingBytesAreRejected) {
  {
    ArchiveWriter payload;
    payload.put(~daemon::kFrameMagic);
    payload.put(daemon::kProtocolVersion);
    payload.io(daemon::Message{});
    const auto ex = daemon::try_extract(envelope::frame(payload.bytes()));
    EXPECT_EQ(ex.status, daemon::ExtractStatus::kBad);
  }
  {
    ArchiveWriter payload;
    payload.put(daemon::kFrameMagic);
    payload.put(daemon::kProtocolVersion);
    payload.io(daemon::Message{});
    payload.put(std::uint8_t{0});  // one stray byte after the message
    const auto ex = daemon::try_extract(envelope::frame(payload.bytes()));
    EXPECT_EQ(ex.status, daemon::ExtractStatus::kBad);
  }
}

TEST(Wire, FrameIoOverASocketPair) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const daemon::Message sent = full_message();
  daemon::send_frame(fds[0], sent);
  std::vector<std::uint8_t> buffer;
  const auto got = daemon::read_frame(fds[1], buffer);
  ASSERT_TRUE(got.has_value());
  expect_equal(*got, sent);

  // Clean EOF at a frame boundary is nullopt, not an error...
  ::close(fds[0]);
  EXPECT_FALSE(daemon::read_frame(fds[1], buffer).has_value());
  ::close(fds[1]);

  // ...but EOF mid-frame means the peer died talking: that throws.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const auto frame = daemon::encode_frame(sent);
  ASSERT_EQ(::write(fds[0], frame.data(), frame.size() / 2),
            static_cast<ssize_t>(frame.size() / 2));
  ::close(fds[0]);
  std::vector<std::uint8_t> partial;
  EXPECT_THROW((void)daemon::read_frame(fds[1], partial),
               std::runtime_error);
  ::close(fds[1]);
}

// ------------------------------------------------------------------ daemon

ExperimentSpec spec_of(const std::vector<std::string>& workload_names,
                       const std::vector<PolicySpec>& policies) {
  ExperimentSpec spec;
  spec.name = "daemon-test";
  for (const std::string& w : workload_names)
    spec.workloads.push_back(*workloads::by_name(w));
  spec.policies = policies;
  spec.warmup = 200;
  spec.measure = 400;
  return spec;
}

void expect_identical_results(const std::vector<RunResult>& a,
                              const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].policy, b[i].policy);
    // Full SimMetrics equality — the daemon inherits the backend
    // bit-identity contract end to end, through the wire.
    EXPECT_TRUE(a[i].metrics == b[i].metrics);
  }
}

std::vector<RunResult> serial_run(const ExperimentSpec& spec) {
  SerialBackend backend;
  ResultSink sink;
  return run_experiment(spec, backend, sink);
}

/// One in-process daemon over a unix socket in a per-test temp dir.
class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mflushd-") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    address_ = "unix:" + (dir_ / "d.sock").string();
  }
  void TearDown() override {
    if (server_.joinable()) shutdown_daemon();
    fs::remove_all(dir_);
  }

  void start_daemon() {
    std::promise<void> ready;
    auto ready_fired = ready.get_future();
    daemon::ServeOptions o;
    o.address = address_;
    o.data_dir = (dir_ / "data").string();
    o.slots = 2;
    o.on_event = [this](const std::string& e) {
      const std::lock_guard lk(events_m_);
      events_.push_back(e);
    };
    o.on_ready = [&ready] { ready.set_value(); };
    server_ = std::thread([o = std::move(o)]() mutable {
      (void)daemon::serve(std::move(o));
    });
    ready_fired.get();
  }

  void shutdown_daemon() {
    daemon::Message req;
    req.type = daemon::MsgType::kShutdown;
    const daemon::Message reply = daemon::request(address_, req);
    EXPECT_EQ(reply.type, daemon::MsgType::kOk);
    server_.join();
  }

  /// Daemon and scheduler narration, in arrival order.
  std::vector<std::string> events() {
    const std::lock_guard lk(events_m_);
    return events_;
  }

  fs::path dir_;
  std::string address_;
  std::thread server_;
  std::mutex events_m_;
  std::vector<std::string> events_;
};

TEST_F(DaemonTest, TwoConcurrentOverlappingSubmissionsMatchSerial) {
  // flush-s1 appears in both specs: the shared cache dedups it across
  // tenants (asserted below once both settle).
  const ExperimentSpec spec_a =
      spec_of({"2W1"}, {PolicySpec::icount(), PolicySpec::flush_spec(1)});
  const ExperimentSpec spec_b =
      spec_of({"2W1"}, {PolicySpec::flush_spec(1), PolicySpec::mflush()});
  start_daemon();

  daemon::SubmitOutcome out_a;
  daemon::SubmitOutcome out_b;
  std::thread ta([&] { out_a = daemon::submit(address_, spec_a, true); });
  std::thread tb([&] { out_b = daemon::submit(address_, spec_b, true); });
  ta.join();
  tb.join();

  EXPECT_EQ(out_a.state, "finished");
  EXPECT_EQ(out_b.state, "finished");
  EXPECT_EQ(out_a.campaign, daemon::campaign_id(spec_a));
  EXPECT_EQ(out_b.campaign, daemon::campaign_id(spec_b));
  expect_identical_results(out_a.results, serial_run(spec_a));
  expect_identical_results(out_b.results, serial_run(spec_b));

  // A third spec made only of jobs the first two already ran must be
  // served entirely from the shared result cache — zero execution.
  const ExperimentSpec overlap =
      spec_of({"2W1"}, {PolicySpec::icount(), PolicySpec::mflush()});
  const daemon::SubmitOutcome out_c = daemon::submit(address_, overlap, true);
  EXPECT_EQ(out_c.state, "finished");
  EXPECT_EQ(out_c.executed, 0u);
  EXPECT_EQ(out_c.cached, out_c.total);
  expect_identical_results(out_c.results, serial_run(overlap));
}

TEST_F(DaemonTest, ServesASampledSpecAsWholeForkGroups) {
  // 2 points x 4 forks whose windows overlap (fork_stride < measure),
  // through the in-thread slots.
  ExperimentSpec spec =
      spec_of({"2W1"}, {PolicySpec::icount(), PolicySpec::mflush()});
  spec.warmup = 237;  // parents no other test in this process warms
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 4;
  spec.sampled.fork_stride = 100;
  start_daemon();
  const std::uint64_t warms_before = warmstore::warm_count();
  const daemon::SubmitOutcome out = daemon::submit(address_, spec, true);
  EXPECT_EQ(out.state, "finished");
  // Each parent warms once.
  EXPECT_EQ(warmstore::warm_count() - warms_before, 2u);
  std::map<std::string, int> warmed;
  for (const std::string& e : events()) {
    if (const auto at = e.find("warmed parent "); at != std::string::npos)
      ++warmed[e.substr(at)];
  }
  EXPECT_EQ(warmed.size(), 2u);
  for (const auto& [event, times] : warmed) EXPECT_EQ(times, 1) << event;
  expect_identical_results(out.results, serial_run(spec));
  // Each parent's forks ran as one pass, straight to the last window's
  // end: their simulated_cycles sum to it.
  std::map<std::uint64_t, Cycle> ran;
  for (const JobSpec& j : spec.expand())
    ran[j.parent_key] += out.results.at(j.id).simulated_cycles;
  ASSERT_EQ(ran.size(), 2u);
  for (const auto& [key, cycles] : ran)
    EXPECT_EQ(cycles, 3 * spec.sampled.fork_stride + spec.measure);
}

TEST_F(DaemonTest, ResubmitAttachesInsteadOfRerunning) {
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  start_daemon();
  const daemon::SubmitOutcome first = daemon::submit(address_, spec, true);
  EXPECT_EQ(first.state, "finished");
  EXPECT_EQ(first.executed, first.total);

  // Same spec again: same campaign id, replayed from the in-memory log —
  // results identical, counters are the campaign's own history (it DID
  // execute its jobs, once), and no new simulation happens (asserted by
  // the reply arriving with the same lifetime counters, not higher ones).
  const daemon::SubmitOutcome again = daemon::submit(address_, spec, true);
  EXPECT_EQ(again.campaign, first.campaign);
  EXPECT_EQ(again.state, "finished");
  EXPECT_EQ(again.executed, first.executed);
  expect_identical_results(again.results, first.results);

  // Submit without follow detaches immediately.
  const daemon::SubmitOutcome detached =
      daemon::submit(address_, spec, false);
  EXPECT_EQ(detached.campaign, first.campaign);
  EXPECT_EQ(detached.state, "accepted");
  EXPECT_TRUE(detached.results.empty());
}

TEST_F(DaemonTest, RestartResumesFromJournalsWithZeroLostWork) {
  const ExperimentSpec spec =
      spec_of({"2W1", "2W3"}, {PolicySpec::icount(), PolicySpec::mflush()});
  start_daemon();
  const daemon::SubmitOutcome before = daemon::submit(address_, spec, true);
  EXPECT_EQ(before.state, "finished");
  EXPECT_EQ(before.executed, before.total);
  shutdown_daemon();

  // Same data dir, new daemon: the campaign resumes from its journal and
  // every completed job streams from the cache — nothing re-executes.
  start_daemon();
  const daemon::SubmitOutcome after = daemon::submit(address_, spec, true);
  EXPECT_EQ(after.campaign, before.campaign);
  EXPECT_EQ(after.state, "finished");
  EXPECT_EQ(after.executed, 0u);
  EXPECT_EQ(after.cached, after.total);
  expect_identical_results(after.results, before.results);
}

TEST_F(DaemonTest, StatusListAndErrorsOneShots) {
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  start_daemon();
  const daemon::SubmitOutcome out = daemon::submit(address_, spec, true);
  ASSERT_EQ(out.state, "finished");

  daemon::Message status;
  status.type = daemon::MsgType::kStatus;
  status.campaign = out.campaign;
  const daemon::Message reply = daemon::request(address_, status);
  ASSERT_EQ(reply.type, daemon::MsgType::kStatusReply);
  EXPECT_EQ(reply.campaign, out.campaign);
  EXPECT_EQ(reply.text, "finished");
  EXPECT_EQ(reply.done, out.total);
  EXPECT_EQ(reply.total, out.total);

  daemon::Message unknown;
  unknown.type = daemon::MsgType::kStatus;
  unknown.campaign = "doesnotexist";
  EXPECT_EQ(daemon::request(address_, unknown).type,
            daemon::MsgType::kError);

  // Cancelling a settled campaign is an error, not a no-op: the caller
  // asked to stop work that no longer exists.
  daemon::Message cancel;
  cancel.type = daemon::MsgType::kCancel;
  cancel.campaign = out.campaign;
  EXPECT_EQ(daemon::request(address_, cancel).type, daemon::MsgType::kError);

  daemon::Message list;
  list.type = daemon::MsgType::kList;
  const daemon::Message listed = daemon::request(address_, list);
  ASSERT_EQ(listed.type, daemon::MsgType::kOk);
  EXPECT_NE(listed.text.find(out.campaign), std::string::npos);
  EXPECT_NE(listed.text.find("finished"), std::string::npos);
}

TEST_F(DaemonTest, CancelBeforeTheCampaignQueuesIsHonoured) {
  // The runner reads job 0's cache entry before it queues anything; making
  // that entry a FIFO parks it there, so the CANCEL below lands while the
  // campaign has no queue in the scheduler — the window in which a cancel
  // used to be dropped and the campaign ran to completion.
  using namespace std::chrono_literals;
  const ExperimentSpec spec =
      spec_of({"2W1"}, {PolicySpec::icount(), PolicySpec::mflush()});
  const fs::path cache = dir_ / "data" / "cache";
  fs::create_directories(cache);
  const std::string fifo =
      (cache / (campaign::key_hex(campaign::job_key(spec.expand()[0])) +
                ".mfcr"))
          .string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  start_daemon();

  const daemon::SubmitOutcome accepted =
      daemon::submit(address_, spec, /*follow=*/false);
  daemon::Message cancel;
  cancel.type = daemon::MsgType::kCancel;
  cancel.campaign = accepted.campaign;
  EXPECT_EQ(daemon::request(address_, cancel).type, daemon::MsgType::kOk);

  // Release the runner: once the write end opens and closes, its read
  // sees EOF — an unreadable entry, i.e. a cache miss — and it moves on
  // to queue the jobs.
  int fd = -1;
  for (int i = 0; i < 1000 && fd < 0; ++i) {
    fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (fd < 0) std::this_thread::sleep_for(10ms);
  }
  ASSERT_GE(fd, 0) << "the campaign never read its cache entry";
  ::close(fd);

  daemon::Message status;
  status.type = daemon::MsgType::kStatus;
  status.campaign = accepted.campaign;
  daemon::Message reply = daemon::request(address_, status);
  for (int i = 0; i < 1000 && reply.text == "running"; ++i) {
    std::this_thread::sleep_for(10ms);
    reply = daemon::request(address_, status);
  }
  EXPECT_EQ(reply.text, "cancelled");
  EXPECT_EQ(reply.executed, 0u);
}

TEST_F(DaemonTest, RejectsAnInvalidSpecWithoutDying) {
  start_daemon();
  ExperimentSpec empty;  // no workloads/policies: validate() throws
  EXPECT_THROW((void)daemon::submit(address_, empty, true),
               std::runtime_error);
  // The daemon survives the bad submission and still serves.
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  EXPECT_EQ(daemon::submit(address_, spec, true).state, "finished");
}

TEST_F(DaemonTest, RejectsAnOutOfRangePolicyKindAndKeepsServing) {
  // A checksum-valid spec whose policy kind byte no writer produces. Without
  // --hosts the daemon runs jobs in-thread, so a spec that decoded into an
  // unknown policy would take the whole daemon down in make_policy.
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  std::vector<std::uint8_t> body = spec.to_bytes();
  body.resize(body.size() - 8);  // drop the seal
  ArchiveWriter before_policies;
  before_policies.io(spec.name, spec.workloads);
  body[12 + before_policies.bytes().size() + 8] = 0x7f;  // PolicySpec::kind
  ArchiveWriter resealed;
  resealed.put_bytes(body.data(), body.size());
  envelope::seal(resealed);

  start_daemon();
  daemon::Message sub;
  sub.type = daemon::MsgType::kSubmit;
  sub.follow = 1;
  sub.blob = resealed.take();
  const daemon::Message reply = daemon::request(address_, sub);
  EXPECT_EQ(reply.type, daemon::MsgType::kError);
  EXPECT_NE(reply.text.find("PolicySpec::kind"), std::string::npos)
      << reply.text;

  const daemon::SubmitOutcome ok = daemon::submit(address_, spec, true);
  ASSERT_EQ(ok.state, "finished");
  daemon::Message status;
  status.type = daemon::MsgType::kStatus;
  status.campaign = ok.campaign;
  EXPECT_EQ(daemon::request(address_, status).type,
            daemon::MsgType::kStatusReply);
}

TEST(DaemonId, CampaignIdIsTheSpecContentHash) {
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  EXPECT_EQ(daemon::campaign_id(spec),
            campaign::key_hex(fnv1a(spec.to_bytes())));
  ExperimentSpec renamed = spec;
  renamed.name = "other-name";
  // The name is part of the spec bytes, so it is part of the identity.
  EXPECT_NE(daemon::campaign_id(spec), daemon::campaign_id(renamed));
}

}  // namespace
}  // namespace mflush
