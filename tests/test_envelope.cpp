#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "common/archive.h"
#include "common/envelope.h"
#include "common/fsio.h"
#include "sim/backend.h"
#include "sim/cmp.h"
#include "sim/remote.h"
#include "sim/snapshot.h"
#include "sim/warmstore.h"
#include "sim/wire.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- fixtures
//
// Fixed, simulation-free instances of every checksummed format except the
// snapshot (simulation state; SnapshotBytes.* pins its bytes across
// processes, GoldenResults.MidRunSnapshotBytesMatchRecordedDigest across
// builds) and the warm-store entry, which is a snapshot. The golden
// digests below pin each format's bytes: any layout drift fails here, so a
// framing refactor must be byte for byte or bump a version.

/// A fresh directory under this process's scratch root. ctest runs every
/// case in its own process, concurrently, so the root is per-pid; it is
/// removed at exit.
fs::path scratch_dir(const std::string& name) {
  static const struct Root {
    fs::path path = fs::path(::testing::TempDir()) /
                    ("envelope-" + std::to_string(::getpid()));
    ~Root() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } root;
  const fs::path dir = root.path / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> fake_snapshot() {
  std::vector<std::uint8_t> bytes(256);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  return bytes;
}

ExperimentSpec fixture_spec() {
  ExperimentSpec s;
  s.name = "envelope-fixture";
  s.workloads = {*workloads::by_name("2W1"), *workloads::by_name("4W2")};
  s.policies = {PolicySpec::icount(), PolicySpec::flush_spec(30),
                PolicySpec::mflush()};
  s.seeds = {1, 7};
  s.warmup = 1'000;
  s.measure = 4'000;
  s.mode = RunMode::Sampled;
  s.sampled.forks = 3;
  s.sampled.fork_stride = 500;
  s.sampled.target_half_width = 0.05;
  s.sampled.max_rounds = 2;
  s.mem_model = MemModelKind::BankedDram;
  return s;
}

JobSpec fixture_job() {
  JobSpec j;
  j.id = 3;
  j.workload = *workloads::by_name("2W1");
  j.policy = PolicySpec::stall(30);
  j.seed = 5;
  j.warmup = 100;
  j.measure = 200;
  j.fork_advance = 50;
  j.parent_key = 0x0123456789abcdefull;
  j.snapshot = std::make_shared<const std::vector<std::uint8_t>>(
      fake_snapshot());
  return j;
}

std::vector<std::uint8_t> fixture_job_file() {
  const std::string path = (scratch_dir("job") / "fixture.mfj").string();
  worker::write_job_file(path, {fixture_job()});
  return fsio::read_file_bytes(path, "job file");
}

std::vector<std::pair<std::uint32_t, RunResult>> fixture_results() {
  RunResult r;
  r.workload = "2W1";
  r.policy = "icount";
  r.wall_seconds = 0.25;
  r.simulated_cycles = 1'234;
  r.payload = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1, 2, 3, 5, 8});
  return {{7, r}};
}

daemon::Message fixture_message() {
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

std::uint64_t digest(std::span<const std::uint8_t> bytes) {
  return fnv1a(bytes);
}

TEST(EnvelopeGolden, EveryFormatIsByteIdenticalToItsPinnedDigest) {
  EXPECT_EQ(digest(fixture_spec().to_bytes()), 0x65027accd15b7ca8ull);
  EXPECT_EQ(digest(fixture_job_file()), 0x3e7c10ad70d00f39ull);
  EXPECT_EQ(digest(worker::encode_results(fixture_results())),
            0x9d589f10d6e3a674ull);
  EXPECT_EQ(digest(daemon::encode_frame(fixture_message())),
            0x81943324dde4106eull);
  const auto results = fixture_results();
  EXPECT_EQ(digest(worker::frame_result(results[0].first, results[0].second)),
            0xd4392c9522c683f4ull);
}

// ----------------------------------------------------------- the checksum

TEST(EnvelopeChecksum, EveryFlipTruncationAndAppendedByteIsRejected) {
  // 37 whole words and a 5-byte tail, so every lane, the words after the
  // last stripe and the tail are all covered.
  std::vector<std::uint8_t> body(8 * 37 + 5);
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<std::uint8_t>(i * 131 + 7);
  ArchiveWriter ar;
  ar.put_bytes(body.data(), body.size());
  envelope::seal(ar);
  const std::vector<std::uint8_t> sealed = ar.take();
  const std::vector<std::uint8_t> framed = envelope::frame(body);
  const auto unseals = [](std::span<const std::uint8_t> b) {
    try {
      (void)envelope::unseal(b, "probe");
      return true;
    } catch (const std::runtime_error&) {
      return false;
    }
  };
  const auto status = [](std::span<const std::uint8_t> b) {
    return envelope::unframe(b, 1u << 20).status;
  };
  ASSERT_TRUE(unseals(sealed));
  ASSERT_EQ(status(framed), envelope::FrameStatus::kFrame);

  for (std::size_t at = 0; at < sealed.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> damaged = sealed;
      damaged[at] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_FALSE(unseals(damaged)) << "byte " << at << " bit " << bit;
      damaged = framed;
      damaged[4 + at] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_EQ(status(damaged), envelope::FrameStatus::kBad)
          << "frame byte " << 4 + at << " bit " << bit;
    }
  }
  for (std::size_t cut = 0; cut < sealed.size(); ++cut)
    ASSERT_FALSE(unseals(std::span(sealed).first(cut))) << "cut " << cut;

  // A zero byte appended under the old checksum: the zero-padded tail
  // word is unchanged, so only the folded length tells the two apart.
  std::vector<std::uint8_t> grown(sealed.begin(), sealed.end() - 8);
  grown.push_back(0);
  grown.insert(grown.end(), sealed.end() - 8, sealed.end());
  EXPECT_FALSE(unseals(grown));
  grown = sealed;
  grown.push_back(0);
  EXPECT_FALSE(unseals(grown));
  grown.assign(framed.begin(), framed.end() - 8);
  grown.push_back(0);
  const auto len = static_cast<std::uint32_t>(body.size() + 1);
  std::memcpy(grown.data(), &len, sizeof(len));
  grown.insert(grown.end(), framed.end() - 8, framed.end());
  EXPECT_EQ(status(grown), envelope::FrameStatus::kBad);
}

// ------------------------------------------------------- the fuzz harness
//
// One table of every checksummed format, each with a decoder probe; the
// same damage is applied to all of them. Two framings exist
// (common/envelope.h), and one nests them:
//   kSealed   magic | version | body | checksum  (snapshot, spec, job file,
//             result archive, warm entry — a warm entry is a snapshot put
//             in a WarmStore, and its rejection is a store miss that
//             deletes the entry);
//   kFrame    len | magic | version | message | checksum(payload)
//             (MFLUSNET);
//   kSealedFrame  len | sealed archive | checksum(payload) (a worker's
//             result stream: each frame carries a one-entry result
//             archive, read back by the coordinator's
//             worker::take_results).

enum class Kind { kSealed, kFrame, kSealedFrame };

enum class Verdict { kAccepted, kRejected, kNeedMore };

struct Outcome {
  Verdict verdict = Verdict::kRejected;
  std::string error;
};

struct Format {
  std::string name;
  Kind kind = Kind::kSealed;
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::vector<std::uint8_t> bytes;  ///< one valid encoding
  std::function<Outcome(std::span<const std::uint8_t>)> open;
  /// Offsets (under the checksum) of decoded enum and bool bytes, with the
  /// field name a decode error must carry.
  std::vector<std::pair<std::size_t, std::string>> checked = {};
};

/// The table below, in order (test names are fixed before it is built).
constexpr const char* kFormatNames[] = {
    "snapshot",   "spec",       "job_file",     "result_archive",
    "warm_entry", "wire_frame", "result_stream"};

template <class F>
Outcome verdict_of(F&& decode) {
  try {
    decode();
    return {Verdict::kAccepted, {}};
  } catch (const std::exception& e) {
    return {Verdict::kRejected, e.what()};
  }
}

template <class T>
T read_at(std::span<const std::uint8_t> b, std::size_t at) {
  T v{};
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

constexpr std::uint64_t kSnapshotMagic = 0x4d464c5553534e50ull;  // MFLUSSNP

/// The harness's small snapshot. Small caches and predictor tables keep it
/// (~380 KB instead of ~2 MB) cheap enough to fuzz in sanitizer builds.
std::vector<std::uint8_t> small_snapshot() {
  const Workload w = *workloads::by_name("2W1");
  SimConfig cfg = SimConfig::paper_default(w.num_cores(), /*seed=*/1);
  cfg.mem.l2_bytes = 48 * 1024;
  cfg.mem.l1i_bytes = 8 * 1024;
  cfg.mem.l1d_bytes = 8 * 1024;
  cfg.core.perceptron_table = 32;
  cfg.core.local_history_entries = 256;
  cfg.core.btb_entries = 64;
  CmpSimulator donor(cfg, w, PolicySpec::icount());
  donor.run(1'000);
  return snapshot::capture(donor);
}

Format snapshot_format() {
  return {"snapshot", Kind::kSealed, kSnapshotMagic, snapshot::kFormatVersion,
          small_snapshot(), [](std::span<const std::uint8_t> b) {
            return verdict_of([&] { (void)snapshot::make(b); });
          }};
}

/// Stream bytes of a PolicySpec: kind, trigger, mcreg_history, mcreg_agg,
/// preventive.
constexpr std::size_t kPreventiveAt = 1 + 8 + 4 + 1;

Format spec_format() {
  const ExperimentSpec s = fixture_spec();
  ArchiveWriter before_policies;
  before_policies.io(s.name, s.workloads);
  // header | name, workloads | policy count | first policy ...
  const std::size_t kind = 12 + before_policies.bytes().size() + 8;
  const std::vector<std::uint8_t> bytes = s.to_bytes();
  // ... | mode, sampled | mem_model | dram (48 bytes) | seal
  const std::size_t mem_model = bytes.size() - 8 - 48 - 1;
  // 3: the spec format version (private to experiment_spec.cpp).
  return {"spec", Kind::kSealed, 0x4d464c5553504543ull, 3, bytes,
          [](std::span<const std::uint8_t> b) {
            return verdict_of([&] { (void)ExperimentSpec::from_bytes(b); });
          },
          {{kind, "PolicySpec::kind"},
           {kind + kPreventiveAt, "PolicySpec::preventive"},
           {mem_model, "ExperimentSpec::mem_model"}}};
}

Format job_file_format() {
  const std::string path = (scratch_dir("fuzz-job") / "f.mfj").string();
  const JobSpec j = fixture_job();
  ArchiveWriter before_policy;
  before_policy.io(j.id, j.workload, j.profiles);
  // header | job count | id, workload, profiles | policy | seed, warmup,
  // measure, fork_advance, parent_key | mem_model ...
  const std::size_t kind = 12 + 8 + before_policy.bytes().size();
  const std::size_t mem_model = kind + kPreventiveAt + 1 + 5 * 8;
  return {"job_file", Kind::kSealed, 0x4d464c55534a4f42ull,
          worker::kProtocolVersion, fixture_job_file(),
          [path](std::span<const std::uint8_t> b) {
            fsio::write_file_atomic(path, b);
            return verdict_of([&] { (void)worker::read_job_file(path); });
          },
          {{kind, "PolicySpec::kind"},
           {kind + kPreventiveAt, "PolicySpec::preventive"},
           {mem_model, "JobSpec::mem_model"}}};
}

Format result_archive_format() {
  return {"result_archive", Kind::kSealed, 0x4d464c5553524553ull,
          worker::kProtocolVersion,
          worker::encode_results(fixture_results()),
          [](std::span<const std::uint8_t> b) {
            return verdict_of([&] { (void)worker::decode_results(b, "fuzz"); });
          }};
}

constexpr std::uint64_t kFixtureWarmKey = 0x1122334455667788ull;

/// A warm entry is the parent's snapshot as captured, so the row's bytes
/// are the small snapshot. WarmStore::lookup checks its seal and header; a
/// state that does not fit (a byte appended under a valid seal) is for
/// the restore to reject, which every consumer of an entry runs.
Format warm_entry_format() {
  const std::string dir = scratch_dir("fuzz-warm").string();
  return {"warm_entry", Kind::kSealed, kSnapshotMagic,
          snapshot::kFormatVersion, small_snapshot(),
          [dir](std::span<const std::uint8_t> b) {
            std::vector<std::string> events;
            WarmStore::Options opts;
            opts.on_event = [&](const std::string& e) { events.push_back(e); };
            WarmStore store(dir, opts);
            const std::string path = store.path_of(kFixtureWarmKey);
            fsio::write_file_atomic(path, b);
            if (const auto snap = store.lookup(kFixtureWarmKey)) {
              EXPECT_TRUE(std::equal(snap->begin(), snap->end(), b.begin(),
                                     b.end()));
              return verdict_of([&] { (void)snapshot::make(*snap); });
            }
            // A rejected entry is a counted, narrated miss that heals the
            // slot.
            EXPECT_EQ(store.stats().corrupt_discarded, 1u);
            EXPECT_FALSE(fs::exists(path));
            EXPECT_EQ(events.size(), 1u);
            return Outcome{Verdict::kRejected,
                           events.empty() ? "" : events[0]};
          }};
}

Format wire_frame_format() {
  return {"wire_frame", Kind::kFrame, daemon::kFrameMagic,
          daemon::kProtocolVersion, daemon::encode_frame(fixture_message()),
          [](std::span<const std::uint8_t> b) {
            const daemon::Extract ex = daemon::try_extract(b);
            switch (ex.status) {
              case daemon::ExtractStatus::kFrame:
                EXPECT_EQ(ex.consumed, b.size());
                return Outcome{Verdict::kAccepted, {}};
              case daemon::ExtractStatus::kNeedMore:
                return Outcome{Verdict::kNeedMore, {}};
              case daemon::ExtractStatus::kBad:
                break;
            }
            EXPECT_FALSE(ex.error.empty());
            return Outcome{Verdict::kRejected, ex.error};
          }};
}

/// The coordinator's reader of a worker's stdout: every whole frame is
/// delivered, a partial one waits for more bytes, damage throws and
/// delivers nothing.
Outcome read_result_stream(std::span<const std::uint8_t> b) {
  std::vector<std::uint8_t> buffer(b.begin(), b.end());
  try {
    const auto got = worker::take_results(buffer, "fuzz");
    if (got.empty()) return {Verdict::kNeedMore, {}};
    EXPECT_EQ(got.size(), 1u);
    EXPECT_TRUE(buffer.empty());
    return {Verdict::kAccepted, {}};
  } catch (const std::exception& e) {
    return {Verdict::kRejected, e.what()};
  }
}

Format result_stream_format() {
  return {"result_stream", Kind::kSealedFrame, 0x4d464c5553524553ull,
          worker::kProtocolVersion,
          worker::frame_result(7, fixture_results().front().second),
          read_result_stream};
}

/// Builders in kFormatNames order. ctest runs every case in its own
/// process, so each format is built on first use only.
constexpr Format (*kBuilders[])() = {
    snapshot_format,       spec_format,       job_file_format,
    result_archive_format, warm_entry_format, wire_frame_format,
    result_stream_format};

const Format& format_at(std::size_t i) {
  static std::unique_ptr<Format> built[std::size(kBuilders)];
  if (!built[i]) built[i] = std::make_unique<Format>(kBuilders[i]());
  return *built[i];
}

/// Offsets to damage: all of them under 64 KiB; for a snapshot a strided
/// sample plus the first and last 64 bytes.
std::vector<std::size_t> offsets(std::size_t size) {
  std::vector<std::size_t> at;
  if (size < (64u << 10)) {
    for (std::size_t i = 0; i < size; ++i) at.push_back(i);
    return at;
  }
  for (std::size_t i = 0; i < 64; ++i) at.push_back(i);
  for (std::size_t i = 64; i + 64 < size; i += size / 61) at.push_back(i);
  for (std::size_t i = size - 64; i < size; ++i) at.push_back(i);
  return at;
}

/// Where the magic + version sit: after the length prefix of a frame.
std::size_t header_at(const Format& f) {
  return f.kind == Kind::kSealed ? 0 : sizeof(std::uint32_t);
}

using Edit = std::function<void(std::vector<std::uint8_t>&)>;

/// `edit` applied to a sealed archive's body, resealed.
std::vector<std::uint8_t> reseal(std::span<const std::uint8_t> sealed,
                                 const Edit& edit) {
  std::vector<std::uint8_t> body(sealed.begin(), sealed.end() - 8);
  edit(body);
  ArchiveWriter ar;
  ar.put_bytes(body.data(), body.size());
  envelope::seal(ar);
  return ar.take();
}

/// Apply `edit` under every checksum, then re-checksum, so only the header
/// and body checks can reject the result.
std::vector<std::uint8_t> edit_sealed(const Format& f, const Edit& edit) {
  const std::span<const std::uint8_t> b(f.bytes);
  if (f.kind == Kind::kSealed) return reseal(b, edit);
  std::vector<std::uint8_t> payload(b.begin() + 4, b.end() - 8);
  if (f.kind == Kind::kSealedFrame) {
    payload = reseal(payload, edit);
  } else {
    edit(payload);
  }
  return envelope::frame(payload);
}

class EnvelopeHarness : public ::testing::TestWithParam<std::size_t> {
 protected:
  [[nodiscard]] const Format& format() const {
    const Format& f = format_at(GetParam());
    EXPECT_EQ(f.name, kFormatNames[GetParam()]);
    return f;
  }
};

TEST_P(EnvelopeHarness, ValidBytesDecodeAndHaveTheSharedLayout) {
  const Format& f = format();
  const std::span<const std::uint8_t> b(f.bytes);
  const Outcome ok = f.open(b);
  ASSERT_EQ(ok.verdict, Verdict::kAccepted) << ok.error;

  const std::size_t h = header_at(f);
  EXPECT_EQ(read_at<std::uint64_t>(b, h), f.magic);
  EXPECT_EQ(read_at<std::uint32_t>(b, h + 8), f.version);
  switch (f.kind) {
    case Kind::kSealed:
      EXPECT_EQ(read_at<std::uint64_t>(b, b.size() - 8),
                envelope::checksum(b.first(b.size() - 8)));
      break;
    case Kind::kSealedFrame:
      EXPECT_EQ(read_at<std::uint64_t>(b, b.size() - 16),
                envelope::checksum(b.subspan(4, b.size() - 20)));
      [[fallthrough]];
    case Kind::kFrame:
      EXPECT_EQ(read_at<std::uint32_t>(b, 0), b.size() - 12);
      EXPECT_EQ(read_at<std::uint64_t>(b, b.size() - 8),
                envelope::checksum(b.subspan(4, b.size() - 12)));
      break;
  }
}

TEST_P(EnvelopeHarness, EveryTruncationIsRejected) {
  const Format& f = format();
  for (const std::size_t cut : offsets(f.bytes.size())) {
    SCOPED_TRACE(f.name + " cut at byte " + std::to_string(cut));
    const Outcome o = f.open(std::span(f.bytes).first(cut));
    switch (f.kind) {
      case Kind::kSealed:
        ASSERT_EQ(o.verdict, Verdict::kRejected);
        break;
      case Kind::kFrame:
      case Kind::kSealedFrame:
        // An honest truncation is bytes still in flight, never damage.
        ASSERT_EQ(o.verdict, Verdict::kNeedMore);
        break;
    }
  }
}

TEST_P(EnvelopeHarness, EveryFlipIsRejected) {
  const Format& f = format();
  const bool every_bit = f.bytes.size() < (64u << 10);
  for (const std::size_t at : offsets(f.bytes.size())) {
    for (int bit = 0; bit < 8; ++bit) {
      if (!every_bit && bit != static_cast<int>(at % 8)) continue;
      SCOPED_TRACE(f.name + " byte " + std::to_string(at) + " bit " +
                   std::to_string(bit));
      std::vector<std::uint8_t> damaged = f.bytes;
      damaged[at] ^= static_cast<std::uint8_t>(1u << bit);
      const Outcome o = f.open(damaged);
      switch (f.kind) {
        case Kind::kSealed:
          ASSERT_EQ(o.verdict, Verdict::kRejected);
          break;
        case Kind::kFrame:
        case Kind::kSealedFrame:
          // A flipped length prefix may announce a longer frame (need
          // more); anywhere else the frame is damage. Never a frame.
          ASSERT_NE(o.verdict, Verdict::kAccepted);
          if (at >= 4) ASSERT_EQ(o.verdict, Verdict::kRejected);
          break;
      }
    }
  }
}

TEST_P(EnvelopeHarness, ResealedWrongMagicOrVersionFailsTheHeaderCheck) {
  // Under the checksum, every format starts with its magic and version.
  const Format& f = format();
  const Outcome magic = f.open(edit_sealed(f, [](auto& b) { b[0] ^= 0x20; }));
  EXPECT_EQ(magic.verdict, Verdict::kRejected);
  EXPECT_NE(magic.error.find("magic"), std::string::npos) << magic.error;

  const Outcome version = f.open(edit_sealed(f, [&](auto& b) {
    const std::uint32_t next = f.version + 1;
    std::memcpy(b.data() + 8, &next, sizeof(next));
  }));
  EXPECT_EQ(version.verdict, Verdict::kRejected);
  EXPECT_NE(version.error.find("version"), std::string::npos) << version.error;
}

TEST_P(EnvelopeHarness, ResealedOutOfRangeEnumOrBoolIsRejectedByName) {
  // A checksum-valid encoding can still carry a byte no writer produces;
  // decode must name the field instead of building a value that crashes
  // later (an unknown policy kind used to reach make_policy as nullptr).
  const Format& f = format();
  for (const auto& [at, field] : f.checked) {
    SCOPED_TRACE(f.name + " " + field);
    ASSERT_LT(f.bytes[at], 8) << "offset does not point at an enum/bool";
    const Outcome o = f.open(edit_sealed(f, [at](auto& b) { b[at] = 0x7f; }));
    EXPECT_EQ(o.verdict, Verdict::kRejected);
    EXPECT_NE(o.error.find(field), std::string::npos) << o.error;
  }
}

TEST(EnvelopeSpec, ResealedWorkloadCountEqualToTheBytesLeftIsTruncated) {
  // The workload count is bounded only by the bytes left (an element is at
  // least one byte), so a forged count that big must fail at the first
  // short element instead of sizing the vector up front. The appended 0xff
  // bytes make the count large and the next string length impossible.
  const Format f = spec_format();
  ArchiveWriter name;
  name.io(fixture_spec().name);
  const std::size_t count_at = 12 + name.bytes().size();
  ASSERT_EQ(read_at<std::uint64_t>(f.bytes, count_at),
            fixture_spec().workloads.size());
  const Outcome o = f.open(edit_sealed(f, [count_at](auto& b) {
    b.insert(b.end(), std::size_t{1} << 20, 0xff);
    const std::uint64_t left = b.size() - count_at - sizeof(std::uint64_t);
    std::memcpy(b.data() + count_at, &left, sizeof(left));
  }));
  EXPECT_EQ(o.verdict, Verdict::kRejected);
  EXPECT_NE(o.error.find("truncated"), std::string::npos) << o.error;
}

TEST_P(EnvelopeHarness, TrailingByteInsideTheSealIsRejected) {
  const Format& f = format();
  const Outcome o = f.open(edit_sealed(f, [](auto& b) { b.push_back(0); }));
  EXPECT_EQ(o.verdict, Verdict::kRejected);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, EnvelopeHarness,
    ::testing::Range<std::size_t>(0, std::size(kFormatNames)),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(kFormatNames[info.param]);
    });

// -------------------------------------------------- the result stream
//
// The harness row above fuzzes the frame reader on one frame. Here the
// whole coordinator end runs: a LocalTransport whose script worker cats
// prepared bytes to stdout, and mflushsim itself reading stdin.

/// Install an executable /bin/sh script at `path`.
std::string write_script(const fs::path& path, const std::string& body) {
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n" << body;
  }
  fs::permissions(path, fs::perms::owner_all);
  return path.string();
}

/// Run one batch of job 7 through a worker that reads its jobs and cats
/// `stream`; returns the ids delivered and the batch's error ("" if none).
std::pair<std::vector<std::uint32_t>, std::string> run_stream(
    const fs::path& dir, const std::vector<std::uint8_t>& stream) {
  fsio::write_file_atomic((dir / "stream").string(), stream);
  const std::string script = write_script(
      dir / "worker.sh",
      "cat > /dev/null\nexec cat '" + (dir / "stream").string() + "'\n");
  remote::HostSpec host;
  host.name = "local";
  JobSpec job;
  job.id = 7;
  std::vector<std::uint32_t> ids;
  try {
    remote::LocalTransport(script).run_batch(
        host, {job}, [&](std::uint32_t id, RunResult) { ids.push_back(id); },
        "batch");
  } catch (const remote::TransportError& e) {
    return {ids, e.what()};
  }
  return {ids, ""};
}

TEST(ResultStream, DamageFailsTheBatchAndIsNeverDelivered) {
  const fs::path dir = scratch_dir("stream-damage");
  const std::vector<std::uint8_t> frame =
      worker::frame_result(7, fixture_results().front().second);
  ASSERT_EQ(run_stream(dir, frame),
            std::make_pair(std::vector<std::uint32_t>{7}, std::string()));

  // Under the checksum, at the length prefix, and in the checksum itself.
  for (const std::size_t at : {std::size_t{2}, std::size_t{13},
                               frame.size() / 2, frame.size() - 3}) {
    SCOPED_TRACE("flip at byte " + std::to_string(at));
    std::vector<std::uint8_t> damaged = frame;
    damaged[at] ^= 0x10;
    const auto [ids, error] = run_stream(dir, damaged);
    EXPECT_TRUE(ids.empty());
    EXPECT_NE(error.find("result stream"), std::string::npos) << error;
  }
  for (const std::size_t cut : {std::size_t{3}, frame.size() - 1}) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const auto [ids, error] =
        run_stream(dir, std::vector(frame.begin(), frame.begin() + cut));
    EXPECT_TRUE(ids.empty());
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
  // A byte after a whole frame: the frame is intact and delivered, the
  // byte is the start of a frame that never comes.
  std::vector<std::uint8_t> grown = frame;
  grown.push_back(0);
  const auto [ids, error] = run_stream(dir, grown);
  EXPECT_EQ(ids, std::vector<std::uint32_t>{7});
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(ResultStream, AFrameOfAnotherBatchFailsTheBatch) {
  // The worker answers job 99, which this batch (job 7) never sent: the
  // scheduler refuses it, delivers nothing and fails the sweep.
  const fs::path dir = scratch_dir("stream-foreign");
  fsio::write_file_atomic((dir / "stream").string(),
                          worker::frame_result(99, RunResult{}));
  RemoteBackend::Options opts;
  opts.worker_binary = write_script(
      dir / "worker.sh",
      "cat > /dev/null\nexec cat '" + (dir / "stream").string() + "'\n");
  opts.max_attempts = 1;
  JobSpec job;
  job.id = 0;
  job.workload = *workloads::by_name("2W1");
  ResultSink sink;
  try {
    RemoteBackend(opts).run({job}, sink);
    ADD_FAILURE() << "a foreign result was accepted";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected or duplicate job 99"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sink.completed(), 0u);
}

TEST(ResultStream, MalformedStdinRunsNothingAndNamesStdin) {
  const std::string bin = default_worker_binary();
  if (bin.empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  const fs::path dir = scratch_dir("stream-stdin");
  const std::vector<std::uint8_t> archive =
      worker::encode_jobs({fixture_job()});
  std::vector<std::uint8_t> flipped = archive;
  flipped[archive.size() / 2] ^= 0x01;
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> inputs =
      {{"empty", {}},
       {"garbage", {'n', 'o', 't', ' ', 'j', 'o', 'b', 's'}},
       {"truncated", std::vector(archive.begin(), archive.end() - 9)},
       {"flipped", flipped}};
  for (const auto& [name, bytes] : inputs) {
    SCOPED_TRACE(name);
    const std::string in = (dir / (name + ".in")).string();
    fsio::write_file_atomic(in, bytes);
    const fs::path store = dir / (name + ".store");
    const std::string out = (dir / (name + ".out")).string();
    const std::string err = (dir / (name + ".err")).string();
    const int rc = proc::spawn_and_wait(
        "/bin/sh",
        {"-c",
         "exec \"$0\" --worker - --worker-store \"$1\" < \"$2\" > \"$3\" "
         "2> \"$4\"",
         bin, store.string(), in, out, err},
        "mflushsim --worker -", 60);
    EXPECT_NE(rc, 0);
    const auto said = fsio::read_file_bytes(err, "stderr");
    EXPECT_NE(std::string(said.begin(), said.end()).find("stdin"),
              std::string::npos)
        << std::string(said.begin(), said.end());
    EXPECT_EQ(fs::file_size(out), 0u) << "a result was written";
    EXPECT_FALSE(fs::exists(store)) << "the worker opened its store";
  }
}

// ------------------------------------------------------------ file reads

TEST(FileRead, ADirectoryPathIsARuntimeErrorNamingIt) {
  const std::string dir = scratch_dir("not-a-file").string();
  const auto expect_named = [&](const std::function<void()>& read) {
    try {
      read();
      ADD_FAILURE() << "reading a directory succeeded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
          << e.what();
    }
  };
  expect_named([&] { (void)fsio::read_file_bytes(dir, "probe"); });
  expect_named([&] { (void)snapshot::read_file(dir); });
  expect_named([&] { (void)ExperimentSpec::read_file(dir); });
}

}  // namespace
}  // namespace mflush
