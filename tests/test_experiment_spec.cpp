#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.h"
#include "sim/experiment_spec.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

ExperimentSpec demo_spec() {
  // A history policy without the preventive state: the label
  // ("MFLUSH-H3AVG-NP") must survive the text form's label->parse trip.
  PolicySpec history_np =
      PolicySpec::mflush_history(3, PolicySpec::McRegAgg::Avg);
  history_np.preventive = false;

  ExperimentSpec spec;
  spec.name = "demo";
  spec.workloads = {*workloads::by_name("2W1"), *workloads::by_name("4W2")};
  spec.policies = {PolicySpec::icount(), PolicySpec::flush_spec(30),
                   PolicySpec::mflush_history(4, PolicySpec::McRegAgg::Max),
                   PolicySpec::mflush_history(2, PolicySpec::McRegAgg::Last),
                   history_np};
  spec.seeds = {1, 42};
  spec.warmup = 1'000;
  spec.measure = 4'000;
  return spec;
}

void expect_same_spec(const ExperimentSpec& a, const ExperimentSpec& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.workloads.size(), b.workloads.size());
  for (std::size_t i = 0; i < a.workloads.size(); ++i) {
    EXPECT_EQ(a.workloads[i].name, b.workloads[i].name);
    EXPECT_EQ(a.workloads[i].codes, b.workloads[i].codes);
  }
  EXPECT_EQ(a.policies, b.policies);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.warmup, b.warmup);
  EXPECT_EQ(a.measure, b.measure);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.mem_model, b.mem_model);
  EXPECT_EQ(a.dram, b.dram);
}

ExperimentSpec dram_spec() {
  ExperimentSpec spec = demo_spec();
  spec.mem_model = MemModelKind::BankedDram;
  spec.dram.channels = 4;
  spec.dram.banks_per_channel = 4;
  spec.dram.row_bytes = 4096;
  spec.dram.t_row_hit = 60;
  spec.dram.t_row_miss = 200;
  spec.dram.t_row_conflict = 350;
  spec.dram.channel_gap = 8;
  spec.dram.far_base = 0x100000;
  spec.dram.far_bytes = 0x40000;
  spec.dram.far_extra = 900;
  return spec;
}

// ------------------------------------------------------------- round trips

TEST(ExperimentSpec, BinaryRoundTrip) {
  const ExperimentSpec spec = demo_spec();
  expect_same_spec(spec, ExperimentSpec::from_bytes(spec.to_bytes()));
}

TEST(ExperimentSpec, BinaryRoundTripSampled) {
  ExperimentSpec spec = demo_spec();
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 5;
  spec.sampled.fork_stride = 750;
  spec.sampled.target_half_width = 0.03;
  spec.sampled.max_rounds = 7;
  expect_same_spec(spec, ExperimentSpec::from_bytes(spec.to_bytes()));
}

TEST(ExperimentSpec, TextRoundTrip) {
  const ExperimentSpec spec = demo_spec();
  expect_same_spec(spec, ExperimentSpec::from_text(spec.to_text()));
}

TEST(ExperimentSpec, TextRoundTripSampled) {
  ExperimentSpec spec = demo_spec();
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 3;
  spec.sampled.fork_stride = 500;
  spec.sampled.target_half_width = 0.05;
  spec.sampled.max_rounds = 2;
  expect_same_spec(spec, ExperimentSpec::from_text(spec.to_text()));
}

TEST(ExperimentSpec, DramKnobsSurviveBothFormats) {
  const ExperimentSpec spec = dram_spec();
  expect_same_spec(spec, ExperimentSpec::from_bytes(spec.to_bytes()));
  expect_same_spec(spec, ExperimentSpec::from_text(spec.to_text()));
}

TEST(ExperimentSpec, DefaultSpecTextOmitsDramKeys) {
  // Fixed-model specs keep the pre-seam text form: hand-written spec files
  // from earlier versions parse unchanged, and to_text adds no noise.
  const std::string text = demo_spec().to_text();
  EXPECT_EQ(text.find("mem_model"), std::string::npos);
  EXPECT_EQ(text.find("dram_"), std::string::npos);
  const ExperimentSpec back = ExperimentSpec::from_text(text);
  EXPECT_EQ(back.mem_model, MemModelKind::Fixed);
  EXPECT_EQ(back.dram, DramConfig{});
}

TEST(ExperimentSpec, DramKnobsFlowIntoExpandedJobs) {
  const ExperimentSpec spec = dram_spec();
  const std::vector<JobSpec> jobs = spec.expand();
  ASSERT_FALSE(jobs.empty());
  for (const JobSpec& j : jobs) {
    EXPECT_EQ(j.mem_model, MemModelKind::BankedDram);
    EXPECT_EQ(j.dram, spec.dram);
  }
}

TEST(ExperimentSpec, ValidateRejectsBadDramGeometry) {
  ExperimentSpec spec = dram_spec();
  spec.dram.channels = 3;  // not a power of two
  EXPECT_THROW(spec.validate(), std::runtime_error);
  spec = dram_spec();
  spec.dram.row_bytes = 32;  // smaller than a line
  EXPECT_THROW(spec.validate(), std::runtime_error);
  spec = dram_spec();
  spec.dram.t_row_hit = 500;  // hit slower than conflict
  EXPECT_THROW(spec.validate(), std::runtime_error);
  // The same knobs are ignored (and legal) under the fixed model.
  spec.mem_model = MemModelKind::Fixed;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ExperimentSpec, FileRoundTripSniffsBothFormats) {
  const ExperimentSpec spec = demo_spec();
  const std::string text_path = ::testing::TempDir() + "spec_text.mfs";
  const std::string bin_path = ::testing::TempDir() + "spec_bin.mfs";
  spec.write_file(text_path, /*binary=*/false);
  spec.write_file(bin_path, /*binary=*/true);
  expect_same_spec(spec, ExperimentSpec::read_file(text_path));
  expect_same_spec(spec, ExperimentSpec::read_file(bin_path));
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

// ------------------------------------------------------ corruption handling

// Binary damage (every truncation, every flipped bit, wrong magic or
// version, trailing bytes) is covered for the spec archive alongside every
// other format by the shared harness in test_envelope.cpp.

TEST(ExperimentSpec, RejectsMalformedText) {
  EXPECT_THROW((void)ExperimentSpec::from_text("bogus_key 1\n"),
               std::runtime_error);
  EXPECT_THROW((void)ExperimentSpec::from_text("workload NOPE\n"),
               std::runtime_error);
  EXPECT_THROW((void)ExperimentSpec::from_text("workload 2W1\n"
                                               "policy warp-drive\n"),
               std::runtime_error);
  EXPECT_THROW((void)ExperimentSpec::from_text("mode sideways\n"),
               std::runtime_error);
  EXPECT_THROW((void)ExperimentSpec::from_text("measure twelve\n"),
               std::runtime_error);
  // istream >> uint64 would wrap a negative; the parser must reject it.
  EXPECT_THROW((void)ExperimentSpec::from_text("measure -1\n"),
               std::runtime_error);
  EXPECT_THROW((void)ExperimentSpec::from_text("seeds 1 -2 3\n"),
               std::runtime_error);
  // A value its field cannot hold is a typo, not a wrapped request:
  // 2^32 + 1 forks would silently run one.
  EXPECT_THROW((void)ExperimentSpec::from_text("workload 2W1\n"
                                               "mode sampled\n"
                                               "forks 4294967297\n"),
               std::runtime_error);
  EXPECT_THROW((void)ExperimentSpec::from_text("dram_far_extra 4294967296\n"),
               std::runtime_error);
  EXPECT_THROW((void)ExperimentSpec::from_text("workload 2W1\n"
                                               "policy mflush-h4294967300\n"),
               std::runtime_error);
  // Valid keys but an empty study must still fail validation.
  EXPECT_THROW((void)ExperimentSpec::from_text("name empty\n"),
               std::runtime_error);
}

TEST(ExperimentSpec, TextAcceptsCommentsAndCodeWorkloads) {
  const ExperimentSpec spec = ExperimentSpec::from_text(
      "# a hand-written study\n"
      "name hand\n"
      "workload 2W1   # catalog name\n"
      "workload dl    # benchmark codes: mcf + twolf\n"
      "policy flush-s70\n"
      "measure 2000\n"
      "warmup 500\n");
  ASSERT_EQ(spec.workloads.size(), 2u);
  EXPECT_EQ(spec.workloads[1].name, "dl");
  EXPECT_EQ(spec.workloads[1].codes, (std::vector<char>{'d', 'l'}));
  EXPECT_EQ(spec.policies, (std::vector<PolicySpec>{PolicySpec::flush_spec(
                               70)}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1}));  // default
}

TEST(ExperimentSpec, SpecialWorkloadSurvivesTextRoundTrip) {
  // bzip2_twolf_special's own name ("8Wbt") must resolve on the way back
  // in, or --emit-spec output for it would be unreadable.
  ExperimentSpec spec;
  spec.name = "special";
  spec.workloads = {workloads::bzip2_twolf_special()};
  spec.policies = {PolicySpec::mflush()};
  spec.measure = 1'000;
  const ExperimentSpec back = ExperimentSpec::from_text(spec.to_text());
  ASSERT_EQ(back.workloads.size(), 1u);
  EXPECT_EQ(back.workloads[0].name, spec.workloads[0].name);
  EXPECT_EQ(back.workloads[0].codes, spec.workloads[0].codes);
}

// -------------------------------------------------------------- validation

TEST(ExperimentSpec, ValidateRejectsEmptyAndBadConfigs) {
  ExperimentSpec spec = demo_spec();
  spec.workloads.clear();
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = demo_spec();
  spec.policies.clear();
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = demo_spec();
  spec.seeds.clear();
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = demo_spec();
  spec.measure = 0;
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = demo_spec();
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 0;
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = demo_spec();
  spec.mode = RunMode::Sampled;
  spec.sampled.target_half_width = 1.5;
  EXPECT_THROW(spec.validate(), std::runtime_error);
}

// ------------------------------------------------------------------ expand

TEST(ExperimentSpec, ExpandLayoutIsSeedMajorPolicyMinor) {
  const ExperimentSpec spec = demo_spec();
  const std::size_t P = spec.policies.size();
  const std::size_t W = spec.workloads.size();
  const std::vector<JobSpec> jobs = spec.expand();
  ASSERT_EQ(jobs.size(), spec.seeds.size() * W * P);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
    EXPECT_EQ(jobs[i].seed, spec.seeds[i / (W * P)]);
    EXPECT_EQ(jobs[i].workload.name, spec.workloads[(i / P) % W].name);
    EXPECT_EQ(jobs[i].policy, spec.policies[i % P]);
    EXPECT_EQ(jobs[i].warmup, spec.warmup);
    EXPECT_EQ(jobs[i].measure, spec.measure);
    EXPECT_EQ(jobs[i].snapshot, nullptr);
  }
}

TEST(ExperimentSpec, SampledExpandEmitsParentReferences) {
  // Sampled expand emits by-reference fork jobs: no snapshot bytes, no
  // warm-up simulation — the warm phase of run_experiment resolves the
  // parent_key hashes (warm store, in-process registry, or warm jobs).
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 800;
  spec.measure = 1'000;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 3;
  spec.sampled.fork_stride = 400;

  const std::vector<JobSpec> jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 6u);  // 2 points x 3 forks
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
    EXPECT_EQ(jobs[i].snapshot, nullptr);
    EXPECT_NE(jobs[i].parent_key, 0u);
    // Forks keep the warm-up length: it names the parent (key derivation)
    // and lets a worker re-warm deterministically on a store miss.
    EXPECT_EQ(jobs[i].warmup, 800u);
    EXPECT_EQ(jobs[i].fork_advance, (i % 3) * 400u);
  }
  // Forks of one point share their parent's key; points differ.
  EXPECT_EQ(jobs[0].parent_key, jobs[2].parent_key);
  EXPECT_NE(jobs[0].parent_key, jobs[3].parent_key);
}

}  // namespace
}  // namespace mflush
