#include "sim/experiment_spec.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/envelope.h"
#include "common/fsio.h"
#include "sim/cmp.h"
#include "sim/snapshot.h"
#include "sim/warmstore.h"

namespace mflush {
namespace {

constexpr std::uint64_t kSpecMagic = 0x4d464c5553504543ull;  // "MFLUSPEC"
constexpr std::uint32_t kSpecVersion = 2;

/// Throwing wrapper over the shared workloads::resolve front door.
Workload resolve_workload(const std::string& token) {
  if (const auto w = workloads::resolve(token)) return *w;
  throw std::runtime_error(
      "experiment spec: unknown workload '" + token +
      "' (catalog name or an even-length string of benchmark codes)");
}

// Snapshot tail tags shared by save/save_content/load.
constexpr std::uint8_t kSnapNone = 0;      // no snapshot
constexpr std::uint8_t kSnapInline = 1;    // length-prefixed bytes follow
constexpr std::uint8_t kSnapByParent = 2;  // resolve via parent_key

/// The chip config a job's simulator is built with: paper defaults for
/// the chip size, the job's seed, and the job's memory model — the single
/// spec→SimConfig mapping every run path shares.
SimConfig job_config(const JobSpec& job, std::uint32_t num_cores) {
  SimConfig cfg = SimConfig::paper_default(num_cores, job.seed);
  cfg.mem.memory_model = job.mem_model;
  cfg.mem.dram = job.dram;
  return cfg;
}

/// Warm a catalog parent chip from scratch: the single definition of a
/// parent's warm (the job is warmstore::warm_job_of a fork), so forks are
/// bit-identical wherever their parent was warmed.
std::unique_ptr<CmpSimulator> warm_parent_chip(const JobSpec& job) {
  if (!job.profiles.empty()) {
    throw std::runtime_error(
        "forks require catalog workloads (snapshots cannot rebuild "
        "ad-hoc profile chips)");
  }
  auto parent = std::make_unique<CmpSimulator>(
      job_config(job, job.workload.num_cores()), job.workload, job.policy);
  parent->run(job.warmup);
  return parent;
}

/// Measures off a parent snapshot: attached bytes, or a parent_key.
bool is_fork(const JobSpec& job) {
  return job.snapshot || job.parent_key != 0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// ------------------------------------------------------------------ JobSpec

void JobSpec::save(ArchiveWriter& ar) const {
  ar.io(id);
  ar.walk(*this);
  // Wire form: attached bytes always travel (this is the upload); a by-ref
  // fork ships the parent hash alone.
  if (snapshot) {
    ar.put(kSnapInline);
    ar.put_vec(*snapshot);
  } else {
    ar.put(parent_key != 0 ? kSnapByParent : kSnapNone);
  }
}

void JobSpec::save_content(ArchiveWriter& ar) const {
  ar.walk(*this);
  // Canonical form: a parent hash pins the exact snapshot bytes, so the
  // content is the same whether or not the bytes are attached — the
  // campaign cache key stays stable across by-ref and resolved copies.
  if (parent_key != 0) {
    ar.put(kSnapByParent);
  } else if (snapshot) {
    ar.put(kSnapInline);
    ar.put_vec(*snapshot);
  } else {
    ar.put(kSnapNone);
  }
}

JobSpec JobSpec::load(ArchiveReader& ar) {
  JobSpec j;
  ar.io(j.id);
  ar.walk(j);
  const auto tag = ar.get<std::uint8_t>();
  if (tag == kSnapInline) {
    std::vector<std::uint8_t> bytes;
    ar.get_vec(bytes);
    j.snapshot =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  } else if (tag != kSnapNone && tag != kSnapByParent) {
    throw std::runtime_error("job archive: unknown snapshot tag " +
                             std::to_string(tag));
  }
  return j;
}

RunResult run_job(const JobSpec& job) {
  if (is_fork(job)) {
    RunResult r;
    run_fork_group({&job, 1},
                   [&](std::size_t, RunResult result) { r = std::move(result); });
    return r;
  }
  if (!job.profiles.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    CmpSimulator sim(
        job_config(job,
                   static_cast<std::uint32_t>(job.profiles.size()) / 2),
        job.profiles, job.policy);
    sim.run(job.warmup);
    sim.reset_stats();
    sim.run(job.measure);
    RunResult r;
    r.workload =
        job.workload.name.empty() ? sim.workload().name : job.workload.name;
    r.policy = job.policy.label();
    r.metrics = sim.metrics();
    r.wall_seconds = seconds_since(t0);
    r.simulated_cycles = job.warmup + job.measure;
    return r;
  }
  return run_point(job_config(job, job.workload.num_cores()), job.workload,
                   job.policy, job.warmup, job.measure);
}

void run_fork_group(std::span<const JobSpec> forks,
                    const ForkResultFn& on_result) {
  const JobSpec& head = forks.front();
  if (!is_fork(head))
    throw std::invalid_argument("run_fork_group: not a fork job");
  // A by-ref fork whose bytes were not attached warms its parent here,
  // once per process: the warm is a pure function of warm_job_of(head),
  // so the forks' metrics do not depend on where their parent was warmed.
  // The caller that warms keeps the live chip, whose state is exactly what
  // its published capture describes.
  std::unique_ptr<CmpSimulator> chip;
  const auto bytes =
      head.snapshot ? head.snapshot : warmstore::parent_snapshot(head, [&] {
        chip = warm_parent_chip(warmstore::warm_job_of(head));
        return std::make_shared<const std::vector<std::uint8_t>>(
            snapshot::capture(*chip));
      });
  auto t0 = std::chrono::steady_clock::now();
  if (!chip) chip = snapshot::make(*bytes);
  // One tally per distinct boundary cycle (a fork's advance or end),
  // shared by the boundaries there; starts sort before ends, and ends at
  // one cycle report in fork order.
  struct Boundary {
    Cycle at;
    bool end;
    std::size_t k;
    auto operator<=>(const Boundary&) const = default;
  };
  std::vector<Boundary> boundaries;
  boundaries.reserve(2 * forks.size());
  for (std::size_t k = 0; k < forks.size(); ++k) {
    boundaries.push_back({forks[k].fork_advance, false, k});
    boundaries.push_back({forks[k].fork_advance + forks[k].measure, true, k});
  }
  std::sort(boundaries.begin(), boundaries.end());
  std::vector<CmpSimulator::Tally> opened(forks.size());
  Cycle at = 0;        // the chip stands `at` cycles past the parent
  Cycle reported = 0;  // the pass's cycles already in a result
  CmpSimulator::Tally here = chip->tally();
  for (const Boundary& b : boundaries) {
    if (b.at > at) {
      chip->run(b.at - at);
      at = b.at;
      here = chip->tally();
    }
    if (!b.end) {
      opened[b.k] = here;
      continue;
    }
    RunResult r;
    r.workload = chip->workload().name;
    r.policy = chip->policy().label();
    r.metrics = chip->metrics_between(opened[b.k], here);
    r.wall_seconds = seconds_since(t0);
    r.simulated_cycles = at - reported;
    reported = at;
    on_result(b.k, std::move(r));
    t0 = std::chrono::steady_clock::now();
  }
}

std::size_t fork_group_end(std::span<const JobSpec> jobs, std::size_t begin) {
  const std::uint64_t key = jobs[begin].parent_key;
  std::size_t end = begin + 1;
  if (key == 0) return end;
  while (end < jobs.size() && jobs[end].parent_key == key) ++end;
  return end;
}

// ----------------------------------------------------------- ExperimentSpec

void ExperimentSpec::validate() const {
  if (workloads.empty())
    throw std::runtime_error("experiment spec: no workloads");
  if (policies.empty()) throw std::runtime_error("experiment spec: no policies");
  if (seeds.empty()) throw std::runtime_error("experiment spec: no seeds");
  if (measure == 0)
    throw std::runtime_error("experiment spec: measure must be > 0");
  for (const Workload& w : workloads) {
    if (w.codes.empty() || w.codes.size() % 2 != 0) {
      throw std::runtime_error("experiment spec: workload '" + w.name +
                               "' needs an even, non-zero thread count");
    }
  }
  if (mode == RunMode::Sampled) {
    if (sampled.forks == 0)
      throw std::runtime_error("experiment spec: sampled.forks must be > 0");
    if (sampled.target_half_width < 0.0 || sampled.target_half_width >= 1.0) {
      throw std::runtime_error(
          "experiment spec: target_half_width must be in [0, 1)");
    }
    if (sampled.max_rounds == 0)
      throw std::runtime_error("experiment spec: max_rounds must be > 0");
  }
  // DRAM knobs share SimConfig's validation (the single source of the
  // constraints); probe with a minimal chip so a bad spec fails at parse
  // time, not inside a worker.
  if (mem_model != MemModelKind::Fixed) {
    SimConfig probe = SimConfig::paper_default(1);
    probe.mem.memory_model = mem_model;
    probe.mem.dram = dram;
    if (const std::string err = probe.validate(); !err.empty())
      throw std::runtime_error("experiment spec: " + err);
  }
}

std::vector<JobSpec> ExperimentSpec::expand() const {
  validate();
  std::vector<JobSpec> jobs;

  if (mode == RunMode::FullRun) {
    jobs.reserve(num_points());
    std::uint32_t id = 0;
    for (const std::uint64_t seed : seeds) {
      for (const Workload& w : workloads) {
        for (const PolicySpec& p : policies) {
          JobSpec j;
          j.id = id++;
          j.workload = w;
          j.policy = p;
          j.seed = seed;
          j.warmup = warmup;
          j.measure = measure;
          j.mem_model = mem_model;
          j.dram = dram;
          jobs.push_back(std::move(j));
        }
      }
    }
    return jobs;
  }

  // Sampled: one warmed parent per point, shared by its forks — but the
  // warm-up itself is NOT run here. Fork jobs reference the parent by
  // content hash; the warm phase of run_experiment attaches known parents
  // and a cold one warms where its forks run, so expansion costs no
  // simulation and warm-up parallelism (and distribution) belongs to the
  // backend.
  const Cycle stride =
      sampled.fork_stride != 0 ? sampled.fork_stride : measure / 2;
  const std::size_t points = num_points();
  const std::size_t num_w = workloads.size();
  const std::size_t num_p = policies.size();
  jobs.reserve(points * sampled.forks);
  for (std::size_t i = 0; i < points; ++i) {
    JobSpec proto;
    proto.workload = workloads[(i / num_p) % num_w];
    proto.policy = policies[i % num_p];
    proto.seed = seeds[i / (num_w * num_p)];
    proto.warmup = warmup;
    proto.mem_model = mem_model;
    proto.dram = dram;
    const std::uint64_t key = warmstore::warm_key(proto);
    for (std::uint32_t k = 0; k < sampled.forks; ++k) {
      JobSpec j = proto;
      j.id = static_cast<std::uint32_t>(i * sampled.forks + k);
      j.measure = measure;
      j.fork_advance = static_cast<Cycle>(k) * stride;
      j.parent_key = key;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::vector<std::uint8_t> ExperimentSpec::to_bytes() const {
  ArchiveWriter ar;
  envelope::put_header(ar, kSpecMagic, kSpecVersion);
  ar.walk(*this);
  envelope::seal(ar);
  return ar.take();
}

ExperimentSpec ExperimentSpec::from_bytes(
    std::span<const std::uint8_t> bytes) {
  ArchiveReader ar(envelope::unseal(bytes, "experiment spec"));
  envelope::expect_header(ar, kSpecMagic, kSpecVersion, "experiment spec");
  ExperimentSpec spec;
  ar.walk(spec);
  if (!ar.done())
    throw std::runtime_error("experiment spec: trailing bytes (corrupt?)");
  spec.validate();
  return spec;
}

std::string ExperimentSpec::to_text() const {
  std::ostringstream os;
  os << "# mflush experiment spec (text form, v" << kSpecVersion << ")\n"
     << "# run with: mflushsim --spec FILE [--backend inprocess|worker]\n"
     << "name " << name << '\n'
     << "mode " << (mode == RunMode::Sampled ? "sampled" : "full_run") << '\n'
     << "warmup " << warmup << '\n'
     << "measure " << measure << '\n';
  os << "seeds";
  for (const std::uint64_t s : seeds) os << ' ' << s;
  os << '\n';
  for (const Workload& w : workloads) os << "workload " << w.name << '\n';
  for (const PolicySpec& p : policies) {
    std::string label = p.label();
    for (char& c : label) c = static_cast<char>(std::tolower(c));
    os << "policy " << label << '\n';
  }
  if (mode == RunMode::Sampled) {
    os << "forks " << sampled.forks << '\n'
       << "fork_stride " << sampled.fork_stride << '\n'
       << "target_half_width " << sampled.target_half_width << '\n'
       << "max_rounds " << sampled.max_rounds << '\n';
  }
  // Memory-model block only when not the default fixed model, so existing
  // fixed-memory spec files round-trip unchanged.
  if (mem_model != MemModelKind::Fixed) {
    os << "mem_model dram\n"
       << "dram_channels " << dram.channels << '\n'
       << "dram_banks_per_channel " << dram.banks_per_channel << '\n'
       << "dram_row_bytes " << dram.row_bytes << '\n'
       << "dram_t_row_hit " << dram.t_row_hit << '\n'
       << "dram_t_row_miss " << dram.t_row_miss << '\n'
       << "dram_t_row_conflict " << dram.t_row_conflict << '\n'
       << "dram_channel_gap " << dram.channel_gap << '\n'
       << "dram_far_base " << dram.far_base << '\n'
       << "dram_far_bytes " << dram.far_bytes << '\n'
       << "dram_far_extra " << dram.far_extra << '\n';
  }
  return os.str();
}

ExperimentSpec ExperimentSpec::from_text(std::string_view text) {
  ExperimentSpec spec;
  spec.seeds.clear();
  std::istringstream is{std::string(text)};
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and surrounding whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank line

    const auto fail = [&](const std::string& why) {
      throw std::runtime_error("experiment spec line " +
                               std::to_string(lineno) + ": " + why);
    };
    // Strict non-negative integer tokens: istream >> uint64 would wrap
    // "-1" into 2^64-1 instead of failing, so parse via from_chars.
    const auto parse_u64 = [&](const std::string& token,
                               std::uint64_t& out) -> bool {
      const auto [ptr, ec] = std::from_chars(
          token.data(), token.data() + token.size(), out);
      return ec == std::errc{} && ptr == token.data() + token.size();
    };
    const auto value_u64 = [&]() -> std::uint64_t {
      std::string token;
      std::uint64_t v = 0;
      if (!(ls >> token) || !parse_u64(token, v))
        fail("'" + key + "' expects a non-negative integer");
      return v;
    };

    if (key == "name") {
      if (!(ls >> spec.name)) fail("'name' expects a value");
    } else if (key == "mode") {
      std::string m;
      if (!(ls >> m)) fail("'mode' expects full_run or sampled");
      if (m == "full_run") {
        spec.mode = RunMode::FullRun;
      } else if (m == "sampled") {
        spec.mode = RunMode::Sampled;
      } else {
        fail("unknown mode '" + m + "' (full_run or sampled)");
      }
    } else if (key == "warmup") {
      spec.warmup = value_u64();
    } else if (key == "measure") {
      spec.measure = value_u64();
    } else if (key == "seeds" || key == "seed") {
      std::string token;
      while (ls >> token) {
        std::uint64_t s = 0;
        if (!parse_u64(token, s))
          fail("'seeds' expects non-negative integers, got '" + token + "'");
        spec.seeds.push_back(s);
      }
      if (spec.seeds.empty()) fail("'seeds' expects at least one integer");
    } else if (key == "workload") {
      std::string token;
      if (!(ls >> token)) fail("'workload' expects a name or code string");
      spec.workloads.push_back(resolve_workload(token));
    } else if (key == "policy") {
      std::string token;
      if (!(ls >> token)) fail("'policy' expects a policy spec");
      const auto p = PolicySpec::parse(token);
      if (!p) fail("unknown policy '" + token + "'");
      spec.policies.push_back(*p);
    } else if (key == "forks") {
      spec.sampled.forks = static_cast<std::uint32_t>(value_u64());
    } else if (key == "fork_stride") {
      spec.sampled.fork_stride = value_u64();
    } else if (key == "target_half_width") {
      double v = 0.0;
      if (!(ls >> v)) fail("'target_half_width' expects a number");
      spec.sampled.target_half_width = v;
    } else if (key == "max_rounds") {
      spec.sampled.max_rounds = static_cast<std::uint32_t>(value_u64());
    } else if (key == "mem_model") {
      std::string m;
      if (!(ls >> m)) fail("'mem_model' expects fixed or dram");
      if (m == "fixed") {
        spec.mem_model = MemModelKind::Fixed;
      } else if (m == "dram") {
        spec.mem_model = MemModelKind::BankedDram;
      } else {
        fail("unknown mem_model '" + m + "' (fixed or dram)");
      }
    } else if (key == "dram_channels") {
      spec.dram.channels = static_cast<std::uint32_t>(value_u64());
    } else if (key == "dram_banks_per_channel") {
      spec.dram.banks_per_channel = static_cast<std::uint32_t>(value_u64());
    } else if (key == "dram_row_bytes") {
      spec.dram.row_bytes = static_cast<std::uint32_t>(value_u64());
    } else if (key == "dram_t_row_hit") {
      spec.dram.t_row_hit = static_cast<std::uint32_t>(value_u64());
    } else if (key == "dram_t_row_miss") {
      spec.dram.t_row_miss = static_cast<std::uint32_t>(value_u64());
    } else if (key == "dram_t_row_conflict") {
      spec.dram.t_row_conflict = static_cast<std::uint32_t>(value_u64());
    } else if (key == "dram_channel_gap") {
      spec.dram.channel_gap = static_cast<std::uint32_t>(value_u64());
    } else if (key == "dram_far_base") {
      spec.dram.far_base = value_u64();
    } else if (key == "dram_far_bytes") {
      spec.dram.far_bytes = value_u64();
    } else if (key == "dram_far_extra") {
      spec.dram.far_extra = static_cast<std::uint32_t>(value_u64());
    } else {
      fail("unknown key '" + key + "'");
    }
    std::string extra;
    if (ls >> extra) fail("trailing junk '" + extra + "'");
  }
  if (spec.seeds.empty()) spec.seeds.push_back(1);
  spec.validate();
  return spec;
}

ExperimentSpec ExperimentSpec::read_file(const std::string& path) {
  const auto bytes = fsio::read_file_bytes(path, "experiment spec");
  std::uint64_t magic = 0;
  if (bytes.size() >= sizeof(magic))
    std::memcpy(&magic, bytes.data(), sizeof(magic));
  if (magic == kSpecMagic) return from_bytes(bytes);
  return from_text(
      std::string_view(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size()));
}

void ExperimentSpec::write_file(const std::string& path, bool binary) const {
  validate();
  // Temp-then-rename: an interrupted emission must never leave a truncated
  // spec that a later --spec run could half-parse as the study.
  std::vector<std::uint8_t> bytes;
  if (binary) {
    bytes = to_bytes();
  } else {
    const std::string text = to_text();
    bytes.assign(text.begin(), text.end());
  }
  fsio::write_file_atomic(path, bytes, /*durable=*/true);
}

}  // namespace mflush
