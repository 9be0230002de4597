#include "sim/snapshot.h"

#include <stdexcept>
#include <type_traits>

#include "common/archive.h"
#include "common/envelope.h"
#include "common/fsio.h"
#include "sim/experiment_spec.h"

namespace mflush::snapshot {
namespace {

constexpr std::uint64_t kMagic = 0x4d464c5553534e50ull;  // "MFLUSSNP"

// SimConfig is written field-wise (not memcpy'd) so struct padding never
// leaks into the stream and the config echo compares byte-exactly. One
// field list in stream order serves both directions; memory_model (an enum
// carried as u8) and the DRAM knobs follow it.
template <class Cfg, class F>
void config_fields(Cfg& cfg, F&& f) {
  auto& c = cfg.core;
  auto& m = cfg.mem;
  f(cfg.num_cores, c.threads_per_core, c.fetch_width, c.fetch_threads,
    c.decode_width, c.rename_width, c.issue_width, c.commit_width,
    c.fetch_stages, c.decode_stages, c.rename_stages, c.int_queue_entries,
    c.fp_queue_entries, c.mem_queue_entries, c.int_units, c.fp_units,
    c.ldst_units, c.int_phys_regs, c.fp_phys_regs, c.rob_entries,
    c.ras_entries, c.lat_int_alu, c.lat_int_mul, c.lat_fp_alu, c.lat_fp_mul,
    c.lat_branch, c.perceptron_table, c.local_history_entries,
    c.history_bits, c.btb_entries, c.btb_ways, c.model_wrong_path,
    m.line_bytes, m.l1i_bytes, m.l1i_ways, m.l1i_banks, m.l1d_bytes,
    m.l1d_ways, m.l1d_banks, m.l1_latency, m.itlb_entries, m.dtlb_entries,
    m.tlb_miss_penalty, m.page_bytes, m.l2_bytes, m.l2_ways, m.l2_banks,
    m.l2_bank_latency, m.bus_latency, m.memory_latency, m.mshr_entries);
}

void put_config(ArchiveWriter& ar, const SimConfig& cfg) {
  config_fields(cfg, [&](const auto&... v) { (ar.put(v), ...); });
  ar.put(static_cast<std::uint8_t>(cfg.mem.memory_model));
  put_dram(ar, cfg.mem.dram);
  ar.put(cfg.seed);
  ar.put(cfg.prewarm_l2);
}

SimConfig get_config(ArchiveReader& ar) {
  SimConfig cfg;
  config_fields(cfg, [&](auto&... v) {
    ((v = ar.get<std::remove_reference_t<decltype(v)>>()), ...);
  });
  cfg.mem.memory_model = static_cast<MemModelKind>(ar.get<std::uint8_t>());
  cfg.mem.dram = get_dram(ar);
  cfg.seed = ar.get<std::uint64_t>();
  cfg.prewarm_l2 = ar.get<bool>();
  return cfg;
}

void put_header(ArchiveWriter& ar, const CmpSimulator& sim) {
  envelope::put_header(ar, kMagic, kFormatVersion);
  put_config(ar, sim.config());
  ar.put_string(sim.workload().name);
  ar.put_vec(sim.workload().codes);
  put_policy(ar, sim.policy());
}

struct Header {
  SimConfig cfg;
  Workload workload;
  PolicySpec policy;
};

Header get_header(ArchiveReader& ar) {
  envelope::expect_header(ar, kMagic, kFormatVersion, "snapshot");
  Header h;
  h.cfg = get_config(ar);
  h.workload.name = ar.get_string();
  ar.get_vec(h.workload.codes);
  h.policy = get_policy(ar);
  return h;
}

}  // namespace

std::vector<std::uint8_t> capture(const CmpSimulator& sim) {
  if (sim.profile_built()) {
    // Ad-hoc BenchmarkProfile chips record catalog-code placeholders in
    // their workload; make() would silently rebuild different benchmarks.
    throw std::runtime_error(
        "cannot snapshot a simulator built from ad-hoc benchmark profiles");
  }
  ArchiveWriter ar;
  put_header(ar, sim);
  sim.save_state(ar);
  envelope::seal(ar);
  return ar.take();
}

void restore(CmpSimulator& sim, std::span<const std::uint8_t> bytes) {
  if (sim.profile_built()) {
    throw std::runtime_error(
        "cannot restore into a simulator built from ad-hoc benchmark "
        "profiles (its workload codes are placeholders)");
  }
  ArchiveReader ar(envelope::unseal(bytes, "snapshot"));
  const Header h = get_header(ar);

  // The target simulator must be the identical experiment: compare the
  // config echoes byte-for-byte, and workload/policy structurally.
  ArchiveWriter theirs, ours;
  put_config(theirs, h.cfg);
  put_config(ours, sim.config());
  if (theirs.bytes() != ours.bytes())
    throw std::runtime_error("snapshot config does not match simulator");
  if (h.workload.name != sim.workload().name ||
      h.workload.codes != sim.workload().codes)
    throw std::runtime_error("snapshot workload does not match simulator");
  if (h.policy != sim.policy())
    throw std::runtime_error("snapshot policy does not match simulator");

  sim.restore_state(ar);
  if (!ar.done()) {
    // Layout drift guard: a longer-than-expected payload means the writer
    // had fields this reader does not know about (a missed version bump).
    throw std::runtime_error("snapshot has trailing bytes (layout drift?)");
  }
}

std::unique_ptr<CmpSimulator> make(std::span<const std::uint8_t> bytes) {
  ArchiveReader ar(envelope::unseal(bytes, "snapshot"));
  const Header h = get_header(ar);
  auto sim = std::make_unique<CmpSimulator>(h.cfg, h.workload, h.policy);
  sim->restore_state(ar);
  if (!ar.done())
    throw std::runtime_error("snapshot has trailing bytes (layout drift?)");
  return sim;
}

void save_file(const std::string& path, const CmpSimulator& sim) {
  // Atomic + durable: a snapshot is a long warm-up's savings, and a crash
  // mid-write must leave either the old file or the new one — never a
  // truncated archive the next run dies on.
  fsio::write_file_atomic(path, capture(sim), /*durable=*/true);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  return fsio::read_file_bytes(path, "snapshot file");
}

std::unique_ptr<CmpSimulator> load_file(const std::string& path) {
  return make(read_file(path));
}

}  // namespace mflush::snapshot
