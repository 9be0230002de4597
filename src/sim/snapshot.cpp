#include "sim/snapshot.h"

#include <stdexcept>

#include "common/archive.h"
#include "common/envelope.h"
#include "common/fsio.h"

namespace mflush::snapshot {
namespace {

constexpr std::uint64_t kMagic = 0x4d464c5553534e50ull;  // "MFLUSSNP"

/// What the state belongs to: the chip config (written field-wise, so the
/// echo compares byte-exactly), the workload and the policy.
struct Header {
  SimConfig cfg;
  Workload workload;
  PolicySpec policy;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(cfg, workload, policy);
  }
};

Header read_header(ArchiveReader& ar) {
  envelope::expect_header(ar, kMagic, kFormatVersion, "snapshot");
  Header h;
  ar.io(h);
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
  envelope::put_header(ar, kMagic, kFormatVersion);
  ar.io(Header{sim.config(), sim.workload(), sim.policy()});
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
  const Header h = read_header(ar);

  // The target simulator must be the identical experiment: compare the
  // config echoes byte-for-byte, and workload/policy structurally.
  ArchiveWriter theirs, ours;
  theirs.io(h.cfg);
  ours.io(sim.config());
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
  const Header h = read_header(ar);
  std::unique_ptr<CmpSimulator> sim(new CmpSimulator(
      CmpSimulator::RestoreTarget{}, h.cfg, h.workload, h.policy));
  sim->restore_state(ar);
  if (!ar.done())
    throw std::runtime_error("snapshot has trailing bytes (layout drift?)");
  return sim;
}

void check(std::span<const std::uint8_t> bytes) {
  ArchiveReader ar(envelope::unseal(bytes, "snapshot"));
  (void)read_header(ar);
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
