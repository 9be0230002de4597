#include "sim/report.h"

#include <cassert>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/stats.h"
#include "common/table.h"

namespace mflush::report {
namespace {

std::vector<std::string> policy_headers(
    const std::vector<std::vector<RunResult>>& by_workload) {
  std::vector<std::string> headers{"workload"};
  if (!by_workload.empty())
    for (const RunResult& r : by_workload.front()) headers.push_back(r.policy);
  return headers;
}

/// Human-scaled cycles/second, e.g. "1.4 Mcyc/s".
std::string rate_str(double cycles_per_sec) {
  std::ostringstream os;
  if (cycles_per_sec >= 1e6)
    os << Table::num(cycles_per_sec / 1e6, 1) << " Mcyc/s";
  else
    os << Table::num(cycles_per_sec / 1e3, 1) << " Kcyc/s";
  return os.str();
}

}  // namespace

std::vector<std::vector<RunResult>> as_grid(std::vector<RunResult> flat,
                                            std::size_t columns) {
  if (columns == 0 || flat.size() % columns != 0) {
    throw std::invalid_argument(
        "report::as_grid: result count is not a multiple of the column "
        "count");
  }
  std::vector<std::vector<RunResult>> rows;
  rows.reserve(flat.size() / columns);
  for (std::size_t r = 0; r < flat.size() / columns; ++r) {
    const auto begin =
        flat.begin() + static_cast<std::ptrdiff_t>(r * columns);
    rows.emplace_back(
        std::make_move_iterator(begin),
        std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(columns)));
  }
  return rows;
}

ResultSink::OnResult progress_printer(std::ostream& os, std::size_t total) {
  // The sink serializes callbacks, so the shared counter needs no lock.
  const auto done = std::make_shared<std::size_t>(0);
  return [&os, total, done](const JobSpec&, const RunResult& r) {
    ++*done;
    os << '[' << *done << '/';
    if (total == 0)
      os << '?';
    else
      os << total;
    os << "] " << r.workload << ' ' << r.policy << ": IPC "
       << Table::num(r.metrics.ipc) << '\n';
  };
}

std::function<void(const std::string&)> event_printer(std::ostream& os) {
  return event_printer(os, "remote: ");
}

std::function<void(const std::string&)> event_printer(std::ostream& os,
                                                      std::string prefix) {
  // Each source serializes its own on_event calls, but mflushd runs many
  // sources (campaign runners, the mux, per-tenant warm stores) into one
  // stream concurrently — a process-wide mutex keeps every line atomic so
  // interleaved tenants stay attributable.
  static std::mutex stream_mutex;
  return [&os, prefix = std::move(prefix)](const std::string& line) {
    const std::lock_guard lk(stream_mutex);
    os << prefix << line << '\n';
  };
}

void print_throughput(std::ostream& os, const std::vector<RunResult>& flat,
                      std::size_t columns) {
  print_throughput(os, as_grid(flat, columns));
}

void print_wasted_energy(std::ostream& os,
                         const std::vector<RunResult>& flat,
                         std::size_t columns) {
  print_wasted_energy(os, as_grid(flat, columns));
}

void print_throughput(std::ostream& os,
                      const std::vector<std::vector<RunResult>>& by_workload) {
  Table table(policy_headers(by_workload));
  std::vector<double> sums(by_workload.empty() ? 0 : by_workload[0].size(),
                           0.0);
  for (const auto& row : by_workload) {
    std::vector<std::string> cells{row.front().workload};
    for (std::size_t i = 0; i < row.size(); ++i) {
      cells.push_back(Table::num(row[i].metrics.ipc));
      sums[i] += row[i].metrics.ipc;
    }
    table.add_row(std::move(cells));
  }
  if (!by_workload.empty()) {
    std::vector<std::string> avg{"average"};
    for (const double s : sums)
      avg.push_back(Table::num(s / static_cast<double>(by_workload.size())));
    table.add_row(std::move(avg));
  }
  table.print(os);
  if (const std::string f = throughput_footer(by_workload); !f.empty())
    os << f << "\n";
}

void print_wasted_energy(
    std::ostream& os, const std::vector<std::vector<RunResult>>& by_workload) {
  Table table(policy_headers(by_workload));
  std::vector<double> sums(by_workload.empty() ? 0 : by_workload[0].size(),
                           0.0);
  for (const auto& row : by_workload) {
    std::vector<std::string> cells{row.front().workload};
    for (std::size_t i = 0; i < row.size(); ++i) {
      const double w = row[i].metrics.energy.flush_wasted_per_kilo_commit();
      cells.push_back(Table::num(w, 1));
      sums[i] += w;
    }
    table.add_row(std::move(cells));
  }
  if (!by_workload.empty()) {
    std::vector<std::string> avg{"average"};
    for (const double s : sums)
      avg.push_back(
          Table::num(s / static_cast<double>(by_workload.size()), 1));
    table.add_row(std::move(avg));
  }
  table.print(os);
  if (const std::string f = throughput_footer(by_workload); !f.empty())
    os << f << "\n";
}

void print_debug(std::ostream& os, const CmpSimulator& sim) {
  const SimMetrics m = sim.metrics();
  os << "=== " << sim.workload().name << " (" << sim.workload().describe()
     << ") under " << sim.policy().label() << " ===\n";
  os << "cycles " << m.cycles << "  committed " << m.committed << "  IPC "
     << Table::num(m.ipc) << "\n";
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    const SmtCore& core = sim.core(c);
    const CoreStats& s = core.stats();
    os << "core " << c << ": fetched " << s.fetched << " (wrong-path "
       << s.fetched_wrong_path << "), commits";
    for (std::uint32_t t = 0; t < core.num_threads(); ++t)
      os << ' ' << s.committed[t];
    os << ", branches " << s.branches_resolved << " mispred " << s.mispredicts
       << " (" << Table::pct(safe_ratio(static_cast<double>(s.mispredicts),
                                        static_cast<double>(
                                            s.branches_resolved)))
       << "), loads " << s.loads_issued << ", flushes "
       << s.policy_flush_events << " squashing " << s.policy_flushed_total()
       << "\n";
    const auto pc = core.policy().counters();
    os << "  policy: flush on miss/hit/l1 " << pc.flushes_on_miss << '/'
       << pc.flushes_on_hit << '/' << pc.flushes_on_l1 << ", gate-cycles "
       << pc.gate_cycles << "\n";
    const auto& l1d = sim.memory().l1d(c);
    const auto& l1i = sim.memory().l1i(c);
    os << "  l1d " << l1d.hits() << "/" << l1d.hits() + l1d.misses()
       << " hits, l1i " << l1i.hits() << "/" << l1i.hits() + l1i.misses()
       << " hits, mshr live " << sim.memory().mshr(c).live() << "\n";
    os << "  issued " << s.instructions_issued << "; dispatch blocks:"
       << " young " << s.dispatch_blocked_young << " rob "
       << s.dispatch_blocked_rob << " iq-int " << s.dispatch_blocked_iq_int
       << " iq-fp " << s.dispatch_blocked_iq_fp << " iq-mem "
       << s.dispatch_blocked_iq_mem << " regs " << s.dispatch_blocked_regs
       << "\n";
    os << "  live now: rob";
    for (std::uint32_t t = 0; t < core.num_threads(); ++t)
      os << ' ' << core.rob(t).size();
    os << ", iq int/fp/mem " << core.iq_int().size() << '/'
       << core.iq_fp().size() << '/' << core.iq_mem().size()
       << ", free regs int/fp " << core.free_int_regs() << '/'
       << core.free_fp_regs() << ", preissue";
    for (std::uint32_t t = 0; t < core.num_threads(); ++t)
      os << ' ' << core.preissue_count(t);
    os << "\n";
  }
  const MemStats& ms = sim.memory().stats();
  const L2Cache& l2 = sim.memory().l2();
  os << "l2: " << l2.read_hits() << " hits, " << l2.read_misses()
     << " misses, " << l2.writebacks() << " writebacks; load-hit time mean "
     << Table::num(m.l2_hit_time_mean, 1) << " p50 "
     << Table::num(m.l2_hit_time_p50, 1) << " p90 "
     << Table::num(m.l2_hit_time_p90, 1) << "\n";
  os << "tlb: d-miss " << ms.dtlb_misses << " i-miss " << ms.itlb_misses
     << "; bus transfers " << sim.memory().bus().transfers()
     << " queue-wait " << sim.memory().bus().queue_wait_cycles() << "\n";
  os << "energy: committed " << Table::num(m.energy.committed_units, 0)
     << " wasted(flush) " << Table::num(m.energy.flush_wasted_units, 1)
     << " wasted(branch) " << Table::num(m.energy.branch_wasted_units, 1)
     << "\n";
}

std::string summarize(const RunResult& r) {
  std::ostringstream os;
  os << r.workload << " under " << r.policy << ": IPC "
     << Table::num(r.metrics.ipc) << ", " << r.metrics.flush_events
     << " flushes, wasted energy "
     << Table::num(r.metrics.energy.flush_wasted_units, 1) << " units ("
     << Table::num(r.metrics.energy.flush_wasted_per_kilo_commit(), 1)
     << " per 1k commits)";
  if (r.wall_seconds > 0.0) {
    os << " [" << Table::num(r.wall_seconds, 2) << " s, "
       << rate_str(r.sim_cycles_per_sec()) << "]";
  }
  return os.str();
}

std::string summarize(const WarmStore::Stats& stats) {
  std::ostringstream os;
  os << "warm store: " << stats.hits << " hit(s), " << stats.misses
     << " miss(es), "
     << stats.stored << " entr" << (stats.stored == 1 ? "y" : "ies")
     << " written (" << stats.bytes_written << " bytes), "
     << stats.corrupt_discarded << " corrupt discarded";
  return os.str();
}

namespace {

std::string footer_of(double wall, Cycle simulated) {
  if (wall <= 0.0 || simulated == 0) return {};
  std::ostringstream os;
  os << "simulator: " << simulated << " cycles in "
     << Table::num(wall, 2) << " s of simulation work ("
     << rate_str(static_cast<double>(simulated) / wall)
     << " per worker thread)";
  return os.str();
}

}  // namespace

std::string throughput_footer(const std::vector<RunResult>& runs) {
  double wall = 0.0;
  Cycle simulated = 0;
  for (const RunResult& r : runs) {
    wall += r.wall_seconds;
    simulated += r.simulated_cycles;
  }
  return footer_of(wall, simulated);
}

std::string throughput_footer(
    const std::vector<std::vector<RunResult>>& by_workload) {
  double wall = 0.0;
  Cycle simulated = 0;
  for (const auto& row : by_workload) {
    for (const RunResult& r : row) {
      wall += r.wall_seconds;
      simulated += r.simulated_cycles;
    }
  }
  return footer_of(wall, simulated);
}

}  // namespace mflush::report
