/// mflushsim — command-line driver for the simulator.
///
///   mflushsim [options]
///     --workload NAMES|CODES  paper workload (8W3) or code string (dlna);
///                             a comma-separated list sweeps every workload
///     --policy SPEC[,SPEC..]  icount | brcount | l1dmisscount | flush-sN |
///                             flush-ns | stall-sN | mflush[-np|-hN[max]];
///                             a comma-separated list sweeps every policy
///     --cycles N              measured cycles            (default 120000)
///     --warmup N              warm-up cycles             (default 30000)
///     --seed N                simulation seed            (default 1)
///     --jobs N                parallel width: pool threads (inprocess) or
///                             worker processes (worker backend)
///     --spec FILE             run an experiment spec file (text or binary)
///                             instead of describing the sweep with flags
///     --emit-spec FILE        write the flag-described sweep as a text
///                             spec file ("-" = stdout) and exit
///     --backend NAME          serial | inprocess (default) | worker |
///                             remote (batched distributed sweep over a
///                             host pool; see --hosts)
///     --campaign DIR          run the sweep durably: DIR holds the spec
///                             and a content-addressed result cache, so a
///                             killed run resumes with --resume and jobs
///                             already cached (this campaign or an
///                             overlapping earlier spec) are not re-run
///     --resume                continue the campaign in --campaign DIR
///                             (spec comes from DIR, finished jobs from
///                             its cache; sweep flags are ignored)
///     --hosts FILE            host pool for --backend remote: one entry
///                             per line, `name [slots=N] [fail=N]
///                             [dir=PATH]`, `#` comments. `local` runs
///                             loopback subprocesses; any other name is an
///                             ssh destination (binary shipped once per
///                             host). Default: $MFLUSH_HOSTS (entries
///                             separated by commas), else one local host.
///     --warm-store DIR        content-addressed store of warmed parent
///                             snapshots for sampled specs: warm-up runs
///                             once per distinct (workload, policy, seed,
///                             warmup) parent and is reused across runs,
///                             specs and backends keyed by content hash
///                             (campaigns default to DIR/warm under the
///                             campaign directory)
///     --serve ADDR            run mflushd, the campaign coordinator: listen
///                             on ADDR (unix:PATH, a bare path, or
///                             host:port), accept spec submissions over the
///                             MFLUSNET wire protocol, and run each as a
///                             durable campaign under --data DIR — all
///                             tenants share one host pool, one warm store
///                             and one result cache, so overlapping
///                             submissions dedup. Killing the daemon loses
///                             nothing: on restart every campaign under
///                             --data resumes its delta. Requires --data;
///                             --hosts and --jobs shape the pool as for
///                             --backend remote (no hosts: one local host
///                             of --jobs slots running jobs in-thread, no
///                             worker subprocesses)
///     --data DIR              mflushd state root: DIR/campaigns/<id>/,
///                             DIR/cache (shared result cache), DIR/warm
///     --connect ADDR          client mode: talk to the mflushd at ADDR;
///                             combine with --submit / --status ID /
///                             --cancel ID / --list / --shutdown
///     --submit SPECFILE       submit the spec to the daemon; prints the
///                             campaign id, with --follow streams results
///                             back and exits 0 iff the campaign finishes
///     --follow                with --submit: stay attached until done,
///                             printing the same job-id-ordered report a
///                             local run would
///     --status ID             one-shot: print the campaign's progress
///     --cancel ID             ask the daemon to cancel a running campaign
///     --list                  print every campaign the daemon knows
///     --shutdown              drain running campaigns, then stop the daemon
///     --worker JOBFILE        worker mode: run a job file, write the
///                             result file, exit (the worker/remote
///                             backend subprocess entry point)
///     --worker-out FILE       result path for --worker
///                             (default JOBFILE.result)
///     --worker-parts          with --worker: also write each measured
///                             job's result to FILE.r<id> as it lands
///                             (streaming transports watch these)
///     --worker-store DIR      host-side warm store for --worker: embedded
///                             parent snapshots are installed here,
///                             by-hash forks resolve from here, and a
///                             parent a fork warms is stored here (set by
///                             RemoteBackend, rarely by hand)
///     --worker-bin PATH       worker binary for --backend worker/remote
///                             (default: this executable)
///     --list-workloads        print the Fig. 1 workload catalog and exit
///     --list-policies         print the policy registry and exit
///     --save-snapshot PATH    warm up, checkpoint the chip to PATH, then
///                             measure as usual (single-point runs only)
///     --load-snapshot PATH    restore the chip from PATH (skips warm-up;
///                             workload/policy/seed come from the file)
///     --no-event-skip         force lockstep execution (disable the
///                             event kernel's idle skip; A/B audits —
///                             results are bit-identical either way)
///     --csv                   machine-readable one-line-per-run output
///     --debug                 full component dump after the run
///                             (single-point runs only)
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/number.h"
#include "common/table.h"
#include "core/factory.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/cmp.h"
#include "sim/daemon.h"
#include "sim/parallel.h"
#include "sim/remote.h"
#include "sim/report.h"
#include "sim/snapshot.h"
#include "sim/warmstore.h"
#include "sim/workloads.h"

namespace {

using namespace mflush;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--workload NAMES|CODES] [--policy SPEC[,SPEC...]] [--cycles N]\n"
         "       [--warmup N] [--seed N] [--jobs N] [--spec FILE]\n"
         "       [--emit-spec FILE|-]\n"
         "       [--backend serial|inprocess|worker|remote] [--hosts FILE]\n"
         "       [--campaign DIR [--resume]] [--warm-store DIR]\n"
         "       [--serve ADDR --data DIR [--hosts FILE] [--jobs N]]\n"
         "       [--connect ADDR (--submit SPEC [--follow] | --status ID |\n"
         "                        --cancel ID | --list | --shutdown)]\n"
         "       [--worker JOBFILE [--worker-out FILE] [--worker-store "
         "DIR]\n"
         "        [--worker-parts]]\n"
         "       [--worker-bin PATH]\n"
         "       [--list-workloads] [--list-policies]\n"
         "       [--save-snapshot PATH] [--load-snapshot PATH]\n"
         "       [--no-event-skip] [--csv] [--debug]\n\n"
         "see --list-workloads / --list-policies for what can go in a\n"
         "sweep or spec file. --backend remote fans batches of jobs over\n"
         "the --hosts pool (or $MFLUSH_HOSTS; default one local host):\n"
         "`name [slots=N] [fail=N] [dir=PATH]` per entry, where `local`\n"
         "runs loopback subprocesses and any other name is an ssh\n"
         "destination (worker binary shipped once per host). Failed\n"
         "batches re-queue onto healthy hosts with bounded retries.\n"
         "--campaign DIR publishes every result durably to a cache keyed\n"
         "by content, so a crashed or killed sweep continues with --resume\n"
         "(finished jobs replay from the cache, bit-identical) and an\n"
         "overlapping later spec pays only for its new jobs. --warm-store\n"
         "DIR reuses sampled-mode warm-up state across runs and specs by\n"
         "content hash (campaigns default to DIR/warm). --serve ADDR runs\n"
         "mflushd, a coordinator that multiplexes submitted specs onto one\n"
         "shared pool (--hosts, else --jobs slots running jobs in-thread)\n"
         "as durable campaigns under --data DIR; --connect ADDR with\n"
         "--submit/--status/--cancel/--list/--shutdown talks to it.\n";
}

void print_results(const std::vector<RunResult>& results, bool csv) {
  if (csv) {
    std::cout << "workload,policy,cycles,committed,ipc,flushes,"
                 "flushed_instrs,wasted_units,l2_hit_mean,wall_s\n";
    for (const RunResult& r : results) {
      const SimMetrics& m = r.metrics;
      std::cout << r.workload << ',' << r.policy << ',' << m.cycles << ','
                << m.committed << ',' << m.ipc << ',' << m.flush_events
                << ',' << m.flushed_instructions << ','
                << m.energy.flush_wasted_units << ',' << m.l2_hit_time_mean
                << ',' << r.wall_seconds << '\n';
    }
  } else {
    for (const RunResult& r : results)
      std::cout << report::summarize(r) << '\n';
  }
}

int list_workloads() {
  Table table({"name", "threads", "cores", "benchmarks"});
  for (const Workload& w : workloads::all()) {
    table.add_row({w.name, std::to_string(w.num_threads()),
                   std::to_string(w.num_cores()), w.describe()});
  }
  const Workload special = workloads::bzip2_twolf_special();
  table.add_row({"bzip2-twolf", std::to_string(special.num_threads()),
                 std::to_string(special.num_cores()), special.describe()});
  table.print(std::cout);
  std::cout << "\nAd-hoc workloads: any even-length string of benchmark\n"
               "codes (two per core), e.g. --workload dlna.\n";
  return 0;
}

int list_policies() {
  Table table({"syntax", "example", "description"});
  for (const PolicyFamily& f : policy_families()) {
    table.add_row({std::string(f.syntax), std::string(f.example),
                   std::string(f.description)});
  }
  table.print(std::cout);
  std::cout << "\nThese tokens are valid for --policy and for 'policy'\n"
               "lines in experiment spec files (--spec).\n";
  return 0;
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos <= list.size();) {
    const std::size_t comma = list.find(',', pos);
    out.push_back(list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Parses all of `text` as a decimal integer no less than `min` into
/// `out`. A sign, a stray character or an overflow prints an error naming
/// `flag` and returns false, so a typo exits instead of running another
/// experiment than the one asked for.
template <class T>
bool parse_count(std::string_view flag, std::string_view text, T& out,
                 T min = 0) {
  const auto v = parse_unsigned<T>(text);
  if (!v || *v < min) {
    std::cerr << "error: " << flag << " expects a "
              << (min > 0 ? "positive" : "non-negative") << " integer, got '"
              << text << "'\n";
    return false;
  }
  out = *v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // The worker-binary discovery fallback for platforms without
  // /proc/self/exe (and for renamed tool binaries).
  record_argv0(argv[0]);

  std::string workload_arg = "8W3";
  std::string policy_arg = "mflush";
  std::string spec_file;
  std::string emit_spec;
  std::string backend_arg = "inprocess";
  std::string worker_job;
  std::string worker_out;
  std::string worker_store;
  std::string worker_bin;
  std::string hosts_file;
  std::string campaign_dir;
  std::string warm_store_dir;
  std::string serve_addr;
  std::string data_dir;
  std::string connect_addr;
  std::string submit_spec;
  std::string status_id;
  std::string cancel_id;
  bool follow = false;
  bool list_campaigns = false;
  bool shutdown_daemon = false;
  bool worker_parts = false;
  bool resume = false;
  std::string save_snapshot;
  std::string load_snapshot;
  Cycle cycles = 120'000;
  Cycle warmup = 30'000;
  std::uint64_t seed = 1;
  unsigned jobs = 0;  // 0 = default (MFLUSH_JOBS / hardware threads)
  bool csv = false;
  bool debug = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_arg = value();
    } else if (arg == "--policy") {
      policy_arg = value();
    } else if (arg == "--cycles") {
      if (!parse_count(arg, value(), cycles)) return 2;
    } else if (arg == "--warmup") {
      if (!parse_count(arg, value(), warmup)) return 2;
    } else if (arg == "--seed") {
      if (!parse_count(arg, value(), seed)) return 2;
    } else if (arg == "--jobs") {
      // 0 would silently fall back to the default and mask the typo.
      if (!parse_count(arg, value(), jobs, 1u)) return 2;
    } else if (arg == "--spec") {
      spec_file = value();
    } else if (arg == "--emit-spec") {
      emit_spec = value();
    } else if (arg == "--backend") {
      backend_arg = value();
    } else if (arg == "--worker") {
      worker_job = value();
    } else if (arg == "--worker-out") {
      worker_out = value();
    } else if (arg == "--worker-store") {
      worker_store = value();
    } else if (arg == "--worker-bin") {
      worker_bin = value();
    } else if (arg == "--worker-parts") {
      worker_parts = true;
    } else if (arg == "--serve") {
      serve_addr = value();
    } else if (arg == "--data") {
      data_dir = value();
    } else if (arg == "--connect") {
      connect_addr = value();
    } else if (arg == "--submit") {
      submit_spec = value();
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--status") {
      status_id = value();
    } else if (arg == "--cancel") {
      cancel_id = value();
    } else if (arg == "--list") {
      list_campaigns = true;
    } else if (arg == "--shutdown") {
      shutdown_daemon = true;
    } else if (arg == "--hosts") {
      hosts_file = value();
    } else if (arg == "--campaign") {
      campaign_dir = value();
    } else if (arg == "--warm-store") {
      warm_store_dir = value();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--list-workloads") {
      return list_workloads();
    } else if (arg == "--list-policies") {
      return list_policies();
    } else if (arg == "--save-snapshot") {
      save_snapshot = value();
    } else if (arg == "--load-snapshot") {
      load_snapshot = value();
    } else if (arg == "--no-event-skip") {
      // Every CmpSimulator (including those built inside worker
      // subprocesses, which inherit the environment) reads this on
      // construction.
      setenv("MFLUSH_NO_EVENT_SKIP", "1", 1);
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--debug") {
      debug = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  // Worker mode: the remote backend's subprocess entry point. Everything the
  // run needs is inside the job file.
  if (!worker_job.empty()) {
    return worker::run_worker(
        worker_job, worker_out.empty() ? worker_job + ".result" : worker_out,
        worker_store, worker_parts);
  }

  // ------------------------------------------------------- mflushd server
  if (!serve_addr.empty()) {
    if (data_dir.empty()) {
      std::cerr << "error: --serve needs --data DIR (durable state root)\n";
      return 2;
    }
    try {
      daemon::ServeOptions o;
      o.address = serve_addr;
      o.data_dir = data_dir;
      o.worker_binary = worker_bin;
      o.slots = jobs;
      if (!hosts_file.empty()) o.hosts = remote::read_hosts_file(hosts_file);
      o.on_event = report::event_printer(std::cerr, "mflushd: ");
      return daemon::serve(std::move(o));
    } catch (const std::exception& e) {
      std::cerr << "mflushd: error: " << e.what() << '\n';
      return 1;
    }
  }

  // ------------------------------------------------------- mflushd client
  if (!connect_addr.empty()) {
    try {
      if (!submit_spec.empty()) {
        const ExperimentSpec spec = ExperimentSpec::read_file(submit_spec);
        const daemon::SubmitOutcome out = daemon::submit(
            connect_addr, spec, follow,
            report::event_printer(std::cerr, "mflushd client: "));
        if (out.state == "finished") print_results(out.results, csv);
        std::cerr << "mflushd client: campaign " << out.campaign << ' '
                  << out.state << ": " << out.executed << " executed, "
                  << out.cached << " cached, " << out.results.size()
                  << " result(s)\n";
        if (!follow) return 0;
        return out.state == "finished" ? 0 : 1;
      }
      daemon::Message req;
      if (!status_id.empty()) {
        req.type = daemon::MsgType::kStatus;
        req.campaign = status_id;
      } else if (!cancel_id.empty()) {
        req.type = daemon::MsgType::kCancel;
        req.campaign = cancel_id;
      } else if (list_campaigns) {
        req.type = daemon::MsgType::kList;
      } else if (shutdown_daemon) {
        req.type = daemon::MsgType::kShutdown;
      } else {
        std::cerr << "error: --connect needs one of --submit/--status/"
                     "--cancel/--list/--shutdown\n";
        return 2;
      }
      const daemon::Message reply = daemon::request(connect_addr, req);
      if (reply.type == daemon::MsgType::kError) {
        std::cerr << "mflushd: " << reply.text << '\n';
        return 1;
      }
      if (reply.type == daemon::MsgType::kStatusReply) {
        std::cout << "campaign " << reply.campaign << ": " << reply.text
                  << ", " << reply.done << '/' << reply.total << " done ("
                  << reply.executed << " executed, " << reply.cached
                  << " cached)\n";
      } else if (!reply.text.empty()) {
        std::cout << reply.text << '\n';
      }
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }
  if (!submit_spec.empty() || !status_id.empty() || !cancel_id.empty() ||
      list_campaigns || shutdown_daemon) {
    std::cerr << "error: client requests need --connect ADDR\n";
    return 2;
  }

  try {
    // ---------------------------------------------------- spec assembly
    ExperimentSpec spec;
    if (!spec_file.empty()) {
      spec = ExperimentSpec::read_file(spec_file);
    } else {
      spec.name = "mflushsim";
      for (const std::string& token : split_commas(workload_arg)) {
        const auto w = workloads::resolve(token);
        if (!w) {
          std::cerr << "unknown workload: " << token
                    << " (see --list-workloads)\n";
          return 2;
        }
        spec.workloads.push_back(*w);
      }
      spec.policies.clear();
      for (const std::string& token : split_commas(policy_arg)) {
        const auto p = PolicySpec::parse(token);
        if (!p) {
          std::cerr << "error: --policy: unknown policy '" << token
                    << "' (see --list-policies)\n";
          return 2;
        }
        spec.policies.push_back(*p);
      }
      spec.seeds = {seed};
      spec.warmup = warmup;
      spec.measure = cycles;
    }

    if (!emit_spec.empty()) {
      if (emit_spec == "-") {
        spec.validate();
        std::cout << spec.to_text();
      } else {
        spec.write_file(emit_spec);
      }
      return 0;
    }

    // --------------------------------------------------- durable campaign
    if (resume && campaign_dir.empty()) {
      std::cerr << "error: --resume needs --campaign DIR\n";
      return 2;
    }
    std::optional<CampaignStore> store;
    if (!campaign_dir.empty()) {
      if (debug || !save_snapshot.empty() || !load_snapshot.empty()) {
        std::cerr << "error: --campaign drives a backend sweep; it cannot "
                     "combine with --debug/--save-snapshot/--load-snapshot\n";
        return 2;
      }
      CampaignStore::Options copts;
      copts.on_event = report::event_printer(std::cerr, "campaign: ");
      if (resume) {
        store.emplace(CampaignStore::resume(campaign_dir, std::move(copts)));
        if (!spec_file.empty() &&
            spec.to_bytes() != store->spec().to_bytes()) {
          std::cerr << "error: --resume runs the campaign's archived spec, "
                       "but the given --spec differs from it (drop --spec, "
                       "or start a fresh campaign with the new one)\n";
          return 2;
        }
        spec = store->spec();
      } else {
        store.emplace(
            CampaignStore::create(campaign_dir, spec, std::move(copts)));
      }
    }

    // -------------------------------------------------------- warm store
    // Campaigns warm durably by default: the store rides inside the
    // campaign directory unless --warm-store points elsewhere.
    if (warm_store_dir.empty() && !campaign_dir.empty()) {
      warm_store_dir =
          (std::filesystem::path(campaign_dir) / "warm").string();
    }
    std::optional<WarmStore> warm;
    RunOptions ropts;
    if (spec.mode == RunMode::Sampled) {
      if (!warm_store_dir.empty()) {
        WarmStore::Options wopts;
        wopts.on_event = report::event_printer(std::cerr, "warm-store: ");
        warm.emplace(warm_store_dir, std::move(wopts));
        ropts.warm_store = &*warm;
      }
      ropts.on_event = report::event_printer(std::cerr, "warm-store: ");
    }

    const std::size_t num_jobs =
        spec.mode == RunMode::Sampled ? spec.num_points() * spec.sampled.forks
                                      : spec.num_points();
    // With the stopping rule active the job count grows round by round, so
    // the progress denominator is unknown up front (printed as "?").
    const bool adaptive = spec.mode == RunMode::Sampled &&
                          spec.sampled.target_half_width > 0.0;

    // ------------------------------------------------- single-point paths
    if (!save_snapshot.empty() && !load_snapshot.empty()) {
      std::cerr << "--save-snapshot and --load-snapshot are exclusive\n";
      return 2;
    }
    if (!load_snapshot.empty()) {
      // The snapshot embeds (config, workload, policy): restore and jump
      // straight into the measured interval, no warm-up.
      const auto t0 = std::chrono::steady_clock::now();
      const auto sim = snapshot::load_file(load_snapshot);
      sim->reset_stats();
      sim->run(cycles);
      RunResult r{sim->workload().name, sim->policy().label(),
                  sim->metrics()};
      r.simulated_cycles = cycles;
      r.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      print_results({r}, csv);
      if (debug) report::print_debug(std::cout, *sim);
      return 0;
    }
    if (debug || !save_snapshot.empty()) {
      if (num_jobs > 1) {
        // Without this check, each policy of a sweep would checkpoint to
        // the same file (last writer wins), and the component dump only
        // covers one chip.
        std::cerr << "error: --debug / --save-snapshot need a single-point "
                     "run (one workload, one policy, one seed)\n";
        return 2;
      }
      const auto t0 = std::chrono::steady_clock::now();
      CmpSimulator sim(spec.workloads.front(), spec.policies.front(),
                       spec.seeds.front());
      sim.run(spec.warmup);
      if (!save_snapshot.empty()) snapshot::save_file(save_snapshot, sim);
      sim.reset_stats();
      sim.run(spec.measure);
      if (!save_snapshot.empty()) {
        RunResult r{sim.workload().name, sim.policy().label(),
                    sim.metrics()};
        r.simulated_cycles = spec.warmup + spec.measure;
        r.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        print_results({r}, csv);
      }
      if (debug) report::print_debug(std::cout, sim);
      return 0;
    }

    // ----------------------------------------------------- backend sweep
    std::unique_ptr<ParallelRunner> pool;  // only for an explicit --jobs
    std::unique_ptr<ExperimentBackend> backend;
    if (backend_arg == "serial") {
      backend = std::make_unique<SerialBackend>();
    } else if (backend_arg == "inprocess") {
      if (jobs != 0) {
        pool = std::make_unique<ParallelRunner>(jobs);
        backend = std::make_unique<InProcessBackend>(*pool);
      } else {
        backend = std::make_unique<InProcessBackend>();
      }
    } else if (backend_arg == "worker" || backend_arg == "remote") {
      // worker: one loopback host of --jobs slots, whatever the pool says.
      RemoteBackend::Options opts;
      opts.worker_binary = worker_bin;
      if (backend_arg == "remote") {
        opts.hosts = !hosts_file.empty()
                         ? remote::read_hosts_file(hosts_file)
                         : remote::hosts_from_env();
      }
      if (opts.hosts.empty() && jobs != 0) {
        // No pool described: loopback fan-out, --jobs concurrent workers.
        remote::HostSpec local;
        local.name = "local";
        local.slots = jobs;
        opts.hosts.push_back(local);
      }
      // Narrate retries to stderr: a transient worker crash must leave a
      // trace even though the sweep survives it.
      opts.on_event = report::event_printer(std::cerr);
      opts.warm_store = ropts.warm_store;
      backend = std::make_unique<RemoteBackend>(std::move(opts));
    } else {
      std::cerr << "unknown backend: " << backend_arg
                << " (serial, inprocess, worker, remote)\n";
      return 2;
    }

    // Stream progress to stderr for long sweeps; stdout stays a
    // deterministic job-id-ordered report either way.
    ResultSink sink(num_jobs > 1 && !csv
                        ? report::progress_printer(std::cerr,
                                                   adaptive ? 0 : num_jobs)
                        : ResultSink::OnResult{});
    print_results(store
                      ? run_experiment_durable(*store, *backend, sink, ropts)
                      : run_experiment(spec, *backend, sink, ropts),
                  csv);
    if (warm) std::cerr << report::summarize(warm->stats()) << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
