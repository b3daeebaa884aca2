// Closed-loop load generator for the parmem-router fleet: measured QPS and
// tail latency (p50/p99/p999) for 1/2/4-worker fleets under a seeded
// request mix, plus a --chaos soak that SIGKILL-kills a worker mid-run and
// asserts the router's delivery and recovery contracts.
//
// What the fleet sweep measures. All fleets run on the same machine, so on
// a small runner the win from more workers is NOT compute parallelism — it
// is *aggregate cache capacity under a fixed per-worker budget*, which is
// exactly what consistent-hash routing buys: every worker holds a fixed
// LRU slice (per_worker_cache_entries) of the result cache, the ring
// concentrates each key on one worker, and a 4-worker fleet therefore
// holds ~the whole working set while a single worker thrashes its LRU and
// recompiles. The report pins the pool, the mix weights, and the cache
// budget so the ratio is reproducible.
//
// Request mix (seeded, drawn per request by closed-loop clients):
//   ~45%  the six paper workloads (MC source), module_count rotating
//         through {4, 8, 12} -> 18 distinct keys
//   ~10%  syn_large-class block-modular streams (stream_io text), distinct
//         seeds -> 6 keys (sized down in --quick)
//   ~45%  unique tiny synthetic streams -> 40 keys (cache-miss tail)
//
// Closed loop: C client threads, each submitting its next request the
// moment the previous terminal response lands (Router::handle). Every
// response must be ok(); QPS = served / wall, latency percentiles are
// telemetry::duration_stats over per-request wall times.
//
// Self-checks (exit 1 on violation):
//   * every request in every fleet reaches an ok() terminal response
//   * full mode: 4-worker QPS >= 2.5x single-worker QPS (the SLO the
//     committed BENCH_service.json gates in CI)
//
// --chaos: a 3-worker fleet with per-worker journal directories; a soak of
// closed-loop traffic with one worker hard-killed mid-run. Asserts:
//   * zero lost terminal responses (every submit returns; a duplicate
//     terminal would abort via the promise in Router::handle)
//   * probe responses after the kill are byte-identical to before it
//   * the victim respawns, warm-loads its journal (cache.loaded > 0), and
//     serves a pre-kill key as a cache hit
// With --parmemd PATH the chaos fleet is real parmemd processes and the
// kill is a genuine SIGKILL; the warm-restart asserts then parse the
// victim's per-worker stderr log (the respawned incarnation prints its
// cache stats on graceful drain — the SIGKILLed one never gets to).
//
// --tcp: the same sweep (or chaos soak) over the network transport. Sweep
// fleets become loopback TCP endpoints the router connects to with
// connect_tcp_worker. The TCP chaos soak exercises the cross-host fault
// model end to end: forced mid-request disconnects (reconnect + re-drive),
// a worker SIGKILLed and restarted at the same address (the router's
// reconnect finds the daemon's journal-warmed successor), and one worker
// stopped for good — driven through max_respawns to permanent failure,
// whose ring points must retire deterministically (digest-checked against
// a fresh ring over the survivors) and whose keys must be served by the
// post-rebalance owners. With --parmemd PATH the TCP chaos endpoints are
// real `parmemd --listen-tcp` processes and the kills are genuine SIGKILLs.
//
// Usage: service_load [--quick] [--chaos] [--tcp] [--parmemd PATH]
//                     [--out PATH]
//   --quick    smaller pool + shorter windows (CI smoke)
//   --chaos    run the kill-recovery soak instead of the fleet sweep
//   --tcp      run the sweep/chaos over TCP worker channels
//   --parmemd  chaos fleet uses this parmemd binary (default: in-process)
//   --out      JSON report path (default BENCH_service.json; sweep only)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "ir/stream_io.h"
#include "router/channel.h"
#include "router/ring.h"
#include "router/router.h"
#include "service/request.h"
#include "service/server.h"
#include "support/json.h"
#include "support/net.h"
#include "support/rng.h"
#include "support/text.h"
#include "telemetry/export.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace parmem::router {
namespace {

using Clock = std::chrono::steady_clock;
using service::CompileRequest;
using service::CompileResponse;
using service::RequestKind;

struct PoolEntry {
  std::string name;
  CompileRequest req;  // id 0; clients stamp a unique id per submit
};

struct Pool {
  std::vector<PoolEntry> entries;
  std::size_t paper = 0;  // entries[0 .. paper)
  std::size_t syn = 0;    // entries[paper .. paper+syn)
  std::size_t tiny = 0;   // entries[paper+syn .. paper+syn+tiny)

  /// The ISSUE mix: ~45% paper, ~10% syn_large, ~45% tiny.
  const PoolEntry& draw(support::SplitMix64& rng) const {
    const std::uint64_t r = rng.below(100);
    if (r < 45) return entries[rng.below(paper)];
    if (r < 55) return entries[paper + rng.below(syn)];
    return entries[paper + syn + rng.below(tiny)];
  }
};

Pool build_pool(bool quick) {
  Pool pool;
  for (const auto& wl : workloads::all_workloads()) {
    for (const std::size_t k : {std::size_t{4}, std::size_t{8},
                                std::size_t{12}}) {
      CompileRequest req;
      req.kind = RequestKind::kMc;
      req.module_count = k;
      req.fu_count = 8;
      req.body = wl.source;
      pool.entries.push_back({wl.name + "/k" + std::to_string(k),
                              std::move(req)});
    }
  }
  pool.paper = pool.entries.size();

  const std::size_t syn_count = quick ? 2 : 6;
  for (std::size_t i = 0; i < syn_count; ++i) {
    workloads::ModularStreamOptions g;
    g.block_count = quick ? 3 : 6;
    g.values_per_block = quick ? 48 : 80;
    g.tuples_per_block = quick ? 90 : 220;
    support::SplitMix64 rng(0x5eed5100 + i);
    CompileRequest req;
    req.kind = RequestKind::kStream;
    req.module_count = 8;
    req.fu_count = 8;
    req.body = ir::format_stream(workloads::modular_stream(g, rng));
    pool.entries.push_back({"syn_large/" + std::to_string(i),
                            std::move(req)});
  }
  pool.syn = syn_count;

  const std::size_t tiny_count = quick ? 14 : 40;
  for (std::size_t i = 0; i < tiny_count; ++i) {
    workloads::StreamGenOptions g;
    g.value_count = 40;
    g.tuple_count = 70;
    g.min_width = 2;
    g.max_width = 3;
    g.locality_window = 12;
    support::SplitMix64 rng(0x7191 + i);
    CompileRequest req;
    req.kind = RequestKind::kStream;
    req.module_count = 4;
    req.fu_count = 4;
    req.body = ir::format_stream(workloads::random_stream(g, rng));
    pool.entries.push_back({"tiny/" + std::to_string(i), std::move(req)});
  }
  pool.tiny = tiny_count;
  return pool;
}

/// Latest in-process CompileService per worker index, refreshed on respawn
/// so counters can be read from whichever incarnation is live.
struct ServiceTracker {
  std::mutex mu;
  std::vector<service::CompileService*> latest;
  std::vector<std::uint64_t> hits_before;  // hits from dead incarnations

  explicit ServiceTracker(std::size_t n) : latest(n, nullptr),
                                           hits_before(n, 0) {}

  WorkerFactory factory(std::size_t cache_entries,
                        const std::string& cache_root) {
    return [this, cache_entries, cache_root](std::uint32_t index,
                                             std::uint32_t) {
      service::ServiceOptions sopts;
      sopts.workers = 1;
      sopts.queue_capacity = 128;
      sopts.cache_max_entries = cache_entries;
      if (!cache_root.empty()) {
        sopts.cache_dir = cache_root + "/w" + std::to_string(index);
      }
      auto chan = spawn_inprocess_worker(sopts);
      std::lock_guard<std::mutex> lk(mu);
      if (latest[index] != nullptr) {
        // The previous incarnation is going away with the old channel;
        // bank its hit count so fleet totals stay monotonic.
        hits_before[index] += latest[index]->counters().cache_hits;
      }
      latest[index] = chan->service();
      return chan;
    };
  }

  std::uint64_t total_hits() {
    std::lock_guard<std::mutex> lk(mu);
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < latest.size(); ++i) {
      hits += hits_before[i];
      if (latest[i] != nullptr) hits += latest[i]->counters().cache_hits;
    }
    return hits;
  }
};

/// The --tcp sweep backend: one loopback serve_tcp_inprocess endpoint per
/// worker, connected through connect_tcp_worker — the same wire the
/// cross-host deployment uses, minus the physical network. The service
/// outlives reconnects (like a real daemon), so hit totals read straight
/// from the endpoints with no incarnation banking.
struct TcpFleet {
  std::vector<std::unique_ptr<TcpServerHandle>> servers;

  TcpFleet(std::size_t n, std::size_t cache_entries) {
    for (std::size_t i = 0; i < n; ++i) {
      service::ServiceOptions sopts;
      sopts.workers = 1;
      sopts.queue_capacity = 128;
      sopts.cache_max_entries = cache_entries;
      servers.push_back(serve_tcp_inprocess(sopts));
    }
  }

  WorkerFactory factory() {
    return [this](std::uint32_t index, std::uint32_t) {
      return connect_tcp_worker("127.0.0.1", servers[index]->port());
    };
  }

  std::uint64_t total_hits() const {
    std::uint64_t hits = 0;
    for (const auto& s : servers) {
      hits += s->service()->counters().cache_hits;
    }
    return hits;
  }
};

struct FleetResult {
  std::size_t workers = 0;
  std::size_t served = 0;
  double wall_s = 0;
  double qps = 0;
  telemetry::DurationStats lat;
  std::uint64_t cache_hits = 0;
  Router::Counters counters;
  bool all_ok = true;
};

FleetResult run_fleet(std::size_t n_workers, const Pool& pool,
                      std::size_t requests, std::size_t clients,
                      std::size_t cache_entries, bool tcp) {
  ServiceTracker tracker(n_workers);
  std::unique_ptr<TcpFleet> net;  // outlives rt: channels close first
  if (tcp) net = std::make_unique<TcpFleet>(n_workers, cache_entries);
  RouterOptions opts;
  opts.workers = n_workers;
  Router rt(opts, tcp ? net->factory()
                      : tracker.factory(cache_entries, ""));
  const auto fleet_hits = [&] {
    return tcp ? net->total_hits() : tracker.total_hits();
  };

  // Warmup: one pass over the pool, untimed. Every worker's LRU ends up
  // holding whatever slice of its shard fits — the steady state the timed
  // window then measures.
  for (std::size_t i = 0; i < pool.entries.size(); ++i) {
    CompileRequest req = pool.entries[i].req;
    req.id = 1 + i;
    rt.handle(std::move(req));
  }
  const std::uint64_t warm_hits = fleet_hits();

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> next_id{1000};
  std::atomic<bool> all_ok{true};
  std::vector<std::vector<std::uint64_t>> lat_ns(clients);

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Seeded per client, NOT per fleet: every fleet replays the same
      // request sequences, so the QPS ratio is not draw-mix noise.
      support::SplitMix64 rng(0xC11E57 + c);
      while (next.fetch_add(1, std::memory_order_relaxed) < requests) {
        CompileRequest req = pool.draw(rng).req;
        req.id = next_id.fetch_add(1, std::memory_order_relaxed);
        const auto s0 = Clock::now();
        const CompileResponse resp = rt.handle(std::move(req));
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - s0)
                .count());
        lat_ns[c].push_back(ns);
        if (!resp.ok()) all_ok.store(false, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  FleetResult r;
  r.workers = n_workers;
  r.served = requests;
  r.wall_s = wall_s;
  r.qps = wall_s > 0 ? static_cast<double>(requests) / wall_s : 0;
  std::vector<std::uint64_t> merged;
  for (auto& v : lat_ns) merged.insert(merged.end(), v.begin(), v.end());
  r.lat = telemetry::duration_stats(merged);
  r.cache_hits = fleet_hits() - warm_hits;
  r.counters = rt.counters();
  r.all_ok = all_ok.load();
  rt.drain();
  return r;
}

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void write_json(const std::string& path, const Pool& pool, bool quick,
                bool tcp, std::size_t requests, std::size_t clients,
                std::size_t cache_entries,
                const std::vector<FleetResult>& fleets, double scaling) {
  support::JsonWriter w;
  w.begin_object();
  w.member("bench", "service_load");
  w.member("quick", quick);
  w.member("transport", tcp ? "tcp" : "inprocess");
  w.member("clients", clients);
  w.member("requests_per_fleet", requests);
  w.member("per_worker_cache_entries", cache_entries);
  w.key("pool");
  w.begin_object();
  w.member("paper_keys", pool.paper);
  w.member("syn_large_keys", pool.syn);
  w.member("tiny_keys", pool.tiny);
  w.member("distinct_keys", pool.entries.size());
  w.member("mix", "45% paper / 10% syn_large / 45% tiny");
  w.end_object();
  w.key("fleets");
  w.begin_array();
  for (const FleetResult& r : fleets) {
    w.begin_object();
    w.member("workers", r.workers);
    w.member("served", r.served);
    w.member_fixed("wall_s", r.wall_s, 3);
    w.member_fixed("qps", r.qps, 1);
    w.member_fixed("p50_ms", to_ms(r.lat.p50_ns), 3);
    w.member_fixed("p99_ms", to_ms(r.lat.p99_ns), 3);
    w.member_fixed("p999_ms", to_ms(r.lat.p999_ns), 3);
    w.member_fixed("max_ms", to_ms(r.lat.max_ns), 3);
    w.member("cache_hits", r.cache_hits);
    w.member("spilled", r.counters.spilled);
    w.member("shed", r.counters.shed);
    w.member("worker_down", r.counters.worker_down);
    w.member("all_ok", r.all_ok);
    w.end_object();
  }
  w.end_array();
  w.member_fixed("qps_scaling_4w", scaling, 2);
  w.end_object();
  bench::write_report(path, w);
}

int run_sweep(bool quick, bool tcp, const std::string& out_path) {
  const Pool pool = build_pool(quick);
  const std::size_t requests = quick ? 240 : 1200;
  const std::size_t clients = quick ? 4 : 8;
  // A quarter of the working set per worker: one worker thrashes, four
  // workers collectively hold (nearly) everything.
  const std::size_t cache_entries = pool.entries.size() / 4;

  std::vector<FleetResult> fleets;
  bool all_ok = true;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    FleetResult r = run_fleet(n, pool, requests, clients, cache_entries,
                              tcp);
    std::printf(
        "fleet %zuw (%s): %zu reqs in %6.2fs  qps %7.1f  p50 %7.3f ms  "
        "p99 %8.3f ms  p999 %8.3f ms  hits %llu  %s\n",
        r.workers, tcp ? "tcp" : "inprocess", r.served, r.wall_s, r.qps,
        to_ms(r.lat.p50_ns),
        to_ms(r.lat.p99_ns), to_ms(r.lat.p999_ns),
        static_cast<unsigned long long>(r.cache_hits),
        r.all_ok ? "ok" : "FAILED RESPONSES");
    all_ok = all_ok && r.all_ok;
    fleets.push_back(std::move(r));
  }

  const double scaling =
      fleets[0].qps > 0 ? fleets[2].qps / fleets[0].qps : 0;
  write_json(out_path, pool, quick, tcp, requests, clients, cache_entries,
             fleets, scaling);
  std::printf("4-worker vs 1-worker qps scaling: %.2fx\n", scaling);
  std::printf("report written to %s\n", out_path.c_str());

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: some requests did not complete ok\n");
    return 1;
  }
  if (!quick && scaling < 2.5) {
    std::fprintf(stderr, "FAIL: 4-worker qps scaling %.2fx < 2.5x\n",
                 scaling);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --chaos: kill a worker mid-soak, assert delivery + recovery.

/// Parses `field N` out of the last "parmemd: cache hits ..." stderr line
/// of a worker log — the respawned incarnation's drain summary (a
/// SIGKILLed incarnation never prints one). Returns false when absent.
bool last_cache_stat(const std::string& log_path, const char* field,
                     std::uint64_t& value) {
  FILE* f = std::fopen(log_path.c_str(), "r");
  if (f == nullptr) return false;
  std::string last;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strstr(line, "parmemd: cache hits") != nullptr) last = line;
  }
  std::fclose(f);
  const std::string needle = std::string(field) + " ";
  const std::size_t pos = last.find(needle);
  if (pos == std::string::npos) return false;
  value = std::strtoull(last.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

int run_chaos(bool quick, const std::string& parmemd_path) {
  namespace fs = std::filesystem;
  const bool process_workers = !parmemd_path.empty();
  const Pool pool = build_pool(/*quick=*/true);
  const std::size_t requests = quick ? 300 : 900;
  const std::size_t clients = 6;
  constexpr std::size_t kWorkers = 3;

  char tmpl[] = "/tmp/parmem_chaos_XXXXXX";
  const char* root = ::mkdtemp(tmpl);
  if (root == nullptr) {
    std::fprintf(stderr, "FAIL: mkdtemp\n");
    return 1;
  }

  int rc = 0;
  {
    ServiceTracker tracker(kWorkers);
    RouterOptions opts;
    opts.workers = kWorkers;
    opts.retry.max_attempts = 6;
    WorkerFactory factory;
    if (process_workers) {
      const std::string root_s = root;
      factory = [parmemd_path, root_s](std::uint32_t index, std::uint32_t) {
        const std::string w = root_s + "/w" + std::to_string(index);
        return spawn_process_worker({parmemd_path, "--cache-dir", w},
                                    w + ".log");
      };
    } else {
      factory = tracker.factory(/*cache_entries=*/0, root);
    }
    Router rt(opts, std::move(factory));

    // Probe set: byte-identity baseline, compiled (and journaled) before
    // the kill. The victim is probe 0's ring owner, so at least one probe
    // key's journal lives in the directory the respawn re-opens.
    const std::size_t probe_count = 8;
    std::vector<std::string> baseline(probe_count);
    for (std::size_t i = 0; i < probe_count; ++i) {
      CompileRequest req = pool.entries[i % pool.entries.size()].req;
      req.id = 1 + i;
      const CompileResponse resp = rt.handle(std::move(req));
      if (!resp.ok()) {
        std::fprintf(stderr, "FAIL: probe %zu did not compile\n", i);
        rc = 1;
      }
      baseline[i] = resp.body;
    }
    const std::uint32_t victim = *rt.owner_of(
        service::cache_key(pool.entries[0].req));

    // Soak with a mid-run kill. Closed loop via handle(): a lost terminal
    // hangs a client (caught by the deadline below); a duplicated terminal
    // aborts inside the promise. Both violations fail the run loudly.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> next_id{1000};
    std::atomic<std::uint64_t> not_ok{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        support::SplitMix64 rng(0xC4405 + c);
        while (next.fetch_add(1, std::memory_order_relaxed) < requests) {
          CompileRequest req = pool.draw(rng).req;
          req.id = next_id.fetch_add(1, std::memory_order_relaxed);
          const CompileResponse resp = rt.handle(std::move(req));
          // Under a kill, attempts-exhausted kInternalError is a legal
          // terminal; anything else non-ok is not.
          if (!resp.ok() &&
              resp.status != service::ResponseStatus::kInternalError) {
            not_ok.fetch_add(1, std::memory_order_relaxed);
          }
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // Kill the victim once a third of the soak has completed.
    while (done.load(std::memory_order_relaxed) < requests / 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::printf("chaos: killing worker %u mid-soak\n", victim);
    rt.kill_worker(victim);

    // Zero lost terminals: every client must finish within the deadline.
    const auto deadline = Clock::now() + std::chrono::seconds(180);
    while (done.load(std::memory_order_relaxed) < requests &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (done.load() < requests) {
      std::fprintf(stderr, "FAIL: %zu terminal responses lost\n",
                   requests - done.load());
      std::exit(1);  // clients are wedged; no clean join possible
    }
    for (auto& t : threads) t.join();
    if (not_ok.load() != 0) {
      std::fprintf(stderr, "FAIL: %llu unexpected terminal statuses\n",
                   static_cast<unsigned long long>(not_ok.load()));
      rc = 1;
    }

    // The victim must come back.
    const auto respawn_deadline = Clock::now() + std::chrono::seconds(30);
    while (rt.alive_workers() < kWorkers &&
           Clock::now() < respawn_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const auto c = rt.counters();
    std::printf(
        "chaos: %zu served, worker_down %llu respawns %llu redriven %llu "
        "failed %llu\n",
        requests, static_cast<unsigned long long>(c.worker_down),
        static_cast<unsigned long long>(c.respawns),
        static_cast<unsigned long long>(c.redriven),
        static_cast<unsigned long long>(c.failed));
    if (rt.alive_workers() < kWorkers) {
      std::fprintf(stderr, "FAIL: fleet did not recover to %zu workers\n",
                   kWorkers);
      rc = 1;
    }
    if (c.worker_down < 1 || c.respawns < 1) {
      std::fprintf(stderr, "FAIL: kill was not observed as a worker death\n");
      rc = 1;
    }

    // Warm restart: the victim's new incarnation loaded its journal.
    // (Process workers print their cache stats on graceful drain, so that
    // half of the assert runs after rt.drain() below.)
    if (!process_workers) {
      std::lock_guard<std::mutex> lk(tracker.mu);
      const auto cs = tracker.latest[victim]->cache().stats();
      if (cs.loaded == 0) {
        std::fprintf(stderr,
                     "FAIL: respawned worker loaded no journal entries\n");
        rc = 1;
      }
    }

    // Byte-identity + cache-hit recovery: the probes must replay exactly,
    // and the victim must serve its shard from the reloaded cache.
    const std::uint64_t victim_hits_before = [&] {
      if (process_workers) return std::uint64_t{0};
      std::lock_guard<std::mutex> lk(tracker.mu);
      return tracker.latest[victim]->counters().cache_hits;
    }();
    for (std::size_t i = 0; i < probe_count; ++i) {
      CompileRequest req = pool.entries[i % pool.entries.size()].req;
      req.id = 100000 + i;
      const CompileResponse resp = rt.handle(std::move(req));
      if (!resp.ok() || resp.body != baseline[i]) {
        std::fprintf(stderr,
                     "FAIL: probe %zu not byte-identical after respawn\n",
                     i);
        rc = 1;
      }
    }
    if (!process_workers) {
      const std::uint64_t victim_hits_after = [&] {
        std::lock_guard<std::mutex> lk(tracker.mu);
        return tracker.latest[victim]->counters().cache_hits;
      }();
      if (victim_hits_after <= victim_hits_before) {
        std::fprintf(stderr,
                     "FAIL: respawned worker served no cache hits\n");
        rc = 1;
      }
    }
    rt.drain();

    if (process_workers) {
      // The respawned victim has now drained gracefully and appended its
      // summary to the shared per-worker log.
      const std::string log =
          std::string(root) + "/w" + std::to_string(victim) + ".log";
      std::uint64_t loaded = 0, hits = 0;
      if (!last_cache_stat(log, "loaded", loaded) || loaded == 0) {
        std::fprintf(stderr,
                     "FAIL: respawned parmemd loaded no journal entries\n");
        rc = 1;
      }
      if (!last_cache_stat(log, "hits", hits) || hits == 0) {
        std::fprintf(stderr,
                     "FAIL: respawned parmemd served no cache hits\n");
        rc = 1;
      }
    }
  }

  std::error_code ec;
  fs::remove_all(root, ec);
  if (rc == 0) std::printf("chaos: OK\n");
  return rc;
}

// ---------------------------------------------------------------------------
// --chaos --tcp: the cross-host fault model over real TCP connections.

/// Parses the bound port out of the last "parmemd: listening on HOST:PORT"
/// line of a daemon's stderr log (the line parmemd prints for exactly this
/// purpose). Returns false while the daemon has not bound yet.
bool last_listen_port(const std::string& log_path, std::uint16_t& port) {
  FILE* f = std::fopen(log_path.c_str(), "r");
  if (f == nullptr) return false;
  std::string last;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strstr(line, "parmemd: listening on ") != nullptr) last = line;
  }
  std::fclose(f);
  const std::size_t colon = last.rfind(':');
  if (colon == std::string::npos) return false;
  const unsigned long v = std::strtoul(last.c_str() + colon + 1, nullptr, 10);
  if (v == 0 || v > 65535) return false;
  port = static_cast<std::uint16_t>(v);
  return true;
}

/// fork/execs `parmemd --listen-tcp spec --cache-dir cache_dir` with stderr
/// appended to log_path (all incarnations of a restarted daemon share one
/// log, like the socketpair chaos harness). Returns -1 on fork failure.
pid_t spawn_parmemd_tcp(const std::string& parmemd, const std::string& spec,
                        const std::string& cache_dir,
                        const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
    }
    const int log =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::execl(parmemd.c_str(), parmemd.c_str(), "--listen-tcp", spec.c_str(),
            "--cache-dir", cache_dir.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

/// One TCP worker endpoint the harness can kill and restart at a stable
/// port: an in-process serve_tcp_inprocess by default, a real
/// `parmemd --listen-tcp` process with --parmemd.
struct TcpEndpoint {
  std::unique_ptr<TcpServerHandle> server;
  pid_t pid = -1;
  std::uint16_t port = 0;  // assigned on first start, reused on restart
};

int run_tcp_chaos(bool quick, const std::string& parmemd_path) {
  namespace fs = std::filesystem;
  const bool process_workers = !parmemd_path.empty();
  const Pool pool = build_pool(/*quick=*/true);
  const std::size_t requests = quick ? 300 : 900;
  const std::size_t clients = 6;
  constexpr std::size_t kWorkers = 3;

  char tmpl[] = "/tmp/parmem_tcpchaos_XXXXXX";
  const char* root = ::mkdtemp(tmpl);
  if (root == nullptr) {
    std::fprintf(stderr, "FAIL: mkdtemp\n");
    return 1;
  }
  const std::string root_s = root;

  std::array<TcpEndpoint, kWorkers> eps;
  const auto start_endpoint = [&](std::size_t i) -> bool {
    const std::string dir = root_s + "/w" + std::to_string(i);
    if (process_workers) {
      const std::string log = dir + ".log";
      const std::string spec = "127.0.0.1:" + std::to_string(eps[i].port);
      eps[i].pid = spawn_parmemd_tcp(parmemd_path, spec, dir, log);
      if (eps[i].pid < 0) return false;
      if (eps[i].port != 0) return true;  // restart: address already known
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      while (!last_listen_port(log, eps[i].port) &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return eps[i].port != 0;
    }
    service::ServiceOptions sopts;
    sopts.workers = 1;
    sopts.queue_capacity = 128;
    sopts.cache_dir = dir;
    eps[i].server = serve_tcp_inprocess(sopts, "127.0.0.1", eps[i].port);
    eps[i].port = eps[i].server->port();
    return eps[i].port != 0;
  };
  // SIGKILL for a daemon, stop() for an in-process endpoint: either way the
  // listener vanishes and any live connection drops mid-frame.
  const auto stop_endpoint = [&](std::size_t i) {
    if (process_workers) {
      if (eps[i].pid > 0) {
        ::kill(eps[i].pid, SIGKILL);
        int st = 0;
        ::waitpid(eps[i].pid, &st, 0);
        eps[i].pid = -1;
      }
    } else if (eps[i].server != nullptr) {
      eps[i].server->stop();
      eps[i].server.reset();
    }
  };

  for (std::size_t i = 0; i < kWorkers; ++i) {
    if (!start_endpoint(i)) {
      std::fprintf(stderr, "FAIL: endpoint %zu did not come up\n", i);
      return 1;
    }
  }

  int rc = 0;
  {
    RouterOptions opts;
    opts.workers = kWorkers;
    opts.supervisor_poll_ms = 2;
    opts.heartbeat_period_ms = 100;  // heartbeats ride the TCP connection
    opts.heartbeat_timeout_ms = 5000;
    opts.respawn_base_ms = 10;
    opts.respawn_cap_ms = 150;
    // Wide enough to ride out the restart window below, small enough that
    // the permanently stopped endpoint fails within ~2s of soak time.
    opts.max_respawns = 12;
    opts.retry.max_attempts = 8;
    opts.retry.base_backoff_ms = 2;
    opts.retry.max_backoff_ms = 40;
    // No shard migrator: journals live with the (conceptually remote)
    // daemons, as in parmem-router --tcp. The rebalance asserts below are
    // about ring retirement and survivor service; journal migration is the
    // local-fleet path, covered by rebalance_test and --chaos.
    WorkerFactory factory = [&eps](std::uint32_t index, std::uint32_t) {
      TcpChannelOptions topts;
      topts.connect_timeout_ms = 1000;
      topts.connect_attempts = 1;  // respawn backoff paces the reconnects
      return connect_tcp_worker("127.0.0.1", eps[index].port, topts);
    };
    Router rt(opts, std::move(factory));

    // Byte-identity baselines, journaled before any fault. Probe 0's ring
    // owner is the permanent victim, so keys that must re-home exist.
    const std::size_t probe_count = 8;
    std::vector<std::string> baseline(probe_count);
    for (std::size_t i = 0; i < probe_count; ++i) {
      CompileRequest req = pool.entries[i % pool.entries.size()].req;
      req.id = 1 + i;
      const CompileResponse resp = rt.handle(std::move(req));
      if (!resp.ok()) {
        std::fprintf(stderr, "FAIL: probe %zu did not compile\n", i);
        rc = 1;
      }
      baseline[i] = resp.body;
    }
    const std::uint32_t perm_victim =
        *rt.owner_of(service::cache_key(pool.entries[0].req));
    const std::uint32_t restart_victim = (perm_victim + 1) % kWorkers;

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> next_id{1000};
    std::atomic<std::uint64_t> bad_status{0};
    std::atomic<std::uint64_t> overloaded{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        support::SplitMix64 rng(0x7C9005 + c);
        while (next.fetch_add(1, std::memory_order_relaxed) < requests) {
          CompileRequest req = pool.draw(rng).req;
          req.id = next_id.fetch_add(1, std::memory_order_relaxed);
          const CompileResponse resp = rt.handle(std::move(req));
          // Legal chaos terminals: ok, attempts-exhausted kInternalError,
          // and (transiently, while two endpoints are down at once)
          // admission-shed kOverloaded. Anything else is a protocol bug.
          if (resp.status == service::ResponseStatus::kOverloaded) {
            overloaded.fetch_add(1, std::memory_order_relaxed);
          } else if (!resp.ok() && resp.status !=
                                       service::ResponseStatus::kInternalError) {
            bad_status.fetch_add(1, std::memory_order_relaxed);
          }
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    const auto wait_done = [&](std::size_t target) {
      while (done.load(std::memory_order_relaxed) < target) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };

    // Fault 1: pull every live connection mid-soak (in-process endpoints
    // only — a SIGKILL below is the process-mode equivalent). Reconnect +
    // death-sweep re-drive must absorb all of them.
    wait_done(requests / 4);
    if (!process_workers) {
      for (std::size_t k = 0; k < kWorkers; ++k) {
        eps[k].server->drop_connection();
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
      }
      std::printf("tcp-chaos: dropped every worker connection mid-soak\n");
    }

    // Fault 2: kill one endpoint and restart it at the same address. The
    // router's reconnect loop must find the journal-warmed successor.
    wait_done(requests / 3);
    std::printf("tcp-chaos: killing worker %u, restarting at port %u\n",
                restart_victim, eps[restart_victim].port);
    stop_endpoint(restart_victim);
    if (!start_endpoint(restart_victim)) {
      std::fprintf(stderr, "FAIL: endpoint %u did not restart\n",
                   restart_victim);
      rc = 1;
    }

    // Fault 3: stop another endpoint for good — the permanent failure that
    // must drive the slot through max_respawns into a rebalance.
    wait_done(requests / 2);
    std::printf("tcp-chaos: stopping worker %u permanently\n", perm_victim);
    stop_endpoint(perm_victim);

    // Zero lost terminals: every client finishes within the deadline.
    const auto deadline = Clock::now() + std::chrono::seconds(240);
    while (done.load(std::memory_order_relaxed) < requests &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (done.load() < requests) {
      std::fprintf(stderr, "FAIL: %zu terminal responses lost\n",
                   requests - done.load());
      std::exit(1);  // clients are wedged; no clean join possible
    }
    for (auto& t : threads) t.join();
    if (bad_status.load() != 0) {
      std::fprintf(stderr, "FAIL: %llu unexpected terminal statuses\n",
                   static_cast<unsigned long long>(bad_status.load()));
      rc = 1;
    }

    // The permanent failure must surface as a deterministic rebalance.
    const auto rebalance_deadline = Clock::now() + std::chrono::seconds(30);
    while (rt.counters().rebalanced < 1 &&
           Clock::now() < rebalance_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (rt.counters().rebalanced != 1 ||
        rt.workers()[perm_victim].state != Router::WorkerState::kFailed) {
      std::fprintf(stderr,
                   "FAIL: stopped endpoint was not retired as failed\n");
      rc = 1;
    }
    std::vector<std::uint32_t> survivors;
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      if (w != perm_victim) survivors.push_back(w);
    }
    if (rt.ring_workers() != survivors) {
      std::fprintf(stderr, "FAIL: live ring is not exactly the survivors\n");
      rc = 1;
    }
    // The rebalanced assignment is a pure function of the survivor set: it
    // must match a ring built directly over the survivors, which also pins
    // it across runs and across hosts.
    HashRing fresh(kWorkers, kDefaultVirtualNodes);
    fresh.remove_worker(perm_victim);
    std::string owners;
    owners.reserve(4096);
    for (std::uint64_t key = 0; key < 4096; ++key) {
      const auto owner = fresh.owner(key);
      owners.push_back(owner.has_value() ? static_cast<char>(*owner)
                                         : '\xff');
    }
    if (rt.ring_digest() != support::fnv1a64(owners)) {
      std::fprintf(stderr,
                   "FAIL: rebalanced ring digest is not the fresh-ring "
                   "digest over the survivors\n");
      rc = 1;
    }

    // Both survivors (including the restarted one) must be serving.
    const auto alive_deadline = Clock::now() + std::chrono::seconds(30);
    while (rt.alive_workers() < kWorkers - 1 &&
           Clock::now() < alive_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (rt.alive_workers() < kWorkers - 1) {
      std::fprintf(stderr, "FAIL: fleet did not recover to %zu workers\n",
                   kWorkers - 1);
      rc = 1;
    }

    // Byte identity across the whole fault sequence, with the permanent
    // victim's keys served by their new ring owners.
    for (std::size_t i = 0; i < probe_count; ++i) {
      CompileRequest req = pool.entries[i % pool.entries.size()].req;
      req.id = 100000 + i;
      const auto owner = rt.owner_of(service::cache_key(req));
      if (!owner.has_value() || *owner == perm_victim) {
        std::fprintf(stderr, "FAIL: probe %zu still owned by the failed "
                             "slot\n", i);
        rc = 1;
      }
      const CompileResponse resp = rt.handle(std::move(req));
      if (!resp.ok() || resp.body != baseline[i]) {
        std::fprintf(stderr,
                     "FAIL: probe %zu not byte-identical after chaos\n", i);
        rc = 1;
      }
    }

    const auto c = rt.counters();
    std::printf(
        "tcp-chaos: %zu served, worker_down %llu respawns %llu redriven "
        "%llu failed %llu shed %llu rebalanced %llu protocol_errors %llu\n",
        requests, static_cast<unsigned long long>(c.worker_down),
        static_cast<unsigned long long>(c.respawns),
        static_cast<unsigned long long>(c.redriven),
        static_cast<unsigned long long>(c.failed),
        static_cast<unsigned long long>(c.shed),
        static_cast<unsigned long long>(c.rebalanced),
        static_cast<unsigned long long>(c.protocol_errors));
    if (overloaded.load() != 0) {
      std::printf("tcp-chaos: %llu requests shed while two endpoints were "
                  "down\n",
                  static_cast<unsigned long long>(overloaded.load()));
    }
    if (c.worker_down < 2 || c.respawns < 1) {
      std::fprintf(stderr,
                   "FAIL: kills were not observed as worker deaths\n");
      rc = 1;
    }

    // Warm-restart identity: the restarted endpoint's fresh service loaded
    // the journal its killed predecessor wrote.
    if (!process_workers) {
      const auto cs =
          eps[restart_victim].server->service()->cache().stats();
      if (cs.loaded == 0) {
        std::fprintf(stderr,
                     "FAIL: restarted endpoint loaded no journal entries\n");
        rc = 1;
      }
    }
    rt.drain();

    if (process_workers) {
      // Graceful stop flushes the restarted daemon's cache summary; its
      // loaded count proves the journal-warmed restart.
      ::kill(eps[restart_victim].pid, SIGTERM);
      int st = 0;
      ::waitpid(eps[restart_victim].pid, &st, 0);
      eps[restart_victim].pid = -1;
      const std::string log =
          root_s + "/w" + std::to_string(restart_victim) + ".log";
      std::uint64_t loaded = 0;
      if (!last_cache_stat(log, "loaded", loaded) || loaded == 0) {
        std::fprintf(stderr,
                     "FAIL: restarted parmemd loaded no journal entries\n");
        rc = 1;
      }
    }
  }

  for (std::size_t i = 0; i < kWorkers; ++i) stop_endpoint(i);
  std::error_code ec;
  fs::remove_all(root, ec);
  if (rc == 0) std::printf("tcp-chaos: OK\n");
  return rc;
}

}  // namespace
}  // namespace parmem::router

int main(int argc, char** argv) {
  bool quick = false;
  bool chaos = false;
  bool tcp = false;
  std::string parmemd_path;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--tcp") == 0) {
      tcp = true;
    } else if (std::strcmp(argv[i], "--parmemd") == 0 && i + 1 < argc) {
      parmemd_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: service_load [--quick] [--chaos] [--tcp] "
                   "[--parmemd PATH] [--out PATH]\n");
      return 1;
    }
  }
  if (chaos && tcp) return parmem::router::run_tcp_chaos(quick, parmemd_path);
  if (chaos) return parmem::router::run_chaos(quick, parmemd_path);
  return parmem::router::run_sweep(quick, tcp, out_path);
}
