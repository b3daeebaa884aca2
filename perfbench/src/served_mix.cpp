// served_mix: closed loops from one generator thread into router::Router,
// over two in-process workers (router::spawn_inprocess_worker). Each worker
// is a service::CompileService with 1 compile worker and two on-disk
// journals: a result cache with an LRU cap below the number of distinct
// keys, and the incremental atom cache.
//
// The traffic is the request model of bench/service_load (BENCH_service.json),
// drawn from --served-seed with the same class shares and generators:
//   45%  the six paper programs (MC source), here at k = 4 and 8 -> 12 keys;
//   10%  syn_large-class modular streams (6 blocks x 80 values x 220
//        tuples) -> 6 keys, plus one one-block edit of each -> 6 more keys:
//        an edit is a result-cache miss whose atoms the atom cache has
//        mostly seen;
//   45%  tiny synthetic streams (40 values, 70 tuples, k = 4) -> 40 keys.
// Within a class every key is equally likely. Each worker's LRU cap is a
// quarter of the distinct keys, service_load's per-worker budget, so some
// requests are result-cache reads and the rest are compiles plus journal
// writes and evictions. Three departures from service_load: k = 12 is left
// out (the paper programs run at k = 4 and 8); the edits are new (the atom
// cache postdates service_load's mix); and the class shares are dealt in
// seeded blocks of 20 requests instead of drawn (the key within a class is
// still drawn independently).
//
// Loads are closed loops with 1 (low) and 4 (high) requests outstanding,
// and 8 (service_load's client count) for the saturated throughput. An open
// loop at fixed rates was tried first: on a shared 4-vCPU host whose speed
// drifted by up to 30% between runs, queueing near the knee amplified the
// drift and p99 spread 0.3-1.2 (quartile distance over median) across
// seeds; the closed loop cannot overload.
//
// This is the only workload that reaches router, service and cache. Cache
// writes sit beside cache reads, so a change that speeds hits but slows
// stores shows up. Set-up compiles every pool entry directly through the
// library; every served response is checked against those references.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "assign/verify.h"
#include "ir/stream_io.h"
#include "layers.h"
#include "ledger.h"
#include "router/router.h"
#include "service/request.h"
#include "service/server.h"
#include "support/rng.h"
#include "telemetry/session.h"
#include "workload.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace parmem;
namespace fs = std::filesystem;
using service::CompileRequest;
using service::CompileResponse;

// Closed-loop concurrency: requests kept outstanding at the low and high
// loads, and when measuring the fleet's saturated throughput.
constexpr std::size_t kLowClients = 1;
constexpr std::size_t kHighClients = 4;
constexpr std::size_t kMaxClients = 8;  // service_load's client count
// An untraced run is kRounds rounds of kDirectPasses direct compile passes
// over the pool, then one slice of each load. A round's slices take these
// shares of seconds / kRounds; the passes and the drains after the slices
// take the rest, about a sixth.
constexpr int kRounds = 3;
constexpr int kDirectPasses = 4;
constexpr double kLowShare = 0.05;
constexpr double kHighShare = 0.35;
constexpr double kSatShare = 0.45;
// Yardstick units run before and after each load slice to scale it, and in
// a direct pass before every kEntriesPerUnit-th pool entry.
constexpr int kSliceUnits = 6;
constexpr std::size_t kEntriesPerUnit = 4;

/// The traffic classes, with service_load's shares.
enum class Class : std::uint8_t { kPaper, kSyn, kTiny };

struct Entry {
  std::string name;
  CompileRequest req;
  Class cls = Class::kTiny;
  bool mc = false;
  // References from a direct library compile.
  std::uint64_t fingerprint = 0;           // MC: compiled_fingerprint
  std::vector<assign::ModuleSet> placement;  // streams
  std::vector<bool> removed;
  std::uint64_t copies = 0;
  std::uint64_t liw_cycles = 0;  // MC only
  double compile_ms = 0;
};

Entry stream_entry(std::string name, const ir::AccessStream& s,
                   std::size_t k, Class cls) {
  Entry e;
  e.name = std::move(name);
  e.cls = cls;
  e.req.kind = service::RequestKind::kStream;
  e.req.module_count = k;
  e.req.fu_count = k;
  e.req.body = ir::format_stream(s);
  return e;
}

/// One-block edit: one operand of one tuple of block `block` is replaced
/// by another value of the same block. Every other block is unchanged.
ir::AccessStream edit_block(ir::AccessStream s, std::uint32_t block,
                            support::SplitMix64& rng) {
  std::vector<std::size_t> in_block;
  std::set<ir::ValueId> values;
  for (std::size_t t = 0; t < s.tuples.size(); ++t) {
    if (s.tuples[t].region != block) continue;
    in_block.push_back(t);
    values.insert(s.tuples[t].operands.begin(), s.tuples[t].operands.end());
  }
  const std::vector<ir::ValueId> pool(values.begin(), values.end());
  for (;;) {
    auto& ops = s.tuples[in_block[rng.below(in_block.size())]].operands;
    const ir::ValueId v = pool[rng.below(pool.size())];
    if (std::find(ops.begin(), ops.end(), v) != ops.end()) continue;
    ops[rng.below(ops.size())] = v;
    std::sort(ops.begin(), ops.end());
    return s;
  }
}

/// Every distinct request of the mix (64 keys): service_load's pool at
/// k = 4 and 8, plus one one-block edit of each modular stream.
std::vector<Entry> make_pool(const RunConfig& cfg) {
  std::vector<Entry> pool;
  for (const auto& wl : workloads::all_workloads()) {
    for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
      Entry e;
      e.name = wl.name + "/k" + std::to_string(k);
      e.req.kind = service::RequestKind::kMc;
      e.req.module_count = k;
      e.req.fu_count = 8;
      e.req.body = wl.source;
      e.mc = true;
      e.cls = Class::kPaper;
      pool.push_back(std::move(e));
    }
  }
  std::vector<ir::AccessStream> syn;
  for (std::size_t i = 0; i < 6; ++i) {
    workloads::ModularStreamOptions g;
    g.block_count = 6;
    g.values_per_block = 80;
    g.tuples_per_block = 220;
    support::SplitMix64 rng(cfg.served_seed + i);
    syn.push_back(workloads::modular_stream(g, rng));
    pool.push_back(stream_entry("syn_large/" + std::to_string(i), syn.back(),
                                8, Class::kSyn));
  }
  for (std::size_t i = 0; i < syn.size(); ++i) {
    support::SplitMix64 rng(cfg.served_seed + 0x200 + i);
    const auto block = static_cast<std::uint32_t>(rng.below(6));
    pool.push_back(stream_entry(
        "syn_large/" + std::to_string(i) + "/edit" + std::to_string(block),
        edit_block(syn[i], block, rng), 8, Class::kSyn));
  }
  for (std::size_t i = 0; i < 40; ++i) {
    workloads::StreamGenOptions g;
    g.value_count = 40;
    g.tuple_count = 70;
    g.min_width = 2;
    g.max_width = 3;
    g.locality_window = 12;
    support::SplitMix64 rng(cfg.served_seed + 0x100 + i);
    pool.push_back(stream_entry("tiny/" + std::to_string(i),
                                workloads::random_stream(g, rng), 4,
                                Class::kTiny));
  }
  return pool;
}

/// Compiles `e` directly through the library with the options the service
/// derives from the request (its defaults: no budget, legacy schedule).
void compute_reference(Entry& e) {
  const std::uint64_t t0 = now_ns();
  if (e.mc) {
    analysis::PipelineOptions o;
    o.assign.module_count = e.req.module_count;
    o.sched.module_count = e.req.module_count;
    o.sched.fu_count = e.req.fu_count;
    o.source_name = "<service>";
    const analysis::Compiled c = analysis::compile_mc(e.req.body, o);
    e.compile_ms = static_cast<double>(now_ns() - t0) / 1e6;
    e.fingerprint = analysis::compiled_fingerprint(c);
    e.copies = c.assignment.stats.total_copies;
    machine::MachineConfig mc;
    mc.fu_count = e.req.fu_count;
    mc.module_count = e.req.module_count;
    e.liw_cycles = analysis::run_and_check(c, mc).liw.cycles;
  } else {
    const ir::AccessStream s = ir::parse_stream(e.req.body, "<service>");
    assign::AssignOptions o;
    o.module_count = e.req.module_count;
    const assign::AssignResult r = assign::assign_modules(s, o);
    e.compile_ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (!assign::verify_assignment(s, r).ok()) {
      throw std::runtime_error(e.name + ": reference not conflict-free");
    }
    e.placement = r.placement;
    e.removed = r.removed;
    e.copies = r.stats.total_copies;
  }
}

/// Compiles every pool entry directly once more, in an order drawn from
/// `rng`, running yardstick units on `ys` between entries; returns the
/// pass's wall time in seconds, appends (entry, wall ms) to `entry_ms`, and
/// checks that each entry reproduces its set-up reference.
double direct_pass(const std::vector<Entry>& pool, support::SplitMix64& rng,
                   Yardstick& ys,
                   std::vector<std::pair<std::size_t, double>>& entry_ms,
                   Outcome& out) {
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  double pass_ms = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    Entry e = pool[i];
    ++out.attempted;
    if (k % kEntriesPerUnit == 0) ys.run(1);
    compute_reference(e);
    if (e.fingerprint != pool[i].fingerprint ||
        e.placement != pool[i].placement || e.copies != pool[i].copies ||
        e.liw_cycles != pool[i].liw_cycles) {
      out.wrong(e.name + ": direct compile differs from its reference");
      out.fail_op(e.name + ": nondeterministic direct compile");
    }
    pass_ms += e.compile_ms;
    entry_ms.emplace_back(i, e.compile_ms);
  }
  return pass_ms / 1e3;
}

/// Does a served stream artifact ("value <id>: M<m> ... [(duplicated)]"
/// lines) carry exactly the reference placement?
bool placement_matches(const Entry& e, const std::string& body) {
  std::vector<assign::ModuleSet> placement(e.placement.size(), 0);
  std::vector<bool> removed(e.removed.size(), false);
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("value ", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    const std::size_t v = std::stoul(line.substr(6, colon - 6));
    if (v >= placement.size()) return false;
    for (std::size_t m = line.find(" M", colon); m != std::string::npos;
         m = line.find(" M", m + 2)) {
      placement[v] |= assign::ModuleSet{1} << std::stoul(line.substr(m + 2));
    }
    removed[v] = line.find("(duplicated)") != std::string::npos;
  }
  return placement == e.placement && removed == e.removed;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// The fleet: a router over two in-process workers, with a handle on each
/// worker's CompileService for its counters and cache statistics.
class Fleet {
 public:
  Fleet(const fs::path& dir, std::size_t lru_entries) : dir_(dir) {
    router::RouterOptions ro;
    ro.workers = 2;
    router_ = std::make_unique<router::Router>(
        ro, [this, lru_entries](std::uint32_t index, std::uint32_t) {
          service::ServiceOptions so;
          so.workers = 1;
          so.cache_dir = (dir_ / ("w" + std::to_string(index)) / "results");
          so.cache_max_entries = lru_entries;
          so.incremental = true;
          so.atom_cache_dir =
              (dir_ / ("w" + std::to_string(index)) / "atoms");
          auto chan = router::spawn_inprocess_worker(so);
          std::lock_guard<std::mutex> lk(mu_);
          services_.resize(std::max<std::size_t>(services_.size(), index + 1));
          services_[index] = chan->service();
          return chan;
        });
  }
  router::Router& router() { return *router_; }
  std::vector<service::CompileService*> services() {
    std::lock_guard<std::mutex> lk(mu_);
    return services_;
  }

 private:
  fs::path dir_;
  std::mutex mu_;
  std::vector<service::CompileService*> services_;
  std::unique_ptr<router::Router> router_;  // last: stops before the above
};

/// Everything one closed-loop phase observed.
struct Phase {
  std::vector<double> latency_ms;  // completed requests, in send order
  /// Requests completed inside the sending window, and its length.
  std::size_t in_window = 0;
  double window_s = 0;

  void merge(const Phase& p) {
    latency_ms.insert(latency_ms.end(), p.latency_ms.begin(),
                      p.latency_ms.end());
    in_window += p.in_window;
    window_s += p.window_s;
  }
  /// Scales every time (latencies and the window) by `k`.
  void scale(double k) {
    for (double& ms : latency_ms) ms *= k;
    window_s *= k;
  }
};

/// Drives the open loop and checks every response.
class LoadGen {
 public:
  LoadGen(std::vector<Entry>& pool, Fleet& fleet, std::uint64_t seed)
      : pool_(pool), fleet_(fleet), rng_(seed) {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      (pool_[i].cls == Class::kPaper ? paper_
       : pool_[i].cls == Class::kSyn ? syn_
                                     : tiny_)
          .push_back(i);
    }
  }

  /// Keeps `clients` requests outstanding for `seconds` (each terminal
  /// response releases the next send), then waits until every request sent
  /// has its terminal response. `on_tick` runs on the generator thread
  /// while it waits.
  template <typename Tick>
  Phase run(std::size_t clients, double seconds, Outcome& out,
            Tick&& on_tick) {
    Phase ph;
    auto state = std::make_shared<PhaseState>();
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    ph.window_s = seconds;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(state->mu);
        while (state->sent - state->done >= clients && now_ns() < end) {
          state->cv.wait_for(lk, std::chrono::milliseconds(10));
          lk.unlock();
          on_tick();
          lk.lock();
        }
      }
      if (now_ns() >= end) break;
      send(pick(), state);
      sample();
    }
    std::unique_lock<std::mutex> lk(state->mu);
    while (state->done < state->sent) {
      state->cv.wait_for(lk, std::chrono::milliseconds(10));
      lk.unlock();
      on_tick();
      lk.lock();
    }
    for (const Record& r : state->records) {
      ++out.attempted;
      if (r.terminals != 1) {
        out.fail_op("request " + std::to_string(r.id) + " got " +
                    std::to_string(r.terminals) + " terminal responses");
        continue;
      }
      if (!r.ok) {
        if (r.wrong) out.wrong(pool_[r.entry].name + ": " + r.why);
        out.fail_op(pool_[r.entry].name + ": " + r.why);
        continue;
      }
      ph.latency_ms.push_back(static_cast<double>(r.done_ns - r.sent_ns) / 1e6);
      if (r.done_ns < end) ++ph.in_window;
    }
    return ph;
  }

  /// Responses per (entry, fingerprint): each distinct stream artifact is
  /// parsed against the reference once.
  void check_stream_artifacts(Outcome& out) {
    for (const auto& [key, body] : stream_bodies_) {
      const Entry& e = pool_[key.first];
      if (service::fnv1a64(body) != key.second || !placement_matches(e, body)) {
        out.wrong(e.name + ": served placement differs from the reference");
      }
    }
  }

  std::size_t pending_max() const { return pending_max_; }
  std::size_t queue_depth_max() const { return queue_depth_max_; }
  const std::map<std::pair<std::size_t, std::uint64_t>, std::string>&
  stream_bodies() const {
    return stream_bodies_;
  }

 private:
  struct Record {
    std::uint64_t id = 0;
    std::size_t entry = 0;
    std::uint64_t sent_ns = 0;
    std::uint64_t done_ns = 0;
    int terminals = 0;
    bool ok = false;
    bool wrong = false;  // a response that differs from the reference
    std::string why;
  };
  struct PhaseState {
    std::mutex mu;
    std::condition_variable cv;   // signalled on every terminal response
    std::vector<Record> records;  // index = send slot
    std::size_t sent = 0;
    std::size_t done = 0;
  };

  /// service_load's shares, 45% paper, 10% syn_large, 45% tiny, dealt
  /// exactly: every 20 requests hold 9 paper, 2 syn_large and 9 tiny ones in
  /// a seeded order, so the class mix of a run does not vary with the seed.
  /// The key is uniform within its class.
  std::size_t pick() {
    if (deck_next_ == deck_.size()) {
      deck_.clear();
      deck_.insert(deck_.end(), 9, &paper_);
      deck_.insert(deck_.end(), 2, &syn_);
      deck_.insert(deck_.end(), 9, &tiny_);
      for (std::size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.below(i)]);
      }
      deck_next_ = 0;
    }
    const std::vector<std::size_t>& cls = *deck_[deck_next_++];
    return cls[rng_.below(cls.size())];
  }

  void send(std::size_t entry, const std::shared_ptr<PhaseState>& state) {
    CompileRequest req = pool_[entry].req;
    req.id = next_id_++;
    std::size_t slot;
    {
      std::lock_guard<std::mutex> lk(state->mu);
      slot = state->records.size();
      state->records.push_back({});
      Record& rec = state->records.back();
      rec.id = req.id;
      rec.entry = entry;
      rec.sent_ns = now_ns();
      ++state->sent;
    }
    fleet_.router().submit(std::move(req), [this, state, slot,
                                            entry](const CompileResponse& r) {
      const std::uint64_t done = now_ns();
      const Entry& e = pool_[entry];
      bool ok = r.status == service::ResponseStatus::kOk;
      std::string why = ok ? "" : std::string("status ") +
                                      service::response_status_name(r.status) +
                                      " " + r.diagnostic;
      const bool wrong = ok && e.mc && r.fingerprint != e.fingerprint;
      if (wrong) {
        ok = false;
        why = "fingerprint differs from the set-up reference";
      }
      if (ok && !e.mc) {
        std::lock_guard<std::mutex> lk(bodies_mu_);
        stream_bodies_.try_emplace({entry, r.fingerprint}, r.body);
      }
      std::lock_guard<std::mutex> lk(state->mu);
      Record& rec = state->records[slot];
      rec.done_ns = done;
      rec.ok = ok;
      rec.wrong = wrong;
      rec.why = std::move(why);
      if (++rec.terminals == 1) ++state->done;
      state->cv.notify_all();
    });
  }

  void sample() {
    pending_max_ = std::max(pending_max_, fleet_.router().pending());
    for (service::CompileService* s : fleet_.services()) {
      if (s != nullptr) queue_depth_max_ = std::max(queue_depth_max_, s->queue_depth());
    }
  }

  std::vector<Entry>& pool_;
  Fleet& fleet_;
  support::SplitMix64 rng_;
  std::vector<std::size_t> paper_, syn_, tiny_;
  std::vector<const std::vector<std::size_t>*> deck_;
  std::size_t deck_next_ = 0;
  std::uint64_t next_id_ = 1;
  std::mutex bodies_mu_;
  std::map<std::pair<std::size_t, std::uint64_t>, std::string> stream_bodies_;
  std::size_t pending_max_ = 0;
  std::size_t queue_depth_max_ = 0;
};

/// Mean microseconds per PMF1 codec call over every pool request and every
/// distinct served artifact.
double codec_us(const std::vector<Entry>& pool,
                const std::map<std::pair<std::size_t, std::uint64_t>,
                               std::string>& bodies) {
  std::vector<CompileResponse> responses;
  for (const auto& [key, body] : bodies) {
    CompileResponse r;
    r.id = key.first;
    r.status = service::ResponseStatus::kOk;
    r.tier = "heuristic";
    r.fingerprint = key.second;
    r.body = body;
    responses.push_back(std::move(r));
  }
  std::size_t calls = 0, bytes = 0;
  const std::uint64_t t0 = now_ns();
  do {
    for (const Entry& e : pool) {
      const std::string wire = service::format_request(e.req);
      bytes += service::parse_request(wire).body.size();
      calls += 2;
    }
    for (const CompileResponse& r : responses) {
      const std::string wire = service::format_response(r);
      bytes += service::parse_response(wire).body.size();
      calls += 2;
    }
  } while (now_ns() - t0 < 200'000'000);
  if (bytes == 0) std::abort();  // keeps the calls observable
  return static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(calls);
}

}  // namespace

Outcome run_served_mix(const RunConfig& cfg) {
  Outcome out;
  const fs::path dir = fs::path(cfg.work_dir) / "served_mix";
  std::vector<Entry> pool;
  std::unique_ptr<Fleet> fleet;
  // Set-up: build the pool, compile every entry directly (the references),
  // start a fresh fleet on empty journals, and warm it with one pass over
  // the pool, as service_load does.
  const double setup_s = timed_setups(kSetups, [&] {
    fleet.reset();
    fs::remove_all(dir);
    fs::create_directories(dir);
    pool = make_pool(cfg);
    for (Entry& e : pool) compute_reference(e);
    fleet = std::make_unique<Fleet>(dir, pool.size() / 4);
    for (const Entry& e : pool) {
      const CompileResponse r = fleet->router().handle(e.req);
      if (!r.ok()) throw std::runtime_error(e.name + ": warm-up failed");
    }
  });
  std::uint64_t liw_total = 0, copies_total = 0;
  for (const Entry& e : pool) {
    liw_total += e.liw_cycles;
    copies_total += e.copies;
  }

  // The request sequence is the traffic's content, so like the pool's
  // streams it comes from --served-seed, not --seed: a saturated window's
  // work is dominated by a few dozen COLOR misses, and with the sequence
  // drawn from --seed the throughput's quartile spread over five seeds was
  // 0.18-0.34 however the run was scaled or sliced.
  LoadGen gen(pool, *fleet, cfg.served_seed + 0x300);
  const auto no_tick = [] {};
  const auto fleet_counts = [&] {
    std::map<std::string, double> c;
    std::uint64_t hits = 0, accepted = 0, atom_hits = 0, atom_lookups = 0;
    for (service::CompileService* s : fleet->services()) {
      const auto sc = s->counters();
      hits += sc.cache_hits;
      accepted += sc.accepted;
      c["service.shed"] += static_cast<double>(sc.shed);
      c["service.retried"] += static_cast<double>(sc.retried);
      if (cache::AtomCache* ac = s->atom_cache()) {
        const auto st = ac->stats();
        atom_hits += st.hits;
        atom_lookups += st.hits + st.misses;
      }
    }
    c["service.cache_hit_ratio"] =
        hits + accepted == 0 ? 0 : static_cast<double>(hits) /
                                       static_cast<double>(hits + accepted);
    c["cache.atom_hit_ratio"] =
        atom_lookups == 0 ? 0 : static_cast<double>(atom_hits) /
                                    static_cast<double>(atom_lookups);
    std::uint64_t result_bytes = 0, atom_bytes = 0;
    for (std::size_t w = 0; w < 2; ++w) {
      result_bytes += dir_bytes(dir / ("w" + std::to_string(w)) / "results");
      atom_bytes += dir_bytes(dir / ("w" + std::to_string(w)) / "atoms");
    }
    c["cache.result_journal_bytes"] = static_cast<double>(result_bytes);
    c["cache.atom_journal_bytes"] = static_cast<double>(atom_bytes);
    const auto rc = fleet->router().counters();
    c["router.spilled"] = static_cast<double>(rc.spilled);
    c["router.redriven"] = static_cast<double>(rc.redriven);
    c["router.pending_max"] = static_cast<double>(gen.pending_max());
    c["service.queue_depth_max"] =
        static_cast<double>(gen.queue_depth_max());
    return c;
  };

  if (!cfg.trace) {
    // The loads take turns in slices, each round led by direct compile
    // passes over the pool (the compile cost the served figures add router,
    // service and cache work to). Every timing is scaled to the reference
    // host speed by the yardstick units run within its direct pass or
    // during its slice.
    support::SplitMix64 order_rng(cfg.seed);
    std::vector<double> pass_s, wall_s;
    std::map<std::size_t, std::vector<double>> entry_ms;
    Phase low, high, sat;
    Phase low_wall, high_wall, sat_wall;  // as measured, for the report
    // A slice is scaled by yardstick units run around it and, at 4 and 8
    // outstanding, also on the generator thread while it waits for
    // responses: the fleet's threads run on other vCPUs than the generator,
    // and only units run during the slice follow the host's speed there.
    // (The fleet then always has queued work, so a send delayed by a unit
    // does not idle it.) At 1 outstanding a unit would delay every send.
    // The saturated slices keep the fleet compiling throughout, like a
    // direct pass, and take Yardstick::scale(). The others take the plain
    // ratio: with the exponent, the p99 at 4 outstanding spread 0.13-0.21
    // (quartile distance over median) over three sets of seeds, with the
    // ratio 0.04-0.10; the saturated throughput spread 0.05-0.10 with the
    // exponent and 0.09-0.17 with the ratio.
    const auto slice = [&](std::size_t clients, double seconds,
                           Phase& wall) {
      Yardstick ys;
      ys.run(kSliceUnits);
      Phase ph = gen.run(clients, seconds, out, [&] {
        if (clients > 1) ys.run(1);
      });
      ys.run(kSliceUnits);
      wall.merge(ph);
      ph.scale(clients == kMaxClients ? ys.scale() : ys.ratio());
      return ph;
    };
    const double round_s = cfg.seconds / kRounds;
    for (int i = 0; i < kRounds; ++i) {
      for (int j = 0; j < kDirectPasses; ++j) {
        Yardstick ys;
        std::vector<std::pair<std::size_t, double>> ms_of;
        const double wall = direct_pass(pool, order_rng, ys, ms_of, out);
        wall_s.push_back(wall);
        pass_s.push_back(wall * ys.scale());
        for (const auto& [e, ms] : ms_of) {
          entry_ms[e].push_back(ms * ys.scale());
        }
      }
      low.merge(slice(kLowClients, kLowShare * round_s, low_wall));
      high.merge(slice(kHighClients, kHighShare * round_s, high_wall));
      sat.merge(slice(kMaxClients, kSatShare * round_s, sat_wall));
    }
    for (const auto& [i, ms] : entry_ms) {
      note("entry %-20s %8.3f ms", pool[i].name.c_str(), median(ms));
    }
    note("direct pass wall time: %s", describe(summarize(wall_s), "s").c_str());
    // Completions inside the saturated slices' windows per (scaled) second
    // of them.
    const double max_rps = static_cast<double>(sat.in_window) / sat.window_s;
    note("as measured: low p50 %.4f ms, high p99 %.4f ms, saturated "
         "%.1f requests/s",
         median(low_wall.latency_ms), percentile(high_wall.latency_ms, 99),
         static_cast<double>(sat_wall.in_window) / sat_wall.window_s);
    gen.check_stream_artifacts(out);
    const Summary lo = summarize(low.latency_ms);
    const Summary hi = summarize(high.latency_ms);
    note("served low (%zu outstanding): %s, p99 %.4f ms", kLowClients,
         describe(lo, "ms").c_str(), lo.p99);
    note("served high (%zu outstanding): %s, p99 %.4f ms", kHighClients,
         describe(hi, "ms").c_str(), hi.p99);
    note("served saturated (%zu outstanding): %.1f requests/s, %s",
         kMaxClients, max_rps, describe(summarize(sat.latency_ms), "ms").c_str());
    // Printed, not in the result. p99 at 1 outstanding and p50 at 4 each sit
    // on a boundary between request classes of this traffic (COLOR/k4 and
    // COLOR/k8 misses; result-cache hits and misses), so they jump between
    // runs by more than any bound allows. p50 at 1 outstanding is mostly
    // cache reads of a fraction of a millisecond, whose cost is thread
    // wake-ups that a busy host slows by up to 4x and the yardstick does not
    // track.
    note("served_p50_ms.low %.6f ms (report only)", lo.p50);
    note("served_p99_ms.low %.6f ms (report only)", lo.p99);
    note("served_p50_ms.high %.6f ms (report only)", hi.p50);
    for (const auto& [name, v] : fleet_counts()) {
      note("%s %.4f", name.c_str(), v);
    }
    out.add("compile_s", median(pass_s), "s");
    out.add("compile_ms.geomean", geomean(percentiles(entry_ms, 50)),
            "ms");
    out.add("liw_cycles", static_cast<double>(liw_total), "count");
    out.add("copies_total", static_cast<double>(copies_total), "count");
    out.add("served_p99_ms.high", hi.p99, "ms");
    out.add("served_max_rps", max_rps, "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", setup_s, "s");
  } else {
    // Traced run: the high rate untraced, then traced (the rings are
    // drained from the generator thread every 10 ms), then the codec.
    const Phase base = gen.run(kHighClients, 0.4 * cfg.seconds, out, no_tick);
    Ledger ledger;
    std::uint64_t last_drain = now_ns();
    telemetry::TraceSession::global().start();
    const Phase traced =
        gen.run(kHighClients, 0.4 * cfg.seconds, out, [&] {
          if (now_ns() - last_drain > 10'000'000) {
            ledger.drain();
            last_drain = now_ns();
          }
        });
    telemetry::TraceSession::global().stop();
    ledger.drain();
    note("ledger of the traced phase (worker compile spans):\n%s",
         ledger.table().c_str());
    if (ledger.dropped() > 0) {
      note("trace rings dropped %llu events",
           static_cast<unsigned long long>(ledger.dropped()));
    }
    gen.check_stream_artifacts(out);
    LayerValues lv;
    for (const auto& [name, v] : fleet_counts()) lv[name] = v;
    lv["service.codec_us"] = codec_us(pool, gen.stream_bodies());
    add_layer_medians({lv}, out);
    out.set("bench.trace_overhead",
            (median(traced.latency_ms) / median(base.latency_ms) - 1) * 100);
  }
  fleet.reset();  // drains the router and stops both workers
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
