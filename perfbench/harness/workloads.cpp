// workloads.cpp — the four benchmark workloads, each a fixed shape driven
// through one public simulator entry point. Lengths are chosen so one call
// takes one to five host seconds on a 4-core x86 box; `tiny` shortens them
// for the self-test.
#include <cmath>
#include <set>
#include <stdexcept>

#include "checks.h"
#include "cluster/end_to_end.h"
#include "cluster/membership.h"
#include "cluster/trace_replay.h"
#include "common.h"
#include "core/db_stage.h"
#include "core/lru_asymptotics.h"
#include "core/theorem1.h"
#include "tools/simulate_runner.h"
#include "workload/request_stream.h"

namespace perfbench {
namespace {

using namespace mclat;

/// Times `fn` as the entry call, inside a span when the options ask for one.
template <class F>
auto timed_entry(const CallOptions& opt, const std::string& span_name,
                 double& host_s, F&& fn) {
  const int span =
      opt.spans != nullptr ? opt.spans->open(span_name, opt.span_parent) : -1;
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  host_s = seconds_since(t0);
  if (span >= 0) opt.spans->close(span);
  return result;
}

obs::Recorder recorder_for(const CallOptions& opt) {
  return opt.registry != nullptr ? obs::Recorder(*opt.registry)
                                 : obs::Recorder();
}

void put_ci(Facts& f, const std::string& name, const stats::MeanCI& ci) {
  f[name + ".mean"] = ci.mean;
  f[name + ".half"] = ci.halfwidth;
}

void put_theory(Facts& f, const core::SystemConfig& sys) {
  const core::LatencyEstimate e = core::LatencyModel(sys).estimate();
  f["theory.total.lower"] = e.total.lower;
  f["theory.total.upper"] = e.total.upper;
  f["theory.server.lower"] = e.server.lower;
  f["theory.server.upper"] = e.server.upper;
  f["theory.database"] = e.database;
}

// ---------------------------------------------------------------------------
// table3 — Mode A at the Table-3 defaults, 2 replications with the
// obs::Registry attached, as `mclat simulate --metrics` runs it.
//
// The timed calls run on one job: on a shared host the two-job call's speed
// tracks no single-thread measure of host speed, and its 10-run spread
// stayed near 0.24 of the median even after host-speed normalization
// (one job: about 0.10). The traced run exercises the thread pool: its
// `--jobs 2` comparison call checks invariance and gives the exec.*
// metrics.
class Table3 final : public Workload {
 public:
  std::string name() const override { return "table3"; }

  void prepare(std::uint64_t seed, bool tiny) override {
    seed_ = seed;
    tiny_ = tiny;
  }

  double setup_trial() override {
    tools::SimulateOptions o = options(CallOptions{});
    o.seconds = 0.01;
    o.requests = 10;
    obs::Registry reg;
    o.metrics = &reg;
    const Clock::time_point t0 = Clock::now();
    (void)tools::run_simulate(sys_, o);
    return seconds_since(t0);
  }

  CallOutcome call(const CallOptions& opt) override {
    obs::Registry local;
    tools::SimulateOptions o = options(opt);
    if (!opt.registry_off) {
      o.metrics = opt.registry != nullptr ? opt.registry : &local;
    }
    CallOutcome out;
    const tools::SimulateResult r =
        timed_entry(opt, "entry:tools::run_simulate", out.host_s,
                    [&] { return tools::run_simulate(sys_, o); });
    Facts& f = out.facts;
    f["reps"] = static_cast<double>(o.reps);
    f["n"] = sys_.keys_per_request;
    f["network_latency"] = sys_.network_latency;
    f["total.count"] = static_cast<double>(r.total.count);
    put_ci(f, "total", r.total);
    put_ci(f, "server", r.server);
    put_ci(f, "database", r.database);
    put_ci(f, "network", r.network);
    f["requests"] = static_cast<double>(o.requests);  // per replication
    if (o.metrics != nullptr) {
      const obs::Registry& reg = *o.metrics;
      const double keys = counter(reg, "assembly.keys");
      f["assembly.keys"] = keys;
      f["miss_ratio"] =
          keys > 0.0 ? counter(reg, "assembly.misses") / keys : 0.0;
      f["stage.total.count"] =
          static_cast<double>(reg.latencies().at("stage.total_us").count());
      f["sim.keys_completed"] = counter(reg, "sim.keys_completed");
      out.keys = static_cast<std::uint64_t>(f["sim.keys_completed"]);
    }
    put_theory(f, sys_);
    f["theory.database.harmonic"] =
        core::DatabaseStage(sys_.miss_ratio, sys_.db_service_rate)
            .expected_max_harmonic(sys_.keys_per_request);
    return out;
  }

  Violations check(const Facts& f) const override { return check_table3(f); }
  Perturbations perturb(const Facts& f) const override {
    return perturb_table3(f);
  }
  TracePlan trace_plan() const override {
    return {.alt_parallel = 2, .parallel_invariant = true};
  }

 private:
  static double counter(const obs::Registry& reg, const char* name) {
    const auto it = reg.counters().find(name);
    return it == reg.counters().end() ? 0.0
                                      : static_cast<double>(it->second.value());
  }

  tools::SimulateOptions options(const CallOptions& opt) const {
    tools::SimulateOptions o;
    o.seconds = tiny_ ? 2.0 : 10.0;
    o.requests = tiny_ ? 5'000 : 20'000;
    o.reps = 2;
    o.jobs = opt.parallel != 0 ? opt.parallel : 1;
    o.seed = seed_;
    return o;
  }

  core::SystemConfig sys_ = core::SystemConfig::facebook();
  std::uint64_t seed_ = 1;
  bool tiny_ = false;
};

// ---------------------------------------------------------------------------
// fanout — Mode B, Bernoulli misses, 128 servers at 20 Kkeys/s each, N=10.
class Fanout final : public Workload {
 public:
  std::string name() const override { return "fanout"; }

  void prepare(std::uint64_t seed, bool tiny) override {
    seed_ = seed;
    tiny_ = tiny;
  }

  double setup_trial() override {
    cluster::EndToEndConfig cfg = config(CallOptions{});
    cfg.common.warmup_time = 0.0;
    cfg.common.measure_time = 1e-4;
    const Clock::time_point t0 = Clock::now();
    (void)cluster::EndToEndSim(cfg).run();
    return seconds_since(t0);
  }

  CallOutcome call(const CallOptions& opt) override {
    const cluster::EndToEndConfig cfg = config(opt);
    CallOutcome out;
    const cluster::EndToEndResult r =
        timed_entry(opt, "entry:EndToEndSim::run", out.host_s,
                    [&] { return cluster::EndToEndSim(cfg).run(); });
    out.keys = r.keys_completed;
    out.events = r.events_executed;
    Facts& f = out.facts;
    f["keys"] = static_cast<double>(r.keys_completed);
    f["requests"] = static_cast<double>(r.requests_completed);
    f["n"] = cfg.system.keys_per_request;
    f["miss_ratio"] = r.measured_miss_ratio;
    f["db_fetches"] = static_cast<double>(r.measured_db_fetches);
    f["delayed_hits"] = static_cast<double>(r.measured_delayed_hits);
    f["network_latency"] = cfg.system.network_latency;
    put_ci(f, "total", r.total);
    put_ci(f, "server", r.server);
    put_ci(f, "database", r.database);
    put_ci(f, "network", r.network);
    // Mode B's per-server arrivals are thinned Poisson (N << M), so the
    // theory side uses the Poisson arrival pattern (xi = q = 0).
    core::SystemConfig model = cfg.system;
    model.burst_xi = 0.0;
    model.concurrency_q = 0.0;
    put_theory(f, model);
    return out;
  }

  Violations check(const Facts& f) const override { return check_fanout(f); }
  Perturbations perturb(const Facts& f) const override {
    return perturb_fanout(f);
  }
  TracePlan trace_plan() const override {
    return {.alt_parallel = 3, .shard_engine = true};
  }

 private:
  cluster::EndToEndConfig config(const CallOptions& opt) const {
    cluster::EndToEndConfig cfg;
    cfg.system = core::SystemConfig::facebook();
    cfg.system.servers = 128;
    cfg.system.total_key_rate = 128.0 * 20'000.0;
    cfg.system.keys_per_request = 10;
    cfg.system.miss_ratio = 0.01;
    cfg.system.network_latency = 1e-3;
    cfg.common.warmup_time = 0.1;
    cfg.common.measure_time = tiny_ ? 0.1 : 1.0;
    cfg.common.seed = seed_;
    cfg.common.shard_jobs = opt.parallel != 0 ? opt.parallel : 1;
    cfg.recorder = recorder_for(opt);
    return cfg;
  }

  std::uint64_t seed_ = 1;
  bool tiny_ = false;
};

// ---------------------------------------------------------------------------
// cold_keyspace — Mode C replay of a generated Zipf(0.99) trace over 10^7
// keys: 128 ring servers with 4 MiB LRU stores, a 32 MiB KeyTable budget,
// delayed-hit coalescing, N=10 at 10 Kkeys/s/server.
class ColdKeyspace final : public Workload {
 public:
  static constexpr std::uint64_t kKeys = 10'000'000;
  static constexpr double kZipf = 0.99;
  static constexpr std::size_t kServers = 128;
  static constexpr std::uint32_t kN = 10;

  std::string name() const override { return "cold_keyspace"; }

  void prepare(std::uint64_t seed, bool tiny) override {
    seed_ = seed;
    stream_ = std::make_unique<workload::RequestStream>(stream_config(),
                                                        dist::Rng(seed));
    trace_ = stream_->generate_trace(tiny ? 30 : 300);
    // The set-up trace is the same one request for every seed, so the
    // set-up time measures a fixed cost.
    workload::RequestStream setup_stream(stream_config(), dist::Rng(0));
    setup_trace_ = setup_stream.generate_trace(1);
    std::set<std::uint64_t> ranks;
    for (const workload::TraceRecord& rec : trace_.records()) {
      ranks.insert(rec.key_rank);
    }
    distinct_ranks_ = ranks.size();
  }

  double setup_trial() override {
    const Clock::time_point t0 = Clock::now();
    const workload::KeySpace keys(kKeys, kZipf);
    (void)cluster::TraceReplaySim(config(CallOptions{}))
        .run(setup_trace_, keys);
    return seconds_since(t0);
  }

  CallOutcome call(const CallOptions& opt) override {
    const cluster::TraceReplayConfig cfg = config(opt);
    CallOutcome out;
    const cluster::TraceReplayResult r = timed_entry(
        opt, "entry:TraceReplaySim::run", out.host_s, [&] {
          return cluster::TraceReplaySim(cfg).run(trace_, stream_->keyspace());
        });
    out.keys = r.keys_completed;
    Facts& f = out.facts;
    f["trace.keys"] = static_cast<double>(trace_.size());
    f["trace.requests"] = static_cast<double>(trace_.request_count());
    f["trace.distinct_ranks"] = static_cast<double>(distinct_ranks_);
    f["keys"] = static_cast<double>(r.keys_completed);
    f["requests"] = static_cast<double>(r.requests_completed);
    f["miss_ratio"] = r.measured_miss_ratio;
    f["db_fetches"] = static_cast<double>(r.db_fetches);
    f["delayed_hits"] = static_cast<double>(r.delayed_hits);
    f["horizon"] = r.horizon;
    put_ci(f, "total", r.total);
    put_ci(f, "server", r.server);
    put_ci(f, "database", r.database);
    return out;
  }

  Violations check(const Facts& f) const override {
    return check_cold_keyspace(f);
  }
  Perturbations perturb(const Facts& f) const override {
    return perturb_cold_keyspace(f);
  }
  TracePlan trace_plan() const override {
    return {.alt_parallel = 3, .shard_engine = true, .budget_invariant = true};
  }

  KeyStream key_stream(const CallOutcome&) const override {
    KeyStream ks;
    ks.keyspace_size = kKeys;
    ks.zipf = kZipf;
    ks.servers = kServers;
    ks.cache_bytes_per_server = kCacheBytes;
    ks.max_value_bytes = cluster::CommonConfig{}.max_value_bytes;
    ks.keytable_budget_bytes = kBudgetBytes;
    for (const workload::TraceRecord& rec : trace_.records()) {
      ks.ranks.push_back(rec.key_rank);
      ks.times.push_back(rec.time);
    }
    // Mean half round trip plus M/M/1 sojourn, then one mean DB fetch.
    const core::SystemConfig sys = config(CallOptions{}).system;
    const double per_server = sys.total_key_rate / static_cast<double>(kServers);
    ks.service_lag_s =
        sys.network_latency / 2.0 + 1.0 / (sys.service_rate - per_server);
    ks.fetch_lag_s = 1.0 / sys.db_service_rate;
    return ks;
  }

 private:
  static constexpr std::size_t kCacheBytes = 4u << 20;
  static constexpr std::size_t kBudgetBytes = 32u << 20;

  static workload::RequestStreamConfig stream_config() {
    workload::RequestStreamConfig s;
    s.request_rate = static_cast<double>(kServers) * 10'000.0 / kN;
    s.keys_per_request = kN;
    s.keyspace_size = kKeys;
    s.zipf_exponent = kZipf;
    return s;
  }

  cluster::TraceReplayConfig config(const CallOptions& opt) const {
    cluster::TraceReplayConfig cfg;
    cfg.system = core::SystemConfig::facebook();
    cfg.system.servers = kServers;
    cfg.system.total_key_rate = static_cast<double>(kServers) * 10'000.0;
    cfg.system.keys_per_request = kN;
    cfg.mapper = cluster::MapperKind::kRing;
    cfg.miss_mode = cluster::MissMode::kRealCache;
    cfg.common.cache_bytes_per_server = kCacheBytes;
    cfg.common.keytable_budget_bytes = opt.unbounded_table ? 0 : kBudgetBytes;
    cfg.common.coalescing = cluster::MissCoalescing::kPerServer;
    cfg.common.seed = seed_;
    cfg.common.shard_jobs = opt.parallel != 0 ? opt.parallel : 1;
    cfg.recorder = recorder_for(opt);
    return cfg;
  }

  std::uint64_t seed_ = 1;
  std::unique_ptr<workload::RequestStream> stream_;
  workload::Trace trace_;
  workload::Trace setup_trace_;
  std::size_t distinct_ranks_ = 0;
};

// ---------------------------------------------------------------------------
// churn_sharded — Mode B with real caches on the sharded engine: 128 ring
// servers, Zipf(0.99) over 2*10^5 keys, N=8 at 2 Kkeys/s/server, one cold
// join and one abrupt leave inside the measurement window, shard_jobs=3.
//
// The stores are 64 KiB with constant 1-byte values, the churn test tier's
// calibration: every item lands in one slab class, so each store is one
// honest LRU and the post-rebalance miss ratio can be held to the Che /
// Ji-Quan-Tan prediction (hit ratio about 0.87). 1 MiB stores with the
// Facebook value sizes hold nearly the whole keyspace, so within a few
// simulated seconds their miss ratio is cold-fill, not steady state.
class ChurnSharded final : public Workload {
 public:
  static constexpr std::uint64_t kKeys = 200'000;
  static constexpr double kZipf = 0.99;
  static constexpr std::size_t kServers = 128;

  std::string name() const override { return "churn_sharded"; }

  /// No tiny variant: a shorter window leaves the post-rebalance epoch
  /// too short for the Che agreement the gate demands.
  void prepare(std::uint64_t seed, bool) override {
    seed_ = seed;
    const workload::KeySpace keys(kKeys, kZipf);
    pmf_.resize(kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      pmf_[k] = keys.popularity().pmf(k);
    }
  }

  double setup_trial() override {
    const cluster::EndToEndConfig cfg = config(CallOptions{}, 0.0, 1e-3);
    const Clock::time_point t0 = Clock::now();
    (void)cluster::EndToEndSim(cfg).run();
    return seconds_since(t0);
  }

  CallOutcome call(const CallOptions& opt) override {
    const cluster::EndToEndConfig cfg = config(opt, 0.3, 2.7);
    CallOutcome out;
    const cluster::EndToEndResult r =
        timed_entry(opt, "entry:EndToEndSim::run", out.host_s,
                    [&] { return cluster::EndToEndSim(cfg).run(); });
    out.keys = r.keys_completed;
    out.events = r.events_executed;
    Facts& f = out.facts;
    f["keys"] = static_cast<double>(r.keys_completed);
    f["requests"] = static_cast<double>(r.requests_completed);
    f["n"] = cfg.system.keys_per_request;
    f["servers"] = static_cast<double>(kServers);
    f["miss_ratio"] = r.measured_miss_ratio;
    f["db_fetches"] = static_cast<double>(r.measured_db_fetches);
    f["delayed_hits"] = static_cast<double>(r.measured_delayed_hits);
    put_ci(f, "total", r.total);
    put_ci(f, "server", r.server);
    put_ci(f, "database", r.database);
    const cluster::ChurnStats& cs = r.churn;
    f["churn.events"] = static_cast<double>(cs.events);
    f["churn.joins"] = static_cast<double>(cs.joins);
    f["churn.leaves"] = static_cast<double>(cs.leaves);
    f["churn.failovers"] = static_cast<double>(cs.failovers);
    f["churn.epochs"] = static_cast<double>(cs.epochs.size());
    f["churn.live_servers_end"] = static_cast<double>(cs.live_servers_end);
    f["churn.resident_items_end"] = static_cast<double>(cs.resident_items_end);
    f["churn.refill_storm_bytes"] = static_cast<double>(cs.refill_storm_bytes);
    f["churn.ranks_remapped"] = static_cast<double>(cs.ranks_remapped);
    if (!cs.epochs.empty()) {
      f["last.miss_ratio"] = cs.epochs.back().miss_ratio;
      f["last.keys"] = static_cast<double>(cs.epochs.back().keys);
    }
    f["che.predicted"] = core::lru_miss_ratio_che(
        pmf_, static_cast<double>(cs.resident_items_end));
    return out;
  }

  Violations check(const Facts& f) const override {
    return check_churn_sharded(f);
  }
  Perturbations perturb(const Facts& f) const override {
    return perturb_churn_sharded(f);
  }
  TracePlan trace_plan() const override {
    return {.alt_parallel = 1, .parallel_invariant = true,
            .shard_engine = true};
  }
  /// The coordinator plus one thread per shard.
  std::size_t host_threads() const override { return kShards + 1; }

  KeyStream key_stream(const CallOutcome& traced) const override {
    KeyStream ks;
    ks.keyspace_size = kKeys;
    ks.zipf = kZipf;
    ks.servers = kServers;
    ks.cache_bytes_per_server = kCacheBytes;
    ks.max_value_bytes = kMaxValueBytes;
    ks.ranks_sampled_in_call = true;
    // The entry call draws its ranks internally; the replay draws the same
    // law from the benchmark seed, as many keys as the call completed (at
    // most 10^6).
    const workload::KeySpace keys(kKeys, kZipf);
    dist::Rng rng(seed_);
    const std::uint64_t n = std::min<std::uint64_t>(traced.keys, 1'000'000);
    ks.ranks.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) ks.ranks.push_back(keys.sample_rank(rng));
    return ks;
  }

 private:
  static constexpr std::size_t kShards = 3;
  static constexpr std::size_t kCacheBytes = 64u << 10;
  static constexpr std::uint32_t kMaxValueBytes = 1;

  /// The join lands a ninth of the way into the window and the abrupt
  /// leave two ninths in, so the post-rebalance epoch is most of it.
  cluster::EndToEndConfig config(const CallOptions& opt, double warmup,
                                 double measure) const {
    cluster::EndToEndConfig cfg;
    cfg.system = core::SystemConfig::facebook();
    cfg.system.servers = kServers;
    cfg.system.total_key_rate = static_cast<double>(kServers) * 2'000.0;
    cfg.system.keys_per_request = 8;
    cfg.system.network_latency = 1e-3;
    cfg.miss_mode = cluster::MissMode::kRealCache;
    cfg.mapper = cluster::MapperKind::kRing;
    cfg.keyspace_size = kKeys;
    cfg.zipf_exponent = kZipf;
    cfg.common.cache_bytes_per_server = kCacheBytes;
    cfg.common.max_value_bytes = kMaxValueBytes;
    cfg.common.warmup_time = warmup;
    cfg.common.measure_time = measure;
    cfg.common.seed = seed_;
    cfg.common.shard_jobs = opt.parallel != 0 ? opt.parallel : kShards;
    cfg.common.churn = cluster::MembershipSchedule(
        {{warmup + measure / 9.0, cluster::ChurnKind::kJoin, 0},
         {warmup + 2.0 * measure / 9.0, cluster::ChurnKind::kLeave, 7}});
    cfg.recorder = recorder_for(opt);
    return cfg;
  }

  std::uint64_t seed_ = 1;
  std::vector<double> pmf_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"table3", "fanout", "cold_keyspace", "churn_sharded"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "table3") return std::make_unique<Table3>();
  if (name == "fanout") return std::make_unique<Fanout>();
  if (name == "cold_keyspace") return std::make_unique<ColdKeyspace>();
  if (name == "churn_sharded") return std::make_unique<ChurnSharded>();
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
