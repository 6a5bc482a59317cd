// layers.cpp — the traced run: per-layer metrics for one workload.
//
// Three sources, kept apart:
//   * in situ: an obs::Recorder attached to the entry call gives the
//     program's own counters and virtual-time stage stats, and spans the
//     benchmark records around each entry call give its host time;
//   * comparisons: the same workload with the registry off, at another
//     parallelism, or with an unbounded KeyTable (the invariance contracts
//     and the overhead/speedup ratios);
//   * replays: the workload's own key stream pushed through each layer's
//     public functions in isolation, timed in batches. Replayed costs are
//     labelled as replays, not in-situ measurements.
#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "cache/lru_store.h"
#include "cache/slab_allocator.h"
#include "checks.h"
#include "common.h"
#include "hashing/consistent_hash.h"
#include "hashing/hashes.h"
#include "workload/key_table.h"
#include "workload/keyspace.h"
#include "workload/size_model.h"

namespace perfbench {
namespace {

using namespace mclat;

/// Replayed layer costs of one workload's key stream.
struct LayerReplay {
  bool ran = false;
  std::uint64_t stream_keys = 0;
  double keyspace_build_s = 0.0;
  double ns_per_rank_sample = 0.0;
  std::uint64_t chunks_built = 0;
  std::uint64_t chunk_rebuilds = 0;
  double ns_per_chunk_build = 0.0;
  double keytable_mb = 0.0;
  double ring_build_s = 0.0;
  double ns_per_ring_lookup = 0.0;
  double ns_per_value_size_draw = 0.0;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  double ns_per_get = 0.0;
  double ns_per_set = 0.0;
  double probe_len = 0.0;
  double resident_mb = 0.0;
};

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kBatch = 256;

/// Keeps a computed value alive so the timed loop is not optimized away.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

template <class F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Median ns per item over batches of `kBatch` items of `op(i)`.
template <class F>
double batched_ns(std::size_t items, F&& op) {
  std::vector<double> per_item;
  for (std::size_t b = 0; b < items; b += kBatch) {
    const std::size_t e = std::min(items, b + kBatch);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = b; i < e; ++i) op(i);
    per_item.push_back(seconds_since(t0) * 1e9 / static_cast<double>(e - b));
  }
  return per_item.empty() ? 0.0 : median(per_item);
}

LayerReplay replay_layers(const KeyStream& ks, std::uint64_t seed,
                          SpanLog& spans, int parent) {
  LayerReplay r;
  r.ran = true;
  const std::size_t n = ks.ranks.size();
  r.stream_keys = n;

  int span = spans.open("replay:workload.KeySpace", parent);
  r.keyspace_build_s = median_seconds(
      5, [&] { keep(workload::KeySpace(ks.keyspace_size, ks.zipf)); });
  const workload::KeySpace keys(ks.keyspace_size, ks.zipf);
  dist::Rng rng(seed);
  std::uint64_t rank_sum = 0;
  r.ns_per_rank_sample = batched_ns(std::max<std::size_t>(n, 1u << 16),
                                    [&](std::size_t) {
                                      rank_sum += keys.sample_rank(rng);
                                    });
  keep(rank_sum);
  spans.close(span);

  span = spans.open("replay:hashing.ConsistentHashRing", parent);
  r.ring_build_s = median_seconds(
      5, [&] { keep(hashing::ConsistentHashRing(ks.servers)); });
  const hashing::ConsistentHashRing ring(ks.servers);
  // Render the stream's keys once, outside every timed batch.
  std::string arena;
  std::vector<std::size_t> offset{0};
  std::string buf;
  for (const std::uint64_t rank : ks.ranks) {
    keys.key_for_rank(rank, buf);
    arena += buf;
    offset.push_back(arena.size());
  }
  const auto key_at = [&](std::size_t i) {
    return std::string_view(arena).substr(offset[i], offset[i + 1] - offset[i]);
  };
  std::vector<std::uint32_t> server(n);
  r.ns_per_ring_lookup = batched_ns(n, [&](std::size_t i) {
    server[i] = static_cast<std::uint32_t>(ring.server_for(key_at(i)));
  });
  spans.close(span);

  // The refill value size: a rank-seeded Rng plus one ValueSizeModel draw,
  // exactly what a KeyTable chunk build does per rank.
  span = spans.open("replay:dist.ValueSizeModel", parent);
  const workload::ValueSizeModel values(214.476, 0.348238, 1,
                                        ks.max_value_bytes);
  std::vector<std::uint32_t> value_bytes(n);
  r.ns_per_value_size_draw = batched_ns(n, [&](std::size_t i) {
    dist::Rng vr(hashing::mix64(ks.ranks[i] ^ workload::kValueSeedSalt));
    value_bytes[i] = values.sample(vr);
  });
  spans.close(span);

  // KeyTable with the workload's mapper and budget, touched as the engine
  // touches it: routing (server) and then the miss lookup (view). Accesses
  // that built a chunk are timed individually and attributed to builds.
  span = spans.open("replay:workload.KeyTable", parent);
  {
    struct Touch {
      double time;
      std::uint64_t rank;
      bool route;
    };
    std::vector<Touch> touches;
    if (ks.times.empty()) {
      for (const std::uint64_t rank : ks.ranks) {
        touches.push_back({0.0, rank, true});
        touches.push_back({0.0, rank, false});
      }
    } else {
      std::unordered_set<std::uint64_t> seen;
      for (std::size_t i = 0; i < n; ++i) {
        const double t = ks.times[i];
        touches.push_back({t, ks.ranks[i], true});
        touches.push_back({t + ks.service_lag_s, ks.ranks[i], false});
        if (seen.insert(ks.ranks[i]).second) {
          touches.push_back(
              {t + ks.service_lag_s + ks.fetch_lag_s, ks.ranks[i], false});
        }
      }
      std::stable_sort(touches.begin(), touches.end(),
                       [](const Touch& a, const Touch& b) {
                         return a.time < b.time;
                       });
    }
    workload::KeyTable table(keys, ring, &values,
                             workload::KeyTable::Build::kLazy,
                             ks.keytable_budget_bytes);
    double build_s = 0.0;
    std::uint64_t sink = 0;
    for (const Touch& touch : touches) {
      const std::uint64_t before = table.chunks_built();
      const Clock::time_point t0 = Clock::now();
      sink += touch.route ? table.server(touch.rank) : table.view(touch.rank).hash;
      const double dt = seconds_since(t0);
      if (table.chunks_built() != before) build_s += dt;
    }
    keep(sink);
    r.chunks_built = table.chunks_built();
    r.chunk_rebuilds = table.chunk_rebuilds();
    r.ns_per_chunk_build =
        r.chunks_built == 0
            ? 0.0
            : build_s * 1e9 / static_cast<double>(r.chunks_built);
    r.keytable_mb = static_cast<double>(table.bytes_resident()) / kMiB;
  }
  spans.close(span);

  // One LruStore per server with the engine's slab sizing
  // (cluster/engine/miss_policy.h). Gets run in batches; the misses of a
  // batch are refilled after it, as a database fetch refills a store a
  // round trip later.
  span = spans.open("replay:cache.LruStore", parent);
  {
    cache::SlabAllocator::Config scfg;
    scfg.memory_limit = ks.cache_bytes_per_server;
    scfg.page_size = std::min<std::size_t>(
        64 * 1024,
        std::max<std::size_t>(ks.cache_bytes_per_server / 32, 8 * 1024));
    scfg.growth_factor = 2.0;
    std::vector<std::unique_ptr<cache::LruStore>> stores;
    for (std::size_t j = 0; j < ks.servers; ++j) {
      stores.push_back(std::make_unique<cache::LruStore>(scfg));
    }
    std::vector<std::uint64_t> hash(n);
    for (std::size_t i = 0; i < n; ++i) hash[i] = hashing::fnv1a64(key_at(i));
    double get_s = 0.0;
    double set_s = 0.0;
    std::vector<std::size_t> missed;
    for (std::size_t b = 0; b < n; b += kBatch) {
      const std::size_t e = std::min(n, b + kBatch);
      missed.clear();
      Clock::time_point t0 = Clock::now();
      for (std::size_t i = b; i < e; ++i) {
        if (!stores[server[i]]->get(key_at(i), hash[i], 0.0)) missed.push_back(i);
      }
      get_s += seconds_since(t0);
      t0 = Clock::now();
      for (const std::size_t i : missed) {
        stores[server[i]]->set_sized_hashed(key_at(i), hash[i], value_bytes[i],
                                            0.0);
      }
      set_s += seconds_since(t0);
      r.sets += missed.size();
    }
    cache::IndexStats probes;
    std::uint64_t resident = 0;
    for (const auto& s : stores) {
      r.gets += s->stats().gets;
      r.hits += s->stats().hits;
      r.evictions += s->stats().evictions;
      resident += s->stats().resident_bytes;
      probes.merge(s->index_stats());
    }
    r.ns_per_get = r.gets == 0 ? 0.0 : get_s * 1e9 / static_cast<double>(r.gets);
    r.ns_per_set = r.sets == 0 ? 0.0 : set_s * 1e9 / static_cast<double>(r.sets);
    r.probe_len = probes.mean_probe();
    r.resident_mb = static_cast<double>(resident) / kMiB;
  }
  spans.close(span);
  return r;
}

double registry_observations(const obs::Registry& reg) {
  double n = 0.0;
  for (const auto& [name, stat] : reg.latencies()) {
    n += static_cast<double>(stat.count());
  }
  return n;
}

/// The registry's CSV without the wall-clock "exec." rows, which are
/// exempt from the --jobs determinism contract.
std::string simulation_rows(const obs::Registry& reg) {
  std::istringstream in(reg.to_csv());
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find(",exec.") == std::string::npos) out += line + "\n";
  }
  return out;
}

double fact(const Facts& f, const char* name) {
  const auto it = f.find(name);
  return it == f.end() ? 0.0 : it->second;
}

double keys_per_s(const CallOutcome& c) {
  return c.host_s > 0.0 ? static_cast<double>(c.keys) / c.host_s : 0.0;
}

}  // namespace

TraceResult traced_run(Workload& w, std::uint64_t seed, SpanLog& spans) {
  TraceResult tr;
  const int root = spans.open("traced_run:" + w.name());
  const auto attempt = [&](const std::string& label,
                           const CallOptions& opt) -> std::optional<CallOutcome> {
    ++tr.attempted;
    try {
      CallOutcome c = w.call(opt);
      const Violations v = w.check(c.facts);
      if (!v.empty()) ++tr.failed;
      for (const std::string& s : v) tr.violations.push_back(label + ": " + s);
      return c;
    } catch (const std::exception& e) {
      ++tr.failed;
      tr.violations.push_back(label + ": threw: " + e.what());
      return std::nullopt;
    }
  };
  const auto violate = [&](const std::string& what) {
    ++tr.failed;
    tr.violations.push_back(what);
  };

  // Untraced and traced calls, alternated twice; the first traced call's
  // registry is the one reported.
  const bool table3 = w.name() == "table3";
  std::vector<double> plain_s, traced_s, bare_s;
  obs::Registry reg;
  std::optional<CallOutcome> plain, traced;
  for (int i = 0; i < 2; ++i) {
    if (auto c = attempt("untraced", CallOptions{})) {
      plain_s.push_back(c->host_s);
      if (i == 0) plain = std::move(c);
    }
    obs::Registry r_i;
    CallOptions topt;
    topt.registry = i == 0 ? &reg : &r_i;
    topt.spans = &spans;
    topt.span_parent = root;
    if (auto c = attempt("traced", topt)) {
      traced_s.push_back(c->host_s);
      if (i == 0) traced = std::move(c);
    }
    if (table3) {
      CallOptions bopt;
      bopt.registry_off = true;
      if (auto c = attempt("registry off", bopt)) bare_s.push_back(c->host_s);
    }
  }

  // Comparisons: another parallelism, an unbounded KeyTable.
  const TracePlan plan = w.trace_plan();
  double shard_speedup = 0.0;
  obs::Registry alt_reg;  // table3's --jobs 2 call: the exec.* source
  if (plan.alt_parallel != 0 && plain) {
    CallOptions aopt;
    aopt.parallel = plan.alt_parallel;
    if (table3) aopt.registry = &alt_reg;
    aopt.spans = &spans;
    aopt.span_parent = root;
    const std::optional<CallOutcome>& base = plain;
    const std::optional<CallOutcome> alt = attempt(
        "parallel " + std::to_string(plan.alt_parallel), aopt);
    if (alt) {
      if (plan.parallel_invariant) {
        for (const std::string& k : differing_facts(base->facts, alt->facts)) {
          violate("invariance at parallel " + std::to_string(plan.alt_parallel) +
                  ": fact " + k + " differs");
        }
      }
      if (table3 && simulation_rows(reg) != simulation_rows(alt_reg)) {
        violate("invariance at --jobs 2: registry differs outside exec.*");
      }
      if (plan.shard_engine) {
        // keys/s at shard_jobs 3 over keys/s at shard_jobs 1; the default
        // side is the median of the untraced calls.
        const double base_rate =
            static_cast<double>(base->keys) / median(plain_s);
        const double alt_rate = keys_per_s(*alt);
        const bool alt_is_k1 = plan.alt_parallel == 1;
        const double k3 = alt_is_k1 ? base_rate : alt_rate;
        const double k1 = alt_is_k1 ? alt_rate : base_rate;
        shard_speedup = k1 > 0.0 ? k3 / k1 : 0.0;
      }
    }
  }
  if (plan.budget_invariant && traced) {
    CallOptions uopt;
    uopt.unbounded_table = true;
    if (const auto unbounded = attempt("unbounded KeyTable", uopt)) {
      for (const std::string& k :
           differing_facts(traced->facts, unbounded->facts)) {
        violate("budget invariance: fact " + k + " differs");
      }
    }
  }

  LayerReplay rep;
  KeyStream stream;
  if (traced) stream = w.key_stream(*traced);
  if (!stream.ranks.empty()) {
    const int span = spans.open("replays", root);
    rep = replay_layers(stream, seed, spans, span);
    spans.close(span);
  }
  spans.close(root);

  // --- metrics ---------------------------------------------------------------
  const CallOutcome t = traced.value_or(CallOutcome{});
  const Facts& f = t.facts;
  const double run_s = t.host_s;
  const auto lat = [&](const char* name) -> const obs::LatencyStat* {
    const auto it = reg.latencies().find(name);
    return it == reg.latencies().end() ? nullptr : &it->second;
  };
  const auto lat_value = [&](const char* name, double (obs::LatencyStat::*q)()
                                                   const) {
    const obs::LatencyStat* s = lat(name);
    return s == nullptr || s->count() == 0 ? 0.0 : (s->*q)();
  };
  const auto lat_count = [&](const char* name) {
    const obs::LatencyStat* s = lat(name);
    return s == nullptr ? 0.0 : static_cast<double>(s->count());
  };
  const auto ratio_minus_one = [](const std::vector<double>& num,
                                  const std::vector<double>& den) {
    return num.empty() || den.empty() ? 0.0 : median(num) / median(den) - 1.0;
  };

  // Replayed seconds of each layer the entry call runs in situ: replayed
  // counts times replayed cost per operation.
  double replayed_s = 0.0;
  std::ostringstream attr;
  attr << "{\"label\":\"replayed layer seconds = replayed counts x replayed "
          "ns/op; replays, not in-situ measurements\",\"run_s\":"
       << run_s << ",\"layers\":{";
  if (rep.ran) {
    const double chunk_s = rep.chunks_built * rep.ns_per_chunk_build * 1e-9;
    const double get_s = rep.gets * rep.ns_per_get * 1e-9;
    const double set_s = rep.sets * rep.ns_per_set * 1e-9;
    const double rank_s = stream.ranks_sampled_in_call
                              ? rep.stream_keys * rep.ns_per_rank_sample * 1e-9
                              : 0.0;
    replayed_s = chunk_s + get_s + set_s + rank_s;
    const auto entry = [&](const char* name, double s, bool last = false) {
      attr << "\"" << name << "\":{\"s\":" << s
           << ",\"share_of_run\":" << (run_s > 0.0 ? s / run_s : 0.0) << "}"
           << (last ? "" : ",");
    };
    entry("workload.chunk_builds", chunk_s);
    entry("cache.gets", get_s);
    entry("cache.sets", set_s);
    entry("workload.rank_samples", rank_s, true);
  }
  attr << "},\"engine_self_s\":" << run_s - replayed_s << "}";
  tr.attribution_json = attr.str();

  const auto wall_it = alt_reg.latencies().find("exec.trial_wall_us");
  const obs::LatencyStat* wall =
      wall_it == alt_reg.latencies().end() ? nullptr : &wall_it->second;
  const auto busy_it = alt_reg.gauges().find("exec.pool.busy_fraction");
  const double busy =
      busy_it == alt_reg.gauges().end() ? 0.0 : busy_it->second.value();
  const double misses = fact(f, "db_fetches") + fact(f, "delayed_hits");
  const double requests =
      f.count("total.count") != 0 ? fact(f, "total.count") : fact(f, "requests");
  const double events = static_cast<double>(t.events);

  auto& m = tr.metrics;
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.ns_per_event", events > 0.0 ? run_s * 1e9 / events : 0.0, "ns"});
  m.push_back({"sim.shard_speedup", shard_speedup, "x"});
  m.push_back({"cluster.run_s", run_s, "s"});
  m.push_back({"cluster.engine_self_s", run_s - replayed_s, "s"});
  m.push_back({"cluster.keys", static_cast<double>(t.keys), "count"});
  m.push_back({"cluster.requests", requests, "count"});
  m.push_back({"cluster.miss_ratio", fact(f, "miss_ratio"), "fraction"});
  m.push_back({"cluster.total_us.p50", lat_value("stage.total_us", &obs::LatencyStat::p50), "us"});
  m.push_back({"cluster.total_us.p99", lat_value("stage.total_us", &obs::LatencyStat::p99), "us"});
  m.push_back({"cluster.total_us.count", lat_count("stage.total_us"), "count"});
  m.push_back({"cluster.sync_gap_us.p99", lat_value("request.sync_gap_us", &obs::LatencyStat::p99), "us"});
  m.push_back({"cluster.sync_gap_us.count", lat_count("request.sync_gap_us"), "count"});
  m.push_back({"cluster.coalesce_ratio", misses > 0.0 ? fact(f, "delayed_hits") / misses : 0.0, "fraction"});
  m.push_back({"cluster.failovers", fact(f, "churn.failovers"), "count"});
  m.push_back({"cluster.ranks_remapped", fact(f, "churn.ranks_remapped"), "count"});
  m.push_back({"cluster.refill_storm_bytes", fact(f, "churn.refill_storm_bytes"), "bytes"});
  m.push_back({"workload.chunks_built", static_cast<double>(rep.chunks_built), "count"});
  m.push_back({"workload.chunk_rebuilds", static_cast<double>(rep.chunk_rebuilds), "count"});
  m.push_back({"workload.ns_per_chunk_build", rep.ns_per_chunk_build, "ns"});
  m.push_back({"workload.keytable_mb", rep.keytable_mb, "MiB"});
  m.push_back({"workload.keyspace_build_s", rep.keyspace_build_s, "s"});
  m.push_back({"workload.ns_per_rank_sample", rep.ns_per_rank_sample, "ns"});
  m.push_back({"cache.gets", static_cast<double>(rep.gets), "count"});
  m.push_back({"cache.sets", static_cast<double>(rep.sets), "count"});
  m.push_back({"cache.hit_ratio", rep.gets > 0 ? static_cast<double>(rep.hits) / static_cast<double>(rep.gets) : 0.0, "fraction"});
  m.push_back({"cache.evictions", static_cast<double>(rep.evictions), "count"});
  m.push_back({"cache.ns_per_get", rep.ns_per_get, "ns"});
  m.push_back({"cache.ns_per_set", rep.ns_per_set, "ns"});
  m.push_back({"cache.probe_len", rep.probe_len, "probes"});
  m.push_back({"cache.resident_mb", rep.resident_mb, "MiB"});
  m.push_back({"hashing.ns_per_ring_lookup", rep.ns_per_ring_lookup, "ns"});
  m.push_back({"hashing.ring_build_s", rep.ring_build_s, "s"});
  m.push_back({"dist.ns_per_value_size_draw", rep.ns_per_value_size_draw, "ns"});
  m.push_back({"obs.observations", registry_observations(reg), "count"});
  m.push_back({"obs.overhead_frac",
               table3 ? ratio_minus_one(plain_s, bare_s)
                      : ratio_minus_one(traced_s, plain_s),
               "fraction"});
  m.push_back({"exec.busy_fraction", busy, "fraction"});
  m.push_back({"exec.trial_imbalance",
               wall != nullptr && wall->count() > 0 && wall->p50() > 0.0
                   ? wall->max() / wall->p50()
                   : 0.0,
               "x"});
  m.push_back({"trace.overhead_frac", ratio_minus_one(traced_s, plain_s), "fraction"});

  if (events == 0.0) tr.not_run = {"sim.events", "sim.ns_per_event"};
  if (!plan.shard_engine) tr.not_run.push_back("sim.shard_speedup");
  if (!rep.ran) {
    for (const Metric& x : m) {
      const std::string& n = x.name;
      if (n.rfind("workload.", 0) == 0 || n.rfind("cache.", 0) == 0 ||
          n.rfind("hashing.", 0) == 0 || n.rfind("dist.", 0) == 0) {
        tr.not_run.push_back(n);
      }
    }
  }
  if (!table3) {
    tr.not_run.push_back("exec.busy_fraction");
    tr.not_run.push_back("exec.trial_imbalance");
  }
  return tr;
}

}  // namespace perfbench
