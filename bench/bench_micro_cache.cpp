// bench_micro_cache — microbenchmarks of the systems substrates: slab
// allocation, LRU store set/get under a Zipf workload, hashing and the
// key→server mappers.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/lru_store.h"
#include "cluster/end_to_end.h"
#include "dist/rng.h"
#include "dist/zipf.h"
#include "hashing/consistent_hash.h"
#include "hashing/hashes.h"
#include "hashing/weighted_mapper.h"
#include "workload/key_table.h"
#include "workload/keyspace.h"
#include "workload/size_model.h"

namespace {

using namespace mclat;

void BM_SlabAllocateDeallocate(benchmark::State& state) {
  cache::SlabAllocator::Config cfg;
  cfg.memory_limit = 16u << 20;
  cache::SlabAllocator slabs(cfg);
  for (auto _ : state) {
    void* p = slabs.allocate(200);
    benchmark::DoNotOptimize(p);
    slabs.deallocate(p);
  }
}
BENCHMARK(BM_SlabAllocateDeallocate);

void BM_LruStoreSet(benchmark::State& state) {
  cache::SlabAllocator::Config cfg;
  cfg.memory_limit = 32u << 20;
  cache::LruStore store(cfg);
  const std::string value(200, 'v');
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.set("key:" + std::to_string(i++ % 50'000), value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStoreSet);

void BM_LruStoreGetZipf(benchmark::State& state) {
  cache::SlabAllocator::Config cfg;
  cfg.memory_limit = 32u << 20;
  cache::LruStore store(cfg);
  const std::string value(200, 'v');
  std::vector<std::string> keys;
  for (int i = 0; i < 50'000; ++i) {
    keys.push_back("key:" + std::to_string(i));
    (void)store.set(keys.back(), value);
  }
  const dist::Zipf zipf(50'000, 1.0);
  dist::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get(keys[zipf.sample(rng)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStoreGetZipf);

void BM_Fnv1a64(benchmark::State& state) {
  const std::string key = "user:profile:1234567890";
  for (auto _ : state) {
    benchmark::DoNotOptimize(hashing::fnv1a64(key));
  }
}
BENCHMARK(BM_Fnv1a64);

void BM_ConsistentHashLookup(benchmark::State& state) {
  const hashing::ConsistentHashRing ring(16, 160);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.server_for("object:" + std::to_string(i++ % 100'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsistentHashLookup);

void BM_WeightedMapperLookup(benchmark::State& state) {
  const hashing::WeightedMapper mapper({0.6, 0.2, 0.1, 0.1});
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapper.server_for("object:" + std::to_string(i++ % 100'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeightedMapperLookup);

// ---- memoized workload metadata -----------------------------------------
// The per-arrival KeyTable lookups, over a pre-sampled Zipf rank stream.

/// Ranks drawn once so the Zipf rejection-inversion stays outside the timed
/// loop.
std::vector<std::uint64_t> presampled_ranks(std::uint64_t n_keys,
                                            std::size_t count) {
  const dist::Zipf zipf(n_keys, 0.99);
  dist::Rng rng(11);
  std::vector<std::uint64_t> ranks(count);
  for (auto& r : ranks) r = zipf.sample(rng);
  return ranks;
}

constexpr std::uint64_t kBenchKeys = 200'000;

void BM_KeyMaterializeAndMap(benchmark::State& state) {
  const workload::KeySpace keys(kBenchKeys, 0.99);
  const hashing::WeightedMapper mapper({0.3, 0.25, 0.2, 0.15, 0.1});
  // Eager build: the once-per-trial table construction is setup, not the
  // per-arrival path this bench isolates (a lazy table would smear chunk
  // builds across the first timed iterations).
  workload::KeyTable table(keys, mapper, nullptr,
                           workload::KeyTable::Build::kEager);
  const auto ranks = presampled_ranks(kBenchKeys, 1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.server(ranks[i++ & (ranks.size() - 1)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyMaterializeAndMap);

void BM_RefillValueMetadata(benchmark::State& state) {
  const workload::KeySpace keys(kBenchKeys, 0.99);
  const hashing::WeightedMapper mapper({0.3, 0.25, 0.2, 0.15, 0.1});
  const workload::ValueSizeModel values(214.476, 0.348238, 1, 4096);
  workload::KeyTable table(keys, mapper, &values,
                           workload::KeyTable::Build::kEager);
  const auto ranks = presampled_ranks(kBenchKeys, 1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    const workload::KeyTable::View kv =
        table.view(ranks[i++ & (ranks.size() - 1)]);
    benchmark::DoNotOptimize(kv.hash + kv.value_bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RefillValueMetadata);

// {key, hash} records mirroring the KeyTable layout, where the memoized
// hash arrives on the same cache lines as the key.
struct KeyedEntry {
  std::string key;
  std::uint64_t hash;
};

std::vector<KeyedEntry> populated_entries(cache::LruStore& store) {
  const std::string value(200, 'v');
  std::vector<KeyedEntry> entries;
  entries.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    std::string key = "key:" + std::to_string(i);
    const std::uint64_t hash = hashing::fnv1a64(key);
    (void)store.set(key, value);
    entries.push_back(KeyedEntry{std::move(key), hash});
  }
  return entries;
}

void BM_LruStoreGetPrehashed(benchmark::State& state) {
  cache::SlabAllocator::Config cfg;
  cfg.memory_limit = 32u << 20;
  cache::LruStore store(cfg);
  const auto entries = populated_entries(store);
  const dist::Zipf zipf(50'000, 1.0);
  dist::Rng rng(1);
  for (auto _ : state) {
    const KeyedEntry& e = entries[zipf.sample(rng)];
    benchmark::DoNotOptimize(store.get(e.key, e.hash, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStoreGetPrehashed);

// ---- the flat open-addressing index (flat_index.h) -----------------------
// Prehashed entry points, so these isolate the index structure, not
// hashing.

// Ranks presampled outside the timed loop (the Zipf rejection-inversion
// costs as much as the lookup itself and its run-to-run noise would wash
// out the probe cost); the loop times get = one index probe + LRU splice.
void BM_LruStoreGetPresampled(benchmark::State& state) {
  cache::SlabAllocator::Config cfg;
  cfg.memory_limit = 32u << 20;
  cache::LruStore store(cfg);
  const auto entries = populated_entries(store);
  const auto ranks = presampled_ranks(entries.size(), 1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    const KeyedEntry& e = entries[ranks[i++ & (ranks.size() - 1)]];
    benchmark::DoNotOptimize(store.get(e.key, e.hash, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStoreGetPresampled);

// Index mutation under steady eviction: 200K keys cycled through a store
// that holds ~50K, so every set is an insert plus (usually) an
// eviction-driven erase: a probe + backward shift.
void BM_LruStoreSetChurn(benchmark::State& state) {
  cache::SlabAllocator::Config cfg;
  cfg.memory_limit = 32u << 20;
  cache::LruStore store(cfg);
  std::vector<KeyedEntry> entries;
  entries.reserve(200'000);
  for (int i = 0; i < 200'000; ++i) {
    std::string key = "key:" + std::to_string(i);
    const std::uint64_t hash = hashing::fnv1a64(key);
    entries.push_back(KeyedEntry{std::move(key), hash});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const KeyedEntry& e = entries[i++ % entries.size()];
    benchmark::DoNotOptimize(store.set_sized_hashed(e.key, e.hash, 200, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStoreSetChurn);

cluster::EndToEndConfig real_cache_bench_config() {
  cluster::EndToEndConfig cfg;
  cfg.system = core::SystemConfig::facebook();
  cfg.system.total_key_rate = 4.0 * 40'000.0;
  cfg.system.keys_per_request = 50;
  cfg.miss_mode = cluster::MissMode::kRealCache;
  cfg.keyspace_size = 100'000;
  cfg.common.cache_bytes_per_server = 4u << 20;
  // A multi-second horizon so the once-per-trial KeyTable build amortizes
  // the way it does in the figure harnesses (which run 10+ simulated
  // seconds); a sub-second horizon would mostly time table construction.
  cfg.common.warmup_time = 0.2;
  cfg.common.measure_time = 2.0;
  cfg.common.seed = 21;
  return cfg;
}

void BM_EndToEndRealCacheWorkload(benchmark::State& state) {
  const cluster::EndToEndConfig cfg = real_cache_bench_config();
  std::uint64_t keys_done = 0;
  for (auto _ : state) {
    cluster::EndToEndSim sim(cfg);
    const cluster::EndToEndResult r = sim.run();
    keys_done += r.keys_completed;
    benchmark::DoNotOptimize(r.total.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys_done));
}
BENCHMARK(BM_EndToEndRealCacheWorkload)->Unit(benchmark::kMillisecond);

// The large-keyspace fast path end to end: a million-key real-cache trial
// with the KeyTable capped at 48 MiB — just under the ~50 MiB an unbounded
// million-key table occupies, so the budget is genuinely active (the Zipf
// tail keeps evicting and rebuilding cold chunks) without degenerating
// into a rebuild per access. Wall-clock includes the lazy first-touch
// chunk builds, which dominate a single trial at this keyspace — exactly
// the cost profile the figure harnesses see. perfbench's cold_keyspace
// workload carries the RSS measurement and test_key_table_eviction the
// budget contract; this bench is the keys/s tripwire
// (scripts/ci.sh --bench-smoke).
void BM_EndToEndMillionKeyBoundedTable(benchmark::State& state) {
  cluster::EndToEndConfig cfg;
  cfg.system = core::SystemConfig::facebook();
  cfg.system.total_key_rate = 4.0 * 40'000.0;
  cfg.system.keys_per_request = 50;
  cfg.miss_mode = cluster::MissMode::kRealCache;
  cfg.keyspace_size = 1'000'000;
  cfg.common.cache_bytes_per_server = 4u << 20;
  cfg.common.keytable_budget_bytes = 48u << 20;
  cfg.common.warmup_time = 0.1;
  cfg.common.measure_time = 0.5;
  cfg.common.seed = 77;
  std::uint64_t keys_done = 0;
  for (auto _ : state) {
    cluster::EndToEndSim sim(cfg);
    const cluster::EndToEndResult r = sim.run();
    keys_done += r.keys_completed;
    benchmark::DoNotOptimize(r.total.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys_done));
}
BENCHMARK(BM_EndToEndMillionKeyBoundedTable)->Unit(benchmark::kMillisecond);

// A miss storm through the coalescing path: Bernoulli r = 1 carries no key
// identity, so every concurrent miss of a server parks behind its one
// in-flight fetch — slow fetches (μ_D = 200/s against λ = 10 K misses/s)
// keep the waiter lists long. Exercises FetchTable park/release churn plus
// the stored-handler waiter delivery in the DB departure path.
void BM_CoalescedMissStorm(benchmark::State& state) {
  cluster::EndToEndConfig cfg;
  cfg.system = core::SystemConfig::facebook();
  cfg.system.total_key_rate = 4.0 * 10'000.0;
  cfg.system.keys_per_request = 10;
  cfg.system.miss_ratio = 1.0;
  cfg.system.db_service_rate = 200.0;
  cfg.common.coalescing = cluster::MissCoalescing::kPerServer;
  cfg.common.warmup_time = 0.2;
  cfg.common.measure_time = 2.0;
  cfg.common.seed = 33;
  std::uint64_t keys_done = 0;
  for (auto _ : state) {
    cluster::EndToEndSim sim(cfg);
    const cluster::EndToEndResult r = sim.run();
    keys_done += r.keys_completed;
    benchmark::DoNotOptimize(r.measured_delayed_hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys_done));
}
BENCHMARK(BM_CoalescedMissStorm)->Unit(benchmark::kMillisecond);

// The full replica lifecycle on the hot path: hedged d = 2 at rho ~ 0.45,
// so a few percent of keys arm a deadline event, fire backups from the
// dedicated hedge stream, and every win cancels its losers (O(1)
// generation-tag kill for in-flight hops, FIFO pull for queued replicas).
// Exercises ReplicaSet group churn, the P2 deadline estimator, and the
// kernel's cancellation path under load.
void BM_HedgedFanout(benchmark::State& state) {
  cluster::EndToEndConfig cfg;
  cfg.system = core::SystemConfig::facebook();
  cfg.system.total_key_rate = 4.0 * 36'000.0;
  cfg.system.keys_per_request = 1;
  cfg.system.miss_ratio = 0.01;
  cfg.redundancy = cluster::RedundancyPolicy::hedged(2);
  cfg.common.warmup_time = 0.2;
  cfg.common.measure_time = 2.0;
  cfg.common.seed = 55;
  std::uint64_t keys_done = 0;
  for (auto _ : state) {
    cluster::EndToEndSim sim(cfg);
    const cluster::EndToEndResult r = sim.run();
    keys_done += r.keys_completed;
    benchmark::DoNotOptimize(r.replicas_cancelled);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys_done));
}
BENCHMARK(BM_HedgedFanout)->Unit(benchmark::kMillisecond);

void BM_ZipfSampleLargeKeyspace(benchmark::State& state) {
  const dist::Zipf zipf(100'000'000ull, 0.99);
  dist::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSampleLargeKeyspace);

}  // namespace

BENCHMARK_MAIN();
