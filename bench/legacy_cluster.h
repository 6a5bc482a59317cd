// legacy_cluster.h — the pre-engine cluster simulators, kept verbatim as
// in-process twins for the engine equivalence suite (ctest label `cluster`).
//
// PR 5 rebuilt EndToEndSim, TraceReplaySim and WorkloadDrivenSim on the
// composable fork-join engine (src/cluster/engine/). The contract of that
// refactor is *sample-for-sample* identity: the engine-backed simulators
// must produce the same RNG draws, the same event schedule and therefore
// the same statistics as the code they replaced, for every mode
// combination the old code supported. These functions are that old code —
// the three run() bodies copied unchanged (modulo namespace) at the commit
// boundary — compiled into the same binary so the equivalence tests compare
// both pipelines in-process.
//
// This is NOT production code: the simulators all run on the engine. Do
// not grow features here; new fields on the config structs (the redundancy
// policy, trace-replay miss_mode) are deliberately ignored — the twins
// implement exactly the pre-engine feature set.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/lru_store.h"
#include "cluster/delay_station.h"
#include "cluster/end_to_end.h"
#include "cluster/job_table.h"
#include "cluster/trace_replay.h"
#include "cluster/workload_driven.h"
#include "dist/discrete.h"
#include "dist/exponential.h"
#include "exec/seed_stream.h"
#include "hashing/consistent_hash.h"
#include "hashing/key_mapper.h"
#include "hashing/weighted_mapper.h"
#include "math/numerics.h"
#include "sim/multi_station.h"
#include "sim/simulator.h"
#include "sim/source.h"
#include "sim/station.h"
#include "stats/reservoir.h"
#include "stats/welford.h"
#include "workload/key_table.h"
#include "workload/keyspace.h"
#include "workload/size_model.h"
#include "workload/trace.h"

namespace mclat::bench::legacy_cluster {

namespace detail {

struct RequestState {
  double start = 0.0;
  std::uint32_t remaining = 0;
  double max_server = 0.0;
  double max_db = 0.0;
  double max_total = 0.0;
  double sum_total = 0.0;
  bool measured = false;
};

struct KeyContext {
  std::uint64_t request_id = 0;
  std::uint64_t key_rank = 0;
  std::size_t server = 0;
  double server_sojourn = 0.0;
  double db_sojourn = 0.0;
};

inline std::unique_ptr<hashing::KeyMapper> make_mapper(
    cluster::MapperKind kind, const std::vector<double>& shares) {
  switch (kind) {
    case cluster::MapperKind::kWeighted:
      return std::make_unique<hashing::WeightedMapper>(shares);
    case cluster::MapperKind::kRing:
      return std::make_unique<hashing::ConsistentHashRing>(shares.size());
    case cluster::MapperKind::kModulo:
      return std::make_unique<hashing::ModuloMapper>(shares.size());
  }
  throw std::logic_error("legacy_cluster make_mapper: unhandled mapper kind");
}

}  // namespace detail

/// The pre-engine EndToEndSim::run(), verbatim.
inline cluster::EndToEndResult run_end_to_end(
    const cluster::EndToEndConfig& cfg_) {
  using namespace mclat::cluster;
  using detail::KeyContext;
  using detail::RequestState;

  const core::SystemConfig& sys = cfg_.system;
  const std::vector<double> shares = sys.shares();
  const std::size_t M = shares.size();
  const double net_half = sys.network_latency / 2.0;
  const double horizon = cfg_.common.warmup_time + cfg_.common.measure_time;
  const bool real_cache = cfg_.miss_mode == MissMode::kRealCache;

  sim::Simulator s;
  dist::Rng master(cfg_.common.seed);
  dist::Rng req_rng = master.split();
  dist::Rng miss_rng = master.split();
  dist::Rng key_rng = master.split();
  [[maybe_unused]] dist::Rng value_rng = master.split();

  const std::unique_ptr<hashing::KeyMapper> mapper =
      detail::make_mapper(cfg_.mapper, shares);
  const dist::Discrete server_pick(shares);

  JobTable<RequestState> requests;
  JobTable<KeyContext> keys;

  stats::Welford w_network;
  stats::Welford w_server;
  stats::Welford w_db;
  stats::Welford w_total;
  std::vector<double> total_samples;
  std::uint64_t measured_keys = 0;
  std::uint64_t measured_misses = 0;
  std::uint64_t keys_completed = 0;

  const obs::Recorder& rec = cfg_.recorder;
  obs::LatencyStat* st_network = rec.latency("stage.network_us");
  obs::LatencyStat* st_server = rec.latency("stage.server_us");
  obs::LatencyStat* st_db = rec.latency("stage.database_us");
  obs::LatencyStat* st_total = rec.latency("stage.total_us");
  obs::LatencyStat* st_gap = rec.latency("request.sync_gap_us");
  obs::LatencyStat* st_slack = rec.latency("request.sync_slack_us");
  obs::LatencyStat* st_db_sojourn = rec.latency("db.sojourn_us");
  obs::Counter* ct_keys = rec.counter("sim.keys_completed");
  obs::Counter* ct_misses = rec.counter("db.misses");

  std::unique_ptr<workload::KeySpace> keyspace;
  std::unique_ptr<workload::KeyTable> key_table;
  std::vector<std::unique_ptr<cache::LruStore>> stores;
  const workload::ValueSizeModel value_sizes(214.476, 0.348238, 1,
                                             cfg_.common.max_value_bytes);
  if (real_cache) {
    keyspace = std::make_unique<workload::KeySpace>(cfg_.keyspace_size,
                                                    cfg_.zipf_exponent);
    key_table = std::make_unique<workload::KeyTable>(*keyspace, *mapper,
                                                     &value_sizes);
    cache::SlabAllocator::Config scfg;
    scfg.memory_limit = cfg_.common.cache_bytes_per_server;
    scfg.page_size = std::min<std::size_t>(
        64 * 1024, std::max<std::size_t>(cfg_.common.cache_bytes_per_server / 32,
                                         8 * 1024));
    scfg.growth_factor = 2.0;
    stores.reserve(M);
    for (std::size_t j = 0; j < M; ++j) {
      stores.push_back(std::make_unique<cache::LruStore>(scfg));
    }
  }

  std::function<void(std::uint64_t)> complete_key;

  complete_key = [&](std::uint64_t job) {
    const KeyContext ctx =
        keys.take(job, "EndToEndSim: completion for unknown key job");
    ++keys_completed;
    auto& req = requests.at(
        ctx.request_id, "EndToEndSim: key completion for unknown request");
    const double total = s.now() - req.start;
    req.max_server = std::max(req.max_server, ctx.server_sojourn);
    req.max_db = std::max(req.max_db, ctx.db_sojourn);
    req.max_total = std::max(req.max_total, total);
    req.sum_total += total;
    if (--req.remaining == 0) {
      if (req.measured) {
        w_network.add(sys.network_latency);
        w_server.add(req.max_server);
        w_db.add(req.max_db);
        w_total.add(req.max_total);
        total_samples.push_back(req.max_total);
        obs::observe(st_network, obs::to_us(sys.network_latency));
        obs::observe(st_server, obs::to_us(req.max_server));
        obs::observe(st_db, obs::to_us(req.max_db));
        obs::observe(st_total, obs::to_us(req.max_total));
        obs::observe(st_gap,
                     obs::to_us(req.max_total -
                                req.sum_total /
                                    static_cast<double>(sys.keys_per_request)));
        obs::observe(st_slack,
                     obs::to_us(sys.network_latency + req.max_server +
                                req.max_db - req.max_total));
      }
      requests.erase(ctx.request_id,
                     "EndToEndSim: double-completed request");
    }
  };

  std::unique_ptr<DelayStation> db_inf;
  std::unique_ptr<sim::ServiceStation> db_q;
  std::unique_ptr<sim::MultiServerStation> db_pool;
  const auto on_db_departure = [&](const sim::Departure& d) {
    KeyContext& ctx =
        keys.at(d.job_id, "EndToEndSim: database departure for unknown key");
    ctx.db_sojourn = d.sojourn_time();
    if (requests
            .at(ctx.request_id,
                "EndToEndSim: database departure for unknown request")
            .measured) {
      obs::observe(st_db_sojourn, obs::to_us(d.sojourn_time()));
    }
    if (real_cache) {
      const workload::KeyTable::View kv = key_table->view(ctx.key_rank);
      stores[ctx.server]->set_sized_hashed(kv.key, kv.hash, kv.value_bytes,
                                           s.now());
    }
    s.schedule_in(net_half, [&, job = d.job_id] { complete_key(job); });
  };
  switch (cfg_.db_mode) {
    case DbMode::kInfiniteServer:
      db_inf = std::make_unique<DelayStation>(
          s, std::make_unique<dist::Exponential>(sys.db_service_rate),
          master.split(), on_db_departure);
      break;
    case DbMode::kSingleServer:
      db_q = std::make_unique<sim::ServiceStation>(
          s, std::make_unique<dist::Exponential>(sys.db_service_rate),
          master.split(), on_db_departure);
      break;
    case DbMode::kPooled:
      db_pool = std::make_unique<sim::MultiServerStation>(
          s, cfg_.db_servers,
          std::make_unique<dist::Exponential>(sys.db_service_rate),
          master.split(), on_db_departure);
      break;
  }
  const auto submit_db = [&](std::uint64_t job) {
    if (db_inf) {
      db_inf->submit(job);
    } else if (db_pool) {
      db_pool->arrive(job);
    } else {
      db_q->arrive(job);
    }
  };

  std::vector<std::unique_ptr<sim::ServiceStation>> servers;
  servers.reserve(M);
  for (std::size_t j = 0; j < M; ++j) {
    const std::string prefix = "server." + std::to_string(j);
    servers.push_back(std::make_unique<sim::ServiceStation>(
        s, std::make_unique<dist::Exponential>(sys.rate_of(j)),
        master.split(), [&, j](const sim::Departure& d) {
          auto& ctx = keys.at(
              d.job_id, "EndToEndSim: server departure for unknown key");
          ctx.server_sojourn = d.sojourn_time();
          bool miss;
          if (real_cache) {
            const workload::KeyTable::View kv = key_table->view(ctx.key_rank);
            miss = !stores[j]->get(kv.key, kv.hash, s.now()).has_value();
          } else {
            miss = sys.miss_ratio > 0.0 && miss_rng.bernoulli(sys.miss_ratio);
          }
          const auto& req = requests.at(
              ctx.request_id,
              "EndToEndSim: server departure for unknown request");
          if (req.measured) {
            ++measured_keys;
            obs::bump(ct_keys);
            if (miss) {
              ++measured_misses;
              obs::bump(ct_misses);
            }
          }
          if (miss) {
            submit_db(d.job_id);
          } else {
            s.schedule_in(net_half,
                          [&, job = d.job_id] { complete_key(job); });
          }
        }));
    servers.back()->observe_split(rec.latency(prefix + ".wait_us"),
                                  rec.latency(prefix + ".service_us"),
                                  cfg_.common.warmup_time);
  }

  const double rate = cfg_.effective_request_rate();
  bool generating = true;
  std::function<void()> arrival = [&] {
    if (!generating) return;
    RequestState st;
    st.start = s.now();
    st.remaining = sys.keys_per_request;
    st.measured = s.now() >= cfg_.common.warmup_time;
    const std::uint64_t rid = requests.insert(st);
    for (std::uint32_t i = 0; i < sys.keys_per_request; ++i) {
      KeyContext ctx;
      ctx.request_id = rid;
      std::size_t server_idx;
      if (real_cache) {
        ctx.key_rank = keyspace->sample_rank(key_rng);
        server_idx = key_table->server(ctx.key_rank);
      } else {
        server_idx = server_pick.sample(key_rng);
      }
      ctx.server = server_idx;
      const std::uint64_t job = keys.insert(ctx);
      s.schedule_in(net_half,
                    [&, job, server_idx] { servers[server_idx]->arrive(job); });
    }
    s.schedule_in(req_rng.exponential(rate), [&arrival] { arrival(); });
  };
  s.schedule_in(req_rng.exponential(rate), [&arrival] { arrival(); });

  s.run_until(horizon);
  generating = false;
  s.run();

  cluster::EndToEndResult res;
  res.network = stats::mean_ci(w_network);
  res.server = stats::mean_ci(w_server);
  res.database = stats::mean_ci(w_db);
  res.total = stats::mean_ci(w_total);
  res.total_samples = std::move(total_samples);
  res.measured_miss_ratio =
      measured_keys == 0
          ? 0.0
          : static_cast<double>(measured_misses) /
                static_cast<double>(measured_keys);
  res.server_utilization.reserve(M);
  for (std::size_t j = 0; j < M; ++j) {
    res.server_utilization.push_back(servers[j]->utilization(horizon));
    obs::set_gauge(rec.gauge("server." + std::to_string(j) + ".utilization"),
                   res.server_utilization.back());
  }
  res.requests_completed = w_total.count();
  res.keys_completed = keys_completed;
  res.events_executed = s.events_executed();
  return res;
}

/// The pre-engine TraceReplaySim::run(), verbatim (Bernoulli misses only,
/// no warmup cutoff, `rank % keys.size()` aliasing and all).
inline cluster::TraceReplayResult run_trace_replay(
    const cluster::TraceReplayConfig& cfg_, const workload::Trace& trace,
    const workload::KeySpace& keys) {
  using namespace mclat::cluster;

  struct RequestState {
    double start = 0.0;
    std::uint32_t remaining = 0;
    std::uint32_t n_keys = 0;
    double max_server = 0.0;
    double max_db = 0.0;
    double max_total = 0.0;
    double sum_total = 0.0;
  };
  struct KeyState {
    std::uint32_t request_index = 0;
    double server_sojourn = 0.0;
    double db_sojourn = 0.0;
  };

  math::require(!trace.empty(), "TraceReplaySim: empty trace");
  const core::SystemConfig& sys = cfg_.system;
  const std::size_t M = sys.shares().size();
  const double net_half = sys.network_latency / 2.0;

  std::unordered_map<std::uint64_t, std::uint32_t> request_index;
  std::vector<RequestState> requests;
  for (const auto& rec : trace.records()) {
    const auto [it, fresh] = request_index.try_emplace(
        rec.request_id, static_cast<std::uint32_t>(requests.size()));
    if (fresh) requests.emplace_back();
    RequestState& req = requests[it->second];
    req.remaining += 1;
    req.n_keys += 1;
    req.start = fresh ? rec.time : std::min(req.start, rec.time);
  }

  sim::Simulator s;
  dist::Rng master(cfg_.common.seed);
  dist::Rng miss_rng = master.split();
  const auto mapper = detail::make_mapper(cfg_.mapper, sys.shares());

  JobTable<KeyState> in_flight;

  stats::Welford w_net;
  stats::Welford w_server;
  stats::Welford w_db;
  stats::Welford w_total;
  std::uint64_t keys_completed = 0;
  std::uint64_t misses = 0;
  std::uint64_t requests_completed = 0;

  const obs::Recorder& orec = cfg_.recorder;
  obs::LatencyStat* st_network = orec.latency("stage.network_us");
  obs::LatencyStat* st_server = orec.latency("stage.server_us");
  obs::LatencyStat* st_db = orec.latency("stage.database_us");
  obs::LatencyStat* st_total = orec.latency("stage.total_us");
  obs::LatencyStat* st_gap = orec.latency("request.sync_gap_us");
  obs::LatencyStat* st_slack = orec.latency("request.sync_slack_us");
  obs::LatencyStat* st_db_sojourn = orec.latency("db.sojourn_us");
  obs::Counter* ct_keys = orec.counter("sim.keys_completed");
  obs::Counter* ct_misses = orec.counter("db.misses");

  const auto complete_key = [&](std::uint64_t job) {
    const KeyState ks =
        in_flight.take(job, "TraceReplaySim: completion for unknown key job");
    ++keys_completed;
    obs::bump(ct_keys);
    math::require(ks.request_index < requests.size(),
                  "TraceReplaySim: key references an unknown request");
    RequestState& req = requests[ks.request_index];
    req.max_server = std::max(req.max_server, ks.server_sojourn);
    req.max_db = std::max(req.max_db, ks.db_sojourn);
    const double total = s.now() - req.start;
    req.max_total = std::max(req.max_total, total);
    req.sum_total += total;
    if (--req.remaining == 0) {
      ++requests_completed;
      w_net.add(sys.network_latency);
      w_server.add(req.max_server);
      w_db.add(req.max_db);
      w_total.add(req.max_total);
      obs::observe(st_network, obs::to_us(sys.network_latency));
      obs::observe(st_server, obs::to_us(req.max_server));
      obs::observe(st_db, obs::to_us(req.max_db));
      obs::observe(st_total, obs::to_us(req.max_total));
      obs::observe(st_gap,
                   obs::to_us(req.max_total -
                              req.sum_total /
                                  static_cast<double>(req.n_keys)));
      obs::observe(st_slack,
                   obs::to_us(sys.network_latency + req.max_server +
                              req.max_db - req.max_total));
    }
  };

  cluster::DelayStation db(
      s, std::make_unique<dist::Exponential>(sys.db_service_rate),
      master.split(), [&](const sim::Departure& d) {
        in_flight
            .at(d.job_id,
                "TraceReplaySim: database departure for "
                "unknown key")
            .db_sojourn = d.sojourn_time();
        obs::observe(st_db_sojourn, obs::to_us(d.sojourn_time()));
        s.schedule_in(net_half, [&, job = d.job_id] { complete_key(job); });
      });

  std::vector<std::unique_ptr<sim::ServiceStation>> servers;
  servers.reserve(M);
  for (std::size_t j = 0; j < M; ++j) {
    servers.push_back(std::make_unique<sim::ServiceStation>(
        s, std::make_unique<dist::Exponential>(sys.rate_of(j)),
        master.split(), [&](const sim::Departure& d) {
          in_flight
              .at(d.job_id,
                  "TraceReplaySim: server departure for unknown key")
              .server_sojourn = d.sojourn_time();
          const bool miss =
              sys.miss_ratio > 0.0 && miss_rng.bernoulli(sys.miss_ratio);
          if (miss) {
            ++misses;
            obs::bump(ct_misses);
            db.submit(d.job_id);
          } else {
            s.schedule_in(net_half,
                          [&, job = d.job_id] { complete_key(job); });
          }
        }));
    servers.back()->observe_split(
        orec.latency("server." + std::to_string(j) + ".wait_us"),
        orec.latency("server." + std::to_string(j) + ".service_us"));
  }

  workload::KeyTable key_table(keys, *mapper);
  double prev_time = 0.0;
  for (const auto& rec : trace.records()) {
    math::require(rec.time >= prev_time,
                  "TraceReplaySim: trace must be sorted by time");
    prev_time = rec.time;
    const std::uint64_t job =
        in_flight.insert(KeyState{request_index.at(rec.request_id), 0.0, 0.0});
    const std::size_t server = key_table.server(rec.key_rank % keys.size());
    s.schedule_at(rec.time + net_half,
                  [&, job, server] { servers[server]->arrive(job); });
  }
  s.run();

  cluster::TraceReplayResult res;
  res.network = stats::mean_ci(w_net);
  res.server = stats::mean_ci(w_server);
  res.database = stats::mean_ci(w_db);
  res.total = stats::mean_ci(w_total);
  res.requests_completed = requests_completed;
  res.keys_completed = keys_completed;
  res.measured_miss_ratio =
      keys_completed == 0
          ? 0.0
          : static_cast<double>(misses) / static_cast<double>(keys_completed);
  res.horizon = s.now();
  res.server_utilization.reserve(M);
  for (std::size_t j = 0; j < M; ++j) {
    res.server_utilization.push_back(servers[j]->utilization(s.now()));
    obs::set_gauge(
        orec.gauge("server." + std::to_string(j) + ".utilization"),
        res.server_utilization.back());
  }
  return res;
}

/// The pre-engine WorkloadDrivenSim::run(), verbatim.
inline cluster::MeasurementPools run_workload_driven(
    const cluster::WorkloadDrivenConfig& cfg_) {
  using namespace mclat::cluster;

  const core::SystemConfig& sys = cfg_.system;
  const std::vector<double> shares = sys.shares();
  MeasurementPools pools;
  pools.server_sojourns.resize(shares.size());
  pools.server_utilization.resize(shares.size(), 0.0);

  dist::Rng master(cfg_.common.seed);

  for (std::size_t j = 0; j < shares.size(); ++j) {
    if (shares[j] <= 0.0) continue;
    const workload::ArrivalSpec spec = sys.arrival_for_share(shares[j]);
    sim::Simulator s;
    dist::Rng station_rng = master.split();
    dist::Rng source_rng = master.split();
    dist::Rng pool_rng = master.split();
    stats::Reservoir pool(cfg_.pool_cap);
    const double measure_from = cfg_.common.warmup_time;
    std::uint64_t next_job = 0;

    sim::ServiceStation station(
        s,
        std::make_unique<dist::Exponential>(sys.rate_of(j)),
        station_rng,
        [&](const sim::Departure& d) {
          if (d.arrival >= measure_from) {
            pool.add(d.sojourn_time(), pool_rng);
          }
        });
    const std::string prefix = "server." + std::to_string(j);
    station.observe_split(cfg_.recorder.latency(prefix + ".wait_us"),
                          cfg_.recorder.latency(prefix + ".service_us"),
                          measure_from);
    sim::BatchSource source(
        s, spec.make_gap(), spec.make_batch(), source_rng,
        [&](std::uint64_t batch) {
          for (std::uint64_t k = 0; k < batch; ++k) station.arrive(next_job++);
        });
    source.start();
    s.run_until(cfg_.common.warmup_time + cfg_.common.measure_time);
    source.stop();

    pools.server_sojourns[j] = pool.take();
    pools.server_utilization[j] = station.utilization(s.now());
    pools.total_keys += station.completed();
    obs::set_gauge(cfg_.recorder.gauge(prefix + ".utilization"),
                   pools.server_utilization[j]);
    obs::bump(cfg_.recorder.counter("sim.keys_completed"),
              station.completed());
  }

  if (sys.miss_ratio > 0.0) {
    const double miss_rate = sys.miss_ratio * sys.total_key_rate;
    pools.measured_miss_rate_hz = miss_rate;
    sim::Simulator s;
    dist::Rng db_rng = master.split();
    dist::Rng arr_rng = master.split();
    dist::Rng pool_rng = master.split();
    stats::Reservoir pool(cfg_.pool_cap);
    obs::LatencyStat* db_stat = cfg_.recorder.latency("db.sojourn_us");
    obs::Counter* db_misses = cfg_.recorder.counter("db.misses");
    cluster::DelayStation db(
        s, std::make_unique<dist::Exponential>(sys.db_service_rate), db_rng,
        [&](const sim::Departure& d) {
          if (d.arrival >= cfg_.common.warmup_time) {
            pool.add(d.sojourn_time(), pool_rng);
            obs::observe(db_stat, obs::to_us(d.sojourn_time()));
            obs::bump(db_misses);
          }
        });
    std::uint64_t job = 0;
    std::function<void()> arrival = [&] {
      db.submit(job++);
      s.schedule_in(arr_rng.exponential(miss_rate), [&arrival] { arrival(); });
    };
    s.schedule_in(arr_rng.exponential(miss_rate), [&arrival] { arrival(); });
    s.run_until(cfg_.common.warmup_time + cfg_.common.measure_time);
    pools.db_sojourns = pool.take();
  }
  return pools;
}

}  // namespace mclat::bench::legacy_cluster
