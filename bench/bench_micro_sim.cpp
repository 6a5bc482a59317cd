// bench_micro_sim — microbenchmarks of the discrete-event kernel: raw event
// throughput, schedule/cancel churn, small-buffer spill, M/M/1 station
// cycles, batch-source emission, end-to-end events/sec. These determine how
// much simulated time the figure harnesses can afford.
//
// scripts/ci.sh --bench-smoke holds the headline entries to absolute
// floors; perfbench/ is the end-to-end harness.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dist/exponential.h"
#include "dist/generalized_pareto.h"
#include "dist/rng.h"
#include "sim/simulator.h"
#include "sim/source.h"
#include "sim/station.h"

namespace {

using namespace mclat;

// ---------------------------------------------------------------------------
// Kernel-only workloads.
// ---------------------------------------------------------------------------

void BM_ScheduleAndRunEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1024; ++i) {
      s.schedule_at(static_cast<double>(i % 37), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ScheduleAndRunEvents);

void BM_SelfReschedulingClock(benchmark::State& state) {
  // The arrival-process pattern: one event that reschedules itself.
  for (auto _ : state) {
    sim::Simulator s;
    int remaining = 1024;
    std::function<void()> tick = [&] {
      if (--remaining > 0) s.schedule_in(1.0, tick);
    };
    s.schedule_in(1.0, tick);
    s.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SelfReschedulingClock);

void BM_ScheduleCancelChurn(benchmark::State& state) {
  // Timer-wheel abuse: every event is scheduled and then cancelled before
  // it can fire, the dominant pattern of retry/timeout layers. Exercises
  // cancellation cost and dead-entry disposal in the calendar.
  for (auto _ : state) {
    sim::Simulator s;
    dist::Rng rng(7);
    std::vector<std::uint64_t> ids;
    ids.reserve(256);
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 256; ++i) {
        ids.push_back(s.schedule_at(1.0 + rng.uniform(), [] {}));
      }
      for (const auto id : ids) s.cancel(id);
      ids.clear();
      s.run_until(0.5);  // dispose of nothing: all cancellations are live
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ScheduleCancelChurn);

void BM_SlotRecyclingMixedHorizon(benchmark::State& state) {
  // Steady-state calendar churn: a rotating population of pending events at
  // mixed horizons, every third one cancelled and replaced — the shape of a
  // cluster sim's in-flight request set.
  for (auto _ : state) {
    sim::Simulator s;
    dist::Rng rng(11);
    std::array<std::uint64_t, 64> pending{};
    std::uint64_t fired = 0;
    int i = 0;
    std::function<void()> refill = [&] {
      ++fired;
      const std::size_t k = i++ & 63;
      if (i % 3 == 0) s.cancel(pending[(i * 7) & 63]);
      pending[k] = s.schedule_in(0.01 + rng.uniform(), refill);
    };
    for (int j = 0; j < 64; ++j) {
      pending[j] = s.schedule_in(rng.uniform(), refill);
    }
    s.run_until(20.0);
    benchmark::DoNotOptimize(fired);
    state.counters["events"] = static_cast<double>(s.events_executed());
  }
}
BENCHMARK(BM_SlotRecyclingMixedHorizon);

void BM_SboSpillOversizedCapture(benchmark::State& state) {
  // Captures past InlineCallback's inline buffer (64 B) take the rare heap
  // fallback. Guards the spill path against regressions.
  struct Fat {
    std::array<std::uint64_t, 24> payload;  // 192 B: 3x the inline buffer
  };
  static_assert(!sim::InlineCallback::stores_inline<
                decltype([f = Fat{}] { benchmark::DoNotOptimize(&f); })>());
  for (auto _ : state) {
    sim::Simulator s;
    Fat fat{};
    fat.payload[0] = 1;
    std::uint64_t sum = 0;
    for (int i = 0; i < 256; ++i) {
      s.schedule_at(static_cast<double>(i % 19),
                    [fat, &sum] { sum += fat.payload[0]; });
    }
    s.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SboSpillOversizedCapture);

// ---------------------------------------------------------------------------
// Station-level workloads.
// ---------------------------------------------------------------------------

void BM_MM1StationKeysPerSecond(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    sim::ServiceStation st(s, std::make_unique<dist::Exponential>(80'000.0),
                           dist::Rng(1), [](const sim::Departure&) {});
    dist::Rng arr(2);
    std::uint64_t id = 0;
    // Reschedule through a one-pointer trampoline, exactly as the cluster
    // simulators do: copying the std::function closure into the calendar
    // per arrival would measure the copy, not the station (DESIGN.md §4d).
    std::function<void()> arrive = [&] {
      st.arrive(id++);
      s.schedule_in(arr.exponential(62'500.0), [&arrive] { arrive(); });
    };
    s.schedule_in(0.0, [&arrive] { arrive(); });
    s.run_until(1.0);  // one simulated second ≈ 62.5k keys
    benchmark::DoNotOptimize(st.completed());
  }
  state.SetItemsProcessed(state.iterations() * 62'500);
}
BENCHMARK(BM_MM1StationKeysPerSecond);

void BM_GixM1FacebookServerSecond(benchmark::State& state) {
  // One simulated second of the exact Table-3 per-server workload.
  for (auto _ : state) {
    sim::Simulator s;
    sim::ServiceStation st(s, std::make_unique<dist::Exponential>(80'000.0),
                           dist::Rng(3), [](const sim::Departure&) {});
    const auto gap = dist::GeneralizedPareto::with_mean(
        0.15, 1.0 / (0.9 * 62'500.0));
    std::uint64_t id = 0;
    sim::BatchSource src(s, gap.clone(), dist::GeometricBatch(0.1),
                         dist::Rng(4), [&](std::uint64_t n) {
                           for (std::uint64_t i = 0; i < n; ++i)
                             st.arrive(id++);
                         });
    src.start();
    s.run_until(1.0);
    benchmark::DoNotOptimize(st.completed());
  }
  state.SetItemsProcessed(state.iterations() * 62'500);
}
BENCHMARK(BM_GixM1FacebookServerSecond);

void BM_GeneralizedParetoSampling(benchmark::State& state) {
  const auto gp = dist::GeneralizedPareto::with_mean(0.15, 1.0);
  dist::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.sample(rng));
  }
}
BENCHMARK(BM_GeneralizedParetoSampling);

}  // namespace

BENCHMARK_MAIN();
