// bench_micro_core — google-benchmark microbenchmarks of the analytical
// hot paths: Laplace transforms, the δ-solver, quantile evaluation, full
// Theorem-1 estimation and the cliff solver. These bound how cheap it is to
// embed the model in a control loop (e.g. a load balancer re-evaluating
// cliff headroom every second).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/cliff.h"
#include "core/delta.h"
#include "core/theorem1.h"
#include "dist/discrete.h"
#include "dist/exponential.h"
#include "dist/generalized_pareto.h"
#include "dist/rng.h"

namespace {

using namespace mclat;

void BM_LaplaceExponentialClosedForm(benchmark::State& state) {
  const dist::Exponential e(80'000.0);
  double s = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.laplace(s));
    s += 1.0;
  }
}
BENCHMARK(BM_LaplaceExponentialClosedForm);

void BM_LaplaceGeneralizedParetoNumeric(benchmark::State& state) {
  const auto gp = dist::GeneralizedPareto::with_mean(0.15, 1.78e-5);
  double s = 10'000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.laplace(s));
    s += 1.0;
  }
}
BENCHMARK(BM_LaplaceGeneralizedParetoNumeric);

void BM_DeltaSolvePoisson(benchmark::State& state) {
  const dist::Exponential gap(0.9 * 62'500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_delta(gap, 0.1, 80'000.0));
  }
}
BENCHMARK(BM_DeltaSolvePoisson);

void BM_DeltaSolveGeneralizedPareto(benchmark::State& state) {
  const auto gap = dist::GeneralizedPareto::with_mean(0.15, 1.78e-5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_delta(gap, 0.1, 80'000.0));
  }
}
BENCHMARK(BM_DeltaSolveGeneralizedPareto);

void BM_GixM1QuantileBounds(benchmark::State& state) {
  const auto gap = dist::GeneralizedPareto::with_mean(0.15, 1.78e-5);
  const core::GixM1Queue q(gap, 0.1, 80'000.0);
  double k = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.sojourn_quantile_bounds(k));
    k = k >= 0.99 ? 0.01 : k + 0.001;
  }
}
BENCHMARK(BM_GixM1QuantileBounds);

void BM_LatencyModelConstruct(benchmark::State& state) {
  const core::SystemConfig cfg = core::SystemConfig::facebook();
  for (auto _ : state) {
    const core::LatencyModel m(cfg);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK(BM_LatencyModelConstruct);

void BM_LatencyModelEstimate(benchmark::State& state) {
  const core::LatencyModel m(core::SystemConfig::facebook());
  std::uint64_t n = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.estimate(n));
    n = n >= 100'000 ? 1 : n * 2;
  }
}
BENCHMARK(BM_LatencyModelEstimate);

// ---- categorical sampling: the alias table ----------------------------
// Every key of every assembled request draws its server from a Discrete;
// these isolate that draw: one uniform, one O(1) alias lookup.

std::vector<double> zipfish_weights(std::size_t k) {
  std::vector<double> w(k);
  for (std::size_t i = 0; i < k; ++i) w[i] = 1.0 / static_cast<double>(i + 1);
  return w;
}

void BM_DiscreteSampleK16(benchmark::State& state) {
  const dist::Discrete d(zipfish_weights(16));
  dist::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteSampleK16);

void BM_DiscreteSampleK1024(benchmark::State& state) {
  const dist::Discrete d(zipfish_weights(1024));
  dist::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteSampleK1024);

void BM_CliffUtilization(benchmark::State& state) {
  const core::CliffAnalyzer c;
  double xi = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.cliff_utilization(xi));
    xi = xi >= 0.9 ? 0.0 : xi + 0.05;
  }
}
BENCHMARK(BM_CliffUtilization);

}  // namespace

BENCHMARK_MAIN();
