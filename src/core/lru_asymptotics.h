// lru_asymptotics.h — Che approximation for LRU miss ratios.
//
// Ji, Quan & Tan ("Asymptotic Miss Ratio of LRU Caching with Consistent
// Hashing", arXiv:1801.02436) prove that a cluster of LRU caches behind
// consistent hashing has, as the server count grows, the same asymptotic
// miss ratio as ONE LRU cache of the aggregate capacity — ring imbalance
// and key partitioning wash out. The single-cache miss ratio itself is the
// classical Che (characteristic-time) approximation:
//
//   T_C solves   Σ_i (1 − e^{−p_i T_C}) = C        (items cached)
//   miss ratio   m(C) = Σ_i p_i · e^{−p_i T_C}     (per-access misses)
//
// with p_i the access pmf and C the cache capacity in items. The churn
// model-validation tier (tests/cluster/test_churn_model.cpp, ≥128 servers)
// and perfbench's churn_sharded gate evaluate the *measured*
// post-rebalance steady-state miss ratio against this prediction — the
// equal-aggregate-capacity equivalence is exactly what a membership event
// perturbs and what the steady state must return to.
#pragma once

#include <cmath>
#include <vector>

#include "math/numerics.h"

namespace mclat::core {

/// Expected items resident in an LRU cache with characteristic time `t`
/// under independent-reference accesses with pmf `pmf` (the left side of
/// Che's fixed point; monotonically increasing in `t`).
inline double che_expected_items(const std::vector<double>& pmf, double t) {
  double items = 0.0;
  for (const double p : pmf) items += -std::expm1(-p * t);
  return items;
}

/// Solves Che's fixed point Σ(1 − e^{−p_i T_C}) = c_items for the
/// characteristic time T_C by bisection. `c_items` must lie strictly
/// between 0 and the pmf's support size (a cache holding every key has no
/// finite T_C).
inline double lru_characteristic_time(const std::vector<double>& pmf,
                                      double c_items) {
  math::require(!pmf.empty(), "lru_characteristic_time: empty pmf");
  math::require(c_items > 0.0 &&
                    c_items < static_cast<double>(pmf.size()),
                "lru_characteristic_time: c_items must be in (0, #keys)");
  double lo = 0.0;
  double hi = 1.0;
  while (che_expected_items(pmf, hi) < c_items) {
    hi *= 2.0;
    math::require(std::isfinite(hi),
                  "lru_characteristic_time: bisection bracket diverged");
  }
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (che_expected_items(pmf, mid) < c_items) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Che-approximate steady-state miss ratio of an LRU cache of `c_items`
/// items under iid accesses with pmf `pmf`: Σ p_i e^{−p_i T_C}. By the
/// Ji/Quan/Tan equivalence this is also the asymptotic miss ratio of a
/// consistent-hashing cluster whose per-server LRU capacities *sum* to
/// `c_items`.
inline double lru_miss_ratio_che(const std::vector<double>& pmf,
                                 double c_items) {
  const double t = lru_characteristic_time(pmf, c_items);
  double miss = 0.0;
  for (const double p : pmf) miss += p * std::exp(-p * t);
  return miss;
}

}  // namespace mclat::core
