#include "checks.h"

#include <cmath>
#include <cstring>
#include <set>

namespace perfbench {
namespace {

/// Collects violations; a fact the law needs but the call did not produce
/// is itself a violation.
class Gate {
 public:
  explicit Gate(const Facts& f) : f_(f) {}

  [[nodiscard]] bool has(const std::string& k) const { return f_.count(k) != 0; }

  [[nodiscard]] double at(const std::string& k) {
    const auto it = f_.find(k);
    if (it == f_.end()) {
      out_.push_back("missing fact " + k);
      return std::nan("");
    }
    return it->second;
  }

  void require(bool ok, const std::string& law) {
    if (!ok) out_.push_back(law);
  }

  [[nodiscard]] Violations take() { return std::move(out_); }

 private:
  const Facts& f_;
  Violations out_;
};

bool is_whole(double x) { return std::isfinite(x) && x == std::floor(x); }

/// Misses recorded as a ratio of some key count must be a whole number of
/// misses equal to fetches + delayed hits (conservation).
void miss_conservation(Gate& g, double misses) {
  const double fetches = g.at("db_fetches");
  const double delayed = g.at("delayed_hits");
  g.require(std::fabs(misses - std::round(misses)) <= 1e-6 * (1.0 + misses),
            "misses are not a whole number");
  g.require(std::round(misses) == fetches + delayed,
            "misses != db_fetches + delayed_hits");
}

/// Theorem-1 envelope at the tolerances of
/// tests/integration/test_table3_validation.cpp.
void total_envelope(Gate& g) {
  const double total = g.at("total.mean");
  g.require(total >= 0.95 * g.at("theory.total.lower"),
            "E[T(N)] below 0.95 x the Theorem-1 lower bound");
  g.require(total <= 1.25 * g.at("theory.total.upper"),
            "E[T(N)] above 1.25 x the Theorem-1 upper bound");
}

Facts with(const Facts& f, const std::string& k, double v) {
  Facts g = f;
  g[k] = v;
  return g;
}

}  // namespace

Violations check_table3(const Facts& f) {
  Gate g(f);
  const double reps = g.at("reps");
  const double requests = g.at("requests");
  const double n = g.at("n");
  g.require(g.at("total.count") == reps * requests,
            "assembled requests != reps x requests");
  if (g.has("assembly.keys")) {
    g.require(g.at("assembly.keys") == reps * requests * n,
              "assembled keys != reps x requests x N");
    g.require(g.at("stage.total.count") == reps * requests,
              "stage.total_us observations != joined requests");
  }
  g.require(g.at("network.mean") == g.at("network_latency"),
            "T_N(N) is not the configured constant");
  // Server row: [lower, upper + gamma/eta] stretched by 5 %, the documented
  // quantile-approximation undershoot of E[max].
  const double upper = g.at("theory.server.upper");
  const double gamma_over_eta = 0.5772 * upper / std::log(n + 1.0);
  const double server = g.at("server.mean");
  g.require(server >= 0.95 * g.at("theory.server.lower"),
            "E[T_S(N)] below 0.95 x its lower bound");
  g.require(server <= 1.05 * (upper + gamma_over_eta),
            "E[T_S(N)] above 1.05 x (upper bound + gamma/eta)");
  const double db = g.at("database.mean");
  g.require(db >= 0.9 * g.at("theory.database"),
            "E[T_D(N)] below 0.9 x eq. (23)");
  g.require(std::fabs(db - g.at("theory.database.harmonic")) <= 0.06 * db,
            "E[T_D(N)] more than 6 % from the harmonic estimator");
  total_envelope(g);
  g.require(g.at("total.half") < 0.05 * g.at("total.mean"),
            "E[T(N)] confidence half-width above 5 %");
  return g.take();
}

Violations check_fanout(const Facts& f) {
  Gate g(f);
  const double keys = g.at("keys");
  const double requests = g.at("requests");
  const double n = g.at("n");
  g.require(requests > 0.0, "no measured request joined");
  g.require(is_whole(keys / n), "keys completed are not whole requests");
  g.require(keys >= requests * n, "keys < measured requests x N");
  const double ratio = g.at("miss_ratio");
  const double measured_keys =
      ratio > 0.0 ? (g.at("db_fetches") + g.at("delayed_hits")) / ratio : 0.0;
  g.require(ratio > 0.0, "no key missed at r = 1 %");
  g.require(std::fabs(measured_keys - std::round(measured_keys)) <=
                    1e-9 * measured_keys &&
                std::round(measured_keys) <= keys,
            "db_fetches + delayed_hits is not miss_ratio x measured keys");
  g.require(g.at("delayed_hits") == 0.0, "delayed hits with coalescing off");
  g.require(g.at("network.mean") == g.at("network_latency"),
            "T_N(N) is not the configured constant");
  total_envelope(g);
  return g.take();
}

Violations check_cold_keyspace(const Facts& f) {
  Gate g(f);
  const double keys = g.at("keys");
  g.require(keys == g.at("trace.keys"),
            "replayed trace records != keys completed");
  g.require(g.at("requests") == g.at("trace.requests"),
            "trace requests != requests joined");
  const double misses = g.at("miss_ratio") * keys;
  miss_conservation(g, misses);
  // The caches start cold and a ring maps each rank to one server, so every
  // distinct rank's first access misses (as a fetch or a delayed hit).
  g.require(std::round(misses) >= g.at("trace.distinct_ranks"),
            "fewer misses than distinct keys in a cold replay");
  g.require(misses <= keys, "more misses than keys");
  return g.take();
}

Violations check_churn_sharded(const Facts& f) {
  Gate g(f);
  const double keys = g.at("keys");
  const double requests = g.at("requests");
  const double n = g.at("n");
  g.require(requests > 0.0, "no measured request joined");
  g.require(is_whole(keys / n), "keys completed are not whole requests");
  g.require(keys >= requests * n, "keys < measured requests x N");
  const double ratio = g.at("miss_ratio");
  const double measured_keys =
      ratio > 0.0 ? (g.at("db_fetches") + g.at("delayed_hits")) / ratio : 0.0;
  g.require(std::fabs(measured_keys - std::round(measured_keys)) <=
                    1e-9 * measured_keys &&
                std::round(measured_keys) <= keys,
            "db_fetches + delayed_hits is not miss_ratio x measured keys");
  g.require(g.at("churn.events") == 2.0 && g.at("churn.joins") == 1.0 &&
                g.at("churn.leaves") == 1.0,
            "the join and the leave were not both applied");
  g.require(g.at("churn.epochs") == 3.0, "expected three membership epochs");
  g.require(g.at("churn.live_servers_end") == g.at("servers"),
            "live servers at the end != servers (one joined, one left)");
  // Post-rebalance steady state vs one LRU of the aggregate capacity
  // (Che / Ji-Quan-Tan), at the churn tier's 15 %.
  const double che = g.at("che.predicted");
  g.require(std::fabs(g.at("last.miss_ratio") - che) <= 0.15 * che,
            "post-rebalance miss ratio more than 15 % from Che/Ji-Quan-Tan");
  return g.take();
}

Perturbations perturb_table3(const Facts& f) {
  return {
      {"one assembled request lost", with(f, "total.count", f.at("total.count") - 1)},
      {"one assembled key lost", with(f, "assembly.keys", f.at("assembly.keys") - 1)},
      {"E[T(N)] doubled", with(f, "total.mean", 2.0 * f.at("total.mean"))},
      {"E[T_D(N)] halved", with(f, "database.mean", 0.5 * f.at("database.mean"))},
  };
}

Perturbations perturb_fanout(const Facts& f) {
  return {
      {"one key lost", with(f, "keys", f.at("keys") - 1)},
      {"one extra fetch", with(f, "db_fetches", f.at("db_fetches") + 1)},
      {"E[T(N)] doubled", with(f, "total.mean", 2.0 * f.at("total.mean"))},
  };
}

Perturbations perturb_cold_keyspace(const Facts& f) {
  return {
      {"one trace record not completed", with(f, "keys", f.at("keys") - 1)},
      {"one request not joined", with(f, "requests", f.at("requests") - 1)},
      {"one extra fetch", with(f, "db_fetches", f.at("db_fetches") + 1)},
      {"more distinct keys than misses",
       with(f, "trace.distinct_ranks", f.at("keys"))},
  };
}

Perturbations perturb_churn_sharded(const Facts& f) {
  return {
      {"one key lost", with(f, "keys", f.at("keys") - 1)},
      {"leave not applied", with(f, "churn.events", 1.0)},
      {"post-rebalance miss ratio up 20 %",
       with(f, "last.miss_ratio", 1.2 * f.at("che.predicted"))},
  };
}

std::vector<std::string> differing_facts(const Facts& a, const Facts& b) {
  std::set<std::string> names;
  for (const auto& [k, v] : a) names.insert(k);
  for (const auto& [k, v] : b) names.insert(k);
  std::vector<std::string> out;
  for (const std::string& k : names) {
    const auto ia = a.find(k);
    const auto ib = b.find(k);
    if (ia == a.end() || ib == b.end() ||
        std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0) {
      out.push_back(k);
    }
  }
  return out;
}

}  // namespace perfbench
