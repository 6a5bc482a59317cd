// deployment_flags.h — the ONE definition of the paper's Table-3 deployment
// defaults and of the `--servers/--kps/--q/...` flag set every mclat
// subcommand accepts.
//
// Before this header, the defaults lived in three places that could drift
// independently: core::SystemConfig's member initialisers, the literal
// default arguments of mclat_cli's config_from(), and the banner strings of
// the bench harnesses. Now the numbers are named here once;
// tests/tools/test_deployment_flags.cpp pins them to SystemConfig::facebook()
// so a change to either side fails loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/common_config.h"
#include "cluster/engine/hedge.h"
#include "core/config.h"
#include "dist/discrete.h"
#include "tools/cli_args.h"

namespace mclat::tools {

/// The §5.1 / Table-3 Facebook testbed defaults, in the units the CLI flags
/// use (Kkeys/s and µs — not the SI units SystemConfig stores).
struct DeploymentDefaults {
  double servers = 4;      ///< M
  double kps = 62.5;       ///< λ per server, Kkeys/s
  double q = 0.1;          ///< concurrency probability
  double xi = 0.15;        ///< burst degree ξ
  double mus = 80.0;       ///< μ_S, Kkeys/s per server
  double n = 150;          ///< keys per end-user request N
  double r = 0.01;         ///< cache miss ratio
  double mud = 1.0;        ///< μ_D, Kkeys/s
  double net_us = 20.0;    ///< per-key network latency, µs
};

inline constexpr DeploymentDefaults kTable3{};

/// One-line parameter summary for bench banners, generated from kTable3 so
/// banner text can never disagree with the numbers actually used.
inline std::string table3_banner() {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%.0f balanced servers, lambda=%.1fKps each, q=%.1f, "
                "xi=%.2f, muS=%.0fKps, N=%.0f, r=%.0f%%, muD=%.0fKps, "
                "net=%.0fus",
                kTable3.servers, kTable3.kps, kTable3.q, kTable3.xi,
                kTable3.mus, kTable3.n, kTable3.r * 100.0, kTable3.mud,
                kTable3.net_us);
  return buf;
}

/// Declares the shared deployment flag set on `args` and builds the
/// SystemConfig. Every mclat subcommand (and any flag-driven bench binary)
/// must parse its deployment through here — not a private copy.
inline core::SystemConfig deployment_config_from(CliArgs& args) {
  core::SystemConfig cfg = core::SystemConfig::facebook();
  cfg.servers = static_cast<std::size_t>(
      args.number("servers", kTable3.servers, "number of Memcached servers M"));
  cfg.load_shares.clear();
  const double per_server =
      args.number("kps", kTable3.kps, "per-server key rate, Kkeys/s");
  cfg.total_key_rate = per_server * 1000.0 * static_cast<double>(cfg.servers);
  cfg.concurrency_q =
      args.number("q", kTable3.q, "concurrency probability q");
  cfg.burst_xi = args.number("xi", kTable3.xi, "burst degree xi");
  cfg.service_rate =
      args.number("mus", kTable3.mus, "per-server service rate, Kkeys/s") *
      1000.0;
  cfg.keys_per_request = static_cast<std::uint32_t>(
      args.number("n", kTable3.n, "keys per end-user request N"));
  cfg.miss_ratio = args.number("r", kTable3.r, "cache miss ratio r");
  cfg.db_service_rate =
      args.number("mud", kTable3.mud, "database service rate, Kkeys/s") *
      1000.0;
  cfg.network_latency =
      args.number("net", kTable3.net_us, "network latency per key, us") * 1e-6;
  const double p1 =
      args.number("p1", 0.0, "largest load ratio (0 = balanced)");
  if (p1 > 0.0) cfg.load_shares = dist::skewed_load(cfg.servers, p1);
  cfg.db_queueing =
      args.flag("db-queueing", "model database queueing (rho_D > 0)");
  return cfg;
}

/// A number flag that is converted to an unsigned type: converting a
/// negative double that way is undefined, so a negative value is a usage
/// error (exit 2).
inline double non_negative_number(CliArgs& args, const std::string& name,
                                  double def, const std::string& help) {
  const double v = args.number(name, def, help);
  if (v < 0.0) {
    std::fprintf(stderr, "--%s must be non-negative (got %g)\n",
                 name.c_str(), v);
    std::exit(2);
  }
  return v;
}

/// Declares the shared simulation knobs — `--seed`, `--real-cache`,
/// `--cache-mb`, `--keytable-budget-mb`, `--coalesce`, `--shard-jobs` —
/// with one spelling and one help string for
/// every subcommand that runs a cluster simulator, and writes them into the
/// config's embedded cluster::CommonConfig. Returns whether --real-cache
/// was given (the miss mode is a per-simulator enum, not a CommonConfig
/// knob). The measurement window is NOT declared here: simulate derives it
/// from --seconds and replay from --measure-from.
inline bool common_sim_flags_from(CliArgs& args,
                                  cluster::CommonConfig& common) {
  common.seed = static_cast<std::uint64_t>(
      non_negative_number(args, "seed", 1, "RNG seed"));
  const bool real_cache = args.flag(
      "real-cache",
      "decide misses with a real per-server LRU cache (the miss ratio "
      "emerges from Zipf popularity and cache capacity)");
  common.cache_bytes_per_server = static_cast<std::size_t>(
      non_negative_number(args, "cache-mb", 8.0,
                          "per-server cache size in MiB (with --real-cache)") *
      static_cast<double>(1u << 20));
  if (args.flag("coalesce",
                "coalesce concurrent misses of one key into a single "
                "database fetch (delayed hits park behind the in-flight "
                "fetch)")) {
    common.coalescing = cluster::MissCoalescing::kPerServer;
  }
  common.keytable_budget_bytes = static_cast<std::size_t>(
      non_negative_number(
          args, "keytable-budget-mb", 0.0,
          "cap resident key-table metadata at this many MiB, evicting and "
          "deterministically rebuilding cold chunks (0 = unbounded; results "
          "are budget-invariant)") *
      static_cast<double>(1u << 20));
  common.shard_jobs = static_cast<std::size_t>(args.count(
      "shard-jobs", 1,
      "run each trial's event loop on K server-calendar shards plus a "
      "coordinator, in parallel (1 = exact serial loop; K > 1 is its own "
      "deterministic contract, DESIGN.md 4i)"));
  const std::string churn_spec = args.text(
      "churn", "",
      "mid-run membership timeline: comma-separated join@T, leave:J@T "
      "(abrupt; queued work fails over to the ring successor), drain:J@T "
      "(planned; in-flight work finishes) with T in simulated seconds. "
      "Requires the ring mapper; e2e also needs --real-cache (DESIGN.md 4k)");
  if (!churn_spec.empty()) {
    common.churn = cluster::MembershipSchedule::parse(churn_spec);
  }
  return real_cache;
}

/// Declares the replica-lifecycle flag set — `--redundancy`, `--hedge`,
/// `--hedge-quantile`, `--hedge-floor-us`, `--cancel-losers` — and builds
/// the validated cluster::RedundancyPolicy. A contradictory combination
/// (degree 0, hedging with degree 1, a quantile outside (0,1)) throws from
/// the policy constructor with a message naming the offending field.
inline cluster::RedundancyPolicy redundancy_policy_from(CliArgs& args) {
  const auto degree = static_cast<unsigned>(args.count(
      "redundancy", 1,
      "dispatch each key to d independently chosen servers; the first "
      "replica to finish wins"));
  const bool hedged = args.flag(
      "hedge",
      "defer the backup replicas until an online per-key sojourn-quantile "
      "deadline fires (instead of immediate fan-out)");
  const double quantile = args.number(
      "hedge-quantile", 0.95,
      "sojourn quantile the hedge deadline tracks (with --hedge)");
  const double floor_us = args.number(
      "hedge-floor-us", 0.0,
      "hedge deadline floor in us, used until the estimate warms up "
      "(with --hedge)");
  const bool cancel = args.flag(
      "cancel-losers",
      "on a replica win, cancel losing replicas still in flight or queued "
      "(in-service losers run to completion)");
  return cluster::RedundancyPolicy(
      degree,
      hedged ? cluster::HedgeTrigger::kHedged
             : cluster::HedgeTrigger::kImmediate,
      cancel ? cluster::LoserMode::kCancelOnWin
             : cluster::LoserMode::kLetLosersRun,
      quantile, floor_us * 1e-6);
}

}  // namespace mclat::tools
