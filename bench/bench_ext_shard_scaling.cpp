// bench_ext_shard_scaling — intra-trial parallel execution: wall-clock
// scaling of the sharded-calendar engine (DESIGN.md §4i) over
// shard_jobs x server count, on one large end-to-end trial per cell.
//
// Two things are measured at once:
//
//   * throughput: events/s of the whole trial (arrivals, departures, DB
//     fetches, joins) and the speedup over the shard_jobs=1 serial loop on
//     the *same* system;
//   * determinism: every cell in a server row must report bit-identical
//     E[T(N)] regardless of K (the engine's K-invariance contract) — the
//     harness aborts with a nonzero exit if any cell drifts.
//
// Speedup is honest only when the machine has the cores to back it: each
// sharded run occupies K+1 threads (K server shards + the coordinator), so
// on a 1-core container every K>1 cell time-slices and the "speedup"
// column reads ~1x or below. The MACHINE line reports hardware_concurrency
// so scripts/ci.sh --bench-smoke can gate its 2x-at-8-shards floor on
// cores >= 8 instead of judging a number the hardware cannot produce.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/end_to_end.h"

namespace {

using namespace mclat;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Cell {
  double wall_s = 0.0;
  double mean = 0.0;  ///< E[T(N)] — the determinism witness
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
};

Cell run_cell(std::size_t servers, std::size_t shard_jobs) {
  cluster::EndToEndConfig cfg;
  cfg.system = core::SystemConfig::facebook();
  cfg.system.servers = static_cast<std::uint32_t>(servers);
  cfg.system.total_key_rate = static_cast<double>(servers) * 20'000.0;
  cfg.system.keys_per_request = 10;
  // A fat network delay = fat lookahead windows: the conservative engine's
  // best case, and still the paper's order of magnitude for a datacenter
  // round trip.
  cfg.system.network_latency = 1e-3;
  cfg.common.warmup_time = 0.1 * bench::time_scale();
  cfg.common.measure_time = 1.0 * bench::time_scale();
  cfg.common.seed = 404;
  cfg.common.shard_jobs = shard_jobs;

  const auto t0 = std::chrono::steady_clock::now();
  const cluster::EndToEndResult r = cluster::EndToEndSim(cfg).run();
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), r.total.mean,
          r.events_executed, r.requests_completed};
}

}  // namespace

int main() {
  const unsigned cores = std::thread::hardware_concurrency();
  bench::banner("Extension: sharded-calendar scaling",
                "(perf harness; no paper figure)",
                "one end-to-end trial per cell, wall-clock vs shard_jobs; "
                "r=0, N=10, 20Kps/server, net=1ms lookahead");
  std::printf("MACHINE cores=%u\n", cores);

  bool deterministic = true;
  const std::vector<std::size_t> shard_axis = {1, 2, 4, 8};
  for (const std::size_t servers : {16, 64, 128}) {
    std::printf("\nservers: M = %zu (%.1fM keys offered in the measure "
                "window)\n",
                servers,
                static_cast<double>(servers) * 20'000.0 *
                    bench::time_scale() / 1e6);
    std::printf("%7s | %8s | %10s | %8s | %s\n", "shards", "wall(s)",
                "events/s", "speedup", "E[T] bits");
    std::printf("--------+----------+------------+----------+------------\n");
    // shard_jobs=1 is the exact serial loop; K>1 is its own deterministic
    // sampling contract, so the K>1 cells are compared to *each other*
    // (the K=1 row anchors the speedup column, not the bit pattern).
    Cell serial;
    double parallel_witness = 0.0;
    for (const std::size_t k : shard_axis) {
      const Cell c = run_cell(servers, k);
      const char* bits = "(serial anchor)";
      if (k == 1) {
        serial = c;
      } else if (parallel_witness == 0.0) {
        parallel_witness = c.mean;
        bits = "(K>1 witness)";
      } else if (same_bits(c.mean, parallel_witness)) {
        bits = "same";
      } else {
        bits = "DRIFT";
        deterministic = false;
      }
      std::printf("%7zu | %8.2f | %10.0f | %7.2fx | %s\n", k, c.wall_s,
                  static_cast<double>(c.events) / c.wall_s,
                  serial.wall_s / c.wall_s, bits);
      std::printf("ROW servers=%zu shards=%zu wall_s=%.6f events=%llu "
                  "requests=%llu mean_us=%.6f\n",
                  servers, k, c.wall_s,
                  static_cast<unsigned long long>(c.events),
                  static_cast<unsigned long long>(c.requests),
                  c.mean * 1e6);
    }
  }

  if (!deterministic) {
    std::printf("\nFAIL: K-invariance violated — sharded cells disagree "
                "bit-for-bit within a server row\n");
    return 1;
  }
  std::printf(
      "\nReading: shard_jobs=1 is the untouched serial loop; K>1 runs the "
      "same system on K server-calendar shards plus a coordinator under a "
      "conservative %s lookahead. Speedup needs K+1 real cores — on fewer, "
      "the rows time-slice and the column honestly reads ~1x.\n",
      "net/2");
  return 0;
}
