// common.h — the types every part of the benchmark harness shares.
//
// The harness times calls into the library's public simulator entry points
// (Mode A `tools::run_simulate`, Mode B `EndToEndSim::run`, Mode C
// `TraceReplaySim::run`). Host time — what the simulator costs its user —
// is the end-to-end quantity; virtual-time results only feed the
// correctness gate and the per-layer context.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Named, deterministic results of one simulator call: the input of the
/// correctness gate and of the bit-identity invariance checks. Host times
/// never go in here.
using Facts = std::map<std::string, double>;

/// Median of a non-empty sample (the mean of the middle pair when even).
double median(std::vector<double> xs);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Spans the benchmark records around its own calls into the library,
/// kept in memory and written out when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    double start_s = 0.0;
    double end_s = 0.0;
  };

  int open(std::string name, int parent = -1);
  void close(int id);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// How one call of a workload deviates from its timed configuration.
struct CallOptions {
  /// Recorder target for the program's own counters and stage stats.
  /// Null leaves recording as the timed run has it: off, except for
  /// `table3`, which always records (as `mclat simulate --metrics` does).
  mclat::obs::Registry* registry = nullptr;
  /// `table3` only: run without any registry (the obs overhead baseline).
  bool registry_off = false;
  /// 0 keeps the workload's own parallelism; otherwise `--jobs` for
  /// `table3` and `shard_jobs` for the cluster simulators.
  std::size_t parallel = 0;
  /// `cold_keyspace` only: drop the KeyTable budget (unbounded table).
  bool unbounded_table = false;
  /// Open the entry span under this parent (-1: no span is recorded).
  SpanLog* spans = nullptr;
  int span_parent = -1;
};

/// One timed call of a workload's simulator entry point.
struct CallOutcome {
  double host_s = 0.0;      ///< wall seconds inside the entry call alone
  std::uint64_t keys = 0;   ///< simulated keys the call completed
  /// Kernel events, where the entry point reports them (Mode B); 0 else.
  std::uint64_t events = 0;
  Facts facts;
};

/// What the traced run compares a workload's timed configuration with.
struct TracePlan {
  /// Parallelism of the comparison call (0: no comparison).
  std::size_t alt_parallel = 0;
  /// The comparison must agree bit for bit (an invariance contract).
  bool parallel_invariant = false;
  /// The comparison is shard_jobs 3 vs 1 on the sharded engine, which
  /// gives `sim.shard_speedup`.
  bool shard_engine = false;
  /// Also compare against an unbounded KeyTable (budget invariance).
  bool budget_invariant = false;
};

/// The key stream and layer configuration a workload's replays use.
struct KeyStream {
  std::uint64_t keyspace_size = 0;
  double zipf = 0.99;
  std::size_t servers = 0;
  std::size_t cache_bytes_per_server = 0;
  std::uint32_t max_value_bytes = 0;
  std::size_t keytable_budget_bytes = 0;
  std::vector<std::uint64_t> ranks;
  /// Virtual arrival time of each rank, when the workload replays a timed
  /// trace (empty otherwise). With times, the KeyTable replay touches each
  /// rank in the engine's order: routing at arrival, the miss lookup after
  /// `service_lag_s`, and the refill of a rank's first (cold) miss after a
  /// further `fetch_lag_s`.
  std::vector<double> times;
  double service_lag_s = 0.0;
  double fetch_lag_s = 0.0;
  /// True when the entry call samples ranks itself (Mode B), so rank
  /// sampling is part of its host time; false when the benchmark generated
  /// them outside the timed region (Mode C trace).
  bool ranks_sampled_in_call = false;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Builds the benchmark-side inputs from the seed, outside any timed
  /// region. `tiny` selects the self-test lengths.
  virtual void prepare(std::uint64_t seed, bool tiny) = 0;
  /// One fixed-cost trial: program-side input construction plus a
  /// same-config trial whose measurement window holds almost no requests.
  /// Returns its host seconds.
  [[nodiscard]] virtual double setup_trial() = 0;
  /// One call of the simulator entry point.
  [[nodiscard]] virtual CallOutcome call(const CallOptions& opt) = 0;
  /// Correctness gate for one call's facts: every violated law, named.
  [[nodiscard]] virtual std::vector<std::string> check(
      const Facts& facts) const = 0;
  /// Deliberate perturbations of a passing call's facts, each of which the
  /// gate must reject (the self-test).
  [[nodiscard]] virtual std::vector<std::pair<std::string, Facts>> perturb(
      const Facts& facts) const = 0;
  [[nodiscard]] virtual TracePlan trace_plan() const = 0;
  /// Threads the entry call runs on. The host-speed probe samples the
  /// calling thread, so only a one-thread call is normalized by it.
  [[nodiscard]] virtual std::size_t host_threads() const { return 1; }
  /// The key stream the traced run replays through the layers (empty
  /// ranks: the entry call has no key identity to replay).
  [[nodiscard]] virtual KeyStream key_stream(const CallOutcome& traced) const {
    (void)traced;
    return {};
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Every per-layer metric the traced run emits, in output order, with the
/// values it measured (zero where the layer does not run in this
/// workload; those names are listed in `not_run`).
struct TraceResult {
  std::vector<Metric> metrics;
  std::vector<std::string> not_run;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string attribution_json;  ///< replayed layer seconds and shares
};

TraceResult traced_run(Workload& w, std::uint64_t seed, SpanLog& spans);

}  // namespace perfbench
