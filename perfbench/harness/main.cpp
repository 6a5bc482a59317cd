// mclat_perfbench — one benchmark run of one workload.
//
//   mclat_perfbench --workload W --seed N --seconds S --trace 0|1
//                   [--tiny] [--out-dir DIR] [--source-id ID]
//   mclat_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics: set-up trials first, then
// timed calls of the workload's entry point until S seconds have passed.
// --trace 1 is the separate traced run that gives the per-layer metrics.
// Either way the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; a fuller report (provenance,
// per-call samples, violations, spans) goes to DIR.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common.h"

namespace perfbench {

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

int SpanLog::open(std::string name, int parent) {
  spans_.push_back({std::move(name), parent, seconds_since(origin_), 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_s = seconds_since(origin_);
}

namespace {

/// Set-up trials per run: at least kMinSetupTrials, and more until
/// kSetupSeconds have passed (at most kMaxSetupTrials, which only the
/// sub-millisecond set-ups reach); the reported set-up time is their
/// median, at the reference host speed.
constexpr int kMinSetupTrials = 5;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMaxSetupTrials = 5000;
/// The host-speed probe's steps per nanosecond on the 4-core Xeon host the
/// benchmark was tuned on: `keys_per_s` and `setup_s` are reported at this
/// host speed. A call's raw keys/s is divided by its host speed (the
/// probe's rate during the call over this one), the set-up median
/// multiplied by the host speed over the set-up trials. On a shared host
/// whose speed drifts by tens of percent within minutes this removes much
/// of the drift; the raw figures stay in the report.
constexpr double kProbeReferenceStepsPerNs = 0.35;
/// The second seed later claims must also pass (held out from tuning).
constexpr std::uint64_t kHeldOutSeed = 7919;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool self_test = false;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "mclat_perfbench: %s\nusage: mclat_perfbench --workload W "
               "--seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR] "
               "[--source-id ID]\n       mclat_perfbench --self-test\n",
               what.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value());
      } else if (flag == "--out-dir") {
        a.out_dir = value();
      } else if (flag == "--source-id") {
        a.source_id = value();
      } else if (flag == "--tiny") {
        a.tiny = true;
      } else if (flag == "--self-test") {
        a.self_test = true;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag);
    }
  }
  if (!a.self_test) {
    if (a.workload.empty()) usage_error("--workload is required");
    if (a.trace != 0 && a.trace != 1) usage_error("--trace must be 0 or 1");
    if (!(a.seconds > 0.0)) usage_error("--seconds must be > 0");
  }
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A number with all its digits (JSON has no NaN or infinity).
std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string json_strings(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i ? "," : "") + json_string(xs[i]);
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i ? "," : "") + json_number(xs[i]);
  }
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? "," : "") + json_string(ms[i].name) + ":{\"value\":" +
           json_number(ms[i].value) + ",\"unit\":" + json_string(ms[i].unit) +
           "}";
  }
  return out + "}";
}

std::string facts_json(const Facts& f) {
  std::string out = "{";
  for (const auto& [k, v] : f) {
    out += (out.size() > 1 ? "," : "") + json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance_json(const Args& a) {
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu_model\":" << json_string(cpu_model())
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
    << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
    << ",\"source_id\":" << json_string(a.source_id)
    << ",\"seed\":" << a.seed << ",\"held_out_seed\":" << kHeldOutSeed << "}";
  return o.str();
}

/// Peak resident set of this process image. VmHWM starts afresh at exec,
/// unlike ru_maxrss, which keeps the high-water mark of the process that
/// forked us (a Python launcher would add its own footprint).
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

bool all_finite(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

void write_report(const Args& a, const std::string& body) {
  const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           std::to_string(a.trace) + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "mclat_perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << body << "\n";
}

/// The host-speed probe. A timer interrupts the calling thread every
/// kProbePeriodNs; the handler runs kProbeSteps steps of a fixed kernel —
/// dependent random reads and writes over a 256 KiB buffer — and adds the
/// steps and their nanoseconds to running totals. Steps per nanosecond over
/// a call's interval is the speed of the very core the call ran on, sampled
/// evenly through the call. (Probes timed before and after each call
/// sampled too little of it, and a probe thread on another core measured
/// another core: on the shared host both left the spread of `keys_per_s`
/// wide.) The handler costs about 1.5 % of the call.
constexpr long kProbePeriodNs = 2'000'000;
constexpr int kProbeSteps = 10'000;
std::uint64_t g_probe_buf[1u << 15];
std::uint64_t g_probe_state = 0x9E3779B97F4A7C15ull;
std::atomic<std::uint64_t> g_probe_steps{0};
std::atomic<std::uint64_t> g_probe_ns{0};

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void on_probe_tick(int) {
  const int saved_errno = errno;
  const std::uint64_t t0 = monotonic_ns();
  constexpr std::uint64_t kMask = std::size(g_probe_buf) - 1;
  std::uint64_t s = g_probe_state;
  std::uint64_t acc = 0;
  for (int i = 0; i < kProbeSteps; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    acc += g_probe_buf[s & kMask];
    g_probe_buf[(s >> 20) & kMask] = acc;
  }
  g_probe_state = s;
  g_probe_ns.fetch_add(monotonic_ns() - t0, std::memory_order_relaxed);
  g_probe_steps.fetch_add(kProbeSteps, std::memory_order_relaxed);
  errno = saved_errno;
}

/// Arms the probe's timer on the constructing thread; disarms it on
/// destruction. One at a time.
class SpeedProbe {
 public:
  struct Reading {
    std::uint64_t steps = 0;
    std::uint64_t ns = 0;
  };

  SpeedProbe() {
    struct sigaction sa {};
    sa.sa_handler = on_probe_tick;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGRTMIN, &sa, &old_) != 0) {
      throw std::runtime_error("probe: sigaction failed");
    }
    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGRTMIN;
    sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
      sigaction(SIGRTMIN, &old_, nullptr);
      throw std::runtime_error("probe: timer_create failed");
    }
    itimerspec period{};
    period.it_interval.tv_nsec = kProbePeriodNs;
    period.it_value.tv_nsec = kProbePeriodNs;
    timer_settime(timer_, 0, &period, nullptr);
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;
  ~SpeedProbe() {
    timer_delete(timer_);
    sigaction(SIGRTMIN, &old_, nullptr);
  }

  [[nodiscard]] static Reading read() {
    return {g_probe_steps.load(std::memory_order_relaxed),
            g_probe_ns.load(std::memory_order_relaxed)};
  }
  /// Host speed between two readings, relative to the reference host.
  [[nodiscard]] static double speed(const Reading& from, const Reading& to) {
    const std::uint64_t ns = to.ns - from.ns;
    if (ns == 0) return 1.0;
    return static_cast<double>(to.steps - from.steps) /
           static_cast<double>(ns) / kProbeReferenceStepsPerNs;
  }

 private:
  timer_t timer_{};
  struct sigaction old_ {};
};

/// --trace 0: set-up trials, then timed calls for `seconds`.
int timed_run(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a.workload);
  w->prepare(a.seed, a.tiny);

  // The probe samples the calling thread, so it stands for the host speed
  // only when the entry call runs on that thread alone; a multi-threaded
  // call is reported at raw host speed.
  const bool normalized = w->host_threads() == 1;
  std::optional<SpeedProbe> probe;
  if (normalized) probe.emplace();
  const auto speed_since = [&](const SpeedProbe::Reading& from) {
    return probe ? SpeedProbe::speed(from, SpeedProbe::read()) : 1.0;
  };

  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  const SpeedProbe::Reading setup_from = SpeedProbe::read();
  while (static_cast<int>(setup_s.size()) < kMinSetupTrials ||
         (!a.tiny && seconds_since(setup_start) < kSetupSeconds &&
          setup_s.size() < kMaxSetupTrials)) {
    setup_s.push_back(w->setup_trial());
  }
  const double setup_speed = speed_since(setup_from);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  // Per call: raw keys/s, the host speed during it, and the rate
  // normalized to the reference host speed.
  std::vector<double> raw_rate, rate, ok_rate, host_s, call_speed;
  Facts first_facts;
  const Clock::time_point start = Clock::now();
  while (attempted == 0 || seconds_since(start) < a.seconds) {
    ++attempted;
    const std::string label = "call " + std::to_string(attempted);
    const SpeedProbe::Reading from = SpeedProbe::read();
    try {
      const CallOutcome c = w->call(CallOptions{});
      const double speed = speed_since(from);
      const double raw = static_cast<double>(c.keys) / c.host_s;
      const double r = raw / speed;
      raw_rate.push_back(raw);
      rate.push_back(r);
      host_s.push_back(c.host_s);
      call_speed.push_back(speed);
      if (first_facts.empty()) first_facts = c.facts;
      const Violations v = w->check(c.facts);
      if (v.empty()) {
        ok_rate.push_back(r);
      } else {
        ++failed;
        for (const std::string& s : v) violations.push_back(label + ": " + s);
      }
    } catch (const std::exception& e) {
      ++failed;
      violations.push_back(label + ": threw: " + e.what());
    }
  }

  std::vector<Metric> ms;
  ms.push_back({"keys_per_s", rate.empty() ? 0.0 : median(ok_rate.empty() ? rate : ok_rate), "keys/s"});
  ms.push_back({"setup_s", median(setup_s) * setup_speed, "s"});
  ms.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  const bool correct = failed == 0 && !ok_rate.empty() && all_finite(ms);

  const std::string metrics = metrics_json(ms);
  std::ostringstream report;
  report << "{\"workload\":" << json_string(a.workload)
         << ",\"trace\":0,\"seconds\":" << json_number(a.seconds)
         << ",\"provenance\":" << provenance_json(a)
         << ",\"metrics\":" << metrics
         << ",\"trials_failed\":" << failed << ",\"trials_attempted\":"
         << attempted << ",\"call_keys_per_s\":" << json_numbers(rate)
         << ",\"call_raw_keys_per_s\":" << json_numbers(raw_rate)
         << ",\"raw_keys_per_s\":"
         << json_number(raw_rate.empty() ? 0.0 : median(raw_rate))
         << ",\"call_host_s\":" << json_numbers(host_s)
         << ",\"normalized\":" << (normalized ? "true" : "false")
         << ",\"call_host_speed\":" << json_numbers(call_speed)
         << ",\"setup_trials_s\":" << json_numbers(setup_s)
         << ",\"setup_host_speed\":" << json_number(setup_speed)
         << ",\"first_call_facts\":" << facts_json(first_facts)
         << ",\"violations\":" << json_strings(violations) << "}";
  write_report(a, report.str());
  for (const std::string& v : violations) {
    std::fprintf(stderr, "violation: %s\n", v.c_str());
  }
  std::printf("provenance %s\n", provenance_json(a).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

/// --trace 1: the separate traced run (per-layer metrics).
int trace_run(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a.workload);
  w->prepare(a.seed, a.tiny);
  SpanLog spans;
  const TraceResult tr = traced_run(*w, a.seed, spans);
  const bool correct =
      tr.failed == 0 && tr.attempted > 0 && all_finite(tr.metrics);

  const std::string metrics = metrics_json(tr.metrics);
  std::ostringstream report;
  report << "{\"workload\":" << json_string(a.workload)
         << ",\"trace\":1,\"provenance\":" << provenance_json(a)
         << ",\"metrics\":" << metrics
         << ",\"layers_not_run\":" << json_strings(tr.not_run)
         << ",\"attribution\":" << tr.attribution_json
         << ",\"trials_failed\":" << tr.failed
         << ",\"trials_attempted\":" << tr.attempted
         << ",\"violations\":" << json_strings(tr.violations) << ",\"spans\":[";
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanLog::Span& s = spans.spans()[i];
    report << (i ? "," : "") << "{\"id\":" << i << ",\"name\":"
           << json_string(s.name) << ",\"parent\":" << s.parent
           << ",\"start_s\":" << json_number(s.start_s)
           << ",\"end_s\":" << json_number(s.end_s) << "}";
  }
  report << "]}";
  write_report(a, report.str());
  for (const std::string& v : tr.violations) {
    std::fprintf(stderr, "violation: %s\n", v.c_str());
  }
  std::printf("provenance %s\n", provenance_json(a).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tr.attempted),
              static_cast<unsigned long long>(tr.failed), metrics.c_str());
  return 0;
}

/// Each workload's gate accepts a tiny call and rejects every deliberate
/// perturbation of it.
int self_test() {
  int bad = 0;
  for (const std::string& name : workload_names()) {
    const std::unique_ptr<Workload> w = make_workload(name);
    w->prepare(1, /*tiny=*/true);
    const CallOutcome c = w->call(CallOptions{});
    const Violations v = w->check(c.facts);
    std::printf("%s: unperturbed gate %s\n", name.c_str(),
                v.empty() ? "passes" : "FAILS");
    for (const std::string& s : v) std::printf("  %s\n", s.c_str());
    bad += v.empty() ? 0 : 1;
    for (const auto& [what, facts] : w->perturb(c.facts)) {
      const bool caught = !w->check(facts).empty();
      std::printf("%s: perturbation '%s' %s\n", name.c_str(), what.c_str(),
                  caught ? "rejected" : "NOT REJECTED");
      bad += caught ? 0 : 1;
    }
  }
  std::printf("self-test %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  try {
    if (a.self_test) return perfbench::self_test();
    return a.trace == 0 ? perfbench::timed_run(a) : perfbench::trace_run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mclat_perfbench: %s\n", e.what());
    return 1;
  }
}
