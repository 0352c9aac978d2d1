#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// Shared types of the perf_bench program: command-line arguments, the
/// result a workload hands back, and small statistics helpers.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The quantile at which rates and set-up time are read from their
/// per-unit time samples. The shared host alternates between a
/// base-clock phase and shorter, faster phases; the 75th percentile of a
/// run's unit times sits in the base-clock phase whenever that phase
/// covers a quarter of the run, while the median flips between phases
/// from run to run (perfbench/README.md has the measurements).
inline constexpr double kTimeQuantile = 0.75;

/// Wall time of one call, in seconds.
template <typename F>
double time_s(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_bin;  ///< campaign_worker executable (dispatch workload)
  std::string out_dir;     ///< scratch output (span trace, worker logs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload returns to main(): the metrics of the requested mode
/// (end-to-end with tracing off, per-layer with tracing on), the
/// simulated figures printed alongside, and every failed check.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;  ///< printed with units, not in the JSON line
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Every per-layer metric of the traced run. A workload fills what its
/// layers do; the rest stays 0 (e.g. snapshot.* outside cheshire_fork,
/// remote.* outside dispatch_campaign). perfbench/README.md defines each.
struct LayerFigures {
  double build_us_p50 = 0, build_share = 0;
  double capture_ms = 0, restore_us_p50 = 0, restore_share = 0,
         payload_bytes = 0;
  double ns_per_cycle = 0, ns_per_eval = 0, evals_per_cycle = 0;
  double wire_writes_per_cycle = 0, wakeups_per_cycle = 0,
         sensitivity_misses = 0, full_invalidations = 0, edges = 0;
  std::array<double, 6> class_evals_per_cycle{};  ///< by ModuleClass
  double trial_us_p50 = 0, trial_us_p99 = 0, trial_samples = 0,
         finish_us_p50 = 0, worker_wait_frac = 0, report_json_ms = 0,
         report_bytes = 0;
  double obs_snapshot_us_p50 = 0;
  double spec_bytes = 0, spec_encode_ms = 0, spec_decode_ms = 0,
         slice_bytes_per_trial = 0, slice_encode_us_per_trial = 0,
         slice_decode_us_per_trial = 0, merge_ms = 0, dispatch_vs_engine = 0,
         reissues = 0, worker_peak_rss_mb = 0, worker_log_bytes = 0;
  double alloc_per_trial = 0, alloc_bytes_per_trial = 0, alloc_per_cycle = 0;
  double coverage = 0, detect_p50 = 0, detect_p99 = 0, failed_frac = 0;
  double trace_overhead_frac = 0;
};

/// Adds every per-layer metric, in a fixed order, to `res.metrics`.
void add_layer_metrics(Result& res, const LayerFigures& f);

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for no samples.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
/// a / b, or 0 when b is 0 (a metric that does not apply reads 0).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Peak resident set of this process (or of its largest waited-for
/// child), in MB.
double peak_rss_mb(bool children = false);

/// The seed of everything a workload generates: Engine base seeds and
/// desc manager seeds derive from it and nothing else.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

Result run_ip_campaign(const Args& args);
Result run_cheshire_fork(const Args& args);
Result run_dispatch_campaign(const Args& args);
Result run_grid_knee(const Args& args);

}  // namespace perfbench
