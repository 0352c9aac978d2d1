#include "bench.hpp"
#include "traced_trial.hpp"

namespace perfbench {

void add_layer_metrics(Result& res, const LayerFigures& f) {
  res.add("soc.build_us_p50", f.build_us_p50, "us");
  res.add("soc.build_share", f.build_share, "frac");
  res.add("snapshot.capture_ms", f.capture_ms, "ms");
  res.add("snapshot.restore_us_p50", f.restore_us_p50, "us");
  res.add("snapshot.restore_share", f.restore_share, "frac");
  res.add("snapshot.payload_bytes", f.payload_bytes, "bytes");
  res.add("sim.ns_per_cycle", f.ns_per_cycle, "ns");
  res.add("sim.ns_per_eval", f.ns_per_eval, "ns");
  res.add("sim.evals_per_cycle", f.evals_per_cycle, "count");
  res.add("sched.wire_writes_per_cycle", f.wire_writes_per_cycle, "count");
  res.add("sched.wakeups_per_cycle", f.wakeups_per_cycle, "count");
  res.add("sched.sensitivity_misses", f.sensitivity_misses, "count");
  res.add("sched.full_invalidations", f.full_invalidations, "count");
  res.add("sched.edges", f.edges, "count");
  static_assert(kNumClasses == std::tuple_size_v<
                                    decltype(f.class_evals_per_cycle)>);
  for (int c = 0; c < kNumClasses; ++c) {
    res.add(std::string("evals_per_cycle.") + kClassNames[c],
            f.class_evals_per_cycle[c], "count");
  }
  res.add("campaign.trial_us_p50", f.trial_us_p50, "us");
  res.add("campaign.trial_us_p99", f.trial_us_p99, "us");
  res.add("campaign.trial_samples", f.trial_samples, "count");
  res.add("campaign.finish_us_p50", f.finish_us_p50, "us");
  res.add("campaign.worker_wait_frac", f.worker_wait_frac, "frac");
  res.add("campaign.report_json_ms", f.report_json_ms, "ms");
  res.add("campaign.report_bytes", f.report_bytes, "bytes");
  res.add("obs.snapshot_us_p50", f.obs_snapshot_us_p50, "us");
  res.add("remote.spec_bytes", f.spec_bytes, "bytes");
  res.add("remote.spec_encode_ms", f.spec_encode_ms, "ms");
  res.add("remote.spec_decode_ms", f.spec_decode_ms, "ms");
  res.add("remote.slice_bytes_per_trial", f.slice_bytes_per_trial, "bytes");
  res.add("remote.slice_encode_us_per_trial", f.slice_encode_us_per_trial,
          "us");
  res.add("remote.slice_decode_us_per_trial", f.slice_decode_us_per_trial,
          "us");
  res.add("remote.merge_ms", f.merge_ms, "ms");
  res.add("remote.dispatch_vs_engine", f.dispatch_vs_engine, "ratio");
  res.add("remote.reissues", f.reissues, "count");
  res.add("remote.worker_peak_rss_mb", f.worker_peak_rss_mb, "MB");
  res.add("remote.worker_log_bytes", f.worker_log_bytes, "bytes");
  res.add("alloc.per_trial", f.alloc_per_trial, "count");
  res.add("alloc.bytes_per_trial", f.alloc_bytes_per_trial, "bytes");
  res.add("alloc.per_cycle", f.alloc_per_cycle, "count");
  res.add("tmu.coverage", f.coverage, "frac");
  res.add("tmu.detect_latency_cycles_p50", f.detect_p50, "cycles");
  res.add("tmu.detect_latency_cycles_p99", f.detect_p99, "cycles");
  res.add("bench.failed_frac", f.failed_frac, "frac");
  res.add("bench.trace_overhead_frac", f.trace_overhead_frac, "frac");
}

void fill_work_figures(LayerFigures& f, const WorkCounts& w, double units) {
  const double cycles = static_cast<double>(w.cycles);
  f.evals_per_cycle = ratio(static_cast<double>(w.evals), cycles);
  f.wire_writes_per_cycle = ratio(static_cast<double>(w.wire_writes), cycles);
  f.wakeups_per_cycle = ratio(static_cast<double>(w.wakeups), cycles);
  f.sensitivity_misses =
      ratio(static_cast<double>(w.sensitivity_misses), units);
  f.full_invalidations =
      ratio(static_cast<double>(w.full_invalidations), units);
  f.edges = ratio(static_cast<double>(w.edges), units);
  for (int c = 0; c < kNumClasses; ++c) {
    f.class_evals_per_cycle[c] =
        ratio(static_cast<double>(w.class_evals[c]), cycles);
  }
  f.alloc_per_cycle = ratio(static_cast<double>(w.allocs), cycles);
}

}  // namespace perfbench
