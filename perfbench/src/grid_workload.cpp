// grid_knee: one long single-threaded run of the 32x24 crossbar grid
// (8 active managers), event-driven scheduling, sharded crossbar. The run
// is timed in fixed slices of cycles, the workload's unit of work.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "axi/traffic_gen.hpp"
#include "bench.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"
#include "spans.hpp"
#include "traced_trial.hpp"

namespace perfbench {
namespace {

constexpr unsigned kManagers = 32;
constexpr unsigned kSubordinates = 24;
constexpr unsigned kActive = 8;
// Cycles run in set-up so every module's sensitivity list is discovered
// before the measured phase.
constexpr std::uint64_t kDiscoveryCycles = 1000;
constexpr std::uint64_t kSliceCycles = 2000;
// The simulated figures and the work counters cover the first slices
// only, so they do not depend on how many slices fit in the time.
constexpr int kCountSlices = 10;
// The traffic generators keep a record of every completed transaction, so
// the resident set grows with the slices run; peak_rss_mb is read after a
// fixed number of them, not at the end of a speed-dependent run.
constexpr int kRssSlices = 100;
constexpr int kSetupReps = 5;  // traced run: soc.build samples
constexpr int kSetupEvery = 8;

soc::SocDesc grid(std::uint64_t seed) {
  soc::SocDesc d = soc::grid_desc(kManagers, kSubordinates, kActive);
  d.policy = sim::sched::SchedPolicy::kEventDriven;
  d.xbar_impl = axi::XbarImpl::kSharded;
  for (std::size_t i = 0; i < d.managers.size(); ++i) {
    d.managers[i].seed = derive_seed(seed, 0x200 + i);
  }
  return d;
}

struct Traffic {
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
};

Traffic traffic(soc::Soc& g) {
  Traffic t;
  for (const soc::ManagerDesc& m : g.desc().managers) {
    const axi::TrafficGenerator& gen = g.get<axi::TrafficGenerator>(m.name);
    t.completed += gen.completed();
    t.errors += gen.error_responses();
    t.mismatches += gen.data_mismatches();
  }
  return t;
}

/// The grid's deterministic state summary (its "report").
std::string digest(soc::Soc& g) {
  const sim::Simulator& s = g.sim();
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "cycle %" PRIu64 " evals %" PRIu64 " writes %" PRIu64
                " wakeups %" PRIu64 " edges %zu\n",
                s.cycle(), s.module_evals(), s.sched_stats().wire_writes,
                s.sched_stats().wakeups, s.sched_stats().edges);
  out += buf;
  for (const soc::ManagerDesc& m : g.desc().managers) {
    const axi::TrafficGenerator& gen = g.get<axi::TrafficGenerator>(m.name);
    std::snprintf(buf, sizeof buf, "%s %zu %zu %zu\n", m.name.c_str(),
                  gen.completed(), gen.error_responses(),
                  gen.data_mismatches());
    out += buf;
  }
  return out + g.metrics().snapshot().to_json();
}

/// Build, reset and the sensitivity-discovery warm-up; spans when traced.
std::unique_ptr<soc::Soc> set_up(const soc::SocDesc& d, bool traced,
                                 std::uint64_t id) {
  SpanBatch b;
  const int root = traced ? b.open("bench.setup", id) : -1;
  int s = traced ? b.open("soc.build", id, root) : -1;
  std::unique_ptr<soc::Soc> g = soc::SocBuilder::build(d);
  if (traced) {
    b.close(s);
    s = b.open("sim.run", id, root);
  }
  g->sim().run(kDiscoveryCycles);
  if (traced) {
    b.close(s);
    b.close(root);
    recorder().add(b);
  }
  return g;
}

}  // namespace

Result run_grid_knee(const Args& a) {
  Result res;
  const soc::SocDesc d = grid(a.seed);

  if (a.trace) {
    // Two identical grids: `plain` runs untraced slices, `traced` the same
    // slices inside spans with counters read around each; their final
    // states must agree exactly.
    std::unique_ptr<soc::Soc> traced;
    for (int k = 0; k < kSetupReps; ++k) {
      traced.reset();
      traced = set_up(d, true, k);
    }
    const std::unique_ptr<soc::Soc> plain = set_up(d, false, 0);
    const std::vector<int> classes =
        classify_modules(d, traced->sim().sched_profile());

    std::vector<double> plain_s, traced_s;
    WorkCounts window;
    double sim_ns = 0.0;
    std::uint64_t cycles = 0, evals = 0;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0;
         i < kCountSlices || seconds_between(start, Clock::now()) < a.seconds;
         ++i) {
      const Clock::time_point t0 = Clock::now();
      plain->sim().run(kSliceCycles);
      plain_s.push_back(seconds_between(t0, Clock::now()));

      SpanBatch b;
      WorkPoint before = WorkPoint::of(traced->sim());
      before.allocs = thread_allocs();
      const int s = b.open("sim.run", i);
      traced->sim().run(kSliceCycles);
      b.close(s);
      const AllocCounts allocs = thread_allocs();
      WorkPoint after = WorkPoint::of(traced->sim());
      after.allocs = allocs;
      recorder().add(b);
      traced_s.push_back(b.spans()[0].us() / 1e6);
      const WorkCounts w = work_between(before, after, classes);
      sim_ns += b.spans()[0].us() * 1e3;
      cycles += w.cycles;
      evals += w.evals;
      if (i < kCountSlices) window.add(w);
    }
    res.check(digest(*plain) == digest(*traced),
              "the traced grid ends in exactly the untraced grid's state");
    const Traffic t = traffic(*traced);
    res.check(t.errors == 0 && t.mismatches == 0,
              "no error responses and no data mismatches");
    res.attempted = t.completed;
    res.failed = t.errors + t.mismatches;

    LayerFigures f;
    const auto totals = recorder().totals();
    f.build_us_p50 = median(recorder().durations_us("soc.build"));
    f.build_share = ratio(totals.at("soc.build").self_us,
                          totals.at("bench.setup").total_us);
    fill_work_figures(f, window, kCountSlices);
    f.ns_per_cycle = ratio(sim_ns, static_cast<double>(cycles));
    f.ns_per_eval = ratio(sim_ns, static_cast<double>(evals));
    f.alloc_per_trial = ratio(static_cast<double>(window.allocs), kCountSlices);
    f.alloc_bytes_per_trial =
        ratio(static_cast<double>(window.alloc_bytes), kCountSlices);
    f.failed_frac = ratio(static_cast<double>(res.failed),
                          static_cast<double>(t.completed));
    f.trace_overhead_frac = ratio(median(traced_s), median(plain_s)) - 1.0;
    add_layer_metrics(res, f);
    write_trace(a, res);
    return res;
  }

  std::vector<double> setup_s;
  std::unique_ptr<soc::Soc> g = set_up(d, false, 0);
  const Traffic at_start = traffic(*g);
  Traffic counted;
  double rss_mb = 0.0;
  std::vector<double> slice_s;
  const Clock::time_point start = Clock::now();
  for (int i = 0;
       i < kCountSlices || seconds_between(start, Clock::now()) < a.seconds;
       ++i) {
    // One more set-up repetition (discarded) before every kSetupEvery-th
    // slice, so setup_s samples the whole run.
    if (i % kSetupEvery == 0) {
      std::unique_ptr<soc::Soc> spare;
      setup_s.push_back(time_s([&] { spare = set_up(d, false, i); }));
    }
    const Clock::time_point t0 = Clock::now();
    g->sim().run(kSliceCycles);
    slice_s.push_back(seconds_between(t0, Clock::now()));
    if (i + 1 == kCountSlices) counted = traffic(*g);
    if (i + 1 == kRssSlices) rss_mb = peak_rss_mb();
  }
  if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  const Traffic t = traffic(*g);
  res.check(t.errors == 0 && t.mismatches == 0,
            "no error responses and no data mismatches");
  res.check(counted.completed > at_start.completed,
            "the grid completed transactions");
  res.attempted = t.completed - at_start.completed;
  res.failed = t.errors + t.mismatches;

  std::vector<double> slice_ms;
  for (double s : slice_s) slice_ms.push_back(s * 1e3);
  const double unit_s = percentile(slice_s, kTimeQuantile);
  res.add("trials_per_s", ratio(1.0, unit_s), "1/s");
  res.add("sim_cycles_per_s", ratio(kSliceCycles, unit_s), "1/s");
  res.add("op_ms_p75", percentile(slice_ms, 0.75), "ms");
  res.add("op_ms_p90", percentile(slice_ms, 0.9), "ms");
  res.add("setup_s", percentile(setup_s, kTimeQuantile), "s");
  res.add("peak_rss_mb", rss_mb, "MB");
  res.add("axi_txns_per_kcycle",
          1e3 * static_cast<double>(counted.completed - at_start.completed) /
              static_cast<double>(kCountSlices * kSliceCycles),
          "1/kcycle");
  res.note("op_samples", static_cast<double>(slice_ms.size()), "count");
  res.note("setup_samples", static_cast<double>(setup_s.size()), "count");
  res.note("failed_frac",
           ratio(static_cast<double>(res.failed),
                 static_cast<double>(res.attempted)),
           "frac");
  return res;
}

}  // namespace perfbench
