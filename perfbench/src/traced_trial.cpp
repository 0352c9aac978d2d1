#include "traced_trial.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "alloc_count.hpp"
#include "axi/traffic_gen.hpp"
#include "spans.hpp"

namespace perfbench {

std::vector<int> classify_modules(const soc::SocDesc& desc,
                                  const sim::sched::SchedProfile& prof) {
  std::map<std::string, int> role;
  for (const soc::ManagerDesc& m : desc.managers) role[m.name] = kGen;
  for (const soc::SubordinateDesc& s : desc.subordinates) {
    if (s.kind == soc::SubordinateKind::kMemory) role[s.name] = kMem;
    if (s.llc) role[s.llc_name] = kMem;
  }
  soc::visit_guards(desc, [&](const soc::GuardDesc& g) {
    role[g.name] = kTmu;
    if (!g.mgr_injector.empty()) role[g.mgr_injector] = kInj;
    if (!g.sub_injector.empty()) role[g.sub_injector] = kInj;
  });
  std::vector<int> classes;
  for (const sim::sched::ModuleProfile& m : prof.modules) {
    const auto it = role.find(m.name);
    if (it != role.end()) {
      classes.push_back(it->second);
    } else if (m.name.rfind(desc.xbar_name, 0) == 0) {
      classes.push_back(kXbar);  // the facade and its "xbar.*" shards
    } else {
      classes.push_back(kOther);
    }
  }
  return classes;
}

void WorkCounts::add(const WorkCounts& o) {
  cycles += o.cycles;
  evals += o.evals;
  wire_writes += o.wire_writes;
  wakeups += o.wakeups;
  sensitivity_misses += o.sensitivity_misses;
  full_invalidations += o.full_invalidations;
  edges += o.edges;
  for (int c = 0; c < kNumClasses; ++c) class_evals[c] += o.class_evals[c];
  allocs += o.allocs;
  alloc_bytes += o.alloc_bytes;
}

WorkPoint WorkPoint::of(const sim::Simulator& s) {
  WorkPoint p;
  p.cycle = s.cycle();
  p.evals = s.module_evals();
  p.stats = s.sched_stats();
  p.profile = s.sched_profile();
  return p;
}

WorkCounts work_between(const WorkPoint& a, const WorkPoint& b,
                        const std::vector<int>& classes) {
  WorkCounts w;
  w.cycles = b.cycle - a.cycle;
  w.evals = b.evals - a.evals;
  w.wire_writes = b.stats.wire_writes - a.stats.wire_writes;
  w.wakeups = b.stats.wakeups - a.stats.wakeups;
  w.sensitivity_misses =
      b.stats.sensitivity_misses - a.stats.sensitivity_misses;
  w.full_invalidations =
      b.stats.full_invalidations - a.stats.full_invalidations;
  w.edges = b.stats.edges;
  const std::size_t n = std::min({a.profile.modules.size(),
                                  b.profile.modules.size(), classes.size()});
  for (std::size_t i = 0; i < n; ++i) {
    w.class_evals[classes[i]] +=
        b.profile.modules[i].evals - a.profile.modules[i].evals;
  }
  w.allocs = b.allocs.calls - a.allocs.calls;
  w.alloc_bytes = b.allocs.bytes - a.allocs.bytes;
  return w;
}

soc::SocDesc trial_desc(const campaign::TrialSpec& spec) {
  soc::SocDesc d = spec.desc;
  if (spec.warmup_cycles == 0) d.managers.front().seed = spec.seed;
  soc::first_guard(d)->cfg = spec.cfg;
  for (const std::string& link : spec.trace_links) {
    d.traces.push_back(soc::TraceDesc{"trace." + link, link});
  }
  return d;
}

void apply_traffic_and_warm(const campaign::TrialSpec& spec, soc::Soc& soc) {
  const soc::ManagerDesc& m = soc.desc().managers.front();
  axi::TrafficGenerator& gen = soc.get<axi::TrafficGenerator>(m.name);
  if (spec.traffic.enabled || !m.traffic.enabled) gen.set_random(spec.traffic);
  if (spec.warmup_cycles > 0) soc.sim().run(spec.warmup_cycles);
}

TracedTrials::TracedTrials(
    const std::vector<campaign::Scenario>& scenarios, std::uint64_t base_seed,
    std::vector<std::shared_ptr<const snapshot::Snapshot>> snaps)
    : snaps_(std::move(snaps)) {
  const std::vector<campaign::TrialSpec> specs =
      campaign::flatten_trials(scenarios, base_seed);
  std::size_t i = 0;
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    for (std::size_t k = 0; k < scenarios[sc].trials.size(); ++k, ++i) {
      slot_of_seed_.emplace(specs[i].seed, Slot{i, sc});
    }
  }
}

campaign::TrialFn TracedTrials::fn() {
  return [this](const campaign::TrialSpec& spec) { return run(spec); };
}

std::vector<TrialRecord> TracedTrials::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(records_, {});
}

campaign::TrialResult TracedTrials::run(const campaign::TrialSpec& spec) {
  const Slot slot = slot_of_seed_.at(spec.seed);
  const std::uint64_t id = slot.index;
  SpanBatch b;
  TrialRecord rec;

  const AllocCounts a0 = thread_allocs();
  const int trial = b.open("campaign.trial", id);
  const soc::SocDesc d = trial_desc(spec);
  int s = b.open("soc.build", id, trial);
  std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(d);
  b.close(s);
  if (!snaps_.empty()) {
    s = b.open("snapshot.restore", id, trial);
    snapshot::restore(*snaps_.at(slot.scenario), *soc);
    b.close(s);
  } else {
    apply_traffic_and_warm(spec, *soc);
  }
  const AllocCounts a1 = thread_allocs();

  sim::Simulator& sim = soc->sim();
  WorkPoint before = WorkPoint::of(sim);
  before.allocs = thread_allocs();
  s = b.open("campaign.finish", id, trial);
  campaign::TrialResult r = campaign::finish_fault_trial(spec, *soc);
  b.close(s);
  const AllocCounts a2 = thread_allocs();

  // The observability read-out a trial ends with (finish_fault_trial
  // takes the same two reads internally), timed from outside.
  s = b.open("obs.snapshot", id, trial);
  const obs::MetricsSnapshot metrics = soc->metrics().snapshot();
  WorkPoint after = WorkPoint::of(sim);
  b.close(s);
  after.allocs = a2;
  (void)metrics;

  soc.reset();  // the Engine's trial path frees its netlist in the trial
  b.close(trial);
  recorder().add(b);

  rec.trial_us = b.spans()[static_cast<std::size_t>(trial)].us();
  rec.program_allocs =
      (a1.calls - a0.calls) + (a2.calls - before.allocs.calls);
  rec.program_alloc_bytes =
      (a1.bytes - a0.bytes) + (a2.bytes - before.allocs.bytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (classes_.empty()) classes_ = classify_modules(d, after.profile);
    rec.finish = work_between(before, after, classes_);
    records_.push_back(rec);
  }
  return r;
}

}  // namespace perfbench
