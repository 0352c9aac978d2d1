#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "sim/sched/profiler.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/builder.hpp"

/// The traced trial path: a campaign::TrialFn that drives each trial
/// through the layers' public calls (SocBuilder::build, optionally
/// snapshot::restore, then campaign::finish_fault_trial), records a span
/// around each call and the work counters at the same boundaries. Its
/// results must equal the Engine's own trial path byte for byte; the
/// workloads check that on every traced round.
namespace perfbench {

/// Module classes of the evals_per_cycle.* breakdown.
enum ModuleClass { kXbar, kMem, kGen, kTmu, kInj, kOther, kNumClasses };
inline constexpr const char* kClassNames[kNumClasses] = {
    "xbar", "mem", "gen", "tmu", "inj", "other"};

/// Class of every module of a profile (profile order), from the roles
/// the desc gives the module names.
std::vector<int> classify_modules(const soc::SocDesc& desc,
                                  const sim::sched::SchedProfile& prof);

/// Work counters between two points of one netlist's run.
struct WorkCounts {
  std::uint64_t cycles = 0;
  std::uint64_t evals = 0;
  std::uint64_t wire_writes = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t sensitivity_misses = 0;
  std::uint64_t full_invalidations = 0;
  std::uint64_t edges = 0;  ///< sensitivity edges at the end point
  std::array<std::uint64_t, kNumClasses> class_evals{};
  std::uint64_t allocs = 0;       ///< heap allocations in between
  std::uint64_t alloc_bytes = 0;

  void add(const WorkCounts& o);
};

/// Point-in-time counters of a simulator, for WorkCounts deltas.
/// `allocs` is left to the caller: reading the profile allocates, so the
/// start point reads the allocation counters after of() and the end
/// point before it.
struct WorkPoint {
  std::uint64_t cycle = 0;
  std::uint64_t evals = 0;
  sim::sched::SchedStats stats;
  sim::sched::SchedProfile profile;
  AllocCounts allocs;

  static WorkPoint of(const sim::Simulator& s);
};

WorkCounts work_between(const WorkPoint& a, const WorkPoint& b,
                        const std::vector<int>& classes);

/// Fills the per-cycle work figures (sim/sched/evals/alloc) of `f` from
/// counters summed over `units` trials or slices; counts that are not
/// per cycle are reported per unit.
void fill_work_figures(LayerFigures& f, const WorkCounts& w, double units);

/// The campaign trial desc: the spec's topology with its TMU config,
/// manager seed and capture points applied, as campaign::run_fault_trial
/// elaborates it.
soc::SocDesc trial_desc(const campaign::TrialSpec& spec);

/// Applies the spec's traffic override and runs its warm-up phase, as
/// campaign::run_fault_trial does before the fault window.
void apply_traffic_and_warm(const campaign::TrialSpec& spec, soc::Soc& soc);

/// One traced trial's record.
struct TrialRecord {
  double trial_us = 0.0;
  std::uint64_t program_allocs = 0;  ///< build + restore + finish
  std::uint64_t program_alloc_bytes = 0;
  WorkCounts finish;  ///< counters over finish_fault_trial
};

class TracedTrials {
 public:
  /// `snaps[s]` is restored into every netlist of scenario s; with no
  /// snapshots trials start cold. Trial span ids are global trial
  /// indices, found from the per-trial seeds flatten_trials derives under
  /// `base_seed`.
  TracedTrials(const std::vector<campaign::Scenario>& scenarios,
               std::uint64_t base_seed,
               std::vector<std::shared_ptr<const snapshot::Snapshot>> snaps);
  TracedTrials(const TracedTrials&) = delete;
  TracedTrials& operator=(const TracedTrials&) = delete;

  /// The TrialFn; it refers to this object, which must outlive its use.
  campaign::TrialFn fn();

  /// Records of the trials run since the last call.
  std::vector<TrialRecord> take();

 private:
  struct Slot {
    std::uint64_t index = 0;
    std::size_t scenario = 0;
  };
  campaign::TrialResult run(const campaign::TrialSpec& spec);

  std::unordered_map<std::uint64_t, Slot> slot_of_seed_;
  std::vector<std::shared_ptr<const snapshot::Snapshot>> snaps_;
  std::mutex mu_;
  std::vector<int> classes_;          // guarded by mu_ (set on first trial)
  std::vector<TrialRecord> records_;  // guarded by mu_
};

}  // namespace perfbench
