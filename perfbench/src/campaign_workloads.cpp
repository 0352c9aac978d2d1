// The three campaign workloads: ip_campaign (in-process, cold trials),
// cheshire_fork (in-process, trials forked from a warm-up snapshot) and
// dispatch_campaign (the ip_campaign spec through the multi-process
// dispatcher). Each is a closed loop: one campaign round at a time, at
// fixed parallelism, repeated until the measuring time is up. Every round
// runs the identical campaign, so every round's report must be
// byte-identical, and the simulated figures do not depend on how many
// rounds fit in the time.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "axi/traffic_gen.hpp"
#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/cheshire.hpp"
#include "soc/topologies.hpp"
#include "spans.hpp"
#include "traced_trial.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using campaign::Report;
using campaign::Scenario;
using campaign::TrialSpec;
using fault::FaultPoint;

// Fixed parallelism, never "all cores": the host's cores are shared.
constexpr unsigned kThreads = 2;
// 16 scenarios x 32 = 512 trials per ip_campaign round.
constexpr std::size_t kIpTrialsPerScenario = 32;
// 16 warm-up groups x 4 fault points x 4 = 256 forked trials per
// cheshire_fork round. Groups differ in the desc's manager seeds, so each
// has its own warm-up and snapshot. A trial runs only a few dozen cycles
// past its fork point, and how many depends mostly on the warm state, so
// many groups keep the executed cycles of a round from hanging on a few
// warm states.
constexpr std::size_t kForkGroups = 16;
constexpr std::size_t kForkTrialsPerScenario = 4;
constexpr std::uint64_t kForkInjectMax = 100;
constexpr std::uint64_t kForkDetectBudget = 300;
// The shared warm-up is ten fault windows long.
constexpr std::uint64_t kForkWarmup =
    10 * (kForkInjectMax + kForkDetectBudget);
constexpr FaultPoint kForkPoints[] = {
    FaultPoint::kAwReadyStuck, FaultPoint::kWValidStuck,
    FaultPoint::kBValidStuck, FaultPoint::kRValidStuck};
constexpr std::size_t kForkScenariosPerGroup = std::size(kForkPoints);
constexpr unsigned kDispatchShards = 8;
// One more set-up repetition is timed before every kSetupEvery-th round,
// so setup_s samples the whole run.
constexpr int kSetupEvery = 1;
constexpr int kForkSetupEvery = 16;
constexpr int kCaptureReps = 5;

tmu::TmuConfig fig9_cfg(tmu::Variant v) {
  tmu::TmuConfig cfg;
  cfg.variant = v;
  cfg.tc_total_budget = 200;
  cfg.adaptive.enabled = true;
  cfg.adaptive.cycles_per_beat = 3;
  cfg.adaptive.cycles_per_ahead = 6;
  return cfg;
}

axi::RandomTrafficConfig fig9_traffic() {
  axi::RandomTrafficConfig t;
  t.enabled = true;
  t.p_new_txn = 0.25;
  t.max_outstanding = 6;
  t.len_max = 7;
  return t;
}

/// The Fig. 9 campaign on the IP testbench: 8 fault points x {Full-,
/// Tiny-Counter}. Trial seeds come from the Engine's base seed.
std::vector<Scenario> ip_scenarios() {
  static constexpr FaultPoint kPoints[] = {
      FaultPoint::kAwReadyStuck, FaultPoint::kWValidStuck,
      FaultPoint::kWReadyStuck,  FaultPoint::kBValidStuck,
      FaultPoint::kBWrongId,     FaultPoint::kArReadyStuck,
      FaultPoint::kRValidStuck,  FaultPoint::kRWrongId,
  };
  std::vector<Scenario> sc;
  for (FaultPoint p : kPoints) {
    for (tmu::Variant v :
         {tmu::Variant::kFullCounter, tmu::Variant::kTinyCounter}) {
      TrialSpec spec;
      spec.cfg = fig9_cfg(v);
      spec.point = p;
      spec.traffic = fig9_traffic();
      spec.inject_delay_max = 500;
      spec.detect_budget = 4000;
      sc.push_back(campaign::make_scenario(
          std::string(v == tmu::Variant::kFullCounter ? "fc/" : "tc/") +
              to_string(p),
          spec, kIpTrialsPerScenario));
    }
  }
  return sc;
}

/// Cheshire with faults at the Ethernet Full-Counter guard: kForkGroups
/// warm-up groups x 4 fault points. Only cva6_0 drives traffic, into the
/// Ethernet TX window; each group's manager seeds (its warm-up traffic)
/// derive from the workload seed. Scenario g * 4 + p is group g.
std::vector<Scenario> fork_scenarios(std::uint64_t seed) {
  const tmu::TmuConfig cfg = fig9_cfg(tmu::Variant::kFullCounter);
  std::vector<Scenario> sc;
  for (std::size_t g = 0; g < kForkGroups; ++g) {
    soc::SocDesc d = soc::cheshire_desc(cfg);
    for (std::size_t i = 0; i < d.managers.size(); ++i) {
      d.managers[i].seed = derive_seed(seed, 0x100 + 0x10 * g + i);
    }
    TrialSpec proto;
    proto.desc = d;
    proto.cfg = cfg;
    proto.traffic = fig9_traffic();
    proto.traffic.addr_min = soc::CheshireMap::kEthTxWindow;
    proto.traffic.addr_max =
        soc::CheshireMap::kEthBase + soc::CheshireMap::kEthSize - 0x100;
    proto.inject_delay_max = kForkInjectMax;
    proto.detect_budget = kForkDetectBudget;
    proto.warmup_cycles = kForkWarmup;
    for (FaultPoint p : kForkPoints) {
      proto.point = p;
      sc.push_back(campaign::make_scenario(
          "eth" + std::to_string(g) + "/" + to_string(p), proto,
          kForkTrialsPerScenario));
    }
  }
  return sc;
}

campaign::EngineOptions engine_opts(std::uint64_t base_seed) {
  campaign::EngineOptions o;
  o.threads = kThreads;
  o.base_seed = base_seed;
  return o;
}

/// Simulated work of a report's trials past the warm-up boundary.
struct Work {
  std::uint64_t cycles = 0;
  std::uint64_t txns = 0;
};

/// `warmup_txns[i]`: transactions trial i inherits from its warm-up (none
/// when empty).
Work post_warmup_work(const Report& rep, std::uint64_t warmup_cycles,
                      const std::vector<std::uint64_t>& warmup_txns) {
  Work w;
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const campaign::TrialResult& r = rep.results[i];
    const std::uint64_t wt = warmup_txns.empty() ? 0 : warmup_txns[i];
    w.cycles += r.cycles_run > warmup_cycles ? r.cycles_run - warmup_cycles : 0;
    w.txns += r.completed_txns > wt ? r.completed_txns - wt : 0;
  }
  return w;
}

std::uint64_t failed_trials(const Report& rep) {
  return rep.overall.failed_trials + rep.overall.timed_out;
}

void check_campaign(Result& res, const Report& rep) {
  res.check(rep.total_trials() > 0, "the campaign ran trials");
  res.check(rep.overall.failed_trials == 0, "no trial threw");
  res.check(rep.overall.timed_out == 0, "no trial hit the watchdog");
  res.check(rep.overall.detected == rep.overall.trials,
            "every injected fault was detected (full coverage)");
}

/// The simulated figures of a report (deterministic per seed).
void fill_simulated(LayerFigures& f, const Report& rep) {
  f.coverage = ratio(static_cast<double>(rep.overall.detected),
                     static_cast<double>(rep.overall.trials));
  f.detect_p50 = static_cast<double>(rep.overall.latency_hist.percentile(0.5));
  f.detect_p99 =
      static_cast<double>(rep.overall.latency_hist.percentile(0.99));
  f.failed_frac = ratio(static_cast<double>(failed_trials(rep)),
                        static_cast<double>(rep.total_trials()));
}

void note_simulated(Result& res, const Report& rep) {
  LayerFigures f;
  fill_simulated(f, rep);
  res.note("coverage", f.coverage, "frac");
  res.note("detect_latency_cycles_p50", f.detect_p50, "cycles");
  res.note("detect_latency_cycles_p99", f.detect_p99, "cycles");
  res.note("failed_frac", f.failed_frac, "frac");
}

/// Times every call of a TrialFn (the per-trial latency samples).
class TrialTimer {
 public:
  campaign::TrialFn wrap(campaign::TrialFn fn) {
    return [this, fn = std::move(fn)](const TrialSpec& spec) {
      const Clock::time_point t0 = Clock::now();
      campaign::TrialResult r = fn(spec);
      const double ms = seconds_between(t0, Clock::now()) * 1e3;
      std::lock_guard<std::mutex> lock(mu_);
      ms_.push_back(ms);
      return r;
    };
  }
  std::vector<double> samples() {
    std::lock_guard<std::mutex> lock(mu_);
    return ms_;
  }

 private:
  std::mutex mu_;
  std::vector<double> ms_;  // guarded by mu_
};

/// Measured-phase figures of a run of identical campaign rounds.
struct Rounds {
  std::vector<double> wall_s;
  std::vector<double> setup_s;  ///< set-up repetitions spread over the run
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;
  Report first;
  std::string first_json;
  Work work;  ///< per round (every round runs the identical campaign)
  bool identical = true;

  void add(const Report& rep, double wall, const Work& round_work) {
    wall_s.push_back(wall);
    trials += rep.total_trials();
    failed += failed_trials(rep);
    std::string json = rep.to_json();
    if (wall_s.size() == 1) {
      first = rep;
      first_json = std::move(json);
      work = round_work;
    } else if (json != first_json) {
      identical = false;
    }
  }
};

void add_end_to_end(Result& res, const Rounds& m,
                    const std::vector<double>& op_ms, const Work& executed) {
  const double round_s = percentile(m.wall_s, kTimeQuantile);
  res.add("trials_per_s",
          ratio(static_cast<double>(m.first.total_trials()), round_s), "1/s");
  res.add("sim_cycles_per_s",
          ratio(static_cast<double>(m.work.cycles), round_s), "1/s");
  res.add("op_ms_p75", percentile(op_ms, 0.75), "ms");
  res.add("op_ms_p90", percentile(op_ms, 0.9), "ms");
  res.add("setup_s", percentile(m.setup_s, kTimeQuantile), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  res.add("axi_txns_per_kcycle",
          ratio(1e3 * static_cast<double>(executed.txns),
                static_cast<double>(executed.cycles)),
          "1/kcycle");
  res.note("op_samples", static_cast<double>(op_ms.size()), "count");
  res.note("rounds", static_cast<double>(m.wall_s.size()), "count");
  res.note("setup_samples", static_cast<double>(m.setup_s.size()), "count");
  res.check(m.identical, "every round's report is byte-identical");
  res.attempted = m.trials;
  res.failed = m.failed;
}

/// Runs the campaign through the Engine in rounds until `seconds` pass,
/// timing one more set-up repetition (`setup`, result discarded) before
/// every `setup_every`-th round.
Rounds engine_rounds(double seconds, const std::vector<Scenario>& sc,
                     std::uint64_t base_seed, const campaign::TrialFn& fn,
                     std::uint64_t warmup_cycles,
                     const std::vector<std::uint64_t>& warmup_txns,
                     const std::function<void()>& setup, int setup_every) {
  Rounds m;
  const campaign::Engine eng(engine_opts(base_seed));
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    if (round % setup_every == 0) m.setup_s.push_back(time_s(setup));
    const Clock::time_point t0 = Clock::now();
    const Report rep = eng.run(sc, fn);
    const double wall = seconds_between(t0, Clock::now());
    m.add(rep, wall, post_warmup_work(rep, warmup_cycles, warmup_txns));
    if (seconds_between(start, Clock::now()) >= seconds) break;
  }
  return m;
}

/// A field-by-field fingerprint of one trial result (for fork == cold).
std::string digest(const campaign::TrialResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%d%d%d%d%d %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " ",
                r.detected, r.recovered, r.traffic_resumed, r.failed,
                r.timed_out, r.inject_delay, r.detect_cycle, r.latency,
                r.cycles_run, r.eval_passes, r.completed_txns,
                r.data_mismatches, r.error_responses);
  return buf + r.error + r.metrics.to_json();
}

/// The traced run of an in-process campaign workload: untraced rounds
/// (the workload's own TrialFn) alternate with traced rounds (the
/// TracedTrials path) until `seconds` pass; every traced report must
/// equal its untraced twin byte for byte.
void traced_engine_rounds(const Args& a, const std::vector<Scenario>& sc,
                          std::uint64_t base_seed,
                          const campaign::TrialFn& untraced_fn,
                          TracedTrials& traced, Result& res,
                          LayerFigures& f) {
  const campaign::Engine eng(engine_opts(base_seed));
  const campaign::TrialFn traced_fn = traced.fn();
  std::vector<double> untraced_s, traced_s, json_ms;
  std::vector<TrialRecord> records;
  double thread_s = 0.0;
  double trial_s = 0.0;
  bool identical = true;
  Report untraced_first;
  std::uint64_t round = 0;
  const Clock::time_point start = Clock::now();
  do {
    Clock::time_point t0 = Clock::now();
    const Report u = eng.run(sc, untraced_fn);
    untraced_s.push_back(seconds_between(t0, Clock::now()));

    t0 = Clock::now();
    const Report t = eng.run(sc, traced_fn);
    const double wall = seconds_between(t0, Clock::now());
    traced_s.push_back(wall);
    thread_s += kThreads * wall;
    for (const TrialRecord& r : traced.take()) {
      trial_s += r.trial_us / 1e6;
      records.push_back(r);
    }

    SpanBatch b;
    const int s = b.open("campaign.report_json", round);
    const std::string tj = t.to_json();
    b.close(s);
    recorder().add(b);
    json_ms.push_back(b.spans()[0].us() / 1e3);
    f.report_bytes = static_cast<double>(tj.size());
    identical = identical && tj == u.to_json();
    if (round == 0) {
      untraced_first = u;
      res.attempted = t.total_trials();
      res.failed = failed_trials(t);
    }
    ++round;
  } while (seconds_between(start, Clock::now()) < a.seconds);
  res.check(identical,
            "traced reports are byte-identical to the untraced reports");
  check_campaign(res, untraced_first);
  fill_simulated(f, untraced_first);

  const auto totals = recorder().totals();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it != totals.end() ? it->second : SpanRecorder::Totals{};
  };
  const double trial_us = total("campaign.trial").total_us;
  f.build_us_p50 = median(recorder().durations_us("soc.build"));
  f.build_share = ratio(total("soc.build").self_us, trial_us);
  f.restore_us_p50 = median(recorder().durations_us("snapshot.restore"));
  f.restore_share = ratio(total("snapshot.restore").self_us, trial_us);
  const std::vector<double> trial_durations =
      recorder().durations_us("campaign.trial");
  f.trial_us_p50 = percentile(trial_durations, 0.5);
  f.trial_us_p99 = percentile(trial_durations, 0.99);
  f.trial_samples = static_cast<double>(trial_durations.size());
  f.finish_us_p50 = median(recorder().durations_us("campaign.finish"));
  f.obs_snapshot_us_p50 = median(recorder().durations_us("obs.snapshot"));
  f.worker_wait_frac = ratio(thread_s - trial_s, thread_s);
  f.report_json_ms = median(json_ms);

  // Every traced round runs the same trials, so sums over all rounds give
  // exactly the per-round ratios.
  WorkCounts w;
  double allocs = 0.0;
  double alloc_bytes = 0.0;
  for (const TrialRecord& r : records) {
    w.add(r.finish);
    allocs += static_cast<double>(r.program_allocs);
    alloc_bytes += static_cast<double>(r.program_alloc_bytes);
  }
  const double n = static_cast<double>(records.size());
  fill_work_figures(f, w, n);
  const double finish_ns = total("campaign.finish").self_us * 1e3;
  f.ns_per_cycle = ratio(finish_ns, static_cast<double>(w.cycles));
  f.ns_per_eval = ratio(finish_ns, static_cast<double>(w.evals));
  f.alloc_per_trial = ratio(allocs, n);
  f.alloc_bytes_per_trial = ratio(alloc_bytes, n);
  f.trace_overhead_frac = ratio(median(traced_s), median(untraced_s)) - 1.0;
}

// ---------------------------------------------------------------------
// dispatch_campaign plumbing
// ---------------------------------------------------------------------

/// Redirects this process's stderr, and so the workers' it forks, to a
/// file while alive.
class StderrToFile {
 public:
  explicit StderrToFile(const std::string& path) {
    std::fflush(stderr);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    saved_ = ::dup(2);
    if (fd_ < 0 || saved_ < 0 || ::dup2(fd_, 2) < 0) {
      if (fd_ >= 0) ::close(fd_);
      if (saved_ >= 0) ::close(saved_);
      throw std::runtime_error("cannot redirect stderr to " + path);
    }
  }
  ~StderrToFile() {
    std::fflush(stderr);
    ::dup2(saved_, 2);
    ::close(saved_);
    ::close(fd_);
  }
  StderrToFile(const StderrToFile&) = delete;
  StderrToFile& operator=(const StderrToFile&) = delete;

  void truncate() {
    if (::ftruncate(fd_, 0) != 0) {
      throw std::runtime_error("cannot truncate the worker log");
    }
  }
  std::uint64_t bytes() const {
    struct stat st {};
    return ::fstat(fd_, &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                  : 0;
  }

 private:
  int fd_ = -1;
  int saved_ = -1;
};

struct DispatchRound {
  Report rep;
  double wall_s = 0.0;
  campaign::remote::DispatchStats stats;
};

DispatchRound dispatch_round(const campaign::remote::CampaignSpec& spec,
                             const Args& a) {
  const fs::path dir = fs::path(a.out_dir) / "dispatch_work";
  fs::remove_all(dir);
  campaign::remote::DispatcherOptions o;
  o.worker_binary = a.worker_bin;
  o.workers = kThreads;
  o.shards = kDispatchShards;
  o.work_dir = dir.string();
  campaign::remote::Dispatcher d(o);
  DispatchRound r;
  const Clock::time_point t0 = Clock::now();
  r.rep = d.run(spec);
  r.wall_s = seconds_between(t0, Clock::now());
  r.stats = d.stats();
  fs::remove_all(dir);
  return r;
}

/// The traced run of dispatch_campaign: untraced dispatcher rounds
/// alternate with traced ones, which add spans around the spec codec, the
/// dispatch and the report JSON, then time the slice codec and the merge
/// on the round's results cut into the dispatcher's ranges. An in-process
/// Engine round per iteration gives remote.dispatch_vs_engine; every
/// report must be byte-identical.
void traced_dispatch_rounds(const Args& a,
                            const campaign::remote::CampaignSpec& spec,
                            const std::vector<Scenario>& scenarios,
                            StderrToFile& worker_log, Result& res,
                            LayerFigures& f) {
  const campaign::Engine eng(engine_opts(spec.base_seed));
  const campaign::TrialFn cold = campaign::run_fault_trial;
  const std::uint64_t spec_hash = spec.hash();
  const std::uint64_t topo_hash = spec.topologies_hash();
  std::vector<double> untraced_s, traced_s, engine_s;
  std::vector<double> enc_ms, dec_ms, slice_enc_us, slice_dec_us, merge_ms,
      json_ms;
  bool identical = true;
  std::uint64_t round = 0;
  const Clock::time_point start = Clock::now();
  do {
    const DispatchRound u = dispatch_round(spec, a);
    untraced_s.push_back(u.wall_s);
    const std::string uj = u.rep.to_json();

    SpanBatch b;
    const int root = b.open("remote.round", round);
    const int enc_span = b.open("remote.spec_encode", round, root);
    const std::string spec_json = spec.to_json();
    b.close(enc_span);
    const int dec_span = b.open("remote.spec_decode", round, root);
    const campaign::remote::CampaignSpec decoded =
        campaign::remote::CampaignSpec::from_json(spec_json);
    b.close(dec_span);
    worker_log.truncate();
    int s = b.open("remote.dispatch", round, root);
    const DispatchRound t = dispatch_round(decoded, a);
    b.close(s);
    const int dispatch_span = s;
    s = b.open("campaign.report_json", round, root);
    const std::string tj = t.rep.to_json();
    b.close(s);
    const int json_span = s;

    // The slice codec and merge, on this round's results split into the
    // dispatcher's ranges.
    const std::uint64_t total = t.rep.total_trials();
    std::vector<campaign::remote::ReportSlice> slices;
    double enc_us = 0.0, dec_us = 0.0, slice_bytes = 0.0;
    for (unsigned k = 0; k < kDispatchShards; ++k) {
      campaign::remote::ReportSlice sl;
      sl.spec_hash = spec_hash;
      sl.topology_hash = topo_hash;
      sl.begin = total * k / kDispatchShards;
      sl.end = total * (k + 1) / kDispatchShards;
      sl.results.assign(t.rep.results.begin() + sl.begin,
                        t.rep.results.begin() + sl.end);
      s = b.open("remote.slice_encode", round, root);
      const std::string text = sl.to_json();
      b.close(s);
      enc_us += b.spans()[s].us();
      slice_bytes += static_cast<double>(text.size());
      s = b.open("remote.slice_decode", round, root);
      slices.push_back(campaign::remote::ReportSlice::from_json(text));
      b.close(s);
      dec_us += b.spans()[s].us();
    }
    s = b.open("remote.merge", round, root);
    const Report merged = campaign::remote::merge_slices(decoded, slices);
    b.close(s);
    const int merge_span = s;
    b.close(root);
    recorder().add(b);

    traced_s.push_back(b.spans()[dispatch_span].us() / 1e6);
    enc_ms.push_back(b.spans()[enc_span].us() / 1e3);
    dec_ms.push_back(b.spans()[dec_span].us() / 1e3);
    json_ms.push_back(b.spans()[json_span].us() / 1e3);
    merge_ms.push_back(b.spans()[merge_span].us() / 1e3);
    slice_enc_us.push_back(ratio(enc_us, static_cast<double>(total)));
    slice_dec_us.push_back(ratio(dec_us, static_cast<double>(total)));
    f.spec_bytes = static_cast<double>(spec_json.size());
    f.slice_bytes_per_trial = ratio(slice_bytes, static_cast<double>(total));
    f.report_bytes = static_cast<double>(tj.size());
    f.reissues += static_cast<double>(u.stats.reissued + t.stats.reissued);

    const Clock::time_point e0 = Clock::now();
    const Report e = eng.run(scenarios, cold);
    engine_s.push_back(seconds_between(e0, Clock::now()));

    identical = identical && tj == uj && merged.to_json() == uj &&
                e.to_json() == uj;
    if (round == 0) {
      f.worker_log_bytes = static_cast<double>(worker_log.bytes());
      check_campaign(res, u.rep);
      fill_simulated(f, u.rep);
      res.attempted = t.rep.total_trials();
      res.failed = failed_trials(t.rep);
    }
    ++round;
  } while (seconds_between(start, Clock::now()) < a.seconds);
  res.check(identical,
            "traced, untraced, re-merged and in-process reports are "
            "byte-identical");
  f.spec_encode_ms = median(enc_ms);
  f.spec_decode_ms = median(dec_ms);
  f.slice_encode_us_per_trial = median(slice_enc_us);
  f.slice_decode_us_per_trial = median(slice_dec_us);
  f.merge_ms = median(merge_ms);
  f.report_json_ms = median(json_ms);
  f.dispatch_vs_engine = ratio(median(untraced_s), median(engine_s));
  f.worker_peak_rss_mb = peak_rss_mb(true);
  f.trace_overhead_frac = ratio(median(traced_s), median(untraced_s)) - 1.0;
}

}  // namespace

Result run_ip_campaign(const Args& a) {
  Result res;
  const std::uint64_t base = derive_seed(a.seed, 0);

  // Set-up: spec flatten plus Engine construction.
  std::vector<Scenario> scenarios;
  const auto setup = [&] {
    scenarios = ip_scenarios();
    const std::vector<TrialSpec> specs =
        campaign::flatten_trials(scenarios, base);
    const campaign::Engine eng(engine_opts(base));
    res.check(specs.size() == kIpTrialsPerScenario * scenarios.size() &&
                  eng.threads() == kThreads,
              "the campaign spec flattens to every trial");
  };
  setup();

  const campaign::TrialFn cold = campaign::run_fault_trial;
  if (a.trace) {
    TracedTrials traced(scenarios, base, {});
    LayerFigures f;
    traced_engine_rounds(a, scenarios, base, cold, traced, res, f);
    add_layer_metrics(res, f);
    write_trace(a, res);
    return res;
  }

  TrialTimer timer;
  const Rounds m = engine_rounds(a.seconds, scenarios, base, timer.wrap(cold),
                                 0, {}, setup, kSetupEvery);
  check_campaign(res, m.first);
  note_simulated(res, m.first);
  add_end_to_end(res, m, timer.samples(), m.work);
  return res;
}

Result run_cheshire_fork(const Args& a) {
  Result res;
  const std::uint64_t base = derive_seed(a.seed, 0);
  const std::vector<Scenario> scenarios = fork_scenarios(a.seed);
  const std::vector<TrialSpec> specs =
      campaign::flatten_trials(scenarios, base);
  const std::size_t group_trials =
      kForkScenariosPerGroup * kForkTrialsPerScenario;

  // Set-up: each group's warm-up plus snapshot capture, by priming a
  // fresh forking TrialFn with one trial per group.
  campaign::TrialFn forking;
  const auto setup = [&] {
    forking = campaign::make_forking_trial_fn();
    for (std::size_t i = 0; i < specs.size(); i += group_trials) {
      forking(specs[i]);
    }
  };
  setup();

  // Each group's warm state, built through the public calls: the
  // transactions its trials inherit, and the snapshot the traced path
  // restores.
  std::vector<std::unique_ptr<soc::Soc>> warm;
  std::vector<std::uint64_t> warm_txns;  // per trial
  for (std::size_t i = 0; i < specs.size(); i += group_trials) {
    warm.push_back(soc::SocBuilder::build(trial_desc(specs[i])));
    apply_traffic_and_warm(specs[i], *warm.back());
    const std::uint64_t txns =
        warm.back()
            ->get<axi::TrafficGenerator>(
                warm.back()->desc().managers.front().name)
            .completed();
    warm_txns.insert(warm_txns.end(), group_trials, txns);
  }

  if (a.trace) {
    LayerFigures f;
    std::vector<double> capture_ms;
    std::vector<std::shared_ptr<const snapshot::Snapshot>> snaps;
    for (std::size_t g = 0; g < kForkGroups; ++g) {
      std::shared_ptr<const snapshot::Snapshot> snap;
      for (int k = 0; k < kCaptureReps; ++k) {
        SpanBatch b;
        const int s = b.open("snapshot.capture", g);
        snap = std::make_shared<const snapshot::Snapshot>(
            snapshot::capture(*warm[g]));
        b.close(s);
        recorder().add(b);
        capture_ms.push_back(b.spans()[0].us() / 1e3);
      }
      f.payload_bytes += static_cast<double>(snap->payload.size()) /
                         static_cast<double>(kForkGroups);
      snaps.insert(snaps.end(), kForkScenariosPerGroup, snap);
    }
    f.capture_ms = median(capture_ms);
    TracedTrials traced(scenarios, base, snaps);
    traced_engine_rounds(a, scenarios, base, forking, traced, res, f);
    add_layer_metrics(res, f);
    write_trace(a, res);
    return res;
  }

  TrialTimer timer;
  const Rounds m =
      engine_rounds(a.seconds, scenarios, base, timer.wrap(forking),
                    kForkWarmup, warm_txns, setup, kForkSetupEvery);
  check_campaign(res, m.first);

  // Forked trials must reproduce cold trials exactly: the first trial of
  // every scenario, run cold with its own warm-up.
  bool same = true;
  for (std::size_t i = 0; i < specs.size(); i += kForkTrialsPerScenario) {
    same = same && digest(campaign::run_fault_trial(specs[i])) ==
                       digest(m.first.results[i]);
  }
  res.check(same, "sampled forked trials match cold run_fault_trial");

  // Executed simulated work: every trial past its fork point, plus each
  // group's warm-up once.
  Work executed = m.work;
  for (const std::unique_ptr<soc::Soc>& w : warm) {
    executed.cycles += w->sim().cycle();
    executed.txns +=
        w->get<axi::TrafficGenerator>(w->desc().managers.front().name)
            .completed();
  }
  note_simulated(res, m.first);
  add_end_to_end(res, m, timer.samples(), executed);
  return res;
}

Result run_dispatch_campaign(const Args& a) {
  Result res;
  if (a.worker_bin.empty() || !fs::exists(a.worker_bin)) {
    throw std::runtime_error("campaign_worker binary not found: '" +
                             a.worker_bin + "'");
  }
  const std::uint64_t base = derive_seed(a.seed, 0);

  // Set-up: spec construction plus its canonical JSON round trip.
  std::vector<Scenario> scenarios;
  campaign::remote::CampaignSpec spec;
  const auto setup = [&] {
    scenarios = ip_scenarios();
    campaign::remote::CampaignSpec built;
    built.base_seed = base;
    built.scenarios = scenarios;
    spec = campaign::remote::CampaignSpec::from_json(built.to_json());
    res.check(spec == built, "the campaign spec survives its JSON round trip");
  };
  setup();

  StderrToFile worker_log(a.out_dir + "/worker_stderr.log");

  if (a.trace) {
    LayerFigures f;
    traced_dispatch_rounds(a, spec, scenarios, worker_log, res, f);
    add_layer_metrics(res, f);
    write_trace(a, res);
    return res;
  }

  Rounds m;
  std::vector<double> campaign_ms;
  std::uint64_t reissues = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    if (round % kSetupEvery == 0) m.setup_s.push_back(time_s(setup));
    worker_log.truncate();
    const DispatchRound r = dispatch_round(spec, a);
    m.add(r.rep, r.wall_s, post_warmup_work(r.rep, 0, {}));
    campaign_ms.push_back(r.wall_s * 1e3);
    reissues += r.stats.reissued;
    if (seconds_between(start, Clock::now()) >= a.seconds) break;
  }
  const double log_bytes = static_cast<double>(worker_log.bytes());

  // The dispatched report must equal the in-process Engine's, which is
  // the ip_campaign report for the same seed.
  const campaign::Engine eng(engine_opts(base));
  res.check(eng.run(scenarios, campaign::run_fault_trial).to_json() ==
                m.first_json,
            "the dispatched report equals the in-process Engine report");
  check_campaign(res, m.first);
  note_simulated(res, m.first);
  add_end_to_end(res, m, campaign_ms, m.work);
  res.note("reissues", static_cast<double>(reissues), "count");
  res.note("worker_log_bytes_per_round", log_bytes, "bytes");
  return res;
}

}  // namespace perfbench
