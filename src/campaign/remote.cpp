#include "campaign/remote.hpp"

#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/bytes.hpp"
#include "sim/jsonemit.hpp"
#include "sim/jsonio.hpp"
#include "sim/jsonparse.hpp"
#include "soc/desc.hpp"
#include "soc/desc_serde.hpp"

using sim::jsonio::FieldVisitor;

// Field lists sit in their struct's namespace, where jsonio::save()
// looks them up; the shared TMU/traffic blocks come from desc_serde.hpp.

namespace obs {

// Metric names are data, not schema, so each map is walked by hand, one
// branch per direction. A stat travels as its full Welford state rather
// than derived views: from_parts rebuilds the exact stream, so a merge
// downstream is bit-identical to never having serialized at all.
static void stat_fields(FieldVisitor& v, sim::RunningStats& s) {
  std::uint64_t count = s.count();
  double mean = s.mean(), m2 = s.m2(), min = s.min(), max = s.max();
  v.field("count", count);
  v.field("mean", mean);
  v.field("m2", m2);
  v.field("min", min);
  v.field("max", max);
  if (!v.saving()) {
    s = sim::RunningStats::from_parts(count, mean, m2, min, max);
  }
}

static void fields(FieldVisitor& v, MetricsSnapshot& m) {
  if (v.saving()) {
    sim::jsonemit::Emitter& e = v.emitter();
    e.open_obj("counters");
    for (const auto& [name, c] : m.counters) e.u64(name.c_str(), c);
    e.close_obj();
    e.open_obj("stats");
    for (auto& [name, s] : m.stats) {
      e.open_obj(name.c_str());
      stat_fields(v, s);
      e.close_obj();
    }
    e.close_obj();
    e.open_obj("histograms");
    for (const auto& [name, h] : m.histograms) {
      e.open_obj(name.c_str());
      for (const auto& [value, count] : h.bins()) {
        e.u64(std::to_string(value).c_str(), count);
      }
      e.close_obj();
    }
    e.close_obj();
    return;
  }
  using sim::jsonparse::Json;
  const auto take_map = [&v](const char* k) {
    const Json* o = v.reader().take(k);
    if (o != nullptr && o->kind != Json::Kind::kObject) {
      v.fail(v.ctx(k) + " must be an object");
    }
    return o;
  };
  if (const Json* c = take_map("counters")) {
    for (const auto& [name, val] : c->obj) {
      if (val.kind != Json::Kind::kNumber || !val.is_unsigned) {
        v.fail(v.ctx("counters") + "." + name +
               " must be a non-negative integer");
      }
      m.counters[name] = val.unum;
    }
  }
  if (const Json* st = take_map("stats")) {
    for (const auto& [name, val] : st->obj) {
      FieldVisitor sv(val, v.ctx("stats") + "." + name, v.reader().prefix());
      stat_fields(sv, m.stats[name] = sim::RunningStats{});
      sv.finish();
    }
  }
  if (const Json* h = take_map("histograms")) {
    for (const auto& [name, val] : h->obj) {
      const std::string where = v.ctx("histograms") + "." + name;
      if (val.kind != Json::Kind::kObject) v.fail(where + " must be an object");
      sim::Histogram& hist = m.histograms[name];
      for (const auto& [bin, count] : val.obj) {
        if (bin.empty() ||
            bin.find_first_not_of("0123456789") != std::string::npos) {
          v.fail(where + ": bin '" + bin + "' is not a non-negative integer");
        }
        if (count.kind != Json::Kind::kNumber || !count.is_unsigned) {
          v.fail(where + "." + bin + " must be a non-negative integer");
        }
        hist.add_count(std::strtoull(bin.c_str(), nullptr, 10), count.unum);
      }
    }
  }
}

}  // namespace obs

namespace campaign {

/// A spec trial entry: `count` consecutive copies of `t` (run-length
/// encoding over equal trials) whose desc is topology-table entry
/// `topology` — the spec transports each distinct desc once, verbatim.
static void fields(FieldVisitor& v, TrialSpec& t, std::uint64_t& count,
                   std::uint64_t& topology) {
  v.field("count", count);
  v.field("topology", topology);
  v.object("cfg", t.cfg);
  v.enumeration("point", t.point, fault::FaultPoint::kRReadyStuck,
                "fault point");
  v.object("traffic", t.traffic);
  v.field("seed", t.seed);
  v.field("inject_delay_max", t.inject_delay_max);
  v.field("detect_budget", t.detect_budget);
  v.field("soak_cycles", t.soak_cycles);
  v.field("max_cycles", t.max_cycles);
  // Schema-compatible optional: absent means 0, and specs without a
  // warm-up phase keep emitting byte-identical v1 documents (older
  // readers, with their unknown-key strictness, still accept them).
  v.nonzero("warmup_cycles", t.warmup_cycles);
  v.field("exercise_recovery", t.exercise_recovery);
  v.strings("trace_links", t.trace_links);
}

/// A slice entry: the trial's global campaign `index` and its result.
/// Trace buffers do not ride slices (run_range drops them).
static void fields(FieldVisitor& v, TrialResult& r, std::uint64_t& index) {
  v.field("index", index);
  v.field("failed", r.failed);
  v.field("error", r.error);
  v.field("timed_out", r.timed_out);
  v.field("detected", r.detected);
  v.field("recovered", r.recovered);
  v.field("traffic_resumed", r.traffic_resumed);
  v.field("inject_delay", r.inject_delay);
  v.field("detect_cycle", r.detect_cycle);
  v.field("latency", r.latency);
  v.field("cycles_run", r.cycles_run);
  v.field("eval_passes", r.eval_passes);
  v.field("completed_txns", r.completed_txns);
  v.field("data_mismatches", r.data_mismatches);
  v.field("error_responses", r.error_responses);
  v.object("metrics", r.metrics);
}

namespace remote {

namespace {

using sim::fnv1a64;
using sim::jsonemit::Emitter;
using sim::jsonparse::Json;
using sim::jsonparse::ObjReader;

constexpr const char* kSpecPrefix = "CampaignSpec::from_json";
constexpr const char* kSlicePrefix = "ReportSlice::from_json";

[[noreturn]] void fail(const std::string& prefix, const std::string& what) {
  throw std::invalid_argument(prefix + ": " + what);
}

std::uint64_t parse_hex64(const std::string& s, const std::string& prefix,
                          const std::string& where) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    fail(prefix, where + " must be a 16-digit lowercase hex string");
  }
  return std::strtoull(s.c_str(), nullptr, 16);
}

/// The spec's topology table: distinct descs in first-use order, each
/// stored as its canonical JSON (the table key — structural equality via
/// byte equality of canonical documents) plus its FNV fingerprint.
struct TopoTable {
  std::vector<std::string> jsons;
  std::vector<std::uint64_t> hashes;
  std::map<std::string, std::size_t> by_json;
  // One-slot memo: campaign trials overwhelmingly repeat one desc, and
  // structural compare is allocation-free while to_json is not.
  const soc::SocDesc* last_desc = nullptr;
  std::size_t last_idx = 0;

  std::size_t intern(const soc::SocDesc& d) {
    if (last_desc != nullptr && d == *last_desc) return last_idx;
    std::string j = d.to_json();
    const auto [it, inserted] = by_json.try_emplace(std::move(j), jsons.size());
    if (inserted) {
      jsons.push_back(it->first);
      hashes.push_back(fnv1a64(it->first));
    }
    last_desc = &d;
    last_idx = it->second;
    return it->second;
  }
};

TopoTable build_topo_table(const std::vector<Scenario>& scenarios) {
  TopoTable table;
  for (const Scenario& sc : scenarios) {
    for (const TrialSpec& t : sc.trials) table.intern(t.desc);
  }
  return table;
}

void parse_trial_run(const Json& json, const std::string& where,
                     const std::vector<soc::SocDesc>& topologies,
                     std::vector<TrialSpec>& out) {
  FieldVisitor v(json, where, kSpecPrefix);
  TrialSpec t;
  std::uint64_t count = 1;
  std::uint64_t topo = 0;
  fields(v, t, count, topo);
  v.finish();
  if (count == 0) v.fail(v.ctx("count") + " must be at least 1");
  if (topo >= topologies.size()) {
    v.fail(v.ctx("topology") + ": index " + std::to_string(topo) +
           " out of range (table has " + std::to_string(topologies.size()) +
           " entries)");
  }
  t.desc = topologies[topo];
  out.insert(out.end(), count, t);
}

}  // namespace

std::uint64_t CampaignSpec::total_trials() const {
  std::uint64_t n = 0;
  for (const Scenario& sc : scenarios) n += sc.trials.size();
  return n;
}

std::string CampaignSpec::to_json() const {
  TopoTable table = build_topo_table(scenarios);
  Emitter e;
  e.open_obj();
  e.str("schema", kSpecSchema);
  e.u64("base_seed", base_seed);
  e.open_arr("topologies");
  for (std::size_t i = 0; i < table.jsons.size(); ++i) {
    e.open_obj();
    e.hex64("hash", table.hashes[i]);
    // The whole canonical desc document as one escaped string: the spec
    // schema does not re-model topologies, it transports them verbatim
    // (SocDesc::to_json/from_json stay the single source of truth).
    e.str("desc", table.jsons[i]);
    e.close_obj();
  }
  e.close_arr();
  e.open_arr("scenarios");
  for (const Scenario& sc : scenarios) {
    e.open_obj();
    e.str("label", sc.label);
    e.open_arr("trials");
    // Run-length encoding over consecutive structurally-equal trials:
    // make_scenario(n) campaigns collapse to one entry per scenario.
    for (std::size_t i = 0; i < sc.trials.size();) {
      std::size_t j = i + 1;
      while (j < sc.trials.size() && sc.trials[j] == sc.trials[i]) ++j;
      std::uint64_t count = j - i;
      std::uint64_t topo = table.intern(sc.trials[i].desc);
      e.open_obj();
      sim::jsonio::save(e, sc.trials[i], count, topo);
      e.close_obj();
      i = j;
    }
    e.close_arr();
    e.close_obj();
  }
  e.close_arr();
  e.close_obj();
  std::string out = std::move(e).take();
  out += '\n';
  return out;
}

CampaignSpec CampaignSpec::from_json(const std::string& json) {
  const Json doc = sim::jsonparse::parse(json, kSpecPrefix);
  ObjReader r(doc, "spec", kSpecPrefix);
  std::string schema;
  r.get("schema", schema);
  if (schema != kSpecSchema) {
    r.fail("spec.schema: expected \"" + std::string(kSpecSchema) + "\", got \"" +
           schema + "\"");
  }
  CampaignSpec spec;
  spec.scenarios.clear();
  r.get_u("base_seed", spec.base_seed);

  std::vector<soc::SocDesc> topologies;
  if (const Json* topos = r.take("topologies")) {
    if (topos->kind != Json::Kind::kArray) {
      r.fail("spec.topologies must be an array");
    }
    for (std::size_t i = 0; i < topos->arr.size(); ++i) {
      const std::string where = "spec.topologies[" + std::to_string(i) + "]";
      ObjReader tr(topos->arr[i], where, kSpecPrefix);
      std::string hash_str, desc_str;
      tr.get("hash", hash_str);
      tr.get("desc", desc_str);
      tr.finish();
      const std::uint64_t declared =
          parse_hex64(hash_str, kSpecPrefix, where + ".hash");
      soc::SocDesc d;
      try {
        d = soc::SocDesc::from_json(desc_str);
      } catch (const std::invalid_argument& e) {
        fail(kSpecPrefix, where + ".desc: " + e.what());
      }
      // The declared hash must match the transported desc: a table
      // entry whose desc was altered (or whose hash was) is rejected
      // here rather than silently producing a different-hash campaign.
      if (d.hash() != declared) {
        fail(kSpecPrefix,
             where + ".hash does not match the desc document it labels");
      }
      topologies.push_back(std::move(d));
    }
  }

  if (const Json* scens = r.take("scenarios")) {
    if (scens->kind != Json::Kind::kArray) {
      r.fail("spec.scenarios must be an array");
    }
    for (std::size_t si = 0; si < scens->arr.size(); ++si) {
      const std::string where = "spec.scenarios[" + std::to_string(si) + "]";
      ObjReader sr(scens->arr[si], where, kSpecPrefix);
      Scenario sc;
      sr.get("label", sc.label);
      if (const Json* trials = sr.take("trials")) {
        if (trials->kind != Json::Kind::kArray) {
          sr.fail(where + ".trials must be an array");
        }
        for (std::size_t ti = 0; ti < trials->arr.size(); ++ti) {
          parse_trial_run(trials->arr[ti],
                          where + ".trials[" + std::to_string(ti) + "]",
                          topologies, sc.trials);
        }
      }
      sr.finish();
      spec.scenarios.push_back(std::move(sc));
    }
  }
  r.finish();
  return spec;
}

std::uint64_t CampaignSpec::hash() const { return fnv1a64(to_json()); }

std::uint64_t CampaignSpec::topologies_hash() const {
  const TopoTable table = build_topo_table(scenarios);
  Emitter e;
  e.open_arr();
  for (const std::uint64_t h : table.hashes) {
    // Reuse the canonical hex form; the enclosing array makes the
    // digest well-defined for zero and many entries alike.
    e.hex64("h", h);
  }
  e.close_arr();
  return fnv1a64(std::move(e).take());
}

namespace {

/// Appends the results array, entry i carrying global index begin + i.
void emit_results(Emitter& e, const std::vector<TrialResult>& results,
                  std::uint64_t begin) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::uint64_t index = begin + i;
    e.open_obj();
    sim::jsonio::save(e, results[i], index);
    e.close_obj();
  }
}

/// The checksum input: the results array serialized standalone (depth
/// 0). Canonical by construction, so parse -> re-serialize -> compare
/// detects any value-level corruption the JSON grammar itself missed.
std::string serialize_results(const std::vector<TrialResult>& results,
                              std::uint64_t begin) {
  Emitter e;
  e.open_arr();
  emit_results(e, results, begin);
  e.close_arr();
  return std::move(e).take();
}

TrialResult parse_result(const Json& json, const std::string& where,
                         std::uint64_t expected_index) {
  FieldVisitor v(json, where, kSlicePrefix);
  TrialResult out;
  std::uint64_t index = ~std::uint64_t{0};
  fields(v, out, index);
  v.finish();
  if (index != expected_index) {
    v.fail(v.ctx("index") + ": expected " + std::to_string(expected_index) +
           ", got " + std::to_string(index));
  }
  return out;
}

}  // namespace

std::string ReportSlice::to_json() const {
  Emitter e;
  e.open_obj();
  e.str("schema", kSliceSchema);
  e.hex64("spec_hash", spec_hash);
  e.hex64("topology_hash", topology_hash);
  e.u64("begin", begin);
  e.u64("end", end);
  e.open_arr("results");
  emit_results(e, results, begin);
  e.close_arr();
  e.hex64("checksum", fnv1a64(serialize_results(results, begin)));
  e.close_obj();
  std::string out = std::move(e).take();
  out += '\n';
  return out;
}

ReportSlice ReportSlice::from_json(const std::string& json) {
  const Json doc = sim::jsonparse::parse(json, kSlicePrefix);
  ObjReader r(doc, "slice", kSlicePrefix);
  std::string schema;
  r.get("schema", schema);
  if (schema != kSliceSchema) {
    r.fail("slice.schema: expected \"" + std::string(kSliceSchema) +
           "\", got \"" + schema + "\"");
  }
  ReportSlice s;
  std::string hex;
  r.get("spec_hash", hex);
  s.spec_hash = parse_hex64(hex, kSlicePrefix, "slice.spec_hash");
  hex.clear();
  r.get("topology_hash", hex);
  s.topology_hash = parse_hex64(hex, kSlicePrefix, "slice.topology_hash");
  r.get_u("begin", s.begin);
  r.get_u("end", s.end);
  if (s.begin > s.end) r.fail("slice.begin exceeds slice.end");
  const Json* results = r.take("results");
  if (results == nullptr || results->kind != Json::Kind::kArray) {
    r.fail("slice.results must be present and an array");
  }
  if (results->arr.size() != s.end - s.begin) {
    r.fail("slice.results holds " + std::to_string(results->arr.size()) +
           " results for range [" + std::to_string(s.begin) + ", " +
           std::to_string(s.end) + ")");
  }
  s.results.reserve(results->arr.size());
  for (std::size_t i = 0; i < results->arr.size(); ++i) {
    s.results.push_back(parse_result(results->arr[i],
                                     "slice.results[" + std::to_string(i) + "]",
                                     s.begin + i));
  }
  std::string checksum_hex;
  r.get("checksum", checksum_hex);
  const std::uint64_t declared =
      parse_hex64(checksum_hex, kSlicePrefix, "slice.checksum");
  r.finish();
  // Verify by reconstruction: re-serialize what we parsed and compare
  // fingerprints. Any value the parser accepted but that differs from
  // what the worker serialized (bit-flipped number, truncated name)
  // changes the canonical bytes and is caught here.
  const std::uint64_t actual = fnv1a64(serialize_results(s.results, s.begin));
  if (actual != declared) {
    r.fail("slice.checksum mismatch: results were altered in transit");
  }
  return s;
}

ReportSlice run_range(const CampaignSpec& spec, std::uint64_t begin,
                      std::uint64_t end, const ProgressFn& progress,
                      const TrialFn& fn) {
  const std::uint64_t total = spec.total_trials();
  if (begin > end || end > total) {
    throw std::invalid_argument(
        "campaign::remote::run_range: range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") outside campaign of " +
        std::to_string(total) + " trials");
  }
  ReportSlice s;
  s.spec_hash = spec.hash();
  s.topology_hash = spec.topologies_hash();
  s.begin = begin;
  s.end = end;
  s.results.resize(end - begin);
  // Only this range's trials are built, one at a time, seeded as
  // flatten_trials seeds them: by their global index.
  std::uint64_t first = 0;  // global index of sc.trials[0]
  for (const Scenario& sc : spec.scenarios) {
    const std::uint64_t last = first + sc.trials.size();
    for (std::uint64_t i = std::max(begin, first); i < std::min(end, last);
         ++i) {
      if (progress) progress(i);
      TrialSpec t = sc.trials[i - first];
      if (t.seed == 0) t.seed = derive_trial_seed(spec.base_seed, i);
      TrialResult& out = s.results[i - begin];
      out = run_captured(fn, t);
      // Trace buffers do not ride slices (they are not part of the JSON
      // report; shipping them would dwarf the results).
      out.traces.clear();
    }
    first = last;
  }
  if (progress) progress(end);
  return s;
}

Report merge_slices(const CampaignSpec& spec,
                    const std::vector<ReportSlice>& slices) {
  constexpr const char* kPrefix = "campaign::remote::merge_slices";
  const std::uint64_t total = spec.total_trials();
  const std::uint64_t spec_hash = spec.hash();
  const std::uint64_t topo_hash = spec.topologies_hash();

  std::vector<const ReportSlice*> order;
  order.reserve(slices.size());
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const ReportSlice& s = slices[i];
    const std::string who = "slice " + std::to_string(i) + " [" +
                            std::to_string(s.begin) + ", " +
                            std::to_string(s.end) + ")";
    if (s.spec_hash != spec_hash) {
      fail(kPrefix, who + " was produced by a different campaign spec");
    }
    if (s.topology_hash != topo_hash) {
      fail(kPrefix, who + " ran different topologies than this spec");
    }
    if (s.begin > s.end || s.end > total) {
      fail(kPrefix, who + " is outside the campaign of " +
                        std::to_string(total) + " trials");
    }
    if (s.results.size() != s.end - s.begin) {
      fail(kPrefix, who + " holds " + std::to_string(s.results.size()) +
                        " results for its range");
    }
    order.push_back(&s);
  }
  // Key on (begin, end) so an empty slice sorts before the non-empty
  // one starting at the same trial and the tiling walk accepts both.
  std::sort(order.begin(), order.end(),
            [](const ReportSlice* a, const ReportSlice* b) {
              return a->begin != b->begin ? a->begin < b->begin
                                          : a->end < b->end;
            });
  std::uint64_t cur = 0;
  for (const ReportSlice* s : order) {
    if (s->begin != cur) {
      fail(kPrefix,
           s->begin > cur
               ? "trials [" + std::to_string(cur) + ", " +
                     std::to_string(s->begin) + ") are covered by no slice"
               : "slices overlap at trial " + std::to_string(s->begin));
    }
    cur = s->end;
  }
  if (cur != total) {
    fail(kPrefix, "trials [" + std::to_string(cur) + ", " +
                      std::to_string(total) + ") are covered by no slice");
  }

  Report rep;
  rep.base_seed = spec.base_seed;
  rep.results.resize(total);
  for (const ReportSlice* s : order) {
    std::copy(s->results.begin(), s->results.end(),
              rep.results.begin() + static_cast<std::ptrdiff_t>(s->begin));
  }
  // The one aggregation code path (shared with Engine::run): serial,
  // global index order, exact merges — this is where "byte-identical to
  // the single-process run" comes from.
  aggregate_report(spec.scenarios, rep);
  return rep;
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string read_file(const fs::path& p) {
  std::optional<std::string> text = sim::read_whole_file(p.string());
  if (!text) {
    throw std::runtime_error("campaign::remote: cannot read " + p.string());
  }
  return std::move(*text);
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  if (!f || !(f << text) || !f.flush()) {
    throw std::runtime_error("campaign::remote: cannot write " + p.string());
  }
}

std::uintmax_t file_size_or_zero(const fs::path& p) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(p, ec);
  return ec ? 0 : n;
}

/// A trial range queued for execution, with its retry history.
struct RangeTask {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  unsigned attempt = 0;           ///< how many workers already failed it
  Clock::time_point not_before{};  ///< backoff gate for the next spawn
};

/// One live worker process and the files the dispatcher watches.
struct Child {
  pid_t pid = -1;
  int pidfd = -1;  ///< readable once the worker exits; -1 if unavailable
  int status = 0;  ///< wait status, once reaped
  RangeTask task;
  fs::path out;
  fs::path progress;
  Clock::time_point last_progress{};
  std::uintmax_t last_size = 0;
};

/// waitpid(c.pid, flags); once the worker is reaped, closes its pidfd.
bool reap(Child& c, int flags) {
  if (waitpid(c.pid, &c.status, flags) != c.pid) return false;
  if (c.pidfd >= 0) close(c.pidfd);
  c.pidfd = -1;
  return true;
}

/// The one owner of the live workers: leaving run() by any path, an
/// exception included, SIGKILLs and reaps every worker still running
/// and closes its pidfd, so no process or fd outlives the call.
struct Running {
  std::vector<Child> children;

  Running() = default;
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;
  ~Running() {
    for (Child& c : children) {
      kill(c.pid, SIGKILL);
      reap(c, 0);
    }
  }
};

/// Splits [0, total) into min(shards, total) contiguous ranges whose
/// sizes differ by at most one: range k is [total*k/n, total*(k+1)/n).
std::vector<RangeTask> shard_ranges(std::uint64_t total, unsigned shards) {
  std::vector<RangeTask> out;
  if (total == 0) return out;
  const std::uint64_t n = std::min<std::uint64_t>(std::max(1u, shards), total);
  // total*k/n without overflow: total = q*n + r, and r*k < n*n < 2^64.
  const std::uint64_t q = total / n, r = total % n;
  const auto cut = [&](std::uint64_t k) { return q * k + r * k / n; };
  for (std::uint64_t k = 0; k < n; ++k) {
    out.push_back(RangeTask{cut(k), cut(k + 1)});
  }
  return out;
}

pid_t spawn_worker(const std::string& binary, const fs::path& spec_path,
                   const RangeTask& t, const fs::path& out,
                   const fs::path& progress) {
  std::vector<std::string> args = {binary,
                                   "--spec",
                                   spec_path.string(),
                                   "--begin",
                                   std::to_string(t.begin),
                                   "--end",
                                   std::to_string(t.end),
                                   "--out",
                                   out.string(),
                                   "--progress",
                                   progress.string()};
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(binary.c_str(), argv.data());
    _exit(127);  // exec failed: surfaces as a crashed worker
  }
  return pid;  // -1 on fork failure; caller degrades to in-process
}

/// Owns the scratch directory lifetime (removed unless kept).
struct WorkDir {
  fs::path path;
  bool owned = false;
  bool keep = false;

  ~WorkDir() {
    if (owned && !keep) {
      std::error_code ec;
      fs::remove_all(path, ec);  // best effort; never throws from a dtor
    }
  }
};

}  // namespace

Dispatcher::Dispatcher(DispatcherOptions opts) : opts_(std::move(opts)) {
  workers_ = opts_.workers != 0 ? opts_.workers
                                : std::thread::hardware_concurrency();
  if (workers_ == 0) workers_ = 1;
}

Report Dispatcher::run(const CampaignSpec& spec) {
  stats_ = DispatchStats{};
  const std::uint64_t total = spec.total_trials();
  const unsigned shard_count =
      opts_.shards != 0 ? opts_.shards : workers_;
  std::vector<RangeTask> ranges = shard_ranges(total, shard_count);
  std::vector<ReportSlice> slices;
  slices.reserve(ranges.size());

  // Pure in-process mode: no worker binary configured (or an empty
  // campaign). Same slice -> merge path, no processes — this is also
  // the unit the dispatcher degrades to per-range on retry exhaustion.
  if (opts_.worker_binary.empty() || total == 0) {
    for (const RangeTask& t : ranges) {
      slices.push_back(run_range(spec, t.begin, t.end));
    }
    return merge_slices(spec, slices);
  }

  WorkDir dir;
  dir.keep = opts_.keep_work_dir;
  if (!opts_.work_dir.empty()) {
    dir.path = opts_.work_dir;
    fs::create_directories(dir.path);
  } else {
    std::string tmpl =
        (fs::temp_directory_path() / "tmu_campaign_XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error(
          "campaign::remote::Dispatcher: cannot create work dir under " +
          fs::temp_directory_path().string());
    }
    dir.path = tmpl;
    dir.owned = true;
  }
  const fs::path spec_path = dir.path / "spec.json";
  write_file(spec_path, spec.to_json());
  const std::uint64_t spec_hash = spec.hash();

  std::deque<RangeTask> pending(ranges.begin(), ranges.end());
  Running running;
  // Never more live workers than ranges: with the room reserved, the
  // push_back that hands a forked worker to its owner cannot throw.
  running.children.reserve(std::min<std::size_t>(workers_, ranges.size()));
  std::vector<Child> exited;  // reaped, exit status and slice not judged
  std::vector<pollfd> fds;
  std::uint64_t seq = 0;  // distinct file names across attempts

  // A failed range either re-queues with exponential backoff or, after
  // max_retries re-issues, runs in-process right here — the campaign
  // completes whatever the workers do (ultimately N=1, this process).
  const auto requeue = [&](RangeTask t) {
    ++t.attempt;
    if (t.attempt > opts_.max_retries) {
      slices.push_back(run_range(spec, t.begin, t.end));
      ++stats_.fallback_ranges;
      return;
    }
    ++stats_.reissued;
    const std::uint64_t backoff =
        opts_.retry_backoff_ms * (std::uint64_t{1} << (t.attempt - 1));
    t.not_before = Clock::now() + std::chrono::milliseconds(backoff);
    pending.push_back(t);
  };

  while (!pending.empty() || !running.children.empty() || !exited.empty()) {
    // Spawn phase: fill free worker slots with ready (backoff-elapsed)
    // ranges. A fork failure degrades that range to in-process.
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin();
         it != pending.end() && running.children.size() < workers_;) {
      if (it->not_before > now) {
        ++it;
        continue;
      }
      const RangeTask t = *it;
      it = pending.erase(it);
      ++seq;
      Child c;
      c.task = t;
      c.out = dir.path / ("slice_" + std::to_string(seq) + ".json");
      c.progress = dir.path / ("progress_" + std::to_string(seq) + ".log");
      c.pid = spawn_worker(opts_.worker_binary, spec_path, t, c.out,
                           c.progress);
      if (c.pid < 0) {
        slices.push_back(run_range(spec, t.begin, t.end));
        ++stats_.fallback_ranges;
        continue;
      }
      ++stats_.spawned;
      // Not glibc's pidfd_open(): its header lacks C linkage. Without
      // pidfds (-1) poll() skips the entry and the worker is reaped on
      // the next heartbeat check instead.
      c.pidfd = static_cast<int>(syscall(SYS_pidfd_open, c.pid, 0));
      c.last_progress = Clock::now();
      c.last_size = 0;
      running.children.push_back(std::move(c));
    }

    // Judge phase: the workers reaped last pass, now that their slots
    // are refilled. Exit 0 is a claim, not proof: the slice must parse,
    // pass its own checksum, and match the range and spec we asked for.
    // Anything less counts as a corrupt worker.
    for (const Child& c : exited) {
      if (!WIFEXITED(c.status) || WEXITSTATUS(c.status) != 0) {
        ++stats_.crashed;
        requeue(c.task);
        continue;
      }
      try {
        ReportSlice s = ReportSlice::from_json(read_file(c.out));
        if (s.begin != c.task.begin || s.end != c.task.end) {
          throw std::invalid_argument("slice range mismatch");
        }
        if (s.spec_hash != spec_hash) {
          throw std::invalid_argument("slice spec mismatch");
        }
        slices.push_back(std::move(s));
      } catch (const std::exception&) {
        ++stats_.corrupt;
        requeue(c.task);
      }
    }
    exited.clear();

    // Reap phase: collect exits and enforce the progress deadline on
    // the rest. A reap goes straight back to the spawn phase.
    for (auto it = running.children.begin(); it != running.children.end();) {
      if (reap(*it, WNOHANG)) {
        exited.push_back(std::move(*it));
        it = running.children.erase(it);
        continue;
      }
      // Still running: progress is the worker's heartbeat — the file
      // growing resets the deadline; silence past it means hung.
      const Clock::time_point poll_now = Clock::now();
      const std::uintmax_t size = file_size_or_zero(it->progress);
      if (size != it->last_size) {
        it->last_size = size;
        it->last_progress = poll_now;
        ++it;
        continue;
      }
      if (poll_now - it->last_progress >
          std::chrono::milliseconds(opts_.deadline_ms)) {
        kill(it->pid, SIGKILL);
        reap(*it, 0);
        ++stats_.hung;
        const RangeTask t = it->task;
        it = running.children.erase(it);
        requeue(t);
        continue;
      }
      ++it;
    }
    if (!exited.empty()) continue;

    // Wait phase: block until a worker exits (its pidfd turns
    // readable), the next heartbeat check is due, or a backed-off range
    // may take a free slot, whichever comes first. -1 = nothing left.
    std::int64_t wait_ms =
        running.children.empty()
            ? -1
            : static_cast<std::int64_t>(
                  std::min<std::uint64_t>(opts_.poll_interval_ms, INT_MAX));
    if (running.children.size() < workers_) {
      const Clock::time_point wait_now = Clock::now();
      for (const RangeTask& t : pending) {
        const std::int64_t until = std::max<std::int64_t>(
            0, std::chrono::ceil<std::chrono::milliseconds>(t.not_before -
                                                           wait_now)
                   .count());
        wait_ms = wait_ms < 0 ? until : std::min(wait_ms, until);
      }
    }
    if (wait_ms < 0) continue;
    fds.clear();
    for (const Child& c : running.children) {
      fds.push_back(pollfd{c.pidfd, POLLIN, 0});
    }
    poll(fds.data(), fds.size(),
         static_cast<int>(std::min<std::int64_t>(wait_ms, INT_MAX)));
  }

  return merge_slices(spec, slices);
}

}  // namespace remote
}  // namespace campaign
