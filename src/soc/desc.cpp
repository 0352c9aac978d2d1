// SocDesc JSON round-trip (schema tmu-soc-desc-v2) and topology hash.
//
// One field list per struct drives both directions (sim/jsonio.hpp), in
// a fixed order, so the document is canonical: equal descs serialize
// byte-identically and hash() — FNV-1a over the document — is a stable
// cross-process topology fingerprint covering the whole cluster tree.
// Parsing rides the shared strict reader in sim/jsonparse.hpp; it
// rejects unknown keys (typos in hand-written topologies should fail
// loudly, not silently fall back to defaults) and reports the offending
// key in every error. Legacy v1 documents (flat, no bridges/banks) parse
// unchanged: the keys later schema revisions added are optional with
// flat defaults.

#include "soc/desc.hpp"

#include <utility>

#include "sim/bytes.hpp"
#include "sim/jsonemit.hpp"
#include "sim/jsonio.hpp"
#include "sim/jsonparse.hpp"
#include "soc/desc_serde.hpp"

using sim::jsonio::FieldVisitor;

// Field lists sit in their struct's namespace, where FieldVisitor's
// object()/objects() look them up. The traffic and TMU blocks are shared
// with the campaign spec schema (desc_serde.hpp); the rest are local.

namespace axi {

void fields(FieldVisitor& v, RandomTrafficConfig& t) {
  v.field("enabled", t.enabled);
  v.field("p_new_txn", t.p_new_txn);
  v.field("write_fraction", t.write_fraction);
  v.field("max_outstanding", t.max_outstanding);
  v.field("id_min", t.id_min);
  v.field("id_max", t.id_max);
  v.field("addr_min", t.addr_min);
  v.field("addr_max", t.addr_max);
  v.field("len_min", t.len_min);
  v.field("len_max", t.len_max);
  v.field("size", t.size);
}

static void fields(FieldVisitor& v, BankTimingConfig& b) {
  v.field("enabled", b.enabled);
  v.field("num_banks", b.num_banks);
  v.field("col_bits", b.col_bits);
  v.field("open_page", b.open_page);
  v.field("t_hit", b.t_hit);
  v.field("t_miss", b.t_miss);
  v.field("t_conflict", b.t_conflict);
}

static void fields(FieldVisitor& v, MemoryConfig& m) {
  v.field("aw_accept_latency", m.aw_accept_latency);
  v.field("ar_accept_latency", m.ar_accept_latency);
  v.field("w_ready_every", m.w_ready_every);
  v.field("b_latency", m.b_latency);
  v.field("r_first_latency", m.r_first_latency);
  v.field("r_beat_every", m.r_beat_every);
  v.field("max_outstanding", m.max_outstanding);
  v.field("error_base", m.error_base);
  v.field("error_end", m.error_end);
  v.object("bank", m.bank);
}

static void fields(FieldVisitor& v, BridgeConfig& b) {
  v.field("req_latency", b.req_latency);
  v.field("rsp_latency", b.rsp_latency);
  v.field("id_remap", b.id_remap);
  v.field("max_ids", b.max_ids);
  v.field("fifo_depth", b.fifo_depth);
}

}  // namespace axi

namespace tmu {

static void fields(FieldVisitor& v, PhaseBudgets& b) {
  v.field("aw_vld_aw_rdy", b.aw_vld_aw_rdy);
  v.field("aw_rdy_w_vld", b.aw_rdy_w_vld);
  v.field("w_vld_w_rdy", b.w_vld_w_rdy);
  v.field("w_first_w_last", b.w_first_w_last);
  v.field("w_last_b_vld", b.w_last_b_vld);
  v.field("b_vld_b_rdy", b.b_vld_b_rdy);
  v.field("ar_vld_ar_rdy", b.ar_vld_ar_rdy);
  v.field("ar_rdy_r_vld", b.ar_rdy_r_vld);
  v.field("r_vld_r_rdy", b.r_vld_r_rdy);
  v.field("r_vld_r_last", b.r_vld_r_last);
}

static void fields(FieldVisitor& v, AdaptiveBudget& a) {
  v.field("enabled", a.enabled);
  v.field("cycles_per_beat", a.cycles_per_beat);
  v.field("cycles_per_ahead", a.cycles_per_ahead);
}

void fields(FieldVisitor& v, TmuConfig& c) {
  v.enumeration("variant", c.variant, Variant::kFullCounter, "TMU variant");
  v.field("max_uniq_ids", c.max_uniq_ids);
  v.field("txn_per_uniq_id", c.txn_per_uniq_id);
  v.object("budgets", c.budgets);
  v.field("tc_total_budget", c.tc_total_budget);
  v.object("adaptive", c.adaptive);
  v.field("prescaler_step", c.prescaler_step);
  v.field("sticky_bit", c.sticky_bit);
  v.field("enabled", c.enabled);
  v.field("irq_enabled", c.irq_enabled);
  v.field("reset_on_fault", c.reset_on_fault);
  v.field("max_txn_cycles", c.max_txn_cycles);
  v.field("fault_log_depth", c.fault_log_depth);
  v.field("perf_log_depth", c.perf_log_depth);
}

}  // namespace tmu

namespace soc {

static void fields(FieldVisitor& v, EthernetConfig& c) {
  v.field("tx_fifo_beats", c.tx_fifo_beats);
  v.field("drain_every", c.drain_every);
  v.field("b_latency", c.b_latency);
  v.field("r_first_latency", c.r_first_latency);
  v.field("max_outstanding", c.max_outstanding);
  v.field("mmio_size", c.mmio_size);
}

static void fields(FieldVisitor& v, LlcConfig& c) {
  v.field("num_lines", c.num_lines);
  v.field("hit_latency", c.hit_latency);
}

static void fields(FieldVisitor& v, ManagerDesc& m) {
  v.field("name", m.name);
  v.enumeration("kind", m.kind, ManagerKind::kTraceReplay, "manager kind");
  v.field("seed", m.seed);
  v.object("traffic", m.traffic);
  v.field("dma_max_burst", m.dma_max_burst);
  v.field("dma_id", m.dma_id);
  v.field("trace_path", m.trace_path);
}

static void fields(FieldVisitor& v, GuardDesc& g) {
  v.field("name", g.name);
  v.field("subordinate", g.subordinate);
  v.object("cfg", g.cfg);
  v.field("mgr_injector", g.mgr_injector);
  v.field("sub_injector", g.sub_injector);
  v.field("reset_unit", g.reset_unit);
  v.field("reset_duration", g.reset_duration);
}

static void fields(FieldVisitor& v, SubordinateDesc& s);

static void fields(FieldVisitor& v, ClusterDesc& c) {
  v.field("xbar_name", c.xbar_name);
  v.field("id_shift", c.id_shift);
  v.object("bridge", c.bridge);
  v.objects("subordinates", c.subordinates);
  v.objects("guards", c.guards);
}

static void fields(FieldVisitor& v, SubordinateDesc& s) {
  v.field("name", s.name);
  v.enumeration("kind", s.kind, SubordinateKind::kCluster, "subordinate kind");
  v.field("base", s.base);
  v.field("size", s.size);
  v.object("mem", s.mem);
  v.object("eth", s.eth);
  v.field("llc", s.llc);
  v.object("llc_cfg", s.llc_cfg);
  v.field("llc_name", s.llc_name);
  v.objects("cluster", s.cluster);
}

static void fields(FieldVisitor& v, ProbeDesc& p) {
  v.field("name", p.name);
  v.field("link", p.link);
}

static void fields(FieldVisitor& v, TraceDesc& t) {
  v.field("name", t.name);
  v.field("link", t.link);
}

static void fields(FieldVisitor& v, RecoveryDesc& r) {
  v.field("enabled", r.enabled);
  v.field("plic", r.plic);
  v.field("cpu", r.cpu);
  v.field("handler_latency", r.handler_latency);
}

static void fields(FieldVisitor& v, SocDesc& d) {
  v.field("name", d.name);
  v.field("crossbar", d.crossbar);
  v.field("xbar_name", d.xbar_name);
  v.field("id_shift", d.id_shift);
  v.enumeration("xbar_impl", d.xbar_impl, axi::XbarImpl::kMonolithic,
                "crossbar impl");
  v.enumeration("policy", d.policy, sim::sched::SchedPolicy::kEventDriven,
                "sched policy");
  v.objects("managers", d.managers);
  v.objects("subordinates", d.subordinates);
  v.objects("guards", d.guards);
  v.objects("probes", d.probes);
  v.objects("traces", d.traces);
  v.object("recovery", d.recovery);
}

/// Error prefix of every parse error, wherever in the tree it
/// originates: "SocDesc::from_json: ...".
constexpr const char* kErrPrefix = "SocDesc::from_json";

std::string SocDesc::to_json() const {
  sim::jsonemit::Emitter e;
  e.open_obj();
  e.str("schema", kSocDescSchema);
  sim::jsonio::save(e, *this);
  e.close_obj();
  std::string out = std::move(e).take();
  out += '\n';
  return out;
}

SocDesc SocDesc::from_json(const std::string& json) {
  const sim::jsonparse::Json doc = sim::jsonparse::parse(json, kErrPrefix);
  FieldVisitor v(doc, "desc", kErrPrefix);
  std::string schema;
  v.field("schema", schema);
  if (schema != kSocDescSchema && schema != kSocDescSchemaV1) {
    v.fail("schema mismatch: expected \"" + std::string(kSocDescSchema) +
           "\" (or legacy \"" + kSocDescSchemaV1 + "\"), got \"" + schema +
           "\"");
  }
  SocDesc d;
  fields(v, d);
  v.finish();
  return d;
}

namespace {

// Shared const/mutable DFS: Subs is (const) std::vector<SubordinateDesc>.
template <typename Subs, typename F>
void visit_cluster_guards(Subs& subs, F&& f) {
  for (auto& s : subs) {
    for (auto& c : s.cluster) {
      for (auto& g : c.guards) f(g);
      visit_cluster_guards(c.subordinates, f);
    }
  }
}

}  // namespace

void visit_guards(const SocDesc& d,
                  const std::function<void(const GuardDesc&)>& f) {
  for (const GuardDesc& g : d.guards) f(g);
  visit_cluster_guards(d.subordinates, f);
}

void visit_guards(SocDesc& d, const std::function<void(GuardDesc&)>& f) {
  for (GuardDesc& g : d.guards) f(g);
  visit_cluster_guards(d.subordinates, f);
}

const GuardDesc* first_guard(const SocDesc& d) {
  const GuardDesc* first = nullptr;
  visit_guards(d, [&](const GuardDesc& g) {
    if (first == nullptr) first = &g;
  });
  return first;
}

GuardDesc* first_guard(SocDesc& d) {
  return const_cast<GuardDesc*>(first_guard(std::as_const(d)));
}

std::uint64_t SocDesc::hash() const {
  // FNV-1a 64 over the canonical JSON: process-independent, so remote
  // shards and campaign reports agree on the fingerprint.
  return sim::fnv1a64(to_json());
}

}  // namespace soc
