// SocDesc JSON round-trip (schema tmu-soc-desc-v2) and topology hash.
//
// The emitter writes every field in a fixed order, so the document is
// canonical: equal descs serialize byte-identically and hash() — FNV-1a
// over the document — is a stable cross-process topology fingerprint
// covering the whole cluster tree. Parsing rides the shared strict
// reader in sim/jsonparse.hpp; it rejects unknown keys (typos in
// hand-written topologies should fail loudly, not silently fall back to
// defaults) and reports the offending key in every error. Legacy v1
// documents (flat, no bridges/banks) parse unchanged: the keys later
// schema revisions added are optional with flat defaults.

#include "soc/desc.hpp"

#include <cinttypes>
#include <stdexcept>
#include <utility>

#include "sim/bytes.hpp"
#include "sim/jsonemit.hpp"
#include "sim/jsonfmt.hpp"
#include "sim/jsonparse.hpp"
#include "soc/desc_serde.hpp"

namespace soc {

// The traffic/TMU config blocks are shared with the campaign spec
// schema, so their serde lives in soc::serde (desc_serde.hpp); the
// canonical Emitter itself moved to sim/jsonemit.hpp for the same
// reason. Emission and parsing of everything desc-specific stays here.
namespace serde {

using sim::jsonemit::Emitter;

void emit_traffic(Emitter& e, const char* k,
                  const axi::RandomTrafficConfig& t) {
  e.open_obj(k);
  e.boolean("enabled", t.enabled);
  e.dbl("p_new_txn", t.p_new_txn);
  e.dbl("write_fraction", t.write_fraction);
  e.u64("max_outstanding", t.max_outstanding);
  e.u64("id_min", t.id_min);
  e.u64("id_max", t.id_max);
  e.u64("addr_min", t.addr_min);
  e.u64("addr_max", t.addr_max);
  e.u64("len_min", t.len_min);
  e.u64("len_max", t.len_max);
  e.u64("size", t.size);
  e.close_obj();
}

void emit_tmu(Emitter& e, const char* k, const tmu::TmuConfig& c) {
  e.open_obj(k);
  e.str("variant", to_string(c.variant));
  e.u64("max_uniq_ids", c.max_uniq_ids);
  e.u64("txn_per_uniq_id", c.txn_per_uniq_id);
  e.open_obj("budgets");
  e.u64("aw_vld_aw_rdy", c.budgets.aw_vld_aw_rdy);
  e.u64("aw_rdy_w_vld", c.budgets.aw_rdy_w_vld);
  e.u64("w_vld_w_rdy", c.budgets.w_vld_w_rdy);
  e.u64("w_first_w_last", c.budgets.w_first_w_last);
  e.u64("w_last_b_vld", c.budgets.w_last_b_vld);
  e.u64("b_vld_b_rdy", c.budgets.b_vld_b_rdy);
  e.u64("ar_vld_ar_rdy", c.budgets.ar_vld_ar_rdy);
  e.u64("ar_rdy_r_vld", c.budgets.ar_rdy_r_vld);
  e.u64("r_vld_r_rdy", c.budgets.r_vld_r_rdy);
  e.u64("r_vld_r_last", c.budgets.r_vld_r_last);
  e.close_obj();
  e.u64("tc_total_budget", c.tc_total_budget);
  e.open_obj("adaptive");
  e.boolean("enabled", c.adaptive.enabled);
  e.u64("cycles_per_beat", c.adaptive.cycles_per_beat);
  e.u64("cycles_per_ahead", c.adaptive.cycles_per_ahead);
  e.close_obj();
  e.u64("prescaler_step", c.prescaler_step);
  e.boolean("sticky_bit", c.sticky_bit);
  e.boolean("enabled", c.enabled);
  e.boolean("irq_enabled", c.irq_enabled);
  e.boolean("reset_on_fault", c.reset_on_fault);
  e.u64("max_txn_cycles", c.max_txn_cycles);
  e.u64("fault_log_depth", c.fault_log_depth);
  e.u64("perf_log_depth", c.perf_log_depth);
  e.close_obj();
}

void parse_traffic(const sim::jsonparse::Json& v, const std::string& where,
                   const std::string& error_prefix,
                   axi::RandomTrafficConfig& t) {
  sim::jsonparse::ObjReader r(v, where, error_prefix);
  r.get("enabled", t.enabled);
  r.get("p_new_txn", t.p_new_txn);
  r.get("write_fraction", t.write_fraction);
  r.get_u("max_outstanding", t.max_outstanding);
  r.get_u("id_min", t.id_min);
  r.get_u("id_max", t.id_max);
  r.get_u("addr_min", t.addr_min);
  r.get_u("addr_max", t.addr_max);
  r.get_u("len_min", t.len_min);
  r.get_u("len_max", t.len_max);
  r.get_u("size", t.size);
  r.finish();
}

void parse_tmu(const sim::jsonparse::Json& v, const std::string& where,
               const std::string& error_prefix, tmu::TmuConfig& c) {
  sim::jsonparse::ObjReader r(v, where, error_prefix);
  std::string variant = to_string(c.variant);
  r.get("variant", variant);
  if (variant == "Tc") {
    c.variant = tmu::Variant::kTinyCounter;
  } else if (variant == "Fc") {
    c.variant = tmu::Variant::kFullCounter;
  } else {
    r.fail(where + ".variant: unknown TMU variant \"" + variant + "\"");
  }
  r.get_u("max_uniq_ids", c.max_uniq_ids);
  r.get_u("txn_per_uniq_id", c.txn_per_uniq_id);
  if (const sim::jsonparse::Json* b = r.take("budgets")) {
    sim::jsonparse::ObjReader rb(*b, where + ".budgets", error_prefix);
    rb.get_u("aw_vld_aw_rdy", c.budgets.aw_vld_aw_rdy);
    rb.get_u("aw_rdy_w_vld", c.budgets.aw_rdy_w_vld);
    rb.get_u("w_vld_w_rdy", c.budgets.w_vld_w_rdy);
    rb.get_u("w_first_w_last", c.budgets.w_first_w_last);
    rb.get_u("w_last_b_vld", c.budgets.w_last_b_vld);
    rb.get_u("b_vld_b_rdy", c.budgets.b_vld_b_rdy);
    rb.get_u("ar_vld_ar_rdy", c.budgets.ar_vld_ar_rdy);
    rb.get_u("ar_rdy_r_vld", c.budgets.ar_rdy_r_vld);
    rb.get_u("r_vld_r_rdy", c.budgets.r_vld_r_rdy);
    rb.get_u("r_vld_r_last", c.budgets.r_vld_r_last);
    rb.finish();
  }
  r.get_u("tc_total_budget", c.tc_total_budget);
  if (const sim::jsonparse::Json* a = r.take("adaptive")) {
    sim::jsonparse::ObjReader ra(*a, where + ".adaptive", error_prefix);
    ra.get("enabled", c.adaptive.enabled);
    ra.get_u("cycles_per_beat", c.adaptive.cycles_per_beat);
    ra.get_u("cycles_per_ahead", c.adaptive.cycles_per_ahead);
    ra.finish();
  }
  r.get_u("prescaler_step", c.prescaler_step);
  r.get("sticky_bit", c.sticky_bit);
  r.get("enabled", c.enabled);
  r.get("irq_enabled", c.irq_enabled);
  r.get("reset_on_fault", c.reset_on_fault);
  r.get_u("max_txn_cycles", c.max_txn_cycles);
  r.get_u("fault_log_depth", c.fault_log_depth);
  r.get_u("perf_log_depth", c.perf_log_depth);
  r.finish();
}

}  // namespace serde

namespace {

using serde::emit_tmu;
using serde::emit_traffic;
using sim::jsonemit::Emitter;
using sim::jsonfmt::append_f;
using sim::jsonfmt::json_escape;

void emit_mem(Emitter& e, const char* k, const axi::MemoryConfig& m) {
  e.open_obj(k);
  e.u64("aw_accept_latency", m.aw_accept_latency);
  e.u64("ar_accept_latency", m.ar_accept_latency);
  e.u64("w_ready_every", m.w_ready_every);
  e.u64("b_latency", m.b_latency);
  e.u64("r_first_latency", m.r_first_latency);
  e.u64("r_beat_every", m.r_beat_every);
  e.u64("max_outstanding", m.max_outstanding);
  e.u64("error_base", m.error_base);
  e.u64("error_end", m.error_end);
  e.open_obj("bank");
  e.boolean("enabled", m.bank.enabled);
  e.u64("num_banks", m.bank.num_banks);
  e.u64("col_bits", m.bank.col_bits);
  e.boolean("open_page", m.bank.open_page);
  e.u64("t_hit", m.bank.t_hit);
  e.u64("t_miss", m.bank.t_miss);
  e.u64("t_conflict", m.bank.t_conflict);
  e.close_obj();
  e.close_obj();
}

void emit_bridge(Emitter& e, const char* k, const axi::BridgeConfig& b) {
  e.open_obj(k);
  e.u64("req_latency", b.req_latency);
  e.u64("rsp_latency", b.rsp_latency);
  e.boolean("id_remap", b.id_remap);
  e.u64("max_ids", b.max_ids);
  e.u64("fifo_depth", b.fifo_depth);
  e.close_obj();
}

void emit_eth(Emitter& e, const char* k, const EthernetConfig& c) {
  e.open_obj(k);
  e.u64("tx_fifo_beats", c.tx_fifo_beats);
  e.u64("drain_every", c.drain_every);
  e.u64("b_latency", c.b_latency);
  e.u64("r_first_latency", c.r_first_latency);
  e.u64("max_outstanding", c.max_outstanding);
  e.u64("mmio_size", c.mmio_size);
  e.close_obj();
}

void emit_guard(Emitter& e, const GuardDesc& g) {
  e.open_obj();
  e.str("name", g.name);
  e.str("subordinate", g.subordinate);
  emit_tmu(e, "cfg", g.cfg);
  e.str("mgr_injector", g.mgr_injector);
  e.str("sub_injector", g.sub_injector);
  e.str("reset_unit", g.reset_unit);
  e.u64("reset_duration", g.reset_duration);
  e.close_obj();
}

void emit_sub(Emitter& e, const SubordinateDesc& s);

void emit_cluster(Emitter& e, const ClusterDesc& c) {
  e.open_obj();
  e.str("xbar_name", c.xbar_name);
  e.u64("id_shift", c.id_shift);
  emit_bridge(e, "bridge", c.bridge);
  e.open_arr("subordinates");
  for (const SubordinateDesc& s : c.subordinates) emit_sub(e, s);
  e.close_arr();
  e.open_arr("guards");
  for (const GuardDesc& g : c.guards) emit_guard(e, g);
  e.close_arr();
  e.close_obj();
}

void emit_sub(Emitter& e, const SubordinateDesc& s) {
  e.open_obj();
  e.str("name", s.name);
  e.str("kind", to_string(s.kind));
  e.u64("base", s.base);
  e.u64("size", s.size);
  emit_mem(e, "mem", s.mem);
  emit_eth(e, "eth", s.eth);
  e.boolean("llc", s.llc);
  e.open_obj("llc_cfg");
  e.u64("num_lines", s.llc_cfg.num_lines);
  e.u64("hit_latency", s.llc_cfg.hit_latency);
  e.close_obj();
  e.str("llc_name", s.llc_name);
  e.open_arr("cluster");
  for (const ClusterDesc& c : s.cluster) emit_cluster(e, c);
  e.close_arr();
  e.close_obj();
}

// ------------------------------------------------------------------
// Parsing
// ------------------------------------------------------------------

using Json = sim::jsonparse::Json;

/// Error prefix threaded through the shared reader, so every parse
/// error — wherever it originates — reads "SocDesc::from_json: ...".
constexpr const char* kErrPrefix = "SocDesc::from_json";

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument(std::string(kErrPrefix) + ": " + what);
}

/// The shared strict reader bound to this module's error prefix.
class ObjReader : public sim::jsonparse::ObjReader {
 public:
  ObjReader(const Json& v, std::string where)
      : sim::jsonparse::ObjReader(v, std::move(where), kErrPrefix) {}
};

void parse_mem(const Json& v, const std::string& where, axi::MemoryConfig& m) {
  ObjReader r(v, where);
  r.get_u("aw_accept_latency", m.aw_accept_latency);
  r.get_u("ar_accept_latency", m.ar_accept_latency);
  r.get_u("w_ready_every", m.w_ready_every);
  r.get_u("b_latency", m.b_latency);
  r.get_u("r_first_latency", m.r_first_latency);
  r.get_u("r_beat_every", m.r_beat_every);
  r.get_u("max_outstanding", m.max_outstanding);
  r.get_u("error_base", m.error_base);
  r.get_u("error_end", m.error_end);
  if (const Json* b = r.take("bank")) {
    ObjReader rb(*b, where + ".bank");
    rb.get("enabled", m.bank.enabled);
    rb.get_u("num_banks", m.bank.num_banks);
    rb.get_u("col_bits", m.bank.col_bits);
    rb.get("open_page", m.bank.open_page);
    rb.get_u("t_hit", m.bank.t_hit);
    rb.get_u("t_miss", m.bank.t_miss);
    rb.get_u("t_conflict", m.bank.t_conflict);
    rb.finish();
  }
  r.finish();
}

void parse_bridge(const Json& v, const std::string& where,
                  axi::BridgeConfig& b) {
  ObjReader r(v, where);
  r.get_u("req_latency", b.req_latency);
  r.get_u("rsp_latency", b.rsp_latency);
  r.get("id_remap", b.id_remap);
  r.get_u("max_ids", b.max_ids);
  r.get_u("fifo_depth", b.fifo_depth);
  r.finish();
}

void parse_eth(const Json& v, const std::string& where, EthernetConfig& c) {
  ObjReader r(v, where);
  r.get_u("tx_fifo_beats", c.tx_fifo_beats);
  r.get_u("drain_every", c.drain_every);
  r.get_u("b_latency", c.b_latency);
  r.get_u("r_first_latency", c.r_first_latency);
  r.get_u("max_outstanding", c.max_outstanding);
  r.get_u("mmio_size", c.mmio_size);
  r.finish();
}

GuardDesc parse_guard(const Json& v, const std::string& where) {
  GuardDesc g;
  ObjReader rg(v, where);
  rg.get("name", g.name);
  rg.get("subordinate", g.subordinate);
  if (const Json* c = rg.take("cfg")) {
    serde::parse_tmu(*c, where + ".cfg", kErrPrefix, g.cfg);
  }
  rg.get("mgr_injector", g.mgr_injector);
  rg.get("sub_injector", g.sub_injector);
  rg.get("reset_unit", g.reset_unit);
  rg.get_u("reset_duration", g.reset_duration);
  rg.finish();
  return g;
}

SubordinateDesc parse_sub(const Json& v, const std::string& where);

ClusterDesc parse_cluster(const Json& v, const std::string& where) {
  ClusterDesc c;
  ObjReader r(v, where);
  r.get("xbar_name", c.xbar_name);
  r.get_u("id_shift", c.id_shift);
  if (const Json* b = r.take("bridge")) {
    parse_bridge(*b, where + ".bridge", c.bridge);
  }
  if (const Json* arr = r.take("subordinates")) {
    if (arr->kind != Json::Kind::kArray) {
      fail(where + ".subordinates must be an array");
    }
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      c.subordinates.push_back(parse_sub(
          arr->arr[i], where + ".subordinates[" + std::to_string(i) + "]"));
    }
  }
  if (const Json* arr = r.take("guards")) {
    if (arr->kind != Json::Kind::kArray) fail(where + ".guards must be an array");
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      c.guards.push_back(parse_guard(
          arr->arr[i], where + ".guards[" + std::to_string(i) + "]"));
    }
  }
  r.finish();
  return c;
}

SubordinateDesc parse_sub(const Json& v, const std::string& where) {
  SubordinateDesc s;
  ObjReader rs(v, where);
  rs.get("name", s.name);
  std::string kind = to_string(s.kind);
  rs.get("kind", kind);
  if (kind == "memory") {
    s.kind = SubordinateKind::kMemory;
  } else if (kind == "ethernet") {
    s.kind = SubordinateKind::kEthernet;
  } else if (kind == "cluster") {
    s.kind = SubordinateKind::kCluster;
  } else {
    fail(where + ".kind: unknown subordinate kind \"" + kind + "\"");
  }
  rs.get_u("base", s.base);
  rs.get_u("size", s.size);
  if (const Json* m = rs.take("mem")) parse_mem(*m, where + ".mem", s.mem);
  if (const Json* c = rs.take("eth")) parse_eth(*c, where + ".eth", s.eth);
  rs.get("llc", s.llc);
  if (const Json* l = rs.take("llc_cfg")) {
    ObjReader rl(*l, where + ".llc_cfg");
    rl.get_u("num_lines", s.llc_cfg.num_lines);
    rl.get_u("hit_latency", s.llc_cfg.hit_latency);
    rl.finish();
  }
  rs.get("llc_name", s.llc_name);
  if (const Json* arr = rs.take("cluster")) {
    if (arr->kind != Json::Kind::kArray) fail(where + ".cluster must be an array");
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      s.cluster.push_back(parse_cluster(
          arr->arr[i], where + ".cluster[" + std::to_string(i) + "]"));
    }
  }
  rs.finish();
  return s;
}

}  // namespace

std::string SocDesc::to_json() const {
  Emitter e;
  e.open_obj();
  e.str("schema", kSocDescSchema);
  e.str("name", name);
  e.boolean("crossbar", crossbar);
  e.str("xbar_name", xbar_name);
  e.u64("id_shift", id_shift);
  e.str("xbar_impl", axi::to_string(xbar_impl));
  e.str("policy", sim::sched::to_string(policy));
  e.open_arr("managers");
  for (const ManagerDesc& m : managers) {
    e.open_obj();
    e.str("name", m.name);
    e.str("kind", to_string(m.kind));
    e.u64("seed", m.seed);
    emit_traffic(e, "traffic", m.traffic);
    e.u64("dma_max_burst", m.dma_max_burst);
    e.u64("dma_id", m.dma_id);
    e.str("trace_path", m.trace_path);
    e.close_obj();
  }
  e.close_arr();
  e.open_arr("subordinates");
  for (const SubordinateDesc& s : subordinates) emit_sub(e, s);
  e.close_arr();
  e.open_arr("guards");
  for (const GuardDesc& g : guards) emit_guard(e, g);
  e.close_arr();
  e.open_arr("probes");
  for (const ProbeDesc& p : probes) {
    e.open_obj();
    e.str("name", p.name);
    e.str("link", p.link);
    e.close_obj();
  }
  e.close_arr();
  e.open_arr("traces");
  for (const TraceDesc& t : traces) {
    e.open_obj();
    e.str("name", t.name);
    e.str("link", t.link);
    e.close_obj();
  }
  e.close_arr();
  e.open_obj("recovery");
  e.boolean("enabled", recovery.enabled);
  e.str("plic", recovery.plic);
  e.str("cpu", recovery.cpu);
  e.u64("handler_latency", recovery.handler_latency);
  e.close_obj();
  e.close_obj();
  std::string out = std::move(e).take();
  out += '\n';
  return out;
}

SocDesc SocDesc::from_json(const std::string& json) {
  const Json doc = sim::jsonparse::parse(json, kErrPrefix);
  SocDesc d;
  ObjReader r(doc, "desc");

  std::string schema;
  r.get("schema", schema);
  if (schema != kSocDescSchema && schema != kSocDescSchemaV1) {
    fail("schema mismatch: expected \"" + std::string(kSocDescSchema) +
         "\" (or legacy \"" + kSocDescSchemaV1 + "\"), got \"" + schema +
         "\"");
  }
  r.get("name", d.name);
  r.get("crossbar", d.crossbar);
  r.get("xbar_name", d.xbar_name);
  r.get_u("id_shift", d.id_shift);
  std::string impl = axi::to_string(d.xbar_impl);
  r.get("xbar_impl", impl);
  if (impl == "sharded") {
    d.xbar_impl = axi::XbarImpl::kSharded;
  } else if (impl == "monolithic") {
    d.xbar_impl = axi::XbarImpl::kMonolithic;
  } else {
    fail("desc.xbar_impl: unknown crossbar impl \"" + impl + "\"");
  }
  std::string policy = sim::sched::to_string(d.policy);
  r.get("policy", policy);
  if (policy == "event_driven") {
    d.policy = sim::sched::SchedPolicy::kEventDriven;
  } else if (policy == "full_sweep") {
    d.policy = sim::sched::SchedPolicy::kFullSweep;
  } else {
    fail("desc.policy: unknown sched policy \"" + policy + "\"");
  }

  if (const Json* arr = r.take("managers")) {
    if (arr->kind != Json::Kind::kArray) fail("desc.managers must be an array");
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      const std::string where = "desc.managers[" + std::to_string(i) + "]";
      ManagerDesc m;
      ObjReader rm(arr->arr[i], where);
      rm.get("name", m.name);
      std::string kind = to_string(m.kind);
      rm.get("kind", kind);
      if (kind == "traffic_gen") {
        m.kind = ManagerKind::kTrafficGen;
      } else if (kind == "dma_engine") {
        m.kind = ManagerKind::kDmaEngine;
      } else if (kind == "trace_replay") {
        m.kind = ManagerKind::kTraceReplay;
      } else {
        fail(where + ".kind: unknown manager kind \"" + kind + "\"");
      }
      rm.get_u("seed", m.seed);
      if (const Json* t = rm.take("traffic")) {
        serde::parse_traffic(*t, where + ".traffic", kErrPrefix, m.traffic);
      }
      rm.get_u("dma_max_burst", m.dma_max_burst);
      rm.get_u("dma_id", m.dma_id);
      rm.get("trace_path", m.trace_path);
      rm.finish();
      d.managers.push_back(std::move(m));
    }
  }

  if (const Json* arr = r.take("subordinates")) {
    if (arr->kind != Json::Kind::kArray) {
      fail("desc.subordinates must be an array");
    }
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      d.subordinates.push_back(parse_sub(
          arr->arr[i], "desc.subordinates[" + std::to_string(i) + "]"));
    }
  }

  if (const Json* arr = r.take("guards")) {
    if (arr->kind != Json::Kind::kArray) fail("desc.guards must be an array");
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      d.guards.push_back(
          parse_guard(arr->arr[i], "desc.guards[" + std::to_string(i) + "]"));
    }
  }

  if (const Json* arr = r.take("probes")) {
    if (arr->kind != Json::Kind::kArray) fail("desc.probes must be an array");
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      const std::string where = "desc.probes[" + std::to_string(i) + "]";
      ProbeDesc p;
      ObjReader rp(arr->arr[i], where);
      rp.get("name", p.name);
      rp.get("link", p.link);
      rp.finish();
      d.probes.push_back(std::move(p));
    }
  }

  if (const Json* arr = r.take("traces")) {
    if (arr->kind != Json::Kind::kArray) fail("desc.traces must be an array");
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      const std::string where = "desc.traces[" + std::to_string(i) + "]";
      TraceDesc t;
      ObjReader rt(arr->arr[i], where);
      rt.get("name", t.name);
      rt.get("link", t.link);
      rt.finish();
      d.traces.push_back(std::move(t));
    }
  }

  if (const Json* rec = r.take("recovery")) {
    ObjReader rr(*rec, "desc.recovery");
    rr.get("enabled", d.recovery.enabled);
    rr.get("plic", d.recovery.plic);
    rr.get("cpu", d.recovery.cpu);
    rr.get_u("handler_latency", d.recovery.handler_latency);
    rr.finish();
  }

  r.finish();
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
