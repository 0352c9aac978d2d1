#pragma once

#include "axi/traffic_gen.hpp"
#include "sim/jsonio.hpp"
#include "tmu/config.hpp"

/// Field lists of the config blocks that appear in more than one
/// document schema: SocDesc topologies (tmu-soc-desc-v2) embed TMU and
/// traffic configs per guard/manager, and campaign spec files
/// (tmu-campaign-spec-v1) embed the same blocks per trial. One list per
/// block, driving both emission and parsing, keeps the two schemas
/// field-compatible and equally strict. Each lives in its type's
/// namespace so FieldVisitor::object() finds it.
namespace axi {
void fields(sim::jsonio::FieldVisitor& v, RandomTrafficConfig& t);
}  // namespace axi

namespace tmu {
void fields(sim::jsonio::FieldVisitor& v, TmuConfig& c);
}  // namespace tmu
