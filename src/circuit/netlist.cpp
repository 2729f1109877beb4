#include "circuit/netlist.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vrl::circuit {

void RequireFinite(double value, const char* field) {
  if (!std::isfinite(value)) {
    throw ConfigError(std::string(field) + " must be finite");
  }
}

void RequirePositiveFinite(double value, const char* field) {
  if (!(std::isfinite(value) && value > 0.0)) {
    throw ConfigError(std::string(field) + " must be positive and finite");
  }
}

double VoltageSource::ValueAt(double t) const {
  if (waveform.empty()) {
    return 0.0;
  }
  if (t <= waveform.front().time_s) {
    return waveform.front().volts;
  }
  if (t >= waveform.back().time_s) {
    return waveform.back().volts;
  }
  for (std::size_t i = 1; i < waveform.size(); ++i) {
    if (t <= waveform[i].time_s) {
      const PwlPoint& lo = waveform[i - 1];
      const PwlPoint& hi = waveform[i];
      const double span = hi.time_s - lo.time_s;
      if (span <= 0.0) {
        return hi.volts;
      }
      const double frac = (t - lo.time_s) / span;
      return lo.volts + frac * (hi.volts - lo.volts);
    }
  }
  return waveform.back().volts;
}

Netlist::Netlist() {
  names_.push_back("0");
  ids_.emplace("0", kGround);
  ids_.emplace("gnd", kGround);
}

NodeId Netlist::Node(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const NodeId id = names_.size();
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

NodeId Netlist::NodeOrThrow(const std::string& name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) {
    throw ConfigError("Netlist: unknown node '" + name + "'");
  }
  return it->second;
}

const std::string& Netlist::NodeName(NodeId id) const {
  if (id >= names_.size()) {
    throw ConfigError("Netlist: node id out of range");
  }
  return names_[id];
}

void Netlist::AddResistor(NodeId a, NodeId b, double ohms) {
  RequirePositiveFinite(ohms, "Netlist: resistor ohms");
  resistors_.push_back({a, b, ohms});
}

void Netlist::AddCapacitor(NodeId a, NodeId b, double farads) {
  RequirePositiveFinite(farads, "Netlist: capacitor farads");
  capacitors_.push_back({a, b, farads});
}

void Netlist::AddVdc(NodeId pos, NodeId neg, double volts) {
  RequireFinite(volts, "Netlist: DC source volts");
  sources_.push_back({pos, neg, {{0.0, volts}}});
}

void Netlist::AddVpwl(NodeId pos, NodeId neg, std::vector<PwlPoint> waveform) {
  if (waveform.empty()) {
    throw ConfigError("Netlist: PWL source needs at least one breakpoint");
  }
  for (const PwlPoint& p : waveform) {
    RequireFinite(p.time_s, "Netlist: PWL breakpoint time_s");
    RequireFinite(p.volts, "Netlist: PWL breakpoint volts");
  }
  if (!std::is_sorted(waveform.begin(), waveform.end(),
                      [](const PwlPoint& x, const PwlPoint& y) {
                        return x.time_s < y.time_s;
                      })) {
    throw ConfigError("Netlist: PWL breakpoints must be time-sorted");
  }
  sources_.push_back({pos, neg, std::move(waveform)});
}

void Netlist::AddMosfet(MosType type, NodeId drain, NodeId gate, NodeId source,
                        const MosParams& params) {
  RequirePositiveFinite(params.beta, "Netlist: MOSFET beta");
  RequirePositiveFinite(params.vt, "Netlist: MOSFET vt");
  RequireFinite(params.lambda, "Netlist: MOSFET lambda");
  mosfets_.push_back({type, drain, gate, source, params});
}

void Netlist::SetInitialCondition(NodeId node, double volts) {
  CheckNode(node, "initial condition");
  RequireFinite(volts, "Netlist: initial condition volts");
  initial_conditions_[node] = volts;
}

void Netlist::CheckNode(NodeId id, const char* what) const {
  if (id >= names_.size()) {
    throw ConfigError(std::string("Netlist: ") + what +
                      " references unknown node");
  }
}

void Netlist::Validate() const {
  for (const auto& r : resistors_) {
    CheckNode(r.a, "resistor");
    CheckNode(r.b, "resistor");
  }
  for (const auto& c : capacitors_) {
    CheckNode(c.a, "capacitor");
    CheckNode(c.b, "capacitor");
  }
  for (const auto& v : sources_) {
    CheckNode(v.pos, "source");
    CheckNode(v.neg, "source");
  }
  for (const auto& m : mosfets_) {
    CheckNode(m.drain, "mosfet");
    CheckNode(m.gate, "mosfet");
    CheckNode(m.source, "mosfet");
  }
}

std::vector<PwlPoint> StepWaveform(double v0, double v1, double t_step,
                                   double rise_s) {
  return {{0.0, v0}, {t_step, v0}, {t_step + rise_s, v1}};
}

}  // namespace vrl::circuit
