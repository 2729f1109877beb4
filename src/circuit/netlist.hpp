#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file netlist.hpp
/// Circuit description for the SPICE-substitute transient engine.
///
/// A Netlist is a flat bag of devices over named nodes.  Node 0 is ground.
/// Supported devices: resistor, capacitor (with optional initial voltage),
/// independent voltage source with a piecewise-linear waveform, and level-1
/// (Shichman–Hodges) MOSFETs.  That device set is sufficient for all three
/// circuits of the paper's Fig. 2: the equalization circuit, the
/// charge-sharing bitline array with parasitics, and the latch-type sense
/// amplifier.

namespace vrl::circuit {

/// Index of a circuit node; 0 is always ground.
using NodeId = std::size_t;

inline constexpr NodeId kGround = 0;

enum class MosType { kNmos, kPmos };

/// Level-1 MOSFET parameters.
struct MosParams {
  double vt = 0.4;      ///< Threshold magnitude [V].
  double beta = 1e-3;   ///< Device transconductance kp*(W/L) [A/V^2].
  double lambda = 0.0;  ///< Channel-length modulation [1/V].
};

struct Resistor {
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 1.0;
};

struct Capacitor {
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 1e-15;
};

/// A (time, volts) breakpoint of a PWL source.
struct PwlPoint {
  double time_s = 0.0;
  double volts = 0.0;
};

/// Independent voltage source between pos and neg with a piecewise-linear
/// waveform; holds the last value after the final breakpoint.
struct VoltageSource {
  NodeId pos = kGround;
  NodeId neg = kGround;
  std::vector<PwlPoint> waveform;

  /// Value at time t (clamped interpolation over breakpoints).
  double ValueAt(double t) const;
};

struct Mosfet {
  MosType type = MosType::kNmos;
  NodeId drain = kGround;
  NodeId gate = kGround;
  NodeId source = kGround;
  MosParams params;
};

/// Builder/owner of a circuit description.
class Netlist {
 public:
  Netlist();

  /// Returns the node with this name, creating it on first use.  The name
  /// "0" (and "gnd") maps to ground.
  NodeId Node(const std::string& name);

  /// Looks up an existing node. \throws vrl::ConfigError if unknown.
  NodeId NodeOrThrow(const std::string& name) const;

  /// Name of a node id (for diagnostics and probes).
  const std::string& NodeName(NodeId id) const;

  /// Device values, breakpoints and initial conditions must be finite, and
  /// ohms, farads, beta and vt positive.  \throws vrl::ConfigError naming
  /// the field otherwise; a rejected call adds nothing.
  void AddResistor(NodeId a, NodeId b, double ohms);
  /// Adds a capacitor.  Its initial charge state follows the nodes' initial
  /// conditions (SetInitialCondition), not a per-device value.
  void AddCapacitor(NodeId a, NodeId b, double farads);
  /// DC source: constant value for all time.
  void AddVdc(NodeId pos, NodeId neg, double volts);
  void AddVpwl(NodeId pos, NodeId neg, std::vector<PwlPoint> waveform);
  void AddMosfet(MosType type, NodeId drain, NodeId gate, NodeId source,
                 const MosParams& params);

  /// Sets the initial (t=0) voltage of a node for transient analysis.
  /// Nodes without an explicit initial condition start at 0 V unless driven
  /// by a source.
  void SetInitialCondition(NodeId node, double volts);

  /// Number of nodes including ground.
  std::size_t node_count() const { return names_.size(); }

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VoltageSource>& sources() const { return sources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }
  const std::unordered_map<NodeId, double>& initial_conditions() const {
    return initial_conditions_;
  }

  /// Basic sanity checks (device terminals reference existing nodes, values
  /// positive).  \throws vrl::ConfigError on violation.
  void Validate() const;

 private:
  void CheckNode(NodeId id, const char* what) const;

  std::vector<std::string> names_;  // names_[id] = node name
  std::unordered_map<std::string, NodeId> ids_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VoltageSource> sources_;
  std::vector<Mosfet> mosfets_;
  std::unordered_map<NodeId, double> initial_conditions_;
};

/// Input checks shared by the netlist and the transient engine.
/// \throws vrl::ConfigError "<field> must be finite" unless `value` is.
void RequireFinite(double value, const char* field);
/// \throws vrl::ConfigError "<field> must be positive and finite" unless
/// `value` is.
void RequirePositiveFinite(double value, const char* field);

/// Helper: a step waveform that is `v0` before `t_step` and `v1` after, with
/// a linear ramp of `rise_s` seconds.
std::vector<PwlPoint> StepWaveform(double v0, double v1, double t_step,
                                   double rise_s);

}  // namespace vrl::circuit
