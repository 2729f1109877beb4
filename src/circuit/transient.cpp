#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "circuit/banded.hpp"
#include "circuit/linear.hpp"
#include "circuit/mosfet.hpp"
#include "common/error.hpp"

namespace vrl::circuit {
namespace {

/// Shunt conductance from every unknown node to ground; keeps floating
/// subcircuits (e.g. an isolated storage node behind a cut-off access
/// transistor) well-posed.
constexpr double kGroundLeak = 1e-12;

/// Use the banded no-pivot solver only for systems that are both large and
/// narrow; small systems go through dense LU with partial pivoting.
constexpr std::size_t kBandedMinUnknowns = 64;
constexpr std::size_t kBandedMaxHalfband = 12;

constexpr std::size_t kNoUnknown = std::numeric_limits<std::size_t>::max();

void RequireIterations(int iterations, const char* field) {
  if (iterations < 1) {
    throw ConfigError(std::string(field) + " must be >= 1");
  }
}

void ValidateOptions(const TransientOptions& options) {
  RequirePositiveFinite(options.t_stop_s, "TransientOptions::t_stop_s");
  RequirePositiveFinite(options.dt_s, "TransientOptions::dt_s");
  // The step count is ceil(t_stop / dt); it must fit a std::size_t.
  if (!(options.t_stop_s / options.dt_s <
        static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw ConfigError(
        "TransientOptions::t_stop_s / dt_s is too many steps");
  }
  RequireIterations(options.max_newton_iterations,
                    "TransientOptions::max_newton_iterations");
  RequirePositiveFinite(options.v_abstol, "TransientOptions::v_abstol");
  RequirePositiveFinite(options.newton_damping,
                        "TransientOptions::newton_damping");
  if (options.store_every == 0) {
    throw ConfigError("TransientOptions::store_every must be >= 1");
  }
}

/// Where a coefficient g at (row, col) of the KCL system lands: a matrix
/// entry (`slot`), or for a pinned column a fold into the right-hand side,
/// rhs[row] -= g * v[col].  A stamp on a ground or pinned row, or on the
/// ground column, lands nowhere (slot and row both kNoUnknown).
struct Target {
  std::size_t slot = kNoUnknown;
  std::size_t row = kNoUnknown;
  NodeId col = kGround;
};

/// A resistor's pinned-column fold; its coefficient never changes.
struct Fold {
  Target target;
  double g = 0.0;
};

/// A capacitor's per-step right-hand-side work: its two cross-term folds
/// and the rows its companion current enters.
struct CapStamp {
  Target ab;  // (a, b)
  Target ba;  // (b, a)
  std::size_t ia = kNoUnknown;
  std::size_t ib = kNoUnknown;
  double geq = 0.0;  // companion conductance
};

/// A MOSFET's six linearized-stamp targets and its two current rows.
struct MosStamp {
  Target dg, dd, ds, sg, sd, ss;
  std::size_t id = kNoUnknown;
  std::size_t is = kNoUnknown;
};

/// Runs each kind of work only as often as its inputs change:
///  - at construction, the ground leak, the resistors and the capacitor
///    companion conductances are stamped into a static matrix image, and
///    every remaining stamp is resolved to a Target;
///  - per step, the right-hand-side prefix (pinned columns of R and C, and
///    the capacitor history currents) is built once;
///  - per Newton iteration, the image and the prefix are copied, only the
///    MOSFETs are stamped, and the system is solved in place.
/// Every matrix and right-hand-side entry receives the same IEEE operations
/// in the same order as a full restamp per iteration would give it.
class TransientEngine {
 public:
  TransientEngine(const Netlist& netlist, const TransientOptions& options,
                  bool dc_mode = false)
      : netlist_(netlist),
        options_(options),
        dc_mode_(dc_mode),
        node_count_(netlist.node_count()) {
    ValidateOptions(options);
    netlist.Validate();

    // Source absorption: every source must be ground-referenced so its
    // positive node can be pinned to a known voltage, eliminating both the
    // node and the branch current from the unknown vector.
    pinned_source_.assign(node_count_, kNoUnknown);
    const auto& sources = netlist.sources();
    for (std::size_t si = 0; si < sources.size(); ++si) {
      const auto& src = sources[si];
      if (src.neg != kGround) {
        throw ConfigError(
            "RunTransient: only ground-referenced voltage sources are "
            "supported");
      }
      if (src.pos == kGround) {
        throw ConfigError("RunTransient: source shorts ground to itself");
      }
      if (pinned_source_[src.pos] != kNoUnknown) {
        throw ConfigError("RunTransient: node '" +
                          netlist.NodeName(src.pos) +
                          "' is driven by two sources");
      }
      pinned_source_[src.pos] = si;
    }

    unknown_of_node_.assign(node_count_, kNoUnknown);
    for (NodeId node = 1; node < node_count_; ++node) {
      if (pinned_source_[node] == kNoUnknown) {
        unknown_of_node_[node] = unknown_count_++;
        node_of_unknown_.push_back(node);
      }
    }

    voltages_.assign(node_count_, 0.0);
    for (const auto& [node, volts] : netlist.initial_conditions()) {
      voltages_[node] = volts;
    }
    cap_currents_.assign(netlist.capacitors().size(), 0.0);

    ChooseSolver();
    StampStatic();
  }

  /// DC mode: one Newton solve with capacitors open, sources at `time_s`.
  std::vector<double> SolveOperatingPoint(double time_s) {
    PinSources(time_s);
    SolveStep(time_s, voltages_);
    return voltages_;
  }

  Waveform Run(const std::vector<std::string>& probe_nodes) {
    Waveform wave;
    std::vector<NodeId> probes;
    probes.reserve(probe_nodes.size());
    for (const auto& name : probe_nodes) {
      probes.push_back(netlist_.NodeOrThrow(name));
      wave.AddSignal(name);
    }

    std::vector<double> row(probes.size());
    const auto record = [&](double t) {
      for (std::size_t i = 0; i < probes.size(); ++i) {
        row[i] = voltages_[probes[i]];
      }
      wave.Append(t, row);
    };

    PinSources(0.0);
    record(0.0);

    const auto steps =
        static_cast<std::size_t>(std::ceil(options_.t_stop_s / options_.dt_s));
    std::vector<double> prev_voltages = voltages_;

    for (std::size_t step = 1; step <= steps; ++step) {
      const double t = static_cast<double>(step) * options_.dt_s;
      PinSources(t);
      SolveStep(t, prev_voltages);
      UpdateCapacitorCurrents(prev_voltages);
      std::copy(voltages_.begin(), voltages_.end(), prev_voltages.begin());
      if (step % options_.store_every == 0 || step == steps) {
        record(t);
      }
    }
    return wave;
  }

 private:
  /// Picks banded or dense storage.  The banded matrix gets the structural
  /// pattern of every stamp among unknowns and plans its elimination.
  void ChooseSolver() {
    std::vector<BandedMatrix::Entry> pattern;
    const auto entry = [&](NodeId row, NodeId col) {
      const std::size_t ir = unknown_of_node_[row];
      const std::size_t ic = unknown_of_node_[col];
      if (ir != kNoUnknown && ic != kNoUnknown) {
        pattern.emplace_back(ir, ic);
      }
    };
    for (const auto& r : netlist_.resistors()) {
      entry(r.a, r.b);
      entry(r.b, r.a);
    }
    // Capacitors count in DC mode too: the band they span decides the
    // solver either way.
    for (const auto& c : netlist_.capacitors()) {
      entry(c.a, c.b);
      entry(c.b, c.a);
    }
    for (const auto& m : netlist_.mosfets()) {
      entry(m.drain, m.gate);
      entry(m.drain, m.source);
      entry(m.source, m.gate);
      entry(m.source, m.drain);
    }
    std::size_t halfband = 0;
    for (const auto& [r, c] : pattern) {
      halfband = std::max(halfband, r > c ? r - c : c - r);
    }
    use_banded_ = unknown_count_ >= kBandedMinUnknowns &&
                  halfband <= kBandedMaxHalfband;
    if (use_banded_) {
      banded_ = BandedMatrix(unknown_count_, halfband, pattern);
    } else {
      dense_ = DenseMatrix(unknown_count_, unknown_count_);
    }
    rhs_.assign(unknown_count_, 0.0);
    prefix_.assign(unknown_count_, 0.0);
  }

  void PinSources(double t) {
    const auto& sources = netlist_.sources();
    for (NodeId node = 1; node < node_count_; ++node) {
      const std::size_t si = pinned_source_[node];
      if (si != kNoUnknown) {
        voltages_[node] = sources[si].ValueAt(t);
      }
    }
  }

  std::vector<double>& MatrixValues() {
    return use_banded_ ? banded_.values() : dense_.values();
  }

  Target Resolve(NodeId row, NodeId col) const {
    Target t;
    const std::size_t ir = unknown_of_node_[row];
    if (ir == kNoUnknown || col == kGround) {
      return t;  // no KCL row for ground or pinned nodes; v = 0 adds nothing
    }
    const std::size_t ic = unknown_of_node_[col];
    if (ic == kNoUnknown) {
      t.row = ir;  // pinned column: move to the right-hand side
      t.col = col;
    } else {
      t.slot = use_banded_ ? banded_.Slot(ir, ic) : ir * unknown_count_ + ic;
    }
    return t;
  }

  /// Stamps the ground leak, the resistors and the capacitor companion
  /// conductances into the image, in the order a full restamp used, and
  /// resolves the targets of every other stamp.
  void StampStatic() {
    std::vector<double>& values = MatrixValues();
    const auto add = [&](const Target& t, double g) {
      if (t.slot != kNoUnknown) {
        values[t.slot] += g;
      }
    };
    for (std::size_t u = 0; u < unknown_count_; ++u) {
      add(Resolve(node_of_unknown_[u], node_of_unknown_[u]), kGroundLeak);
    }

    for (const auto& r : netlist_.resistors()) {
      const double g = 1.0 / r.ohms;
      const Target stamps[4] = {Resolve(r.a, r.a), Resolve(r.a, r.b),
                                Resolve(r.b, r.b), Resolve(r.b, r.a)};
      const double coefs[4] = {g, -g, g, -g};
      for (int i = 0; i < 4; ++i) {
        add(stamps[i], coefs[i]);
        if (stamps[i].row != kNoUnknown) {
          resistor_folds_.push_back({stamps[i], coefs[i]});
        }
      }
    }

    if (!dc_mode_) {
      const double k =
          options_.method == Integration::kTrapezoidal ? 2.0 : 1.0;
      for (const auto& c : netlist_.capacitors()) {
        CapStamp s;
        s.geq = k * c.farads / options_.dt_s;
        s.ab = Resolve(c.a, c.b);
        s.ba = Resolve(c.b, c.a);
        add(Resolve(c.a, c.a), s.geq);
        add(s.ab, -s.geq);
        add(Resolve(c.b, c.b), s.geq);
        add(s.ba, -s.geq);
        s.ia = unknown_of_node_[c.a];
        s.ib = unknown_of_node_[c.b];
        cap_stamps_.push_back(s);
      }
    }
    image_ = values;

    for (const auto& m : netlist_.mosfets()) {
      MosStamp s;
      s.dg = Resolve(m.drain, m.gate);
      s.dd = Resolve(m.drain, m.drain);
      s.ds = Resolve(m.drain, m.source);
      s.sg = Resolve(m.source, m.gate);
      s.sd = Resolve(m.source, m.drain);
      s.ss = Resolve(m.source, m.source);
      s.id = unknown_of_node_[m.drain];
      s.is = unknown_of_node_[m.source];
      mos_stamps_.push_back(s);
    }
  }

  /// rhs[t.row] -= g * v[t.col] for a fold target.
  void FoldInto(std::vector<double>& rhs, const Target& t, double g) const {
    rhs[t.row] -= g * voltages_[t.col];
  }

  /// Builds the step's right-hand-side prefix: the pinned columns of the
  /// resistors and capacitors, and the capacitor history currents.
  void BuildPrefix(const std::vector<double>& prev) {
    std::fill(prefix_.begin(), prefix_.end(), 0.0);
    for (const Fold& f : resistor_folds_) {
      FoldInto(prefix_, f.target, f.g);
    }
    const bool trap = options_.method == Integration::kTrapezoidal;
    const auto& caps = netlist_.capacitors();
    for (std::size_t ci = 0; ci < cap_stamps_.size(); ++ci) {
      const CapStamp& s = cap_stamps_[ci];
      const double v_prev = prev[caps[ci].a] - prev[caps[ci].b];
      const double ieq = s.geq * v_prev + (trap ? cap_currents_[ci] : 0.0);
      if (s.ab.row != kNoUnknown) {
        FoldInto(prefix_, s.ab, -s.geq);
      }
      if (s.ba.row != kNoUnknown) {
        FoldInto(prefix_, s.ba, -s.geq);
      }
      if (s.ia != kNoUnknown) {
        prefix_[s.ia] += ieq;
      }
      if (s.ib != kNoUnknown) {
        prefix_[s.ib] += -ieq;
      }
    }
  }

  void SolveStep(double t, const std::vector<double>& prev) {
    BuildPrefix(prev);
    std::vector<double>& values = MatrixValues();
    const auto stamp = [&](const Target& target, double g) {
      if (target.slot != kNoUnknown) {
        values[target.slot] += g;
      } else if (target.row != kNoUnknown) {
        FoldInto(rhs_, target, g);
      }
    };
    const auto& mosfets = netlist_.mosfets();

    for (int iteration = 0; iteration < options_.max_newton_iterations;
         ++iteration) {
      std::copy(image_.begin(), image_.end(), values.begin());
      std::copy(prefix_.begin(), prefix_.end(), rhs_.begin());

      for (std::size_t mi = 0; mi < mosfets.size(); ++mi) {
        const Mosfet& m = mosfets[mi];
        const MosStamp& s = mos_stamps_[mi];
        const double vd = voltages_[m.drain];
        const double vg = voltages_[m.gate];
        const double vs = voltages_[m.source];
        const MosEval eval = EvaluateMosfet(m, vd, vg, vs);
        // Linearized about the current iterate:
        //   i_ds = ieq + gm*(vg - vs) + gds*(vd - vs)
        const double ieq =
            eval.ids - eval.gm * (vg - vs) - eval.gds * (vd - vs);
        // KCL at drain: i_ds leaves the drain node.
        stamp(s.dg, eval.gm);
        stamp(s.dd, eval.gds);
        stamp(s.ds, -(eval.gm + eval.gds));
        if (s.id != kNoUnknown) {
          rhs_[s.id] += -ieq;
        }
        // KCL at source: i_ds enters the source node.
        stamp(s.sg, -eval.gm);
        stamp(s.sd, -eval.gds);
        stamp(s.ss, eval.gm + eval.gds);
        if (s.is != kNoUnknown) {
          rhs_[s.is] += ieq;
        }
      }

      if (use_banded_) {
        banded_.SolveInPlace(rhs_);
      } else {
        SolveInPlace(dense_, rhs_);
      }

      // Damped Newton update on the unknown node voltages.
      double max_delta = 0.0;
      for (std::size_t u = 0; u < unknown_count_; ++u) {
        const NodeId node = node_of_unknown_[u];
        double delta = rhs_[u] - voltages_[node];
        max_delta = std::max(max_delta, std::abs(delta));
        delta = std::clamp(delta, -options_.newton_damping,
                           options_.newton_damping);
        voltages_[node] += delta;
      }

      if (max_delta < options_.v_abstol) {
        return;
      }
    }
    throw NumericalError("RunTransient: Newton failed to converge at t=" +
                         std::to_string(t));
  }

  void UpdateCapacitorCurrents(const std::vector<double>& prev) {
    if (options_.method != Integration::kTrapezoidal) {
      return;
    }
    const auto& caps = netlist_.capacitors();
    for (std::size_t ci = 0; ci < caps.size(); ++ci) {
      const auto& c = caps[ci];
      const double geq = cap_stamps_[ci].geq;
      const double v_now = voltages_[c.a] - voltages_[c.b];
      const double v_prev = prev[c.a] - prev[c.b];
      cap_currents_[ci] = geq * (v_now - v_prev) - cap_currents_[ci];
    }
  }

  const Netlist& netlist_;
  const TransientOptions& options_;
  bool dc_mode_;
  std::size_t node_count_;
  std::size_t unknown_count_ = 0;
  std::vector<std::size_t> pinned_source_;   // node -> source idx or kNoUnknown
  std::vector<std::size_t> unknown_of_node_; // node -> unknown idx or kNoUnknown
  std::vector<NodeId> node_of_unknown_;      // ascending node order
  bool use_banded_ = false;
  DenseMatrix dense_;
  BandedMatrix banded_{0, 0};
  std::vector<double> image_;   // leak + R + C companion stamps
  std::vector<Fold> resistor_folds_;
  std::vector<CapStamp> cap_stamps_;  // empty in DC mode
  std::vector<MosStamp> mos_stamps_;
  std::vector<double> prefix_;  // this step's R/C right-hand side
  std::vector<double> rhs_;     // right-hand side, then the solution
  std::vector<double> voltages_;
  std::vector<double> cap_currents_;
};

}  // namespace

Waveform RunTransient(const Netlist& netlist, const TransientOptions& options,
                      const std::vector<std::string>& probe_nodes) {
  TransientEngine engine(netlist, options);
  return engine.Run(probe_nodes);
}

std::vector<double> SolveDc(const Netlist& netlist, const DcOptions& options) {
  RequireFinite(options.time_s, "DcOptions::time_s");
  RequireIterations(options.max_newton_iterations,
                    "DcOptions::max_newton_iterations");
  RequirePositiveFinite(options.v_abstol, "DcOptions::v_abstol");
  RequirePositiveFinite(options.newton_damping, "DcOptions::newton_damping");
  TransientOptions engine_options;
  engine_options.t_stop_s = 1.0;  // unused in DC mode beyond validation
  engine_options.dt_s = 1.0;
  engine_options.max_newton_iterations = options.max_newton_iterations;
  engine_options.v_abstol = options.v_abstol;
  engine_options.newton_damping = options.newton_damping;
  TransientEngine engine(netlist, engine_options, /*dc_mode=*/true);
  return engine.SolveOperatingPoint(options.time_s);
}

}  // namespace vrl::circuit
