#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/scheduler.hpp"

/// \file policy_registry.hpp
/// The single name <-> factory <-> description table for every refresh
/// policy the library ships.  Flag parsers (benches, examples, CI drivers)
/// resolve user-supplied policy names here, so "unknown policy" errors list
/// the same set of names everywhere and a newly registered policy shows up
/// in every tool at once.  A registry name is the only policy identifier
/// the library has: core, runtime, benches and examples all take it, and
/// write out the canonical PolicyInfo::name.  The scheduler name table
/// (SchedulerEntries) lives here too, so the two flag vocabularies are
/// maintained side by side.

namespace vrl::dram {

/// Everything a registry builder may consult.  Drivers fill in what they
/// have; each builder validates the fields it actually needs and throws
/// vrl::ConfigError naming the missing one.
struct PolicyBuildContext {
  std::size_t rows = 0;       ///< Rows per bank (JEDEC/DARP/SARP schedules).
  Cycles base_window = 0;     ///< Base refresh window (t_refw).
  Cycles t_refi = 0;          ///< Refresh tick interval (defer-window default).
  Cycles trfc_full = 0;       ///< Full-restore refresh latency.
  Cycles trfc_partial = 0;    ///< Partial-restore refresh latency (VRL).
  /// Proposal defer window for the scheduler-coupled policies; 0 uses
  /// DeferWindowOrDefault() (8 x tREFI — a JEDEC-flavoured bound: DDR
  /// standards allow postponing up to 8 REF commands).
  Cycles defer_window = 0;
  RowRefreshPlan binned_plan;  ///< RAIDR plan (periods only, no MPRSF).
  RowRefreshPlan vrl_plan;     ///< VRL plan (periods + MPRSF ladder).

  Cycles DeferWindowOrDefault() const {
    return defer_window != 0 ? defer_window : 8 * t_refi;
  }
};

/// Which retention-aware row plan a policy's builder consumes.
enum class RowPlanKind {
  kNone,    ///< None: every row each base window (JEDEC, DARP, SARP).
  kBinned,  ///< Binned periods, no MPRSF (RAIDR): binned_plan.
  kMprsf,   ///< Binned periods plus MPRSF (the VRL family): vrl_plan.
};

/// One registered policy: canonical display name, a one-line description
/// (help text), the row plan its builder requires, and the factory building
/// a fresh per-bank instance.
struct PolicyInfo {
  std::string name;
  std::string description;
  RowPlanKind plan;
  std::function<std::unique_ptr<RefreshPolicy>(const PolicyBuildContext&)>
      make;
};

/// Canonical matching token of policy and timing-preset names: lower-cased
/// with '-' and '_' dropped, so "VRL-Access", "vrl_access" and "vrlaccess"
/// all resolve identically.
std::string CanonicalPolicyToken(std::string_view name);

class PolicyRegistry {
 public:
  /// The process-wide registry of shipped policies (JEDEC, RAIDR, VRL,
  /// VRL-Access, VRL-Skip, DARP, SARP).
  static const PolicyRegistry& Global();

  /// Lookup by name (canonicalized); nullptr when unknown.
  const PolicyInfo* Find(std::string_view name) const;

  /// Lookup by name; \throws vrl::ConfigError listing every valid name
  /// when unknown.
  const PolicyInfo& Get(std::string_view name) const;

  /// Builds a policy instance: Get(name).make(ctx).
  std::unique_ptr<RefreshPolicy> Build(std::string_view name,
                                       const PolicyBuildContext& ctx) const;

  /// Registration order (stable: the order policies were added).
  const std::vector<PolicyInfo>& entries() const { return entries_; }

  /// Comma-separated canonical names, for help text and error messages.
  std::string NameList() const;

 private:
  PolicyRegistry();
  std::vector<PolicyInfo> entries_;
};

/// One registered request scheduler (name table for flag parsers; the
/// behaviour itself lives in SelectNextRequest).
struct SchedulerInfo {
  std::string name;
  std::string description;
  SchedulerKind kind;
};

/// The scheduler name table, in SchedulerKind order.
const std::vector<SchedulerInfo>& SchedulerEntries();

}  // namespace vrl::dram
