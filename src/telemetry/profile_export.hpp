#pragma once

#include <ostream>
#include <string>

#include "telemetry/profiler.hpp"

/// \file profile_export.hpp
/// Exporters for attribution-tree snapshots (docs/PROFILING.md).
///
/// Every format is byte-deterministic for a given snapshot: nodes emit in
/// creation order and doubles print through FormatDouble (export.hpp).  A scrubbed snapshot
/// (`Snapshot(/*scrub_times=*/true)`) therefore produces byte-identical
/// files across runs and thread counts.

namespace vrl::telemetry {

/// Schema "vrl.profile.v1": {"schema":...,"frames":N,"drops":D,
/// "nodes":[{"id","parent","name","path","depth","calls","units",
/// "inclusive_s","exclusive_s"}]}.  `parent` is -1 for roots; `path` is
/// the ";"-joined root-to-node name chain.
void WriteProfileJson(std::ostream& os, const ProfileSnapshot& snapshot);

/// Collapsed-stack (flamegraph.pl / speedscope) lines: "a;b;c N" where
/// N is the node's exclusive time in integer microseconds — or its call
/// count when the snapshot is time-scrubbed, so scrubbed profiles still
/// render a (count-weighted) flamegraph.
void WriteCollapsedStacks(std::ostream& os, const ProfileSnapshot& snapshot);

using ProfileWriter = void (*)(std::ostream&, const ProfileSnapshot&);

/// The writer a `--profile-out` path selects by its extension
/// (SelectOutputFormat, export.hpp): ".json" the v1 JSON, ".collapsed"
/// the collapsed stacks.
/// \throws vrl::ConfigError on any other extension, ".trace.json"
/// included.
ProfileWriter ProfileFileWriter(const std::string& path);

/// Writes `snapshot` to `path` with its ProfileFileWriter.
/// \throws vrl::ConfigError on an unknown extension (before the file is
/// created) or when the file cannot be opened.
void WriteProfileFile(const std::string& path,
                      const ProfileSnapshot& snapshot);

}  // namespace vrl::telemetry
