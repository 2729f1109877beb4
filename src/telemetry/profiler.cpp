#include "telemetry/profiler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vrl::telemetry {

std::string ProfileSnapshot::PathOf(std::size_t index) const {
  // Walk parents (each parent precedes its child, so depth is bounded),
  // then join root-first with ';'.
  std::vector<std::size_t> chain;
  for (std::int64_t at = static_cast<std::int64_t>(index); at >= 0;
       at = nodes[static_cast<std::size_t>(at)].parent) {
    chain.push_back(static_cast<std::size_t>(at));
  }
  std::string path;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!path.empty()) {
      path += ';';
    }
    path += nodes[*it].name;
  }
  return path;
}

std::vector<std::size_t> ProfileSnapshot::PreOrder() const {
  // Siblings of different subtrees interleave in creation order, so walk
  // depth-first.  Both lists get siblings last-created first, so popping
  // visits them in creation order.
  std::vector<std::vector<std::size_t>> children(nodes.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = nodes.size(); i-- > 0;) {
    const std::int32_t parent = nodes[i].parent;
    (parent < 0 ? stack : children[static_cast<std::size_t>(parent)])
        .push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(nodes.size());
  while (!stack.empty()) {
    const std::size_t index = stack.back();
    stack.pop_back();
    order.push_back(index);
    stack.insert(stack.end(), children[index].begin(), children[index].end());
  }
  return order;
}

double ProfileSnapshot::RootInclusiveSeconds() const {
  double total = 0.0;
  for (const ProfileNode& node : nodes) {
    if (node.parent < 0) {
      total += node.inclusive_s;
    }
  }
  return total;
}

Profiler::Profiler(ProfilerOptions options) : options_(options) {
  stack_.reserve(options_.max_depth);
}

std::uint32_t Profiler::NodeFor(std::int32_t parent, std::uint32_t name) {
  {
    const auto& siblings =
        parent < 0 ? roots_
                   : nodes_[static_cast<std::size_t>(parent)].children;
    for (const auto& [sibling_name, index] : siblings) {
      if (sibling_name == name) {
        return index;
      }
    }
  }
  if (nodes_.size() >= options_.max_nodes) {
    return kDroppedFrame;
  }
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  Node node;
  node.name = name;
  node.parent = parent;
  node.depth =
      parent < 0 ? 0 : nodes_[static_cast<std::size_t>(parent)].depth + 1;
  nodes_.push_back(std::move(node));
  // Re-resolve the sibling list only after push_back: growing nodes_ can
  // reallocate and would invalidate a reference taken before it.
  auto& siblings = parent < 0
                       ? roots_
                       : nodes_[static_cast<std::size_t>(parent)].children;
  siblings.emplace_back(name, index);
  return index;
}

void Profiler::BeginPhase(PhaseId name) {
  // Over a cap we still push a frame — a sentinel one — so the matching
  // EndPhase (typically a ScopedPhase destructor) stays balanced.
  Frame frame;
  if (stack_.size() >= options_.max_depth) {
    frame.node = kDroppedFrame;
  } else {
    const std::int32_t parent =
        stack_.empty() || stack_.back().node == kDroppedFrame
            ? -1
            : static_cast<std::int32_t>(stack_.back().node);
    // A dropped parent orphans its children too: attributing them to the
    // grandparent would invent tree edges that never existed.
    frame.node = !stack_.empty() && stack_.back().node == kDroppedFrame
                     ? kDroppedFrame
                     : NodeFor(parent, name);
  }
  if (frame.node == kDroppedFrame) {
    ++drops_;
  } else {
    frame.start = std::chrono::steady_clock::now();
  }
  stack_.push_back(frame);
}

void Profiler::EndPhase(std::uint64_t units) {
  if (stack_.empty()) {
    return;  // Unbalanced End; nothing sensible to attribute.
  }
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.node == kDroppedFrame) {
    return;  // Counted in drops_ at Begin; time stays with the parent.
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    frame.start)
          .count();
  Node& node = nodes_[frame.node];
  node.calls += 1;
  node.units += units;
  node.inclusive_s += elapsed;
  node.exclusive_s += std::max(0.0, elapsed - frame.child_s);
  frames_ += 1;
  if (!stack_.empty() && stack_.back().node != kDroppedFrame) {
    stack_.back().child_s += elapsed;
  }
}

void Profiler::CompletePhase(PhaseId name, double seconds,
                             std::uint64_t calls, std::uint64_t units) {
  const std::int32_t parent =
      stack_.empty() || stack_.back().node == kDroppedFrame
          ? -1
          : static_cast<std::int32_t>(stack_.back().node);
  if (!stack_.empty() && stack_.back().node == kDroppedFrame) {
    drops_ += calls;
    return;
  }
  const std::uint32_t index = NodeFor(parent, name);
  if (index == kDroppedFrame) {
    drops_ += calls;
    return;
  }
  Node& node = nodes_[index];
  node.calls += calls;
  node.units += units;
  node.inclusive_s += seconds;
  node.exclusive_s += seconds;
  frames_ += calls;
  if (!stack_.empty()) {
    stack_.back().child_s += seconds;
  }
}

ProfileSnapshot Profiler::Snapshot(bool scrub_times) const {
  ProfileSnapshot out;
  out.nodes.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    ProfileNode exported;
    exported.name = names_.label(node.name);
    exported.parent = node.parent;
    exported.depth = node.depth;
    exported.calls = node.calls;
    exported.units = node.units;
    exported.inclusive_s = scrub_times ? 0.0 : node.inclusive_s;
    exported.exclusive_s = scrub_times ? 0.0 : node.exclusive_s;
    out.nodes.push_back(std::move(exported));
  }
  out.frames = frames_;
  out.drops = drops_;
  return out;
}

void Profiler::Absorb(const Profiler& other) {
  if (!stack_.empty() || !other.stack_.empty()) {
    throw ConfigError(
        "Profiler::Absorb requires both profilers to have no open "
        "frames");
  }
  const std::vector<std::uint32_t> name_map =
      names_.InternAll(other.names_);
  // Nodes are created parents-first, so walking other.nodes_ in index
  // order guarantees each node's parent is already mapped.
  std::vector<std::uint32_t> map(other.nodes_.size(), kDroppedFrame);
  for (std::size_t i = 0; i < other.nodes_.size(); ++i) {
    const Node& theirs = other.nodes_[i];
    std::int32_t parent = -1;
    if (theirs.parent >= 0) {
      const std::uint32_t mapped =
          map[static_cast<std::size_t>(theirs.parent)];
      if (mapped == kDroppedFrame) {
        drops_ += theirs.calls;  // Parent fell to the node cap here.
        continue;
      }
      parent = static_cast<std::int32_t>(mapped);
    }
    const std::uint32_t index =
        NodeFor(parent, name_map[theirs.name]);
    if (index == kDroppedFrame) {
      drops_ += theirs.calls;
      continue;
    }
    map[i] = index;
    Node& mine = nodes_[index];
    mine.calls += theirs.calls;
    mine.units += theirs.units;
    mine.inclusive_s += theirs.inclusive_s;
    mine.exclusive_s += theirs.exclusive_s;
    // Not other.frames_ in bulk: a call dropped at this cap must land in
    // drops_, not frames_, to keep frames == sum of node calls.
    frames_ += theirs.calls;
  }
  drops_ += other.drops_;
}

}  // namespace vrl::telemetry
