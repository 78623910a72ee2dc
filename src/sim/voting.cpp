#include "sim/voting.h"

#include <vector>

namespace lrt::sim {

spec::Value vote(std::span<const spec::Value> candidates,
                 VotingPolicy policy, std::int64_t* divergences) {
  // Fast path, no allocation: when every non-bottom candidate equals the
  // first one (the paper's case) both policies return it and nothing
  // diverged. Any disagreement (a NaN disagrees with itself) falls
  // through to the tally, which counts the divergence exactly.
  const spec::Value* first = nullptr;
  bool agree = true;
  for (const spec::Value& candidate : candidates) {
    if (candidate.is_bottom()) continue;
    if (first == nullptr) {
      first = &candidate;
    } else if (!(candidate == *first)) {
      agree = false;
      break;
    }
  }
  if (first == nullptr) return spec::Value::bottom();
  if (agree) return *first;

  // Distinct non-bottom values with their multiplicities, first-seen order.
  std::vector<std::pair<const spec::Value*, int>> tally;
  for (const spec::Value& candidate : candidates) {
    if (candidate.is_bottom()) continue;
    bool found = false;
    for (auto& [value, count] : tally) {
      if (*value == candidate) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) tally.emplace_back(&candidate, 1);
  }
  if (tally.empty()) return spec::Value::bottom();
  if (tally.size() > 1 && divergences != nullptr) ++*divergences;

  if (policy == VotingPolicy::kAnyNonBottom) return *tally.front().first;

  const spec::Value* best = tally.front().first;
  int best_count = tally.front().second;
  for (const auto& [value, count] : tally) {
    if (count > best_count) {
      best = value;
      best_count = count;
    }
  }
  return *best;
}

}  // namespace lrt::sim
