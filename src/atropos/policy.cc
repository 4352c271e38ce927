#include "src/atropos/policy.h"

#include <algorithm>

namespace atropos {

bool Dominates(const std::vector<double>& a, const std::vector<double>& b) {
  bool strictly_greater = false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i] < b[i]) {
      return false;
    }
    if (a[i] > b[i]) {
      strictly_greater = true;
    }
  }
  return strictly_greater;
}

namespace {

// Scalarizes a gain vector with the normalized contention levels as weights
// (Algorithm 1 lines 12-20).
double Scalarize(const PolicyInput& input, const std::vector<double>& gains) {
  double total = 0.0;
  for (size_t r = 0; r < input.resources.size(); r++) {
    total += input.resources[r].contention_norm * gains[r];
  }
  return total;
}

// Algorithm 1 lines 2-10: keep candidates not dominated by any other
// cancellable candidate.
std::vector<const PolicyInput::Candidate*> NonDominatedSet(
    const PolicyInput& input, bool use_current_usage) {
  auto vec = [&](const PolicyInput::Candidate& c) -> const std::vector<double>& {
    return use_current_usage ? c.current_usage : c.gains;
  };
  std::vector<const PolicyInput::Candidate*> out;
  for (const auto& a : input.candidates) {
    if (!a.cancellable) {
      continue;
    }
    bool dominated = false;
    for (const auto& b : input.candidates) {
      if (&a == &b || !b.cancellable) {
        continue;
      }
      if (Dominates(vec(b), vec(a))) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      out.push_back(&a);
    }
  }
  return out;
}

PolicyDecision ScalarizeOver(const PolicyInput& input,
                             const std::vector<const PolicyInput::Candidate*>& set,
                             bool use_current_usage) {
  PolicyDecision decision;
  for (const auto* c : set) {
    double score = Scalarize(input, use_current_usage ? c->current_usage : c->gains);
    if (!decision.found() || score > decision.score) {
      decision.victim = c->task;
      decision.key = c->key;
      decision.score = score;
    }
  }
  return decision;
}

// Fills the decision trace: one entry per candidate, marking Pareto
// survivors and their scalarized scores.
void Explain(const PolicyInput& input,
             const std::vector<const PolicyInput::Candidate*>& pareto_set,
             bool use_current_usage, PolicyExplain* explain) {
  if (explain == nullptr) {
    return;
  }
  explain->entries.clear();
  explain->entries.reserve(input.candidates.size());
  for (const auto& c : input.candidates) {
    PolicyExplain::Entry entry;
    entry.task = c.task;
    entry.key = c.key;
    entry.cancellable = c.cancellable;
    entry.gains = use_current_usage ? c.current_usage : c.gains;
    for (const auto* p : pareto_set) {
      if (p == &c) {
        entry.pareto = true;
        entry.score = Scalarize(input, use_current_usage ? c.current_usage : c.gains);
        break;
      }
    }
    explain->entries.push_back(std::move(entry));
  }
}

}  // namespace

PolicyDecision SelectMultiObjective(const PolicyInput& input, PolicyExplain* explain) {
  if (input.resources.empty()) {
    return {};
  }
  auto set = NonDominatedSet(input, /*use_current_usage=*/false);
  Explain(input, set, /*use_current_usage=*/false, explain);
  return ScalarizeOver(input, set, /*use_current_usage=*/false);
}

PolicyDecision SelectHeuristic(const PolicyInput& input, PolicyExplain* explain) {
  if (input.resources.empty()) {
    return {};
  }
  // The single most contended resource.
  size_t top = 0;
  for (size_t r = 1; r < input.resources.size(); r++) {
    if (input.resources[r].contention_norm > input.resources[top].contention_norm) {
      top = r;
    }
  }
  if (explain != nullptr) {
    explain->entries.clear();
  }
  PolicyDecision decision;
  for (const auto& c : input.candidates) {
    if (explain != nullptr) {
      // The greedy policy has no Pareto filter: every cancellable candidate
      // is in the scored set.
      explain->entries.push_back(PolicyExplain::Entry{c.task, c.key, c.cancellable, c.cancellable,
                                                       c.cancellable ? c.gains[top] : 0.0,
                                                       c.gains});
    }
    if (!c.cancellable) {
      continue;
    }
    double score = c.gains[top];
    if (!decision.found() || score > decision.score) {
      decision.victim = c.task;
      decision.key = c.key;
      decision.score = score;
    }
  }
  return decision;
}

PolicyDecision SelectCurrentUsage(const PolicyInput& input, PolicyExplain* explain) {
  if (input.resources.empty()) {
    return {};
  }
  auto set = NonDominatedSet(input, /*use_current_usage=*/true);
  Explain(input, set, /*use_current_usage=*/true, explain);
  return ScalarizeOver(input, set, /*use_current_usage=*/true);
}

PolicyDecision SelectVictim(PolicyKind kind, const PolicyInput& input, PolicyExplain* explain) {
  PolicyDecision decision;
  switch (kind) {
    case PolicyKind::kMultiObjective:
      decision = SelectMultiObjective(input, explain);
      break;
    case PolicyKind::kHeuristic:
      decision = SelectHeuristic(input, explain);
      break;
    case PolicyKind::kCurrentUsage:
      decision = SelectCurrentUsage(input, explain);
      break;
  }
  // Never select a victim whose cancellation frees nothing anywhere.
  if (decision.found() && decision.score <= 0.0) {
    return {};
  }
  return decision;
}

}  // namespace atropos
