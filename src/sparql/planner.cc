#include "sparql/planner.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <set>
#include <vector>

namespace rdfa::sparql {

namespace {

using rdf::kNoTermId;
using rdf::TermId;

int LaneVar(const CompiledPattern& p, int lane) {
  return lane == 0 ? p.s_var : lane == 1 ? p.p_var : p.o_var;
}

// Constant-narrowed index range width of a pattern: the exact number of
// index rows a hash build over it decodes.
double ConstWidth(const rdf::Graph& graph, const CompiledPattern& p) {
  return static_cast<double>(
      graph.EstimateMatch(p.s_var < 0 ? p.s_id : kNoTermId,
                          p.p_var < 0 ? p.p_id : kNoTermId,
                          p.o_var < 0 ? p.o_id : kNoTermId));
}

void MarkBoundSlots(const CompiledPattern& p, std::set<int>* bound) {
  for (int lane = 0; lane < 3; ++lane) {
    const int v = LaneVar(p, lane);
    if (v >= 0) bound->insert(v);
  }
}

// Counts the pattern's bound-variable lanes under `bound(slot)`; when the
// count is 1, `*only_lane` names that lane. A step probes on the interesting
// order iff the count is 1 and the lane's variable is the interesting order.
template <typename BoundFn>
int BoundVarLanes(const CompiledPattern& p, BoundFn bound, int* only_lane) {
  int n = 0;
  for (int lane = 0; lane < 3; ++lane) {
    const int v = LaneVar(p, lane);
    if (v >= 0 && bound(v)) {
      ++n;
      *only_lane = lane;
    }
  }
  return n;
}

}  // namespace

const char* PermName(rdf::Graph::Perm perm) {
  static constexpr const char* kNames[rdf::Graph::kNumPerms] = {"SPO", "POS",
                                                                 "OSP"};
  return kNames[static_cast<int>(perm)];
}

std::vector<int> PlanBgpOrderDp(const rdf::Graph& graph,
                                const std::vector<CompiledPattern>& patterns,
                                DpStats* stats) {
  const size_t n = patterns.size();
  std::vector<int> source(n);
  std::iota(source.begin(), source.end(), 0);
  if (!DpSearches(n)) return source;

  // Compact variable-slot numbering: slot -> bit index, sorted by slot id
  // so the mapping (and thus every tie-break below) is deterministic.
  std::vector<int> slots;
  for (const auto& p : patterns) {
    for (int lane = 0; lane < 3; ++lane) {
      const int v = LaneVar(p, lane);
      if (v >= 0) slots.push_back(v);
    }
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  auto bit_of = [&slots](int slot) {
    return static_cast<int>(
        std::lower_bound(slots.begin(), slots.end(), slot) - slots.begin());
  };

  std::vector<uint32_t> varbits(n, 0);
  std::vector<double> width(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int lane = 0; lane < 3; ++lane) {
      const int v = LaneVar(patterns[i], lane);
      if (v >= 0) varbits[i] |= 1u << bit_of(v);
    }
    width[i] = ConstWidth(graph, patterns[i]);
  }

  // Bound-slot set per subset, built incrementally off the lowest member.
  const uint32_t full = (1u << n) - 1;
  std::vector<uint32_t> maskbits(full + 1, 0);
  for (uint32_t m = 1; m <= full; ++m) {
    int low = 0;
    while (((m >> low) & 1u) == 0) ++low;
    maskbits[m] = maskbits[m & (m - 1)] | varbits[low];
  }

  // DP state: (subset, interesting-order head). The head is fixed by the
  // seed pattern's scan permutation and preserved down the pipeline, so it
  // is part of the state, not a per-step choice. `nheads - 1` = no order.
  // No step cost reads the head, but it keeps one candidate order per head
  // for each subset. A state's row estimate depends on its path, so a
  // costlier prefix with fewer rows can finish cheaper, and one state per
  // subset would lose such orders: over 20k random 2-7 pattern BGPs on the
  // product KG (10k laptops) it changed 1.5% of the orders, and 0.5% got
  // a higher estimated cost (up to 45x).
  struct State {
    double cost = 0;
    double rows = 0;
    std::vector<int> order;
    bool valid = false;
  };
  const int nheads = static_cast<int>(slots.size()) + 1;
  std::vector<std::vector<State>> dp(full + 1, std::vector<State>(nheads));
  size_t states_considered = 0;
  auto relax = [&dp, &states_considered](uint32_t mask, int head, double cost,
                                         double rows, std::vector<int> order) {
    ++states_considered;
    State& s = dp[mask][head];
    if (!s.valid || cost < s.cost) {
      s.cost = cost;
      s.rows = rows;
      s.order = std::move(order);
      s.valid = true;
    }
  };

  // Seeds: every pattern, headless or sorted on any of its free lanes (all
  // seed permutations decode the same constant-narrowed width).
  for (size_t f = 0; f < n; ++f) {
    relax(1u << f, nheads - 1, width[f], width[f],
          {static_cast<int>(f)});
    for (int lane = 0; lane < 3; ++lane) {
      const int v = LaneVar(patterns[f], lane);
      if (v >= 0) {
        relax(1u << f, bit_of(v), width[f], width[f],
              {static_cast<int>(f)});
      }
    }
  }

  for (uint32_t mask = 1; mask < full; ++mask) {
    // Cross-product guard: while any unused pattern shares a variable with
    // the subset, disconnected extensions are skipped.
    bool any_connected = false;
    for (size_t j = 0; j < n; ++j) {
      if (((mask >> j) & 1u) == 0 && (varbits[j] & maskbits[mask]) != 0) {
        any_connected = true;
      }
    }
    for (int head = 0; head < nheads; ++head) {
      const State& s = dp[mask][head];
      if (!s.valid) continue;
      if (stats != nullptr) ++stats->states_expanded;
      for (size_t j = 0; j < n; ++j) {
        if ((mask >> j) & 1u) continue;
        if (any_connected && (varbits[j] & maskbits[mask]) == 0) continue;
        bool lb[3] = {false, false, false};
        for (int lane = 0; lane < 3; ++lane) {
          const int v = LaneVar(patterns[j], lane);
          lb[lane] = v >= 0 && ((maskbits[mask] >> bit_of(v)) & 1u);
        }
        const double per_row =
            CalibratedRowEstimate(graph, patterns[j], lb[0], lb[1], lb[2]);
        const double nlj = s.rows * per_row;
        // NLJ decodes rows x fanout; a hash build decodes the
        // constant-narrowed width once, and so does an NLJ over input
        // sorted on the join key, which probes each key once. Either needs
        // a bound join key; without one only NLJ (a full-width scan per
        // row) exists.
        const double cost =
            lb[0] || lb[1] || lb[2] ? std::min(width[j], nlj) : nlj;
        std::vector<int> order = s.order;
        order.push_back(static_cast<int>(j));
        relax(mask | (1u << j), head, s.cost + cost, nlj, std::move(order));
      }
    }
  }

  const State* best = nullptr;
  for (int head = 0; head < nheads; ++head) {
    const State& s = dp[full][head];
    if (s.valid && (best == nullptr || s.cost < best->cost)) best = &s;
  }
  if (stats != nullptr) {
    stats->states_considered = states_considered;
  }
  return best != nullptr ? best->order : source;
}

BgpPlan AnnotateBgpPlan(const rdf::Graph& graph,
                        const std::vector<CompiledPattern>& ordered,
                        bool seeded, std::set<int> bound) {
  BgpPlan plan;
  plan.steps.resize(ordered.size());
  if (ordered.empty()) return plan;
  const CompiledPattern& first = ordered.front();

  // Interesting order: the first pattern's free lane whose variable is the
  // only bound lane of the most downstream steps, so their probes walk the
  // sorted intermediate key by key. Zero such steps (or an unseeded run)
  // keeps the head unset and the first step on the default (3-arg
  // ChoosePerm) permutation, the one a probe of its constants reads.
  int head_lane = -1;
  int best_score = 0;
  for (int lane = 0; seeded && lane < 3; ++lane) {
    const int v = LaneVar(first, lane);
    if (v < 0) continue;
    std::set<int> scored = bound;
    MarkBoundSlots(first, &scored);
    int score = 0;
    for (size_t i = 1; i < ordered.size(); ++i) {
      int only = -1;
      const int nb = BoundVarLanes(
          ordered[i], [&scored](int s) { return scored.count(s) > 0; },
          &only);
      if (nb == 1 && LaneVar(ordered[i], only) == v) ++score;
      MarkBoundSlots(ordered[i], &scored);
    }
    if (score > best_score) {
      best_score = score;
      head_lane = lane;
    }
  }
  plan.head_slot = head_lane >= 0 ? LaneVar(first, head_lane) : -1;

  // Every step extends the rows before it, the first step one input row.
  double rows = 1;
  for (size_t i = 0; i < ordered.size(); ++i) {
    const CompiledPattern& p = ordered[i];
    const bool lb[3] = {p.s_var >= 0 && bound.count(p.s_var) > 0,
                        p.p_var >= 0 && bound.count(p.p_var) > 0,
                        p.o_var >= 0 && bound.count(p.o_var) > 0};
    PlannedStep& step = plan.steps[i];
    const double nlj =
        rows * CalibratedRowEstimate(graph, p, lb[0], lb[1], lb[2]);
    step.strategy = seeded && i == 0 ? 'S' : 'A';
    step.perm = rdf::Graph::ChoosePerm(p.s_var < 0 || lb[0],
                                       p.p_var < 0 || lb[1],
                                       p.o_var < 0 || lb[2],
                                       i == 0 ? head_lane : -1);
    step.est_cost =
        lb[0] || lb[1] || lb[2] ? std::min(ConstWidth(graph, p), nlj) : nlj;
    step.est_rows = nlj;
    rows = nlj;
    plan.est_cost += step.est_cost;
    MarkBoundSlots(p, &bound);
  }
  return plan;
}

std::string BgpPlan::ToJson(const std::vector<int>& source_order) const {
  std::string out = "{\"dp\":";
  out += used_dp ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof buf, ",\"head_slot\":%d,\"est_cost\":%.0f",
                head_slot, est_cost);
  out += buf;
  out += ",\"steps\":[";
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlannedStep& s = steps[i];
    const int src =
        i < source_order.size() ? source_order[i] : static_cast<int>(i);
    std::snprintf(buf, sizeof buf,
                  "%s{\"pattern\":%d,\"strategy\":\"%c\",\"perm\":\"%s\","
                  "\"est_rows\":%.0f,\"est_cost\":%.0f}",
                  i == 0 ? "" : ",", src, s.strategy, PermName(s.perm),
                  s.est_rows, s.est_cost);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace rdfa::sparql
