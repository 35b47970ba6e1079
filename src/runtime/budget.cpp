#include "runtime/budget.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kernels/kernels.hpp"
#include "runtime/liveness.hpp"
#include "runtime/planner.hpp"
#include "support/align.hpp"
#include "support/failpoint.hpp"
#include "support/log.hpp"

namespace temco::runtime {

namespace {

using ir::Graph;
using ir::Node;
using ir::ValueId;

failpoints::Site fp_drop_node{"scheduler.drop_node"};

/// Trials evaluated per remat round; candidates beyond this (ranked by
/// bytes-freed per recompute-second) are cheap to re-discover next round if
/// the peak moves, so a cap costs quality nothing observable.
constexpr std::size_t kMaxRematTrials = 24;

std::int64_t padded(const Graph& g, ValueId id) {
  return align_up(g.node(id).out_shape.bytes());
}

/// splitmix64: per-value Zobrist keys so beam states with the same scheduled
/// *set* (reached through different orders) deduplicate.
std::uint64_t zobrist(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- order search: beam over topological prefixes ---------------------------

struct BeamState {
  std::vector<std::int32_t> uses;     ///< remaining unscheduled consumers per value
  std::vector<std::int32_t> missing;  ///< unscheduled inputs per node
  std::vector<ValueId> ready;
  std::vector<ValueId> order;
  std::int64_t live = 0;
  std::int64_t peak = 0;
  std::uint64_t hash = 0;
};

/// Beam search minimizing (peak-so-far, resident-after) with program order as
/// the deterministic tie-break: the greedy §2.2 estimator scoring, kept
/// `width` hypotheses wide.
std::vector<ValueId> beam_order(const Graph& g, std::size_t width) {
  const std::size_t n = g.size();
  const auto users = g.users();

  BeamState init;
  init.uses.assign(n, 0);
  init.missing.assign(n, 0);
  for (const Node& node : g.nodes()) {
    for (const ValueId in : node.inputs) ++init.uses[static_cast<std::size_t>(in)];
    init.missing[static_cast<std::size_t>(node.id)] = static_cast<std::int32_t>(node.inputs.size());
    if (node.inputs.empty()) init.ready.push_back(node.id);
  }
  init.order.reserve(n);

  std::vector<BeamState> beam;
  beam.push_back(std::move(init));

  struct Cand {
    std::int64_t peak;
    std::int64_t after;
    std::size_t state;
    ValueId id;
    std::uint64_t hash;
  };
  std::vector<Cand> cands;
  for (std::size_t step = 0; step < n; ++step) {
    cands.clear();
    for (std::size_t si = 0; si < beam.size(); ++si) {
      const BeamState& s = beam[si];
      for (const ValueId c : s.ready) {
        const Node& node = g.node(c);
        const std::int64_t during = s.live + padded(g, c);
        std::int64_t after = during;
        for (const ValueId in : node.inputs) {
          if (s.uses[static_cast<std::size_t>(in)] == 1 && !g.is_output(in)) {
            after -= padded(g, in);
          }
        }
        // A value nobody reads (and that is not an output) dies at its own
        // step, exactly as the planner accounts it.
        if (s.uses[static_cast<std::size_t>(c)] == 0 && !g.is_output(c)) after -= padded(g, c);
        cands.push_back({std::max(s.peak, during), after, si, c,
                         s.hash ^ zobrist(static_cast<std::uint64_t>(c) + 1)});
      }
    }
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.peak != b.peak) return a.peak < b.peak;
      if (a.after != b.after) return a.after < b.after;
      if (a.id != b.id) return a.id < b.id;
      return a.state < b.state;
    });

    std::vector<BeamState> next;
    std::unordered_set<std::uint64_t> seen;
    for (const Cand& cand : cands) {
      if (next.size() == width) break;
      if (!seen.insert(cand.hash).second) continue;
      BeamState ns = beam[cand.state];  // copy; parents can seed several children
      const Node& node = g.node(cand.id);
      ns.ready.erase(std::find(ns.ready.begin(), ns.ready.end(), cand.id));
      ns.order.push_back(cand.id);
      ns.live = cand.after;
      ns.peak = cand.peak;
      ns.hash = cand.hash;
      for (const ValueId in : node.inputs) --ns.uses[static_cast<std::size_t>(in)];
      for (const ValueId user : users[static_cast<std::size_t>(cand.id)]) {
        if (--ns.missing[static_cast<std::size_t>(user)] == 0) ns.ready.push_back(user);
      }
      next.push_back(std::move(ns));
    }
    TEMCO_CHECK_AS(!next.empty(), InvalidGraphError)
        << "budget scheduler stalled at step " << step << " (cycle in users?)";
    beam = std::move(next);
  }
  // Candidates were sorted, so beam[0] is the best final hypothesis.
  std::vector<ValueId> order = std::move(beam.front().order);
  if (fp_drop_node.fire() && !order.empty()) order.pop_back();
  TEMCO_CHECK_AS(order.size() == n, InvalidGraphError)
      << "budget scheduler lost " << (n - order.size()) << " node(s)";
  return order;
}

// ---- greedy §2.2 estimator --------------------------------------------------

struct PeakEstimate {
  std::int64_t peak = 0;  ///< max step peak (no scratch; the oracle adds that)
  int steps_at_peak = 0;  ///< plateau width — progress currency for remat rounds
};

PeakEstimate estimate_peak(const Graph& g) {
  const auto liveness = compute_liveness(g);
  const auto dying = values_dying_at(g, liveness);
  PeakEstimate est;
  std::int64_t live = 0;
  for (const Node& node : g.nodes()) {
    live += padded(g, node.id);
    if (live > est.peak) {
      est.peak = live;
      est.steps_at_peak = 1;
    } else if (live == est.peak) {
      ++est.steps_at_peak;
    }
    for (const ValueId dead : dying[static_cast<std::size_t>(node.id)]) {
      if (!g.is_output(dead)) live -= padded(g, dead);
    }
  }
  return est;
}

// ---- rematerialization ------------------------------------------------------

struct SeqItem {
  ValueId src = ir::kInvalidValue;
  bool remat = false;
};

/// Rebuilds `g` following `seq` (original ids in order, plus duplicated remat
/// items).  References resolve to the *latest* definition of a source id, so
/// consumers placed after a remat copy read the copy and everyone else keeps
/// the original — the rewiring IS the sequence.  Graph outputs always bind to
/// the original definition (remat never applies to outputs).  Only ids are
/// remapped: names, weight tensors (shared, not copied), attrs and kinds
/// carry over verbatim, so with no remat items this is a pure reorder.
Graph materialize(const Graph& g, const std::vector<SeqItem>& seq) {
  Graph out;
  std::vector<ValueId> latest(g.size(), ir::kInvalidValue);
  std::vector<ValueId> original(g.size(), ir::kInvalidValue);
  for (const SeqItem& item : seq) {
    Node copy = g.node(item.src);
    for (ValueId& in : copy.inputs) {
      in = latest[static_cast<std::size_t>(in)];
      TEMCO_CHECK_AS(in != ir::kInvalidValue, InvalidGraphError)
          << copy.name << " sequenced before one of its producers";
    }
    if (item.remat) copy.name += ".remat";
    const ValueId nid = out.append(std::move(copy));
    latest[static_cast<std::size_t>(item.src)] = nid;
    if (!item.remat) original[static_cast<std::size_t>(item.src)] = nid;
  }
  std::vector<ValueId> outputs;
  for (const ValueId o : g.outputs()) {
    const ValueId mapped = original[static_cast<std::size_t>(o)];
    TEMCO_CHECK_AS(mapped != ir::kInvalidValue, InvalidGraphError)
        << "graph output " << g.node(o).name << " missing from the sequence";
    outputs.push_back(mapped);
  }
  out.set_outputs(std::move(outputs));
  out.infer_shapes();
  out.verify();
  return out;
}

/// Collects the producer chain that recomputes `v` just before step `p`:
/// a transitive input that is already dead there is recomputed too
/// (deps-first) while `depth` allows; otherwise it becomes a *kept-alive
/// leaf* — the duplicated chain reads the original value, which extends its
/// live range to the copy (liveness is recomputed from uses), and the
/// estimator prices whether that extension pays for the cut.  kInput is
/// always a leaf: the executor feeds inputs positionally, they cannot be
/// duplicated.  Only fails when `v` itself cannot be duplicated.
bool collect_chain(const Graph& g, const std::vector<LiveRange>& liveness, ValueId v,
                   ValueId p, int depth, std::vector<ValueId>& chain,
                   std::unordered_set<ValueId>& in_chain) {
  if (g.node(v).kind == ir::OpKind::kInput) return false;
  for (const ValueId in : g.node(v).inputs) {
    if (in_chain.count(in) != 0) continue;
    if (liveness[static_cast<std::size_t>(in)].end >= p) continue;  // still resident at p
    if (depth <= 1 || g.node(in).kind == ir::OpKind::kInput) continue;  // kept-alive leaf
    collect_chain(g, liveness, in, p, depth - 1, chain, in_chain);
  }
  in_chain.insert(v);
  chain.push_back(v);
  return true;
}

struct RematTrial {
  Graph graph;
  PeakEstimate estimate;
  double chain_seconds = 0.0;
  int chain_nodes = 0;
};

/// One remat round: at every step sitting on the estimator peak, find values
/// that cross the step without being read there, price their recompute
/// chains, and return the trial that lowers (peak, plateau-width) the most.
/// Empty when no candidate strictly improves — the budget is then provably
/// out of this search's reach.
std::optional<RematTrial> best_remat(const Graph& g, const BudgetOptions& options,
                                     const PeakEstimate& current) {
  const std::size_t n = g.size();
  const auto liveness = compute_liveness(g);
  const auto users = g.users();

  // Recompute the per-step live series to locate every peak step.
  const auto dying = values_dying_at(g, liveness);
  std::vector<std::int64_t> step_peak(n, 0);
  std::int64_t live = 0;
  for (const Node& node : g.nodes()) {
    live += padded(g, node.id);
    step_peak[static_cast<std::size_t>(node.id)] = live;
    for (const ValueId dead : dying[static_cast<std::size_t>(node.id)]) {
      if (!g.is_output(dead)) live -= padded(g, dead);
    }
  }

  struct Cand {
    ValueId v = ir::kInvalidValue;
    ValueId insert_before = ir::kInvalidValue;
    std::vector<ValueId> chain;
    double seconds = 0.0;
    double bytes_per_second = 0.0;
  };
  std::vector<Cand> cands;
  std::unordered_set<ValueId> considered;
  for (std::size_t t = 0; t < n; ++t) {
    if (step_peak[t] != current.peak) continue;
    const auto cut = static_cast<ValueId>(t);
    for (ValueId v = 0; v < cut; ++v) {
      if (considered.count(v) != 0) continue;
      if (liveness[static_cast<std::size_t>(v)].end <= cut) continue;  // not crossing
      if (g.is_output(v)) continue;
      if (g.node(v).kind == ir::OpKind::kInput) continue;
      bool read_at_cut = false;
      ValueId first_after = ir::kInvalidValue;
      for (const ValueId user : users[static_cast<std::size_t>(v)]) {
        if (user == cut) read_at_cut = true;
        if (user > cut) {
          first_after = user;
          break;  // users are in execution order
        }
      }
      if (read_at_cut || first_after == ir::kInvalidValue) continue;
      considered.insert(v);

      Cand cand;
      cand.v = v;
      cand.insert_before = first_after;
      std::unordered_set<ValueId> in_chain;
      if (!collect_chain(g, liveness, v, first_after, options.max_remat_depth, cand.chain,
                         in_chain)) {
        continue;
      }
      for (const ValueId c : cand.chain) {
        cand.seconds += options.cost_model.node_seconds(g, g.node(c));
      }
      cand.bytes_per_second =
          static_cast<double>(padded(g, v)) / (cand.seconds + 1e-12);
      cands.push_back(std::move(cand));
    }
  }
  if (cands.empty()) return std::nullopt;

  // Rank by bytes freed per recompute second — the cost table's pruning
  // order — and only pay full trial evaluation for the best few.
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.bytes_per_second != b.bytes_per_second) return a.bytes_per_second > b.bytes_per_second;
    return a.v < b.v;
  });
  if (cands.size() > kMaxRematTrials) cands.resize(kMaxRematTrials);

  std::optional<RematTrial> best;
  for (const Cand& cand : cands) {
    std::vector<SeqItem> seq;
    seq.reserve(n + cand.chain.size());
    for (ValueId id = 0; id < cand.insert_before; ++id) seq.push_back({id, false});
    for (const ValueId c : cand.chain) seq.push_back({c, true});
    for (ValueId id = cand.insert_before; id < static_cast<ValueId>(n); ++id) {
      seq.push_back({id, false});
    }
    RematTrial trial;
    trial.graph = materialize(g, seq);
    trial.estimate = estimate_peak(trial.graph);
    trial.chain_seconds = cand.seconds;
    trial.chain_nodes = static_cast<int>(cand.chain.size());
    const bool improves =
        trial.estimate.peak < current.peak ||
        (trial.estimate.peak == current.peak &&
         trial.estimate.steps_at_peak < current.steps_at_peak);
    if (!improves) continue;
    const bool better =
        !best || trial.estimate.peak < best->estimate.peak ||
        (trial.estimate.peak == best->estimate.peak &&
         (trial.estimate.steps_at_peak < best->estimate.steps_at_peak ||
          (trial.estimate.steps_at_peak == best->estimate.steps_at_peak &&
           trial.chain_seconds < best->chain_seconds)));
    if (better) best = std::move(trial);
  }
  return best;
}

// ---- driver -----------------------------------------------------------------

std::int64_t oracle_bytes(const Graph& g, const BudgetOptions& options) {
  return plan_arena(g, options.arena).arena_bytes;
}

/// Order-only improvement: beam search, adopted only if the arena oracle
/// agrees it is no worse than `g`.
Graph reorder(const Graph& g, const BudgetOptions& options, std::int64_t& bytes) {
  std::vector<SeqItem> seq;
  for (const ValueId id : beam_order(g, std::max<std::size_t>(1, options.beam_width))) {
    seq.push_back({id, false});
  }
  Graph candidate = materialize(g, seq);
  const std::int64_t candidate_bytes = oracle_bytes(candidate, options);
  if (candidate_bytes <= bytes) {
    bytes = candidate_bytes;
    return candidate;
  }
  return g;
}

}  // namespace

std::int64_t schedule_floor_bytes(const ir::Graph& graph) {
  std::int64_t floor = 0;
  for (const ir::Node& node : graph.nodes()) {
    std::int64_t need = align_up(node.out_shape.bytes());
    std::vector<ValueId> seen;  // a node may read the same value twice (add(x, x))
    for (const ValueId in : node.inputs) {
      if (std::find(seen.begin(), seen.end(), in) != seen.end()) continue;
      seen.push_back(in);
      need += align_up(graph.node(in).out_shape.bytes());
    }
    if (node.kind == ir::OpKind::kFusedConvActConv) {
      const Shape& x = graph.node(node.inputs[0]).out_shape;
      need += align_up(kernels::fused_scratch_bytes(node.weights[0].shape()[0], x[3],
                                                    node.attrs.fused_has_pool, node.out_shape[3]));
    }
    floor = std::max(floor, need);
  }
  std::int64_t outputs = 0;
  for (const ValueId o : graph.outputs()) outputs += align_up(graph.node(o).out_shape.bytes());
  return std::max(floor, outputs);
}

BudgetScheduleResult schedule_for_budget(const ir::Graph& graph, const BudgetOptions& options) {
  graph.verify();
  const double base_seconds = options.cost_model.graph_seconds(graph);

  BudgetScheduleResult result;
  result.budget_bytes = options.max_bytes;

  // Phase 1: reorder only.  The beam search starts from the input order and
  // the oracle arbitrates the switch.
  std::int64_t bytes = oracle_bytes(graph, options);
  Graph current = reorder(graph, options, bytes);
  result.unconstrained_arena_bytes = bytes;
  result.achieved_arena_bytes = bytes;

  if (options.max_bytes <= 0 || bytes <= options.max_bytes) {
    result.met = true;
    result.graph = std::move(current);
    TEMCO_INFO() << "budget scheduler: arena " << bytes << " B meets budget "
                 << options.max_bytes << " B by reordering alone";
    return result;
  }

  // Phase 2: rematerialize at the peak until the oracle fits or no move helps.
  PeakEstimate estimate = estimate_peak(current);
  for (int round = 0; round < options.max_remat_rounds; ++round) {
    std::optional<RematTrial> trial = best_remat(current, options, estimate);
    if (!trial) break;
    current = std::move(trial->graph);
    estimate = trial->estimate;
    result.remat_nodes += trial->chain_nodes;
    ++result.remat_rounds;
    // Duplication shifts liveness; let the order search exploit it before
    // consulting the oracle.
    bytes = oracle_bytes(current, options);
    current = reorder(current, options, bytes);
    result.achieved_arena_bytes = std::min(result.achieved_arena_bytes, bytes);
    if (bytes <= options.max_bytes) break;
  }

  result.achieved_arena_bytes = bytes;
  result.met = bytes <= options.max_bytes;
  result.graph = std::move(current);
  result.predicted_slowdown =
      base_seconds > 0.0 ? options.cost_model.graph_seconds(result.graph) / base_seconds : 1.0;
  TEMCO_INFO() << "budget scheduler: arena " << result.unconstrained_arena_bytes << " -> "
               << result.achieved_arena_bytes << " B (budget " << options.max_bytes << " B, "
               << (result.met ? "met" : "NOT met") << ", " << result.remat_nodes
               << " remat node(s), predicted slowdown " << result.predicted_slowdown << "x)";
  return result;
}

}  // namespace temco::runtime
