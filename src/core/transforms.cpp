// §3.3 layer transformations around concat joins.
//
// Three rewrites, each semantics-preserving linear algebra on 1×1 convs, run
// through the rewrite driver (core/rebuild.hpp) in priority order (D), (B),
// (A) — one kind per sweep, restarting at (D) after any sweep applies:
//
//  (A) concat split (Fig. 9b → 9c):  fconv(concat(x₁..x_k)) =
//      add(fconv₁(x₁), .., fconv_k(x_k)) with the weight split along input
//      channels — the wide concatenated tensor is never materialized.
//
//  (B) merged lconv (Fig. 9b → 9a):  concat(act(l₁(r₁)), act(l₂(r₂))) =
//      act(l_bd(concat(r₁, r₂))) with a block-diagonal weight — the concat
//      now runs on *reduced* tensors and one fused kernel can cover the
//      whole join.
//
//  (D) upsample commute:  conv(upsample(x)) = upsample(conv(x)) for a
//      pointwise conv, which then runs at low resolution.
//
// The paper's add merge (C), add(l₁(r₁), l₂(r₂)) = l_m(concat(r₁, r₂)), is
// not implemented: no zoo model has an add whose inputs are both restore
// lconvs (DESIGN.md, "Decision: no add merge").
#include <algorithm>
#include <optional>

#include "core/rebuild.hpp"
#include "core/temco.hpp"
#include "support/log.hpp"

namespace temco::core {

namespace {

using ir::Graph;
using ir::Node;
using ir::OpKind;
using ir::ValueId;
using detail::single_user;

/// Block-diagonal merge of 1×1 conv weights: output channels and input
/// channels both concatenate; off-diagonal blocks are zero (Fig. 9a).
Tensor block_diag_weights(const Graph& graph, const std::vector<ValueId>& lconvs) {
  std::int64_t c_total = 0;
  std::int64_t r_total = 0;
  for (const ValueId l : lconvs) {
    c_total += graph.node(l).weights[0].shape()[0];
    r_total += graph.node(l).weights[0].shape()[1];
  }
  Tensor w = Tensor::zeros(Shape{c_total, r_total, 1, 1});
  std::int64_t c_off = 0;
  std::int64_t r_off = 0;
  for (const ValueId l : lconvs) {
    const Tensor& wl = graph.node(l).weights[0];
    const std::int64_t c = wl.shape()[0];
    const std::int64_t r = wl.shape()[1];
    for (std::int64_t co = 0; co < c; ++co) {
      for (std::int64_t j = 0; j < r; ++j) {
        w.data()[(c_off + co) * r_total + r_off + j] = wl.data()[co * r + j];
      }
    }
    c_off += c;
    r_off += r;
  }
  return w;
}

Tensor concat_biases(const Graph& graph, const std::vector<ValueId>& lconvs) {
  std::int64_t c_total = 0;
  for (const ValueId l : lconvs) c_total += graph.node(l).weights[1].shape()[0];
  Tensor b = Tensor::zeros(Shape{c_total});
  std::int64_t off = 0;
  for (const ValueId l : lconvs) {
    const Tensor& bl = graph.node(l).weights[1];
    std::copy(bl.span().begin(), bl.span().end(), b.data() + off);
    off += bl.shape()[0];
  }
  return b;
}

// ---- (B) merged lconv across concat ----------------------------------------

/// True for convs the merge may treat as restore lconvs.  Slices produced by
/// the concat split are tagged kFconv and excluded — merging a split back
/// would re-create the pattern the split just removed and the rewrite loop
/// would oscillate forever.
bool mergeable_lconv(const Node& node) {
  return is_lconv(node) && node.provenance != ir::Provenance::kFconv;
}

std::optional<detail::Rewrite> match_merged_concat(const Graph& graph,
                                                   const detail::Users& users,
                                                   const Node& concat) {
  if (concat.kind != OpKind::kConcat) return std::nullopt;
  // The join must feed exactly one pointwise conv for the merge to pay off
  // (that conv is what the merged sequence's fused kernel will absorb).
  if (!single_user(users, graph, concat.id) ||
      !is_pointwise_conv(graph.node(users[static_cast<std::size_t>(concat.id)][0]))) {
    return std::nullopt;
  }

  std::vector<ValueId> lconvs;
  ir::ActKind act_kind = ir::ActKind::kRelu;
  detail::Rewrite rewrite;
  for (const ValueId in : concat.inputs) {
    const Node& act = graph.node(in);
    if ((act.kind != OpKind::kRelu && act.kind != OpKind::kSilu) ||
        !single_user(users, graph, in)) {
      return std::nullopt;
    }
    const ir::ActKind kind = act.kind == OpKind::kRelu ? ir::ActKind::kRelu : ir::ActKind::kSilu;
    if (lconvs.empty()) {
      act_kind = kind;
    } else if (act_kind != kind) {
      return std::nullopt;  // Fig. 9a needs identical activations
    }
    const ValueId l = act.inputs[0];
    if (!mergeable_lconv(graph.node(l)) || !single_user(users, graph, l)) return std::nullopt;
    rewrite.removes.push_back(in);
    lconvs.push_back(l);
  }

  rewrite.removes.insert(rewrite.removes.end(), lconvs.begin(), lconvs.end());
  rewrite.removes.push_back(concat.id);
  rewrite.anchor = concat.id;
  rewrite.emit = [&graph, &concat, lconvs, act_kind](Graph& g, std::vector<ValueId>& remap) {
    std::vector<ValueId> reduced;
    std::int64_t original_flops = 0;
    for (const ValueId l : lconvs) {
      reduced.push_back(remap[static_cast<std::size_t>(graph.node(l).inputs[0])]);
      original_flops += graph.node(l).original_flops;
    }
    const std::string& base = concat.name;
    const ValueId rc = g.concat(reduced, base + ".reduced_concat");
    const ValueId lm = g.conv2d(rc, block_diag_weights(graph, lconvs),
                                concat_biases(graph, lconvs), 1, 0, base + ".merged_lconv");
    g.node(lm).provenance = ir::Provenance::kLconv;
    g.node(lm).original_flops = original_flops;
    const ValueId am = act_kind == ir::ActKind::kRelu ? g.relu(lm, base + ".merged_act")
                                                      : g.silu(lm, base + ".merged_act");
    remap[static_cast<std::size_t>(concat.id)] = am;
  };
  return rewrite;
}

// ---- (D) upsample / pointwise-conv commutation ------------------------------
//
// Nearest-neighbour upsampling replicates pixels and a 1×1 stride-1 conv acts
// per pixel, so conv(upsample(x)) == upsample(conv(x)) exactly.  Running the
// conv at low resolution removes the full-width upsampled tensor from the
// graph (UNet decoders) and often leaves the conv adjacent to an
// lconv-activation pair, unlocking fusion.

std::optional<detail::Rewrite> match_upsample_commute(const Graph& graph,
                                                      const detail::Users& users,
                                                      const Node& up) {
  if (up.kind != OpKind::kUpsample || !single_user(users, graph, up.id)) return std::nullopt;
  const Node& conv = graph.node(users[static_cast<std::size_t>(up.id)][0]);
  if (!is_pointwise_conv(conv)) return std::nullopt;

  detail::Rewrite rewrite;
  rewrite.removes = {up.id, conv.id};
  rewrite.anchor = conv.id;
  rewrite.emit = [&up, &conv](Graph& g, std::vector<ValueId>& remap) {
    const ValueId low_res_conv =
        g.conv2d(remap[static_cast<std::size_t>(up.inputs[0])], conv.weights[0].clone(),
                 conv.weights[1].clone(), 1, 0, conv.name + ".pre_up");
    g.node(low_res_conv).provenance = conv.provenance;
    g.node(low_res_conv).original_flops = conv.original_flops;
    remap[static_cast<std::size_t>(conv.id)] =
        g.upsample(low_res_conv, up.attrs.upsample_factor, up.name + ".post_conv");
  };
  return rewrite;
}

// ---- (A) concat split -------------------------------------------------------

std::optional<detail::Rewrite> match_concat_split(const Graph& graph, const detail::Users& users,
                                                  const Node& concat) {
  if (concat.kind != OpKind::kConcat || !single_user(users, graph, concat.id)) return std::nullopt;
  const Node& fconv = graph.node(users[static_cast<std::size_t>(concat.id)][0]);
  if (!is_pointwise_conv(fconv)) return std::nullopt;
  // Never split a conv the merge just created (kLconv tag): the
  // pair of rewrites would undo each other indefinitely.
  if (fconv.provenance == ir::Provenance::kLconv) return std::nullopt;

  detail::Rewrite rewrite;
  rewrite.removes = {concat.id, fconv.id};
  rewrite.anchor = fconv.id;
  rewrite.emit = [&graph, &concat, &fconv](Graph& g, std::vector<ValueId>& remap) {
    const Tensor& w = fconv.weights[0];
    const std::int64_t c_out = w.shape()[0];
    const std::int64_t c_in_total = w.shape()[1];
    // Accumulate with a left-fold chain of binary adds rather than one
    // wide add: the chain keeps at most two partial sums live at a
    // time, so splitting never inflates the peak (k simultaneous
    // partials of C_out channels can exceed the concat it replaced).
    ValueId acc = ir::kInvalidValue;
    std::int64_t offset = 0;
    for (std::size_t i = 0; i < concat.inputs.size(); ++i) {
      const ValueId x = concat.inputs[i];
      const std::int64_t c = graph.node(x).out_shape[1];
      // Slice the fconv weight along input channels.
      Tensor wi = Tensor::zeros(Shape{c_out, c, 1, 1});
      for (std::int64_t co = 0; co < c_out; ++co) {
        for (std::int64_t j = 0; j < c; ++j) {
          wi.data()[co * c + j] = w.data()[co * c_in_total + offset + j];
        }
      }
      offset += c;
      // The bias is added exactly once (on the first partial sum).
      Tensor bi = i == 0 ? fconv.weights[1].clone() : Tensor::zeros(Shape{c_out});
      const ValueId part = g.conv2d(remap[static_cast<std::size_t>(x)], std::move(wi),
                                    std::move(bi), 1, 0, fconv.name + ".split" + std::to_string(i));
      // Split slices are channel-reducing pieces of an fconv; the tag
      // keeps the merge from treating them as restore
      // lconvs (which would oscillate with this split).
      g.node(part).provenance = ir::Provenance::kFconv;
      acc = acc == ir::kInvalidValue
                ? part
                : g.add({acc, part}, fconv.name + ".split_add" + std::to_string(i));
    }
    remap[static_cast<std::size_t>(fconv.id)] = acc;
  };
  return rewrite;
}

}  // namespace

ir::Graph transform_layers(const ir::Graph& graph, const TemcoOptions& options,
                           OptimizeStats* stats) {
  OptimizeStats local;
  OptimizeStats& st = stats != nullptr ? *stats : local;

  // Merged-lconv (when preferred) outranks the split so joins become single
  // sequences.
  std::vector<detail::Pattern> patterns = {{match_upsample_commute, &st.upsample_commutes}};
  if (options.prefer_merged_lconv) patterns.push_back({match_merged_concat, &st.lconv_merges});
  patterns.push_back({match_concat_split, &st.concat_splits});
  Graph current = detail::rewrite(graph, patterns);
  TEMCO_INFO() << "transforms: " << st.concat_splits << " splits, " << st.lconv_merges
               << " lconv merges";
  return current;
}

}  // namespace temco::core
