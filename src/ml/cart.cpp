#include "ml/cart.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace dnsbs::ml {

namespace {

// Per-tree shape telemetry: deterministic (trees derive from their config
// seed alone), bumped once per fit — never inside the recursive build.
util::MetricCounter& g_cart_fits = util::metrics_counter("dnsbs.ml.cart_fits");
util::MetricCounter& g_cart_nodes = util::metrics_counter("dnsbs.ml.cart_nodes");
// Candidate split positions (distinct-value boundaries) evaluated across
// the whole fit; a pure function of (data, seed, config), so non-sched.
util::MetricCounter& g_split_candidates =
    util::metrics_counter("dnsbs.ml.split_candidates");

double gini_from_counts(std::span<const std::size_t> counts, std::size_t total) noexcept {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const std::size_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

std::uint32_t majority(std::span<const std::size_t> counts) noexcept {
  std::size_t best = 0;
  for (std::size_t k = 1; k < counts.size(); ++k) {
    if (counts[k] > counts[best]) best = k;
  }
  return static_cast<std::uint32_t>(best);
}

}  // namespace

Presort::Presort(const Dataset& data)
    : rows_(data.size()), features_(data.feature_count()) {
  order_.resize(rows_ * features_);
  // Columns are independent; sorting them in parallel is deterministic
  // (each column's layout depends only on its own values).  Degrades to
  // the serial loop inside an outer parallel region (e.g. crossval reps).
  util::parallel_for(features_, [&](std::size_t f) {
    std::uint32_t* col = order_.data() + f * rows_;
    std::iota(col, col + rows_, std::uint32_t{0});
    // Gather the column once so the sort compares contiguous doubles
    // instead of striding through the row-major dataset.
    std::vector<double> vals(rows_);
    for (std::size_t r = 0; r < rows_; ++r) vals[r] = data.row(r)[f];
    std::sort(col, col + rows_, [&](std::uint32_t a, std::uint32_t b) {
      return vals[a] < vals[b] || (vals[a] == vals[b] && a < b);
    });
  });
}

void CartTree::fit(const Dataset& train) {
  std::vector<std::size_t> all(train.size());
  std::iota(all.begin(), all.end(), 0);
  fit_indices(train, all);
}

void CartTree::fit_indices(const Dataset& train, std::span<const std::size_t> indices) {
  std::vector<std::uint32_t> weights(train.size(), 0);
  for (const std::size_t i : indices) {
    assert(i < train.size());
    ++weights[i];
  }
  const Presort presort(train);
  fit_weights(train, presort, weights);
}

void CartTree::fit_weights(const Dataset& train, const Presort& presort,
                           std::span<const std::uint32_t> weights) {
  assert(weights.size() == train.size());
  assert(presort.rows() == train.size() && presort.features() == train.feature_count());
  nodes_.clear();
  depth_ = 0;
  class_count_ = train.class_count();
  importance_.assign(train.feature_count(), 0.0);
  util::Rng rng(config_.seed);

  // Rows present in this fit (weight > 0).
  std::size_t present = 0;
  for (std::size_t r = 0; r < weights.size(); ++r) {
    if (weights[r] > 0) ++present;
  }
  if (present == 0) {
    nodes_.push_back(Node{});  // degenerate leaf predicting class 0
    g_cart_fits.inc();
    g_cart_nodes.add(nodes_.size());
    return;
  }

  const std::size_t d = train.feature_count();
  if (d == 0) {
    // No features to split on: the tree is one majority leaf.
    std::vector<std::size_t> counts(class_count_, 0);
    for (std::size_t r = 0; r < weights.size(); ++r) {
      if (weights[r] > 0) counts[train.label(r)] += weights[r];
    }
    Node leaf;
    leaf.label = majority(counts);
    nodes_.push_back(leaf);
    g_cart_fits.inc();
    g_cart_nodes.add(nodes_.size());
    return;
  }

  // Root columns: each feature's presorted order filtered to present
  // rows.  The filter preserves sort order, so every node's segment stays
  // value-sorted as the recursion partitions it.
  std::vector<std::uint32_t> cols(d * present);
  for (std::size_t f = 0; f < d; ++f) {
    const auto src = presort.column(f);
    std::uint32_t* out = cols.data() + f * present;
    for (const std::uint32_t r : src) {
      if (weights[r] > 0) *out++ = r;
    }
  }

  std::vector<std::uint8_t> side(train.size(), 0);
  std::vector<std::uint32_t> scratch(present);
  BuildContext ctx{train, weights, cols, present, side, scratch, rng, 0, {}, {}, {}};
  build(ctx, 0, present, 0);
  g_cart_fits.inc();
  g_cart_nodes.add(nodes_.size());
  g_split_candidates.add(ctx.candidates);
}

std::uint32_t CartTree::build(BuildContext& ctx, std::size_t begin, std::size_t end,
                              std::size_t depth) {
  depth_ = std::max(depth_, depth);
  const Dataset& train = ctx.train;
  const std::size_t stride = ctx.stride;

  // Weighted class counts of the node (all columns hold the same row set;
  // column 0's segment is as good as any).
  std::vector<std::size_t>& counts = ctx.counts;
  counts.assign(class_count_, 0);
  std::size_t n = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t r = ctx.cols[i];
    const std::size_t w = ctx.weights[r];
    counts[train.label(r)] += w;
    n += w;
  }
  const double node_gini = gini_from_counts(counts, n);

  const auto make_leaf = [&]() {
    Node leaf;
    leaf.feature = -1;
    leaf.label = majority(counts);
    nodes_.push_back(leaf);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  };

  if (node_gini == 0.0 || n < config_.min_samples_split || depth >= config_.max_depth) {
    return make_leaf();
  }

  // Candidate features: all, or a random subset of max_features.
  const std::size_t f_total = train.feature_count();
  std::vector<std::size_t>& features = ctx.features;
  if (config_.max_features == 0 || config_.max_features >= f_total) {
    features.resize(f_total);
    std::iota(features.begin(), features.end(), 0);
  } else {
    ctx.rng.sample_indices_into(f_total, config_.max_features, features);
  }

  struct Best {
    double decrease = 0.0;
    std::size_t feature = 0;
    double threshold = 0.0;
  } best;

  std::vector<std::size_t>& left_counts = ctx.left_counts;
  left_counts.resize(class_count_);

  for (const std::size_t f : features) {
    const std::uint32_t* seg = ctx.cols.data() + f * stride;
    // Constant feature across the node: no split position exists.
    if (train.row(seg[begin])[f] == train.row(seg[end - 1])[f]) continue;

    std::fill(left_counts.begin(), left_counts.end(), 0);
    std::size_t n_left = 0;
    // Sweep split positions between consecutive distinct values: the
    // segment is value-sorted, so a position's left side is a prefix.
    double v = train.row(seg[begin])[f];
    for (std::size_t i = begin; i + 1 < end; ++i) {
      const std::uint32_t r = seg[i];
      const std::size_t w = ctx.weights[r];
      left_counts[train.label(r)] += w;
      n_left += w;
      const double v_next = train.row(seg[i + 1])[f];
      if (v == v_next) continue;
      ++ctx.candidates;
      const double v_here = v;
      v = v_next;
      const std::size_t n_right = n - n_left;
      if (n_left < config_.min_samples_leaf || n_right < config_.min_samples_leaf) continue;

      double left_sq = 0.0, right_sq = 0.0;
      for (std::size_t k = 0; k < class_count_; ++k) {
        const double cl = static_cast<double>(left_counts[k]);
        const double cr = static_cast<double>(counts[k] - left_counts[k]);
        left_sq += cl * cl;
        right_sq += cr * cr;
      }
      const double gini_left = 1.0 - left_sq / (static_cast<double>(n_left) * n_left);
      const double gini_right = 1.0 - right_sq / (static_cast<double>(n_right) * n_right);
      const double weighted =
          (static_cast<double>(n_left) * gini_left + static_cast<double>(n_right) * gini_right) /
          static_cast<double>(n);
      const double decrease = node_gini - weighted;
      if (decrease > best.decrease) {
        // The midpoint of two adjacent doubles can round up to v_next,
        // which would send every row left in the partition below (and
        // recurse forever on the unchanged segment).  Fall back to the
        // left value: v_here still goes left, v_next right, and predict's
        // `x <= threshold` stays consistent with the training partition.
        double threshold = (v_here + v_next) / 2.0;
        if (threshold >= v_next) threshold = v_here;
        best = Best{decrease, f, threshold};
      }
    }
  }

  if (best.decrease <= 1e-12) return make_leaf();

  // Mark each row's side once (the winning feature's segment is sorted,
  // so the comparison only flips once), then stable-partition every
  // feature's segment so children inherit value-sorted segments.
  const std::uint32_t* win = ctx.cols.data() + best.feature * stride;
  std::size_t left_rows = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t r = win[i];
    const bool goes_left = train.row(r)[best.feature] <= best.threshold;
    ctx.side[r] = goes_left ? 1 : 0;
    left_rows += goes_left ? 1 : 0;
  }
  const std::size_t mid = begin + left_rows;
  assert(mid > begin && mid < end);
  if (mid == begin || mid == end) return make_leaf();  // e.g. NaN features

  // Branchless two-way stable partition: left rows compact in place
  // (writes trail reads, so in-place is safe), right rows spill to scratch
  // and are copied back behind them.  The side bits are near-random per
  // row, so the unconditional-store form avoids a mispredicted branch per
  // element — this loop touches every column at every node and dominates
  // the fit once sorting is gone.
  const std::uint8_t* side = ctx.side.data();
  std::uint32_t* scratch = ctx.scratch.data();
  for (std::size_t f = 0; f < f_total; ++f) {
    std::uint32_t* seg = ctx.cols.data() + f * stride;
    std::size_t out = begin;
    std::size_t spill = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = seg[i];
      const std::uint8_t s = side[r];
      seg[out] = r;
      scratch[spill] = r;
      out += s;
      spill += static_cast<std::size_t>(1) - s;
    }
    std::copy(scratch, scratch + spill, seg + out);
  }

  importance_[best.feature] += static_cast<double>(n) * best.decrease;

  const std::uint32_t self = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{});  // reserve slot; children append after
  nodes_[self].feature = static_cast<std::int32_t>(best.feature);
  nodes_[self].threshold = best.threshold;
  const std::uint32_t left = build(ctx, begin, mid, depth + 1);
  const std::uint32_t right = build(ctx, mid, end, depth + 1);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

std::size_t CartTree::predict(std::span<const double> features) const {
  if (nodes_.empty()) return 0;
  std::uint32_t at = 0;
  while (nodes_[at].feature >= 0) {
    const Node& node = nodes_[at];
    at = features[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                            : node.right;
  }
  return nodes_[at].label;
}

}  // namespace dnsbs::ml
