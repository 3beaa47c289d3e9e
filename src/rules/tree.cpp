#include "rules/tree.hpp"

#include <algorithm>
#include <functional>

#include "rules/induction.hpp"

namespace longtail::rules {

DecisionTree DecisionTree::build(std::span<const features::Instance> data,
                                 Config config) {
  DecisionTree tree;
  induction::SplitSelector splits(data);

  // Recursive grow + prune. Returns {node, estimated subtree errors}.
  std::function<std::pair<std::unique_ptr<Node>, double>(
      std::vector<std::uint32_t>&, std::size_t)>
      grow = [&](std::vector<std::uint32_t>& items, std::size_t depth)
      -> std::pair<std::unique_ptr<Node>, double> {
    const auto n = static_cast<std::uint32_t>(items.size());
    std::uint32_t mal = 0;
    for (const auto item : items) mal += data[item].malicious ? 1u : 0u;
    const auto leaf_errors = std::min(mal, n - mal);
    const double leaf_est =
        n == 0 ? 0.0
               : pessimistic_error_rate(leaf_errors, n,
                                        config.pruning_confidence) *
                     static_cast<double>(n);

    auto make_leaf = [&] {
      auto node = std::make_unique<Node>();
      node->is_leaf = true;
      node->majority_malicious = mal * 2 > n;
      node->coverage = n;
      node->errors = leaf_errors;
      return node;
    };

    if (mal == 0 || mal == n || n < 2 * config.min_instances ||
        depth >= config.max_depth)
      return {make_leaf(), leaf_est};

    auto choice = splits.choose(items, mal, config.min_instances);
    if (!choice.found) return {make_leaf(), leaf_est};

    auto node = std::make_unique<Node>();
    node->is_leaf = false;
    node->majority_malicious = mal * 2 > n;
    node->coverage = n;
    node->errors = leaf_errors;
    node->split = choice.feature;

    double children_est = 0;
    for (auto& [value, subset] : choice.partitions) {
      auto [child, est] = grow(subset.items, depth + 1);
      children_est += est;
      node->children.emplace(value, std::move(child));
    }

    // C4.5 subtree replacement: collapse when a leaf would not be worse.
    if (leaf_est <= children_est + 0.1) return {make_leaf(), leaf_est};

    tree.depth_ = std::max(tree.depth_, depth + 1);
    return {std::move(node), children_est};
  };

  std::vector<std::uint32_t> all(data.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  auto [root, est] = grow(all, 0);
  (void)est;
  tree.root_ = std::move(root);

  // Count nodes/leaves.
  std::function<void(const Node&)> count = [&](const Node& node) {
    ++tree.nodes_;
    if (node.is_leaf) {
      ++tree.leaves_;
      return;
    }
    for (const auto& [value, child] : node.children) count(*child);
  };
  if (tree.root_) count(*tree.root_);
  return tree;
}

bool DecisionTree::classify(const features::FeatureVector& x) const {
  const Node* node = root_.get();
  if (node == nullptr) return false;
  while (!node->is_leaf) {
    const auto it = node->children.find(x.at(node->split));
    if (it == node->children.end()) return node->majority_malicious;
    node = it->second.get();
  }
  return node->majority_malicious;
}

std::string DecisionTree::to_string(const features::FeatureSpace& space,
                                    std::size_t max_lines) const {
  std::string out;
  std::size_t lines = 0;
  std::function<void(const Node&, std::string)> render =
      [&](const Node& node, std::string indent) {
        if (lines >= max_lines) return;
        if (node.is_leaf) {
          out += indent + "-> " +
                 (node.majority_malicious ? "malicious" : "benign") + " (" +
                 std::to_string(node.coverage) + "/" +
                 std::to_string(node.errors) + ")\n";
          ++lines;
          return;
        }
        for (const auto& [value, child] : node.children) {
          if (lines >= max_lines) {
            out += indent + "...\n";
            ++lines;
            return;
          }
          out += indent + std::string(features::to_string(node.split)) +
                 " = \"" + std::string(space.name(node.split, value)) +
                 "\"\n";
          ++lines;
          render(*child, indent + "  ");
        }
      };
  if (root_) render(*root_, "");
  return out;
}

}  // namespace longtail::rules
