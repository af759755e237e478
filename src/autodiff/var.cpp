#include "autodiff/var.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "autodiff/ops.h"
#include "util/error.h"

namespace fedml::autodiff {

namespace detail {
std::uint64_t next_node_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

Var::Var(tensor::Tensor value, bool requires_grad) {
  auto n = std::make_shared<detail::Node>();
  n->value = std::move(value);
  n->requires_grad = requires_grad;
  n->id = detail::next_node_id();
  node_ = std::move(n);
}

const tensor::Tensor& Var::value() const {
  FEDML_CHECK(node_ != nullptr, "use of empty Var");
  return node_->value;
}

Var Var::detach() const { return Var(value(), /*requires_grad=*/false); }

namespace {

detail::NodePtr op_node(tensor::Tensor value) {
  auto n = std::make_shared<detail::Node>();
  n->value = std::move(value);
  n->id = detail::next_node_id();
  return n;
}

void attach_edge(detail::Node& n, const Var& parent, BackwardFn backward) {
  FEDML_CHECK(parent.defined(), "op parent is an empty Var");
  if (!parent.requires_grad()) return;
  n.requires_grad = true;
  n.edges.push_back({parent.node(), std::move(backward)});
}

}  // namespace

Var make_op(tensor::Tensor value, const Var& a, BackwardFn back_a) {
  auto n = op_node(std::move(value));
  attach_edge(*n, a, std::move(back_a));
  return Var(std::move(n));
}

Var make_op(tensor::Tensor value, const Var& a, BackwardFn back_a, const Var& b,
            BackwardFn back_b) {
  auto n = op_node(std::move(value));
  attach_edge(*n, a, std::move(back_a));
  attach_edge(*n, b, std::move(back_b));
  return Var(std::move(n));
}

Var make_op(tensor::Tensor value,
            std::vector<std::pair<Var, std::function<Var(const Var&)>>> parents) {
  auto n = op_node(std::move(value));
  for (auto& [parent, backward] : parents) {
    attach_edge(*n, parent, BackwardFn(std::move(backward)));
  }
  return Var(std::move(n));
}

std::vector<Var> grad(const Var& output, const std::vector<Var>& inputs,
                      const GradOptions& opts) {
  FEDML_CHECK(output.defined(), "grad of empty Var");
  FEDML_CHECK(output.rows() == 1 && output.cols() == 1,
              "grad expects a scalar (1x1) output");
  for (const auto& in : inputs) {
    FEDML_CHECK(in.defined(), "grad input is an empty Var");
  }

  // Gradient accumulator per reachable node.
  std::unordered_map<const detail::Node*, Var> table;

  if (output.requires_grad()) {
    // Collect the reachable requires_grad subgraph.
    std::vector<detail::Node*> stack{output.node().get()};
    std::vector<detail::Node*> reachable;
    std::unordered_map<const detail::Node*, bool> seen;
    while (!stack.empty()) {
      auto* n = stack.back();
      stack.pop_back();
      if (seen[n]) continue;
      seen[n] = true;
      reachable.push_back(n);
      for (const auto& e : n->edges) {
        if (e.parent->requires_grad && !seen[e.parent.get()]) {
          stack.push_back(e.parent.get());
        }
      }
    }
    // Parents always have smaller creation ids than children, so descending
    // id order is a valid reverse-topological order of the reachable set.
    std::sort(reachable.begin(), reachable.end(),
              [](const detail::Node* a, const detail::Node* b) { return a->id > b->id; });

    table.emplace(output.node().get(), ops::ones_like(output.value()));

    for (auto* n : reachable) {
      const auto it = table.find(n);
      if (it == table.end()) continue;  // no gradient flowed here
      const Var g = it->second;
      for (const auto& e : n->edges) {
        Var contrib = e.backward(g);
        FEDML_CHECK(contrib.defined(), "backward closure returned empty Var");
        FEDML_CHECK(contrib.value().same_shape(e.parent->value),
                    "backward produced gradient of wrong shape");
        auto slot = table.find(e.parent.get());
        if (slot == table.end()) {
          table.emplace(e.parent.get(), contrib);
        } else {
          slot->second = ops::add(slot->second, contrib);
        }
      }
    }
  }

  std::vector<Var> result;
  result.reserve(inputs.size());
  for (const auto& in : inputs) {
    const auto it = table.find(in.node().get());
    if (it == table.end()) {
      FEDML_CHECK(opts.allow_unused,
                  "an input does not influence the output (set allow_unused)");
      result.emplace_back(
          tensor::Tensor::zeros(in.rows(), in.cols()), /*requires_grad=*/false);
    } else {
      result.push_back(opts.create_graph ? it->second : it->second.detach());
    }
  }
  return result;
}

}  // namespace fedml::autodiff
