#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "kern/small_func.h"
#include "kern/small_vec.h"
#include "tensor/tensor.h"

namespace fedml::autodiff {

class Var;

/// Type-erased backward closure. SmallFunc keeps typical captures (a Var or
/// two, an index vector) inline instead of paying std::function's heap
/// allocation per tape edge.
using BackwardFn = kern::SmallFunc<Var(const Var&)>;

namespace detail {

/// Graph node. Created once per op application; immutable after creation.
/// `edges[k].backward` maps the gradient flowing into this node to the
/// gradient contribution for parent k — and is itself written with
/// differentiable ops, which is what makes grad-of-grad exact.
///
/// Nodes live on the plain heap (`std::make_shared`), owned by the Vars and
/// child edges that reference them; a graph is freed when its last handle
/// drops.
struct Node {
  tensor::Tensor value;
  bool requires_grad = false;
  std::uint64_t id = 0;  ///< creation order; parents always have smaller ids

  struct Edge {
    Edge(std::shared_ptr<Node> p, BackwardFn b)
        : parent(std::move(p)), backward(std::move(b)) {}
    std::shared_ptr<Node> parent;
    BackwardFn backward;
  };
  /// Two inline slots: every op in ops.h has at most two parents; wider
  /// custom ops spill to the heap.
  kern::SmallVec<Edge, 2> edges;
};

using NodePtr = std::shared_ptr<Node>;

std::uint64_t next_node_id();

}  // namespace detail

/// Value handle into the dynamic computation graph. Cheap to copy
/// (shared_ptr). A Var without gradient history is a *leaf*; leaves with
/// requires_grad=true are trainable parameters.
class Var {
 public:
  /// Empty handle; most operations on it throw.
  Var() = default;

  /// Leaf variable holding `value`.
  explicit Var(tensor::Tensor value, bool requires_grad = false);

  /// Leaf from a scalar.
  static Var scalar(double v, bool requires_grad = false) {
    return Var(tensor::Tensor::scalar(v), requires_grad);
  }

  [[nodiscard]] bool defined() const { return node_ != nullptr; }
  [[nodiscard]] const tensor::Tensor& value() const;
  [[nodiscard]] std::size_t rows() const { return value().rows(); }
  [[nodiscard]] std::size_t cols() const { return value().cols(); }
  [[nodiscard]] double item() const { return value().item(); }
  [[nodiscard]] bool requires_grad() const { return node_ && node_->requires_grad; }

  /// Leaf copy of the current value with no history and no grad requirement.
  [[nodiscard]] Var detach() const;

  /// Internal: wrap an existing node.
  explicit Var(detail::NodePtr node) : node_(std::move(node)) {}
  [[nodiscard]] const detail::NodePtr& node() const { return node_; }

 private:
  detail::NodePtr node_;
};

/// Construct the output of an op: `value` is the forward result, each parent
/// Var is paired with the closure computing its gradient contribution from
/// the output gradient. Parents that do not require grad are skipped, so
/// dead graph branches are never built. The one- and two-parent overloads
/// cover every op this library defines without building a parents vector.
Var make_op(tensor::Tensor value, const Var& a, BackwardFn back_a);
Var make_op(tensor::Tensor value, const Var& a, BackwardFn back_a, const Var& b,
            BackwardFn back_b);
/// Generic arity (custom ops, tests).
Var make_op(tensor::Tensor value,
            std::vector<std::pair<Var, std::function<Var(const Var&)>>> parents);

struct GradOptions {
  /// Build a differentiable graph for the returned gradients so they can be
  /// differentiated again (needed for the MAML meta-gradient).
  bool create_graph = false;
  /// If an input is unreachable from the output, return a zero gradient of
  /// the input's shape instead of throwing.
  bool allow_unused = true;
};

/// Reverse-mode gradient of a scalar (1×1) `output` with respect to each of
/// `inputs`. Returns one Var per input, aligned with `inputs`.
std::vector<Var> grad(const Var& output, const std::vector<Var>& inputs,
                      const GradOptions& opts = {});

}  // namespace fedml::autodiff
