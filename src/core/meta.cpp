#include "core/meta.h"

#include "autodiff/ops.h"
#include "nn/loss.h"
#include "nn/params.h"
#include "util/error.h"

namespace fedml::core {

using autodiff::Var;
namespace ops = fedml::autodiff::ops;

namespace {

Var batch_loss(const nn::Module& model, const nn::ParamList& params,
               const data::Dataset& d) {
  FEDML_CHECK(d.size() > 0, "loss over empty dataset");
  const Var x = ops::constant(d.x);
  return nn::softmax_cross_entropy(model.forward(params, x), d.y);
}

}  // namespace

double empirical_loss(const nn::Module& model, const nn::ParamList& theta,
                      const data::Dataset& d) {
  const nn::ParamList frozen = nn::clone_leaves(theta, /*requires_grad=*/false);
  return batch_loss(model, frozen, d).item();
}

double empirical_accuracy(const nn::Module& model, const nn::ParamList& theta,
                          const data::Dataset& d) {
  FEDML_CHECK(d.size() > 0, "accuracy over empty dataset");
  const nn::ParamList frozen = nn::clone_leaves(theta, /*requires_grad=*/false);
  const Var logits = model.forward(frozen, ops::constant(d.x));
  return nn::accuracy(logits.value(), d.y);
}

nn::ParamList loss_gradient(const nn::Module& model, const nn::ParamList& theta,
                            const data::Dataset& d) {
  const nn::ParamList leaves = nn::clone_leaves(theta, /*requires_grad=*/true);
  const Var loss = batch_loss(model, leaves, d);
  return autodiff::grad(loss, {leaves.begin(), leaves.end()});
}

nn::ParamList meta_gradient(const nn::Module& model, const nn::ParamList& theta,
                            const data::Dataset& train,
                            const std::vector<const data::Dataset*>& test_sets,
                            double alpha, MetaOrder order) {
  FEDML_CHECK(!test_sets.empty(), "meta_gradient: no test sets");
  nn::ParamList leaves = nn::clone_leaves(theta, /*requires_grad=*/true);

  // Inner step on D_train; keep the graph for the second-order term.
  const Var train_loss = batch_loss(model, leaves, train);
  auto inner_grads = autodiff::grad(train_loss, {leaves.begin(), leaves.end()},
                                    {.create_graph = true});
  if (order == MetaOrder::kFirstOrder) {
    for (auto& g : inner_grads) g = g.detach();
  }
  const nn::ParamList phi = nn::sgd_step_graph(leaves, inner_grads, alpha);

  // Outer loss at φ, summed over the provided test sets.
  Var outer;
  for (const auto* ts : test_sets) {
    FEDML_CHECK(ts != nullptr, "meta_gradient: null test set");
    const Var l = batch_loss(model, phi, *ts);
    outer = outer.defined() ? ops::add(outer, l) : l;
  }
  return autodiff::grad(outer, {leaves.begin(), leaves.end()});
}

nn::ParamList meta_gradient(const nn::Module& model, const nn::ParamList& theta,
                            const data::Dataset& train, const data::Dataset& test,
                            double alpha, MetaOrder order) {
  return meta_gradient(model, theta, train, {&test}, alpha, order);
}

nn::ParamList meta_gradient_multistep(
    const nn::Module& model, const nn::ParamList& theta,
    const data::Dataset& train, const std::vector<const data::Dataset*>& test_sets,
    double alpha, std::size_t inner_steps, MetaOrder order) {
  FEDML_CHECK(!test_sets.empty(), "meta_gradient_multistep: no test sets");
  FEDML_CHECK(inner_steps >= 1, "meta_gradient_multistep: need >= 1 inner step");
  nn::ParamList leaves = nn::clone_leaves(theta, /*requires_grad=*/true);

  nn::ParamList current = leaves;
  for (std::size_t s = 0; s < inner_steps; ++s) {
    const Var inner_loss = batch_loss(model, current, train);
    auto grads = autodiff::grad(inner_loss, {current.begin(), current.end()},
                                {.create_graph = true});
    if (order == MetaOrder::kFirstOrder) {
      for (auto& g : grads) g = g.detach();
    }
    current = nn::sgd_step_graph(current, grads, alpha);
  }

  Var outer;
  for (const auto* ts : test_sets) {
    FEDML_CHECK(ts != nullptr, "meta_gradient_multistep: null test set");
    const Var l = batch_loss(model, current, *ts);
    outer = outer.defined() ? ops::add(outer, l) : l;
  }
  return autodiff::grad(outer, {leaves.begin(), leaves.end()});
}

double meta_loss_multistep(const nn::Module& model, const nn::ParamList& theta,
                           const data::Dataset& train, const data::Dataset& test,
                           double alpha, std::size_t inner_steps) {
  const nn::ParamList phi = adapt(model, theta, train, alpha, inner_steps);
  return empirical_loss(model, phi, test);
}

double meta_loss(const nn::Module& model, const nn::ParamList& theta,
                 const data::Dataset& train, const data::Dataset& test, double alpha) {
  const nn::ParamList phi = adapt(model, theta, train, alpha, 1);
  return empirical_loss(model, phi, test);
}

nn::ParamList adapt(const nn::Module& model, const nn::ParamList& theta,
                    const data::Dataset& d, double alpha, std::size_t steps) {
  nn::ParamList params = nn::clone_leaves(theta, /*requires_grad=*/false);
  for (std::size_t s = 0; s < steps; ++s) {
    const nn::ParamList g = loss_gradient(model, params, d);
    // sgd_step_leaf's arithmetic, but the adapted model stays frozen.
    params = nn::add_scaled(params, g, -alpha, /*requires_grad=*/false);
  }
  return params;
}

}  // namespace fedml::core
