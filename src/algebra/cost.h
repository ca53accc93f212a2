// The cost abstract data type.
//
// "Cost is an abstract data type for the optimizer generator; therefore, the
// optimizer implementor can choose cost to be a number (e.g., estimated
// elapsed time), a record (e.g., estimated CPU time and I/O count), or any
// other type. Cost arithmetic and comparisons are performed by invoking
// functions associated with the abstract data type 'cost'." (paper, 2.2)
//
// Cost is a small fixed-capacity value (up to kMaxCostDims doubles); the
// CostModel interface supplied by the optimizer implementor defines how the
// components combine and compare. Branch-and-bound compares a move's
// accumulated cost with the goal's incumbent and never subtracts: input
// goals are searched without a limit (docs/SEARCH.md, steps 5 and 6).

#ifndef VOLCANO_ALGEBRA_COST_H_
#define VOLCANO_ALGEBRA_COST_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "support/status.h"

namespace volcano {

/// Maximum number of cost components a model may use.
inline constexpr int kMaxCostDims = 4;

/// A cost value: `dims` doubles. Interpretation belongs to the CostModel.
class Cost {
 public:
  Cost() : dims_(1) { v_.fill(0.0); }

  /// Single-component cost.
  static Cost Scalar(double x) {
    Cost c;
    c.v_[0] = x;
    return c;
  }

  /// Multi-component cost.
  static Cost Vector(std::initializer_list<double> xs) {
    VOLCANO_CHECK(xs.size() >= 1 &&
                  xs.size() <= static_cast<size_t>(kMaxCostDims));
    Cost c;
    c.dims_ = static_cast<int>(xs.size());
    int i = 0;
    for (double x : xs) c.v_[i++] = x;
    return c;
  }

  int dims() const { return dims_; }
  double operator[](int i) const {
    VOLCANO_DCHECK(i >= 0 && i < dims_);
    return v_[i];
  }
  double& at(int i) {
    VOLCANO_DCHECK(i >= 0 && i < dims_);
    return v_[i];
  }

  /// A cost is valid iff no component is NaN (+infinity is a legal "this
  /// move is impossible" signal). A buggy or fault-injected model cost
  /// function returning NaN would otherwise corrupt branch-and-bound
  /// silently, because every NaN comparison is false and LessEq(a, b) =
  /// !Less(b, a) would treat the garbage as both cheaper and more expensive
  /// than everything. The engine rejects invalid costs at estimation time;
  /// CostModel comparisons DCHECK against them as a second line of defense.
  bool IsValid() const {
    for (int i = 0; i < dims_; ++i) {
      if (std::isnan(v_[i])) return false;
    }
    return true;
  }

 private:
  std::array<double, kMaxCostDims> v_;
  int dims_;
};

/// Model-supplied arithmetic and comparison for Cost values. The default
/// implementations treat costs as component-wise additive and compare by
/// Total(); models with exotic cost semantics override the virtuals.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// The zero of cost addition.
  virtual Cost Zero() const { return Cost::Scalar(0.0); }

  /// An unreachable upper bound; the initial Limit for a user query ("this
  /// limit is typically infinity for a user query", paper section 3).
  virtual Cost Infinity() const {
    return Cost::Scalar(std::numeric_limits<double>::infinity());
  }

  /// Component-wise a + b.
  virtual Cost Add(const Cost& a, const Cost& b) const {
    Cost r = Widen(a, b);
    for (int i = 0; i < r.dims(); ++i)
      r.at(i) = Component(a, i) + Component(b, i);
    return r;
  }

  /// Scalar summary used for comparisons; default: sum of components.
  virtual double Total(const Cost& a) const {
    double t = 0;
    for (int i = 0; i < a.dims(); ++i) t += a[i];
    return t;
  }

  /// Strict ordering. NaN operands would make branch-and-bound pruning and
  /// incumbent replacement silently arbitrary; they must never get here.
  virtual bool Less(const Cost& a, const Cost& b) const {
    VOLCANO_DCHECK(a.IsValid() && b.IsValid());
    return Total(a) < Total(b);
  }

  bool LessEq(const Cost& a, const Cost& b) const { return !Less(b, a); }

  virtual std::string ToString(const Cost& a) const {
    std::string s = "[";
    for (int i = 0; i < a.dims(); ++i) {
      if (i) s += ", ";
      s += std::to_string(a[i]);
    }
    s += "]";
    return s;
  }

 private:
  static Cost Widen(const Cost& a, const Cost& b) {
    Cost r;
    if (a.dims() >= b.dims()) {
      r = a;
    } else {
      r = b;
    }
    return r;
  }
  static double Component(const Cost& c, int i) {
    return i < c.dims() ? c[i] : 0.0;
  }
};

}  // namespace volcano

#endif  // VOLCANO_ALGEBRA_COST_H_
