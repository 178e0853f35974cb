#ifndef SPHERE_CORE_PARAM_SLICE_H_
#define SPHERE_CORE_PARAM_SLICE_H_

#include <utility>
#include <vector>

#include "common/value.h"
#include "sql/ast.h"

namespace sphere::core {

/// Compacts `?` placeholders for one SQL unit of a split statement.
///
/// When the rewriter splits a batched INSERT across shards, each unit keeps
/// only a subset of the VALUES rows, so the original parameter indices become
/// sparse. Instead of materializing the values into literals, the slicer
/// renumbers the placeholders it encounters to 0..k-1 in order of
/// first appearance and collects the matching values into a per-unit
/// parameter slice. A parameter referenced twice maps to one slot.
class ParamSlicer {
 public:
  explicit ParamSlicer(const std::vector<Value>& source) : source_(&source) {}

  /// Clones `e` with every ParamExpr renumbered into this unit's slice.
  sql::ExprPtr Remap(const sql::Expr* e) {
    if (e == nullptr) return nullptr;
    sql::ExprPtr clone = e->Clone();
    RemapInPlace(clone.get());
    return clone;
  }

  /// The values backing the renumbered placeholders, in slot order.
  std::vector<Value> TakeParams() { return std::move(params_); }

 private:
  void RemapInPlace(sql::Expr* e) {
    if (e == nullptr) return;
    switch (e->kind()) {
      case sql::ExprKind::kParam: {
        auto* p = static_cast<sql::ParamExpr*>(e);
        p->index = SlotOf(p->index);
        break;
      }
      case sql::ExprKind::kUnary:
        RemapInPlace(static_cast<sql::UnaryExpr*>(e)->child.get());
        break;
      case sql::ExprKind::kBinary: {
        auto* b = static_cast<sql::BinaryExpr*>(e);
        RemapInPlace(b->left.get());
        RemapInPlace(b->right.get());
        break;
      }
      case sql::ExprKind::kBetween: {
        auto* b = static_cast<sql::BetweenExpr*>(e);
        RemapInPlace(b->expr.get());
        RemapInPlace(b->low.get());
        RemapInPlace(b->high.get());
        break;
      }
      case sql::ExprKind::kIn: {
        auto* in = static_cast<sql::InExpr*>(e);
        RemapInPlace(in->expr.get());
        for (auto& i : in->list) RemapInPlace(i.get());
        break;
      }
      case sql::ExprKind::kFuncCall:
        for (auto& a : static_cast<sql::FuncCallExpr*>(e)->args) {
          RemapInPlace(a.get());
        }
        break;
      case sql::ExprKind::kCase: {
        auto* c = static_cast<sql::CaseExpr*>(e);
        for (auto& [when, then] : c->branches) {
          RemapInPlace(when.get());
          RemapInPlace(then.get());
        }
        RemapInPlace(c->else_expr.get());
        break;
      }
      default:
        break;
    }
  }

  int SlotOf(int source_index) {
    if (source_index < 0 ||
        static_cast<size_t>(source_index) >= source_->size()) {
      // Out-of-range placeholder: bind a NULL slot, the value an unbound
      // placeholder reads as.
      params_.push_back(Value::Null());
      return static_cast<int>(params_.size()) - 1;
    }
    if (mapping_.size() < source_->size()) {
      mapping_.resize(source_->size(), -1);
    }
    int& slot = mapping_[static_cast<size_t>(source_index)];
    if (slot < 0) {
      params_.push_back((*source_)[static_cast<size_t>(source_index)]);
      slot = static_cast<int>(params_.size()) - 1;
    }
    return slot;
  }

  const std::vector<Value>* source_;
  std::vector<Value> params_;
  std::vector<int> mapping_;  ///< source index -> slice slot, -1 unseen
};

}  // namespace sphere::core

#endif  // SPHERE_CORE_PARAM_SLICE_H_
