#include "core/rewrite.h"

#include <algorithm>

#include "common/strings.h"
#include "core/param_slice.h"
#include "sql/condition.h"

namespace sphere::core {

namespace {

/// Recursively replaces column qualifiers equal to a logic table name with
/// the actual name (alias qualifiers are untouched — aliases stay valid).
void RenameQualifiers(sql::Expr* e, const RouteUnit& unit) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case sql::ExprKind::kColumnRef: {
      auto* c = static_cast<sql::ColumnRefExpr*>(e);
      if (!c->table.empty()) {
        if (const std::string* actual = unit.ActualOf(c->table)) {
          c->table = *actual;
        }
      }
      break;
    }
    case sql::ExprKind::kUnary:
      RenameQualifiers(static_cast<sql::UnaryExpr*>(e)->child.get(), unit);
      break;
    case sql::ExprKind::kBinary: {
      auto* b = static_cast<sql::BinaryExpr*>(e);
      RenameQualifiers(b->left.get(), unit);
      RenameQualifiers(b->right.get(), unit);
      break;
    }
    case sql::ExprKind::kBetween: {
      auto* b = static_cast<sql::BetweenExpr*>(e);
      RenameQualifiers(b->expr.get(), unit);
      RenameQualifiers(b->low.get(), unit);
      RenameQualifiers(b->high.get(), unit);
      break;
    }
    case sql::ExprKind::kIn: {
      auto* in = static_cast<sql::InExpr*>(e);
      RenameQualifiers(in->expr.get(), unit);
      for (auto& i : in->list) RenameQualifiers(i.get(), unit);
      break;
    }
    case sql::ExprKind::kFuncCall: {
      auto* f = static_cast<sql::FuncCallExpr*>(e);
      for (auto& a : f->args) RenameQualifiers(a.get(), unit);
      break;
    }
    case sql::ExprKind::kCase: {
      auto* c = static_cast<sql::CaseExpr*>(e);
      for (auto& [w, t] : c->branches) {
        RenameQualifiers(w.get(), unit);
        RenameQualifiers(t.get(), unit);
      }
      RenameQualifiers(c->else_expr.get(), unit);
      break;
    }
    default:
      break;
  }
}

void RenameTableRef(sql::TableRef* ref, const RouteUnit& unit) {
  if (const std::string* actual = unit.ActualOf(ref->name)) {
    // Keep column references working: an unaliased logic table is usually
    // referenced by its logic name, so alias the actual table back to it...
    // except that dropping the alias matches ShardingSphere (qualifiers are
    // renamed too). We rename and leave existing aliases alone.
    ref->name = *actual;
  }
}

}  // namespace

void ApplyTableMappings(sql::Statement* stmt, const RouteUnit& unit) {
  switch (stmt->kind()) {
    case sql::StatementKind::kSelect: {
      auto* sel = static_cast<sql::SelectStatement*>(stmt);
      for (auto& t : sel->from) RenameTableRef(&t, unit);
      for (auto& j : sel->joins) {
        RenameTableRef(&j.table, unit);
        RenameQualifiers(j.on.get(), unit);
      }
      for (auto& item : sel->items) {
        if (item.is_star && !item.star_qualifier.empty()) {
          if (const std::string* actual = unit.ActualOf(item.star_qualifier)) {
            item.star_qualifier = *actual;
          }
        }
        RenameQualifiers(item.expr.get(), unit);
      }
      RenameQualifiers(sel->where.get(), unit);
      for (auto& g : sel->group_by) RenameQualifiers(g.get(), unit);
      RenameQualifiers(sel->having.get(), unit);
      for (auto& o : sel->order_by) RenameQualifiers(o.expr.get(), unit);
      break;
    }
    case sql::StatementKind::kInsert: {
      auto* ins = static_cast<sql::InsertStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(ins->table.name)) {
        ins->table.name = *actual;
      }
      break;
    }
    case sql::StatementKind::kUpdate: {
      auto* up = static_cast<sql::UpdateStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(up->table.name)) {
        up->table.name = *actual;
      }
      for (auto& a : up->assignments) RenameQualifiers(a.value.get(), unit);
      RenameQualifiers(up->where.get(), unit);
      break;
    }
    case sql::StatementKind::kDelete: {
      auto* del = static_cast<sql::DeleteStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(del->table.name)) {
        del->table.name = *actual;
      }
      RenameQualifiers(del->where.get(), unit);
      break;
    }
    case sql::StatementKind::kCreateTable: {
      auto* ct = static_cast<sql::CreateTableStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(ct->table)) {
        ct->table = *actual;
      }
      break;
    }
    case sql::StatementKind::kDropTable: {
      auto* dt = static_cast<sql::DropTableStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(dt->table)) {
        dt->table = *actual;
      }
      break;
    }
    case sql::StatementKind::kTruncate: {
      auto* tr = static_cast<sql::TruncateStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(tr->table)) {
        tr->table = *actual;
      }
      break;
    }
    case sql::StatementKind::kCreateIndex: {
      auto* ci = static_cast<sql::CreateIndexStatement*>(stmt);
      if (const std::string* actual = unit.ActualOf(ci->table)) {
        ci->index_name += "_" + *actual;  // keep index names unique per node
        ci->table = *actual;
      }
      break;
    }
    default:
      break;
  }
}

namespace {

/// Finds the select item matching an ORDER BY / GROUP BY expression.
/// Returns -1 when the expression is not in the select list.
int FindItemIndex(const std::vector<sql::SelectItem>& items,
                  const sql::Expr* expr, const sql::Dialect& dialect) {
  if (expr->kind() == sql::ExprKind::kColumnRef) {
    const auto* c = static_cast<const sql::ColumnRefExpr*>(expr);
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].is_star) continue;
      if (!items[i].alias.empty() && EqualsIgnoreCase(items[i].alias, c->column)) {
        return static_cast<int>(i);
      }
      if (items[i].expr->kind() == sql::ExprKind::kColumnRef) {
        const auto* ic =
            static_cast<const sql::ColumnRefExpr*>(items[i].expr.get());
        if (EqualsIgnoreCase(ic->column, c->column) &&
            (c->table.empty() || ic->table.empty() ||
             EqualsIgnoreCase(ic->table, c->table))) {
          return static_cast<int>(i);
        }
      }
    }
    return -1;
  }
  std::string key = expr->ToSQL(dialect);
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].is_star && items[i].expr->ToSQL(dialect) == key) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Top-level aggregate of a select item, or nullptr.
const sql::FuncCallExpr* TopLevelAggregate(const sql::SelectItem& item) {
  if (item.is_star || item.expr == nullptr) return nullptr;
  if (item.expr->kind() != sql::ExprKind::kFuncCall) return nullptr;
  const auto* f = static_cast<const sql::FuncCallExpr*>(item.expr.get());
  return f->IsAggregate() ? f : nullptr;
}

std::vector<sql::ExprPtr> CloneArgs(const sql::FuncCallExpr* f) {
  std::vector<sql::ExprPtr> args;
  args.reserve(f->args.size());
  for (const auto& a : f->args) args.push_back(a->Clone());
  return args;
}

AggKind AggKindOf(const std::string& name) {
  if (EqualsIgnoreCase(name, "COUNT")) return AggKind::kCount;
  if (EqualsIgnoreCase(name, "SUM")) return AggKind::kSum;
  if (EqualsIgnoreCase(name, "MIN")) return AggKind::kMin;
  if (EqualsIgnoreCase(name, "MAX")) return AggKind::kMax;
  return AggKind::kAvg;
}

}  // namespace

Result<RewriteResult> RewriteEngine::RewriteInsert(
    const sql::InsertStatement& stmt, const RouteResult& route,
    const std::vector<Value>& params) const {
  // Write path (DESIGN.md §10): the split keeps `?` placeholders, renumbered
  // per unit against a compact value slice, and each unit ships its AST
  // instead of text, so no side serializes or re-parses SQL.
  RewriteResult out;
  out.merge.is_select = false;
  out.merge.pass_through = route.IsSingleUnit();
  for (const RouteUnit& unit : route.units) {
    auto clone = std::make_unique<sql::InsertStatement>();
    clone->table = stmt.table;
    clone->columns = stmt.columns;
    // Batched-insert split (paper §VI-C): only this unit's rows. Dropping
    // rows renumbers the remaining placeholders against the unit's slice.
    ParamSlicer slicer(params);
    for (size_t r : unit.insert_rows) {
      std::vector<sql::ExprPtr> row;
      row.reserve(stmt.rows[r].size());
      for (const auto& e : stmt.rows[r]) {
        row.push_back(slicer.Remap(e.get()));
      }
      clone->rows.push_back(std::move(row));
    }
    if (clone->rows.empty()) continue;
    ApplyTableMappings(clone.get(), unit);
    SQLUnit out_unit;
    out_unit.data_source = unit.data_source;
    out_unit.params = slicer.TakeParams();
    out_unit.stmt = std::shared_ptr<const sql::Statement>(std::move(clone));
    out.units.push_back(std::move(out_unit));
  }
  return out;
}

Result<RewriteResult> RewriteEngine::RewriteSelect(
    const sql::SelectStatement& stmt, const RouteResult& route,
    const std::vector<Value>& params) const {
  RewriteResult out;
  MergeContext& merge = out.merge;
  merge.is_select = true;
  merge.distinct = stmt.distinct;

  if (route.IsSingleUnit()) {
    // Single-node optimization (paper §VI-C): no derivation, no pagination
    // revision — the one node computes the exact answer.
    merge.pass_through = true;
    auto clone_stmt = stmt.Clone();
    ApplyTableMappings(clone_stmt.get(), route.units[0]);
    out.units.push_back(SQLUnit{route.units[0].data_source,
                                clone_stmt->ToSQL(dialect_), params, nullptr});
    return out;
  }

  bool star = false;
  for (const auto& item : stmt.items) star = star || item.is_star;
  bool has_agg = stmt.HasAggregation();
  if (star && (has_agg || !stmt.group_by.empty())) {
    return Status::Unsupported("SELECT * cannot be merged with aggregation");
  }

  // Build the derived template.
  auto tmpl_owned = stmt.Clone();
  auto* tmpl = static_cast<sql::SelectStatement*>(tmpl_owned.get());
  // Star projections have a data-dependent width; 0 means "all columns"
  // (no derived columns are ever added to star queries).
  merge.visible_columns = star ? 0 : stmt.items.size();

  if (!star) {
    for (const auto& item : stmt.items) {
      merge.labels.push_back(item.Label(dialect_));
    }
    // Aggregation descriptors; AVG derives COUNT + SUM columns.
    int derived = 0;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const sql::FuncCallExpr* agg = TopLevelAggregate(stmt.items[i]);
      if (agg == nullptr) continue;
      AggDesc desc;
      desc.index = i;
      desc.kind = AggKindOf(agg->name);
      desc.distinct = agg->distinct;
      if (desc.kind == AggKind::kAvg && !desc.distinct) {
        auto count_item = sql::SelectItem(
            std::make_unique<sql::FuncCallExpr>(
                "COUNT", CloneArgs(agg), false, agg->star),
            "AVG_DERIVED_COUNT_" + std::to_string(derived));
        auto sum_item = sql::SelectItem(
            std::make_unique<sql::FuncCallExpr>(
                "SUM", CloneArgs(agg), false, false),
            "AVG_DERIVED_SUM_" + std::to_string(derived));
        desc.count_index = static_cast<int>(tmpl->items.size());
        merge.labels.push_back(count_item.alias);
        tmpl->items.push_back(std::move(count_item));
        desc.sum_index = static_cast<int>(tmpl->items.size());
        merge.labels.push_back(sum_item.alias);
        tmpl->items.push_back(std::move(sum_item));
        ++derived;
      }
      merge.aggregations.push_back(desc);
    }
  }

  // GROUP BY keys: locate or derive.
  int gb_derived = 0;
  for (const auto& g : stmt.group_by) {
    MergeKey key;
    int idx = star ? -1 : FindItemIndex(stmt.items, g.get(), dialect_);
    if (idx >= 0) {
      key.index = idx;
      key.name = merge.labels.empty() ? "" : merge.labels[static_cast<size_t>(idx)];
    } else if (!star) {
      key.index = static_cast<int>(tmpl->items.size());
      key.name = "GROUP_BY_DERIVED_" + std::to_string(gb_derived++);
      tmpl->items.emplace_back(g->Clone(), key.name);
      merge.labels.push_back(key.name);
    } else if (g->kind() == sql::ExprKind::kColumnRef) {
      key.name = static_cast<const sql::ColumnRefExpr*>(g.get())->column;
    } else {
      return Status::Unsupported("GROUP BY expression with SELECT *");
    }
    merge.group_by.push_back(std::move(key));
  }

  // ORDER BY keys: locate or derive.
  int ob_derived = 0;
  for (const auto& o : stmt.order_by) {
    MergeKey key;
    key.desc = o.desc;
    int idx = star ? -1 : FindItemIndex(stmt.items, o.expr.get(), dialect_);
    if (idx >= 0) {
      key.index = idx;
      key.name = merge.labels.empty() ? "" : merge.labels[static_cast<size_t>(idx)];
    } else if (!star) {
      key.index = static_cast<int>(tmpl->items.size());
      key.name = "ORDER_BY_DERIVED_" + std::to_string(ob_derived++);
      tmpl->items.emplace_back(o.expr->Clone(), key.name);
      merge.labels.push_back(key.name);
    } else if (o.expr->kind() == sql::ExprKind::kColumnRef) {
      key.name = static_cast<const sql::ColumnRefExpr*>(o.expr.get())->column;
    } else {
      return Status::Unsupported("ORDER BY expression with SELECT *");
    }
    merge.order_by.push_back(std::move(key));
  }

  // DISTINCT aggregates: per-shard distinct counts/sums do not add up, so
  // every shard also groups by the argument, returned in a derived column,
  // and the merger folds the distinct values of each output group. Shapes
  // the merger cannot fold are refused rather than answered wrongly.
  std::vector<std::pair<std::string, int>> distinct_cols;  ///< arg -> column
  for (AggDesc& desc : merge.aggregations) {
    if (!desc.distinct || desc.kind == AggKind::kMin ||
        desc.kind == AggKind::kMax) {
      continue;
    }
    const sql::FuncCallExpr* agg = TopLevelAggregate(stmt.items[desc.index]);
    if (agg->star || agg->args.size() != 1) {
      return Status::Unsupported(
          "DISTINCT aggregate over several columns across shards");
    }
    std::string arg = agg->args[0]->ToSQL(dialect_);
    auto found = std::find_if(distinct_cols.begin(), distinct_cols.end(),
                              [&](const auto& c) { return c.first == arg; });
    if (found != distinct_cols.end()) {
      desc.distinct_index = found->second;
      continue;
    }
    desc.distinct_index = static_cast<int>(tmpl->items.size());
    std::string label =
        "DISTINCT_DERIVED_" + std::to_string(distinct_cols.size());
    tmpl->items.emplace_back(agg->args[0]->Clone(), label);
    tmpl->group_by.push_back(agg->args[0]->Clone());
    merge.labels.push_back(label);
    distinct_cols.emplace_back(std::move(arg), desc.distinct_index);
  }
  const bool distinct_split = !distinct_cols.empty();
  if (distinct_split) {
    if (stmt.having != nullptr) {
      return Status::Unsupported("HAVING with a DISTINCT aggregate across shards");
    }
    for (const auto& o : stmt.order_by) {
      if (FindItemIndex(stmt.items, o.expr.get(), dialect_) < 0 &&
          o.expr->kind() == sql::ExprKind::kFuncCall &&
          static_cast<const sql::FuncCallExpr*>(o.expr.get())->IsAggregate()) {
        return Status::Unsupported(
            "ORDER BY an unselected aggregate with a DISTINCT aggregate across "
            "shards");
      }
    }
  }

  // Stream-merger optimization (paper §VI-C): a GROUP BY without ORDER BY
  // gets an ORDER BY over the group keys so the merger can stream.
  if (!stmt.group_by.empty()) {
    if (stmt.order_by.empty()) {
      for (size_t i = 0; i < stmt.group_by.size(); ++i) {
        tmpl->order_by.emplace_back(stmt.group_by[i]->Clone(), false);
      }
      merge.sorted_for_group = true;
    } else {
      // Stream merge also works when ORDER BY equals GROUP BY ascending.
      bool same = stmt.order_by.size() == stmt.group_by.size();
      for (size_t i = 0; same && i < stmt.order_by.size(); ++i) {
        same = !stmt.order_by[i].desc &&
               stmt.order_by[i].expr->ToSQL(dialect_) ==
                   stmt.group_by[i]->ToSQL(dialect_);
      }
      merge.sorted_for_group = same;
    }
  }

  // Pagination revision (paper §VI-C): each node must return the first
  // offset+count rows so the merger can skip the true offset globally. That
  // holds only when a shard's first rows contain every row of the global
  // first groups: not when groups merge in memory (a shard's local top-N
  // partial groups are not the global top N) nor when DISTINCT aggregates
  // split each group by their argument.
  bool complete_groups_first =
      !distinct_split && (stmt.group_by.empty() || merge.sorted_for_group);
  if (stmt.limit.has_value()) {
    merge.limit = stmt.limit;
    sql::LimitClause revised;
    revised.offset = 0;
    revised.count = stmt.limit->count < 0
                        ? -1
                        : stmt.limit->offset + stmt.limit->count;
    if (revised.count < 0 || !complete_groups_first) {
      tmpl->limit.reset();  // nodes return everything
    } else {
      tmpl->limit = revised;
    }
  }

  for (const RouteUnit& unit : route.units) {
    auto clone_stmt = tmpl->Clone();
    ApplyTableMappings(clone_stmt.get(), unit);
    out.units.push_back(
        SQLUnit{unit.data_source, clone_stmt->ToSQL(dialect_), params, nullptr});
  }
  return out;
}

Result<RewriteResult> RewriteEngine::Rewrite(
    const sql::Statement& stmt, const RouteResult& route,
    const std::vector<Value>& params) const {
  if (route.units.empty()) {
    return Status::RouteError("empty route result");
  }
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      return RewriteSelect(static_cast<const sql::SelectStatement&>(stmt), route,
                           params);
    case sql::StatementKind::kInsert:
      return RewriteInsert(static_cast<const sql::InsertStatement&>(stmt), route,
                           params);
    default: {
      // UPDATE/DELETE keep their original placeholders (no row splitting),
      // so the full parameter vector rides along unchanged, and their units
      // carry the rewritten AST instead of text. Other statements ship text.
      bool is_dml = stmt.kind() == sql::StatementKind::kUpdate ||
                    stmt.kind() == sql::StatementKind::kDelete;
      RewriteResult out;
      out.merge.is_select = false;
      out.merge.pass_through = route.IsSingleUnit();
      for (const RouteUnit& unit : route.units) {
        auto clone_stmt = stmt.Clone();
        ApplyTableMappings(clone_stmt.get(), unit);
        SQLUnit out_unit;
        out_unit.data_source = unit.data_source;
        out_unit.params = params;
        if (is_dml) {
          out_unit.stmt =
              std::shared_ptr<const sql::Statement>(std::move(clone_stmt));
        } else {
          out_unit.sql = clone_stmt->ToSQL(dialect_);
        }
        out.units.push_back(std::move(out_unit));
      }
      return out;
    }
  }
}

}  // namespace sphere::core
