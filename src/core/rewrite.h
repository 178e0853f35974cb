#ifndef SPHERE_CORE_REWRITE_H_
#define SPHERE_CORE_REWRITE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/route.h"
#include "sql/ast.h"
#include "sql/dialect.h"

namespace sphere::core {

/// Aggregate kinds the result merger understands.
enum class AggKind { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate column of the (physical) select list.
struct AggDesc {
  size_t index = 0;      ///< column position of the aggregate
  AggKind kind = AggKind::kCount;
  bool distinct = false;
  int sum_index = -1;    ///< kAvg: derived SUM column appended by the rewriter
  int count_index = -1;  ///< kAvg: derived COUNT column appended by the rewriter
  /// COUNT/SUM/AVG(DISTINCT x) over several shards: the derived column that
  /// carries `x`, which every shard also groups by. The merger folds the
  /// distinct `x` values of each output group instead of the partials.
  int distinct_index = -1;
};

/// Merge key: a physical column index when known at rewrite time, otherwise a
/// column name resolved against the first result set (star queries).
struct MergeKey {
  int index = -1;
  std::string name;
  bool desc = false;
};

/// Everything the result merger needs to combine per-shard results (built by
/// the rewriter, which knows what it derived).
struct MergeContext {
  bool is_select = false;
  bool pass_through = false;  ///< single route unit: no merging required
  std::vector<std::string> labels;  ///< physical labels incl. derived columns
  size_t visible_columns = 0;       ///< prefix the client sees
  std::vector<AggDesc> aggregations;
  std::vector<MergeKey> order_by;
  std::vector<MergeKey> group_by;
  /// Physical results arrive sorted by the group keys (stream group-by merge
  /// possible; the rewriter's stream-merger optimization sets this).
  bool sorted_for_group = false;
  bool distinct = false;
  std::optional<sql::LimitClause> limit;  ///< applied after merging
};

/// One executable SQL destined for one data source.
///
/// Units come in two forms (DESIGN.md §10). DML units (INSERT, UPDATE,
/// DELETE) are structured: `sql` is empty and `stmt` is the unit's whole
/// identity — the execution engine hands it to the node session directly,
/// and anything that needs a display text renders it on demand via
/// RenderSQL. Every other unit is text: `sql` holds the rewritten statement
/// and `stmt` is null.
struct SQLUnit {
  std::string data_source;
  std::string sql;
  std::vector<Value> params;
  /// The per-unit rewritten AST (actual table names applied, placeholders
  /// renumbered to `params`). Shared: interceptors copy units freely.
  std::shared_ptr<const sql::Statement> stmt;

  /// The unit's SQL text, built from `stmt` for structured units. For
  /// display (PREVIEW, logs) — not the execution path.
  std::string RenderSQL(const sql::Dialect& dialect) const {
    if (!sql.empty() || stmt == nullptr) return sql;
    return stmt->ToSQL(dialect);
  }
};

struct RewriteResult {
  std::vector<SQLUnit> units;
  MergeContext merge;
};

/// The SQL rewriter (paper §VI-C): correctness rewrites (identifier renaming,
/// column derivation, pagination revision, batched-insert split) and
/// optimization rewrites (single-node short circuit, stream-merger ORDER BY
/// injection).
class RewriteEngine {
 public:
  explicit RewriteEngine(const sql::Dialect& dialect = sql::Dialect::MySQL())
      : dialect_(dialect) {}

  Result<RewriteResult> Rewrite(const sql::Statement& stmt,
                                const RouteResult& route,
                                const std::vector<Value>& params) const;

 private:
  Result<RewriteResult> RewriteSelect(const sql::SelectStatement& stmt,
                                      const RouteResult& route,
                                      const std::vector<Value>& params) const;
  Result<RewriteResult> RewriteInsert(const sql::InsertStatement& stmt,
                                      const RouteResult& route,
                                      const std::vector<Value>& params) const;

  const sql::Dialect& dialect_;
};

/// Renames logic tables (FROM/JOIN/UPDATE/DELETE targets and matching column
/// qualifiers) to the unit's actual tables, in place.
void ApplyTableMappings(sql::Statement* stmt, const RouteUnit& unit);

}  // namespace sphere::core

#endif  // SPHERE_CORE_REWRITE_H_
